//! Whole-search benchmark of the NAAS co-search.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload accel_local --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs cold whole searches of the workload for about
//! `--seconds` and reports the end-to-end metrics; `--trace 1` runs the
//! workload's searches once untraced and once traced from outside and
//! reports the per-layer metrics. Every search result is checked against
//! `reference.json`; the last line of standard output is the JSON
//! result. `--record` prints a fresh `reference.json` instead. See
//! `README.md` for the workloads and what each metric is for.

mod fleet;
mod host;
mod reference;
mod report;
mod stats;
mod trace;
mod workloads;

use reference::References;
use report::{Layers, Metric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{Digest, Outcome, Tally, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{workload}` ({})", names.join(", "))
        })?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
    })
}

/// The workload's search inputs in the order this seed runs them.
fn rotated(seeds: &[u64], by: u64) -> Vec<u64> {
    let k = (by % seeds.len() as u64) as usize;
    seeds[k..].iter().chain(&seeds[..k]).copied().collect()
}

fn inputs(workload: Workload, seed: u64) -> Vec<u64> {
    match workload {
        Workload::AccelLocal | Workload::AccelFleet => rotated(&workloads::ACCEL_SEEDS, seed),
        Workload::JointLocal => rotated(&workloads::JOINT_SEEDS, seed),
        Workload::GatewayMixed => vec![seed],
    }
}

/// Runs `f`, turning a panic into a failed operation.
fn guarded<T>(tally: &mut Tally, what: &str, f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => Some(value),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            tally.record(Some(format!("{what} panicked: {message}")));
            None
        }
    }
}

/// Records a failure if threads started by the last search are still
/// alive.
fn check_threads(tally: &mut Tally, what: &str, baseline: usize) {
    if !host::threads_settle_to(baseline) {
        tally.record(Some(format!(
            "{what}: {} threads alive after tear-down, {baseline} before",
            host::thread_count()
        )));
    }
}

/// One cold search (or gateway session) of `input`, checked against its
/// reference and torn down. Returns the outcome and the turnaround of its
/// smallest job (for a single search, the search itself).
fn search_once(
    workload: Workload,
    input: u64,
    refs: &References,
    tally: &mut Tally,
    threads: usize,
) -> Option<(Outcome, f64)> {
    let what = format!("{} input {input}", workload.name());
    let outcome = match workload {
        Workload::AccelLocal => {
            guarded(tally, &what, || workloads::run_accel_local(input)).map(|o| {
                let r = refs.accel(input);
                (workloads::check(&what, &o.digest, Some(&o.work), &r), o)
            })
        }
        Workload::JointLocal => {
            guarded(tally, &what, || workloads::run_joint_local(input)).map(|o| {
                let r = refs.joint(input);
                (workloads::check(&what, &o.digest, Some(&o.work), &r), o)
            })
        }
        Workload::AccelFleet => guarded(tally, &what, || {
            let (o, exact, setup) = workloads::run_accel_fleet(input, std::convert::identity);
            (o, exact, setup.teardown())
        })
        .map(|(o, exact, teardown)| {
            let r = refs.accel(input);
            let error = teardown.err().map(|e| format!("{what}: {e}"));
            let error = error.or_else(|| workloads::check(&what, &o.digest, exact.as_ref(), &r));
            (error, o)
        }),
        Workload::GatewayMixed => {
            let jobs = workloads::gateway_jobs(input, refs);
            let mut session = Tally::default();
            let outcome = guarded(tally, &what, || {
                gateway_session(&jobs, refs, &mut session, None)
            });
            tally.merge(session);
            check_threads(tally, &what, threads);
            return outcome.flatten();
        }
    };
    let (error, outcome) = outcome?;
    let ok = error.is_none();
    tally.record(error);
    check_threads(tally, &what, threads);
    ok.then(|| {
        let search_s = outcome.search_s;
        (outcome, search_s)
    })
}

/// One gateway session: every job's result is checked against its
/// reference (the accel jobs against the very references `accel_local`
/// uses), and the session's total work against the gateway reference.
/// Returns the session outcome and the small job's turnaround.
fn gateway_session(
    jobs: &[workloads::JobSpec],
    refs: &References,
    tally: &mut Tally,
    layers: Option<&mut Layers>,
) -> Option<(Outcome, f64)> {
    let before = trace::Counters::read();
    let (gw, runs, search_s, cpu_s, draws) = workloads::run_gateway(jobs);
    let counters = trace::Counters::read().since(&before);
    let stats = gw.inner().engine().cache_stats();
    let mut subnets = 0;
    let mut small_job_s = f64::NAN;
    let mut ok = true;
    for run in &runs {
        let what = format!(
            "gateway {} job (seed {})",
            run.spec.kind, run.spec.reference.seed
        );
        let error = match &run.result {
            Ok((digest, evaluations)) => {
                if run.spec.kind == "joint" {
                    subnets += evaluations;
                    small_job_s = run.turnaround_s;
                }
                workloads::check(&what, digest, None, &run.spec.reference)
            }
            Err(e) => Some(format!("{what}: {e}")),
        };
        ok &= error.is_none();
        tally.record(error);
    }
    let work = workloads::Work {
        draws,
        layer_searches: stats.misses,
        hits: stats.hits,
        subnets,
    };
    if work != refs.gateway {
        ok = false;
        tally.record(Some(format!(
            "gateway session: work {work:?} differs from the reference {:?}",
            refs.gateway
        )));
    }
    if let Some(l) = layers {
        l.rec.draws += counters.draws;
        l.rec.valid_draws += counters.draws - counters.resamples;
        l.rec.evaluations += counters.draws + stats.misses;
        l.layer_searches += stats.misses;
        l.lookups += stats.hits + stats.misses;
        l.hits += stats.hits;
        l.entries += stats.entries;
        l.pool_jobs += counters.pool_jobs;
        l.pool_busy_s += counters.pool_busy_us as f64 * 1e-6;
        l.pool_capacity_s += search_s * workloads::nproc() as f64;
        l.jobs_done += counters.jobs_done;
        l.generations += counters.generations;
        l.tenant_a_generations += counters.tenant_a;
        l.tenant_b_generations += counters.tenant_b;
        l.turnaround_s.extend(runs.iter().map(|r| r.turnaround_s));
    }
    drop(gw);
    let designs = jobs.iter().map(|j| j.designs).sum();
    ok.then_some((
        Outcome {
            digest: Digest::default(),
            work,
            designs,
            search_s,
            cpu_s,
        },
        small_job_s,
    ))
}

/// Set-ups timed before each pass and after the last one, spread over
/// the run so that the set-up median sees the same host as the passes.
fn setup_chunk(workload: Workload) -> usize {
    match workload {
        Workload::AccelFleet => 20,
        _ => 100,
    }
}

/// `--trace 0`: whole passes over the workload's inputs while the next
/// pass would end at most half a pass after `--seconds` (at least one).
fn timed_run(args: &Args, refs: &References, tally: &mut Tally) -> Vec<Metric> {
    let w = args.workload;
    let chunk = setup_chunk(w);
    let start = Instant::now();
    let mut setup = workloads::setup_samples(w, 0, chunk);
    let threads = host::thread_count();
    let (mut search, mut cpu, mut rate, mut small) = (vec![], vec![], vec![], vec![]);
    let mut first_pass_rss = 0.0;
    let mut passes = 0;
    let mut pass_s = 0.0;
    while passes == 0 || start.elapsed().as_secs_f64() + pass_s / 2.0 <= args.seconds {
        let pass_start = Instant::now();
        let mut total = (0.0, 0.0, 0u64);
        let mut fastest = f64::INFINITY;
        let mut complete = true;
        let seeds = inputs(w, args.seed.wrapping_add(passes as u64));
        for &input in &seeds {
            match search_once(w, input, refs, tally, threads) {
                Some((o, small_job_s)) => {
                    total.0 += o.search_s;
                    total.1 += o.cpu_s;
                    total.2 += o.designs;
                    fastest = fastest.min(small_job_s);
                }
                None => complete = false,
            }
        }
        if complete {
            let n = seeds.len() as f64;
            search.push(total.0 / n);
            cpu.push(total.1 / n);
            rate.push(total.2 as f64 / total.0);
            small.push(fastest);
        }
        // Later passes only add allocator fragmentation to the peak, and
        // how many passes fit depends on the host; the first is the same
        // work in every run.
        if passes == 0 {
            first_pass_rss = host::peak_rss_mb();
        }
        passes += 1;
        setup.extend(workloads::setup_samples(w, passes * chunk, chunk));
        pass_s = pass_start.elapsed().as_secs_f64();
        if tally.failed > 0 {
            break;
        }
    }
    eprintln!("perfbench: {passes} passes; search_s {search:?}; small_job_s {small:?}");
    let setup_s = stats::median(&mut setup);
    let med = |v: &mut Vec<f64>| {
        if v.is_empty() {
            f64::NAN
        } else {
            stats::median(v)
        }
    };
    let values = [
        med(&mut search),
        med(&mut rate),
        setup_s,
        med(&mut cpu),
        first_pass_rss,
        med(&mut small),
    ];
    report::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect()
}

/// `--trace 1`: each input once untraced and once traced; the two must
/// agree bit for bit.
fn traced_run(args: &Args, refs: &References, tally: &mut Tally) -> Vec<Metric> {
    let w = args.workload;
    let threads = host::thread_count();
    let mut l = Layers::default();
    for input in inputs(w, args.seed) {
        let what = format!("traced {} input {input}", w.name());
        let Some((untraced, _)) = search_once(w, input, refs, tally, threads) else {
            continue;
        };
        l.searches += 1;
        l.untraced_s += untraced.search_s;
        let draws_before = l.rec.draws;
        let mut session_tally = Tally::default();
        let traced = guarded(tally, &what, || match w {
            Workload::AccelLocal | Workload::JointLocal => {
                let capacity = &mut l.pool_capacity_s;
                let t = if w == Workload::AccelLocal {
                    trace::accel(&mut l.rec, capacity, workloads::setup_accel(input))
                } else {
                    trace::joint(&mut l.rec, capacity, workloads::setup_joint(input))
                };
                l.layer_searches += t.cache.misses;
                l.lookups += t.cache.hits + t.cache.misses;
                l.hits += t.cache.hits;
                l.entries += t.cache.entries;
                (workloads::digest_state(t.state), t.search_s)
            }
            Workload::AccelFleet => {
                let before = trace::Counters::read();
                let (o, _, setup) = workloads::run_accel_fleet(input, trace::TimingService::wrap);
                let c = trace::Counters::read().since(&before);
                let sched = setup.coordinator.scheduler_stats();
                let wire = trace::fleet_wire(&setup.fleet);
                let entries: u64 = setup
                    .fleet
                    .services()
                    .map(|s| fleet::Served::base(s).engine().cache_stats().entries)
                    .sum();
                let workers = workloads::nproc() as f64;
                l.rec.draws += c.draws;
                l.rec.valid_draws += c.draws - c.resamples;
                l.rec.evaluations += c.draws + o.work.layer_searches;
                l.layer_searches += o.work.layer_searches;
                l.lookups += o.work.hits + o.work.layer_searches;
                l.hits += o.work.hits;
                l.entries += entries;
                let service_busy = wire.requests.total_s();
                l.pool_jobs += c.pool_jobs - wire.requests.len() as u64;
                l.pool_busy_s += (c.pool_busy_us as f64 * 1e-6 - service_busy).max(0.0);
                l.pool_capacity_s += workers * o.search_s;
                l.rpcs += c.rpcs;
                l.rpc_wait_s += c.rpc_us as f64 * 1e-6;
                l.steals += sched.steals;
                l.reissues += sched.reissues;
                l.gossip_entries += c.gossiped;
                l.request_bytes += wire.request_bytes;
                l.gossip_bytes += wire.gossip_in_bytes + wire.gossip_out_bytes;
                l.reply_bytes += wire.reply_bytes;
                l.service_busy_s += service_busy;
                l.service_capacity_s += workers * o.search_s;
                l.rec.service_request.absorb(wire.requests);
                if let Err(e) = setup.teardown() {
                    session_tally.record(Some(format!("{what}: {e}")));
                }
                (o.digest, o.search_s)
            }
            Workload::GatewayMixed => {
                // Job results are checked inside the session; the session
                // itself has no single state to compare.
                let jobs = workloads::gateway_jobs(input, refs);
                let session = gateway_session(&jobs, refs, &mut session_tally, Some(&mut l));
                (untraced.digest, session.map_or(0.0, |(o, _)| o.search_s))
            }
        });
        tally.merge(std::mem::take(&mut session_tally));
        let Some((digest, traced_s)) = traced else {
            continue;
        };
        l.traced_s += traced_s;
        let error = (digest != untraced.digest).then(|| {
            format!(
                "{what}: traced result {digest:?} differs from the untraced {:?}",
                untraced.digest
            )
        });
        let error = error.or_else(|| match w {
            Workload::AccelLocal | Workload::JointLocal => {
                let r = if w == Workload::AccelLocal {
                    refs.accel(input)
                } else {
                    refs.joint(input)
                };
                let draws = l.rec.draws - draws_before;
                (draws != r.work.draws).then(|| {
                    format!(
                        "{what}: traced run drew {draws} mappings, want {}",
                        r.work.draws
                    )
                })
            }
            _ => None,
        });
        tally.record(error);
        check_threads(tally, &what, threads);
    }
    l.pool_jobs += l.rec.pool_job.len() as u64;
    l.pool_busy_s += l.rec.pool_job.total_s();
    report::per_layer(&l)
}

/// `--record`: runs every reference input once and prints the
/// references file.
fn record() {
    let accel = workloads::ACCEL_SEEDS
        .iter()
        .map(|&seed| {
            let o = workloads::run_accel_local(seed);
            workloads::Reference {
                seed,
                digest: o.digest,
                work: o.work,
            }
        })
        .collect();
    let joint = workloads::JOINT_SEEDS
        .iter()
        .map(|&seed| {
            let o = workloads::run_joint_local(seed);
            workloads::Reference {
                seed,
                digest: o.digest,
                work: o.work,
            }
        })
        .collect();
    let small_joint = {
        let engine = naas::CoSearchEngine::new(0);
        let job = workloads::scenario().resolve().expect("scenario resolves");
        let mut state = naas::joint_search_init(&job.constraint, &workloads::small_joint_config());
        let (model, accuracy) = (
            naas_cost::CostModel::new(),
            naas_nas::AccuracyModel::default(),
        );
        while naas::joint_search_step(&engine, &model, &accuracy, &mut state) {}
        let stats = engine.cache_stats();
        workloads::Reference {
            seed: workloads::SMALL_JOINT_SEED,
            digest: workloads::digest_state(serde_json::to_value(&state)),
            work: workloads::Work {
                draws: 0,
                layer_searches: stats.misses,
                hits: stats.hits,
                subnets: state.evaluations() as u64,
            },
        }
    };
    let mut refs = References {
        accel,
        joint,
        small_joint,
        gateway: workloads::Work::default(),
    };
    let jobs = workloads::gateway_jobs(0, &refs);
    let (gw, runs, _, _, draws) = workloads::run_gateway(&jobs);
    let stats = gw.inner().engine().cache_stats();
    refs.gateway = workloads::Work {
        draws,
        layer_searches: stats.misses,
        hits: stats.hits,
        subnets: runs
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(|(_, subnets)| subnets)
            .sum(),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&refs).expect("references serialize")
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--record") {
        record();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 | --record"
            );
            std::process::exit(2);
        }
    };
    let refs = References::recorded();
    let steal_before = host::steal_seconds();
    let probe_before = host::probe_seconds();
    let mut tally = Tally::default();
    let mut metrics = if args.trace {
        traced_run(&args, &refs, &mut tally)
    } else {
        timed_run(&args, &refs, &mut tally)
    };
    for m in &mut metrics {
        if !m.value.is_finite() {
            tally.record(Some(format!("metric {} is {}", m.name, m.value)));
            m.value = 0.0;
        }
    }
    let diagnostics = serde::Value::Object(vec![
        (
            "workload".into(),
            serde::Value::Str(args.workload.name().into()),
        ),
        ("nproc".into(), serde::Value::U64(workloads::nproc() as u64)),
        ("cpu_model".into(), serde::Value::Str(host::cpu_model())),
        (
            "steal_s".into(),
            serde::Value::F64(host::steal_seconds() - steal_before),
        ),
        ("probe_s_before".into(), serde::Value::F64(probe_before)),
        (
            "probe_s_after".into(),
            serde::Value::F64(host::probe_seconds()),
        ),
        (
            "errors".into(),
            serde::Value::Array(
                tally
                    .errors
                    .iter()
                    .cloned()
                    .map(serde::Value::Str)
                    .collect(),
            ),
        ),
    ]);
    println!(
        "diagnostics {}",
        serde_json::to_string(&diagnostics).expect("diagnostics serialize")
    );
    println!(
        "{}",
        report::result_line(tally.attempted.max(1), tally.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
        benchmark
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let benchmark = serde_json::parse_str(text).expect("BENCHMARK.json parses");
        let end_to_end: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&benchmark, "end_to_end"), end_to_end);
        let per_layer: Vec<(String, String)> = report::per_layer(&Layers::default())
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(listed(&benchmark, "per_layer"), per_layer);
        let workloads: Vec<String> = benchmark
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn output_check_fails_on_a_perturbed_reference() {
        let reference = References::recorded().accel(workloads::ACCEL_SEEDS[0]);
        let (digest, work) = (reference.digest, reference.work);
        assert_eq!(
            workloads::check("x", &digest, Some(&work), &reference),
            None
        );
        let mut perturbed = reference;
        perturbed.digest.state ^= 1;
        assert!(workloads::check("x", &digest, Some(&work), &perturbed).is_some());
        let mut perturbed = reference;
        perturbed.digest.reward_bits ^= 1;
        assert!(workloads::check("x", &digest, None, &perturbed).is_some());
        let mut perturbed = reference;
        perturbed.work.draws += 1;
        assert!(workloads::check("x", &digest, Some(&work), &perturbed).is_some());
    }

    #[test]
    fn seeds_rotate_the_whole_input_set() {
        assert_eq!(rotated(&[1, 2, 3], 0), vec![1, 2, 3]);
        assert_eq!(rotated(&[1, 2, 3], 4), vec![2, 3, 1]);
    }
}
