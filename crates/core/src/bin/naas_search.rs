//! `naas-search` — CLI driver over the engine's declarative scenarios.
//!
//! ```text
//! naas-search list
//! naas-search run <scenario> [--preset smoke|quick|paper] [--seed N]
//!                            [--threads N] [--checkpoint FILE] [--every K]
//!                            [--cache-file FILE] [--cache-cap N]
//!                            [--workers host:port,...] [--metrics-file FILE]
//!                            [--microshards N] [--steal-deadline MS]
//!                            [--objectives scalar|pareto]
//! naas-search run --file scenario.json [...]
//! naas-search resume <checkpoint-file> [--threads N] [--every K]
//!                                      [--cache-file FILE] [--cache-cap N]
//!                                      [--workers host:port,...|local]
//!                                      [--metrics-file FILE]
//!                                      [--microshards N] [--steal-deadline MS]
//!                                      [--objectives scalar|pareto]
//! naas-search show <checkpoint-file>
//! naas-search serve [--port N] [--bind ADDR] [--preset smoke|quick|paper]
//!                   [--seed N] [--threads N] [--cache-file FILE]
//!                   [--cache-cap N] [--metrics-file FILE]
//! naas-search worker --port N [--bind ADDR] [--preset smoke|quick|paper]
//!                    [--seed N] [--threads N] [--cache-file FILE]
//!                    [--cache-cap N] [--metrics-file FILE]
//! naas-search gateway [--port N] [--bind ADDR] [--preset smoke|quick|paper]
//!                     [--seed N] [--max-jobs N] [--tenant-quota N]
//!                     [--executors N] [--workers host:port,...]
//!                     [--threads N] [--cache-file FILE] [--cache-cap N]
//!                     [--metrics-file FILE] [--microshards N]
//!                     [--steal-deadline MS]
//! naas-search client <host:port> [metrics]
//! naas-search client <host:port> submit --scenario NAME [--kind accel|joint]
//!                     [--tenant T] [--weight N] [--seed N] [--preset quick|paper]
//! naas-search client <host:port> status|events|cancel|result|wait --job N
//!                     [--since N] [--follow true]
//! ```
//!
//! A flag the subcommand does not read is a usage error naming it
//! (exit status 2), so a mistyped or retired flag never silently falls
//! back to a default; so is a flag given twice, which would otherwise
//! silently keep one of its values.
//!
//! `run` executes an accelerator search for a registered scenario (or one
//! loaded from a JSON file), optionally checkpointing every K generations;
//! `resume` continues an interrupted run to completion — deterministically
//! reproducing what the uninterrupted search would have returned; `show`
//! summarizes a checkpoint without running anything.
//!
//! `serve` starts the batch-evaluation service: one warm engine (shared
//! mapping cache, work-stealing pool) answering JSONL requests on
//! stdin/stdout and — with `--port` — on a TCP socket, coalescing
//! concurrent in-flight requests into batched pipeline calls. See
//! `naas::service` for the protocol and `docs/PROTOCOL.md` for the wire
//! spec. `client` connects to a serving process and bridges stdin/stdout
//! to it.
//!
//! `worker` is the TCP-only face of `serve`, meant to stand behind a
//! distributed run: `run --workers host:port,...` shards each
//! generation's population over the listed workers (`evaluate_shard`
//! requests), merges replies in candidate order, re-issues
//! the shard of any worker that dies mid-generation, and produces
//! **bit-identical** results (best design + history) to the same run
//! without `--workers`. The shard plan is recorded in checkpoints, so
//! `resume` re-dials the same fleet by default (`--workers` overrides;
//! `--workers local` forces single-process).
//!
//! `--microshards N` tunes how many micro-shards each live worker's
//! queue is cut into per generation (default 6). `--steal-deadline MS`
//! is the age after which an in-flight micro-shard is speculatively
//! re-issued to an idle worker (default 500 ms, first answer wins).
//! Both are scheduling knobs only — results stay bit-identical at any
//! setting — and both are recorded in the checkpointed shard plan, so
//! `resume` keeps the tuning unless overridden (a checkpoint recording
//! the retired static plan, `microshards: 0`, resumes on the default).
//! See docs/OPERATIONS.md ("Tuning the scheduler"). Degenerate tunings
//! (`--microshards 0`, `--steal-deadline 0`, `--microshards` above the
//! population) are rejected before any worker is dialed.
//!
//! `--cache-file` persists the engine's mapping memo cache: entries are
//! warm-loaded before the search starts (if the file exists) and the
//! cache is saved back on every checkpoint write and at completion.
//! Because cached results are content-addressed, warming never changes
//! results — it only skips recomputing `(design, layer-shape)` pairs a
//! previous run already solved, which is most of a resumed search's work.
//! Under `--workers` the workers' caches serve the search, and the
//! coordinator's file holds only what the coordinator computed itself
//! (shards no worker could take, and any new incumbent whose worker
//! report was missing or wrong); a fleet run therefore prints no cache
//! figure, and neither does `show` for its checkpoints.
//! `--cache-cap N` bounds the cache to N resident entries (CLOCK
//! eviction; unbounded by default) — set it on week-long runs and on
//! long-lived `serve`/`worker` processes so memory holds steady.
//! Eviction costs recomputation, never correctness.
//!
//! `--objectives pareto` keeps, alongside the unchanged scalarized
//! search, a deterministic bounded Pareto archive over
//! `(latency, energy, area, accuracy)` objective vectors; `run` and
//! `show` print the resulting front. The scalar trajectory is
//! bit-identical with or without the archive — the optimizer still
//! consumes the scalarized reward. The policy is recorded in the
//! checkpointed search config, so `resume` continues it automatically;
//! passing `--objectives` on resume merely asserts the recorded policy
//! (a mismatch is a hard error, because switching policies mid-run
//! would make the resumed front unreproducible).
//!
//! `gateway` is the multi-tenant job multiplexer (the `"jobs"`
//! capability): it serves everything `serve` does *plus* the `job_*`
//! command family, running many concurrent accel/joint search jobs as
//! checkpointed step-loops interleaved on one shared engine — and, with
//! `--workers`, one shared worker fleet. `--max-jobs` bounds resident
//! jobs (submits beyond it answer `rejected:over_capacity`),
//! `--tenant-quota` caps any one tenant's in-flight generations, and
//! `--executors` sets cross-job concurrency. The `client` job verbs
//! (`submit`/`status`/`events`/`cancel`/`result`/`wait`) drive it from
//! scripts; `events --follow true` streams per-generation progress as
//! JSONL. Results are byte-identical to running each job alone — see
//! docs/OPERATIONS.md ("Multi-tenant runs").
//!
//! `--metrics-file FILE` turns on the telemetry sink: structured fleet
//! events and periodic metrics snapshots are appended to FILE as JSONL
//! (one object per line, `"kind":"event"` or `"kind":"metrics"`) — on
//! `run`/`resume` a snapshot per generation, on `serve`/`worker` one
//! every 30 seconds. `naas-search client <host:port> metrics` fetches a
//! one-shot snapshot from a live serving process instead. Telemetry is
//! passive: results are bit-identical with or without it.

use naas::prelude::*;
use naas::{accel_search_init, AccelSearchState};
use naas_engine::telemetry::{self, Level};
use naas_engine::{checkpoint, scenario, CheckpointPolicy, Scenario};
use serde::{Deserialize, Serialize, Value};
use std::process::exit;

/// What `naas-search` writes to disk: the search state plus the scenario
/// it belongs to (so `resume` can rebuild the benchmark suite) and the
/// shard plan of a distributed run (so `resume` re-dials the fleet).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SearchCheckpoint {
    scenario: Scenario,
    state: AccelSearchState,
    /// `None` for single-process runs and checkpoints from older builds.
    shards: Option<naas::ShardPlan>,
}

fn usage() -> ! {
    telemetry::events().emit(
        Level::Error,
        "usage",
        "usage:\n  naas-search list\n  naas-search run <scenario|--file scenario.json> \
         [--preset smoke|quick|paper] [--seed N] [--threads N] [--checkpoint FILE] [--every K] \
         [--cache-file FILE] [--cache-cap N] [--workers host:port,...] [--metrics-file FILE] \
         [--microshards N] [--steal-deadline MS] [--objectives scalar|pareto]\n  \
         naas-search resume <checkpoint-file> [--threads N] [--every K] [--cache-file FILE] \
         [--cache-cap N] [--workers host:port,...|local] [--metrics-file FILE] \
         [--microshards N] [--steal-deadline MS] [--objectives scalar|pareto]\n  \
         naas-search show <checkpoint-file>\n  \
         naas-search serve [--port N] [--bind ADDR] [--preset smoke|quick|paper] [--seed N] \
         [--threads N] [--cache-file FILE] [--cache-cap N] [--metrics-file FILE]\n  \
         naas-search worker --port N [--bind ADDR] [--preset smoke|quick|paper] [--seed N] \
         [--threads N] [--cache-file FILE] [--cache-cap N] [--metrics-file FILE]\n  \
         naas-search gateway [--port N] [--bind ADDR] [--preset smoke|quick|paper] [--seed N] \
         [--max-jobs N] [--tenant-quota N] [--executors N] [--workers host:port,...] \
         [--threads N] [--cache-file FILE] [--cache-cap N] [--metrics-file FILE] \
         [--microshards N] [--steal-deadline MS]\n  \
         naas-search client <host:port> [metrics]\n  \
         naas-search client <host:port> submit --scenario NAME [--kind accel|joint] \
         [--tenant T] [--weight N] [--seed N] [--preset quick|paper]\n  \
         naas-search client <host:port> status|events|cancel|result|wait --job N \
         [--since N] [--follow true]",
        &[],
    );
    exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    telemetry::events().emit(
        Level::Error,
        "fatal",
        &format!("naas-search: {msg}"),
        &[("error", Value::Str(msg.to_string()))],
    );
    exit(1);
}

/// The `--flags` each subcommand reads; `None` for an unknown
/// subcommand.
fn known_flags(cmd: &str) -> Option<&'static [&'static str]> {
    const SERVICE: &[&str] = &[
        "port",
        "bind",
        "preset",
        "seed",
        "threads",
        "cache-file",
        "cache-cap",
        "metrics-file",
    ];
    Some(match cmd {
        "list" | "show" => &[],
        "run" => &[
            "file",
            "preset",
            "seed",
            "threads",
            "checkpoint",
            "every",
            "cache-file",
            "cache-cap",
            "workers",
            "metrics-file",
            "microshards",
            "steal-deadline",
            "objectives",
        ],
        "resume" => &[
            "threads",
            "every",
            "cache-file",
            "cache-cap",
            "workers",
            "metrics-file",
            "microshards",
            "steal-deadline",
            "objectives",
        ],
        "serve" | "worker" => SERVICE,
        "gateway" => &[
            "port",
            "bind",
            "preset",
            "seed",
            "threads",
            "cache-file",
            "cache-cap",
            "metrics-file",
            "max-jobs",
            "tenant-quota",
            "executors",
            "workers",
            "microshards",
            "steal-deadline",
        ],
        "client" => &[
            "scenario", "kind", "tenant", "weight", "seed", "preset", "job", "since", "follow",
        ],
        _ => return None,
    })
}

/// Tiny flag parser: positionals plus `--key value` options.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Args {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut it = raw.into_iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = it.next().unwrap_or_else(|| usage());
                options.push((key.to_string(), value));
            } else {
                positional.push(arg);
            }
        }
        Args {
            positional,
            options,
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(format!("--{key} expects a number, got `{v}`")))
        })
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1).collect());
    let cmd = args.positional.first().map_or("", String::as_str);
    let known = known_flags(cmd).unwrap_or_else(|| usage());
    if let Some((key, _)) = args
        .options
        .iter()
        .find(|(k, _)| !known.contains(&k.as_str()))
    {
        telemetry::events().emit(
            Level::Error,
            "unknown_flag",
            &format!("naas-search {cmd}: unknown flag `--{key}`"),
            &[("flag", Value::Str(format!("--{key}")))],
        );
        usage();
    }
    if let Some((_, (key, _))) = args
        .options
        .iter()
        .enumerate()
        .find(|(i, (key, _))| args.options[..*i].iter().any(|(k, _)| k == key))
    {
        telemetry::events().emit(
            Level::Error,
            "repeated_flag",
            &format!("naas-search {cmd}: flag `--{key}` given more than once"),
            &[("flag", Value::Str(format!("--{key}")))],
        );
        usage();
    }
    match cmd {
        "list" => cmd_list(),
        "run" => cmd_run(&args),
        "resume" => cmd_resume(&args),
        "show" => cmd_show(&args),
        "serve" => cmd_serve(&args),
        "worker" => cmd_worker(&args),
        "gateway" => cmd_gateway(&args),
        "client" => cmd_client(&args),
        _ => usage(),
    }
}

fn cmd_list() {
    println!("registered scenarios:\n");
    for s in scenario::registry() {
        println!(
            "  {:<20} {} [{} nets, envelope {}, seed {}]",
            s.name,
            s.description,
            s.networks.len(),
            s.envelope,
            s.seed
        );
    }
    println!("\nrun one with: naas-search run <name> [--preset smoke|quick|paper]");
}

fn search_config(args: &Args, seed: u64, threads: usize) -> AccelSearchConfig {
    let preset = args.get("preset").unwrap_or("quick");
    let (population, iterations, map_population, map_iterations) = match preset {
        "smoke" => (5, 3, 6, 2),
        "quick" => (10, 8, 12, 4),
        "paper" => (20, 15, 16, 6),
        other => fail(format!("unknown preset `{other}` (smoke|quick|paper)")),
    };
    let mut cfg = AccelSearchConfig::paper(seed);
    cfg.population = population;
    cfg.iterations = iterations;
    cfg.mapping.population = map_population;
    cfg.mapping.iterations = map_iterations;
    cfg.mapping.seed = seed;
    cfg.threads = threads;
    cfg.objectives = objectives_flag(args).unwrap_or_default();
    cfg
}

/// Parses `--objectives scalar|pareto`; `None` when the flag is absent.
fn objectives_flag(args: &Args) -> Option<naas::ObjectivePolicy> {
    args.get("objectives")
        .map(|spec| naas::ObjectivePolicy::parse(spec).unwrap_or_else(|e| fail(e)))
}

fn cmd_run(args: &Args) {
    let scenario = match (args.positional.get(1), args.get("file")) {
        (_, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            serde_json::from_str::<Scenario>(&text)
                .unwrap_or_else(|e| fail(format!("cannot parse {path}: {e}")))
        }
        (Some(name), None) => scenario::find(name).unwrap_or_else(|| {
            fail(format!(
                "unknown scenario `{name}` — see `naas-search list`"
            ))
        }),
        (None, None) => usage(),
    };
    let job = scenario.resolve().unwrap_or_else(|e| fail(e));
    let seed = args.get_num("seed").unwrap_or(job.scenario.seed);
    let threads = args.get_num("threads").unwrap_or(0);
    let cfg = search_config(args, seed, threads);
    check_scheduler_flags(args, cfg.population);

    let policy = args.get("checkpoint").map(|path| CheckpointPolicy {
        path: path.into(),
        every: args.get_num("every").unwrap_or(1),
    });

    println!(
        "searching `{}` — {} network(s) within {} resources, population {} × {} generations",
        job.scenario.name,
        job.networks.len(),
        job.baseline.name(),
        cfg.population,
        cfg.iterations
    );

    init_metrics_file(args);
    let engine = CoSearchEngine::new(cfg.threads);
    let cache_file = warm_load_cache(&engine, args);
    let model = CostModel::new();
    let seeds: Vec<_> = if job.scenario.warm_start {
        vec![job.baseline.clone()]
    } else {
        vec![]
    };

    let state = accel_search_init(&job.constraint, &cfg, &seeds);
    let mut driver = make_driver(args, args.get("workers"), &job.scenario);
    drive(
        &engine,
        &model,
        &job,
        state,
        policy.as_ref(),
        cache_file,
        &mut driver,
    );
}

/// Where generations are evaluated: in-process, or sharded over a fleet
/// of `naas-search worker` processes.
enum Driver {
    Local,
    Distributed(Box<naas::DistributedCoordinator>),
}

impl Driver {
    fn step(
        &mut self,
        engine: &CoSearchEngine,
        model: &CostModel,
        networks: &[Network],
        state: &mut AccelSearchState,
    ) -> bool {
        match self {
            Driver::Local => naas::accel_search_step(engine, model, networks, state),
            Driver::Distributed(coordinator) => coordinator.step(engine, model, networks, state),
        }
    }

    fn plan(&self) -> Option<naas::ShardPlan> {
        match self {
            Driver::Local => None,
            Driver::Distributed(coordinator) => Some(coordinator.plan()),
        }
    }

    /// The cache figure a progress line ends with (`, cache N% hit`), or
    /// with `long` the final report's cache line. `None` under
    /// `--workers`: the workers' caches serve the search, so no figure
    /// of the coordinator's cache means anything.
    fn cache_summary(&self, stats: &naas_engine::CacheStats, long: bool) -> Option<String> {
        if matches!(self, Driver::Distributed(_)) {
            return None;
        }
        Some(if long {
            format!(
                "cache: {} entries, {} hits / {} misses ({:.0}% hit rate)",
                stats.entries,
                stats.hits,
                stats.misses,
                stats.hit_rate() * 100.0
            )
        } else {
            format!(", cache {:.0}% hit", stats.hit_rate() * 100.0)
        })
    }
}

/// Builds the generation driver from a `--workers` value: a
/// comma-separated `host:port` list shards over that fleet; absent or
/// `local` runs in-process. Either way the search results are
/// bit-identical — workers only relocate candidate evaluations.
fn make_driver(args: &Args, workers: Option<&str>, scenario: &Scenario) -> Driver {
    let Some(list) = workers else {
        return Driver::Local;
    };
    if list == "local" {
        return Driver::Local;
    }
    let addrs: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(String::from)
        .collect();
    if addrs.is_empty() {
        fail("--workers expects a comma-separated host:port list (or `local`)");
    }
    let mut coordinator = naas::DistributedCoordinator::connect(&addrs, scenario)
        .unwrap_or_else(|e| fail(format!("cannot connect worker fleet: {e}")));
    apply_scheduler_flags(&mut coordinator, args, None);
    println!(
        "sharding over {} worker(s): {}",
        addrs.len(),
        addrs.join(", ")
    );
    Driver::Distributed(Box::new(coordinator))
}

/// Applies `--microshards` / `--steal-deadline` to a coordinator. On
/// resume, a recorded shard `plan` supplies the defaults (the tuning an
/// interrupted run was using), and explicit flags override it; old
/// checkpoints without the fields keep the built-in defaults, and a
/// recorded `microshards: 0` (the retired static plan) selects the
/// default too. Tuning never changes results — only how fast
/// generations clear.
fn apply_scheduler_flags(
    coordinator: &mut naas::DistributedCoordinator,
    args: &Args,
    plan: Option<&naas::ShardPlan>,
) {
    let recorded = plan.and_then(|p| p.microshards);
    if let Some(micro) = args.get_num("microshards").or(recorded) {
        coordinator.set_microshards(micro);
    }
    let recorded_ms = plan.and_then(|p| p.steal_deadline_ms);
    if let Some(ms) = args.get_num::<u64>("steal-deadline").or(recorded_ms) {
        coordinator.set_steal_deadline(std::time::Duration::from_millis(ms));
    }
}

/// Rejects degenerate scheduler tunings at parse time, before any
/// worker is dialed or any generation runs. Only explicitly-given
/// flags are checked — absent flags fall back to defaults that are
/// valid by construction, and recorded checkpoint values were already
/// validated by the run that wrote them.
fn check_scheduler_flags(args: &Args, population: usize) {
    naas::validate_scheduler_flags(
        args.get_num("microshards"),
        args.get_num("steal-deadline").unwrap_or(1),
        population,
    )
    .unwrap_or_else(|e| fail(e));
}

/// Resolves `--cache-cap` (0 = unbounded) and `--cache-file`,
/// warm-loading the latter into the engine's memo cache when the file
/// already exists (the cap is applied first, so an oversized file is
/// trimmed on absorption). Returns the path so the driver can persist
/// the cache as the search progresses.
fn warm_load_cache<'a>(engine: &CoSearchEngine, args: &'a Args) -> Option<&'a std::path::Path> {
    if let Some(cap) = args.get_num("cache-cap") {
        engine.cache().set_entry_cap(cap);
    }
    let path = args.get("cache-file").map(std::path::Path::new)?;
    if path.exists() {
        match engine.load_cache_file(path) {
            Ok(entries) => println!(
                "warm-loaded {entries} cache entries from {}",
                path.display()
            ),
            Err(e) => fail(format!("cannot load cache file {}: {e}", path.display())),
        }
    }
    Some(path)
}

/// Attaches the telemetry JSONL sink when `--metrics-file` is given.
/// Returns whether a sink is now active (structured events and metrics
/// snapshots flow to the file; stderr rendering is unaffected).
fn init_metrics_file(args: &Args) -> bool {
    let Some(path) = args.get("metrics-file") else {
        return false;
    };
    telemetry::events()
        .open_sink(path)
        .unwrap_or_else(|e| fail(format!("cannot open metrics file {path}: {e}")));
    true
}

/// Appends one metrics snapshot line for `engine` to the telemetry
/// sink; a no-op without `--metrics-file`.
fn write_metrics_snapshot(engine: &CoSearchEngine) {
    telemetry::events()
        .write_metrics(&telemetry::metrics().snapshot(telemetry::cache_counters(engine.cache())));
}

fn cmd_resume(args: &Args) {
    let path = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let snapshot: SearchCheckpoint = checkpoint::load(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(format!("cannot load {path}: {e}")));
    snapshot
        .state
        .check_loaded()
        .unwrap_or_else(|e| fail(format!("cannot resume {path}: {e}")));
    let job = snapshot.scenario.resolve().unwrap_or_else(|e| fail(e));
    // The objective policy is part of the recorded search config: a
    // resumed run must continue it, or the front would not reproduce
    // the uninterrupted run's. `--objectives` on resume is an assertion
    // only — a mismatch is refused rather than silently switched.
    if let Some(requested) = objectives_flag(args) {
        let recorded = snapshot.state.config.objectives;
        if requested != recorded {
            fail(format!(
                "--objectives {requested} conflicts with the checkpoint's recorded \
                 policy `{recorded}`; a resumed run always continues the recorded policy"
            ));
        }
    }
    let threads = args
        .get_num("threads")
        .unwrap_or(snapshot.state.config.threads);
    check_scheduler_flags(args, snapshot.state.config.population);
    // A resumed run keeps checkpointing to the file it came from (same
    // cadence flag as `run`), so a second interruption loses at most
    // `--every` generations — not everything since the first crash.
    let policy = CheckpointPolicy {
        path: path.into(),
        every: args.get_num("every").unwrap_or(1),
    };

    println!(
        "resuming `{}` at generation {}/{} from {path}",
        job.scenario.name, snapshot.state.iteration, snapshot.state.config.iterations
    );
    init_metrics_file(args);
    let engine = CoSearchEngine::new(threads);
    let cache_file = warm_load_cache(&engine, args);
    let model = CostModel::new();
    // `--workers` overrides the recorded shard plan; without it, re-dial
    // the plan the interrupted run was sharded over. Either way the
    // resumed trajectory is identical — sharding never changes results.
    let mut driver = match (args.get("workers"), &snapshot.shards) {
        (Some(flag), _) => make_driver(args, Some(flag), &job.scenario),
        (None, Some(plan)) => {
            match naas::DistributedCoordinator::connect(&plan.workers, &job.scenario) {
                Ok(mut coordinator) => {
                    apply_scheduler_flags(&mut coordinator, args, Some(plan));
                    println!("re-dialed recorded shard plan: {}", plan.workers.join(", "));
                    Driver::Distributed(Box::new(coordinator))
                }
                Err(e) => {
                    telemetry::events().emit(
                        Level::Warn,
                        "shard_plan_unreachable",
                        &format!(
                            "recorded shard plan unreachable ({e}); resuming single-process \
                             (results are identical either way)"
                        ),
                        &[
                            ("error", Value::Str(e.to_string())),
                            ("workers", Value::Str(plan.workers.join(","))),
                        ],
                    );
                    Driver::Local
                }
            }
        }
        (None, None) => Driver::Local,
    };
    drive(
        &engine,
        &model,
        &job,
        snapshot.state,
        Some(&policy),
        cache_file,
        &mut driver,
    );
}

/// Steps a search to completion with progress lines and (optionally)
/// per-generation `SearchCheckpoint` snapshots; prints the final report.
/// With a cache file, the memo cache is persisted alongside every
/// checkpoint write and once more at completion, so an interrupted run
/// resumes with its mapping results already warm.
#[allow(clippy::too_many_arguments)]
fn drive(
    engine: &CoSearchEngine,
    model: &CostModel,
    job: &naas_engine::EvalJob,
    mut state: AccelSearchState,
    policy: Option<&CheckpointPolicy>,
    cache_file: Option<&std::path::Path>,
    driver: &mut Driver,
) {
    let iterations = state.config.iterations;
    let started = std::time::Instant::now();
    while driver.step(engine, model, &job.networks, &mut state) {
        let last = state.history().last().expect("step appends history");
        println!(
            "  gen {:>2}/{}: best EDP {:.3e}, population mean {:.3e}, {} valid{}",
            state.iteration,
            iterations,
            last.best_edp,
            last.mean_edp,
            last.valid,
            driver
                .cache_summary(&state.cache_stats, false)
                .unwrap_or_default()
        );
        write_metrics_snapshot(engine);
        let due = policy
            .map(|p| p.due_after(state.iteration - 1))
            .unwrap_or(false);
        if due || state.is_done() {
            if let Some(policy) = policy {
                let snapshot = SearchCheckpoint {
                    scenario: job.scenario.clone(),
                    state: state.clone(),
                    shards: driver.plan(),
                };
                checkpoint::save(&policy.path, &snapshot)
                    .unwrap_or_else(|e| fail(format!("cannot write checkpoint: {e}")));
            }
            if let Some(path) = cache_file {
                engine
                    .cache()
                    .save_to(path)
                    .unwrap_or_else(|e| fail(format!("cannot write cache file: {e}")));
            }
        }
    }
    write_metrics_snapshot(engine);
    let cache_line = driver.cache_summary(&state.cache_stats, true);
    report(state, started.elapsed(), cache_line.as_deref());
}

fn cmd_show(args: &Args) {
    let path = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let snapshot: SearchCheckpoint = checkpoint::load(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(format!("cannot load {path}: {e}")));
    let state = &snapshot.state;
    // A fleet run's recorded cache counters are the coordinator's, which
    // served none of the search's lookups: print no figure of them.
    let cache = match snapshot.shards {
        Some(_) => String::new(),
        None => format!(
            ", cache {} entries ({:.0}% hit)",
            state.cache_stats.entries,
            state.cache_stats.hit_rate() * 100.0
        ),
    };
    println!(
        "scenario `{}`: generation {}/{}, {} evaluations{cache}",
        snapshot.scenario.name,
        state.iteration,
        state.config.iterations,
        state.history().iter().map(|h| h.valid).sum::<usize>(),
    );
    match state.best() {
        Some(best) => println!(
            "best so far: reward {:.3e}\n{}",
            best.reward,
            best.accelerator.design_card()
        ),
        None => println!("no valid design found yet"),
    }
    if let Some(archive) = state.archive() {
        println!("\n{}", archive.render());
    }
}

/// Resolves the `--bind` address (default: loopback only; pass
/// `--bind 0.0.0.0` to serve a multi-machine fleet).
fn bind_addr(args: &Args) -> &str {
    args.get("bind").unwrap_or("127.0.0.1")
}

/// The service-construction preamble shared by `serve` and `worker`:
/// flag parsing, warm cache load, startup banner.
fn build_service(args: &Args, banner: &str) -> naas::BatchEvalService {
    let threads = args.get_num("threads").unwrap_or(0);
    let seed = args.get_num("seed").unwrap_or(2021);
    let mapping = search_config(args, seed, threads).mapping;
    // Chaos-testing hook: NAAS_EVAL_DELAY_US slows every shard
    // evaluation by that many microseconds per candidate, serialized —
    // a worker started with it set behaves like a genuinely slow
    // machine. Never changes any answer.
    let eval_delay_us = std::env::var("NAAS_EVAL_DELAY_US")
        .ok()
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(format!("NAAS_EVAL_DELAY_US expects a number, got `{v}`")))
        })
        .unwrap_or(0);
    let service = naas::BatchEvalService::new(naas::ServiceConfig {
        threads,
        mapping,
        cache_file: args.get("cache-file").map(std::path::PathBuf::from),
        cache_cap: args.get_num("cache-cap").unwrap_or(0),
        eval_delay_us,
    })
    .unwrap_or_else(|e| fail(format!("cannot start {banner}: {e}")));
    telemetry::events().emit(
        Level::Info,
        "service_started",
        &format!(
            "naas-search {banner}: {} worker thread(s), mapping budget {}x{}, \
             {} warm cache entries",
            service.threads(),
            mapping.population,
            mapping.iterations,
            service.engine().cache_stats().entries
        ),
        &[
            ("mode", Value::Str(banner.to_string())),
            ("threads", Value::U64(service.threads() as u64)),
            (
                "warm_entries",
                Value::U64(service.engine().cache_stats().entries),
            ),
        ],
    );
    service
}

/// The periodic `--metrics-file` snapshot writer for the long-lived
/// service modes (`serve`/`worker`): one metrics line every 30 seconds,
/// from a detached thread that dies with the process. Structured events
/// flow to the same sink as they happen.
fn start_metrics_snapshots(args: &Args, service: &std::sync::Arc<naas::BatchEvalService>) {
    if !init_metrics_file(args) {
        return;
    }
    let service = std::sync::Arc::clone(service);
    std::thread::spawn(move || loop {
        std::thread::sleep(std::time::Duration::from_secs(30));
        write_metrics_snapshot(service.engine());
    });
}

/// `serve`: the batch-evaluation service. One warm engine answers JSONL
/// requests on stdin/stdout; `--port` additionally accepts TCP
/// connections (on `--bind`, default loopback). A `shutdown` command
/// (from any stream) persists the cache and exits cleanly; without
/// `--port`, stdin EOF does the same.
fn cmd_serve(args: &Args) {
    let service = std::sync::Arc::new(build_service(args, "serve"));
    start_metrics_snapshots(args, &service);
    let server = naas::ServiceServer::start(std::sync::Arc::clone(&service));

    let port: Option<u16> = args.get_num("port");
    match port {
        None => {
            let stdin = std::io::BufReader::new(std::io::stdin());
            let stdout = std::io::stdout().lock();
            server
                .serve_stream(stdin, stdout)
                .unwrap_or_else(|e| fail(format!("stdio stream failed: {e}")));
            server
                .stop()
                .unwrap_or_else(|e| fail(format!("cannot persist cache: {e}")));
        }
        Some(port) => {
            let listener = bind_listener(args, port);
            let server = std::sync::Arc::new(server);
            let tcp = {
                // One thread per connection inside `serve_listener`;
                // requests from every connection coalesce in the shared
                // batcher.
                let server = std::sync::Arc::clone(&server);
                std::thread::spawn(move || match server.serve_listener(listener) {
                    Ok(_) => finish_and_exit(&server),
                    Err(e) => fail(format!("TCP listener failed: {e}")),
                })
            };
            let stdin = std::io::BufReader::new(std::io::stdin());
            let stdout = std::io::stdout().lock();
            if let Ok(true) = server.serve_stream(stdin, stdout) {
                finish_and_exit(&server);
            }
            // stdin EOF without shutdown: keep serving TCP. The listener
            // thread never returns normally (shutdown exits the process,
            // a listener failure fails it), so this join parks forever.
            let _ = tcp.join();
            unreachable!("TCP listener thread exits the process");
        }
    }
}

/// Binds the TCP listener for `serve --port` / `worker`.
fn bind_listener(args: &Args, port: u16) -> std::net::TcpListener {
    let bind = bind_addr(args);
    let listener = std::net::TcpListener::bind((bind, port))
        .unwrap_or_else(|e| fail(format!("cannot bind {bind}:{port}: {e}")));
    telemetry::events().emit(
        Level::Info,
        "listening",
        &format!("listening on {bind}:{port}"),
        &[
            ("bind", Value::Str(bind.to_string())),
            ("port", Value::U64(u64::from(port))),
        ],
    );
    listener
}

/// `worker`: the TCP-only face of `serve`, for standing behind a
/// distributed `run --workers` coordinator. Accepts connections (on
/// `--bind`, default loopback — use `--bind 0.0.0.0` for a
/// multi-machine fleet) until a `shutdown` command arrives on any of
/// them, then drains every queued request, persists the cache and
/// exits. Stdin is untouched, so workers background cleanly
/// (`naas-search worker --port 4801 &`).
fn cmd_worker(args: &Args) {
    let port: u16 = args
        .get_num("port")
        .unwrap_or_else(|| fail("worker mode requires --port"));
    let service = std::sync::Arc::new(build_service(args, "worker"));
    start_metrics_snapshots(args, &service);
    let listener = bind_listener(args, port);
    let server = std::sync::Arc::new(naas::ServiceServer::start(service));
    match server.serve_listener(listener) {
        Ok(_) => finish_and_exit(&server),
        Err(e) => fail(format!("worker listener failed: {e}")),
    }
}

/// `gateway`: the multi-tenant job multiplexer — everything `serve`
/// answers plus the `job_*` command family, running concurrent search
/// jobs interleaved on the shared engine (and, with `--workers`, a
/// shared fleet). Same stdio/TCP plumbing as `serve`.
fn cmd_gateway(args: &Args) {
    let inner = std::sync::Arc::new(build_service(args, "gateway"));
    let fleet = match args.get("workers") {
        None | Some("local") => None,
        Some(list) => {
            let addrs: Vec<String> = list
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(String::from)
                .collect();
            if addrs.is_empty() {
                fail("--workers expects a comma-separated host:port list (or `local`)");
            }
            // Gateway jobs pick their own populations per preset, so
            // the microshard bound cannot be checked here — the
            // coordinator clamps shard counts per generation anyway.
            // The zero checks still apply, before any worker is dialed.
            check_scheduler_flags(args, usize::MAX);
            let coordinator = naas::DistributedCoordinator::connect_fleet(&addrs)
                .unwrap_or_else(|e| fail(format!("cannot connect worker fleet: {e}")));
            let shared = naas::SharedCoordinator::new(coordinator);
            shared.configure(
                args.get_num("microshards"),
                args.get_num::<u64>("steal-deadline")
                    .map(std::time::Duration::from_millis),
            );
            println!(
                "gateway sharding over {} worker(s): {}",
                addrs.len(),
                addrs.join(", ")
            );
            Some(shared)
        }
    };
    let gateway = std::sync::Arc::new(naas::GatewayService::start(
        std::sync::Arc::clone(&inner),
        fleet,
        naas::GatewayConfig {
            max_jobs: args.get_num("max-jobs").unwrap_or(0),
            tenant_quota: args.get_num("tenant-quota").unwrap_or(0),
            executors: args.get_num("executors").unwrap_or(0),
        },
    ));
    if init_metrics_file(args) {
        let inner = std::sync::Arc::clone(&inner);
        std::thread::spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_secs(30));
            write_metrics_snapshot(inner.engine());
        });
    }
    let server = naas::ServiceServer::start(std::sync::Arc::clone(&gateway));

    let port: Option<u16> = args.get_num("port");
    match port {
        None => {
            let stdin = std::io::BufReader::new(std::io::stdin());
            let stdout = std::io::stdout().lock();
            server
                .serve_stream(stdin, stdout)
                .unwrap_or_else(|e| fail(format!("stdio stream failed: {e}")));
            server
                .stop()
                .unwrap_or_else(|e| fail(format!("cannot persist cache: {e}")));
        }
        Some(port) => {
            let listener = bind_listener(args, port);
            let server = std::sync::Arc::new(server);
            let tcp = {
                let server = std::sync::Arc::clone(&server);
                std::thread::spawn(move || match server.serve_listener(listener) {
                    Ok(_) => finish_and_exit(&server),
                    Err(e) => fail(format!("TCP listener failed: {e}")),
                })
            };
            let stdin = std::io::BufReader::new(std::io::stdin());
            let stdout = std::io::stdout().lock();
            if let Ok(true) = server.serve_stream(stdin, stdout) {
                finish_and_exit(&server);
            }
            let _ = tcp.join();
            unreachable!("TCP listener thread exits the process");
        }
    }
}

/// The shutdown path shared by `serve --port`, `worker` and `gateway`:
/// drain the batcher (every queued request across all connections gets
/// its response computed and handed to its stream), persist the cache,
/// then exit 0. The stream that requested shutdown is fully flushed
/// before this runs; sibling connections get a grace period to flush
/// their final responses — best-effort, since a sibling stalled on TCP
/// backpressure cannot be waited out forever.
fn finish_and_exit<S: naas::WireService>(server: &naas::ServiceServer<S>) -> ! {
    server.drain();
    std::thread::sleep(std::time::Duration::from_millis(200));
    server
        .service()
        .persist_cache()
        .unwrap_or_else(|e| fail(format!("cannot persist cache: {e}")));
    exit(0);
}

/// `client`: bridges stdin/stdout to a serving process over TCP. With
/// the `metrics` subcommand (`naas-search client <host:port> metrics`),
/// sends one `metrics` request instead and prints the snapshot payload
/// — the one-shot health probe for scripts and dashboards.
fn cmd_client(args: &Args) {
    use std::io::{BufRead, Write};
    let addr = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    match args.positional.get(2).map(String::as_str) {
        Some("metrics") => client_metrics(addr),
        Some(verb @ ("submit" | "status" | "events" | "cancel" | "result" | "wait")) => {
            client_job(addr, verb, args)
        }
        Some(other) => fail(format!(
            "unknown client subcommand `{other}` \
             (try `metrics`, `submit`, `status`, `events`, `cancel`, `result`, `wait`)"
        )),
        None => {}
    }
    let stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
    let mut write_half = stream
        .try_clone()
        .unwrap_or_else(|e| fail(format!("cannot clone socket: {e}")));
    let forward = std::thread::spawn(move || -> std::io::Result<()> {
        let stdin = std::io::stdin().lock();
        for line in stdin.lines() {
            writeln!(write_half, "{}", line?)?;
            write_half.flush()?;
        }
        // Signal request EOF so the server finishes the stream; responses
        // still drain on the read half.
        write_half.shutdown(std::net::Shutdown::Write)?;
        Ok(())
    });
    let reader = std::io::BufReader::new(stream);
    for line in reader.lines() {
        let line = line.unwrap_or_else(|e| fail(format!("connection lost: {e}")));
        println!("{line}");
    }
    // If the server closed the connection while our stdin is still open
    // (another client sent `shutdown`), the forwarder is parked in a
    // blocking stdin read — joining it would hang until the user types.
    // All responses are printed; exit cleanly instead.
    if !forward.is_finished() {
        exit(0);
    }
    match forward.join() {
        Ok(result) => result.unwrap_or_else(|e| fail(format!("cannot send request: {e}"))),
        Err(_) => fail("stdin forwarder panicked"),
    }
}

/// The gateway job verbs: each sends one (or, for `events --follow` /
/// `wait`, a polling sequence of) `job_*` requests to a running
/// `naas-search gateway` and prints the result payload as JSON, ready
/// for `jq`. `events` prints one JSON line per progress event — the
/// JSONL stream of the job's generations.
fn client_job(addr: &str, verb: &str, args: &Args) -> ! {
    let mut worker = naas_engine::RemoteWorker::new(addr);
    let mut call = |cmd: &str, params: Vec<(String, Value)>| {
        worker
            .call(cmd, params)
            .unwrap_or_else(|e| fail(format!("{cmd} against {addr} failed: {e}")))
    };
    let job_param = || -> (String, Value) {
        let job_id: u64 = args
            .get_num("job")
            .unwrap_or_else(|| fail(format!("client {verb} requires --job <id>")));
        ("job_id".to_string(), Value::U64(job_id))
    };
    let print_value = |value: &Value| println!("{}", serde_json::value_to_string(value));
    match verb {
        "submit" => {
            let scenario = args
                .get("scenario")
                .unwrap_or_else(|| fail("client submit requires --scenario <name>"));
            let mut params = vec![("scenario".to_string(), Value::Str(scenario.to_string()))];
            for key in ["kind", "tenant", "preset"] {
                if let Some(value) = args.get(key) {
                    params.push((key.to_string(), Value::Str(value.to_string())));
                }
            }
            for key in ["weight", "seed"] {
                if let Some(value) = args.get_num::<u64>(key) {
                    params.push((key.to_string(), Value::U64(value)));
                }
            }
            print_value(&call("job_submit", params));
        }
        "status" => print_value(&call("job_status", vec![job_param()])),
        "cancel" => print_value(&call("job_cancel", vec![job_param()])),
        "result" => print_value(&call("job_result", vec![job_param()])),
        "events" => {
            let follow = args.get("follow") == Some("true");
            let mut since = args.get_num::<u64>("since").unwrap_or(0);
            loop {
                let reply = call(
                    "job_events",
                    vec![job_param(), ("since".to_string(), Value::U64(since))],
                );
                if let Some(events) = reply.get("events").and_then(Value::as_array) {
                    for event in events {
                        print_value(event);
                    }
                }
                since = reply.get("next").and_then(Value::as_u64).unwrap_or(since);
                let done = reply.get("done") == Some(&Value::Bool(true));
                if !follow || done {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        }
        "wait" => loop {
            let status = call("job_status", vec![job_param()]);
            match status.get("status").and_then(Value::as_str) {
                Some("done") => {
                    print_value(&call("job_result", vec![job_param()]));
                    break;
                }
                Some("cancelled") => fail("job was cancelled"),
                Some("failed") => {
                    let error = status
                        .get("error")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown failure");
                    fail(format!("job failed: {error}"));
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(200)),
            }
        },
        other => fail(format!("unknown job verb `{other}`")),
    }
    exit(0);
}

/// One-shot `metrics` probe: fetches a registry snapshot from a live
/// serving process and prints the result payload as a single JSON
/// object (ready for `jq`). Exits nonzero if the server refuses.
fn client_metrics(addr: &str) -> ! {
    let mut worker = naas_engine::RemoteWorker::new(addr);
    let result = worker
        .call("metrics", Vec::new())
        .unwrap_or_else(|e| fail(format!("metrics probe of {addr} failed: {e}")));
    println!("{}", serde_json::value_to_string(&result));
    exit(0);
}

fn report(state: AccelSearchState, elapsed: std::time::Duration, cache_line: Option<&str>) {
    if let Some(archive) = state.archive() {
        println!("\n{}", archive.render());
    }
    // A search can legitimately end with no valid design (envelope too
    // small for the suite): exit with a diagnostic and nonzero status,
    // not a panic.
    let result = state.into_result().unwrap_or_else(|e| fail(e));
    println!("\nbest design:\n{}", result.best.accelerator.design_card());
    println!(
        "reward (geomean EDP) {:.3e} after {} evaluations [{:.1}s]",
        result.best.reward,
        result.evaluations,
        elapsed.as_secs_f64()
    );
    if let Some(cache_line) = cache_line {
        println!("{cache_line}");
    }
}
