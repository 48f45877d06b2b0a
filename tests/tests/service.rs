//! The batch-evaluation service: wire round-trips, concurrent streams,
//! drain, and the contract that a served answer is bit-identical to the
//! equivalent direct library call.

use naas::service::{BatchEvalService, ServiceConfig, ServiceServer, WireService};
use naas::{mapping_search, CoSearchEngine, MappingSearchConfig};
use naas_accel::baselines;
use naas_cost::CostModel;
use naas_engine::scenario;
use naas_engine::service::{ok_line, ParseFailure, Request};
use naas_engine::CheckpointError;
use naas_ir::ConvSpec;
use naas_mapping::Mapping;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

fn service(threads: usize) -> BatchEvalService {
    BatchEvalService::new(ServiceConfig {
        threads,
        mapping: MappingSearchConfig::quick(7),
        cache_file: None,
        cache_cap: 0,
        eval_delay_us: 0,
    })
    .expect("no cache file to load")
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).expect("response is valid JSON")
}

fn result_of(line: &str) -> Value {
    let v = parse(line);
    assert_eq!(
        v.get("ok"),
        Some(&Value::Bool(true)),
        "expected success: {line}"
    );
    v.get("result").cloned().expect("ok response has a result")
}

fn test_layer() -> ConvSpec {
    ConvSpec::conv2d("c", 16, 32, (16, 16), (3, 3), 1, 1).unwrap()
}

fn layer_json() -> &'static str {
    r#"{"in_channels":16,"out_channels":32,"in_y":16,"in_x":16,"kernel_r":3,"kernel_s":3,"stride":1,"padding":1}"#
}

/// `score_design` answers exactly what the direct library call computes:
/// same mapping-search config, same content-addressed cache semantics,
/// bit-identical reward.
#[test]
fn served_score_design_is_bit_identical_to_direct_call() {
    let s = service(2);
    let line =
        s.respond(r#"{"id":1,"cmd":"score_design","scenario":"cifar-eyeriss","design":"Eyeriss"}"#);
    let served = result_of(&line);

    let cfg = MappingSearchConfig::quick(7);
    let model = CostModel::new();
    let job = scenario::find("cifar-eyeriss").unwrap().resolve().unwrap();
    let engine = CoSearchEngine::single_threaded();
    let direct = mapping_search::network_mapping_search_cached(
        &model,
        &job.networks[0],
        &baselines::eyeriss(),
        &cfg,
        engine.cache(),
    )
    .expect("eyeriss maps the net");

    // The reward is the geomean over the suite — exactly what the
    // library computes for the same per-network EDPs.
    assert_eq!(
        served.get("reward").unwrap().as_f64(),
        Some(naas::geomean(&[direct.edp()]))
    );
    assert_eq!(
        served.get("per_network").unwrap().as_array().unwrap()[0]
            .get("edp")
            .unwrap()
            .as_f64(),
        Some(direct.edp())
    );
    let per_network = served.get("per_network").unwrap().as_array().unwrap();
    assert_eq!(per_network.len(), 1);
    assert_eq!(
        per_network[0].get("cycles").unwrap().as_u64(),
        Some(direct.cycles())
    );
    assert_eq!(
        per_network[0].get("energy_pj").unwrap().as_f64(),
        Some(direct.energy_pj())
    );
}

/// `search_layer` rides the same thread-pipeline entry point as the
/// library's inner loop.
#[test]
fn served_search_layer_matches_direct_search() {
    let s = service(1);
    let line = s.respond(&format!(
        r#"{{"id":2,"cmd":"search_layer","layer":{},"design":"NVDLA-256"}}"#,
        layer_json()
    ));
    let served = result_of(&line);

    let direct = naas::search_layer_mapping(
        &CostModel::new(),
        &test_layer(),
        &baselines::nvdla_256(),
        &MappingSearchConfig::quick(7),
    )
    .expect("mappable");
    let cost = served.get("cost").unwrap();
    assert_eq!(cost.get("edp").unwrap().as_f64(), Some(direct.cost.edp()));
    assert_eq!(
        cost.get("cycles").unwrap().as_u64(),
        Some(direct.cost.cycles)
    );
    assert_eq!(
        served.get("evaluations").unwrap().as_u64(),
        Some(direct.evaluations as u64)
    );
    // The best mapping itself round-trips through the response.
    let mapping: Mapping =
        serde_json::from_value(served.get("mapping").unwrap()).expect("mapping decodes");
    assert_eq!(mapping, direct.mapping);
}

/// `evaluate_batch` scores a population exactly like scalar
/// `CostModel::evaluate` (which `evaluate_batch` is defined against).
#[test]
fn served_evaluate_batch_matches_scalar_evaluates() {
    let layer = test_layer();
    let accel = baselines::eyeriss();
    let model = CostModel::new();
    // A valid mapping plus a deliberately capacity-busting variant.
    let good = Mapping::balanced(&layer, &accel);
    let mappings = vec![good.clone(), good.clone(), good];
    let request = format!(
        r#"{{"id":3,"cmd":"evaluate_batch","layer":{},"design":"Eyeriss","mappings":{}}}"#,
        layer_json(),
        serde_json::to_string(&mappings).unwrap()
    );
    let s = service(1);
    let served = result_of(&s.respond(&request));
    assert_eq!(served.get("count").unwrap().as_u64(), Some(3));
    let results = served.get("results").unwrap().as_array().unwrap();
    for entry in results {
        assert_eq!(entry.get("ok"), Some(&Value::Bool(true)));
        let direct = model
            .evaluate(&layer, &accel, &mappings[0])
            .expect("balanced mapping valid");
        let cost = entry.get("cost").unwrap();
        assert_eq!(cost.get("edp").unwrap().as_f64(), Some(direct.edp()));
        assert_eq!(cost.get("cycles").unwrap().as_u64(), Some(direct.cycles));
    }
}

/// The response lines a stream wrote.
fn response_lines(out: Vec<u8>) -> Vec<String> {
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(String::from)
        .collect()
}

/// Concurrent streams hammering one warm service get (a) every request
/// answered, (b) identical answers for identical requests regardless of
/// interleaving — the cache-soundness claim under real concurrency.
#[test]
fn concurrent_streams_stay_deterministic() {
    let server = ServiceServer::start(Arc::new(service(2)));
    let request =
        r#"{"id":9,"cmd":"score_design","scenario":"cifar-eyeriss","design":"ShiDianNao"}"#;
    let start = Barrier::new(6);
    let mut responses: Vec<String> = std::thread::scope(|scope| {
        let (server, start) = (&server, &start);
        let handles: Vec<_> = (0..6)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    start.wait();
                    let input = format!("{request}\n");
                    let shutdown = server
                        .serve_stream(input.as_bytes(), &mut out)
                        .expect("stream I/O");
                    assert!(!shutdown);
                    let mut lines = response_lines(out);
                    assert_eq!(lines.len(), 1, "one response per request");
                    lines.remove(0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    responses.dedup();
    assert_eq!(
        responses.len(),
        1,
        "all clients must see the identical byte-for-byte response"
    );
    // And that shared answer matches a cold single-threaded service.
    let cold = service(1).respond(request);
    assert_eq!(responses[0], cold);
}

/// A panicking request among a stream's requests becomes an error
/// *response*; its siblings on the stream are answered normally and the
/// service keeps running (regression for the pool's deque-poisoning
/// abort).
#[test]
fn panicking_request_does_not_abort_batch_or_service() {
    let server = ServiceServer::start(Arc::new(service(2)));
    let input: String = (0..8u64)
        .map(|seq| {
            let line = if seq == 3 {
                r#"{"id":3,"cmd":"__panic"}"#.to_string()
            } else {
                format!(r#"{{"id":{seq},"cmd":"cache_stats"}}"#)
            };
            line + "\n"
        })
        .collect();
    let mut out = Vec::new();
    server
        .serve_stream(input.as_bytes(), &mut out)
        .expect("stream I/O");
    let mut ok = 0;
    let mut failed = 0;
    for (seq, response) in (0u64..).zip(response_lines(out)) {
        let v = parse(&response);
        assert_eq!(v.get("id"), Some(&Value::U64(seq)), "request order");
        if seq == 3 {
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
            assert!(v
                .get("error")
                .and_then(Value::as_str)
                .unwrap()
                .contains("internal panic"));
            failed += 1;
        } else {
            assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "seq {seq}");
            ok += 1;
        }
    }
    assert_eq!((ok, failed), (7, 1));
    // Still alive afterwards.
    let mut out = Vec::new();
    server
        .serve_stream(
            concat!(r#"{"id":99,"cmd":"cache_stats"}"#, "\n").as_bytes(),
            &mut out,
        )
        .expect("stream I/O");
    let lines = response_lines(out);
    assert_eq!(lines.len(), 1);
    assert_eq!(parse(&lines[0]).get("ok"), Some(&Value::Bool(true)));
    server.stop().expect("clean stop");
}

/// Connections are answered independently: while one connection's slow
/// `evaluate_shard` (1.5 s of injected delay) is in flight, another
/// connection's `cache_stats` is answered at once instead of waiting
/// for it.
#[test]
fn a_slow_request_does_not_hold_up_another_connection() {
    const DELAY: Duration = Duration::from_millis(1_500);
    let slow = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        eval_delay_us: DELAY.as_micros() as u64,
        ..ServiceConfig::default()
    })
    .expect("no cache file to load");
    let server = Arc::new(ServiceServer::start(Arc::new(slow)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_listener(listener))
    };
    let send = |stream: &mut TcpStream, line: &str| {
        writeln!(stream, "{line}").expect("request written");
    };
    let receive = |stream: &TcpStream| {
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("response read");
        parse(&line)
    };

    let mut a = TcpStream::connect(addr).expect("connection A");
    let candidates = serde_json::to_string(&[baselines::eyeriss()]).unwrap();
    let sent = Instant::now();
    send(
        &mut a,
        &format!(
            r#"{{"id":"slow","cmd":"evaluate_shard","scenario":"cifar-eyeriss","candidates":{candidates}}}"#
        ),
    );
    std::thread::sleep(Duration::from_millis(100));

    let mut b = TcpStream::connect(addr).expect("connection B");
    let asked = Instant::now();
    send(&mut b, r#"{"id":"quick","cmd":"cache_stats"}"#);
    let quick = receive(&b);
    let waited = asked.elapsed();
    assert_eq!(quick.get("ok"), Some(&Value::Bool(true)), "{quick:?}");
    assert!(
        waited < Duration::from_millis(500),
        "cache_stats waited {waited:?} behind another connection's request"
    );
    assert!(
        sent.elapsed() < DELAY,
        "connection A's request must still be in flight"
    );

    let slow = receive(&a);
    assert_eq!(slow.get("id"), Some(&Value::Str("slow".into())));
    assert_eq!(slow.get("ok"), Some(&Value::Bool(true)), "{slow:?}");
    assert!(sent.elapsed() >= DELAY);

    send(&mut b, r#"{"id":"end","cmd":"shutdown"}"#);
    assert_eq!(receive(&b).get("ok"), Some(&Value::Bool(true)));
    assert!(accept.join().unwrap().expect("listener I/O"));
    server.drain();
}

/// A service whose `hold` command blocks until the test releases it,
/// so a test can hold an answer in progress.
struct Held {
    started: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl WireService for Held {
    fn answer(&self, parsed: &Result<Request, ParseFailure>) -> String {
        let request = parsed.as_ref().expect("test lines parse");
        if request.cmd == "hold" {
            self.started.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        ok_line(&request.id, Value::Str(request.cmd.clone()))
    }

    fn threads(&self) -> usize {
        1
    }

    fn persist_cache(&self) -> Result<(), CheckpointError> {
        Ok(())
    }
}

/// `drain` waits for the answers in progress, and a line read after it
/// began is answered `server is shutting down` (its id echoed), after
/// which the stream stops being read.
#[test]
fn drain_finishes_answers_in_progress_and_refuses_later_lines() {
    let (started_tx, started) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let server = ServiceServer::start(Arc::new(Held {
        started: Mutex::new(started_tx),
        release: Mutex::new(release_rx),
    }));
    std::thread::scope(|scope| {
        let server = &server;
        let held = scope.spawn(move || {
            let mut out = Vec::new();
            server
                .serve_stream(
                    concat!(r#"{"id":1,"cmd":"hold"}"#, "\n").as_bytes(),
                    &mut out,
                )
                .expect("stream I/O");
            response_lines(out)
        });
        started.recv().expect("the held answer started");
        let (drained_tx, drained) = mpsc::channel();
        scope.spawn(move || {
            server.drain();
            drained_tx.send(()).unwrap();
        });
        let early = drained.recv_timeout(Duration::from_millis(200));
        // Release before asserting, so a failure cannot leave the held
        // answer blocking the scope's join.
        release.send(()).unwrap();
        assert_eq!(
            early,
            Err(mpsc::RecvTimeoutError::Timeout),
            "drain returned while an answer was in progress"
        );
        drained
            .recv()
            .expect("drain returns once the answer is done");
        let lines = held.join().unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(parse(&lines[0]).get("ok"), Some(&Value::Bool(true)));
    });

    let mut out = Vec::new();
    let shutdown = server
        .serve_stream(
            concat!(
                r#"{"id":2,"cmd":"late"}"#,
                "\n",
                r#"{"id":3,"cmd":"later"}"#,
                "\n"
            )
            .as_bytes(),
            &mut out,
        )
        .expect("stream I/O");
    assert!(!shutdown);
    let lines = response_lines(out);
    assert_eq!(lines.len(), 1, "the stream stops after the refusal");
    let refused = parse(&lines[0]);
    assert_eq!(refused.get("id"), Some(&Value::U64(2)));
    assert_eq!(refused.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        refused.get("error").and_then(Value::as_str),
        Some("server is shutting down")
    );
}

/// Full stream round-trip: pipelined requests over one stream come back
/// in request order, `shutdown` ends the stream, and malformed lines
/// still get (error) responses.
#[test]
fn serve_stream_round_trip_in_order() {
    let server = ServiceServer::start(Arc::new(service(2)));
    let input = format!(
        "{}\n{}\nnot json at all\n{}\n{}\n",
        r#"{"id":"a","cmd":"list_scenarios"}"#,
        r#"{"id":"b","cmd":"cache_stats"}"#,
        r#"{"id":"c","cmd":"nope"}"#,
        r#"{"id":"d","cmd":"shutdown"}"#
    );
    let mut out: Vec<u8> = Vec::new();
    let wants_shutdown = server
        .serve_stream(input.as_bytes(), &mut out)
        .expect("stream I/O");
    assert!(wants_shutdown);
    let lines: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), 5, "every consumed line gets a response");
    assert_eq!(parse(&lines[0]).get("id"), Some(&Value::Str("a".into())));
    assert_eq!(parse(&lines[1]).get("id"), Some(&Value::Str("b".into())));
    // Malformed line: error response with null id.
    assert_eq!(parse(&lines[2]).get("ok"), Some(&Value::Bool(false)));
    assert_eq!(parse(&lines[3]).get("ok"), Some(&Value::Bool(false)));
    assert_eq!(parse(&lines[4]).get("id"), Some(&Value::Str("d".into())));
    server.stop().expect("clean stop");
}

/// Cache persistence round-trip: a service that scored work persists its
/// cache on stop; a fresh service warm-loads it, answers identically,
/// and serves the repeat traffic without recomputing.
#[test]
fn persisted_cache_warms_next_service_with_identical_answers() {
    let path = std::env::temp_dir().join(format!("naas-service-cache-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let request =
        r#"{"id":1,"cmd":"score_design","scenario":"cifar-eyeriss","design":"NVDLA-256"}"#;

    let cold = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        cache_file: Some(path.clone()),
        cache_cap: 0,
        eval_delay_us: 0,
    })
    .unwrap();
    let cold_answer = cold.respond(request);
    let cold_misses = cold.engine().cache_stats().misses;
    assert!(cold_misses > 0);
    cold.persist_cache().unwrap();

    let warm = BatchEvalService::new(ServiceConfig {
        threads: 1,
        mapping: MappingSearchConfig::quick(7),
        cache_file: Some(path.clone()),
        cache_cap: 0,
        eval_delay_us: 0,
    })
    .unwrap();
    let warm_answer = warm.respond(request);
    assert_eq!(warm_answer, cold_answer, "warming never changes answers");
    assert_eq!(
        warm.engine().cache_stats().misses,
        0,
        "repeat traffic is answered entirely from the warmed cache"
    );
    std::fs::remove_file(&path).ok();
}

/// Per-request `mapping_budget` overrides evaluate under their own
/// budget *and* leave the shared cache unpolluted: the whole mapping
/// config is part of the design fingerprint, so overridden requests
/// read/write disjoint cache keys and the default-budget answer stays
/// byte-for-byte what a fresh service would produce.
#[test]
fn mapping_budget_override_does_not_pollute_shared_cache_keys() {
    let baseline_request =
        r#"{"id":1,"cmd":"score_design","scenario":"cifar-eyeriss","design":"Eyeriss"}"#;
    let override_request = r#"{"id":2,"cmd":"score_design","scenario":"cifar-eyeriss","design":"Eyeriss","mapping_budget":{"population":4,"iterations":1}}"#;

    // Overridden traffic first, then default traffic, on one service.
    let s = service(1);
    let overridden = result_of(&s.respond(override_request));
    let entries_after_override = s.engine().cache_stats().entries;
    assert!(entries_after_override > 0);
    let default_answer = s.respond(baseline_request);
    assert!(
        s.engine().cache_stats().entries > entries_after_override,
        "default-budget traffic must occupy its own cache keys, not reuse the override's"
    );

    // The default answer is exactly what a never-overridden service
    // computes; the overridden answer differs (a 4×1 budget finds a
    // different mapping than 8×3 on this layer set).
    let fresh_answer = service(1).respond(baseline_request);
    assert_eq!(default_answer, fresh_answer, "override polluted the cache");
    assert!(overridden.get("reward").unwrap().as_f64().is_some());

    // The override takes effect: a 4×1 budget runs strictly fewer
    // evaluations than the default 8×3 on the same layer search.
    let layer_request = |budget: &str| {
        format!(
            r#"{{"id":9,"cmd":"search_layer","design":"Eyeriss","layer":{}{budget}}}"#,
            layer_json()
        )
    };
    let small = result_of(&s.respond(&layer_request(
        r#","mapping_budget":{"population":4,"iterations":1}"#,
    )));
    let full = result_of(&s.respond(&layer_request("")));
    assert!(
        small.get("evaluations").unwrap().as_u64() < full.get("evaluations").unwrap().as_u64(),
        "the override budget must actually take effect: {small:?} vs {full:?}"
    );

    // Malformed overrides are orderly errors.
    let bad = parse(&s.respond(
        r#"{"id":3,"cmd":"score_design","scenario":"cifar-eyeriss","mapping_budget":{"population":0}}"#,
    ));
    assert_eq!(bad.get("ok"), Some(&Value::Bool(false)));
    assert!(bad
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("mapping_budget"));
}

/// `scenario` accepts a full scenario object (the distributed
/// coordinator's way of shipping `--file` scenarios no worker registry
/// knows), answering exactly like the equivalent registered name.
#[test]
fn scenario_objects_are_accepted_inline() {
    let s = service(1);
    let by_name =
        s.respond(r#"{"id":1,"cmd":"score_design","scenario":"cifar-eyeriss","design":"Eyeriss"}"#);
    let scenario = scenario::find("cifar-eyeriss").unwrap();
    let by_object = s.respond(&format!(
        r#"{{"id":1,"cmd":"score_design","scenario":{},"design":"Eyeriss"}}"#,
        serde_json::to_string(&scenario).unwrap()
    ));
    assert_eq!(by_object, by_name);
}

/// A scenario object naming no network is an error answer, not a panic
/// (there is no suite to aggregate a reward over).
#[test]
fn scenario_object_without_networks_is_an_error_response() {
    let s = service(1);
    let mut scenario = scenario::find("cifar-eyeriss").unwrap();
    scenario.networks.clear();
    let line = s.respond(&format!(
        r#"{{"id":1,"cmd":"score_design","scenario":{},"design":"Eyeriss"}}"#,
        serde_json::to_string(&scenario).unwrap()
    ));
    let v = parse(&line);
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{line}");
    let error = v.get("error").and_then(Value::as_str).unwrap();
    assert!(error.contains("no benchmark network"), "{error}");
}

/// The accelerator-mode `evaluate_shard` reply contract: no
/// `cache_delta`, and a candidate ships whole (`per_network` included)
/// exactly where its reward is strictly below both the request's
/// `incumbent` and every earlier feasible reward of the shard. Every
/// shipped report reproduces its candidate's score through
/// `CandidateEval::from_reports`. A non-numeric `incumbent` is a bad
/// request.
#[test]
fn evaluate_shard_ships_reports_exactly_where_an_incumbent_can_change() {
    let s = service(1);
    let designs = baselines::all();
    let candidates = serde_json::to_string(&designs).unwrap();
    let shard = |incumbent: &str| {
        s.respond(&format!(
            r#"{{"id":1,"cmd":"evaluate_shard","scenario":"cifar-eyeriss","candidates":{candidates},"incumbent":{incumbent}}}"#
        ))
    };
    let rewards: Vec<Option<f64>> = result_of(&shard("null"))
        .get("results")
        .and_then(Value::as_array)
        .expect("a results array")
        .iter()
        .map(|r| r.get("reward").and_then(Value::as_f64))
        .collect();
    let mut feasible: Vec<f64> = rewards.iter().flatten().copied().collect();
    feasible.sort_by(f64::total_cmp);
    assert!(
        feasible.len() >= 2,
        "need two feasible baselines: {rewards:?}"
    );

    let between = (feasible[0] + feasible[feasible.len() - 1]) / 2.0;
    for incumbent in [None, Some(feasible[0] / 2.0), Some(between)] {
        let mut best = incumbent.unwrap_or(f64::INFINITY);
        let expected: Vec<bool> = rewards
            .iter()
            .map(|reward| match reward {
                Some(r) if *r < best => {
                    best = *r;
                    true
                }
                _ => false,
            })
            .collect();
        let param = incumbent.map_or("null".to_string(), |r| format!("{r:e}"));
        let reply = result_of(&shard(&param));
        assert!(reply.get("cache_delta").is_none(), "{reply:?}");
        let results = reply.get("results").and_then(Value::as_array).unwrap();
        let shipped: Vec<bool> = results
            .iter()
            .map(|r| r.get("per_network").is_some())
            .collect();
        assert_eq!(shipped, expected, "incumbent {param}, rewards {rewards:?}");
        for (result, design) in results.iter().zip(&designs) {
            if result.get("per_network").is_none() {
                continue;
            }
            let eval: naas::CandidateEval = serde_json::from_value(result).unwrap();
            let again = naas::CandidateEval::from_reports(
                eval.per_network.clone(),
                design,
                naas::RewardKind::Geomean,
            );
            assert_eq!(
                again,
                eval,
                "{}: reports disagree with the score",
                design.name()
            );
        }
    }
    let v = parse(&shard(r#""low""#));
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    let error = v.get("error").and_then(Value::as_str).unwrap();
    assert!(
        error.contains("bad request") && error.contains("incumbent"),
        "{error}"
    );
}

/// The no-valid-design condition surfaces as an error response (the
/// service face of the `NoValidDesign` bugfix): a design that cannot map
/// the suite is an answer, not a panic.
#[test]
fn unmappable_design_is_an_error_response() {
    // A single-PE design with one-byte buffers cannot hold even one
    // operand tile of CIFAR ResNet-20.
    let crippled = serde_json::to_string(&naas_accel::Accelerator::new(
        "crippled",
        naas_accel::ArchitecturalSizing::new(1, 1, 1.0, 1.0),
        naas_accel::Connectivity::grid(1, 1, naas_ir::Dim::C, naas_ir::Dim::K).unwrap(),
    ))
    .unwrap();
    let s = service(1);
    let line = s.respond(&format!(
        r#"{{"id":1,"cmd":"score_design","scenario":"cifar-eyeriss","design":{crippled}}}"#
    ));
    let v = parse(&line);
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert!(v
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("cannot map"));
}

/// The `metrics` command round-trips a full telemetry snapshot: the
/// served JSON deserializes back into [`naas_engine::MetricsSnapshot`]
/// through the shim, and it carries exactly the five sections. Counter
/// values are only bounded loosely — the registry is process-global and
/// other tests in this binary race with us.
#[test]
fn metrics_command_round_trips_a_full_snapshot() {
    let s = service(1);
    // Populate the cache counters with one real evaluation first
    // (`score_design` routes through the content-addressed cache).
    result_of(
        &s.respond(
            r#"{"id":1,"cmd":"score_design","scenario":"cifar-eyeriss","design":"Eyeriss"}"#,
        ),
    );
    let snapshot_value = result_of(&s.respond(r#"{"id":2,"cmd":"metrics"}"#));

    let Value::Object(sections) = &snapshot_value else {
        panic!("the snapshot is an object: {snapshot_value:?}");
    };
    let names: Vec<&str> = sections.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        ["cache", "pool", "pipeline", "coordinator", "gateway"],
        "the snapshot's sections, exactly and in order"
    );
    let snapshot: naas_engine::MetricsSnapshot =
        serde_json::from_value(&snapshot_value).expect("snapshot deserializes via the shim");
    // The search above put at least one entry in this service's cache.
    assert!(snapshot.cache.entries >= 1, "cache entries: {snapshot:?}");
    assert!(snapshot.cache.hits + snapshot.cache.misses >= 1);
    assert!((0.0..=1.0).contains(&snapshot.cache.hit_rate));
    // Histogram invariant: bucket counts sum to the total observation count.
    let hist = &snapshot.pool.job_latency_us;
    assert_eq!(hist.counts.iter().sum::<u64>(), hist.count);
}

/// Deterministic seeded protocol fuzzer: hundreds of truncated,
/// spliced, garbage-injected, duplicate-id and oversized JSONL lines
/// are fed through the full `serve_stream` path (and the vendored
/// parser directly). The wire contract under attack: no panic ever, one
/// response per consumed line, every response a valid JSON object whose
/// `id` echoes whatever id was recoverable from the line, and the
/// stream survives to answer the orderly `shutdown` at the end.
#[test]
fn fuzzed_protocol_lines_never_panic_and_always_get_correlatable_replies() {
    // The corpus is cheap commands only (no evaluations), and contains
    // neither the word `shutdown` nor the letter `w` anywhere — so no
    // mutation can splice together an early stream termination.
    const CORPUS: &[&str] = &[
        r#"{"id": 1, "cmd": "cache_stats"}"#,
        r#"{"id": "alpha", "cmd": "hello"}"#,
        r#"{"id": 2, "cmd": "list_scenarios"}"#,
        r#"{"id": 3, "cmd": "nope_cmd", "param": [1, 2, {"k": "v"}]}"#,
        r#"{"id": 4, "cmd": "hello", "note": "esc\"aped A text", "n": -2.5e3}"#,
        r#"{"id": 5, "cmd": 42}"#,
        r#"{"cmd": "cache_stats"}"#,
        r#"{"id": [6, "deep"], "cmd": "metrics"}"#,
    ];
    let garbage_charset: &[u8] = br#"{}[]",:.0123456789abcqxyzXYZ\ -"#;

    // xorshift64 — the whole fuzz run is a pure function of this seed.
    let mut rng: u64 = 0x5eed_cafe_f00d_2021;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    let mut lines: Vec<String> = Vec::new();
    for round in 0..300u64 {
        let base = CORPUS[(next() % CORPUS.len() as u64) as usize];
        let line = match round % 5 {
            // Truncation at an arbitrary byte — including mid-token and
            // mid-escape (the corpus carries `\"` and `A`).
            0 => base[..(next() % base.len() as u64 + 1) as usize].to_string(),
            // Splice: prefix of one corpus line + suffix of another —
            // interleaved frames on one line.
            1 => {
                let other = CORPUS[(next() % CORPUS.len() as u64) as usize];
                let cut_a = (next() % base.len() as u64) as usize;
                let cut_b = (next() % other.len() as u64) as usize;
                format!("{}{}", &base[..cut_a], &other[cut_b..])
            }
            // Garbage injection at a random position.
            2 => {
                let mut bytes = base.as_bytes().to_vec();
                let at = (next() % (bytes.len() as u64 + 1)) as usize;
                for _ in 0..(next() % 8 + 1) {
                    bytes.insert(
                        at,
                        garbage_charset[(next() % garbage_charset.len() as u64) as usize],
                    );
                }
                String::from_utf8(bytes).expect("charset is ASCII")
            }
            // Duplicate ids: the same correlation id on many lines —
            // each must still get its own response.
            3 => format!(r#"{{"id": 1000, "cmd": "cache_stats", "round": {round}}}"#),
            // Pass-through: valid lines interleaved with the attacks.
            _ => base.to_string(),
        };
        // The vendored parser itself must never panic on any of this.
        let _ = serde_json::parse_str(&line);
        lines.push(line);
    }
    // Oversized lines: a huge string payload and a huge garbage blob.
    lines.push(format!(
        r#"{{"id": 9000, "cmd": "{}"}}"#,
        "x".repeat(200_000)
    ));
    lines.push("[".repeat(50_000));
    // Mid-escape truncations, explicitly.
    lines.push(r#"{"id": 6, "cmd": "hel\"#.to_string());
    lines.push(r#"{"id": 7, "cmd": "hel\u00"#.to_string());
    // Recoverable id on a malformed request (cmd is not a string).
    lines.push(r#"{"id": 77, "cmd": 42}"#.to_string());

    let total = lines.len() + 1; // + the final orderly shutdown
    let input = format!(
        "{}\n{}\n",
        lines.join("\n"),
        r#"{"id": "end", "cmd": "shutdown"}"#
    );

    let server = ServiceServer::start(Arc::new(service(2)));
    let mut out: Vec<u8> = Vec::new();
    let wants_shutdown = server
        .serve_stream(input.as_bytes(), &mut out)
        .expect("the stream must survive every malformed line");
    assert!(wants_shutdown, "the final shutdown must still be honoured");

    let responses: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(
        responses.len(),
        total,
        "every consumed line gets exactly one response"
    );
    let mut duplicate_id_replies = 0;
    for (line, response) in lines.iter().zip(&responses) {
        let reply = parse(response);
        assert!(
            matches!(reply.get("ok"), Some(Value::Bool(_))),
            "malformed reply to fuzzed line {line:?}: {response}"
        );
        // Responses correlate: the reply's id is exactly what the
        // framing layer recovers from the line (parsed or failed).
        let expected_id = match naas_engine::service::Request::parse(line) {
            Ok(request) => request.id,
            Err(failure) => failure.id,
        };
        assert_eq!(
            reply.get("id"),
            Some(&expected_id),
            "id mismatch for fuzzed line {line:?}"
        );
        if reply.get("id") == Some(&Value::U64(1000)) {
            duplicate_id_replies += 1;
        }
        if reply.get("ok") == Some(&Value::Bool(false)) {
            assert!(
                reply.get("error").and_then(Value::as_str).is_some(),
                "error responses carry a message: {response}"
            );
        }
    }
    // Every duplicate-id line was answered individually (60 of the 300
    // rounds take the duplicate-id arm: rounds ≡ 3 mod 5).
    assert_eq!(duplicate_id_replies, 60);
    // The recoverable-id case: malformed line, correlatable error.
    let recovered = parse(&responses[lines.len() - 1]);
    assert_eq!(recovered.get("id"), Some(&Value::U64(77)));
    assert_eq!(recovered.get("ok"), Some(&Value::Bool(false)));
    server.stop().expect("clean stop after the fuzz run");
}

/// `cache_stats` exposes the extended counter set: entries, evictions,
/// and a derived hit rate alongside the original hits/misses.
#[test]
fn cache_stats_reports_entries_evictions_and_hit_rate() {
    let s = service(1);
    result_of(
        &s.respond(
            r#"{"id":1,"cmd":"score_design","scenario":"cifar-eyeriss","design":"Eyeriss"}"#,
        ),
    );
    let stats = result_of(&s.respond(r#"{"id":2,"cmd":"cache_stats"}"#));
    for key in ["hits", "misses", "entries", "evictions", "hit_rate"] {
        assert!(stats.get(key).is_some(), "cache_stats is missing {key}");
    }
    assert!(stats.get("entries").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(stats.get("evictions").unwrap().as_u64(), Some(0));
    let hit_rate = stats.get("hit_rate").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&hit_rate));
}
