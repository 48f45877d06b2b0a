//! `naas-search` output checks: the command-line binary run end to end
//! against in-process loopback workers.

use naas::{BatchEvalService, ServiceConfig, ServiceServer};
use std::net::TcpListener;
use std::process::Command;
use std::sync::Arc;

/// Starts a worker (the serving stack behind `naas-search worker`) on
/// an ephemeral loopback port and returns its address.
fn spawn_worker() -> String {
    let service = BatchEvalService::new(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    })
    .expect("no cache file to load");
    let server = Arc::new(ServiceServer::start(Arc::new(service)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = server.serve_listener(listener);
    });
    addr
}

fn naas_search(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_naas-search"))
        .args(args)
        .output()
        .expect("naas-search runs");
    assert!(
        output.status.success(),
        "naas-search failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

fn run_search(extra: &[&str]) -> String {
    let mut args = vec!["run", "cifar-eyeriss", "--preset", "smoke"];
    args.extend_from_slice(extra);
    naas_search(&args)
}

/// Asserts a fleet run's final report line names the mirror.
fn assert_mirror_summary(out: &str) {
    let summary = out
        .lines()
        .find(|l| l.starts_with("cache"))
        .expect("a final cache line");
    assert!(summary.starts_with("cache mirror: "), "{summary}");
    assert!(
        !out.contains("% hit") && !out.contains("hits /"),
        "no hit rate in fleet mode:\n{out}"
    );
}

/// The block from the design card to the reward line, without the
/// wall-clock suffix — what must match between local and fleet runs.
fn result_block(out: &str) -> String {
    out.lines()
        .skip_while(|l| !l.starts_with("best design:"))
        .take_while(|l| !l.starts_with("cache"))
        .map(|l| l.split(" [").next().unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Under `--workers` the coordinator's cache only mirrors the fleet's
/// gossip and serves none of the search's lookups, so its hit rate is
/// meaningless: fleet runs (and their resumes) print the mirror's size
/// instead, labelled as the mirror, and no hit rate anywhere. A local
/// run keeps its hit rate.
#[test]
fn fleet_runs_report_the_cache_mirror_without_a_hit_rate() {
    let local = run_search(&[]);
    let gens: Vec<&str> = local.lines().filter(|l| l.contains(" gen ")).collect();
    assert!(!gens.is_empty(), "no progress lines:\n{local}");
    assert!(gens.iter().all(|l| l.ends_with("% hit")), "{local}");
    assert!(local.contains("hits / "), "{local}");

    let workers = format!("{},{}", spawn_worker(), spawn_worker());
    let checkpoint = std::env::temp_dir().join(format!("naas-cli-{}.ckpt", std::process::id()));
    let checkpoint = checkpoint.to_str().expect("UTF-8 temp path");
    let fleet = run_search(&["--workers", &workers, "--checkpoint", checkpoint]);
    let gens: Vec<&str> = fleet.lines().filter(|l| l.contains(" gen ")).collect();
    assert!(!gens.is_empty(), "no progress lines:\n{fleet}");
    for line in &gens {
        assert!(line.contains("cache mirror "), "{line}");
        assert!(line.ends_with(" entries"), "{line}");
    }
    assert_mirror_summary(&fleet);

    let expected = result_block(&local);
    assert!(expected.contains("reward"), "no result block:\n{local}");
    assert_eq!(result_block(&fleet), expected);

    // `resume` re-dials the recorded fleet and reports the same way.
    let resumed = naas_search(&["resume", checkpoint]);
    assert_mirror_summary(&resumed);
    assert_eq!(result_block(&resumed), expected);
    let _ = std::fs::remove_file(checkpoint);
}
