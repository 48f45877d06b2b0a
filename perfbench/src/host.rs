//! Process and host readings: CPU time and peak memory of this process,
//! live thread count, and the diagnostics that tell a drifting host from
//! a regression (core count, CPU model, steal time, a fixed probe loop).

use std::time::Instant;

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage() -> RUsage {
    let mut usage = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage`; 0 is
    // RUSAGE_SELF, which covers every thread of this process.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// User + system CPU seconds of this process so far, all threads
/// included (exited ones too).
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size of this process so far, in MiB: `VmHWM`,
/// the high-water mark of the current address space. (`ru_maxrss` would
/// also count the parent's memory at the fork that started us, which
/// `cargo run` makes several times larger than ours.)
pub fn peak_rss_mb() -> f64 {
    status_number("VmHWM:") / 1024.0
}

/// A numeric field of `/proc/self/status` (NaN when unreadable).
fn status_number(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Live threads of this process.
pub fn thread_count() -> usize {
    status_number("Threads:") as usize
}

/// Waits (up to two seconds) for the live thread count to fall back to
/// `baseline`; returns `false` if threads are still running after that.
pub fn threads_settle_to(baseline: usize) -> bool {
    let deadline = Instant::now() + std::time::Duration::from_secs(2);
    loop {
        if thread_count() <= baseline {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// Host-wide steal time in seconds (the `steal` column of the aggregate
/// `cpu` line of `/proc/stat`, in USER_HZ = 100 ticks per second).
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median wall seconds of a fixed single-threaded integer loop (five
/// timed repetitions). The loop never changes, so a slower probe means a
/// slower or busier host, not slower code.
pub fn probe_seconds() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for i in 0..20_000_000u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&mut samples)
}
