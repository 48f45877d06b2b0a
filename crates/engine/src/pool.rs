//! Work-stealing parallel evaluation.
//!
//! The engine's only threading primitive: [`parallel_map`] fans a slice
//! of jobs out over a worker pool and returns results **in job order**,
//! so callers are deterministic by construction regardless of thread
//! count or scheduling. Unlike static chunking (what
//! `accel_search.rs` used to hand-roll), idle workers steal work, so one
//! expensive candidate — a big network, a pathological design — no longer
//! serializes its whole chunk behind it.
//!
//! Implementation: each worker owns a deque seeded round-robin; it pops
//! from the front of its own deque and, when empty, steals the back half
//! of the fullest sibling deque. Job indices (not results) move between
//! threads; results are written keyed by index, which is what makes the
//! output order — and therefore every downstream tie-break — independent
//! of scheduling. The calling thread is worker 0; the others are scoped
//! threads that end with the call.
//!
//! Calls compose. The outermost call owns `threads` compute slots. A
//! call made inside one of its jobs (a joint candidate scoring its NAS
//! generation's subnets, say) runs on the calling thread plus helpers
//! taken only from the slots the outermost call has left idle: slots it
//! had no job for, and slots of workers that ran out of jobs. However
//! deeply calls nest, a process runs no more compute threads than the
//! outermost call's `threads`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a deque, tolerating poison: the protected value is a plain
/// queue of job indices, which is structurally valid even if some thread
/// died mid-operation — treating poison as fatal here would kill sibling
/// workers and mask the root-cause panic behind a generic
/// `PoisonError` message.
fn lock_deque<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What one worker produced for one job: the result, or the panic
/// payload its `f` escaped with.
type JobOutcome<R> = (usize, Result<R, Box<dyn std::any::Any + Send>>);

thread_local! {
    /// The idle-slot count of the outermost call whose jobs this thread
    /// is running; `None` while it runs none, so its next call is an
    /// outermost call.
    static IDLE_SLOTS: RefCell<Option<Arc<AtomicUsize>>> = const { RefCell::new(None) };
}

/// Points this thread's [`IDLE_SLOTS`] at `idle` while it runs a call's
/// jobs, and puts back what was there when dropped, on return and on
/// unwind alike.
struct RunningJobs(Option<Arc<AtomicUsize>>);

impl RunningJobs {
    fn enter(idle: &Arc<AtomicUsize>) -> Self {
        RunningJobs(IDLE_SLOTS.with(|cell| cell.replace(Some(Arc::clone(idle)))))
    }
}

impl Drop for RunningJobs {
    fn drop(&mut self) {
        let previous = self.0.take();
        IDLE_SLOTS.with(|cell| *cell.borrow_mut() = previous);
    }
}

/// One worker's compute slot, handed back to the idle count when the
/// worker runs out of jobs.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Takes up to `wanted` slots from `idle`; returns how many it took.
fn claim(idle: &AtomicUsize, wanted: usize) -> usize {
    let mut taken = 0;
    let _ = idle.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
        taken = n.min(wanted);
        (taken > 0).then_some(n - taken)
    });
    taken
}

/// Resolves a requested worker count: `0` means "all cores", anything
/// else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Applies `f` to every job and returns the results in job order.
///
/// `threads` is resolved via [`resolve_threads`]; `f` receives the job
/// index alongside the job so callers can derive per-slot state (seeds,
/// labels) without captures. The calling thread works as one of the
/// workers rather than waiting for them; with one worker (or at most one
/// job) the map runs inline with no thread overhead.
///
/// # Nesting
///
/// A call made inside a job of another call does not start `threads`
/// workers of its own. It runs on the calling thread plus as many
/// helpers (at most `threads - 1`) as the *outermost* call has idle
/// slots: the slots it had no job for, and those of its workers that
/// ran out of jobs. A helper hands its slot back when it runs out of
/// jobs. With no idle slot, a nested call runs inline. So a process
/// never runs more compute threads than the outermost call's `threads`,
/// and once the outermost call returns or unwinds, the next call on
/// that thread is an outermost call again. Results are in job order at
/// every level, whatever threads a nested call got.
///
/// # Panics
///
/// With multiple workers, if `f` panics for one or more jobs the
/// remaining jobs still run to completion on their workers (no sibling
/// dies on a poisoned deque), and the payload of the panic with the
/// **lowest job index** is re-raised on the calling thread —
/// deterministic, and never masked by a secondary `PoisonError`. On the
/// single-worker inline path the panic propagates immediately (scalar
/// loop semantics), so later jobs do not run; callers must not rely on
/// sibling jobs' side effects surviving a panic (a nested call may run
/// inline or not, depending on the slots left idle). Nesting changes
/// none of this: a payload re-raised by a nested call is its job's
/// panic in the enclosing call. Callers that must not abort at all (the
/// batch-evaluation service) wrap `f` in `std::panic::catch_unwind`
/// themselves and turn payloads into error values.
pub fn parallel_map<J, R, F>(threads: usize, jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let pool_metrics = &crate::telemetry::metrics().pool;
    pool_metrics.jobs.add(jobs.len() as u64);
    let threads = resolve_threads(threads);
    let wanted = threads.min(jobs.len().max(1));
    let enclosing = IDLE_SLOTS.with(|cell| cell.borrow().clone());
    let outermost = enclosing.is_none();
    let (idle, workers) = match enclosing {
        Some(idle) => {
            let helpers = claim(&idle, wanted - 1);
            (idle, 1 + helpers)
        }
        None => (Arc::new(AtomicUsize::new(threads - wanted)), wanted),
    };
    let _running = RunningJobs::enter(&idle);
    if workers <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let start = std::time::Instant::now();
                let result = f(i, j);
                pool_metrics.job_latency.observe_duration(start.elapsed());
                result
            })
            .collect();
    }

    // Round-robin initial distribution.
    let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
    for idx in 0..jobs.len() {
        deques[idx % workers].push_back(idx);
    }
    let deques: Vec<Mutex<VecDeque<usize>>> = deques.into_iter().map(Mutex::new).collect();

    let outcomes = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|me| {
                let (idle, deques, f) = (&idle, &deques, &f);
                scope.spawn(move || {
                    let _slot = Slot(idle);
                    let _running = RunningJobs::enter(idle);
                    drain(me, deques, jobs, f)
                })
            })
            .collect();
        let mut outcomes = {
            // A nested caller's slot belongs to the job it is running;
            // the outermost caller's falls idle once it runs out of jobs.
            let _slot = outermost.then(|| Slot(&idle));
            drain(0, &deques, jobs, &f)
        };
        for helper in helpers {
            outcomes.extend(helper.join().expect("engine worker panicked"));
        }
        outcomes
    });

    let mut results: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();
    // The first panic payload by job index, re-raised once every job ran.
    let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    for (idx, result) in outcomes {
        match result {
            Ok(value) => results[idx] = Some(value),
            Err(payload) => {
                if first_panic.as_ref().is_none_or(|(first, _)| idx < *first) {
                    first_panic = Some((idx, payload));
                }
            }
        }
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| r.expect("every job produced a result"))
        .collect()
}

/// Worker `me`'s loop: runs jobs from its own deque, then stolen ones,
/// until every deque is empty.
fn drain<J, R, F>(
    me: usize,
    deques: &[Mutex<VecDeque<usize>>],
    jobs: &[J],
    f: &F,
) -> Vec<JobOutcome<R>>
where
    F: Fn(usize, &J) -> R,
{
    let pool_metrics = &crate::telemetry::metrics().pool;
    let mut produced = Vec::new();
    loop {
        let idx = pop_own(&deques[me]).or_else(|| steal(deques, me));
        match idx {
            // Contain a panicking job to its slot: siblings keep
            // draining the queue and the payload is re-raised (or
            // converted by service callers) once every job has run.
            Some(idx) => {
                let start = std::time::Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| f(idx, &jobs[idx])));
                pool_metrics.job_latency.observe_duration(start.elapsed());
                if outcome.is_err() {
                    pool_metrics.panics.inc();
                }
                produced.push((idx, outcome));
            }
            // A failed steal can race a victim that drained between the
            // length scan and the split; retire only once every deque is
            // actually empty, so no worker quits while queued work
            // remains.
            None if deques.iter().all(|d| lock_deque(d).is_empty()) => return produced,
            None => std::thread::yield_now(),
        }
    }
}

fn pop_own(deque: &Mutex<VecDeque<usize>>) -> Option<usize> {
    lock_deque(deque).pop_front()
}

/// Steals the back half of the fullest sibling deque into `deques[me]`
/// and returns one stolen job.
fn steal(deques: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    let victim = deques
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != me)
        .max_by_key(|(_, d)| lock_deque(d).len())?
        .0;
    let mut loot: VecDeque<usize> = {
        let mut victim_deque = lock_deque(&deques[victim]);
        let keep = victim_deque.len().div_ceil(2);
        victim_deque.split_off(keep)
    };
    let first = loot.pop_front()?;
    if !loot.is_empty() {
        let mut own = lock_deque(&deques[me]);
        own.extend(loot);
    }
    Some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn results_are_in_job_order_at_any_thread_count() {
        let jobs: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(threads, &jobs, |_, &j| j * j);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let jobs: Vec<usize> = (0..200).collect();
        let runs = AtomicUsize::new(0);
        let got = parallel_map(7, &jobs, |idx, &j| {
            runs.fetch_add(1, Ordering::Relaxed);
            assert_eq!(idx, j);
            idx
        });
        assert_eq!(runs.load(Ordering::Relaxed), 200);
        assert_eq!(got, jobs);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One pathologically slow job at index 0 (the first worker's
        // deque): the other workers must still drain everything else.
        let jobs: Vec<u64> = (0..32).collect();
        let got = parallel_map(4, &jobs, |_, &j| {
            if j == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            j + 1
        });
        assert_eq!(got, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let got = parallel_map(0, &[1, 2, 3], |_, &j| j * 10);
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn empty_and_single_job_edge_cases() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(4, &empty, |_, &j| j).is_empty());
        assert_eq!(parallel_map(4, &[5u32], |_, &j| j + 1), vec![6]);
    }

    #[test]
    fn panicking_job_reraises_original_payload() {
        // Regression: a panicking job used to poison the worker deques,
        // killing siblings on `expect("worker deque poisoned")` and
        // masking the root cause. The original payload must surface.
        let jobs: Vec<u64> = (0..64).collect();
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(4, &jobs, |_, &j| {
                ran.fetch_add(1, Ordering::Relaxed);
                if j == 13 {
                    panic!("job 13 exploded");
                }
                j
            })
        }))
        .expect_err("panic must propagate");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .expect("payload is the original message");
        assert_eq!(msg, "job 13 exploded");
        // Siblings kept draining the queue: every job ran.
        assert_eq!(ran.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn first_panic_by_job_index_wins() {
        // With several panicking jobs, the re-raised payload is the one
        // with the lowest job index — deterministic at any thread count.
        for threads in [2, 4, 8] {
            let jobs: Vec<u64> = (0..40).collect();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_map(threads, &jobs, |_, &j| {
                    if j % 7 == 3 {
                        panic!("boom at {j}");
                    }
                    j
                })
            }))
            .expect_err("panic must propagate");
            let msg = caught
                .downcast_ref::<String>()
                .cloned()
                .expect("formatted payload");
            assert_eq!(msg, "boom at 3", "threads = {threads}");
        }
    }

    #[test]
    fn single_worker_inline_path_propagates_panics_too() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(1, &[1u32, 2, 3], |_, &j| {
                if j == 2 {
                    panic!("inline boom");
                }
                j
            })
        })
        .expect_err("panic must propagate");
        assert_eq!(*caught.downcast_ref::<&str>().unwrap(), "inline boom");
    }

    /// The message of a caught panic payload.
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string payload")
    }

    /// Whether a 2-thread map of two short jobs lands them on two
    /// distinct threads, trying for up to five seconds.
    fn reaches_two_threads() -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let ids = parallel_map(2, &[0u8, 1], |_, _| {
                std::thread::sleep(Duration::from_millis(2));
                std::thread::current().id()
            });
            if ids[0] != ids[1] {
                return true;
            }
        }
        false
    }

    #[test]
    fn nested_calls_stay_within_the_outer_threads() {
        // Every outer job only runs nested maps that ask for 4 threads
        // each; the jobs in progress at once must never outnumber the
        // outermost call's threads.
        for outer in [2, 4] {
            let running = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let outer_jobs: Vec<usize> = (0..=outer).collect();
            parallel_map(outer, &outer_jobs, |_, _| {
                for _ in 0..3 {
                    parallel_map(4, &[0u8; 8], |_, _| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= outer, "outer {outer}: {peak} nested jobs at once");
        }
    }

    #[test]
    fn nested_results_are_in_job_order() {
        let outer_jobs: Vec<u64> = (0..5).collect();
        let inner_jobs: Vec<u64> = (0..13).collect();
        let expect: Vec<Vec<u64>> = outer_jobs
            .iter()
            .map(|o| inner_jobs.iter().map(|j| o * 100 + j).collect())
            .collect();
        for outer in 1..=4 {
            for inner in 1..=4 {
                let got = parallel_map(outer, &outer_jobs, |_, &o| {
                    parallel_map(inner, &inner_jobs, |_, &j| o * 100 + j)
                });
                assert_eq!(got, expect, "outer {outer}, inner {inner}");
            }
        }
    }

    #[test]
    fn nested_panics_reraise_through_both_levels_and_hand_slots_back() {
        // Outer jobs 1 and 2 run nested maps panicking at inner jobs 3
        // and 8: the payload of outer job 1's inner job 3 surfaces.
        let outer_jobs: Vec<u32> = (0..3).collect();
        let inner_jobs: Vec<u32> = (0..12).collect();
        for (outer, inner) in [(1, 1), (1, 4), (2, 2), (2, 4), (4, 3)] {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map(outer, &outer_jobs, |_, &o| {
                    parallel_map(inner, &inner_jobs, |_, &j| {
                        if o > 0 && j % 5 == 3 {
                            panic!("boom at {o}.{j}");
                        }
                        j
                    })
                })
            }))
            .expect_err("panic must propagate");
            assert_eq!(
                message(caught),
                "boom at 1.3",
                "outer {outer}, inner {inner}"
            );
        }

        // Inside a still-running outer job whose sibling has retired, a
        // nested map reaches a second thread, then one that borrowed it
        // panics, and the slot must come back for the next nested map.
        let reached = parallel_map(2, &[0u8, 1], |_, &o| {
            if o == 1 {
                return (true, true);
            }
            let before = reaches_two_threads();
            let caught = std::panic::catch_unwind(|| {
                parallel_map(2, &[0u8, 1], |_, &j| {
                    std::thread::sleep(Duration::from_millis(2));
                    if j == 1 {
                        panic!("nested boom");
                    }
                    j
                })
            })
            .expect_err("panic must propagate");
            assert_eq!(message(caught), "nested boom");
            (before, reaches_two_threads())
        });
        assert_eq!(reached[0], (true, true), "(before, after) the panic");
    }

    #[test]
    fn a_call_after_a_return_or_unwind_is_outermost_again() {
        // A 1-thread call leaves no slot idle: were this thread still
        // marked as running its jobs, the next call would run inline.
        parallel_map(1, &[0u8], |_, &j| j);
        assert!(reaches_two_threads(), "after a return");
        let caught = std::panic::catch_unwind(|| {
            parallel_map(1, &[0u8], |_, _| -> u8 { panic!("inline boom") })
        })
        .expect_err("panic must propagate");
        assert_eq!(message(caught), "inline boom");
        assert!(reaches_two_threads(), "after an unwind");
    }
}
