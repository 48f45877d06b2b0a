//! The batch-evaluation service substrate: a JSON-lines wire protocol
//! and a coalescing request batcher.
//!
//! Like the rest of the engine, this module knows nothing about *what*
//! is being evaluated: it frames requests and responses as JSON lines
//! and moves opaque in-flight jobs between connection threads and a
//! scheduler. The co-search semantics (scenarios, designs, pipelines)
//! live in `naas::service`, which layers its handlers on top.
//!
//! ## Wire protocol
//!
//! One request per line, one response per line:
//!
//! ```text
//! → {"id": 1, "cmd": "list_scenarios"}
//! ← {"id": 1, "ok": true, "result": {...}}
//! → {"id": 2, "cmd": "nope"}
//! ← {"id": 2, "ok": false, "error": "unknown command `nope`"}
//! ```
//!
//! `id` is echoed verbatim (any JSON value, defaulting to `null`), so
//! clients may pipeline requests and match responses out of order.
//! Every parse failure still produces a response line — a service must
//! answer every line it consumes, or a pipelining client deadlocks.
//!
//! ## Coalescing
//!
//! [`Batcher`] is a many-producer queue with *drain-all* semantics:
//! connection threads [`Batcher::push`] in-flight requests as they
//! arrive, and the scheduler's [`Batcher::next_batch`] blocks until at
//! least one request is pending, then takes **everything** queued. All
//! concurrent in-flight requests therefore land in one batch, which the
//! scheduler fans out over the work-stealing pool in a single
//! `parallel_map` call — service throughput rides the same batched
//! evaluation path as an in-process population evaluation.

use serde::Value;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// The wire-protocol version spoken by this build, negotiated by the
/// `hello` command (see `docs/PROTOCOL.md` § Versioning). Version 1 is
/// the pre-handshake protocol (no `hello` command); version 2 added the
/// handshake, capability lists, and the joint-search extensions of
/// `evaluate_shard` and of the since-removed `search_step` command;
/// version 3 made every `evaluate_shard`
/// result carry the candidate's objective vector (`objectives`,
/// advertised by the `"objectives"` capability) alongside the scalar
/// reward — an incompatible reply-shape change, hence the bump. Version
/// 4 introduced the multi-tenant gateway: the `job_*` command family
/// (advertised by the `"jobs"` capability) and a `gateway` section in
/// every `metrics` snapshot — the snapshot-shape change is what makes
/// the bump required rather than additive, since a v4 reader of a
/// serialized `MetricsSnapshot` rejects a v3 image that lacks the new
/// required section. Version 5 slimmed accelerator-mode `evaluate_shard`
/// results to `{reward, objectives}`: the per-network cost reports were
/// no longer shipped (the coordinator rebuilt them from the cache
/// deltas of its workers' replies, for the incumbent alone), and
/// removing a required field is incompatible. Version 6 removed the
/// sub-candidate joint mode of `evaluate_shard` and the overlap
/// reactor's four required counters from the `metrics` coordinator
/// section. Version 7 removed the `search_step` command and its
/// capability, and the `cache` parameter through which coordinators
/// relayed one worker's cache deltas to the others: a worker now ships
/// results only as `evaluate_shard` replies. Version 8 removed the
/// `cache_delta` of those replies and the `cache_gossip` capability:
/// an accelerator-mode request carries the search's `incumbent` reward,
/// and the worker ships the full per-network reports of exactly the
/// candidates that could install a new incumbent, which a v8
/// coordinator relies on. A client and server
/// interoperate only on an exact match — the
/// distributed driver ships serialized configs and search states whose
/// layout follows the crate types, so "close enough" versions are
/// exactly the undefined behaviour the handshake exists to rule out.
pub const PROTOCOL_VERSION: u64 = 8;

/// A parsed service request: the echoed `id`, the command name, and the
/// full request object (commands read their parameters out of it).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Value,
    /// Command name (`list_scenarios`, `score_design`, ...).
    pub cmd: String,
    /// The whole request object; parameter lookups go through
    /// [`Request::param`].
    pub body: Value,
}

/// A request line that could not be framed. Carries whatever `id` could
/// still be recovered from the line, so even a malformed request's error
/// response stays correlatable by a pipelining client.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseFailure {
    /// The request's `id` if the line at least parsed as a JSON object
    /// carrying one; `Value::Null` otherwise.
    pub id: Value,
    /// Human-readable reason.
    pub message: String,
}

impl Request {
    /// Parses one JSONL request line.
    ///
    /// # Errors
    ///
    /// A [`ParseFailure`] when the line is not a JSON object or has no
    /// string `cmd` field. The caller wraps it with [`error_line`] so
    /// malformed input still gets a response, echoing the recovered id.
    pub fn parse(line: &str) -> Result<Request, ParseFailure> {
        let body: Value = serde_json::parse_str(line).map_err(|e| ParseFailure {
            id: Value::Null,
            message: format!("invalid request JSON: {e}"),
        })?;
        if !matches!(body, Value::Object(_)) {
            return Err(ParseFailure {
                id: Value::Null,
                message: format!("expected a request object, got {}", kind(&body)),
            });
        }
        let id = body.get("id").cloned().unwrap_or(Value::Null);
        let cmd = body
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| ParseFailure {
                id: id.clone(),
                message: "request has no string `cmd` field".to_string(),
            })?
            .to_string();
        Ok(Request { id, cmd, body })
    }

    /// Looks up a request parameter (`null` and absent are both `None`).
    pub fn param(&self, key: &str) -> Option<&Value> {
        match self.body.get(key) {
            None | Some(Value::Null) => None,
            some => some,
        }
    }
}

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::U64(_) | Value::I64(_) | Value::F64(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

/// Renders a success response line (no trailing newline). The result
/// tree is written in place, never copied.
pub fn ok_line(id: &Value, result: Value) -> String {
    let response = Value::Object(vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Value::Bool(true)),
        ("result".to_string(), result),
    ]);
    serde_json::value_to_string(&response)
}

/// Renders an error response line (no trailing newline).
pub fn error_line(id: &Value, message: &str) -> String {
    let response = Value::Object(vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(message.to_string())),
    ]);
    serde_json::value_to_string(&response)
}

struct BatcherState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A blocking multi-producer queue with drain-all consumption — the
/// coalescing scheduler's inbox. See the module docs for the role it
/// plays in the service.
///
/// # Examples
///
/// ```
/// use naas_engine::Batcher;
///
/// let batcher: Batcher<u32> = Batcher::new();
/// batcher.push(1);
/// batcher.push(2);
/// // The consumer coalesces: everything pending arrives as one batch.
/// assert_eq!(batcher.next_batch(), Some(vec![1, 2]));
///
/// // Closing refuses producers and drains the rest.
/// batcher.push(3);
/// batcher.close();
/// assert!(!batcher.push(4));
/// assert_eq!(batcher.next_batch(), Some(vec![3]));
/// assert_eq!(batcher.next_batch(), None);
/// ```
pub struct Batcher<T> {
    state: Mutex<BatcherState<T>>,
    ready: Condvar,
}

impl<T> Default for Batcher<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Batcher<T> {
    /// Creates an empty, open batcher.
    pub fn new() -> Self {
        Batcher {
            state: Mutex::new(BatcherState {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    // The protected state is a plain queue, valid even if a producer
    // died mid-push; treating poison as fatal would take the whole
    // service down with it.
    fn lock(&self) -> std::sync::MutexGuard<'_, BatcherState<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueues one in-flight item. Returns `false` (dropping the item)
    /// if the batcher is already closed.
    ///
    /// # Multi-consumer contract
    ///
    /// A push wakes exactly **one** blocked consumer (`notify_one`), not
    /// all of them — with several [`Batcher::next_batch`] loops parked
    /// (the gateway runs one per executor), one item wakes one thread
    /// and the rest stay asleep instead of stampeding the lock only to
    /// find the queue already drained. A consumer that does lose the
    /// race (woken between a sibling's drain and its own lock
    /// acquisition) observes an empty queue and re-blocks on the
    /// condvar; it never spins. [`Batcher::close`] is the one event
    /// every consumer must observe, so it alone uses `notify_all`.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.lock();
        if state.closed {
            return false;
        }
        state.queue.push_back(item);
        let depth = state.queue.len() as u64;
        drop(state);
        crate::telemetry::metrics()
            .batcher
            .max_queue_depth
            .set_max(depth);
        self.ready.notify_one();
        true
    }

    /// Closes the batcher: producers are refused from now on, and
    /// [`Batcher::next_batch`] returns `None` once the queue drains.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Blocks until at least one item is queued, then drains and returns
    /// **all** queued items (the coalescing step). Returns `None` when
    /// the batcher is closed and empty.
    ///
    /// Safe to call from many threads at once: each queued item is
    /// delivered to exactly one consumer (the drain happens under the
    /// state lock), and after [`Batcher::close`] every blocked consumer
    /// unblocks and returns `None` once the queue is empty. See the
    /// wakeup contract on [`Batcher::push`].
    pub fn next_batch(&self) -> Option<Vec<T>> {
        let mut state = self.lock();
        loop {
            if !state.queue.is_empty() {
                let batch: Vec<T> = state.queue.drain(..).collect();
                let batcher_metrics = &crate::telemetry::metrics().batcher;
                batcher_metrics.batches.inc();
                batcher_metrics.requests.add(batch.len() as u64);
                batcher_metrics.batch_size.observe(batch.len() as u64);
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Items currently queued (diagnostic).
    pub fn pending(&self) -> usize {
        self.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn parse_extracts_id_cmd_and_params() {
        let req = Request::parse(r#"{"id": 7, "cmd": "score_design", "scenario": "x"}"#).unwrap();
        assert_eq!(req.id, Value::U64(7));
        assert_eq!(req.cmd, "score_design");
        assert_eq!(req.param("scenario").unwrap().as_str(), Some("x"));
        assert!(req.param("missing").is_none());
    }

    #[test]
    fn parse_defaults_id_to_null_and_ignores_null_params() {
        let req = Request::parse(r#"{"cmd": "list_scenarios", "extra": null}"#).unwrap();
        assert_eq!(req.id, Value::Null);
        assert!(req.param("extra").is_none());
    }

    #[test]
    fn parse_rejects_garbage_with_messages() {
        assert!(Request::parse("{not json")
            .unwrap_err()
            .message
            .contains("invalid"));
        assert!(Request::parse("[1,2]")
            .unwrap_err()
            .message
            .contains("object"));
        assert!(Request::parse(r#"{"id": 1}"#)
            .unwrap_err()
            .message
            .contains("cmd"));
        assert!(Request::parse(r#"{"cmd": 42}"#)
            .unwrap_err()
            .message
            .contains("cmd"));
    }

    #[test]
    fn parse_failure_recovers_the_request_id() {
        // A malformed request that still framed as an object keeps its
        // id, so the error response stays correlatable.
        let failure = Request::parse(r#"{"id": 7, "cmd": 42}"#).unwrap_err();
        assert_eq!(failure.id, Value::U64(7));
        // Unframeable lines fall back to null.
        assert_eq!(Request::parse("{torn").unwrap_err().id, Value::Null);
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let ok = ok_line(&Value::U64(3), Value::Str("done".into()));
        assert_eq!(ok, r#"{"id":3,"ok":true,"result":"done"}"#);
        let err = error_line(&Value::Null, "bad \"input\"\nline");
        assert!(!err.contains('\n'), "must stay one line: {err}");
        let back: Value = serde_json::from_str(&err).unwrap();
        assert_eq!(back.get("ok"), Some(&Value::Bool(false)));
    }

    #[test]
    fn batcher_coalesces_everything_pending() {
        let b: Batcher<u32> = Batcher::new();
        for i in 0..5 {
            assert!(b.push(i));
        }
        assert_eq!(b.pending(), 5);
        assert_eq!(b.next_batch().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn closed_batcher_refuses_producers_and_drains() {
        let b: Batcher<u32> = Batcher::new();
        b.push(1);
        b.close();
        assert!(!b.push(2));
        assert_eq!(b.next_batch().unwrap(), vec![1]);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn next_batch_blocks_until_a_producer_arrives() {
        let b: Arc<Batcher<u32>> = Arc::new(Batcher::new());
        let consumer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.next_batch())
        };
        // Give the consumer time to block, then wake it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.push(9);
        assert_eq!(consumer.join().unwrap().unwrap(), vec![9]);
    }

    #[test]
    fn multiple_consumers_share_the_queue_without_loss_or_spin() {
        // Regression test for the gateway's multi-consumer use: several
        // next_batch loops drain one batcher concurrently. Every pushed
        // item must be consumed exactly once, and every consumer must
        // terminate after close() — a lost wakeup would hang the join,
        // a stampeding wakeup would show up as duplicated items.
        let b: Arc<Batcher<usize>> = Arc::new(Batcher::new());
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut taken = Vec::new();
                    while let Some(batch) = b.next_batch() {
                        taken.extend(batch);
                    }
                    taken
                })
            })
            .collect();
        for i in 0..400 {
            assert!(b.push(i));
            if i % 7 == 0 {
                // Let consumers park between bursts so the single-wakeup
                // path (not just the drain-all path) is exercised.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        b.close();
        let mut all = Vec::new();
        for consumer in consumers {
            all.extend(consumer.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let b: Arc<Batcher<usize>> = Arc::new(Batcher::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let b = Arc::clone(&b);
                scope.spawn(move || {
                    for i in 0..50 {
                        b.push(t * 50 + i);
                    }
                });
            }
        });
        b.close();
        let mut all = Vec::new();
        while let Some(batch) = b.next_batch() {
            all.extend(batch);
        }
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }
}
