//! The batch-evaluation service substrate: the JSON-lines wire
//! protocol.
//!
//! Like the rest of the engine, this module knows nothing about *what*
//! is being evaluated: it frames requests and responses as JSON lines.
//! The co-search semantics (scenarios, designs, pipelines) and the
//! stream plumbing live in `naas::service`, which layers its handlers
//! on top.
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
//! clients may pipeline requests and correlate the responses.
//! Every parse failure still produces a response line — a service must
//! answer every line it consumes, or a pipelining client deadlocks.

use serde::Value;

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
/// coordinator relies on. Version 9 removed the `batcher` section of
/// every `metrics` snapshot, a required field, together with the
/// request batcher it described. A client and server
/// interoperate only on an exact match — the
/// distributed driver ships serialized configs and search states whose
/// layout follows the crate types, so "close enough" versions are
/// exactly the undefined behaviour the handshake exists to rule out.
pub const PROTOCOL_VERSION: u64 = 9;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
