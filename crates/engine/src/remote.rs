//! A JSONL RPC client for remote service workers.
//!
//! The wire-protocol counterpart of [`crate::service`]: where that module
//! frames requests *into* a serving process, [`RemoteWorker`] frames them
//! *out of* a coordinating one — it connects to a `naas-search worker`
//! (or `serve --port`) process over TCP, writes one request line, and
//! blocks for the matching response line. Like everything else in the
//! engine it is semantics-free: commands and parameters are opaque
//! [`Value`]s; what they mean is the caller's business (the distributed
//! search coordinator in `naas::distributed`).
//!
//! Failure model: any I/O or framing error drops the connection and
//! surfaces as a [`RemoteError`]. The next call transparently
//! reconnects, so a caller that re-issues failed work (the coordinator's
//! shard re-issue and auto-rejoin paths) needs no connection bookkeeping
//! of its own. The full wire specification lives in `docs/PROTOCOL.md`.
//!
//! ## The `hello` handshake
//!
//! With [`RemoteWorker::enable_handshake`], every (re)connect opens with
//! a `hello` exchange: the client sends its [`PROTOCOL_VERSION`] and
//! name, the server answers with its own version and capability list.
//! Anything but an exact version match — including a pre-handshake
//! server that rejects `hello` as an unknown command — surfaces as
//! [`RemoteError::Incompatible`] and never reaches a semantic command,
//! turning "two builds silently disagree about serialized state" into a
//! clean connect-time error. Because the handshake runs inside
//! [`RemoteWorker::connect`], a worker that died and was restarted with
//! a *different* build is re-screened on rejoin, not just at startup.
//!
//! # Examples
//!
//! ```
//! use naas_engine::remote::RemoteWorker;
//!
//! // Handles are cheap and lazy: nothing is dialed until the first
//! // call (or an explicit `connect`).
//! let mut worker = RemoteWorker::new("127.0.0.1:4801");
//! worker.enable_handshake("doc-example");
//! assert_eq!(worker.addr(), "127.0.0.1:4801");
//! assert!(!worker.is_connected());
//! // Capabilities are learned by the handshake; before it, none.
//! assert!(!worker.has_capability("joint"));
//! ```
//!
//! [`PROTOCOL_VERSION`]: crate::service::PROTOCOL_VERSION

use crate::service::PROTOCOL_VERSION;
use serde::Value;
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Why a remote call failed.
#[derive(Debug)]
pub enum RemoteError {
    /// The connection could not be established, or died mid-call.
    Io(std::io::Error),
    /// The worker answered, but not with a well-formed response line
    /// (invalid JSON, wrong `id` echo, missing fields).
    Protocol(String),
    /// The worker answered with an error response (`"ok": false`); the
    /// payload is its `error` message. The connection stays usable.
    Remote(String),
    /// The `hello` handshake failed: the worker speaks a different
    /// protocol version (or predates the handshake entirely). Re-dialing
    /// cannot help until one side is rebuilt.
    Incompatible(String),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Io(e) => write!(f, "worker connection error: {e}"),
            RemoteError::Protocol(m) => write!(f, "worker protocol violation: {m}"),
            RemoteError::Remote(m) => write!(f, "worker error response: {m}"),
            RemoteError::Incompatible(m) => write!(f, "worker version mismatch: {m}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<std::io::Error> for RemoteError {
    fn from(e: std::io::Error) -> Self {
        RemoteError::Io(e)
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes of a response line read so far. Pipelined receives use a
    /// socket read timeout, which can expire mid-line; whatever already
    /// arrived must survive the tick or the framing is corrupted.
    partial: Vec<u8>,
    /// The read timeout currently applied to the socket (mirrors the
    /// kernel state so `read_line_tick` only issues the `setsockopt`
    /// when the deadline mode actually changes).
    read_timeout: Option<Duration>,
}

/// What one [`RemoteWorker::recv_next`] tick yields: `None` when the
/// tick expired with nothing resolved, or the oldest in-flight request's
/// id paired with its outcome (a result, or an orderly remote error that
/// keeps the pipeline intact).
pub type PipelinedReply = Option<(u64, Result<Value, RemoteError>)>;

/// One remote serving process, addressed as `host:port`.
///
/// Two calling modes share one connection:
///
/// * **Sequential** ([`RemoteWorker::call`]): write one request line,
///   block for the matching response. Simple, used by one-shot clients
///   and the CLI.
/// * **Pipelined** ([`RemoteWorker::send`] / [`RemoteWorker::recv_next`]):
///   queue several requests ahead of their replies so the worker never
///   drains its inbox dry between shards. The service answers each
///   stream's responses *in request order* (see `docs/PROTOCOL.md`), so
///   replies are matched to the oldest in-flight id — no wire change.
///
/// Fan-out across workers is the caller's concern — hand each worker to
/// its own thread.
pub struct RemoteWorker {
    addr: String,
    conn: Option<Conn>,
    next_id: u64,
    /// Ids of pipelined requests written but not yet answered, oldest
    /// first, each with its issue instant (for latency telemetry).
    pending: VecDeque<(u64, Instant)>,
    /// `Some(client name)` once [`RemoteWorker::enable_handshake`] was
    /// called: every (re)connect then opens with a `hello` exchange.
    handshake: Option<String>,
    /// Capability strings the server advertised in its last successful
    /// `hello` reply.
    capabilities: Vec<String>,
    /// Bound on how long a dial may block; `None` uses the OS default.
    connect_timeout: Option<std::time::Duration>,
}

impl RemoteWorker {
    /// Creates a handle on `addr` (`host:port`) without connecting yet;
    /// the first call (or an explicit [`RemoteWorker::connect`]) dials.
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteWorker {
            addr: addr.into(),
            conn: None,
            next_id: 1,
            pending: VecDeque::new(),
            handshake: None,
            capabilities: Vec::new(),
            connect_timeout: None,
        }
    }

    /// Bounds every future dial to `timeout`. Without one, a peer that
    /// silently drops SYNs (powered-off machine, network partition)
    /// blocks `connect` for the OS default — minutes on Linux. The
    /// distributed coordinator sets this so its periodic rejoin probes
    /// stay cheap: a probe against a down worker must cost a bounded
    /// beat of the generation barrier, not a connect-timeout stall.
    pub fn set_connect_timeout(&mut self, timeout: std::time::Duration) {
        self.connect_timeout = Some(timeout);
    }

    /// Opens every (re)connect with the `hello` version handshake,
    /// identifying this client as `client` (a free-form name the server
    /// may log). See the module docs; the distributed coordinator
    /// enables this on every worker it dials.
    pub fn enable_handshake(&mut self, client: impl Into<String>) {
        self.handshake = Some(client.into());
    }

    /// Capability strings advertised by the server's last `hello` reply
    /// (empty before the first handshake, or when handshaking is off).
    pub fn capabilities(&self) -> &[String] {
        &self.capabilities
    }

    /// `true` when the server's last `hello` reply advertised `name`.
    pub fn has_capability(&self, name: &str) -> bool {
        self.capabilities.iter().any(|c| c == name)
    }

    /// The worker's address, as given to [`RemoteWorker::new`].
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `true` while a connection is open (it may still be found dead by
    /// the next call — TCP only reports failure on use).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Establishes the connection if there is none, performing the
    /// `hello` handshake first when [`RemoteWorker::enable_handshake`]
    /// is on — so by the time `connect` returns `Ok`, version
    /// compatibility is already proven and the advertised
    /// [`RemoteWorker::capabilities`] are known.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Io`] when the worker cannot be reached;
    /// [`RemoteError::Incompatible`] when the handshake finds a protocol
    /// version mismatch (including a server too old to know `hello`).
    pub fn connect(&mut self) -> Result<(), RemoteError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let writer = match self.connect_timeout {
            None => TcpStream::connect(&self.addr)?,
            Some(timeout) => {
                // `connect_timeout` takes a resolved address; try each
                // resolution like `TcpStream::connect` would.
                use std::net::ToSocketAddrs;
                let mut last = None;
                let mut stream = None;
                for resolved in self.addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(RemoteError::Io(last.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to nothing",
                            )
                        })))
                    }
                }
            }
        };
        // Line-oriented request/response over small JSON payloads:
        // Nagle batching against delayed ACKs stalls every pipelined
        // round trip by tens of milliseconds, which dwarfs the work in
        // a micro-shard. Flush segments immediately.
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        let mut conn = Conn {
            reader,
            writer,
            partial: Vec::new(),
            read_timeout: None,
        };
        if let Some(client) = self.handshake.clone() {
            // The handshake always uses the reserved id 0: it may run
            // in the middle of a `call` (transparent reconnect), and
            // stealing an id from the per-call sequence there would
            // desynchronize the request↔response pairing.
            self.capabilities = hello_exchange(&mut conn, 0, &client)?;
        }
        self.conn = Some(conn);
        Ok(())
    }

    /// Drops the connection; the next call reconnects. Any pipelined
    /// requests still in flight are forgotten — their replies can never
    /// be read once the stream is gone.
    pub fn disconnect(&mut self) {
        self.conn = None;
        self.pending.clear();
    }

    /// Alias of [`RemoteWorker::disconnect`] that reads as what the
    /// scheduler means by it: give up on this conversation (typically a
    /// hung worker whose outstanding shards were already re-issued
    /// elsewhere) without declaring the worker dead. The next
    /// generation's first `send`/`call` transparently re-dials.
    pub fn abandon(&mut self) {
        self.disconnect();
    }

    /// Number of pipelined requests written but not yet answered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Writes one request (`cmd` plus `params`, with a fresh numeric
    /// `id`) **without waiting for the reply**, connecting first if
    /// needed. Returns the request id; the reply is claimed later by
    /// [`RemoteWorker::recv_next`]. Queue as many as the pipeline depth
    /// calls for — the service answers in request order.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Io`] when the dial or the write fails, and
    /// [`RemoteError::Incompatible`] from the connect-time handshake.
    /// Any error drops the connection and forgets the in-flight queue.
    pub fn send(&mut self, cmd: &str, params: Vec<(String, Value)>) -> Result<u64, RemoteError> {
        if let Err(e) = self.connect() {
            self.disconnect();
            return Err(e);
        }
        let id = self.next_id;
        self.next_id += 1;
        let line = request_line(id, cmd, params);
        let conn = self.conn.as_mut().expect("connected above");
        match write_line(conn, &line) {
            Ok(()) => {
                crate::telemetry::metrics().coordinator.rpcs.inc();
                self.pending.push_back((id, Instant::now()));
                Ok(id)
            }
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }

    /// Waits up to `tick` for the next pipelined reply.
    ///
    /// Returns `Ok(None)` when the tick expires first (or nothing is in
    /// flight) — partial data already read is kept, so ticking is free —
    /// and `Ok(Some((id, outcome)))` when the oldest in-flight request
    /// resolves. The inner outcome is only ever `Ok(result)` or an
    /// orderly [`RemoteError::Remote`] (which keeps the connection and
    /// pipeline intact).
    ///
    /// # Errors
    ///
    /// An outer `Err` is a transport or framing failure: the connection
    /// is dropped and **all** in-flight requests are lost (the caller
    /// re-issues them elsewhere).
    pub fn recv_next(&mut self, tick: Duration) -> Result<PipelinedReply, RemoteError> {
        let Some(&(id, issued)) = self.pending.front() else {
            return Ok(None);
        };
        let conn = match self.conn.as_mut() {
            Some(conn) => conn,
            None => {
                self.pending.clear();
                return Err(RemoteError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    "pipelined requests outstanding on a closed connection",
                )));
            }
        };
        let line = match read_line_tick(conn, Some(tick)) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(None),
            Err(e) => {
                self.disconnect();
                return Err(e);
            }
        };
        self.pending.pop_front();
        let coordinator = &crate::telemetry::metrics().coordinator;
        let elapsed = issued.elapsed();
        coordinator.rpc_latency.observe_duration(elapsed);
        coordinator
            .per_worker_rpc
            .get(&self.addr)
            .observe_duration(elapsed);
        match parse_response(&line, id) {
            Ok(result) => Ok(Some((id, Ok(result)))),
            Err(RemoteError::Remote(m)) => Ok(Some((id, Err(RemoteError::Remote(m))))),
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }

    /// Claims the next pipelined reply only if one has **already
    /// arrived** — a full response line sitting in the read buffer.
    /// Never blocks on the socket: this is the event-driven fast path
    /// of the scheduler's worker loop, letting a worker thread drain
    /// every reply that has landed before paying a blocking tick on
    /// [`RemoteWorker::recv_next`].
    ///
    /// Returns `Ok(None)` when nothing is in flight or the next reply
    /// has not fully arrived.
    ///
    /// # Errors
    ///
    /// Same contract as [`RemoteWorker::recv_next`].
    pub fn recv_ready(&mut self) -> Result<PipelinedReply, RemoteError> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let ready = self
            .conn
            .as_ref()
            .is_some_and(|c| c.reader.buffer().contains(&b'\n'));
        if !ready {
            return Ok(None);
        }
        // The line completes from the buffer, so the tick never runs.
        self.recv_next(Duration::from_micros(1))
    }

    /// Sends one request (`cmd` plus `params`, with a fresh numeric `id`)
    /// and blocks for the matching response line. Returns the response's
    /// `result` payload.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Io`] / [`RemoteError::Protocol`] drop the
    /// connection (the conversation's request↔response pairing can no
    /// longer be trusted); [`RemoteError::Remote`] is an orderly error
    /// response and keeps it open.
    pub fn call(&mut self, cmd: &str, params: Vec<(String, Value)>) -> Result<Value, RemoteError> {
        assert!(
            self.pending.is_empty(),
            "call() while pipelined requests are in flight would desynchronize reply pairing"
        );
        let id = self.next_id;
        self.next_id += 1;
        let line = request_line(id, cmd, params);

        let start = std::time::Instant::now();
        let outcome = self.exchange(&line, id);
        let coordinator = &crate::telemetry::metrics().coordinator;
        coordinator.rpcs.inc();
        let elapsed = start.elapsed();
        coordinator.rpc_latency.observe_duration(elapsed);
        coordinator
            .per_worker_rpc
            .get(&self.addr)
            .observe_duration(elapsed);

        match outcome {
            Ok(result) => Ok(result),
            Err(e) => {
                if !matches!(e, RemoteError::Remote(_)) {
                    self.disconnect();
                }
                Err(e)
            }
        }
    }

    fn exchange(&mut self, line: &str, id: u64) -> Result<Value, RemoteError> {
        self.connect()?;
        let conn = self.conn.as_mut().expect("connected above");
        wire_exchange(conn, line, id)
    }
}

/// Renders one request line: `id` and `cmd` first, then the caller's
/// parameters. The parameter trees (a shard's candidates, its mapping
/// config) are written in place, never copied.
fn request_line(id: u64, cmd: &str, params: Vec<(String, Value)>) -> String {
    let mut fields = Vec::with_capacity(params.len() + 2);
    fields.push(("id".to_string(), Value::U64(id)));
    fields.push(("cmd".to_string(), Value::Str(cmd.to_string())));
    fields.extend(params);
    serde_json::value_to_string(&Value::Object(fields))
}

/// Writes one framed request line.
fn write_line(conn: &mut Conn, line: &str) -> Result<(), RemoteError> {
    conn.writer.write_all(line.as_bytes())?;
    conn.writer.write_all(b"\n")?;
    conn.writer.flush()?;
    Ok(())
}

/// Reads one `\n`-terminated line, optionally bounded by a socket read
/// timeout. With `tick: None` it blocks until a full line (or failure);
/// with `Some(tick)` it returns `Ok(None)` when the deadline expires
/// first, parking any partially-read bytes in `conn.partial` so the
/// next attempt resumes mid-line instead of corrupting the framing.
fn read_line_tick(conn: &mut Conn, tick: Option<Duration>) -> Result<Option<String>, RemoteError> {
    if conn.read_timeout != tick {
        conn.reader.get_ref().set_read_timeout(tick)?;
        conn.read_timeout = tick;
    }
    loop {
        let buf = match conn.reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if tick.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(None)
            }
            Err(e) => return Err(RemoteError::Io(e)),
        };
        if buf.is_empty() {
            return Err(RemoteError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "worker closed the connection mid-call",
            )));
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                conn.partial.extend_from_slice(&buf[..pos]);
                conn.reader.consume(pos + 1);
                let bytes = std::mem::take(&mut conn.partial);
                return match String::from_utf8(bytes) {
                    Ok(line) => Ok(Some(line)),
                    Err(_) => Err(RemoteError::Protocol(
                        "response line is not UTF-8".to_string(),
                    )),
                };
            }
            None => {
                let n = buf.len();
                conn.partial.extend_from_slice(buf);
                conn.reader.consume(n);
            }
        }
    }
}

/// Parses one response line, requiring it to echo `id`, and splits the
/// orderly `ok: true/false` outcomes from framing violations.
fn parse_response(response: &str, id: u64) -> Result<Value, RemoteError> {
    let value: Value = serde_json::parse_str(response.trim_end())
        .map_err(|e| RemoteError::Protocol(format!("invalid response JSON: {e}")))?;
    if value.get("id") != Some(&Value::U64(id)) {
        return Err(RemoteError::Protocol(format!(
            "response id mismatch (sent {id}, got {:?})",
            value.get("id")
        )));
    }
    match value.get("ok") {
        Some(&Value::Bool(true)) => Ok(value.get("result").cloned().unwrap_or(Value::Null)),
        Some(&Value::Bool(false)) => Err(RemoteError::Remote(
            value
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unspecified error")
                .to_string(),
        )),
        _ => Err(RemoteError::Protocol(
            "response has no boolean `ok` field".to_string(),
        )),
    }
}

/// One raw request/response round-trip on an open connection.
fn wire_exchange(conn: &mut Conn, line: &str, id: u64) -> Result<Value, RemoteError> {
    write_line(conn, line)?;
    let response = read_line_tick(conn, None)?.expect("a blocking read never ticks out");
    parse_response(&response, id)
}

/// Performs the `hello` exchange on a fresh connection: sends this
/// build's [`PROTOCOL_VERSION`] and the client name, and requires the
/// server to answer with the identical version. Returns the server's
/// advertised capability list.
fn hello_exchange(conn: &mut Conn, id: u64, client: &str) -> Result<Vec<String>, RemoteError> {
    let line = request_line(
        id,
        "hello",
        vec![
            ("protocol".to_string(), Value::U64(PROTOCOL_VERSION)),
            ("client".to_string(), Value::Str(client.to_string())),
        ],
    );
    let result = match wire_exchange(conn, &line, id) {
        Ok(result) => result,
        // An orderly error response to `hello` is itself a version
        // signal: either a pre-handshake build ("unknown command") or a
        // server that checked our version and refused. Both are
        // incompatibility, not transient failure.
        Err(RemoteError::Remote(m)) => {
            return Err(RemoteError::Incompatible(format!(
                "server rejected hello (protocol {PROTOCOL_VERSION}): {m}"
            )))
        }
        Err(e) => return Err(e),
    };
    match result.get("protocol").and_then(Value::as_u64) {
        Some(theirs) if theirs == PROTOCOL_VERSION => {}
        Some(theirs) => {
            return Err(RemoteError::Incompatible(format!(
                "server speaks protocol {theirs}, this client speaks {PROTOCOL_VERSION}"
            )))
        }
        None => {
            return Err(RemoteError::Protocol(
                "hello reply has no numeric `protocol` field".to_string(),
            ))
        }
    }
    let capabilities = result
        .get("capabilities")
        .and_then(Value::as_array)
        .map(|caps| {
            caps.iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    Ok(capabilities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted one-connection server: answers each received line with
    /// the next canned response (or closes early when the script runs
    /// out).
    fn scripted_server(responses: Vec<Option<String>>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for response in responses {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                match response {
                    Some(r) => {
                        writeln!(writer, "{r}").unwrap();
                        writer.flush().unwrap();
                    }
                    None => return, // scripted death: close mid-call
                }
            }
        });
        addr
    }

    #[test]
    fn call_round_trips_result() {
        let addr = scripted_server(vec![
            Some(r#"{"id":1,"ok":true,"result":{"answer":42}}"#.into()),
            Some(r#"{"id":2,"ok":false,"error":"nope"}"#.into()),
        ]);
        let mut worker = RemoteWorker::new(&addr);
        assert_eq!(worker.addr(), addr);
        let result = worker.call("ping", vec![]).unwrap();
        assert_eq!(result.get("answer"), Some(&Value::U64(42)));
        // An orderly error response keeps the connection open.
        let err = worker.call("ping", vec![]).unwrap_err();
        assert!(matches!(err, RemoteError::Remote(ref m) if m == "nope"));
        assert!(worker.is_connected());
    }

    #[test]
    fn mid_call_death_is_io_error_and_disconnects() {
        let addr = scripted_server(vec![None]);
        let mut worker = RemoteWorker::new(&addr);
        let err = worker.call("ping", vec![]).unwrap_err();
        assert!(matches!(err, RemoteError::Io(_)), "got {err}");
        assert!(!worker.is_connected());
    }

    #[test]
    fn id_mismatch_is_a_protocol_error() {
        let addr = scripted_server(vec![Some(r#"{"id":99,"ok":true,"result":null}"#.into())]);
        let mut worker = RemoteWorker::new(&addr);
        let err = worker.call("ping", vec![]).unwrap_err();
        assert!(matches!(err, RemoteError::Protocol(_)), "got {err}");
        assert!(!worker.is_connected());
    }

    #[test]
    fn handshake_negotiates_version_and_capabilities() {
        let addr = scripted_server(vec![
            Some(format!(
                r#"{{"id":0,"ok":true,"result":{{"protocol":{PROTOCOL_VERSION},"capabilities":["joint","metrics"]}}}}"#
            )),
            Some(r#"{"id":1,"ok":true,"result":null}"#.into()),
        ]);
        let mut worker = RemoteWorker::new(&addr);
        worker.enable_handshake("test");
        assert!(worker.capabilities().is_empty(), "no handshake yet");
        // The first call triggers connect → hello (reserved id 0) →
        // the call itself (id 1).
        worker.call("ping", vec![]).unwrap();
        assert!(worker.has_capability("joint"));
        assert!(worker.has_capability("metrics"));
        assert!(!worker.has_capability("time_travel"));
    }

    #[test]
    fn version_mismatch_is_a_clean_incompatible_error() {
        let addr = scripted_server(vec![Some(
            r#"{"id":0,"ok":true,"result":{"protocol":99,"capabilities":[]}}"#.into(),
        )]);
        let mut worker = RemoteWorker::new(&addr);
        worker.enable_handshake("test");
        let err = worker.call("ping", vec![]).unwrap_err();
        assert!(matches!(err, RemoteError::Incompatible(_)), "got {err}");
        assert!(err.to_string().contains("protocol 99"), "got {err}");
        assert!(!worker.is_connected(), "mismatch must not leave a conn");
    }

    #[test]
    fn pre_handshake_server_is_incompatible_not_a_crash() {
        // An old build answers `hello` like any unknown command: with an
        // orderly error response. That must surface as Incompatible.
        let addr = scripted_server(vec![Some(
            r#"{"id":0,"ok":false,"error":"unknown command `hello`"}"#.into(),
        )]);
        let mut worker = RemoteWorker::new(&addr);
        worker.enable_handshake("test");
        let err = worker.call("ping", vec![]).unwrap_err();
        assert!(matches!(err, RemoteError::Incompatible(_)), "got {err}");
    }

    #[test]
    fn pipelined_send_recv_matches_oldest_pending_id() {
        let addr = scripted_server(vec![
            Some(r#"{"id":1,"ok":true,"result":10}"#.into()),
            Some(r#"{"id":2,"ok":false,"error":"nope"}"#.into()),
            Some(r#"{"id":3,"ok":true,"result":30}"#.into()),
        ]);
        let mut worker = RemoteWorker::new(&addr);
        assert_eq!(worker.send("ping", vec![]).unwrap(), 1);
        assert_eq!(worker.send("ping", vec![]).unwrap(), 2);
        assert_eq!(worker.send("ping", vec![]).unwrap(), 3);
        assert_eq!(worker.pending(), 3);

        let tick = Duration::from_secs(5);
        let (id, outcome) = worker.recv_next(tick).unwrap().unwrap();
        assert_eq!(id, 1);
        assert_eq!(outcome.unwrap(), Value::U64(10));
        // An orderly error response resolves its request and keeps the
        // connection (and the rest of the pipeline) intact.
        let (id, outcome) = worker.recv_next(tick).unwrap().unwrap();
        assert_eq!(id, 2);
        assert!(matches!(outcome, Err(RemoteError::Remote(ref m)) if m == "nope"));
        assert!(worker.is_connected());
        let (id, outcome) = worker.recv_next(tick).unwrap().unwrap();
        assert_eq!(id, 3);
        assert_eq!(outcome.unwrap(), Value::U64(30));
        assert_eq!(worker.pending(), 0);
        // Nothing in flight → an immediate quiet tick, not an error.
        assert!(worker.recv_next(tick).unwrap().is_none());
    }

    #[test]
    fn recv_tick_preserves_partial_lines() {
        // A server that dribbles its reply in two chunks with a pause in
        // between: ticks must expire without dropping the first chunk.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            write!(writer, r#"{{"id":1,"ok":tr"#).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(120));
            writeln!(writer, r#"ue,"result":7}}"#).unwrap();
            writer.flush().unwrap();
            // Hold the socket open until the client is done reading.
            let mut rest = String::new();
            let _ = reader.read_line(&mut rest);
        });
        let mut worker = RemoteWorker::new(&addr);
        worker.send("ping", vec![]).unwrap();
        let tick = Duration::from_millis(15);
        let mut quiet_ticks = 0usize;
        let reply = loop {
            match worker.recv_next(tick).unwrap() {
                Some(reply) => break reply,
                None => quiet_ticks += 1,
            }
            assert!(quiet_ticks < 400, "reply never arrived");
        };
        assert!(quiet_ticks > 0, "the pause must produce at least one tick");
        assert_eq!(reply.0, 1);
        assert_eq!(reply.1.unwrap(), Value::U64(7));
    }

    #[test]
    fn pipelined_death_clears_all_in_flight() {
        let addr = scripted_server(vec![
            Some(r#"{"id":1,"ok":true,"result":null}"#.into()),
            None, // scripted death before the second reply
        ]);
        let mut worker = RemoteWorker::new(&addr);
        worker.send("ping", vec![]).unwrap();
        worker.send("ping", vec![]).unwrap();
        let tick = Duration::from_secs(5);
        assert!(worker.recv_next(tick).unwrap().is_some());
        let err = worker.recv_next(tick).unwrap_err();
        assert!(matches!(err, RemoteError::Io(_)), "got {err}");
        assert_eq!(worker.pending(), 0, "a dead stream forgets its queue");
        assert!(!worker.is_connected());
    }

    #[test]
    fn abandon_forgets_the_pipeline_without_killing_the_handle() {
        let addr = scripted_server(vec![Some(r#"{"id":2,"ok":true,"result":null}"#.into())]);
        let mut worker = RemoteWorker::new(&addr);
        worker.send("ping", vec![]).unwrap();
        worker.abandon();
        assert_eq!(worker.pending(), 0);
        assert!(!worker.is_connected());
        // The handle stays usable: the next call re-dials. (The scripted
        // server only serves one connection, so just assert the local
        // bookkeeping reset — id allocation continues from where it was.)
        assert_eq!(worker.addr(), addr);
    }

    #[test]
    fn unreachable_worker_is_io_error() {
        // A port nothing listens on: connect must fail cleanly.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut worker = RemoteWorker::new(addr);
        assert!(matches!(
            worker.call("ping", vec![]),
            Err(RemoteError::Io(_))
        ));
    }
}
