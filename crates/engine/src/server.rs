//! A std-only JSONL front end for the engine, running entirely through
//! the [`cqfit_env::Net`] seam (real TCP in production, `SimNet` under
//! the deterministic simulator).
//!
//! Wire protocol: one JSON request per line in, one JSON response per line
//! out (see [`crate::protocol`]).  Requests may carry an optional
//! `request_id`; identified mutations are routed through the engine's
//! idempotency memo ([`Engine::handle_with_id`]) so client retries after
//! an ambiguous connection drop apply exactly once.  Connections are
//! pipelined: up to [`PIPELINE_WINDOW`] already-buffered request lines
//! are taken as one window, handled in order on the connection's thread,
//! and answered in one reply frame — a window is answered exactly as the
//! same requests sent one by one.  Concurrency lives across connections
//! (one thread each), never inside a window.  Malformed lines are
//! answered with an error response carrying the line-internal column of
//! the offending token; the connection stays open.  A `{"op":"shutdown"}`
//! request is acknowledged, then the server stops accepting connections
//! and `run` returns after the remaining connection threads drain.
//!
//! Shutdown is a **clean drain**: connections that observe the shutdown
//! flag keep serving any requests already received (including a partial
//! line that completes within the grace window) and reply to them instead
//! of dropping the socket, bounded by a short grace deadline so a client
//! streaming forever cannot hold the server open.  After every connection
//! thread has drained, `run` flushes and syncs any open store files, so a
//! clean shutdown never leaves buffered log records behind.
//!
//! **Trust model**: the server is meant for cooperating clients (it binds
//! loopback by default and any client may shut it down).  Malformed and
//! oversized input is handled defensively, but the shared hom-cache keys
//! results by canonical hash alone — the hash is collision-resistant
//! against accidents, not against adversarially *constructed* collisions
//! (see `cqfit_data::canonical`), so do not expose the port to untrusted
//! networks.

use crate::engine::Engine;
use crate::protocol::{Envelope, Request, Response};
use cqfit_env::{Clock, Env, NetConn, NetListener};
use cqfit_obs::TraceContext;
use serde::Serialize;
use std::io::{self, ErrorKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum accepted request-line size (16 MiB) — a structured example of
/// hundreds of thousands of facts fits comfortably; a newline-less byte
/// stream cannot grow a connection buffer beyond it.
const MAX_LINE_BYTES: usize = 16 << 20;

/// Read-poll interval: the blocking line read wakes this often to check
/// the shutdown flag (a deadline on the injected clock, not a raw socket
/// option — the simulator advances it without real time passing).
const POLL: Duration = Duration::from_millis(200);

/// Per-read chunk size of the connection buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Bounded retry count for the shutdown wake-up self-connect.
const WAKE_ATTEMPTS: u32 = 3;

/// Per-connection pipeline window: at most this many already-buffered
/// request lines are decoded as one window and handled in order.
/// Responses are written in request order as one reply frame, and the
/// window never *waits* for more input — a client that writes one
/// request and blocks on the reply sees windows of one, while a
/// pipelining client that bursts N requests saves N-1 round trips.
///
/// The engine's exactly-once memo keeps this many entries per
/// workspace, and the client chunks pipelined bursts to this size, so a
/// replayed batch is always answerable from the memo.
pub(crate) const PIPELINE_WINDOW: usize = 32;

/// A JSONL server wrapping an [`Engine`].
pub struct Server {
    listener: Box<dyn NetListener>,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds to `addr` through the engine's environment — e.g.
    /// `127.0.0.1:7878` (port `0` for an ephemeral port) on the real
    /// network, or a `sim:` name under the simulator.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> io::Result<Server> {
        let listener = engine.env().net().bind(addr)?;
        Ok(Server {
            listener,
            engine,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with ephemeral ports).
    ///
    /// # Errors
    /// Propagates the lookup failure.
    pub fn local_addr(&self) -> io::Result<String> {
        self.listener.local_addr()
    }

    /// Serves until a shutdown request arrives, then joins all connection
    /// threads and returns.  One thread per connection; every connection
    /// shares the engine (and therefore the hom-cache).
    ///
    /// # Errors
    /// Propagates accept-loop I/O failures (per-connection I/O errors only
    /// end that connection).
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let conn = match self.accept_transient() {
                Ok(Some(c)) => c,
                Ok(None) => continue,
                Err(e) => return Err(e),
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Reap finished connection threads so a long-lived server does
            // not accumulate one JoinHandle per connection ever accepted.
            handles.retain(|h| !h.is_finished());
            let engine = Arc::clone(&self.engine);
            let shutdown = Arc::clone(&self.shutdown);
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let peer = conn.peer_addr();
                if let Err(e) = serve_connection(&engine, &shutdown, &addr, conn, PIPELINE_WINDOW) {
                    if !is_disconnect(&e) {
                        eprintln!("cqfit-serve: connection {peer}: {e}");
                    }
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        self.finish()
    }

    /// Serves connections strictly one at a time on the calling thread —
    /// no spawned threads, so a deterministic scheduler controls every
    /// interleaving.  The simulation harness runs the server this way;
    /// semantics otherwise match [`Server::run`].
    ///
    /// # Errors
    /// Propagates accept-loop I/O failures (per-connection I/O errors only
    /// end that connection).
    pub fn run_sequential(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let conn = match self.accept_transient() {
                Ok(Some(c)) => c,
                Ok(None) => continue,
                Err(e) => return Err(e),
            };
            let peer = conn.peer_addr();
            // Window of 1: every request is decoded, handled, and answered
            // before the next is looked at, so the deterministic scheduler
            // sees the same single-step interleaving as before pipelining.
            if let Err(e) = serve_connection(&self.engine, &self.shutdown, &addr, conn, 1) {
                if !is_disconnect(&e) {
                    eprintln!("cqfit-serve: connection {peer}: {e}");
                }
            }
        }
        self.finish()
    }

    /// One accept, with transient per-connection failures (a queued
    /// client reset before accept, fd pressure) skipped rather than
    /// taking down the service and orphaning every live connection.
    fn accept_transient(&self) -> io::Result<Option<Box<dyn NetConn>>> {
        match self.listener.accept() {
            Ok(c) => Ok(Some(c)),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionAborted
                        | ErrorKind::ConnectionReset
                        | ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Clean drain is complete: every in-flight request has been
    /// answered; make the write-ahead logs durable before returning.
    fn finish(&self) -> io::Result<()> {
        if let Err(e) = self.engine.sync_store() {
            eprintln!("cqfit-serve: store sync on shutdown failed: {e}");
        }
        Ok(())
    }
}

/// How long a connection keeps draining pending input after the shutdown
/// flag is raised.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// The drain-grace deadline of one connection, measured against the
/// injected [`Clock`] rather than `Instant::now()` — which is what makes
/// the shutdown-timeout path unit-testable without real sleeps (see the
/// `ManualClock` tests below).
///
/// The deadline is anchored lazily at the first [`DrainGrace::expired`]
/// call after shutdown is observed: the grace window counts from when
/// *this connection* noticed the shutdown, not from the shutdown itself.
#[derive(Debug)]
struct DrainGrace {
    grace: Duration,
    deadline: Option<Duration>,
}

impl DrainGrace {
    fn new(grace: Duration) -> DrainGrace {
        DrainGrace {
            grace,
            deadline: None,
        }
    }

    /// Whether this connection has observed shutdown before (the deadline
    /// is anchored).
    fn draining(&self) -> bool {
        self.deadline.is_some()
    }

    /// Anchors the deadline on first call, then reports whether the grace
    /// window has passed.
    fn expired(&mut self, clock: &dyn Clock) -> bool {
        let now = clock.monotonic();
        let deadline = *self.deadline.get_or_insert(now + self.grace);
        now >= deadline
    }
}

/// Wakes the accept loop parked in [`NetListener::accept`] after the
/// shutdown flag is raised, by making a no-op connection to our own
/// address.  Bounded retries: a single failed connect (backlog full, fd
/// pressure) must not leave `run` parked forever, and a total failure is
/// surfaced as a warning rather than a silent hang.
fn wake_accept_loop(env: &dyn Env, addr: &str) {
    let mut last = None;
    for attempt in 0..WAKE_ATTEMPTS {
        match env.net().connect(addr) {
            Ok(mut conn) => {
                let _ = conn.shutdown();
                return;
            }
            Err(e) => {
                last = Some(e);
                if attempt + 1 < WAKE_ATTEMPTS {
                    env.clock().sleep(Duration::from_millis(10));
                }
            }
        }
    }
    let e = last.expect("at least one attempt");
    eprintln!(
        "cqfit-serve: shutdown wake-up connect to {addr} failed after \
         {WAKE_ATTEMPTS} attempts ({e}); the accept loop drains on its \
         next connection"
    );
}

/// Drop guard keeping the live-connection gauge honest on every exit
/// path of [`serve_connection`] — EOF, I/O error, or shutdown drain.
struct ConnectionGauge<'a>(&'a cqfit_obs::Gauge);

impl<'a> ConnectionGauge<'a> {
    fn enter(gauge: &'a cqfit_obs::Gauge) -> Self {
        gauge.inc();
        ConnectionGauge(gauge)
    }
}

impl Drop for ConnectionGauge<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Whether a per-connection error is a routine peer-initiated disconnect
/// (the client vanished mid-request) rather than a server fault worth
/// logging.
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof
    )
}

/// Handles one connection; returns on EOF, I/O error, or shutdown.
///
/// `window` bounds how many already-buffered request lines are taken at
/// once (see [`PIPELINE_WINDOW`]).  Dispatch never waits for the window
/// to fill: whatever complete lines the read buffer holds — up to the
/// window — are handled in order, and their responses are written in
/// request order as one frame.
fn serve_connection(
    engine: &Engine,
    shutdown: &AtomicBool,
    server_addr: &str,
    mut conn: Box<dyn NetConn>,
    window: usize,
) -> io::Result<()> {
    let window = window.max(1);
    // Accumulated raw bytes not yet consumed as request lines.  Reads are
    // capped per iteration so a client streaming a newline-less request
    // cannot grow the buffer beyond `MAX_LINE_BYTES` + one chunk.
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut eof = false;
    // Anchored once the shutdown flag is observed: the connection drains
    // already-received input (replying to it) until the socket goes quiet
    // or the grace deadline passes, instead of dropping mid-request.
    let mut drain = DrainGrace::new(DRAIN_GRACE);
    let clock = engine.env().clock();
    let registry = engine.registry();
    let tracer = engine.tracer();
    let _live = ConnectionGauge::enter(&registry.server_connections);
    loop {
        if shutdown.load(Ordering::SeqCst) && drain.expired(clock) {
            return Ok(());
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        if newline.is_none() && !eof && buf.len() <= MAX_LINE_BYTES {
            // No complete line buffered: read more, with the poll timeout
            // turning the blocking read into a periodic check of the
            // shutdown flag (without it, connections parked in a read
            // would outlive a shutdown request on another connection).
            let cap = (MAX_LINE_BYTES + 1 - buf.len()).min(READ_CHUNK);
            match conn.read(&mut chunk[..cap], Some(POLL)) {
                Ok(0) => {
                    if buf.is_empty() {
                        return Ok(()); // EOF, fully consumed
                    }
                    // EOF mid-line: flush the partial line as a request.
                    eof = true;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                // Timeout: partial bytes stay in `buf`; poll the flag
                // again.  When shutting down with no partial request
                // pending, the connection is fully drained — close it.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if drain.draining() && buf.is_empty() {
                        return Ok(());
                    }
                }
                Err(e) => return Err(e),
            }
            continue;
        }
        if newline.is_none() && eof && buf.is_empty() {
            return Ok(());
        }
        // At least one framed request is available: a terminated line,
        // the final pre-EOF bytes, or an over-long unterminated stream.
        // Take up to `window` of them for one pipelined dispatch.  Each
        // entry is (payload without the `\n` terminator, terminated?);
        // an unterminated tail is only consumed when no more bytes can
        // arrive for it (EOF) or it already exceeds the line cap.
        let mut lines: Vec<(Vec<u8>, bool)> = Vec::new();
        while lines.len() < window {
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let mut line: Vec<u8> = buf.drain(..=pos).collect();
                    line.pop();
                    lines.push((line, true));
                }
                None if !buf.is_empty() && (eof || buf.len() > MAX_LINE_BYTES) => {
                    lines.push((std::mem::take(&mut buf), false));
                    break;
                }
                None => break,
            }
        }
        // Span anchor: one clock read per taken frame (`lines` is never
        // empty here), marking when the raw bytes left the read buffer.
        // Drawn from the injected clock, so tracing stays deterministic
        // under the simulator's manual clock.
        let trace_begun_ns = clock.monotonic().as_nanos() as u64;
        // Decode every taken line in order.  Lines with framing or parse
        // problems get their error response pre-computed; well-formed
        // requests join the dispatch batch.  `slots` remembers the
        // request order so responses are written exactly in it.
        enum Slot {
            Done(Response),
            Pending(usize),
        }
        let mut slots: Vec<Slot> = Vec::new();
        let mut batch: Vec<(Request, Option<u64>, TraceContext)> = Vec::new();
        let mut shutdown_req: Option<(Request, Option<u64>)> = None;
        let mut framing_lost = false;
        for (payload, terminated) in &lines {
            // Size checks count the payload, not the `\n` terminator.
            if payload.len() > MAX_LINE_BYTES {
                slots.push(Slot::Done(Response::error(format!(
                    "request line exceeds {MAX_LINE_BYTES} bytes"
                ))));
                if !*terminated {
                    // Unterminated: framing is lost — answer everything
                    // decoded so far, then drop the connection.  (An
                    // unterminated tail is always the last line taken.)
                    framing_lost = true;
                }
                // Terminated: skip this line, keep the connection.
                continue;
            }
            let Ok(line) = std::str::from_utf8(payload) else {
                slots.push(Slot::Done(Response::error(
                    "request line is not valid UTF-8",
                )));
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            match serde::json::decode::<Envelope>(line) {
                Err(e) => slots.push(Slot::Done(Response::from_json_error(&e))),
                Ok(Envelope {
                    request,
                    request_id,
                    trace,
                }) => {
                    if matches!(request, Request::Shutdown) {
                        // Shutdown ends the connection once answered;
                        // anything pipelined behind it is discarded,
                        // exactly as it was before batching (the
                        // connection closed before reading it).
                        shutdown_req = Some((request, request_id));
                        break;
                    }
                    // A request carrying a trace context joins the
                    // client's trace; one without roots a fresh trace
                    // here, so server-side spans exist either way.
                    let ctx = match trace {
                        Some(parent) => tracer.child_context(&parent),
                        None => tracer.root_context(),
                    };
                    slots.push(Slot::Pending(batch.len()));
                    batch.push((request, request_id, ctx));
                }
            }
        }
        // Dispatch: every request of the window runs in order on this
        // connection's thread, so a window is answered exactly as the
        // same requests sent one by one.  One causal "server.request" span
        // per dispatched request, opened at the frame-read anchor and
        // parented on the wire context (or rooted here).  The engine
        // receives the span's own context, so its handle/append/fsync
        // spans hang off this one.
        let mut request_spans = Vec::with_capacity(batch.len());
        if !batch.is_empty() {
            registry.server_batch_depth.record(batch.len() as u64);
            registry.server_pipeline_depth.set(batch.len() as i64);
            for (request, request_id, ctx) in &batch {
                let mut span = tracer.start_at(*ctx, "server.request", trace_begun_ns);
                span.annotate("op", request.op());
                if let Some(ws) = request.workspace() {
                    span.annotate("workspace", ws);
                }
                if let Some(id) = request_id {
                    span.annotate("request_id", id.to_string());
                }
                span.annotate("batch_depth", batch.len().to_string());
                request_spans.push(span);
            }
        }
        let responses: Vec<Response> = batch
            .iter()
            .map(|(request, request_id, ctx)| engine.handle_traced(request, *request_id, Some(ctx)))
            .collect();
        if !batch.is_empty() {
            registry.server_pipeline_depth.set(0);
        }
        // Every response of the batch goes out in one buffered write: a
        // single frame in request order.  One write per batch matters on
        // real TCP — a train of tiny per-response writes provokes the
        // Nagle + delayed-ACK stall (~40ms per pipelined burst).
        let mut reply_frame = String::new();
        for slot in &slots {
            let response = match slot {
                Slot::Done(response) => response,
                Slot::Pending(i) => &responses[*i],
            };
            response.serialize(&mut reply_frame);
            reply_frame.push('\n');
        }
        // The reply time is read before the reply is written: once the
        // bytes are out, the client may run (and read its own clock)
        // before this thread reads the clock again, and the request
        // spans would then end after the client saw the reply.
        let replied_ns = (!request_spans.is_empty()).then(|| clock.monotonic().as_nanos() as u64);
        let write_result = if reply_frame.is_empty() {
            Ok(())
        } else {
            conn.write_all(reply_frame.as_bytes())
        };
        // Close out the batch's spans: one span per dispatched request,
        // plus the end-to-end latency sample each contributes to the
        // histogram.  Each span's `engine.handle` child marks where its
        // dispatch started and ended.  This runs even when the reply
        // write failed: the requests WERE dispatched (their engine/store
        // child spans committed), so dropping the parent spans would
        // orphan them in the trace.
        if let Some(replied_ns) = replied_ns {
            for span in request_spans {
                registry
                    .server_request_ns
                    .record(replied_ns.saturating_sub(trace_begun_ns));
                // Closing the causal span also journals it (flight
                // recorder, if attached) and offers it to the slow table.
                let finished = span.finish_at(tracer, replied_ns);
                registry.slow.record(&finished);
            }
        }
        write_result?;
        if let Some((request, request_id)) = shutdown_req {
            let response = engine.handle_with_id(&request, request_id);
            write_response(conn.as_mut(), &response)?;
            shutdown.store(true, Ordering::SeqCst);
            wake_accept_loop(engine.env().as_ref(), server_addr);
            return Ok(());
        }
        if framing_lost {
            return Ok(());
        }
    }
}

fn write_response(conn: &mut dyn NetConn, response: &Response) -> io::Result<()> {
    let mut text = serde::to_string(response);
    text.push('\n');
    conn.write_all(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::engine::EngineConfig;
    use crate::protocol::{ExamplePayload, FitMode, Polarity, QueryClass};
    use cqfit_data::Schema;

    /// End-to-end: server on an ephemeral port, scripted client session,
    /// shutdown, join.
    #[test]
    fn tcp_round_trip_session() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let server = Server::bind("127.0.0.1:0", engine).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut client = Client::connect(&addr).unwrap();
        assert!(matches!(
            client.call(&Request::Ping).unwrap(),
            Response::Pong
        ));
        client
            .call(&Request::CreateWorkspace {
                workspace: "w".into(),
                schema: Schema::new([("R", 2)]).unwrap(),
                arity: 0,
            })
            .unwrap();
        client
            .call(&Request::AddExample {
                workspace: "w".into(),
                polarity: Polarity::Positive,
                example: ExamplePayload::Text("R(a,b)\nR(b,c)\nR(c,a)".into()),
            })
            .unwrap();
        client
            .call(&Request::AddExample {
                workspace: "w".into(),
                polarity: Polarity::Negative,
                example: ExamplePayload::Text("R(a,b)\nR(b,a)".into()),
            })
            .unwrap();
        match client
            .call(&Request::Fit {
                workspace: "w".into(),
                class: QueryClass::Cq,
                mode: FitMode::Minimized,
            })
            .unwrap()
        {
            Response::Fitting { query: Some(q), .. } => assert_eq!(q.size(), 6),
            other => panic!("unexpected {other:?}"),
        }
        // Malformed JSON gets an error with a column, connection survives.
        let resp = client.call_raw("{\"op\": \"fit\",, }").unwrap();
        match serde::from_str::<Response>(&resp).unwrap() {
            Response::Error { line, .. } => assert_eq!(line, Some(1)),
            other => panic!("unexpected {other:?}"),
        }
        // Textual parse errors relay the offending line.
        match client
            .call(&Request::AddExample {
                workspace: "w".into(),
                polarity: Polarity::Positive,
                example: ExamplePayload::Text("R(a,b)\nBAD".into()),
            })
            .unwrap()
        {
            Response::Error { line, .. } => assert_eq!(line, Some(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        handle.join().unwrap();
    }

    /// A pipelined burst on one connection: the client writes the whole
    /// batch before reading, the server handles a bounded window of it in
    /// order, and the responses come back in request order — byte for
    /// byte what the same requests sent one at a time get, workspace-less
    /// requests included.
    #[test]
    fn pipelined_burst_answers_in_request_order() {
        let serve = || {
            let engine = Arc::new(Engine::new(EngineConfig::default()));
            let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
            let addr = server.local_addr().unwrap();
            let handle = std::thread::spawn(move || server.run().unwrap());
            (engine, Client::connect(&addr).unwrap(), handle)
        };
        let (engine, mut client, handle) = serve();

        let create = |name: &str| Request::CreateWorkspace {
            workspace: name.into(),
            schema: Schema::new([("R", 2)]).unwrap(),
            arity: 0,
        };
        let mixed = [
            create("a"),
            Request::ListWorkspaces,
            create("b"),
            Request::ListWorkspaces,
        ];
        let render = |responses: Vec<Response>| -> Vec<String> {
            responses.iter().map(serde::to_string).collect()
        };
        let pipelined = render(client.call_pipelined(&mixed).unwrap());
        let (_, mut one_by_one_client, one_by_one_handle) = serve();
        let one_by_one = render(
            mixed
                .iter()
                .map(|r| one_by_one_client.call(r).unwrap())
                .collect(),
        );
        assert_eq!(pipelined, one_by_one);
        assert!(pipelined[1].contains("[\"a\"]"), "{pipelined:?}");
        one_by_one_client.call(&Request::Shutdown).unwrap();
        one_by_one_handle.join().unwrap();

        let mut requests = vec![Request::CreateWorkspace {
            workspace: "p".into(),
            schema: Schema::new([("R", 2)]).unwrap(),
            arity: 0,
        }];
        for i in 0..16 {
            requests.push(Request::AddExample {
                workspace: "p".into(),
                polarity: Polarity::Positive,
                example: ExamplePayload::Text(format!("R(a{i},b{i})")),
            });
        }
        requests.push(Request::WorkspaceInfo {
            workspace: "p".into(),
        });
        let responses = client.call_pipelined(&requests).unwrap();
        assert_eq!(responses.len(), requests.len());
        assert!(matches!(responses[0], Response::WorkspaceCreated { .. }));
        for (i, response) in responses[1..17].iter().enumerate() {
            // Ids are assigned in insertion order, so in-order responses
            // carry in-order ids — the pipelined window must not reorder
            // same-workspace mutations.
            match response {
                Response::ExampleAdded { id, .. } => assert_eq!(*id, i as u64),
                other => panic!("unexpected {other:?}"),
            }
        }
        match responses.last().unwrap() {
            Response::Info { positives: 16, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        handle.join().unwrap();
        // The batch left its marks on the registry: latency samples and
        // spans for every dispatched request, depth samples per batch,
        // and a live-connection gauge back at zero after the drain.
        let snap = engine.registry().snapshot();
        assert_eq!(snap.gauge("server_connections"), 0, "connections drained");
        assert_eq!(snap.gauge("server_pipeline_depth"), 0);
        let depth = snap.histogram("server_batch_depth").unwrap();
        assert!(depth.count >= 1 && depth.max >= 1, "{depth:?}");
        assert_eq!(
            snap.histogram("server_request_ns").unwrap().count,
            (mixed.len() + requests.len()) as u64,
            "one latency sample per dispatched request"
        );
        let traces = engine.registry().traces();
        let server_spans: Vec<_> = traces
            .iter()
            .filter(|s| s.name == "server.request")
            .collect();
        assert_eq!(
            server_spans.len(),
            mixed.len() + requests.len(),
            "one span per dispatched request"
        );
        assert!(
            server_spans
                .iter()
                .any(|s| s.annotation("op") == Some("add_example")
                    && s.annotation("workspace") == Some("p")),
            "spans carry op and workspace"
        );
        for span in &traces {
            assert!(span.start_ns <= span.end_ns, "{span:?}");
        }
    }

    /// A durable server: a TCP session's mutations survive a server
    /// restart over the same data directory, and shutdown syncs the logs.
    #[test]
    fn durable_server_recovers_after_restart() {
        let dir = std::env::temp_dir().join(format!("cqfit_server_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            cqfit_store::Store::open(cqfit_store::StoreConfig {
                dir: dir.clone(),
                compact_after: 1024,
                fsync: false,
            })
            .unwrap()
        };
        let (engine, _) = Engine::with_store(EngineConfig::default(), open()).unwrap();
        let server = Server::bind("127.0.0.1:0", Arc::new(engine)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::connect(&addr).unwrap();
        client
            .call(&Request::CreateWorkspace {
                workspace: "w".into(),
                schema: Schema::new([("R", 2)]).unwrap(),
                arity: 0,
            })
            .unwrap();
        client
            .call(&Request::AddExample {
                workspace: "w".into(),
                polarity: Polarity::Positive,
                example: ExamplePayload::Text("R(a,b)\nR(b,c)\nR(c,a)".into()),
            })
            .unwrap();
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        handle.join().unwrap();

        // Restart over the same directory: the workspace survives.
        let (engine, report) = Engine::with_store(EngineConfig::default(), open()).unwrap();
        assert_eq!(report.workspaces, 1);
        let server = Server::bind("127.0.0.1:0", Arc::new(engine)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::connect(&addr).unwrap();
        match client
            .call(&Request::WorkspaceInfo {
                workspace: "w".into(),
            })
            .unwrap()
        {
            Response::Info { positives: 1, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A connection that hands out scripted request bytes, then EOF, and
    /// stamps every reply write with the engine's clock.
    #[derive(Debug)]
    struct StampedConn {
        input: Vec<u8>,
        clock: Arc<cqfit_env::ManualClock>,
        writes: Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl NetConn for StampedConn {
        fn read(&mut self, buf: &mut [u8], _: Option<Duration>) -> io::Result<usize> {
            let n = self.input.len().min(buf.len());
            buf[..n].copy_from_slice(&self.input[..n]);
            self.input.drain(..n);
            Ok(n)
        }
        fn write_all(&mut self, _: &[u8]) -> io::Result<()> {
            let now = self.clock.monotonic().as_nanos() as u64;
            self.writes.lock().unwrap().push(now);
            Ok(())
        }
        fn shutdown(&mut self) -> io::Result<()> {
            Ok(())
        }
        fn peer_addr(&self) -> String {
            "scripted".into()
        }
    }

    /// Every `server.request` span ends before its reply is written, so
    /// a client never sees a reply before the server's span of it ends.
    /// The clock ticks on every reading, so a reading taken after the
    /// write would end the spans after the write's stamp.
    #[test]
    fn request_spans_end_before_the_reply_is_written() {
        use cqfit_env::{ManualClock, PartsEnv, RealEnv};

        let clock = Arc::new(ManualClock::with_auto_tick(Duration::from_micros(1)));
        let env: Arc<dyn cqfit_env::Env> =
            Arc::new(PartsEnv::new(Arc::new(RealEnv::new()), clock.clone(), 7));
        let engine = Engine::with_env(EngineConfig::default(), env);
        let writes = Arc::new(std::sync::Mutex::new(Vec::new()));
        let conn = StampedConn {
            input: b"{\"op\":\"ping\"}\n{\"op\":\"list_workspaces\"}\n".to_vec(),
            clock,
            writes: writes.clone(),
        };
        serve_connection(
            &engine,
            &AtomicBool::new(false),
            "scripted",
            Box::new(conn),
            PIPELINE_WINDOW,
        )
        .unwrap();
        let writes = writes.lock().unwrap();
        assert_eq!(writes.len(), 1, "one reply frame for the pipelined pair");
        let spans: Vec<_> = engine
            .registry()
            .traces()
            .into_iter()
            .filter(|s| s.name == "server.request")
            .collect();
        assert_eq!(spans.len(), 2);
        for span in &spans {
            assert!(
                span.end_ns < writes[0],
                "span ends at {} but the reply was written at {}",
                span.end_ns,
                writes[0]
            );
        }
    }

    /// The drain-grace window, exercised entirely on a manual clock — no
    /// real sleeps: the deadline anchors on the first expiry check after
    /// shutdown is observed and trips exactly when the grace elapses.
    #[test]
    fn drain_grace_expires_on_the_clock_not_on_wall_time() {
        use cqfit_env::ManualClock;

        let clock = ManualClock::new();
        let mut drain = DrainGrace::new(Duration::from_millis(500));
        assert!(!drain.draining(), "no shutdown observed yet");
        // First observation anchors the deadline; the window is open.
        assert!(!drain.expired(&clock));
        assert!(drain.draining());
        // Just before the deadline: still draining.
        clock.advance(Duration::from_millis(499));
        assert!(!drain.expired(&clock));
        // At the deadline: expired.
        clock.advance(Duration::from_millis(1));
        assert!(drain.expired(&clock));
        // Expiry is terminal — later checks stay expired.
        clock.advance(Duration::from_secs(100));
        assert!(drain.expired(&clock));
    }

    /// The anchor counts from the first check, not from clock zero: a
    /// connection that observes shutdown late still gets the full grace.
    #[test]
    fn drain_grace_anchors_at_first_observation() {
        use cqfit_env::ManualClock;

        let clock = ManualClock::new();
        clock.advance(Duration::from_secs(30)); // connection idles first
        let mut drain = DrainGrace::new(Duration::from_millis(500));
        assert!(!drain.expired(&clock), "full grace from late observation");
        clock.advance(Duration::from_millis(250));
        assert!(!drain.expired(&clock));
        clock.advance(Duration::from_millis(250));
        assert!(drain.expired(&clock));
    }

    /// A zero grace expires immediately — the configuration a simulated
    /// environment can use to make shutdown instantaneous.
    #[test]
    fn zero_drain_grace_expires_immediately() {
        use cqfit_env::ManualClock;
        let clock = ManualClock::new();
        let mut drain = DrainGrace::new(Duration::ZERO);
        assert!(drain.expired(&clock));
    }

    /// A shutdown on one connection must terminate `run` even while other
    /// connections sit idle in a blocking read.
    #[test]
    fn shutdown_drains_idle_connections() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let server = Server::bind("127.0.0.1:0", engine).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        // An idle connection that never sends anything.
        let _idle = Client::connect(&addr).unwrap();
        let mut active = Client::connect(&addr).unwrap();
        assert!(matches!(
            active.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        // run() must return promptly despite the idle connection (the
        // 200 ms read timeout polls the flag); joining would hang forever
        // without the timeout, so the join itself is the assertion.
        handle.join().unwrap();
    }
}
