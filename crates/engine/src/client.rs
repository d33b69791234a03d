//! A small blocking JSONL client for the engine server, running entirely
//! through the [`cqfit_env::Net`] seam.
//!
//! The client is *resilient*: every [`Client::call`] carries a
//! per-request deadline (default [`DEFAULT_CALL_TIMEOUT`], overridable,
//! `None` for long fits), and transport failures — refused or reset
//! connections, broken pipes, timeouts, a server that closed mid-reply —
//! trigger reconnect-and-retry under capped exponential backoff with
//! jitter drawn from [`cqfit_env::Env::rng_u64`].  Retrying a *mutation*
//! after an ambiguous drop (request possibly applied, ack lost) is safe
//! because each call attaches a protocol-level idempotency key: the same
//! `request_id` is resent on every retry of one logical request, and the
//! engine answers an already-applied id from its memo instead of
//! applying the mutation twice.
//!
//! All sleeps go through the injected [`Clock`](cqfit_env::Clock) and all
//! sockets through the injected [`Net`](cqfit_env::Net), so the
//! deterministic simulator can drive every retry path without real time
//! or real sockets.

use crate::protocol::{Request, Response};
use cqfit_env::{Env, NetConn, RealEnv};
use cqfit_obs::{OpenSpan, Registry, TraceContext, Tracer};
use serde::Deserialize;
use std::io::{self, ErrorKind};
use std::sync::Arc;
use std::time::Duration;

/// Default per-request deadline of [`Client::call`].  Generous enough
/// for every non-fit request; scripted sessions running long fits
/// override it with [`Client::set_call_timeout`]`(None)`.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Retry schedule shared by [`Client::call`] and the connecting
/// constructors: up to `attempts` tries, sleeping between consecutive
/// tries (never after the last) for a jittered, capped exponential
/// backoff — attempt `k` waits uniformly in `[d/2, d]` where
/// `d = min(cap, base * 2^k)`.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries (min 1).
    pub attempts: u32,
    /// First backoff ceiling.
    pub base: Duration,
    /// Upper bound every later backoff is clamped to.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(400),
        }
    }
}

/// A blocking client: one request line out, one response line in.
pub struct Client {
    env: Arc<dyn Env>,
    addr: String,
    conn: Option<Box<dyn NetConn>>,
    /// Bytes read past the last consumed newline on the *current*
    /// connection.  Cleared on every (re)connect so a stale partial
    /// reply can never be parsed as the answer to a newer request.
    pending: Vec<u8>,
    timeout: Option<Duration>,
    retry: RetryPolicy,
    /// The client-side metrics registry: retry/reconnect/backoff
    /// counters, plus the trace-span ring the tracer feeds.
    registry: Arc<Registry>,
    /// Client-side causal tracer (PR 10): every logical call roots a
    /// trace, every attempt is a sibling span under it, and the attempt's
    /// context rides the wire so the server's spans join the same tree.
    tracer: Tracer,
    /// Whether a connection was ever established — distinguishes the
    /// initial connect from the *re*connects the registry counts.
    was_connected: bool,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .field("timeout", &self.timeout)
            .field("retry", &self.retry)
            .finish()
    }
}

impl Client {
    fn new(addr: &str, env: Arc<dyn Env>) -> Client {
        let registry = Arc::new(Registry::new());
        let tracer = Tracer::new(Arc::clone(&env), Arc::clone(&registry));
        Client {
            env,
            addr: addr.to_string(),
            conn: None,
            pending: Vec::new(),
            timeout: Some(DEFAULT_CALL_TIMEOUT),
            retry: RetryPolicy::default(),
            registry,
            tracer,
            was_connected: false,
        }
    }

    /// The client-side tracer — its span ring (via [`Client::registry`])
    /// holds the `client.request` / `client.attempt` spans of recent
    /// calls.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The client's metrics registry ([`Registry::client_retries`],
    /// `client_reconnects`, `client_backoff_sleeps`) — the sim's
    /// metric-invariant phase cross-checks these against the injected
    /// fault schedule.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Connects to `addr` (e.g. `127.0.0.1:7878`) over the real network.
    ///
    /// # Errors
    /// Propagates the connection failure.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_with(addr, RealEnv::arc())
    }

    /// Connects through an explicit environment (the simulator passes a
    /// [`SimEnv`](../../cqfit_sim/struct.SimEnv.html) whose `net()` is a
    /// `SimNet`), single attempt.
    ///
    /// # Errors
    /// Propagates the connection failure.
    pub fn connect_with(addr: &str, env: Arc<dyn Env>) -> io::Result<Client> {
        let mut client = Client::new(addr, env);
        client.ensure_connected()?;
        Ok(client)
    }

    /// Connects with retries (the server may still be binding), backing
    /// off exponentially with jitter between attempts — and, unlike the
    /// pre-PR 7 version, never sleeping *after* the final failure.
    ///
    /// # Errors
    /// Returns the last connection failure after `attempts` tries.
    pub fn connect_with_retry(addr: &str, attempts: u32) -> io::Result<Client> {
        Client::connect_retrying(addr, RealEnv::arc(), attempts)
    }

    /// [`Client::connect_with_retry`] through an explicit environment:
    /// backoff sleeps run on the injected clock, so simulated retries
    /// cost no real time.
    ///
    /// # Errors
    /// Returns the last connection failure after `attempts` tries.
    pub fn connect_retrying(addr: &str, env: Arc<dyn Env>, attempts: u32) -> io::Result<Client> {
        let mut client = Client::new(addr, env);
        let attempts = attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let delay = client.backoff_delay(attempt - 1);
                client.registry.client_backoff_sleeps.inc();
                client.env.clock().sleep(delay);
            }
            match client.ensure_connected() {
                Ok(()) => return Ok(client),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Sets the per-request deadline of [`Client::call`] /
    /// [`Client::call_raw`].  `None` disables it — the scripted
    /// session's long fits legitimately exceed any fixed bound.
    pub fn set_call_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Replaces the retry schedule (attempt count, backoff base/cap).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The jittered, capped exponential delay before retry `attempt`
    /// (0-based): uniform in `[d/2, d]`, `d = min(cap, base * 2^attempt)`.
    fn backoff_delay(&self, attempt: u32) -> Duration {
        let exp = self
            .retry
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX));
        let capped = exp.min(self.retry.cap).max(Duration::from_nanos(1));
        let half = capped / 2;
        let span = (capped - half).as_nanos() as u64;
        half + Duration::from_nanos(self.env.rng_u64() % (span + 1))
    }

    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            self.pending.clear();
            self.conn = Some(self.env.net().connect(&self.addr)?);
            if self.was_connected {
                self.registry.client_reconnects.inc();
            }
            self.was_connected = true;
        }
        Ok(())
    }

    /// Drops the current connection (best-effort shutdown) and discards
    /// buffered bytes; the next call reconnects.
    fn disconnect(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            let _ = conn.shutdown();
        }
        self.pending.clear();
    }

    /// Reads one `\n`-terminated line, honoring an absolute deadline on
    /// the injected clock.  Bytes past the newline stay in `pending`.
    fn read_line(&mut self, deadline: Option<Duration>) -> io::Result<String> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = self.pending.drain(..=pos).collect();
                let line = String::from_utf8(raw).map_err(|e| {
                    io::Error::new(ErrorKind::InvalidData, format!("non-UTF-8 response: {e}"))
                })?;
                return Ok(line.trim_end().to_string());
            }
            let remaining = match deadline {
                Some(d) => {
                    let now = self.env.clock().monotonic();
                    if now >= d {
                        return Err(io::Error::new(
                            ErrorKind::TimedOut,
                            "request deadline exceeded",
                        ));
                    }
                    Some(d - now)
                }
                None => None,
            };
            let conn = self
                .conn
                .as_mut()
                .ok_or_else(|| io::Error::new(ErrorKind::NotConnected, "not connected"))?;
            let mut buf = [0u8; 64 * 1024];
            let n = conn.read(&mut buf, remaining)?;
            if n == 0 {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.pending.extend_from_slice(&buf[..n]);
        }
    }

    /// One write-then-read exchange on the current connection, under the
    /// per-request deadline.  No retries.
    fn exchange(&mut self, line: &str) -> io::Result<String> {
        let deadline = self.timeout.map(|t| self.env.clock().monotonic() + t);
        self.ensure_connected()?;
        let conn = self.conn.as_mut().expect("just connected");
        // One buffered write per request: a single syscall on the real
        // path, and a single frame (one write mark) under the simulator.
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        conn.write_all(&frame)?;
        self.read_line(deadline)
    }

    /// Whether a failed exchange is worth a reconnect-and-retry: the
    /// transport broke or stalled.  `InvalidData` (a reply that arrived
    /// but does not parse) is *not* — retrying cannot fix it.
    fn retryable(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            ErrorKind::ConnectionRefused
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
                | ErrorKind::UnexpectedEof
                | ErrorKind::TimedOut
                | ErrorKind::WouldBlock
                | ErrorKind::NotConnected
        )
    }

    /// Sends a raw line and returns the raw response line (used to test
    /// server-side error reporting on malformed input).  Single-shot: no
    /// retries, but the per-request deadline applies.
    ///
    /// # Errors
    /// Propagates I/O failures; EOF is `UnexpectedEof`.
    pub fn call_raw(&mut self, line: &str) -> io::Result<String> {
        let result = self.exchange(line);
        if result.is_err() {
            self.disconnect();
        }
        result
    }

    /// Sends a request and reads the response, retrying over fresh
    /// connections on transport failure per the [`RetryPolicy`].  Every
    /// attempt of one call resends the same `request_id`, so a mutation
    /// whose first ack was lost is answered from the engine's
    /// idempotency memo rather than applied twice.
    ///
    /// # Errors
    /// The last transport failure once retries are exhausted; an
    /// unparsable response line becomes `InvalidData` immediately.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        // The wire integer type is i64: keep ids in 63 bits.
        let id = self.env.rng_u64() >> 1;
        let mut root = self
            .tracer
            .start(self.tracer.root_context(), "client.request");
        root.annotate("op", request.op());
        if let Some(ws) = request.workspace() {
            root.annotate("workspace", ws);
        }
        root.annotate("request_id", id.to_string());
        let root_ctx = root.context();
        let attempts = self.retry.attempts.max(1);
        let mut last = None;
        let mut prev_attempt: Option<TraceContext> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.registry.client_retries.inc();
                let delay = self.backoff_delay(attempt - 1);
                self.registry.client_backoff_sleeps.inc();
                self.env.clock().sleep(delay);
            }
            // Each attempt is a sibling span under the logical request,
            // and a retry names its predecessor — a wire-cut retry is a
            // visible sibling in the same trace, not a fresh anonymous
            // one.  The attempt's context rides the wire (the line is
            // re-serialized per attempt with the *same* request id).
            let mut span = self
                .tracer
                .start(self.tracer.child_context(&root_ctx), "client.attempt");
            span.annotate("retry", attempt.to_string());
            if let Some(prev) = prev_attempt {
                span.annotate("retry_of", prev.span_id_hex());
            }
            let attempt_ctx = span.context();
            prev_attempt = Some(attempt_ctx);
            let line = request
                .to_json_with_meta(id, Some(&attempt_ctx))
                .to_string();
            match self.exchange(&line) {
                Ok(reply) => {
                    span.finish(&self.tracer);
                    root.finish(&self.tracer);
                    return Client::parse_response(&reply);
                }
                Err(e) => {
                    span.annotate("error", e.kind().to_string());
                    span.finish(&self.tracer);
                    self.disconnect();
                    if !Client::retryable(&e) {
                        root.finish(&self.tracer);
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        root.finish(&self.tracer);
        Err(last.expect("at least one attempt"))
    }

    /// Sends a batch of requests as one pipelined burst — every frame
    /// written back-to-back in a single buffered write — then reads the
    /// responses back in request order.  The server handles each window
    /// of the burst in order, exactly as the same requests sent one by
    /// one, so a burst saves round trips without changing any answer.
    ///
    /// Each request gets its own `request_id`, fixed up front; a
    /// transport failure retries the in-flight chunk over a fresh
    /// connection with the same ids, so mutations that applied before
    /// the failure are answered from the engine's idempotency memo
    /// rather than re-applied.  Bursts larger than the server's
    /// pipeline window are split into window-sized chunks (each fully
    /// acknowledged before the next goes out) — the memo remembers one
    /// window's worth of ids per workspace, so a replayed chunk is
    /// always answerable, while an unbounded burst would not be.  The
    /// per-request deadline (when set) covers one chunk's exchange.
    ///
    /// # Errors
    /// The last transport failure once retries are exhausted; an
    /// unparsable response line becomes `InvalidData` immediately.
    pub fn call_pipelined(&mut self, requests: &[Request]) -> io::Result<Vec<Response>> {
        let mut out = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(crate::server::PIPELINE_WINDOW) {
            out.extend(self.call_pipelined_chunk(chunk)?);
        }
        Ok(out)
    }

    /// One window-sized pipelined burst, retried whole on transport
    /// failure with stable request ids.
    fn call_pipelined_chunk(&mut self, requests: &[Request]) -> io::Result<Vec<Response>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // The wire integer type is i64: keep ids in 63 bits.
        let ids: Vec<u64> = requests.iter().map(|_| self.env.rng_u64() >> 1).collect();
        // One "client.pipeline" root per chunk, one "client.request"
        // child per member.  Their contexts are fixed up front, like the
        // ids: the frame is built once and resent verbatim on retry, so a
        // replayed chunk keeps the same wire contexts and the server's
        // spans land in the same trace either way.  Retries themselves
        // are captured as "client.attempt" spans under the chunk root.
        let mut root = self
            .tracer
            .start(self.tracer.root_context(), "client.pipeline");
        root.annotate("requests", requests.len().to_string());
        let root_ctx = root.context();
        let mut request_spans: Vec<OpenSpan> = Vec::with_capacity(requests.len());
        let mut frame = String::new();
        for (request, id) in requests.iter().zip(&ids) {
            let mut span = self
                .tracer
                .start(self.tracer.child_context(&root_ctx), "client.request");
            span.annotate("op", request.op());
            if let Some(ws) = request.workspace() {
                span.annotate("workspace", ws);
            }
            span.annotate("request_id", id.to_string());
            frame.push_str(
                &request
                    .to_json_with_meta(*id, Some(&span.context()))
                    .to_string(),
            );
            frame.push('\n');
            request_spans.push(span);
        }
        let finish_all = |spans: Vec<OpenSpan>, root: OpenSpan, tracer: &Tracer| {
            for span in spans {
                span.finish(tracer);
            }
            root.finish(tracer);
        };
        let attempts = self.retry.attempts.max(1);
        let mut last = None;
        let mut prev_attempt: Option<TraceContext> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.registry.client_retries.inc();
                let delay = self.backoff_delay(attempt - 1);
                self.registry.client_backoff_sleeps.inc();
                self.env.clock().sleep(delay);
            }
            let mut span = self
                .tracer
                .start(self.tracer.child_context(&root_ctx), "client.attempt");
            span.annotate("retry", attempt.to_string());
            if let Some(prev) = prev_attempt {
                span.annotate("retry_of", prev.span_id_hex());
            }
            prev_attempt = Some(span.context());
            match self.exchange_batch(&frame, requests.len()) {
                Ok(replies) => {
                    span.finish(&self.tracer);
                    finish_all(request_spans, root, &self.tracer);
                    let mut out = Vec::with_capacity(replies.len());
                    for reply in &replies {
                        out.push(Client::parse_response(reply)?);
                    }
                    return Ok(out);
                }
                Err(e) => {
                    span.annotate("error", e.kind().to_string());
                    span.finish(&self.tracer);
                    self.disconnect();
                    if !Client::retryable(&e) {
                        finish_all(request_spans, root, &self.tracer);
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        finish_all(request_spans, root, &self.tracer);
        Err(last.expect("at least one attempt"))
    }

    /// One burst-write-then-read-`n`-lines exchange on the current
    /// connection, under a single deadline.  No retries.
    fn exchange_batch(&mut self, frame: &str, n: usize) -> io::Result<Vec<String>> {
        let deadline = self.timeout.map(|t| self.env.clock().monotonic() + t);
        self.ensure_connected()?;
        let conn = self.conn.as_mut().expect("just connected");
        conn.write_all(frame.as_bytes())?;
        let mut replies = Vec::with_capacity(n);
        for _ in 0..n {
            replies.push(self.read_line(deadline)?);
        }
        Ok(replies)
    }

    fn parse_response(line: &str) -> io::Result<Response> {
        match serde::json::Value::parse(line).and_then(|v| Response::from_json(&v)) {
            Ok(response) => Ok(response),
            Err(e) => Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("unparsable response `{line}`: {e}"),
            )),
        }
    }
}
