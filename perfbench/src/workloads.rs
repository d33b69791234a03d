//! The untraced runs: the real served stack (client → TCP on 127.0.0.1 →
//! `Server` → `Engine::with_store` → `Store` with fsync on), driven by one
//! closed-loop client, with every answer checked.
//!
//! Every run measures all three kinds of operation over its whole timed
//! window, because the speed of a shared VM drifts over seconds to
//! minutes and a metric sampled in a short phase inherits that drift:
//!
//! * reads — fitting questions, `WorkspaceInfo`, or a restart's first
//!   question;
//! * writes — acked mutations;
//! * restarts — `Store::open_with` → `Engine::with_store` → the restart
//!   question on every workspace.  `qbe_fit` and `durable_ingest` restart
//!   from a copy of their data directory taken at the end of set-up, every
//!   [`RESTART_EVERY`] of client work; the time spent restarting is not
//!   counted in their `ops_per_s`.

use crate::env;
use crate::inputs::{self, Churn, INGEST_WS};
use crate::sys::{self, Digest, Reg, Usage, Window};
use cqfit_engine::{Client, Engine, EngineConfig, Request, Response, RetryPolicy, Server};
use cqfit_env::Env;
use cqfit_obs::Registry;
use cqfit_store::{Store, StoreConfig};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request deadline.  A stall becomes a counted failed op, not a hang.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(10);
/// QBE sessions run during set-up, writes only, and kept (not dropped):
/// the workspaces every `qbe_fit` restart recovers.
pub const QBE_RESIDENT: u64 = 64;
/// Ingest bursts run during set-up: two compaction cycles and 30 bursts of
/// the third, so the log every restart replays holds a snapshot and 960
/// records.
pub const INGEST_WARM_BURSTS: u64 = 94;
/// Client work between two restarts of `qbe_fit` and `durable_ingest`.
pub const RESTART_EVERY: Duration = Duration::from_millis(50);
/// Set-ups before the timed phase; the last one is kept and timed.
/// `setup_s` is the median over these and the spare set-ups (or log
/// rebuilds) made across the timed window, so that, like every other
/// figure, it samples the whole run and not one moment of it.
pub const SETUPS: usize = 3;
/// Client work between two spare set-ups of `qbe_fit` and
/// `durable_ingest`; the time spent on them is not counted in `ops_per_s`.
pub const SETUP_EVERY: Duration = Duration::from_millis(500);
/// Restarts between two rebuilds of the `cold_recovery` log.  Every
/// rebuild is a set-up as well.
pub const COLD_RESTARTS_PER_BUILD: usize = 16;
/// Timed QBE sessions after which `qbe_fit` reads its peak RSS.  The
/// engine's hom cache grows with every new session, so a peak read at the
/// end of the run would follow how many sessions the run completed.  The
/// cache's tables double at fixed entry counts, and this point lies between
/// two doublings (about 6,100 and 10,100 sessions).
pub const QBE_RSS_SESSIONS: u64 = 7168;
/// Every `QBE_CHECK_STRIDE`-th timed QBE session is replayed through a
/// storeless in-process engine and must answer byte for byte the same.
pub const QBE_CHECK_STRIDE: usize = 16;

/// Everything one untraced run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that failed (error answer, transport error or timeout).
    pub failed: u64,
    /// Wrong answers and failed checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Length of the timed phase.
    pub timed_s: f64,
    /// Latencies and ops of the timed phase, by slice.
    pub window: Window,
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// Registry figures of the measured work.
    pub reg: Reg,
    /// Client retries during the timed phase.
    pub client_retries: u64,
    /// Fitting questions behind the registry figures.
    pub questions: u64,
    /// Wire time of the timed round trips, when asked for.
    pub wire: Option<Wire>,
    /// Process usage at the start and end of the timed phase.
    pub usage: (Usage, Usage),
    /// Answer digest per unit (QBE session, ingest burst, or cold log
    /// build), in input order from the first unit of the kept set-up.
    pub answers: Vec<u64>,
    /// Digest of the run's fixed input prefix.
    pub input_digest: u64,
    /// Workspaces each restart recovers.
    pub restart_names: Vec<String>,
    /// Expected restart answers (as wire text), parallel to the names.
    pub restart_expect: Vec<String>,
    /// Log records each restart must replay.
    pub records_expected: u64,
    /// Peak RSS read at the workload's fixed work point, bytes; `None`
    /// reads it at the end of the run.
    pub peak_rss: Option<u64>,
}

impl Run {
    fn problem(&mut self, msg: String) {
        if self.problems.len() < 16 {
            self.problems.push(msg);
        }
    }

    /// Charges one completed round trip of `depth` requests to the wire.
    fn round_trip(&mut self, latency_us: f64, depth: u64) {
        let Some(wire) = &mut self.wire else {
            return;
        };
        match wire.server_ns(depth) {
            Ok(Some(server_ns)) => {
                wire.round_trips += 1;
                wire.total_us += latency_us - server_ns as f64 / 1e3;
            }
            Ok(None) => wire.split += 1,
            Err(e) => self.problem(e),
        }
    }
}

/// Wire time per round trip: the client's latency less the server's time
/// for the same requests, read from the served engine's registry.
///
/// The server records one `server_request_ns` sample per request once it
/// has written the reply, and every member of a pipeline window records the
/// window's time.  So after each round trip the client waits for its
/// samples to land; their summed delta over the depth is the server's time,
/// provided the requests formed one window.  Round trips the server split
/// into several windows are counted apart and left out.
#[derive(Debug, Default)]
pub struct Wire {
    registry: Option<Arc<Registry>>,
    count: u64,
    sum: u64,
    windows: u64,
    /// Round trips measured.
    pub round_trips: u64,
    /// Summed wire time, µs.
    pub total_us: f64,
    /// Round trips split into several windows (not measured).
    pub split: u64,
}

impl Wire {
    /// Starts reading `registry`, once the samples of earlier requests have
    /// all landed.
    fn start(&mut self, registry: &Arc<Registry>) {
        let mut last = registry.server_request_ns.snapshot().count;
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let now = registry.server_request_ns.snapshot().count;
            if now == last {
                break;
            }
            last = now;
        }
        let snap = registry.server_request_ns.snapshot();
        self.count = snap.count;
        self.sum = snap.sum;
        self.windows = registry.server_batch_depth.snapshot().count;
        self.registry = Some(registry.clone());
    }

    /// The server's time for the `depth` requests just answered, or `None`
    /// when they formed more than one window.
    fn server_ns(&mut self, depth: u64) -> Result<Option<u64>, String> {
        let Some(registry) = &self.registry else {
            return Ok(Some(0));
        };
        let deadline = Instant::now() + Duration::from_secs(1);
        let snap = loop {
            let snap = registry.server_request_ns.snapshot();
            if snap.count >= self.count + depth {
                break snap;
            }
            if Instant::now() > deadline {
                return Err("the server's request samples never landed".into());
            }
            std::hint::spin_loop();
        };
        let windows = registry.server_batch_depth.snapshot().count;
        let (sum, one_window) = (snap.sum - self.sum, windows == self.windows + 1);
        (self.count, self.sum, self.windows) = (snap.count, snap.sum, windows);
        Ok(one_window.then(|| sum / depth))
    }
}

/// A response as wire text.
pub fn text(r: &Response) -> String {
    serde::to_string(r)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Store configuration of a workload: defaults (fsync on, compaction after
/// 1024 records) unless `compact_after` overrides the budget.
pub fn store_config(dir: &Path, compact_after: usize) -> StoreConfig {
    let mut config = StoreConfig::new(dir);
    config.compact_after = compact_after;
    config
}

/// An in-process server over a durable engine.
struct Served {
    engine: Arc<Engine>,
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Served {
    fn start(config: StoreConfig, env: &Arc<dyn Env>) -> Result<Served, String> {
        let store =
            Store::open_with(config, env.clone()).map_err(|e| format!("store open: {e}"))?;
        let (engine, _) = Engine::with_store(EngineConfig::default(), store)
            .map_err(|e| format!("engine start: {e}"))?;
        let engine = Arc::new(engine);
        let server =
            Server::bind("127.0.0.1:0", engine.clone()).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Served {
            engine,
            addr,
            thread,
        })
    }

    /// A client with the benchmark's deadline and a single attempt.
    fn client(&self) -> Result<Client, String> {
        let mut client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        client.set_call_timeout(Some(CALL_TIMEOUT));
        client.set_retry(RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        });
        Ok(client)
    }

    fn records(&self) -> u64 {
        self.engine.store().map_or(0, |s| s.stats().records)
    }

    /// Shuts the server down and waits for it.  Drop every client first,
    /// or the server waits out their poll interval.
    fn stop(self) -> Result<(), String> {
        let mut client = self.client()?;
        client
            .call(&Request::Shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(client);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One timed wire call: latency goes to reads or writes, a failure counts
/// as failed and as missing every latency limit (it is recorded at the
/// deadline or above).  A completed call counts as an op of `ops_per_s`
/// when `counted`.
fn timed_call(
    client: &mut Client,
    request: &Request,
    run: &mut Run,
    counted: bool,
) -> Option<Response> {
    let begun = Instant::now();
    let result = client.call(request);
    let mut latency = us(begun.elapsed());
    run.attempted += 1;
    let response = match result {
        Ok(r) if r.is_ok() => {
            run.window.ops(u64::from(counted));
            run.round_trip(latency, 1);
            Some(r)
        }
        Ok(r) => {
            run.failed += 1;
            run.problem(format!("{} failed: {}", request.op(), text(&r)));
            latency = latency.max(us(CALL_TIMEOUT));
            Some(r)
        }
        Err(e) => {
            run.failed += 1;
            run.problem(format!("{} failed: {e}", request.op()));
            latency = latency.max(us(CALL_TIMEOUT));
            None
        }
    };
    if !request.is_mutation() {
        run.window.read(latency);
        if inputs::is_question(request) {
            run.questions += 1;
        }
    } else {
        run.window.write_n(latency, 1);
    }
    response
}

/// An untimed call whose failure is a problem of the run.
fn setup_call(client: &mut Client, request: &Request, run: &mut Run) -> String {
    match client.call(request) {
        Ok(r) => {
            if !r.is_ok() {
                run.problem(format!("set-up {} failed: {}", request.op(), text(&r)));
            }
            text(&r)
        }
        Err(e) => {
            run.problem(format!("set-up {} failed: {e}", request.op()));
            "<failed>".into()
        }
    }
}

/// Copies the (quiescent) live data directory to `to`, asks every restart
/// question over the wire and records the answers and record count each
/// restart from the copy must reproduce.
fn freeze_for_restarts(
    served: &Served,
    client: &mut Client,
    from: &Path,
    to: &Path,
    run: &mut Run,
) {
    let names = run.restart_names.clone();
    run.restart_expect = names
        .iter()
        .map(|n| setup_call(client, &inputs::restart_question(n), run))
        .collect();
    run.records_expected = served.records();
    if let Err(e) = env::copy_dir(served.engine.env().fs(), from, to) {
        run.problem(format!("copying the data dir for restarts: {e}"));
    }
}

/// One restart: `Store::open_with` → `Engine::with_store` → the restart
/// question on every workspace.  When the restart is the workload's own
/// read path (`reads`), its questions count as one read, their summed
/// latency, and its engine's registry joins the measured figures.  (A
/// quantile of single questions would fall between workspaces whose
/// products differ in size, and jump from seed to seed.)  Returns the
/// restart's duration.
fn restart(config: &StoreConfig, env: &Arc<dyn Env>, run: &mut Run, reads: bool) -> Duration {
    let begun = Instant::now();
    run.attempted += 1;
    let opened = Store::open_with(config.clone(), env.clone())
        .and_then(|s| Engine::with_store(EngineConfig::default(), s));
    let (engine, report) = match opened {
        Ok(x) => x,
        Err(e) => {
            run.failed += 1;
            run.problem(format!("restart: {e}"));
            return begun.elapsed();
        }
    };
    let mut same = report.records_replayed == run.records_expected;
    let mut asking = Duration::ZERO;
    for i in 0..run.restart_names.len() {
        let asked = Instant::now();
        let answer = engine.handle(&inputs::restart_question(&run.restart_names[i]));
        asking += asked.elapsed();
        same &= text(&answer) == run.restart_expect[i];
    }
    let took = begun.elapsed();
    run.window.restart(took.as_secs_f64() * 1e3);
    if reads {
        run.window.read(us(asking));
        run.questions += run.restart_names.len() as u64;
        run.reg.add(&Reg::of(engine.registry()));
    }
    if !same {
        run.problem(format!(
            "restart answered differently or replayed {} records, expected {}",
            report.records_replayed, run.records_expected
        ));
    }
    took
}

/// Digest of the answers of one unit.
pub fn digest<'a>(answers: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut d = Digest::default();
    for a in answers {
        d.write(a.as_bytes());
    }
    d.value()
}

/// Name of QBE session `index`.
pub fn qbe_ws(index: u64) -> String {
    if index < QBE_RESIDENT {
        format!("r{index}")
    } else {
        format!("s{index}")
    }
}

/// Requests of QBE session `index`: resident sessions only write and keep
/// their workspace, timed ones ask and drop it.
pub fn qbe_requests(seed: u64, index: u64) -> Vec<Request> {
    inputs::qbe_session(seed, index, &qbe_ws(index), index >= QBE_RESIDENT)
}

/// The kept set-up of a served workload.
struct Kept<S> {
    served: Served,
    client: Client,
    state: S,
}

/// One set-up of a served workload on a fresh `dir`, timed up to its
/// first timed op.  Clearing the previous set-up's files is not set-up
/// work.
fn served_setup<S>(
    dir: &Path,
    env: &Arc<dyn Env>,
    run: &mut Run,
    setup: &mut impl FnMut(&Served, &mut Client, &mut Run) -> S,
) -> Option<Kept<S>> {
    env::clear_dir(env.fs(), dir);
    let begun = Instant::now();
    let started =
        Served::start(StoreConfig::new(dir), env).and_then(|served| Ok((served.client()?, served)));
    let (mut client, served) = match started {
        Ok(x) => x,
        Err(e) => {
            run.problem(e);
            return None;
        }
    };
    let state = setup(&served, &mut client, run);
    run.setup_s.push(begun.elapsed().as_secs_f64());
    Some(Kept {
        served,
        client,
        state,
    })
}

/// A set-up whose stack is stopped again: only its time and its problems
/// count.
fn spare_setup<S>(
    dir: &Path,
    env: &Arc<dyn Env>,
    run: &mut Run,
    setup: &mut impl FnMut(&Served, &mut Client, &mut Run) -> S,
) {
    let mut spare = Run::default();
    if let Some(Kept { served, client, .. }) = served_setup(dir, env, &mut spare, setup) {
        drop(client);
        if let Err(e) = served.stop() {
            spare.problem(e);
        }
    }
    run.setup_s.extend(spare.setup_s);
    for p in spare.problems {
        run.problem(p);
    }
}

/// The set-ups of a served workload before its timed phase: [`SETUPS`] − 1
/// spare ones on `spare_dir`, then the kept one on `dir`.
fn served_setups<S>(
    dir: &Path,
    spare_dir: &Path,
    env: &Arc<dyn Env>,
    run: &mut Run,
    setup: &mut impl FnMut(&Served, &mut Client, &mut Run) -> S,
) -> Option<Kept<S>> {
    for _ in 1..SETUPS {
        spare_setup(spare_dir, env, run, setup);
    }
    served_setup(dir, env, run, setup)
}

/// The timed loop of a served workload: `step` until the deadline, with a
/// restart from `restart_dir` after every [`RESTART_EVERY`] of steps and a
/// `spare` set-up after every [`SETUP_EVERY`].
fn timed_loop<S>(
    kept: &mut Kept<S>,
    env: &Arc<dyn Env>,
    restart_dir: &Path,
    seconds: f64,
    run: &mut Run,
    mut step: impl FnMut(&mut Client, &mut S, &mut Run) -> bool,
    mut spare: impl FnMut(&mut Run),
) {
    let config = StoreConfig::new(restart_dir);
    let reg0 = Reg::of(kept.served.engine.registry());
    let retries0 = kept.client.registry().client_retries.get();
    if let Some(wire) = &mut run.wire {
        wire.start(kept.served.engine.registry());
    }
    let usage0 = sys::usage();
    let begun = Instant::now();
    run.window.start(seconds);
    let deadline = begun + Duration::from_secs_f64(seconds);
    let (mut stepping, mut since_setup) = (Duration::ZERO, Duration::ZERO);
    while Instant::now() < deadline {
        let t = Instant::now();
        if !step(&mut kept.client, &mut kept.state, run) {
            break;
        }
        let took = t.elapsed();
        run.window.busy(took);
        stepping += took;
        since_setup += took;
        if stepping >= RESTART_EVERY {
            stepping = Duration::ZERO;
            restart(&config, env, run, false);
        }
        if since_setup >= SETUP_EVERY {
            since_setup = Duration::ZERO;
            spare(run);
        }
    }
    run.timed_s = begun.elapsed().as_secs_f64();
    run.usage = (usage0, sys::usage());
    run.reg = Reg::of(kept.served.engine.registry()).since(&reg0);
    run.client_retries = kept.client.registry().client_retries.get() - retries0;
}

/// `qbe_fit`: seeded QBE sessions over one connection at depth 1.
pub fn qbe_fit(root: &Path, env: &Arc<dyn Env>, seed: u64, seconds: f64, wire: bool) -> Run {
    let (dir, restart_dir, spare_dir) =
        (root.join("live"), root.join("restart"), root.join("spare"));
    let prefix: Vec<Request> = (0..64).flat_map(|i| qbe_requests(seed, i)).collect();
    let mut run = Run {
        input_digest: inputs::digest_requests(prefix.iter()),
        restart_names: (0..QBE_RESIDENT).map(qbe_ws).collect(),
        wire: wire.then(Wire::default),
        ..Run::default()
    };
    // Set-up writes the resident sessions through the served engine in
    // process.  Their questions, like the wire, would make set-up time
    // follow the host's thread wake-ups (it moved by a third between sets
    // of runs); the restart questions asked when freezing warm them up.
    let mut setup = |served: &Served, _: &mut Client, run: &mut Run| {
        for i in 0..QBE_RESIDENT {
            let texts: Vec<String> = qbe_requests(seed, i)
                .iter()
                .map(|r| {
                    let answer = served.engine.handle(r);
                    if !answer.is_ok() {
                        run.problem(format!("set-up {} failed: {}", r.op(), text(&answer)));
                    }
                    text(&answer)
                })
                .collect();
            run.answers.push(digest(texts.iter().map(String::as_str)));
        }
        QBE_RESIDENT
    };
    let Some(mut kept) = served_setups(&dir, &spare_dir, env, &mut run, &mut setup) else {
        return run;
    };
    freeze_for_restarts(&kept.served, &mut kept.client, &dir, &restart_dir, &mut run);
    timed_loop(
        &mut kept,
        env,
        &restart_dir,
        seconds,
        &mut run,
        |client, index, run| {
            let mut d = Digest::default();
            for request in qbe_requests(seed, *index) {
                match timed_call(client, &request, run, true) {
                    Some(r) => d.write(text(&r).as_bytes()),
                    None => d.write(b"<failed>"),
                }
            }
            run.answers.push(d.value());
            *index += 1;
            if *index == QBE_RESIDENT + QBE_RSS_SESSIONS {
                run.peak_rss = Some(sys::peak_rss_bytes());
            }
            true
        },
        |run| spare_setup(&spare_dir, env, run, &mut setup),
    );
    let Kept {
        served,
        client,
        state: sessions,
    } = kept;
    drop(client);
    if let Err(e) = served.stop() {
        run.problem(e);
    }

    // Storeless replay of the resident sessions and a stride of the timed
    // ones: the served answers must be byte-equal.
    let storeless = Engine::new(EngineConfig::default());
    let timed = (QBE_RESIDENT..sessions).step_by(QBE_CHECK_STRIDE);
    for i in (0..QBE_RESIDENT).chain(timed) {
        let texts: Vec<String> = qbe_requests(seed, i)
            .iter()
            .map(|r| text(&storeless.handle(r)))
            .collect();
        if digest(texts.iter().map(String::as_str)) != run.answers[i as usize] {
            run.problem(format!(
                "session {i}: served answers differ from the storeless engine"
            ));
        }
    }
    run
}

/// One ingest burst and the read after it; returns whether the client
/// stayed in step with the model.
fn ingest_burst(client: &mut Client, churn: &mut Churn, run: &mut Run, timed: bool) -> bool {
    let burst = churn.burst();
    let requests: Vec<Request> = burst.iter().map(|(r, _)| r.clone()).collect();
    let begun = Instant::now();
    let result = client.call_pipelined(&requests);
    let latency = us(begun.elapsed());
    let mut d = Digest::default();
    let mut in_step = true;
    match result {
        Ok(responses) => {
            for ((_, expected), response) in burst.iter().zip(&responses) {
                let got = text(response);
                d.write(got.as_bytes());
                if timed {
                    run.attempted += 1;
                    run.window.write_n(latency, 1);
                    if response.is_ok() {
                        run.window.ops(1);
                    } else {
                        run.failed += 1;
                    }
                }
                if got != text(expected) {
                    run.problem(format!("burst answer {got}, expected {}", text(expected)));
                    in_step = false;
                }
            }
            if timed {
                run.round_trip(latency, burst.len() as u64);
            }
        }
        Err(e) => {
            if timed {
                run.attempted += burst.len() as u64;
                run.failed += burst.len() as u64;
                let missed = latency.max(us(CALL_TIMEOUT));
                run.window.write_n(missed, burst.len() as u64);
            }
            run.problem(format!("burst failed: {e}"));
            return false;
        }
    }
    let (info, expected) = churn.info();
    let got = if timed {
        // A read, but not an op of `ops_per_s`.
        timed_call(client, &info, run, false).map(|r| text(&r))
    } else {
        client.call(&info).ok().map(|r| text(&r))
    };
    let got = got.unwrap_or_else(|| "<failed>".into());
    d.write(got.as_bytes());
    if got != text(&expected) {
        run.problem(format!(
            "workspace info {got}, expected {}",
            text(&expected)
        ));
        in_step = false;
    }
    run.answers.push(d.value());
    in_step
}

/// `durable_ingest`: pipelined bursts of 32 negatives-only mutations into
/// one workspace, each followed by a `WorkspaceInfo` read.
pub fn durable_ingest(root: &Path, env: &Arc<dyn Env>, seed: u64, seconds: f64, wire: bool) -> Run {
    let (dir, restart_dir, spare_dir) =
        (root.join("live"), root.join("restart"), root.join("spare"));
    let mut probe = Churn::new(seed);
    let prefix: Vec<Request> = (0..128)
        .flat_map(|_| probe.burst().into_iter().map(|(r, _)| r))
        .collect();
    let mut run = Run {
        input_digest: inputs::digest_requests(prefix.iter()),
        restart_names: vec![INGEST_WS.to_string()],
        wire: wire.then(Wire::default),
        ..Run::default()
    };
    let mut setup = |_: &Served, client: &mut Client, run: &mut Run| {
        let mut churn = Churn::new(seed);
        setup_call(client, &churn.create(), run);
        for _ in 0..INGEST_WARM_BURSTS {
            ingest_burst(client, &mut churn, run, false);
        }
        churn
    };
    let Some(mut kept) = served_setups(&dir, &spare_dir, env, &mut run, &mut setup) else {
        return run;
    };
    freeze_for_restarts(&kept.served, &mut kept.client, &dir, &restart_dir, &mut run);
    timed_loop(
        &mut kept,
        env,
        &restart_dir,
        seconds,
        &mut run,
        |client, churn, run| ingest_burst(client, churn, run, true),
        |run| spare_setup(&spare_dir, env, run, &mut setup),
    );
    let Kept {
        served,
        client,
        state: churn,
    } = kept;
    let live_records = served.records();
    drop(client);
    if let Err(e) = served.stop() {
        run.problem(e);
    }

    // Reopening the data dir restores exactly the acked live set.
    match Store::open_with(StoreConfig::new(&dir), env.clone()).and_then(|s| s.recover()) {
        Ok((restored, report)) => {
            let live: Vec<(u64, String)> = churn
                .live
                .iter()
                .map(|(id, e)| (*id, serde::to_string(e)))
                .collect();
            let same = restored.len() == 1
                && restored[0].positives.is_empty()
                && restored[0].revision == churn.revision
                && restored[0]
                    .negatives
                    .iter()
                    .map(|(id, e)| (*id, serde::to_string(e)))
                    .eq(live.iter().cloned());
            if !same || report.records_replayed != live_records {
                run.problem("reopened store differs from the acked live set".into());
            }
        }
        Err(e) => run.problem(format!("reopen: {e}")),
    }
    run
}

/// Writes the cold-recovery log into the (cleared) data directory through
/// an in-process durable engine (persist before ack, fsync on, compaction
/// off): the writes of `cold_recovery`.  Returns the restart answers of the
/// built log.
fn cold_build(
    config: &StoreConfig,
    env: &Arc<dyn Env>,
    log: &[(Request, Response)],
    run: &mut Run,
    timed: bool,
) -> Vec<String> {
    let engine = match Store::open_with(config.clone(), env.clone())
        .and_then(|s| Engine::with_store(EngineConfig::default(), s))
    {
        Ok((engine, _)) => engine,
        Err(e) => {
            run.problem(format!("cold log: {e}"));
            return Vec::new();
        }
    };
    let mut d = Digest::default();
    for (request, expected) in log {
        let asked = Instant::now();
        let answer = engine.handle(request);
        let latency = us(asked.elapsed());
        let got = text(&answer);
        if timed {
            run.attempted += 1;
            run.window.write_n(latency, 1);
            if !answer.is_ok() {
                run.failed += 1;
            }
        }
        d.write(got.as_bytes());
        if got != text(expected) {
            run.problem(format!("log write answered {got}"));
        }
    }
    run.answers.push(d.value());
    let expect = run
        .restart_names
        .iter()
        .map(|n| text(&engine.handle(&inputs::restart_question(n))))
        .collect();
    if timed {
        run.questions += run.restart_names.len() as u64;
        run.reg.add(&Reg::of(engine.registry()));
    }
    expect
}

/// `cold_recovery`: the log of [`inputs::COLD_WORKSPACES`] workspaces is
/// written with compaction off; the timed op is a full restart plus one
/// `Fit{Cq,Plain}` per workspace.  The log is rebuilt after every
/// [`COLD_RESTARTS_PER_BUILD`] restarts, so its writes and set-ups are
/// sampled across the whole window too.
pub fn cold_recovery(root: &Path, env: &Arc<dyn Env>, seed: u64, seconds: f64) -> Run {
    let config = store_config(&root.join("live"), usize::MAX);
    let log = inputs::cold_log(seed);
    let mut run = Run {
        input_digest: inputs::digest_requests(log.iter().map(|(r, _)| r)),
        restart_names: (0..inputs::COLD_WORKSPACES).map(inputs::cold_ws).collect(),
        records_expected: log.len() as u64,
        ..Run::default()
    };
    for _ in 0..SETUPS {
        env::clear_dir(env.fs(), &config.dir);
        let begun = Instant::now();
        run.answers.clear();
        run.restart_expect = cold_build(&config, env, &log, &mut run, false);
        run.setup_s.push(begun.elapsed().as_secs_f64());
    }

    let usage0 = sys::usage();
    let begun = Instant::now();
    run.window.start(seconds);
    let deadline = begun + Duration::from_secs_f64(seconds);
    'timed: loop {
        for _ in 0..COLD_RESTARTS_PER_BUILD {
            if Instant::now() >= deadline {
                break 'timed;
            }
            let took = restart(&config, env, &mut run, true);
            run.window.busy(took);
            run.window.ops(1);
        }
        env::clear_dir(env.fs(), &config.dir);
        let built = Instant::now();
        let expect = cold_build(&config, env, &log, &mut run, true);
        run.setup_s.push(built.elapsed().as_secs_f64());
        if expect != run.restart_expect {
            run.problem("a rebuilt log answers differently".into());
        }
    }
    run.timed_s = begun.elapsed().as_secs_f64();
    run.usage = (usage0, sys::usage());
    if run.answers.windows(2).any(|w| w[0] != w[1]) {
        run.problem("log builds answered differently".into());
    }
    run
}
