//! The exploration harness: seeded churn workloads driven through the
//! real store+engine stack on the simulated filesystem, crashed,
//! recovered, and compared against storeless oracle engines.
//!
//! One [`explore`] call runs eight phases for one seed:
//!
//! * **Phase 0 — interleaved live run.**  Several workspaces are mutated
//!   by concurrent tasks under the deterministic scheduler (plus a
//!   "ghost" workspace that is created and dropped), the run is repeated
//!   to confirm seed-determinism, and a crash-free reopen of the final
//!   image must match per-workspace oracles (fold(log) == state) with
//!   the ghost absent (drops-stay-dropped).
//! * **Phase A — exhaustive torn tails.**  `w0`'s log is cut at *every*
//!   record boundary and at ≥1 interior byte of *every* record; each cut
//!   recovers on a fresh simulated filesystem and must equal the oracle
//!   driven with exactly the surviving mutation prefix, with the sibling
//!   workspace intact and the ghost still gone.
//! * **Phase B — mid-run machine crashes.**  The operation counter is
//!   crashed at seeded points while a small compaction budget keeps
//!   snapshot rewrites in flight; recovery from a seeded crash image
//!   must satisfy acked ≤ revision ≤ issued (at-most-one-lost-ack) and
//!   match the oracle over the surviving prefix, and an acknowledged
//!   workspace drop must not resurrect.
//! * **Phase C — write/sync fault injection.**  One-shot short writes
//!   and failed syncs: the failed request stays unacknowledged, the
//!   rollback keeps the log clean, and both the live engine and a
//!   reopen-from-image equal the oracle over the acknowledged requests
//!   (including identical no-op behavior on removing an absent id).
//! * **Phase G — group-committed intra-batch torn tails.**  Concurrent
//!   appenders drive one workspace's log through the store's commit
//!   queue (real threads: the commit queue only batches under true
//!   concurrency, and every invariant checked is schedule-independent),
//!   until at least one `write_all` carries several records — a group
//!   commit.  The log is then cut at seeded intra-batch byte offsets —
//!   every record boundary inside the batched write plus interior bytes
//!   of every batched record — and each cut must recover to a record
//!   boundary of the *acked* prefix only: replayed records = complete
//!   lines before the cut, the torn tail is dropped, the on-disk log is
//!   truncated exactly to the boundary, and the folded state matches
//!   the surviving records.
//! * **Phase N — network fault injection.**  A scripted session speaks
//!   the real wire protocol (`Server::run_sequential` + resilient
//!   [`Client`]) over a seeded [`SimNet`] under the deterministic
//!   scheduler.  A fault-free baseline must equal the in-process oracle
//!   byte-for-byte and records every frame boundary; the wire is then
//!   cut once per execution — before the first byte, at every frame
//!   boundary, and inside every frame — and the client's transcript must
//!   *still* equal the never-dropped oracle's: acknowledged mutations
//!   survive the reconnect, retried mutations apply exactly once
//!   (revisions never double-bump), and a drain always answers
//!   fully-received requests.  The same script is then re-swept through
//!   the *pipelined* client — the whole session as one burst, every cut
//!   forcing a whole-batch replay under the same request ids — so the
//!   window-deep idempotency memo is exercised end-to-end too.
//! * **Phase M — metric cross-checks.**  The observability registry
//!   (`cqfit-obs`, threaded through store, engine, server, and client)
//!   must *count reality*: a fault-free durable churn run's acked-append
//!   counter must equal the oracle's acknowledged logged mutations, its
//!   engine-level counters (computed fits, hom-cache hits, cores) must
//!   byte-match a storeless oracle's, compaction events must agree with
//!   the compaction counter, and — over the simulated wire — a fault-free
//!   session must report zero retries while every injected cut that
//!   consumed a request must surface as *exactly one* client retry (with
//!   reconnects and backoff sleeps in lock-step) and batch replays must
//!   show up in the server's memo-replay counter.  A traced store run,
//!   repeated with the same seed, must leave the identical registry
//!   snapshot and trace ring.
//! * **Phase T — causal tracing and the flight recorder.**  Traced
//!   durable sessions (call-by-call and pipelined, fault-free and under
//!   seeded wire cuts) must each yield a coherent span forest across the
//!   combined client+server capture: every span's parent exists in the
//!   same trace, every retry span's `retry_of` link names a live sibling
//!   attempt, spans nest inside their parents (same-side exactly; across
//!   the wire the start ordering), and every acknowledged append's trace
//!   reaches a `store.fsync` span carrying the same commit batch.  The
//!   flight-recorder journal is then cut at every slot boundary and
//!   inside every slot: each cut must decode — and fully recover via
//!   `FlightRecorder::open` — to exactly the spans journaled before it,
//!   and a wrapped journal must decode to the newest generation only.
//!
//! Every divergence returns an `Err` whose message embeds the seed.

use crate::fs::{FaultPlan, SimFs};
use crate::net::{NetFaultPlan, SimNet};
use crate::sched::SimScheduler;
use crate::{splitmix, SimEnv};
use cqfit_engine::{
    Client, Engine, EngineConfig, ExamplePayload, FitMode, Polarity, QueryClass, Request, Response,
    RetryPolicy, Server,
};
use cqfit_env::{Env, Fs};
use cqfit_gen::{churn_workload, resolve_churn, RandomConfig, ResolvedChurnOp};
use cqfit_obs::{
    decode_journal, FlightRecorder, Snapshot, TraceContext, TraceSpan, FR_FILE_NAME,
    FR_HEADER_BYTES, FR_SLOT_BYTES,
};
use cqfit_store::{LogRecord, Store, StoreConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The simulated data directory (purely virtual: nothing touches disk).
const DATA_DIR: &str = "/sim/data";

/// Workload sizing for one seed's exploration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Churn steps per workspace.
    pub steps: usize,
    /// Concurrent workspaces in the interleaved phase (≥ 2: phase A cuts
    /// `w0` and checks `w1` stayed intact).
    pub workspaces: usize,
    /// Seeded mid-run machine-crash executions (phase B).
    pub crash_points: usize,
    /// Seeded write/sync fault executions (phase C).
    pub fault_points: usize,
    /// Churn steps in the scripted network session (phase N).  The wire
    /// is cut at every frame boundary and inside every frame, so the
    /// execution count grows roughly linearly with this.
    pub net_steps: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            steps: 18,
            workspaces: 2,
            crash_points: 5,
            fault_points: 4,
            net_steps: 10,
        }
    }
}

impl SimConfig {
    /// A reduced configuration for tier-1 (debug-build) test runs.
    pub fn smoke() -> SimConfig {
        SimConfig {
            steps: 10,
            workspaces: 2,
            crash_points: 2,
            fault_points: 2,
            net_steps: 4,
        }
    }
}

/// What one seed's exploration covered.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExploreStats {
    /// Crash→recover→compare loops executed.
    pub executions: u64,
    /// Distinct crash / fault injection points exercised.
    pub crash_points: u64,
    /// Phase-A cuts landing exactly on a record boundary.
    pub boundary_cuts: u64,
    /// Phase-A cuts landing inside a record (torn tails).
    pub mid_record_cuts: u64,
    /// Log records subjected to exhaustive cutting.
    pub records: u64,
    /// Phase-G multi-record group-committed writes observed.
    pub group_batches: u64,
    /// Phase-G cuts landing on a record boundary inside a batched write.
    pub group_boundary_cuts: u64,
    /// Phase-G cuts landing inside a record of a batched write.
    pub group_mid_cuts: u64,
    /// Phase-N network sessions executed (baselines + one per cut).
    pub net_executions: u64,
    /// Phase-N wire cuts landing exactly on a frame boundary.
    pub net_boundary_cuts: u64,
    /// Phase-N wire cuts landing inside a frame (partial delivery).
    pub net_mid_frame_cuts: u64,
    /// Phase-N sessions driven through the pipelined client (one burst
    /// frame for the whole script), baselines + one per cut.
    pub net_pipelined_executions: u64,
    /// Wire cuts swept over the pipelined conversation (boundary and
    /// mid-frame combined — the burst makes frames coarse).
    pub net_pipelined_cuts: u64,
    /// Phase-M store-side runs whose metric registry was cross-checked
    /// against the oracle (exact append accounting, cache-counter
    /// equality, compaction-event consistency).
    pub metric_store_checks: u64,
    /// Phase-M wire sessions whose client/server counters were
    /// cross-checked (fault-free baselines and cut runs combined).
    pub metric_net_checks: u64,
    /// Client retries accounted one-for-one to injected wire cuts in
    /// phase M (every cut that consumed a request produced exactly one).
    pub metric_retries_accounted: u64,
    /// Phase-M same-seed reruns of the traced store run that left the
    /// identical registry snapshot and trace ring.
    pub determinism_checks: u64,
    /// Phase-T traced durable wire sessions whose combined client+server
    /// span capture passed every causality invariant.
    pub trace_sessions: u64,
    /// Spans individually validated (parent linkage + interval nesting)
    /// across phase-T sessions.
    pub trace_spans_checked: u64,
    /// Retry spans whose `retry_of` link named a live sibling attempt in
    /// the same trace.
    pub trace_retry_links: u64,
    /// Flight-recorder journal cuts landing exactly on a slot boundary.
    pub fr_boundary_cuts: u64,
    /// Flight-recorder journal cuts landing inside a slot (torn slots).
    pub fr_mid_cuts: u64,
}

impl ExploreStats {
    /// Accumulates another exploration's counters.
    pub fn merge(&mut self, other: &ExploreStats) {
        self.executions += other.executions;
        self.crash_points += other.crash_points;
        self.boundary_cuts += other.boundary_cuts;
        self.mid_record_cuts += other.mid_record_cuts;
        self.records += other.records;
        self.group_batches += other.group_batches;
        self.group_boundary_cuts += other.group_boundary_cuts;
        self.group_mid_cuts += other.group_mid_cuts;
        self.net_executions += other.net_executions;
        self.net_boundary_cuts += other.net_boundary_cuts;
        self.net_mid_frame_cuts += other.net_mid_frame_cuts;
        self.net_pipelined_executions += other.net_pipelined_executions;
        self.net_pipelined_cuts += other.net_pipelined_cuts;
        self.metric_store_checks += other.metric_store_checks;
        self.metric_net_checks += other.metric_net_checks;
        self.metric_retries_accounted += other.metric_retries_accounted;
        self.determinism_checks += other.determinism_checks;
        self.trace_sessions += other.trace_sessions;
        self.trace_spans_checked += other.trace_spans_checked;
        self.trace_retry_links += other.trace_retry_links;
        self.fr_boundary_cuts += other.fr_boundary_cuts;
        self.fr_mid_cuts += other.fr_mid_cuts;
    }
}

/// Outcome of a multi-seed [`sweep`].
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// Aggregate coverage across all passing and failing seeds.
    pub stats: ExploreStats,
    /// `(seed, message)` for every seed whose invariants failed.
    pub failures: Vec<(u64, String)>,
}

/// Explores one seed through all eight phases.
///
/// # Errors
/// The first invariant violation, with the seed embedded for
/// reproduction (`CQFIT_SIM_SEED=<seed>`).
pub fn explore(seed: u64, cfg: &SimConfig) -> Result<ExploreStats, String> {
    let mut stats = ExploreStats::default();
    let (image, per_ws) = phase0_interleaved(seed, cfg, &mut stats)?;
    phase_a_exhaustive_cuts(seed, cfg, &image, &per_ws, &mut stats)?;
    phase_b_midrun_crashes(seed, cfg, &mut stats)?;
    phase_c_fault_injection(seed, cfg, &mut stats)?;
    phase_g_group_commit(seed, cfg, &mut stats)?;
    phase_n_network(seed, cfg, &mut stats)?;
    phase_m_metric_invariants(seed, cfg, &mut stats)?;
    phase_t_tracing(seed, cfg, &mut stats)?;
    phase_t_flight_recorder(seed, &mut stats)?;
    Ok(stats)
}

/// Runs [`explore`] for `count` seeds starting at `base_seed`,
/// collecting failures instead of stopping at the first.
pub fn sweep(base_seed: u64, count: u64, cfg: &SimConfig) -> SweepOutcome {
    let mut outcome = SweepOutcome::default();
    for seed in base_seed..base_seed.saturating_add(count) {
        match explore(seed, cfg) {
            Ok(stats) => outcome.stats.merge(&stats),
            Err(message) => outcome.failures.push((seed, message)),
        }
    }
    outcome
}

// ---------------------------------------------------------------------
// Workload construction
// ---------------------------------------------------------------------

fn polarity(positive: bool) -> Polarity {
    if positive {
        Polarity::Positive
    } else {
        Polarity::Negative
    }
}

fn create_request(ws: &str) -> Request {
    Request::CreateWorkspace {
        workspace: ws.into(),
        schema: cqfit_data::Schema::digraph().as_ref().clone(),
        arity: 0,
    }
}

/// The churn mutations (adds/removes, *without* the leading create) for
/// one workspace, fully determined by the seed.
fn churn_mutations(ws: &str, seed: u64, steps: usize) -> Vec<Request> {
    let schema = cqfit_data::Schema::digraph();
    let cfg = RandomConfig {
        num_values: 3,
        density: 0.35,
        arity: 0,
        num_positive: 3,
        num_negative: 3,
        seed,
    };
    resolve_churn(&churn_workload(&schema, &cfg, steps), 0)
        .into_iter()
        .map(|op| match op {
            ResolvedChurnOp::Add { positive, example } => Request::AddExample {
                workspace: ws.into(),
                polarity: polarity(positive),
                example: ExamplePayload::Structured(*example),
            },
            ResolvedChurnOp::Remove { positive, id } => Request::RemoveExample {
                workspace: ws.into(),
                polarity: polarity(positive),
                id,
            },
        })
        .collect()
}

/// The question battery compared between engines.  `WorkspaceInfo` comes
/// last: its `product_fresh` flag only converges once a fitting question
/// has forced the lazy product rebuild on both sides.  The `Plain` CQ
/// fit serializes the canonical CQ of the maintained product, so byte
/// equality certifies product equivalence; the `Minimized` fits pin the
/// cores each side computes afresh.
fn questions(ws: &str) -> [Request; 6] {
    let fit = |class, mode| Request::Fit {
        workspace: ws.into(),
        class,
        mode,
    };
    [
        Request::FittingExists {
            workspace: ws.into(),
            class: QueryClass::Cq,
        },
        Request::FittingExists {
            workspace: ws.into(),
            class: QueryClass::Ucq,
        },
        fit(QueryClass::Cq, FitMode::Plain),
        fit(QueryClass::Cq, FitMode::Minimized),
        fit(QueryClass::Ucq, FitMode::Minimized),
        Request::WorkspaceInfo {
            workspace: ws.into(),
        },
    ]
}

// ---------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------

type Image = Vec<(PathBuf, Vec<u8>)>;

fn store_config(compact_after: usize) -> StoreConfig {
    StoreConfig {
        dir: DATA_DIR.into(),
        compact_after,
        fsync: true,
    }
}

/// A compaction budget large enough to never trigger: keeps the
/// record-index ↔ request-index alignment phase A depends on.
const NO_COMPACTION: usize = usize::MAX >> 1;

/// Materializes an image onto a fresh simulated filesystem and recovers
/// a durable engine from it.
fn engine_from_image(image: &Image, compact_after: usize, seed: u64) -> Result<Engine, String> {
    let fs = Arc::new(SimFs::new());
    for (path, bytes) in image {
        fs.install(path, bytes);
    }
    let env: Arc<dyn Env> = Arc::new(SimEnv::new(fs, seed));
    let store = Store::open_with(store_config(compact_after), env)
        .map_err(|e| format!("seed {seed}: store open on image failed: {e}"))?;
    Engine::with_store(EngineConfig::default(), store)
        .map(|(engine, _)| engine)
        .map_err(|e| format!("seed {seed}: recovery on image failed: {e}"))
}

/// Byte-compares the question battery between an engine under test and
/// its oracle.
fn compare_answers(
    got: &Engine,
    oracle: &Engine,
    ws: &str,
    context: &str,
    seed: u64,
) -> Result<(), String> {
    for question in questions(ws) {
        let want = serde::to_string(&oracle.handle(&question));
        let have = serde::to_string(&got.handle(&question));
        if have != want {
            return Err(format!(
                "seed {seed}: {context}: {question:?} diverged\n  oracle: {want}\n  got:    {have}"
            ));
        }
    }
    Ok(())
}

fn list_names(engine: &Engine) -> Vec<String> {
    match engine.handle(&Request::ListWorkspaces) {
        Response::Workspaces { names } => names,
        other => panic!("list_workspaces answered {other:?}"),
    }
}

/// Drives requests, requiring every response to be ok (fault-free
/// phases and oracle replays).
fn drive_ok(engine: &Engine, requests: &[Request], context: &str, seed: u64) -> Result<(), String> {
    for request in requests {
        let response = engine.handle(request);
        if !response.is_ok() {
            return Err(format!(
                "seed {seed}: {context}: {request:?} unexpectedly failed: {response:?}"
            ));
        }
    }
    Ok(())
}

fn workspace_revision(engine: &Engine, ws: &str) -> Option<u64> {
    match engine.handle(&Request::WorkspaceInfo {
        workspace: ws.into(),
    }) {
        Response::Info { revision, .. } => Some(revision),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Phase 0: interleaved live run under the deterministic scheduler
// ---------------------------------------------------------------------

/// One interleaved run: per-workspace mutator tasks plus a ghost task,
/// scheduled deterministically.  Returns the final (clean) filesystem
/// image.
fn interleaved_run(seed: u64, per_ws: &[Vec<Request>]) -> Result<Image, String> {
    let fs = Arc::new(SimFs::new());
    let sched = Arc::new(SimScheduler::new(seed));
    let env: Arc<dyn Env> = Arc::new(SimEnv::with_scheduler(
        Arc::clone(&fs),
        Arc::clone(&sched),
        seed,
    ));
    let store = Store::open_with(store_config(NO_COMPACTION), env)
        .map_err(|e| format!("seed {seed}: phase 0: store open failed: {e}"))?;
    let (engine, _) = Engine::with_store(EngineConfig::default(), store)
        .map_err(|e| format!("seed {seed}: phase 0: startup recovery failed: {e}"))?;
    let engine = Arc::new(engine);

    let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for requests in per_ws {
        let engine = Arc::clone(&engine);
        let requests = requests.clone();
        tasks.push(Box::new(move || {
            for request in &requests {
                let response = engine.handle(request);
                assert!(response.is_ok(), "{request:?} failed: {response:?}");
            }
        }));
    }
    // The ghost: created, mutated, dropped — all acknowledged, so no
    // trace of it may survive any later recovery.
    let ghost_engine = Arc::clone(&engine);
    tasks.push(Box::new(move || {
        let steps = [
            create_request("ghost"),
            Request::AddExample {
                workspace: "ghost".into(),
                polarity: Polarity::Positive,
                example: ExamplePayload::Text("R(g,g)".into()),
            },
            Request::DropWorkspace {
                workspace: "ghost".into(),
            },
        ];
        for request in &steps {
            let response = ghost_engine.handle(request);
            assert!(response.is_ok(), "{request:?} failed: {response:?}");
        }
    }));

    sched
        .run(tasks)
        .map_err(|panics| format!("seed {seed}: phase 0: task panics: {panics:?}"))?;
    Ok(fs.live_files())
}

fn phase0_interleaved(
    seed: u64,
    cfg: &SimConfig,
    stats: &mut ExploreStats,
) -> Result<(Image, Vec<Vec<Request>>), String> {
    let per_ws: Vec<Vec<Request>> = (0..cfg.workspaces.max(2))
        .map(|i| {
            let ws = format!("w{i}");
            let mut requests = vec![create_request(&ws)];
            requests.extend(churn_mutations(&ws, seed ^ (0x1000 + i as u64), cfg.steps));
            requests
        })
        .collect();

    let image = interleaved_run(seed, &per_ws)?;
    let again = interleaved_run(seed, &per_ws)?;
    if image != again {
        return Err(format!(
            "seed {seed}: phase 0: same seed produced different filesystem images \
             (the scheduler or the stack is nondeterministic)"
        ));
    }

    // Crash-free reopen: fold(log) == state for every workspace, ghost
    // gone.
    let recovered = engine_from_image(&image, NO_COMPACTION, seed)?;
    let names = list_names(&recovered);
    if names.iter().any(|n| n == "ghost") {
        return Err(format!(
            "seed {seed}: phase 0: dropped workspace `ghost` resurrected on reopen"
        ));
    }
    for (i, requests) in per_ws.iter().enumerate() {
        let ws = format!("w{i}");
        let oracle = Engine::new(EngineConfig::default());
        drive_ok(&oracle, requests, "phase 0 oracle", seed)?;
        compare_answers(&recovered, &oracle, &ws, "phase 0: crash-free reopen", seed)?;
    }
    stats.executions += 1;
    Ok((image, per_ws))
}

// ---------------------------------------------------------------------
// Phase A: exhaustive cuts of w0's log
// ---------------------------------------------------------------------

fn phase_a_exhaustive_cuts(
    seed: u64,
    cfg: &SimConfig,
    image: &Image,
    per_ws: &[Vec<Request>],
    stats: &mut ExploreStats,
) -> Result<(), String> {
    let wal_path = PathBuf::from(DATA_DIR).join("ws-w0.wal");
    let full = image
        .iter()
        .find(|(p, _)| *p == wal_path)
        .map(|(_, b)| b.clone())
        .ok_or_else(|| format!("seed {seed}: phase A: w0 log missing from image"))?;

    // Record spans: starts[k]..starts[k+1] is record k (newline framed).
    let mut starts = vec![0usize];
    starts.extend(
        full.iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1),
    );
    let record_count = starts.len() - 1;
    let ends = &starts[1..];

    // Cut positions: every record boundary, plus ≥1 interior byte of
    // every record (its second byte, and its midpoint when long enough).
    // Boundary classification wins on collision (inserted last).
    let mut cuts: BTreeMap<usize, bool> = BTreeMap::new();
    for k in 0..record_count {
        let (start, end) = (starts[k], starts[k + 1]);
        cuts.insert(start + 1, true);
        if end - start >= 4 {
            cuts.insert(start + (end - start) / 2, true);
        }
    }
    for &boundary in &starts {
        cuts.insert(boundary, false);
    }

    // The sibling workspace must stay intact under every cut of w0's
    // log.  Its expected answers are computed once from its own oracle;
    // the fitting question comes first so `product_fresh` converges
    // before the info comparison (a recovered engine rebuilds lazily).
    let w1_probe = [
        Request::FittingExists {
            workspace: "w1".into(),
            class: QueryClass::Cq,
        },
        Request::WorkspaceInfo {
            workspace: "w1".into(),
        },
    ];
    let w1_expected: Option<Vec<String>> = if per_ws.len() > 1 {
        let oracle = Engine::new(EngineConfig::default());
        drive_ok(&oracle, &per_ws[1], "phase A w1 oracle", seed)?;
        Some(
            w1_probe
                .iter()
                .map(|q| serde::to_string(&oracle.handle(q)))
                .collect(),
        )
    } else {
        None
    };

    // The oracle is fed w0's requests progressively as cuts (ascending)
    // let more records survive.
    let oracle = Engine::new(EngineConfig::default());
    let mut oracle_fed = 0usize;
    for (&cut, &is_mid) in &cuts {
        let survived = ends.partition_point(|&end| end <= cut);
        let mut cut_image: Image = image
            .iter()
            .filter(|(p, _)| *p != wal_path)
            .cloned()
            .collect();
        cut_image.push((wal_path.clone(), full[..cut].to_vec()));

        let recovered = engine_from_image(&cut_image, NO_COMPACTION, seed)?;
        while oracle_fed < survived {
            let request = &per_ws[0][oracle_fed];
            let response = oracle.handle(request);
            if !response.is_ok() {
                return Err(format!(
                    "seed {seed}: phase A oracle: {request:?} failed: {response:?}"
                ));
            }
            oracle_fed += 1;
        }

        let names = list_names(&recovered);
        if names.iter().any(|n| n == "ghost") {
            return Err(format!("seed {seed}: phase A cut {cut}: ghost resurrected"));
        }
        if survived == 0 {
            if names.iter().any(|n| n == "w0") {
                return Err(format!(
                    "seed {seed}: phase A cut {cut}: w0 has no intact record but was restored"
                ));
            }
        } else {
            compare_answers(
                &recovered,
                &oracle,
                "w0",
                &format!("phase A cut {cut} ({survived} records survive)"),
                seed,
            )?;
        }
        if let Some(expected) = &w1_expected {
            for (question, want) in w1_probe.iter().zip(expected) {
                let got = serde::to_string(&recovered.handle(question));
                if got != *want {
                    return Err(format!(
                        "seed {seed}: phase A cut {cut}: sibling w1 damaged on \
                         {question:?}\n  want: {want}\n  got:  {got}"
                    ));
                }
            }
        }

        stats.executions += 1;
        stats.crash_points += 1;
        if is_mid {
            stats.mid_record_cuts += 1;
        } else {
            stats.boundary_cuts += 1;
        }
    }
    stats.records += record_count as u64;
    let _ = cfg;
    Ok(())
}

// ---------------------------------------------------------------------
// Phase B: mid-run machine crashes (with compaction in flight)
// ---------------------------------------------------------------------

/// Phase B/C compaction budget: small enough that churn triggers
/// snapshot rewrites, so crashes land inside the temp-file + rename +
/// dir-sync sequence too.
const SMALL_BUDGET: usize = 4;

fn phase_b_workload(seed: u64, cfg: &SimConfig) -> (Vec<Request>, Vec<Vec<Request>>) {
    let ws_names = ["wb0", "wb1"];
    let streams: Vec<Vec<Request>> = ws_names
        .iter()
        .enumerate()
        .map(|(i, ws)| churn_mutations(ws, seed ^ (0x2000 + i as u64), cfg.steps))
        .collect();
    let mut sequence = vec![
        create_request("wb0"),
        create_request("wb1"),
        create_request("drop_me"),
        Request::AddExample {
            workspace: "drop_me".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(d,d)".into()),
        },
        Request::DropWorkspace {
            workspace: "drop_me".into(),
        },
    ];
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for step in 0..longest {
        for stream in &streams {
            if let Some(request) = stream.get(step) {
                sequence.push(request.clone());
            }
        }
    }
    (sequence, streams)
}

/// Whether a response acknowledges a *revision-bumping* mutation.  A
/// remove of an absent id is acknowledged but logs nothing and bumps
/// nothing — after a crash has started failing appends, such no-op acks
/// are common (the examples they target were never added) and must not
/// count toward the at-most-one-lost-ack bound.
fn bumps_revision(response: &Response) -> bool {
    matches!(
        response,
        Response::ExampleAdded { .. } | Response::ExampleRemoved { removed: true, .. }
    )
}

fn phase_b_midrun_crashes(
    seed: u64,
    cfg: &SimConfig,
    stats: &mut ExploreStats,
) -> Result<(), String> {
    let (sequence, streams) = phase_b_workload(seed, cfg);

    // Fault-free dry run sizes the crash-point space.
    let dry_fs = Arc::new(SimFs::new());
    {
        let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::clone(&dry_fs), seed));
        let store = Store::open_with(store_config(SMALL_BUDGET), env)
            .map_err(|e| format!("seed {seed}: phase B dry run: {e}"))?;
        let (engine, _) = Engine::with_store(EngineConfig::default(), store)
            .map_err(|e| format!("seed {seed}: phase B dry run: {e}"))?;
        drive_ok(&engine, &sequence, "phase B dry run", seed)?;
    }
    let total_ops = dry_fs.op_count();

    let mut rng = seed ^ 0xB00B_00B5;
    for _ in 0..cfg.crash_points {
        let crash_op = 1 + splitmix(&mut rng) % total_ops;
        let fs = Arc::new(SimFs::with_plan(FaultPlan {
            crash_at_op: Some(crash_op),
            ..FaultPlan::default()
        }));
        let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::clone(&fs), seed));
        let mut acked_muts = [0usize; 2];
        let mut drop_acked = false;
        // The store (or even startup) may already be inside the crash
        // window; every failure before or during driving just means
        // fewer acknowledged requests.
        if let Ok(store) = Store::open_with(store_config(SMALL_BUDGET), env) {
            if let Ok((engine, _)) = Engine::with_store(EngineConfig::default(), store) {
                for request in &sequence {
                    let response = engine.handle(request);
                    if !response.is_ok() {
                        continue;
                    }
                    match request {
                        Request::AddExample { workspace, .. }
                        | Request::RemoveExample { workspace, .. } => {
                            if let Some(i) = ["wb0", "wb1"].iter().position(|w| w == workspace) {
                                if bumps_revision(&response) {
                                    acked_muts[i] += 1;
                                }
                            }
                        }
                        Request::DropWorkspace { workspace } if workspace == "drop_me" => {
                            drop_acked = true;
                        }
                        _ => {}
                    }
                }
            }
        }

        let image = fs.crash_image(splitmix(&mut rng));
        let recovered = engine_from_image(&image, SMALL_BUDGET, seed)?;
        let names = list_names(&recovered);
        if drop_acked && names.iter().any(|n| n == "drop_me") {
            return Err(format!(
                "seed {seed}: phase B crash@{crash_op}: acknowledged drop of `drop_me` resurrected"
            ));
        }
        for (i, ws) in ["wb0", "wb1"].iter().enumerate() {
            let Some(revision) = workspace_revision(&recovered, ws) else {
                if acked_muts[i] > 0 {
                    return Err(format!(
                        "seed {seed}: phase B crash@{crash_op}: {ws} lost \
                         {} acknowledged mutations entirely",
                        acked_muts[i]
                    ));
                }
                continue;
            };
            let r = revision as usize;
            if r < acked_muts[i] {
                return Err(format!(
                    "seed {seed}: phase B crash@{crash_op}: {ws} recovered revision {r} \
                     below {} acknowledged mutations",
                    acked_muts[i]
                ));
            }
            // Replay the stream on the oracle until r revision-bumping
            // mutations have applied — the log records are exactly the
            // effective mutations in stream order, so this reproduces the
            // recovered state.  No-op removes along the way change
            // nothing on either side.
            let oracle = Engine::new(EngineConfig::default());
            drive_ok(&oracle, &[create_request(ws)], "phase B oracle", seed)?;
            let mut applied = 0usize;
            let mut stream = streams[i].iter();
            while applied < r {
                let Some(request) = stream.next() else {
                    return Err(format!(
                        "seed {seed}: phase B crash@{crash_op}: {ws} recovered revision {r} \
                         exceeds the effective mutations ever issued"
                    ));
                };
                let response = oracle.handle(request);
                if !response.is_ok() {
                    return Err(format!(
                        "seed {seed}: phase B oracle: {request:?} failed: {response:?}"
                    ));
                }
                if bumps_revision(&response) {
                    applied += 1;
                }
            }
            compare_answers(
                &recovered,
                &oracle,
                ws,
                &format!("phase B crash@{crash_op}: {ws} revision {r}"),
                seed,
            )?;
        }
        stats.executions += 1;
        stats.crash_points += 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Phase C: short writes and failed syncs
// ---------------------------------------------------------------------

fn phase_c_fault_injection(
    seed: u64,
    cfg: &SimConfig,
    stats: &mut ExploreStats,
) -> Result<(), String> {
    let ws = "wc";
    let mut sequence = vec![create_request(ws)];
    sequence.extend(churn_mutations(ws, seed ^ 0x3000, cfg.steps));

    let dry_fs = Arc::new(SimFs::new());
    {
        let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::clone(&dry_fs), seed));
        let store = Store::open_with(store_config(SMALL_BUDGET), env)
            .map_err(|e| format!("seed {seed}: phase C dry run: {e}"))?;
        let (engine, _) = Engine::with_store(EngineConfig::default(), store)
            .map_err(|e| format!("seed {seed}: phase C dry run: {e}"))?;
        drive_ok(&engine, &sequence, "phase C dry run", seed)?;
    }
    let (writes, syncs) = dry_fs.write_sync_counts();

    let mut rng = seed ^ 0xFA17_FA17;
    for point in 0..cfg.fault_points {
        let plan = if point % 2 == 0 {
            FaultPlan {
                fail_write: Some((splitmix(&mut rng) % writes.max(1), {
                    (splitmix(&mut rng) % 48) as usize
                })),
                ..FaultPlan::default()
            }
        } else {
            FaultPlan {
                fail_sync: Some(splitmix(&mut rng) % syncs.max(1)),
                ..FaultPlan::default()
            }
        };
        let fault_desc = format!("{plan:?}");
        let fs = Arc::new(SimFs::with_plan(plan));
        let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::clone(&fs), seed));
        let store = Store::open_with(store_config(SMALL_BUDGET), env)
            .map_err(|e| format!("seed {seed}: phase C: store open failed: {e}"))?;
        let (engine, _) = Engine::with_store(EngineConfig::default(), store)
            .map_err(|e| format!("seed {seed}: phase C: startup failed: {e}"))?;

        // Drive through the fault: exactly the acknowledged requests
        // define the oracle's view.
        let acked: Vec<Request> = sequence
            .iter()
            .filter(|request| engine.handle(request).is_ok())
            .cloned()
            .collect();
        let oracle = Engine::new(EngineConfig::default());
        drive_ok(&oracle, &acked, "phase C oracle", seed)?;
        compare_answers(
            &engine,
            &oracle,
            ws,
            &format!("phase C live after fault {fault_desc}"),
            seed,
        )?;

        // Removing an id that was never assigned must no-op identically
        // on both sides (only successful removals are ever logged).
        let absent = Request::RemoveExample {
            workspace: ws.into(),
            polarity: Polarity::Positive,
            id: 999_999,
        };
        let want = serde::to_string(&oracle.handle(&absent));
        let have = serde::to_string(&engine.handle(&absent));
        if have != want {
            return Err(format!(
                "seed {seed}: phase C fault {fault_desc}: remove-of-absent diverged \
                 (oracle {want}, got {have})"
            ));
        }

        // Reopen from the surviving bytes: the log a faulted run leaves
        // behind still folds to the acknowledged state.
        let reopened = engine_from_image(&fs.live_files(), SMALL_BUDGET, seed)?;
        compare_answers(
            &reopened,
            &oracle,
            ws,
            &format!("phase C reopen after fault {fault_desc}"),
            seed,
        )?;

        stats.executions += 2;
        stats.crash_points += 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Phase G: group-committed intra-batch torn tails
// ---------------------------------------------------------------------

/// Concurrent appender threads in phase G.  Real threads, not the
/// cooperative scheduler: the commit queue only forms multi-record
/// batches when one append stages while another holds the leader role,
/// which a run-to-yield scheduler never produces.  Every invariant the
/// phase checks is a property of the final log bytes, independent of
/// which interleaving happened to occur.
const GROUP_THREADS: usize = 6;

/// Builds the per-thread append streams for phase G: adds only (every
/// record is acked and revision-bumping), globally unique example ids.
fn phase_g_streams(seed: u64, cfg: &SimConfig) -> Vec<Vec<LogRecord>> {
    let schema = cqfit_data::Schema::digraph();
    let rc = RandomConfig {
        num_values: 3,
        density: 0.35,
        arity: 0,
        num_positive: 3,
        num_negative: 3,
        seed: seed ^ 0x6000,
    };
    let pool: Vec<LogRecord> =
        resolve_churn(&churn_workload(&schema, &rc, cfg.steps.max(8) * 8), 0)
            .into_iter()
            .filter_map(|op| match op {
                ResolvedChurnOp::Add { positive, example } => Some((positive, example)),
                ResolvedChurnOp::Remove { .. } => None,
            })
            .enumerate()
            .map(|(i, (positive, example))| LogRecord::AddExample {
                id: i as u64,
                positive,
                example: *example,
                request_id: None,
            })
            .collect();
    let mut streams: Vec<Vec<LogRecord>> = (0..GROUP_THREADS).map(|_| Vec::new()).collect();
    for (i, record) in pool.into_iter().enumerate() {
        streams[i % GROUP_THREADS].push(record);
    }
    streams
}

fn phase_g_group_commit(
    seed: u64,
    cfg: &SimConfig,
    stats: &mut ExploreStats,
) -> Result<(), String> {
    let ws = "wg";
    let wal_path = PathBuf::from(DATA_DIR).join(format!("ws-{ws}.wal"));
    let schema = cqfit_data::Schema::digraph();
    let streams = phase_g_streams(seed, cfg);
    let total_records: usize = streams.iter().map(Vec::len).sum();
    if total_records < GROUP_THREADS {
        return Err(format!(
            "seed {seed}: phase G: churn pool degenerated to {total_records} adds"
        ));
    }

    // Run concurrent appenders until some write carried ≥ 2 records (a
    // group commit).  Natural contention cannot be trusted to produce
    // one — on a single-CPU machine the instant sim-disk lets each
    // appender finish inside its scheduler quantum, so the fault plan
    // stalls the first post-create write (the first leader's batch,
    // write #1; write #0 is the Create record) until the gate opens.
    // Every other appender stages behind the held leader and the next
    // flush carries a multi-record batch deterministically.
    let mut committed: Option<(Image, Vec<(usize, usize)>)> = None;
    for attempt in 0..8u64 {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let fs = Arc::new(SimFs::with_plan(FaultPlan {
            stall_write: Some((1, Arc::clone(&gate))),
            ..FaultPlan::default()
        }));
        let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::clone(&fs), seed));
        let store = Store::open_with(store_config(NO_COMPACTION), env)
            .map_err(|e| format!("seed {seed}: phase G: store open failed: {e}"))?;
        store
            .create_workspace(ws, &schema, 0)
            .map_err(|e| format!("seed {seed}: phase G: create failed: {e}"))?;
        let store = Arc::new(store);
        // All appenders release together: without the barrier, thread
        // spawn latency dwarfs an append and the streams run back to
        // back instead of contending (no batches would ever form).
        let barrier = Arc::new(std::sync::Barrier::new(streams.len()));
        std::thread::scope(|scope| {
            for records in &streams {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for record in records {
                        // Every append is acked: the durability claim
                        // below covers exactly these records.
                        store
                            .append(ws, record, || unreachable!("no compaction in phase G"))
                            .expect("phase G append acked");
                    }
                });
            }
            // Give every appender time to reach the commit queue behind
            // the stalled leader (the leader's spin loop yields, so the
            // stagers run even on one CPU), then release the disk.
            std::thread::sleep(Duration::from_millis(10 * (attempt + 1)));
            gate.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        store
            .sync_all()
            .map_err(|e| format!("seed {seed}: phase G: shutdown sync failed: {e}"))?;
        let image = fs.live_files();
        let full = image
            .iter()
            .find(|(p, _)| *p == wal_path)
            .map(|(_, b)| b.clone())
            .ok_or_else(|| format!("seed {seed}: phase G: log missing"))?;
        let newline_count = |span: &(usize, usize)| {
            full[span.0..span.0 + span.1]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
        };
        let batched: Vec<(usize, usize)> = fs
            .append_write_spans(&wal_path)
            .into_iter()
            .filter(|span| newline_count(span) >= 2)
            .collect();
        if !batched.is_empty() {
            stats.group_batches += batched.len() as u64;
            committed = Some((image, batched));
            break;
        }
    }
    let Some((image, batched)) = committed else {
        return Err(format!(
            "seed {seed}: phase G: no multi-record group commit materialized in 8 attempts"
        ));
    };
    let full = image
        .iter()
        .find(|(p, _)| *p == wal_path)
        .map(|(_, b)| b.clone())
        .expect("checked above");
    let total_lines = full.iter().filter(|&&b| b == b'\n').count();
    if total_lines != total_records + 1 {
        return Err(format!(
            "seed {seed}: phase G: {total_lines} records on disk, expected \
             create + {total_records} acked appends"
        ));
    }

    // Cut inside the largest batched write: every record boundary within
    // the span, plus interior bytes of every record it covers.
    let &(span_off, span_len) = batched
        .iter()
        .max_by_key(|&&(_, len)| len)
        .expect("non-empty");
    let mut cuts: BTreeMap<usize, bool> = BTreeMap::new();
    let mut record_start = span_off;
    for (i, &byte) in full.iter().enumerate().skip(span_off).take(span_len) {
        if byte == b'\n' {
            cuts.insert(record_start + 1, true);
            if i - record_start >= 4 {
                cuts.insert(record_start + (i - record_start) / 2, true);
            }
            cuts.insert(i + 1, false);
            record_start = i + 1;
        }
    }
    for (&cut, &is_mid) in &cuts {
        // The acked prefix surviving this cut, straight from the bytes:
        // everything up to the last record boundary before the cut.
        let kept = full[..cut]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .expect("the create record precedes every batch");
        let survived_lines = full[..cut].iter().filter(|&&b| b == b'\n').count();

        let fs = Arc::new(SimFs::new());
        for (path, bytes) in &image {
            if *path == wal_path {
                fs.install(path, &bytes[..cut]);
            } else {
                fs.install(path, bytes);
            }
        }
        let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::clone(&fs), seed));
        let store = Store::open_with(store_config(NO_COMPACTION), env)
            .map_err(|e| format!("seed {seed}: phase G cut {cut}: open failed: {e}"))?;
        let (restored, report) = store
            .recover()
            .map_err(|e| format!("seed {seed}: phase G cut {cut}: recovery failed: {e}"))?;
        if report.records_replayed != survived_lines as u64
            || report.torn_bytes_dropped != (cut - kept) as u64
        {
            return Err(format!(
                "seed {seed}: phase G cut {cut}: replayed {} records / dropped {} \
                 torn bytes, expected {survived_lines} / {}",
                report.records_replayed,
                report.torn_bytes_dropped,
                cut - kept
            ));
        }
        // Truncation must land on a record boundary of the acked prefix
        // only — never mid-record, never past the cut.
        let on_disk = fs
            .read(&wal_path)
            .map_err(|e| format!("seed {seed}: phase G cut {cut}: read-back failed: {e}"))?;
        if on_disk != full[..kept] {
            return Err(format!(
                "seed {seed}: phase G cut {cut}: log truncated to {} bytes, \
                 expected the {kept}-byte acked record boundary",
                on_disk.len()
            ));
        }
        // fold(log) == state over the surviving records: counts derived
        // from the surviving lines themselves (commit order is
        // schedule-dependent; the invariant is not).
        let prefix = std::str::from_utf8(&full[..kept]).expect("JSONL log is UTF-8");
        let expected_pos = prefix.matches("\"polarity\":\"positive\"").count();
        let [workspace] = &restored[..] else {
            return Err(format!(
                "seed {seed}: phase G cut {cut}: {} workspaces restored",
                restored.len()
            ));
        };
        let snapshot = workspace.to_snapshot();
        let expected_revision = (survived_lines - 1) as u64;
        if snapshot.revision != expected_revision
            || snapshot.positives.len() != expected_pos
            || snapshot.negatives.len() != survived_lines - 1 - expected_pos
        {
            return Err(format!(
                "seed {seed}: phase G cut {cut}: folded state (revision {}, \
                 {}+{} examples) diverged from the {survived_lines}-record \
                 acked prefix ({expected_pos} positive)",
                snapshot.revision,
                snapshot.positives.len(),
                snapshot.negatives.len()
            ));
        }
        stats.executions += 1;
        stats.crash_points += 1;
        if is_mid {
            stats.group_mid_cuts += 1;
        } else {
            stats.group_boundary_cuts += 1;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Phase N: network fault injection over a simulated wire
// ---------------------------------------------------------------------

/// The scripted session for one seed: one workspace of churn plus the
/// question battery, all spoken over the wire.  (The trailing `Shutdown`
/// is issued by the client task itself, with its own lost-ack handling.)
fn phase_n_script(seed: u64, cfg: &SimConfig) -> Vec<Request> {
    let ws = "wn";
    let mut requests = vec![create_request(ws)];
    requests.extend(churn_mutations(ws, seed ^ 0x4000, cfg.net_steps));
    requests.extend(questions(ws));
    requests
}

/// One wire session's observable outcome (phases N and M).
struct NetSession {
    /// Serialized responses in request order.
    transcript: Vec<String>,
    /// Cumulative delivered bytes after each completed write — the frame
    /// boundaries later cut sweeps target.
    marks: Vec<u64>,
    /// `(retries, reconnects, backoff_sleeps)` from the client's metric
    /// registry, sampled after the script but *before* the shutdown
    /// exchange (whose tolerated refused-reconnects would otherwise
    /// pollute the counts).
    client_counters: (u64, u64, u64),
    /// The server-side engine, kept alive so phase M can cross-check its
    /// registry after the session.
    engine: Arc<Engine>,
}

/// Runs the script through a real `Server`/`Client` pair over a
/// [`SimNet`] under the deterministic scheduler, optionally cutting the
/// wire after `cut_at` delivered payload bytes.
///
/// With `pipelined`, the whole script goes out as one
/// [`Client::call_pipelined`] burst instead of call-by-call: a cut then
/// forces the client to replay the *entire* batch with the same request
/// ids over a fresh connection, so the already-applied prefix must be
/// answered from the idempotency memo for the transcript to match.
fn phase_n_session(
    seed: u64,
    script: &[Request],
    cut_at: Option<u64>,
    pipelined: bool,
) -> Result<NetSession, String> {
    let sched = Arc::new(SimScheduler::new(seed));
    let sim_env = SimEnv::with_scheduler(Arc::new(SimFs::new()), Arc::clone(&sched), seed);
    let net = SimNet::new(
        sim_env.clock_handle(),
        Some(Arc::clone(&sched)),
        seed,
        NetFaultPlan {
            refuse_connects: 0,
            cut_at,
        },
    );
    let env: Arc<dyn Env> = Arc::new(sim_env.with_net(Arc::clone(&net)));
    let engine = Arc::new(Engine::with_env(EngineConfig::default(), Arc::clone(&env)));
    let engine_probe = Arc::clone(&engine);
    let server = Server::bind("sim:harness", engine)
        .map_err(|e| format!("seed {seed}: phase N: bind failed: {e}"))?;

    let transcript = Arc::new(Mutex::new(Vec::new()));
    let counters = Arc::new(Mutex::new((0u64, 0u64, 0u64)));
    let script_owned = script.to_vec();
    let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
        Box::new(move || {
            server.run_sequential().expect("phase N server run");
        }),
        {
            let env = Arc::clone(&env);
            let transcript = Arc::clone(&transcript);
            let counters = Arc::clone(&counters);
            Box::new(move || {
                let mut client =
                    Client::connect_with("sim:harness", Arc::clone(&env), 8).expect("connect");
                client.set_call_timeout(Some(Duration::from_secs(2)));
                client.set_retry(RetryPolicy {
                    attempts: 8,
                    base: Duration::from_millis(10),
                    cap: Duration::from_millis(160),
                });
                if pipelined {
                    let responses = client
                        .call_pipelined(&script_owned)
                        .expect("pipelined script");
                    let mut transcript = transcript.lock().expect("transcript");
                    for response in &responses {
                        transcript.push(serde::to_string(response));
                    }
                } else {
                    for request in &script_owned {
                        let response = client.call(request).expect("scripted call");
                        transcript
                            .lock()
                            .expect("transcript")
                            .push(serde::to_string(&response));
                    }
                }
                // Sample the resilience counters while they still reflect
                // the script alone: the shutdown below tolerates refused
                // reconnects, which would inflate them.
                let registry = client.registry();
                *counters.lock().expect("counters") = (
                    registry.client_retries.get(),
                    registry.client_reconnects.get(),
                    registry.client_backoff_sleeps.get(),
                );
                // Drive shutdown to completion.  A refused reconnect means
                // the server already processed the shutdown but the wire
                // died before the acknowledgment — success, not failure.
                match client.call(&Request::Shutdown) {
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {}
                    Err(e) => panic!("shutdown never acknowledged: {e}"),
                }
            })
        },
    ];
    sched.run(tasks).map_err(|panics| {
        format!("seed {seed}: phase N (cut {cut_at:?}): task panics: {panics:?}")
    })?;

    let transcript = transcript.lock().expect("transcript").clone();
    let client_counters = *counters.lock().expect("counters");
    Ok(NetSession {
        transcript,
        marks: net.write_marks(),
        client_counters,
        engine: engine_probe,
    })
}

/// Phase N: the scripted session must be wire-transparent (byte-equal to
/// the in-process oracle) when fault-free, deterministic per seed, and —
/// under a cut at any byte of the conversation — the resilient client's
/// reconnect-and-retry must reproduce the *identical* transcript:
/// acknowledged mutations survive, retried mutations apply exactly once
/// (the final `WorkspaceInfo` revision would expose a double-apply), and
/// drains answer fully-received requests.
fn phase_n_network(seed: u64, cfg: &SimConfig, stats: &mut ExploreStats) -> Result<(), String> {
    let script = phase_n_script(seed, cfg);

    // The never-dropped oracle: same requests, no network at all.
    let oracle = Engine::new(EngineConfig::default());
    let mut expected = Vec::with_capacity(script.len());
    for request in &script {
        let response = oracle.handle(request);
        if !response.is_ok() {
            return Err(format!(
                "seed {seed}: phase N oracle: {request:?} failed: {response:?}"
            ));
        }
        expected.push(serde::to_string(&response));
    }

    // Fault-free baseline, twice: deterministic and wire-transparent.
    let baseline = phase_n_session(seed, &script, None, false)?;
    let again = phase_n_session(seed, &script, None, false)?;
    if again.transcript != baseline.transcript || again.marks != baseline.marks {
        return Err(format!(
            "seed {seed}: phase N: same seed produced different sessions \
             (the network simulation is nondeterministic)"
        ));
    }
    if baseline.transcript != expected {
        return Err(format!(
            "seed {seed}: phase N: fault-free session diverged from the in-process \
             oracle\n  oracle: {expected:?}\n  wire:   {:?}",
            baseline.transcript
        ));
    }
    stats.net_executions += 2;

    // Cut the wire before the first byte, at every frame boundary, and
    // inside every frame of the baseline conversation.
    let mut cut_points: Vec<(u64, bool)> = vec![(0, false)];
    let mut prev = 0u64;
    for &mark in &baseline.marks {
        if mark - prev >= 2 {
            cut_points.push((prev + (mark - prev) / 2, true));
        }
        cut_points.push((mark, false));
        prev = mark;
    }
    for &(cut, is_mid) in &cut_points {
        let transcript = phase_n_session(seed, &script, Some(cut), false)?.transcript;
        if transcript != expected {
            return Err(format!(
                "seed {seed}: phase N cut@{cut}: transcript diverged from the \
                 never-dropped oracle (a lost acknowledged mutation or a \
                 double-applied retry)\n  oracle: {expected:?}\n  got:    {transcript:?}"
            ));
        }
        stats.net_executions += 1;
        if is_mid {
            stats.net_mid_frame_cuts += 1;
        } else {
            stats.net_boundary_cuts += 1;
        }
    }

    // The same script again, but sent as ONE pipelined burst (plus the
    // trailing Shutdown call).  The wire now carries a handful of coarse
    // frames, so a cut usually lands mid-burst: the server has applied a
    // prefix of the batch, and `call_pipelined` replays the whole batch
    // with the same request ids over a fresh connection.  Exactly-once
    // demands the applied prefix answers from the idempotency memo, so
    // the transcript must still byte-match the never-dropped oracle.
    let pipelined = phase_n_session(seed, &script, None, true)?;
    if pipelined.transcript != expected {
        return Err(format!(
            "seed {seed}: phase N pipelined: fault-free burst diverged from the \
             in-process oracle\n  oracle: {expected:?}\n  wire:   {:?}",
            pipelined.transcript
        ));
    }
    stats.net_pipelined_executions += 1;
    let mut pipe_cuts: Vec<u64> = vec![0];
    let mut prev = 0u64;
    for &mark in &pipelined.marks {
        if mark - prev >= 2 {
            pipe_cuts.push(prev + (mark - prev) / 2);
        }
        pipe_cuts.push(mark);
        prev = mark;
    }
    for &cut in &pipe_cuts {
        let transcript = phase_n_session(seed, &script, Some(cut), true)?.transcript;
        if transcript != expected {
            return Err(format!(
                "seed {seed}: phase N pipelined cut@{cut}: transcript diverged \
                 from the never-dropped oracle (a lost acknowledged mutation or \
                 a double-applied batch retry)\n  oracle: {expected:?}\n  \
                 got:    {transcript:?}"
            ));
        }
        stats.net_pipelined_executions += 1;
        stats.net_pipelined_cuts += 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Phase M: metric cross-checks against the oracle
// ---------------------------------------------------------------------

fn metric_check(seed: u64, context: &str, name: &str, got: u64, want: u64) -> Result<(), String> {
    if got != want {
        return Err(format!(
            "seed {seed}: phase M {context}: metric `{name}` diverged from reality: \
             counted {got}, oracle says {want}"
        ));
    }
    Ok(())
}

/// Phase M: the observability registry must count reality.  Store side:
/// a fault-free durable churn run's append/batch/commit-wait accounting
/// must equal the acknowledged logged mutations (create + every
/// revision-bumping ack), its engine-level counters must byte-match a
/// storeless oracle driven with the same requests, and compaction events
/// must agree with the compaction counter.  Wire side: a fault-free
/// session reports zero retries, every injected cut that consumed a
/// request surfaces as exactly one client retry (reconnects and backoff
/// sleeps in lock-step), and a mid-burst pipelined cut shows the whole
/// applied batch replaying through the server's idempotency-memo
/// counter.  Determinism: the same seed leaves the same registry and
/// traces.
fn phase_m_metric_invariants(
    seed: u64,
    cfg: &SimConfig,
    stats: &mut ExploreStats,
) -> Result<(), String> {
    phase_m_store_metrics(seed, cfg, stats)?;
    phase_m_determinism(seed, cfg, stats)?;
    phase_m_net_metrics(seed, cfg, stats)
}

/// Phase M's store-run sequence: create, seeded churn, then the question
/// battery, all on workspace `wm`.
fn phase_m_sequence(seed: u64, cfg: &SimConfig) -> Vec<Request> {
    let ws = "wm";
    let mut sequence = vec![create_request(ws)];
    sequence.extend(churn_mutations(ws, seed ^ 0x5000, cfg.steps));
    sequence.extend(questions(ws));
    sequence
}

fn phase_m_store_metrics(
    seed: u64,
    cfg: &SimConfig,
    stats: &mut ExploreStats,
) -> Result<(), String> {
    let sequence = phase_m_sequence(seed, cfg);

    // Run 1: exact append accounting (compaction disabled so every acked
    // logged mutation is exactly one append through the commit queue).
    let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::new(SimFs::new()), seed));
    let store = Store::open_with(store_config(NO_COMPACTION), env)
        .map_err(|e| format!("seed {seed}: phase M store open: {e}"))?;
    let (engine, _) = Engine::with_store(EngineConfig::default(), store)
        .map_err(|e| format!("seed {seed}: phase M recovery: {e}"))?;
    let oracle_env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::new(SimFs::new()), seed));
    let oracle = Engine::with_env(EngineConfig::default(), oracle_env);

    // The oracle ack count: the create record plus every acknowledged
    // revision-bumping mutation (no-op removes are acked but log
    // nothing).
    let mut logged = 0u64;
    for request in &sequence {
        let response = engine.handle(request);
        let want = serde::to_string(&oracle.handle(request));
        let have = serde::to_string(&response);
        if have != want {
            return Err(format!(
                "seed {seed}: phase M: durable engine diverged from the oracle on \
                 {request:?}\n  oracle: {want}\n  got:    {have}"
            ));
        }
        if matches!(request, Request::CreateWorkspace { .. }) && response.is_ok() {
            logged += 1;
        }
        if bumps_revision(&response) {
            logged += 1;
        }
    }
    let registry = engine.registry();
    let context = "store run";
    metric_check(
        seed,
        context,
        "store_appends_acked",
        registry.store_appends_acked.get(),
        logged,
    )?;
    metric_check(
        seed,
        context,
        "store_batch_records (sum)",
        registry.store_batch_records.snapshot().sum,
        logged,
    )?;
    metric_check(
        seed,
        context,
        "store_append_ns (count)",
        registry.store_append_ns.count(),
        logged,
    )?;
    metric_check(
        seed,
        context,
        "store_commit_wait_ns (count)",
        registry.store_commit_wait_ns.count(),
        logged,
    )?;
    for (name, counter) in [
        ("store_append_errors", &registry.store_append_errors),
        ("store_rollbacks", &registry.store_rollbacks),
        ("store_poisons", &registry.store_poisons),
        ("store_compactions", &registry.store_compactions),
    ] {
        metric_check(seed, context, name, counter.get(), 0)?;
    }
    metric_check(
        seed,
        context,
        "engine_requests",
        registry.engine_requests.get(),
        sequence.len() as u64,
    )?;
    // Engine-level counters must match the storeless oracle exactly:
    // same requests, same cache configuration, same counting.
    let oracle_registry = oracle.registry();
    for (name, got, want) in [
        (
            "engine_fit_ns (count)",
            registry.engine_fit_ns.count(),
            oracle_registry.engine_fit_ns.count(),
        ),
        (
            "engine_memo_replays",
            registry.engine_memo_replays.get(),
            oracle_registry.engine_memo_replays.get(),
        ),
        (
            "hom_hits",
            registry.hom_hits.get(),
            oracle_registry.hom_hits.get(),
        ),
        (
            "hom_misses",
            registry.hom_misses.get(),
            oracle_registry.hom_misses.get(),
        ),
        (
            "core_hits",
            registry.core_hits.get(),
            oracle_registry.core_hits.get(),
        ),
        (
            "core_misses",
            registry.core_misses.get(),
            oracle_registry.core_misses.get(),
        ),
    ] {
        metric_check(seed, context, name, got, want)?;
    }
    if registry.engine_fit_ns.count() == 0 {
        return Err(format!(
            "seed {seed}: phase M {context}: the question battery computed no fits \
             (engine_fit_ns never recorded)"
        ));
    }
    stats.metric_store_checks += 1;

    // Run 2: with a small compaction budget the compaction counter, the
    // reclaimed-bytes counter, and the structured event ring must tell
    // the same story.
    let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::new(SimFs::new()), seed));
    let store = Store::open_with(store_config(SMALL_BUDGET), env)
        .map_err(|e| format!("seed {seed}: phase M compaction open: {e}"))?;
    let (engine, _) = Engine::with_store(EngineConfig::default(), store)
        .map_err(|e| format!("seed {seed}: phase M compaction recovery: {e}"))?;
    drive_ok(&engine, &sequence, "phase M compaction run", seed)?;
    let registry = engine.registry();
    let compactions = registry.store_compactions.get();
    if cfg.steps > SMALL_BUDGET && compactions == 0 {
        return Err(format!(
            "seed {seed}: phase M compaction run: {} churn steps over a budget of \
             {SMALL_BUDGET} records never compacted",
            cfg.steps
        ));
    }
    if compactions > 0 && registry.store_bytes_compacted.get() == 0 {
        return Err(format!(
            "seed {seed}: phase M compaction run: {compactions} compactions \
             reclaimed zero bytes"
        ));
    }
    let snap = registry.snapshot();
    let compaction_events = snap
        .events
        .iter()
        .filter(|event| event.kind == "store.compaction")
        .count() as u64;
    metric_check(
        seed,
        "compaction run",
        "store.compaction events vs store_compactions",
        compaction_events,
        compactions.min(128),
    )?;
    stats.metric_store_checks += 1;
    Ok(())
}

/// Phase M's store run on a fresh simulated environment, every request
/// traced under its own root context: the registry snapshot and the
/// trace ring it leaves behind.
fn traced_store_run(seed: u64, sequence: &[Request]) -> Result<(Snapshot, Vec<TraceSpan>), String> {
    let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::new(SimFs::new()), seed));
    let store = Store::open_with(store_config(NO_COMPACTION), env)
        .map_err(|e| format!("seed {seed}: phase M traced store open: {e}"))?;
    let (engine, _) = Engine::with_store(EngineConfig::default(), store)
        .map_err(|e| format!("seed {seed}: phase M traced recovery: {e}"))?;
    for request in sequence {
        let root = engine.tracer().root_context();
        let response = engine.handle_traced(request, None, Some(&root));
        if !response.is_ok() {
            return Err(format!(
                "seed {seed}: phase M traced run: {request:?} failed: {response:?}"
            ));
        }
    }
    Ok((engine.registry().snapshot(), engine.registry().traces()))
}

/// Phase M determinism: the traced store run, repeated on a fresh
/// simulated environment with the same seed, must leave the identical
/// registry snapshot and the identical trace spans (ids and timestamps
/// included).
fn phase_m_determinism(seed: u64, cfg: &SimConfig, stats: &mut ExploreStats) -> Result<(), String> {
    let sequence = phase_m_sequence(seed, cfg);
    let (snapshot, traces) = traced_store_run(seed, &sequence)?;
    let (again, again_traces) = traced_store_run(seed, &sequence)?;
    if again != snapshot {
        return Err(format!(
            "seed {seed}: phase M determinism: the same seed left a different registry\n  \
             first:  {snapshot:?}\n  second: {again:?}"
        ));
    }
    if again_traces != traces {
        let at = traces
            .iter()
            .zip(&again_traces)
            .position(|(a, b)| a != b)
            .unwrap_or(traces.len().min(again_traces.len()));
        return Err(format!(
            "seed {seed}: phase M determinism: the same seed left different traces \
             ({} vs {} spans, first difference at span {at})",
            traces.len(),
            again_traces.len()
        ));
    }
    stats.determinism_checks += 1;
    Ok(())
}

fn phase_m_net_metrics(seed: u64, cfg: &SimConfig, stats: &mut ExploreStats) -> Result<(), String> {
    let script = phase_n_script(seed, cfg);

    // Fault-free baseline: zero retries, every request executed exactly
    // once, the connection gauge drained, one request-latency sample and
    // one span per scripted request (the shutdown frame records neither).
    let baseline = phase_n_session(seed, &script, None, false)?;
    let context = "net baseline";
    let (retries, reconnects, sleeps) = baseline.client_counters;
    metric_check(seed, context, "client_retries", retries, 0)?;
    metric_check(seed, context, "client_reconnects", reconnects, 0)?;
    metric_check(seed, context, "client_backoff_sleeps", sleeps, 0)?;
    let registry = baseline.engine.registry();
    metric_check(
        seed,
        context,
        "engine_requests",
        registry.engine_requests.get(),
        script.len() as u64 + 1, // + the shutdown
    )?;
    metric_check(
        seed,
        context,
        "engine_memo_replays",
        registry.engine_memo_replays.get(),
        0,
    )?;
    let snap = registry.snapshot();
    if snap.gauge("server_connections") != 0 {
        return Err(format!(
            "seed {seed}: phase M {context}: connection gauge never drained: {}",
            snap.gauge("server_connections")
        ));
    }
    metric_check(
        seed,
        context,
        "server_request_ns (count)",
        snap.histogram("server_request_ns").map_or(0, |h| h.count),
        script.len() as u64,
    )?;
    let server_spans = registry
        .traces()
        .iter()
        .filter(|span| span.name == "server.request")
        .count();
    metric_check(
        seed,
        context,
        "server.request spans",
        server_spans as u64,
        script.len() as u64,
    )?;
    stats.metric_net_checks += 1;

    // Injected cuts that consume a request must surface as *exactly one*
    // client retry each, with reconnects and backoff sleeps in
    // lock-step, and every retried request either re-executes or replays
    // from the idempotency memo — never both, never neither.  Cuts stay
    // strictly inside the script portion: the last two frames are the
    // shutdown exchange, sampled after the counters.
    let script_marks = &baseline.marks[..baseline.marks.len().saturating_sub(2)];
    let mut cuts: Vec<u64> = vec![0];
    if let Some(&first) = script_marks.first() {
        if first >= 2 {
            cuts.push(first / 2); // inside the first frame
        }
    }
    if let Some(&mid) = script_marks.get(script_marks.len() / 2) {
        cuts.push(mid); // a mid-script frame boundary
    }
    for &cut in &cuts {
        let session = phase_n_session(seed, &script, Some(cut), false)?;
        let context = format!("net cut@{cut}");
        let (retries, reconnects, sleeps) = session.client_counters;
        metric_check(seed, &context, "client_retries", retries, 1)?;
        metric_check(seed, &context, "client_reconnects", reconnects, retries)?;
        metric_check(seed, &context, "client_backoff_sleeps", sleeps, retries)?;
        let registry = session.engine.registry();
        let executed = registry.engine_requests.get();
        let replayed = registry.engine_memo_replays.get();
        let floor = script.len() as u64 + 1;
        if executed + replayed < floor || executed + replayed > floor + retries {
            return Err(format!(
                "seed {seed}: phase M {context}: {executed} executions + {replayed} \
                 memo replays cannot account for {} requests and {retries} retries",
                script.len() + 1
            ));
        }
        stats.metric_net_checks += 1;
        stats.metric_retries_accounted += retries;
    }

    // Pipelined: cut at the first completed write of the burst
    // conversation.  Chunked delivery interleaves the server's early
    // replies with the client's still-in-flight burst, so the cut is
    // guaranteed to land with a *prefix* of the batch applied and its
    // replies lost — the replay of that prefix must come from the
    // idempotency memo (never re-execute), and the retry must be exactly
    // one.
    let pipelined = phase_n_session(seed, &script, None, true)?;
    let (retries, reconnects, sleeps) = pipelined.client_counters;
    metric_check(seed, "pipelined baseline", "client_retries", retries, 0)?;
    metric_check(
        seed,
        "pipelined baseline",
        "client_reconnects",
        reconnects,
        0,
    )?;
    metric_check(
        seed,
        "pipelined baseline",
        "client_backoff_sleeps",
        sleeps,
        0,
    )?;
    stats.metric_net_checks += 1;
    if let Some(&burst_mark) = pipelined.marks.first() {
        let session = phase_n_session(seed, &script, Some(burst_mark), true)?;
        let context = format!("pipelined cut@{burst_mark}");
        let (retries, reconnects, sleeps) = session.client_counters;
        metric_check(seed, &context, "client_retries", retries, 1)?;
        metric_check(seed, &context, "client_reconnects", reconnects, retries)?;
        metric_check(seed, &context, "client_backoff_sleeps", sleeps, retries)?;
        let registry = session.engine.registry();
        let executed = registry.engine_requests.get();
        let replayed = registry.engine_memo_replays.get();
        if replayed == 0 {
            return Err(format!(
                "seed {seed}: phase M {context}: the batch replay never touched the \
                 idempotency memo — an applied mutation was re-executed"
            ));
        }
        // Every script request once, the shutdown, plus re-executions of
        // requests delivered twice by the whole-batch replay; the sum
        // cannot exceed two full deliveries of the script.
        let floor = script.len() as u64 + 1;
        if executed + replayed <= floor || executed + replayed > floor + script.len() as u64 {
            return Err(format!(
                "seed {seed}: phase M {context}: {executed} executions + {replayed} \
                 memo replays cannot account for a whole-batch replay of {} requests",
                script.len()
            ));
        }
        stats.metric_net_checks += 1;
        stats.metric_retries_accounted += retries;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Phase T: causal tracing invariants and the flight-recorder journal
// ---------------------------------------------------------------------

/// One traced durable wire session: both sides' span captures plus the
/// counters and frame marks the causality checks need.
struct TraceSession {
    /// Cumulative delivered bytes after each completed write.
    marks: Vec<u64>,
    /// `(retries, reconnects, backoff_sleeps)`, sampled before the
    /// shutdown exchange (same rationale as [`NetSession`]).
    client_counters: (u64, u64, u64),
    /// The client's trace ring, read at the very end of the client task
    /// — after the shutdown exchange — so every server-side span still
    /// finds its wire-side parent in the union.
    client_spans: Vec<TraceSpan>,
    /// The server-side registry's trace ring after the session.
    server_spans: Vec<TraceSpan>,
}

/// Runs the script like [`phase_n_session`] but against a *durable*
/// engine (a real [`Store`] on the simulated filesystem), so span trees
/// run all the way down to `store.append` / `store.fsync`.
fn phase_t_session(
    seed: u64,
    script: &[Request],
    cut_at: Option<u64>,
    pipelined: bool,
) -> Result<TraceSession, String> {
    let sched = Arc::new(SimScheduler::new(seed));
    let sim_env = SimEnv::with_scheduler(Arc::new(SimFs::new()), Arc::clone(&sched), seed);
    let net = SimNet::new(
        sim_env.clock_handle(),
        Some(Arc::clone(&sched)),
        seed,
        NetFaultPlan {
            refuse_connects: 0,
            cut_at,
        },
    );
    let env: Arc<dyn Env> = Arc::new(sim_env.with_net(Arc::clone(&net)));
    let store = Store::open_with(store_config(NO_COMPACTION), Arc::clone(&env))
        .map_err(|e| format!("seed {seed}: phase T: store open failed: {e}"))?;
    let (engine, _) = Engine::with_store(EngineConfig::default(), store)
        .map_err(|e| format!("seed {seed}: phase T: recovery failed: {e}"))?;
    let engine = Arc::new(engine);
    let engine_probe = Arc::clone(&engine);
    let server = Server::bind("sim:harness", engine)
        .map_err(|e| format!("seed {seed}: phase T: bind failed: {e}"))?;

    let counters = Arc::new(Mutex::new((0u64, 0u64, 0u64)));
    let client_spans = Arc::new(Mutex::new(Vec::new()));
    let script_owned = script.to_vec();
    let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
        Box::new(move || {
            server.run_sequential().expect("phase T server run");
        }),
        {
            let env = Arc::clone(&env);
            let counters = Arc::clone(&counters);
            let client_spans = Arc::clone(&client_spans);
            Box::new(move || {
                let mut client =
                    Client::connect_with("sim:harness", Arc::clone(&env), 8).expect("connect");
                client.set_call_timeout(Some(Duration::from_secs(2)));
                client.set_retry(RetryPolicy {
                    attempts: 8,
                    base: Duration::from_millis(10),
                    cap: Duration::from_millis(160),
                });
                if pipelined {
                    client
                        .call_pipelined(&script_owned)
                        .expect("pipelined script");
                } else {
                    for request in &script_owned {
                        client.call(request).expect("scripted call");
                    }
                }
                let registry = client.registry();
                *counters.lock().expect("counters") = (
                    registry.client_retries.get(),
                    registry.client_reconnects.get(),
                    registry.client_backoff_sleeps.get(),
                );
                match client.call(&Request::Shutdown) {
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {}
                    Err(e) => panic!("shutdown never acknowledged: {e}"),
                }
                *client_spans.lock().expect("client spans") = client.registry().traces();
            })
        },
    ];
    sched.run(tasks).map_err(|panics| {
        format!("seed {seed}: phase T (cut {cut_at:?}): task panics: {panics:?}")
    })?;

    let client_counters = *counters.lock().expect("counters");
    let client_spans = client_spans.lock().expect("client spans").clone();
    Ok(TraceSession {
        marks: net.write_marks(),
        client_counters,
        client_spans,
        server_spans: engine_probe.registry().traces(),
    })
}

/// Asserts the trace-causality invariants over one session's combined
/// client+server span capture; returns `(spans_checked, retry_links)`.
///
/// 1. Every span's parent exists in the same trace — no orphans, even
///    when a reply write died mid-frame.
/// 2. Every `retry_of` link names an existing *sibling* attempt (same
///    parent, same name) in the same trace that started no later, and
///    the links cover at least the sampled client-retry count.
/// 3. Spans nest: a child's interval lies within its parent's when both
///    were captured on the same side; across the wire only the start
///    ordering is asserted (a client attempt can finish before the
///    server reads its reply timestamp under the scheduler).
/// 4. Every acknowledged mutation's `store.append` reaches a
///    `store.fsync` span carrying the same commit batch.  Group commits
///    hang the fsync span off the batch *leader's* trace, so the link is
///    the batch number, not the trace id.
fn check_trace_causality(
    seed: u64,
    context: &str,
    session: &TraceSession,
    min_retry_links: u64,
) -> Result<(u64, u64), String> {
    let mut by_id: BTreeMap<(u128, u64), (&TraceSpan, bool)> = BTreeMap::new();
    for (spans, client_side) in [
        (&session.client_spans, true),
        (&session.server_spans, false),
    ] {
        for span in spans.iter() {
            if span.span_id == 0 {
                return Err(format!(
                    "seed {seed}: phase T {context}: span {:?} has a zero id",
                    span.name
                ));
            }
            if by_id
                .insert((span.trace_id, span.span_id), (span, client_side))
                .is_some()
            {
                return Err(format!(
                    "seed {seed}: phase T {context}: duplicate span id {:016x} in trace {:032x}",
                    span.span_id, span.trace_id
                ));
            }
        }
    }

    let mut checked = 0u64;
    for &(span, client_side) in by_id.values() {
        checked += 1;
        if span.parent_span_id == 0 {
            continue;
        }
        let Some(&(parent, parent_client)) = by_id.get(&(span.trace_id, span.parent_span_id))
        else {
            return Err(format!(
                "seed {seed}: phase T {context}: span {} {:016x} is orphaned — parent \
                 {:016x} missing from trace {:032x}",
                span.name, span.span_id, span.parent_span_id, span.trace_id
            ));
        };
        if client_side == parent_client {
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "seed {seed}: phase T {context}: span {} [{}, {}] escapes its parent \
                     {} [{}, {}]",
                    span.name,
                    span.start_ns,
                    span.end_ns,
                    parent.name,
                    parent.start_ns,
                    parent.end_ns
                ));
            }
        } else if span.start_ns < parent.start_ns {
            return Err(format!(
                "seed {seed}: phase T {context}: span {} started at {} before its \
                 wire-side parent {} at {}",
                span.name, span.start_ns, parent.name, parent.start_ns
            ));
        }
    }

    let mut retry_links = 0u64;
    for &(span, _) in by_id.values() {
        let Some(prev_hex) = span.annotation("retry_of") else {
            continue;
        };
        let Some(prev_id) = TraceContext::parse_span_id(prev_hex) else {
            return Err(format!(
                "seed {seed}: phase T {context}: unparseable retry_of link {prev_hex:?}"
            ));
        };
        let Some(&(prev, _)) = by_id.get(&(span.trace_id, prev_id)) else {
            return Err(format!(
                "seed {seed}: phase T {context}: retry span {:016x} links predecessor \
                 {prev_id:016x} that is missing from trace {:032x}",
                span.span_id, span.trace_id
            ));
        };
        if prev.parent_span_id != span.parent_span_id || prev.name != span.name {
            return Err(format!(
                "seed {seed}: phase T {context}: retry span {:016x}'s predecessor \
                 {prev_id:016x} is not a sibling attempt",
                span.span_id
            ));
        }
        if prev.start_ns > span.start_ns {
            return Err(format!(
                "seed {seed}: phase T {context}: retry span {:016x} started before its \
                 predecessor {prev_id:016x}",
                span.span_id
            ));
        }
        retry_links += 1;
    }
    if retry_links < min_retry_links {
        return Err(format!(
            "seed {seed}: phase T {context}: {retry_links} retry_of link(s) cannot cover \
             {min_retry_links} sampled client retries"
        ));
    }

    let mut appends = 0u64;
    for span in &session.server_spans {
        if span.name != "store.append" {
            continue;
        }
        appends += 1;
        let Some(batch) = span.annotation("batch") else {
            return Err(format!(
                "seed {seed}: phase T {context}: an acknowledged append resolved without \
                 a commit batch annotation"
            ));
        };
        let flushed = session
            .server_spans
            .iter()
            .any(|f| f.name == "store.fsync" && f.annotation("batch") == Some(batch));
        if !flushed {
            return Err(format!(
                "seed {seed}: phase T {context}: append batch {batch} was acknowledged \
                 but no fsync span carries it"
            ));
        }
    }
    if appends == 0 {
        return Err(format!(
            "seed {seed}: phase T {context}: no store.append spans — the traced session \
             never reached the log"
        ));
    }
    Ok((checked, retry_links))
}

/// Phase T (wire half): four traced durable sessions — call-by-call and
/// pipelined, fault-free and under a seeded wire cut — each validated by
/// [`check_trace_causality`].  The cut runs must produce retry spans
/// whose `retry_of` links are checked non-vacuously.
fn phase_t_tracing(seed: u64, cfg: &SimConfig, stats: &mut ExploreStats) -> Result<(), String> {
    let script = phase_n_script(seed, cfg);

    let baseline = phase_t_session(seed, &script, None, false)?;
    if baseline.client_counters != (0, 0, 0) {
        return Err(format!(
            "seed {seed}: phase T: fault-free baseline retried: {:?}",
            baseline.client_counters
        ));
    }
    let (checked, _) = check_trace_causality(seed, "trace baseline", &baseline, 0)?;
    stats.trace_sessions += 1;
    stats.trace_spans_checked += checked;

    // A mid-script frame boundary cut: the lost reply forces exactly one
    // retry, whose span must link its predecessor attempt.  Cuts stay
    // inside the script portion (the last two frames are the shutdown
    // exchange).
    let script_marks = &baseline.marks[..baseline.marks.len().saturating_sub(2)];
    if let Some(&mid) = script_marks.get(script_marks.len() / 2) {
        let session = phase_t_session(seed, &script, Some(mid), false)?;
        let (retries, _, _) = session.client_counters;
        if retries == 0 {
            return Err(format!(
                "seed {seed}: phase T cut@{mid}: the cut consumed no request — the \
                 retry-link invariant would be vacuous"
            ));
        }
        let (checked, links) =
            check_trace_causality(seed, &format!("trace cut@{mid}"), &session, retries)?;
        stats.trace_sessions += 1;
        stats.trace_spans_checked += checked;
        stats.trace_retry_links += links;
    }

    // The pipelined burst, fault-free and cut at its first completed
    // write — a guaranteed mid-batch loss forcing a whole-batch replay
    // under fresh attempt spans.
    let pipelined = phase_t_session(seed, &script, None, true)?;
    let (checked, _) = check_trace_causality(seed, "trace pipelined", &pipelined, 0)?;
    stats.trace_sessions += 1;
    stats.trace_spans_checked += checked;
    if let Some(&burst) = pipelined.marks.first() {
        let session = phase_t_session(seed, &script, Some(burst), true)?;
        let (retries, _, _) = session.client_counters;
        let (checked, links) = check_trace_causality(
            seed,
            &format!("trace pipelined cut@{burst}"),
            &session,
            retries,
        )?;
        stats.trace_sessions += 1;
        stats.trace_spans_checked += checked;
        stats.trace_retry_links += links;
    }
    Ok(())
}

/// A deterministic span for the journal cut sweep: distinct per index,
/// annotated, well under one slot.
fn fr_span(seed: u64, index: u64) -> TraceSpan {
    TraceSpan {
        trace_id: (u128::from(seed) << 64) | u128::from(index + 1),
        span_id: index + 1,
        parent_span_id: index, // zero for the first: a root
        name: format!("sim.fr.{index}"),
        start_ns: 1_000 * index,
        end_ns: 1_000 * index + 250,
        annotations: vec![("seed".into(), format!("{seed:#x}"))],
    }
}

/// Phase T (journal half): the flight recorder's crash story on the
/// simulated filesystem.  The journal is cut at every slot boundary and
/// at ≥1 interior byte of every slot; each cut must decode — and fully
/// recover through `FlightRecorder::open` on a fresh filesystem — to
/// exactly the spans journaled before it.  A torn header yields nothing,
/// and a wrapped journal decodes to the newest generation only.
fn phase_t_flight_recorder(seed: u64, stats: &mut ExploreStats) -> Result<(), String> {
    const SLOTS: usize = 8;
    let dir = PathBuf::from("/sim/fr");
    let path = dir.join(FR_FILE_NAME);
    let fs = Arc::new(SimFs::new());
    let env: Arc<dyn Env> = Arc::new(SimEnv::new(Arc::clone(&fs), seed));
    let (recorder, recovered) = FlightRecorder::open(env, &dir, SLOTS, true)
        .map_err(|e| format!("seed {seed}: phase T: recorder open failed: {e}"))?;
    if !recovered.is_empty() {
        return Err(format!(
            "seed {seed}: phase T: a fresh journal recovered {} spans",
            recovered.len()
        ));
    }
    let spans: Vec<TraceSpan> = (0..6).map(|i| fr_span(seed, i)).collect();
    for span in &spans {
        recorder
            .record(span)
            .map_err(|e| format!("seed {seed}: phase T: record failed: {e}"))?;
    }
    let live = |fs: &SimFs| {
        fs.live_files()
            .into_iter()
            .find(|(p, _)| *p == path)
            .map(|(_, b)| b)
    };
    let bytes = live(&fs).ok_or_else(|| format!("seed {seed}: phase T: journal never written"))?;
    if bytes.len() != FR_HEADER_BYTES + spans.len() * FR_SLOT_BYTES {
        return Err(format!(
            "seed {seed}: phase T: journal is {} bytes, expected header + {} slots",
            bytes.len(),
            spans.len()
        ));
    }

    for kept in 0..=spans.len() {
        let cut = FR_HEADER_BYTES + kept * FR_SLOT_BYTES;
        let decoded = decode_journal(&bytes[..cut]);
        if decoded != spans[..kept] {
            return Err(format!(
                "seed {seed}: phase T: boundary cut after {kept} slot(s) decoded {} \
                 span(s) instead of the journaled prefix",
                decoded.len()
            ));
        }
        // The full open path must agree with the pure decoder: recovery
        // over the truncated image truncates the torn tail and returns
        // the same prefix.
        let crashed = Arc::new(SimFs::new());
        crashed.install(&path, &bytes[..cut]);
        let crashed_env: Arc<dyn Env> = Arc::new(SimEnv::new(crashed, seed));
        let (_, recovered) = FlightRecorder::open(crashed_env, &dir, SLOTS, true)
            .map_err(|e| format!("seed {seed}: phase T: reopen at cut {cut} failed: {e}"))?;
        if recovered != spans[..kept] {
            return Err(format!(
                "seed {seed}: phase T: reopen at boundary cut {cut} recovered {} span(s) \
                 instead of the journaled prefix of {kept}",
                recovered.len()
            ));
        }
        stats.fr_boundary_cuts += 1;
    }
    // ≥1 interior byte per slot: the torn slot is dropped, never a
    // partial or garbage span.
    for kept in 0..spans.len() {
        for offset in [FR_SLOT_BYTES / 3, FR_SLOT_BYTES - 1] {
            let cut = FR_HEADER_BYTES + kept * FR_SLOT_BYTES + offset;
            let decoded = decode_journal(&bytes[..cut]);
            if decoded != spans[..kept] {
                return Err(format!(
                    "seed {seed}: phase T: interior cut at byte {cut} decoded {} span(s) \
                     instead of dropping the torn slot",
                    decoded.len()
                ));
            }
            stats.fr_mid_cuts += 1;
        }
    }
    // A torn header yields nothing (and must not panic).
    if !decode_journal(&bytes[..FR_HEADER_BYTES - 3]).is_empty() {
        return Err(format!(
            "seed {seed}: phase T: a torn header decoded spans out of thin air"
        ));
    }

    // Wrap: drive past capacity; the live journal holds the newest
    // generation only, still strictly sequenced.
    let total = SLOTS as u64 + 3;
    let all: Vec<TraceSpan> = (0..total).map(|i| fr_span(seed, i)).collect();
    for span in &all[spans.len()..] {
        recorder
            .record(span)
            .map_err(|e| format!("seed {seed}: phase T: wrap record failed: {e}"))?;
    }
    let bytes =
        live(&fs).ok_or_else(|| format!("seed {seed}: phase T: wrapped journal missing"))?;
    let decoded = decode_journal(&bytes);
    if decoded != all[SLOTS..] {
        return Err(format!(
            "seed {seed}: phase T: wrapped journal decoded {} span(s) instead of the \
             newest generation of {}",
            decoded.len(),
            total as usize - SLOTS
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Determinism as an invariant: the same seed drives the same
    /// requests to the same metrics (counters, gauges, histogram
    /// summaries, the event ring) and the same trace spans, ids and
    /// timestamps included.  Several seeds, because which hom checks a
    /// question runs (and so the cache counters and span timings) depends
    /// on the seeded example shapes.
    #[test]
    fn same_seed_gives_identical_metrics_and_traces() {
        let mut hom_misses = 0;
        for seed in 0..16 {
            let sequence = phase_m_sequence(seed, &SimConfig::smoke());
            let (snapshot, traces) = traced_store_run(seed, &sequence).unwrap();
            let (again, again_traces) = traced_store_run(seed, &sequence).unwrap();
            assert_eq!(again, snapshot, "seed {seed}: same seed, same registry");
            assert_eq!(again_traces, traces, "seed {seed}: same seed, same traces");
            hom_misses += snapshot.counter("hom_misses");
        }
        assert!(hom_misses > 0, "the question batteries ran hom checks");
    }

    /// One small seed through all seven phases: the harness's own smoke
    /// test (the exhaustive sweep runs via the `cqfit-sim` binary and
    /// the repo-level recovery suite).
    #[test]
    fn explore_smoke_seed_passes_all_phases() {
        let cfg = SimConfig {
            steps: 6,
            workspaces: 2,
            crash_points: 2,
            fault_points: 2,
            net_steps: 3,
        };
        let stats = explore(0xC0FFEE, &cfg).expect("invariants hold");
        assert!(stats.executions > 10, "stats: {stats:?}");
        assert!(stats.boundary_cuts >= 7, "every boundary cut: {stats:?}");
        assert!(
            stats.mid_record_cuts >= stats.records,
            "≥1 mid-record cut per record: {stats:?}"
        );
        assert_eq!(stats.records, 7, "create + 6 churn records: {stats:?}");
        // Phase G: at least one multi-record group commit formed, and its
        // batch was cut both on record boundaries and mid-record.
        assert!(stats.group_batches >= 1, "stats: {stats:?}");
        assert!(stats.group_boundary_cuts >= 2, "stats: {stats:?}");
        assert!(stats.group_mid_cuts >= 1, "stats: {stats:?}");
        // Phase N: create + 3 churn + 6 questions + shutdown = 11 calls =
        // 22 frames → 22 boundary cuts + the cut-before-the-first-byte,
        // ≥1 mid-frame cut per frame, plus the two baselines.
        assert_eq!(stats.net_boundary_cuts, 23, "stats: {stats:?}");
        assert!(stats.net_mid_frame_cuts >= 22, "stats: {stats:?}");
        assert_eq!(
            stats.net_executions,
            2 + stats.net_boundary_cuts + stats.net_mid_frame_cuts,
            "stats: {stats:?}"
        );
        // Phase N pipelined sub-sweep: the burst collapses the client
        // side to two frames (batch + shutdown) but the server still
        // answers frame-by-frame, so there are ≥ 13 marks to cut at
        // (plus mid-frame cuts and the cut-before-the-first-byte).
        assert!(stats.net_pipelined_cuts >= 14, "stats: {stats:?}");
        assert_eq!(
            stats.net_pipelined_executions,
            1 + stats.net_pipelined_cuts,
            "stats: {stats:?}"
        );
        // Phase M: two store-side registry cross-checks (exact append
        // accounting + compaction events), six wire sessions (two
        // fault-free baselines, three sequential cuts, one pipelined
        // burst cut), and each of the four request-consuming cuts
        // accounted as exactly one client retry.
        assert_eq!(stats.metric_store_checks, 2, "stats: {stats:?}");
        assert_eq!(stats.metric_net_checks, 6, "stats: {stats:?}");
        assert_eq!(stats.metric_retries_accounted, 4, "stats: {stats:?}");
        assert_eq!(stats.determinism_checks, 1, "stats: {stats:?}");
        // Phase T: four traced durable sessions (baseline, cut,
        // pipelined, pipelined cut), each cut session contributing ≥1
        // verified retry link; the journal cut at every slot boundary
        // (0..=6 for six recorded slots) and twice inside every slot.
        assert_eq!(stats.trace_sessions, 4, "stats: {stats:?}");
        assert!(stats.trace_spans_checked >= 100, "stats: {stats:?}");
        assert!(stats.trace_retry_links >= 2, "stats: {stats:?}");
        assert_eq!(stats.fr_boundary_cuts, 7, "stats: {stats:?}");
        assert_eq!(stats.fr_mid_cuts, 12, "stats: {stats:?}");
    }

    /// A seeded wire cut must report *exactly* the expected resilience
    /// counters — the metrics layer is deterministic under sim, so the
    /// numbers are pinned, not bounded.  Cutting the wire right after
    /// the third request frame loses only that reply: the client retries
    /// once (one reconnect, one backoff sleep) and the server answers
    /// the replayed mutation from the idempotency memo instead of
    /// re-executing it.  Cutting the pipelined conversation at its first
    /// completed write catches the burst with a one-request prefix
    /// applied: the whole-batch replay answers that create from the memo
    /// and re-executes the nine requests the cut discarded.
    #[test]
    fn seeded_wire_cut_reports_exact_retry_and_replay_counters() {
        let cfg = SimConfig {
            steps: 6,
            workspaces: 2,
            crash_points: 2,
            fault_points: 2,
            net_steps: 3,
        };
        let seed = 0xC0FFEE;
        let script = phase_n_script(seed, &cfg);
        assert_eq!(script.len(), 10, "create + 3 churn + 6 questions");

        let baseline = phase_n_session(seed, &script, None, false).expect("baseline");
        assert_eq!(baseline.client_counters, (0, 0, 0));
        let registry = baseline.engine.registry();
        assert_eq!(registry.engine_requests.get(), 11, "script + shutdown");
        assert_eq!(registry.engine_memo_replays.get(), 0);

        // marks[4] is the end of the 5th frame — the third request
        // (writes alternate request/reply), a churn mutation.
        let cut = baseline.marks[4];
        let session = phase_n_session(seed, &script, Some(cut), false).expect("cut run");
        assert_eq!(session.transcript, baseline.transcript, "exactly-once held");
        assert_eq!(
            session.client_counters,
            (1, 1, 1),
            "one cut, one retry, one reconnect, one backoff sleep"
        );
        let registry = session.engine.registry();
        assert_eq!(
            registry.engine_memo_replays.get(),
            1,
            "the lost reply replayed"
        );
        assert_eq!(registry.engine_requests.get(), 11, "nothing re-executed");

        let pipelined = phase_n_session(seed, &script, None, true).expect("pipelined");
        assert_eq!(pipelined.client_counters, (0, 0, 0));
        let burst = pipelined.marks[0];
        let session = phase_n_session(seed, &script, Some(burst), true).expect("burst cut");
        assert_eq!(session.transcript, baseline.transcript, "exactly-once held");
        assert_eq!(session.client_counters, (1, 1, 1));
        let registry = session.engine.registry();
        assert_eq!(
            registry.engine_memo_replays.get(),
            1,
            "the applied create answers from the memo, never re-executes"
        );
        assert_eq!(
            registry.engine_requests.get(),
            11,
            "1 applied + 9 replayed-and-executed + the shutdown"
        );
    }

    /// Clean shutdown flushes the commit queue: `sync_all` racing
    /// concurrent group-committed appends must quiesce each log's staged
    /// batches before syncing, so a crash image taken *at shutdown* (on
    /// the simulated filesystem, with time on the manual clock — no real
    /// sleeps) contains every acknowledged record, for every crash seed.
    #[test]
    fn shutdown_sync_flushes_the_commit_queue() {
        let ws = "wsync";
        let wal_path = PathBuf::from(DATA_DIR).join(format!("ws-{ws}.wal"));
        let fs = Arc::new(SimFs::new());
        let sim_env = SimEnv::new(Arc::clone(&fs), 7);
        let _clock = sim_env.clock_handle(); // ManualClock: nothing sleeps for real
        let env: Arc<dyn Env> = Arc::new(sim_env);
        let store = Arc::new(Store::open_with(store_config(NO_COMPACTION), env).unwrap());
        store
            .create_workspace(ws, &cqfit_data::Schema::digraph(), 0)
            .unwrap();
        let streams = phase_g_streams(7, &SimConfig::smoke());
        let total: usize = streams.iter().map(Vec::len).sum();
        std::thread::scope(|scope| {
            for records in &streams {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for record in records {
                        store
                            .append(ws, record, || unreachable!("no compaction"))
                            .expect("acked append");
                    }
                });
            }
            // Shutdown-style syncs racing the appenders: each must wait
            // out staged batches and in-flight leaders, never sync past
            // them or deadlock.
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..5 {
                    store.sync_all().expect("mid-run sync");
                }
            });
        });
        store.sync_all().expect("shutdown sync");
        let live = fs
            .live_files()
            .into_iter()
            .find(|(p, _)| *p == wal_path)
            .map(|(_, b)| b)
            .expect("log exists");
        assert_eq!(
            live.iter().filter(|&&b| b == b'\n').count(),
            total + 1,
            "create + every acked append is on the log"
        );
        for crash_seed in 0..16 {
            let image = fs.crash_image(crash_seed);
            let (_, bytes) = image
                .iter()
                .find(|(p, _)| *p == wal_path)
                .expect("log survives shutdown");
            assert_eq!(
                *bytes, live,
                "crash seed {crash_seed}: a staged-but-unsynced batch was \
                 dropped on clean shutdown"
            );
        }
    }

    /// The observability event ring under deterministic concurrency:
    /// four writers interleaved by the simulated scheduler push well
    /// past the ring's capacity.  At every capacity boundary the ring
    /// must drop exactly the oldest entry — so the snapshot holds
    /// exactly `EVENT_RING_CAPACITY` events, no entry is duplicated, and
    /// each writer's surviving entries form an in-order contiguous
    /// *suffix* of what it pushed.  Same seed, same interleaving, same
    /// snapshot.
    #[test]
    fn event_ring_interleaved_writers_never_lose_or_duplicate() {
        use cqfit_obs::{Registry, EVENT_RING_CAPACITY};
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 40; // 160 pushes through a 128-slot ring

        let run = |seed: u64| -> Vec<(String, String)> {
            let sched = Arc::new(SimScheduler::new(seed));
            let registry = Arc::new(Registry::new());
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..WRITERS)
                .map(|writer| {
                    let sched = Arc::clone(&sched);
                    let registry = Arc::clone(&registry);
                    Box::new(move || {
                        for i in 0..PER_WRITER {
                            registry.event(
                                (writer * PER_WRITER + i) as u64,
                                "sim.ring",
                                format!("{writer}:{i}"),
                            );
                            sched.maybe_yield();
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            sched.run(tasks).expect("no panics");
            registry
                .snapshot()
                .events
                .iter()
                .map(|e| (e.kind.clone(), e.detail.clone()))
                .collect()
        };

        for seed in [3u64, 0xC0FFEE] {
            let events = run(seed);
            assert_eq!(
                events.len(),
                EVENT_RING_CAPACITY,
                "a full ring holds exactly its capacity"
            );
            let mut seen = std::collections::BTreeSet::new();
            let mut per_writer: Vec<Vec<usize>> = vec![Vec::new(); WRITERS];
            for (kind, detail) in &events {
                assert_eq!(kind, "sim.ring");
                assert!(seen.insert(detail.clone()), "duplicated entry {detail}");
                let (writer, i) = detail.split_once(':').expect("writer:index");
                per_writer[writer.parse::<usize>().unwrap()].push(i.parse().unwrap());
            }
            for (writer, indices) in per_writer.iter().enumerate() {
                // In order, contiguous, and ending at the writer's last
                // push: the ring dropped only this writer's *oldest*
                // entries, never one from the middle.
                let first = indices.first().copied().unwrap_or(PER_WRITER);
                let expected: Vec<usize> = (first..PER_WRITER).collect();
                assert_eq!(
                    indices, &expected,
                    "writer {writer}: survivors must be an in-order suffix"
                );
            }
            assert_eq!(run(seed), events, "same seed, same interleaving");
        }
    }
}
