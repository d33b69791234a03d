//! The in-process fitting engine: a concurrent map of workspaces sharing
//! one hom/core result cache, optionally backed by a durable store.

use crate::protocol::{EngineStats, ExamplePayload, Polarity, Request, Response};
use crate::server::PIPELINE_WINDOW;
use crate::workspace::Workspace;
use cqfit::incremental::IncrementalFitting;
use cqfit_data::parse_example;
use cqfit_env::{Env, RealEnv};
use cqfit_hom::HomCache;
use cqfit_obs::{Registry, TraceContext, Tracer};
use cqfit_store::{LogRecord, RecoveryReport, Store, StoreError, WorkspaceSnapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Maximum accepted workspace/relation arity.  Far above anything the
/// paper's workloads use; bounds the `vec![v; arity]` allocations that
/// wire-supplied sizes would otherwise drive unchecked.
const MAX_ARITY: usize = 64;

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Route hom/core work through a shared [`HomCache`] (default `true`).
    /// Disabling it yields the uncached baseline used by the perf capture.
    pub caching: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { caching: true }
    }
}

/// A long-lived fitting service holding named workspaces.
///
/// All methods take `&self` — the engine is interior-mutability-safe and
/// meant to be shared (`Arc<Engine>`) across request threads:
///
/// * the workspace *map* sits behind an `RwLock` (created/dropped/listed
///   rarely, resolved on every request),
/// * each workspace sits behind its own `Mutex`, so requests against
///   different workspaces run fully in parallel while requests against
///   one workspace serialize (each sees a consistent revision),
/// * hom/core computations run on the thread handling the request, and
///   their results land in the shared [`HomCache`], where *every*
///   workspace and connection can hit them.
///
/// The per-workspace lock is held across the fitting computation; that is
/// deliberate — a fit pins the revision it answers for, and concurrent
/// mutations of the *same* workspace queue behind it (the differential
/// concurrency suite certifies that any interleaving yields the same
/// answers as the sequential schedule).
/// The store contract (when one is attached via [`Engine::with_store`])
/// is **persist before ack**: every mutation is appended to the
/// workspace's write-ahead log — under the same lock that serializes the
/// workspace's mutations, so log order is mutation order — *before* it is
/// applied and acknowledged.  A store append failure leaves the workspace
/// unchanged and surfaces as an error response.
pub struct Engine {
    workspaces: RwLock<HashMap<String, Arc<WorkspaceSlot>>>,
    cache: Option<Arc<HomCache>>,
    /// The unified metrics registry (PR 9).  Durable engines adopt the
    /// store's registry — mirroring the [`Env`] inheritance — so the
    /// whole stack's counters and histograms land in one place; the
    /// hom-cache shares it too.  All timestamps the engine feeds it come
    /// from `env.clock()`, so the numbers are deterministic under sim.
    registry: Arc<Registry>,
    /// The causal tracer (PR 10): opens `engine.handle` spans as children
    /// of the server's request span and threads the context down into
    /// store appends.  Shared so the serve bin can attach a flight
    /// recorder to the whole stack's spans.
    tracer: Arc<Tracer>,
    /// Exactly-once retry memo: the last applied `(request_id, response)`
    /// per workspace (see [`Engine::handle_with_id`]).
    memo: Mutex<IdempotencyMemo>,
    store: Option<Arc<Store>>,
    recovery: RecoveryReport,
    /// The environment all effects route through: time for stats and fit
    /// accounting, yield points for the deterministic scheduler.  Durable
    /// engines inherit the store's environment, so one [`Env`] covers the
    /// whole stack.
    env: Arc<dyn Env>,
    /// Monotonic timestamp of construction ([`EngineStats::uptime_ms`]).
    started: Duration,
}

/// A workspace plus a lock-free mirror of its revision counter, refreshed
/// after every request served under the workspace lock.  `stats()` reads
/// the mirror, so a Stats request never blocks behind a long-running fit.
struct WorkspaceSlot {
    ws: Mutex<Workspace>,
    revision: AtomicU64,
}

impl WorkspaceSlot {
    fn new(ws: Workspace) -> Arc<WorkspaceSlot> {
        let revision = ws.state().revision();
        Arc::new(WorkspaceSlot {
            ws: Mutex::new(ws),
            revision: AtomicU64::new(revision),
        })
    }
}

/// The exactly-once retry memo behind [`Engine::handle_with_id`]: for
/// each workspace, the ids of the most recently applied identified
/// mutations and the responses they produced.  A client that retries a
/// mutation after an ambiguous connection drop (request possibly
/// applied, ack lost) resends the same `request_id`; if the engine has
/// already applied it, the memoed response is returned instead of the
/// mutation running twice.
///
/// The per-workspace ring keeps the last [`PIPELINE_WINDOW`] entries: a
/// pipelined client that loses its connection mid-burst replays the
/// *whole* batch under the same ids, so every mutation the batch may
/// already have applied — not just the newest — must still be
/// answerable (PR 8 closed the one-slot hole here).  Workspaces are
/// evicted FIFO past [`MEMO_CAP`] to bound memory on workspace churn.
/// The memo survives restarts: every identified mutation logs its
/// `request_id` in its WAL record, and recovery reseeds the memo from
/// the last replayed identified mutations per workspace (the responses
/// are deterministic from the records), so a retry that races a crash
/// cannot re-apply after recovery.
#[derive(Debug, Default)]
struct IdempotencyMemo {
    recent: HashMap<String, VecDeque<(u64, Response)>>,
    order: VecDeque<String>,
}

/// Upper bound on workspaces tracked by the [`IdempotencyMemo`].
const MEMO_CAP: usize = 1024;

/// The store must hand recovery at least a pipeline window's worth of
/// replayed request ids, or a batch retry across a crash could re-apply
/// its prefix.
const _: () = assert!(cqfit_store::REPLAY_MEMO_DEPTH >= PIPELINE_WINDOW);

impl IdempotencyMemo {
    fn lookup(&self, workspace: &str, id: u64) -> Option<Response> {
        let ring = self.recent.get(workspace)?;
        ring.iter()
            .find(|(applied, _)| *applied == id)
            .map(|(_, response)| response.clone())
    }

    fn record(&mut self, workspace: &str, id: u64, response: Response) {
        match self.recent.get_mut(workspace) {
            Some(ring) => {
                if ring.len() == PIPELINE_WINDOW {
                    ring.pop_front();
                }
                ring.push_back((id, response));
            }
            None => {
                self.recent
                    .insert(workspace.to_string(), VecDeque::from([(id, response)]));
                self.order.push_back(workspace.to_string());
                while self.order.len() > MEMO_CAP {
                    if let Some(evicted) = self.order.pop_front() {
                        self.recent.remove(&evicted);
                    }
                }
            }
        }
    }

    /// Drops a workspace's memo entry.  Called when the workspace itself
    /// is created or dropped: the memo is keyed by *name*, so without
    /// this a drop-and-recreate under the same name could replay a
    /// memoed response from the dead workspace to a stale request id.
    fn forget(&mut self, workspace: &str) {
        if self.recent.remove(workspace).is_some() {
            self.order.retain(|n| n != workspace);
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// A fresh, non-durable engine over the real environment.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_env(config, RealEnv::arc())
    }

    /// A fresh, non-durable engine over an explicit [`Env`] — the
    /// simulation harness injects its deterministic clock and scheduler
    /// here.
    pub fn with_env(config: EngineConfig, env: Arc<dyn Env>) -> Self {
        let started = env.clock().monotonic();
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(env.clone(), registry.clone()));
        Engine {
            workspaces: RwLock::new(HashMap::new()),
            cache: config
                .caching
                .then(|| Arc::new(HomCache::with_registry(registry.clone()))),
            registry,
            tracer,
            memo: Mutex::new(IdempotencyMemo::default()),
            store: None,
            recovery: RecoveryReport::default(),
            env,
            started,
        }
    }

    /// A durable engine over a [`Store`]: runs recovery (replaying every
    /// workspace log back into an [`IncrementalFitting`], with the
    /// maintained product rebuilt lazily on the first question), then
    /// persists every subsequent mutation before acknowledging it.
    ///
    /// The engine's environment is inherited from the store, so a store
    /// opened with [`Store::open_with`] makes the entire stack — WAL I/O,
    /// stats clock, yield points — run through one injected [`Env`].
    ///
    /// # Errors
    /// Propagates store I/O failures and logs whose restored state fails
    /// validation.
    pub fn with_store(
        config: EngineConfig,
        store: Store,
    ) -> Result<(Engine, RecoveryReport), StoreError> {
        let env = store.env().clone();
        let started = env.clock().monotonic();
        let (restored, report) = store.recover()?;
        let mut map = HashMap::new();
        let mut memo = IdempotencyMemo::default();
        for ws in restored {
            let cqfit_store::RestoredWorkspace {
                name,
                schema,
                arity,
                next_id,
                revision,
                positives,
                negatives,
                recent_requests,
            } = ws;
            // Reseed the exactly-once memo from the log: the response a
            // replayed mutation produced is deterministic from its
            // record, so a client retrying any (possibly unacked)
            // identified mutation of its in-flight batch after the
            // crash gets the original answer instead of a second
            // application.
            for m in recent_requests {
                let polarity = if m.positive {
                    Polarity::Positive
                } else {
                    Polarity::Negative
                };
                let response = if m.added {
                    Response::ExampleAdded {
                        polarity,
                        id: m.example_id,
                    }
                } else {
                    // Only successful removals are logged.
                    Response::ExampleRemoved {
                        polarity,
                        id: m.example_id,
                        removed: true,
                    }
                };
                memo.record(&name, m.request_id, response);
            }
            let state = IncrementalFitting::from_parts(
                Arc::new(schema),
                arity,
                positives,
                negatives,
                next_id,
                revision,
            )
            .map_err(|e| {
                StoreError::Corrupt(format!("workspace `{name}` cannot be restored: {e}"))
            })?;
            map.insert(
                name.clone(),
                WorkspaceSlot::new(Workspace::from_state(name, state)),
            );
        }
        // Adopt the store's registry — like the store's [`Env`], one
        // registry covers the whole durable stack, so WAL latencies and
        // engine/cache counters come out of a single snapshot.
        let registry = store.registry().clone();
        let tracer = Arc::new(Tracer::new(env.clone(), registry.clone()));
        let engine = Engine {
            workspaces: RwLock::new(map),
            cache: config
                .caching
                .then(|| Arc::new(HomCache::with_registry(registry.clone()))),
            registry,
            tracer,
            memo: Mutex::new(memo),
            store: Some(Arc::new(store)),
            recovery: report,
            env,
            started,
        };
        Ok((engine, report))
    }

    /// The environment this engine runs against.
    pub fn env(&self) -> &Arc<dyn Env> {
        &self.env
    }

    /// The shared hom/core cache, when caching is enabled.
    pub fn cache(&self) -> Option<&Arc<HomCache>> {
        self.cache.as_ref()
    }

    /// The unified metrics registry: shared with the store (durable
    /// engines) and the hom-cache, snapshotted by [`Request::Metrics`]
    /// and the Prometheus endpoint of `cqfit-serve --metrics`.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The causal tracer: the server opens request spans against it, and
    /// `cqfit-serve --flight-recorder` attaches the durable span journal
    /// here.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The attached store, when the engine is durable.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// What startup recovery restored (zeroes for non-durable engines and
    /// fresh data directories).
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Flushes and (when fsync is enabled) syncs every open store file —
    /// the clean-shutdown path of `cqfit-serve`.  A no-op without a store.
    ///
    /// # Errors
    /// Propagates the first sync failure.
    pub fn sync_store(&self) -> Result<(), StoreError> {
        match &self.store {
            Some(store) => store.sync_all(),
            None => Ok(()),
        }
    }

    /// The full logical state of a workspace, as a compaction snapshot.
    fn snapshot_of(state: &IncrementalFitting) -> WorkspaceSnapshot {
        WorkspaceSnapshot {
            schema: state.schema().as_ref().clone(),
            arity: state.arity(),
            next_id: state.next_id(),
            revision: state.revision(),
            positives: state.positives().map(|(id, e)| (id, e.clone())).collect(),
            negatives: state.negatives().map(|(id, e)| (id, e.clone())).collect(),
        }
    }

    /// Engine-wide statistics.  Reads only lock-free revision mirrors, so
    /// it never blocks behind a long-running fit.
    pub fn stats(&self) -> EngineStats {
        let map = self.workspaces.read().expect("workspace map");
        let mut revisions: Vec<(String, u64)> = map
            .iter()
            .map(|(name, slot)| (name.clone(), slot.revision.load(Ordering::Acquire)))
            .collect();
        revisions.sort();
        let (memo_workspaces, memo_entries) = {
            let memo = self.memo.lock().expect("idempotency memo");
            (
                memo.recent.len(),
                memo.recent.values().map(|ring| ring.len() as u64).sum(),
            )
        };
        EngineStats {
            requests: self.registry.engine_requests.get(),
            workspaces: map.len(),
            uptime_ms: self
                .env
                .clock()
                .monotonic()
                .saturating_sub(self.started)
                .as_millis() as u64,
            pipeline_window: PIPELINE_WINDOW,
            memo_workspaces,
            memo_entries,
            cache: self.cache.as_ref().map(|c| c.stats()),
            store: self.store.as_ref().map(|s| s.stats()),
            revisions,
        }
    }

    fn resolve(&self, name: &str) -> Option<Arc<WorkspaceSlot>> {
        self.workspaces
            .read()
            .expect("workspace map")
            .get(name)
            .cloned()
    }

    fn with_workspace(&self, name: &str, f: impl FnOnce(&mut Workspace) -> Response) -> Response {
        match self.resolve(name) {
            Some(slot) => {
                let mut ws = slot.ws.lock().expect("workspace");
                let response = f(&mut ws);
                // Refresh the lock-free revision mirror while still
                // holding the workspace lock.
                slot.revision
                    .store(ws.state().revision(), Ordering::Release);
                response
            }
            None => Response::error(format!("unknown workspace `{name}`")),
        }
    }

    /// Handles one request.  Never panics on malformed input — every
    /// failure becomes a [`Response::Error`].
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_with_id(request, None)
    }

    /// Handles one request carrying an optional protocol-level
    /// idempotency key (the wire `request_id`).
    ///
    /// For identified *mutations* (see [`Request::is_mutation`]) on a
    /// named workspace, the engine consults its idempotency memo: if
    /// the workspace's last applied identified mutation had the same id,
    /// the memoed response is returned and the mutation does **not** run
    /// again — this is what makes the client's reconnect-and-retry after
    /// an ambiguous drop exactly-once.  Successful identified mutations
    /// update the memo.
    ///
    /// The check-then-record pair is not atomic with respect to the
    /// mutation itself, so two *concurrent* connections replaying the
    /// same `(workspace, request_id)` could both apply it; the resilient
    /// client never does that (one in-flight request per client), and
    /// the deterministic sim drives the server sequentially.  Requests
    /// without an id (or non-mutations) behave exactly as [`handle`].
    ///
    /// [`handle`]: Engine::handle
    pub fn handle_with_id(&self, request: &Request, request_id: Option<u64>) -> Response {
        self.handle_traced(request, request_id, None)
    }

    /// [`handle_with_id`] under an optional trace context.  With
    /// `parent: Some(..)` the engine opens an `engine.handle` span as a
    /// child of it (annotated with op, workspace, and request id; memo
    /// replays are marked `memo_replay=true`) and threads the span's
    /// context into the store append, so one request's spans chain from
    /// client attempt through server dispatch down to the fsync leader.
    /// With `parent: None` the request runs completely untraced —
    /// byte-for-byte the pre-PR10 hot path, no clock reads drawn.
    ///
    /// [`handle_with_id`]: Engine::handle_with_id
    pub fn handle_traced(
        &self,
        request: &Request,
        request_id: Option<u64>,
        parent: Option<&TraceContext>,
    ) -> Response {
        let mut span = parent.map(|ctx| {
            let mut span = self
                .tracer
                .start(self.tracer.child_context(ctx), "engine.handle");
            span.annotate("op", request.op());
            if let Some(ws) = request.workspace() {
                span.annotate("workspace", ws);
            }
            if let Some(id) = request_id {
                span.annotate("request_id", id.to_string());
            }
            span
        });
        let memo_key = match (request_id, request.workspace()) {
            (Some(id), Some(ws)) if request.is_mutation() => Some((id, ws.to_string())),
            _ => None,
        };
        if let Some((id, ws)) = &memo_key {
            let memo = self.memo.lock().expect("idempotency memo");
            if let Some(replay) = memo.lookup(ws, *id) {
                self.registry.engine_memo_replays.inc();
                if let Some(mut span) = span {
                    span.annotate("memo_replay", "true");
                    span.finish(&self.tracer);
                }
                return replay;
            }
        }
        let trace = span.as_mut().map(|s| s.context());
        let response = self.handle_inner(request, request_id, trace.as_ref());
        if let Some((id, ws)) = &memo_key {
            if response.is_ok() {
                self.memo
                    .lock()
                    .expect("idempotency memo")
                    .record(ws, *id, response.clone());
            }
        }
        if let Some(span) = span {
            span.finish(&self.tracer);
        }
        response
    }

    fn handle_inner(
        &self,
        request: &Request,
        request_id: Option<u64>,
        trace: Option<&TraceContext>,
    ) -> Response {
        // Scheduling point: no engine lock is held here, so a simulated
        // scheduler may interleave other tasks between whole requests —
        // the granularity at which the engine's own locking must already
        // make any interleaving equivalent to some sequential order.
        self.env.yield_point("engine.handle");
        self.registry.engine_requests.inc();
        match request {
            Request::Ping => Response::Pong,
            Request::CreateWorkspace {
                workspace,
                schema,
                arity,
            } => {
                // Bound the wire-supplied sizes before any allocation
                // proportional to them (`top_example` allocates
                // `vec![v; arity]`); a panic here would otherwise unwind
                // while the workspace lock is held and poison it.
                if *arity > MAX_ARITY {
                    return Response::error(format!(
                        "arity {arity} exceeds the supported maximum {MAX_ARITY}"
                    ));
                }
                if schema.max_arity() > MAX_ARITY {
                    return Response::error(format!(
                        "relation arity {} exceeds the supported maximum {MAX_ARITY}",
                        schema.max_arity()
                    ));
                }
                // Fast-path duplicate check under the read lock only.
                if self
                    .workspaces
                    .read()
                    .expect("workspace map")
                    .contains_key(workspace)
                {
                    return Response::error(format!("workspace `{workspace}` already exists"));
                }
                // Persist before ack: the create record must be durable
                // before the workspace becomes visible.  This runs
                // *outside* every engine lock — an fsync'd file create
                // must not stall unrelated requests — and the store's own
                // per-name log map doubles as the reservation: of two
                // racing creates, exactly one opens the log, the other
                // gets a duplicate error here.
                if let Some(store) = &self.store {
                    if let Err(e) = store.create_workspace(workspace, schema, *arity) {
                        return Response::error(format!(
                            "workspace `{workspace}` not created: {e}"
                        ));
                    }
                }
                // Build the workspace before taking the write lock: no
                // user-influenced code runs under the lock.
                let slot = WorkspaceSlot::new(Workspace::new(
                    workspace.clone(),
                    Arc::new(schema.clone()),
                    *arity,
                ));
                let mut map = self.workspaces.write().expect("workspace map");
                if map.contains_key(workspace) {
                    // Lost a duplicate-create race.  Only reachable on
                    // storeless engines: with a store, the loser already
                    // failed at the log reservation above.
                    return Response::error(format!("workspace `{workspace}` already exists"));
                }
                map.insert(workspace.clone(), slot);
                drop(map);
                // A fresh workspace must not inherit memoed responses
                // recorded against a dead namesake.
                self.memo
                    .lock()
                    .expect("idempotency memo")
                    .forget(workspace);
                Response::WorkspaceCreated {
                    workspace: workspace.clone(),
                }
            }
            Request::DropWorkspace { workspace } => {
                // Take the slot out under the write lock (a pure map op),
                // then do the store unlink + directory sync *outside* it —
                // disk barriers must not stall every request on the
                // engine.  If the unlink fails, the slot is reinserted
                // and the drop reports an error: a dropped workspace must
                // never resurrect on restart.  (A concurrent create of
                // the same name during the failure window loses at the
                // store's log reservation, which still holds the name.)
                let removed = self
                    .workspaces
                    .write()
                    .expect("workspace map")
                    .remove(workspace);
                let Some(slot) = removed else {
                    return Response::WorkspaceDropped {
                        workspace: workspace.clone(),
                        existed: false,
                    };
                };
                if let Some(store) = &self.store {
                    if let Err(e) = store.drop_workspace(workspace) {
                        self.workspaces
                            .write()
                            .expect("workspace map")
                            .insert(workspace.clone(), slot);
                        return Response::error(format!(
                            "workspace `{workspace}` not dropped: {e}"
                        ));
                    }
                }
                // The workspace is gone: its memo entry must go with it,
                // or a later recreate under the same name could answer a
                // stale retry with the dead workspace's response.  (The
                // *drop's own* response is still memoed afterwards by
                // `handle_with_id`, so an identified drop retry stays
                // exactly-once.)
                self.memo
                    .lock()
                    .expect("idempotency memo")
                    .forget(workspace);
                Response::WorkspaceDropped {
                    workspace: workspace.clone(),
                    existed: true,
                }
            }
            Request::ListWorkspaces => {
                let mut names: Vec<String> = self
                    .workspaces
                    .read()
                    .expect("workspace map")
                    .keys()
                    .cloned()
                    .collect();
                names.sort();
                Response::Workspaces { names }
            }
            Request::WorkspaceInfo { workspace } => self.with_workspace(workspace, |ws| {
                let state = ws.state();
                Response::Info {
                    workspace: ws.name().to_string(),
                    positives: state.num_positives(),
                    negatives: state.num_negatives(),
                    arity: state.arity(),
                    revision: state.revision(),
                    product_fresh: state.product_is_fresh(),
                }
            }),
            Request::AddExample {
                workspace,
                polarity,
                example,
            } => self.with_workspace(workspace, |ws| {
                let example = match example {
                    ExamplePayload::Structured(e) => e.clone(),
                    ExamplePayload::Text(text) => match parse_example(ws.state().schema(), text) {
                        Ok(e) => e,
                        Err(e) => return Response::from_data_error(&e),
                    },
                };
                // Validate up front so the apply after the durable log
                // write cannot fail (log order must be mutation order).
                if let Err(e) = ws.state().validate_example(&example) {
                    return Response::error(e.to_string());
                }
                let id = ws.state().next_id();
                if let Some(store) = &self.store {
                    // The wire request id rides in the record so recovery
                    // can reseed the exactly-once memo: a crash between
                    // this append and the client's ack must not let the
                    // retry apply twice after restart.
                    let record = LogRecord::AddExample {
                        id,
                        positive: matches!(polarity, Polarity::Positive),
                        example: example.clone(),
                        request_id,
                    };
                    if let Err(e) = store.append_traced(
                        ws.name(),
                        &record,
                        || Self::snapshot_of(ws.state()),
                        trace.map(|ctx| (self.tracer.as_ref(), ctx)),
                    ) {
                        return Response::error(format!("example not added: {e}"));
                    }
                }
                let added = match polarity {
                    Polarity::Positive => ws.state_mut().add_positive(example),
                    Polarity::Negative => ws.state_mut().add_negative(example),
                };
                match added {
                    Ok(id) => Response::ExampleAdded {
                        polarity: *polarity,
                        id,
                    },
                    Err(e) => Response::error(e.to_string()),
                }
            }),
            Request::RemoveExample {
                workspace,
                polarity,
                id,
            } => self.with_workspace(workspace, |ws| {
                let positive = matches!(polarity, Polarity::Positive);
                let present = if positive {
                    ws.state().has_positive(*id)
                } else {
                    ws.state().has_negative(*id)
                };
                // Only mutations are logged: removing an absent id is a
                // no-op and must not grow the log.
                if present {
                    if let Some(store) = &self.store {
                        let record = LogRecord::RemoveExample {
                            id: *id,
                            positive,
                            request_id,
                        };
                        if let Err(e) = store.append_traced(
                            ws.name(),
                            &record,
                            || Self::snapshot_of(ws.state()),
                            trace.map(|ctx| (self.tracer.as_ref(), ctx)),
                        ) {
                            return Response::error(format!("example not removed: {e}"));
                        }
                    }
                }
                let removed = match polarity {
                    Polarity::Positive => ws.state_mut().remove_positive(*id),
                    Polarity::Negative => ws.state_mut().remove_negative(*id),
                };
                Response::ExampleRemoved {
                    polarity: *polarity,
                    id: *id,
                    removed,
                }
            }),
            Request::FittingExists { workspace, class } => self.with_workspace(workspace, |ws| {
                // The fit-latency histogram is fed from the workspace's
                // own `fit_nanos` accumulator rather than fresh clock
                // reads, so instrumenting the path draws no extra clock
                // ticks (memo hits record nothing — delta stays zero).
                let before = ws.fit_nanos();
                let response =
                    match ws.fitting_exists(*class, self.cache.as_deref(), self.env.clock()) {
                        Ok(exists) => Response::Exists {
                            class: *class,
                            exists,
                        },
                        Err(e) => Response::error(e.to_string()),
                    };
                let spent = ws.fit_nanos().saturating_sub(before);
                if spent > 0 {
                    self.registry.engine_fit_ns.record(spent);
                }
                response
            }),
            Request::Fit {
                workspace,
                class,
                mode,
            } => self.with_workspace(workspace, |ws| {
                let before = ws.fit_nanos();
                let response = match ws.fit(*class, *mode, self.cache.as_deref(), self.env.clock())
                {
                    Ok(query) => Response::Fitting {
                        class: *class,
                        mode: *mode,
                        query,
                    },
                    Err(e) => Response::error(e.to_string()),
                };
                let spent = ws.fit_nanos().saturating_sub(before);
                if spent > 0 {
                    self.registry.engine_fit_ns.record(spent);
                }
                response
            }),
            Request::Stats => Response::Stats(self.stats()),
            Request::Metrics => Response::Metrics(self.registry.snapshot()),
            Request::Persist => match &self.store {
                None => Response::error("no store configured (start cqfit-serve with --data-dir)"),
                Some(store) => {
                    let workspaces: Vec<(String, Arc<WorkspaceSlot>)> = self
                        .workspaces
                        .read()
                        .expect("workspace map")
                        .iter()
                        .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
                        .collect();
                    let (mut before, mut after, mut compacted) = (0u64, 0u64, 0usize);
                    for (name, slot) in &workspaces {
                        let ws = slot.ws.lock().expect("workspace");
                        match store.compact(name, Self::snapshot_of(ws.state())) {
                            Ok(Some((b, a))) => {
                                before += b;
                                after += a;
                                compacted += 1;
                            }
                            // Dropped concurrently after the list was
                            // taken: sequentially this persist simply
                            // would not have included it.
                            Ok(None) => {}
                            Err(e) => {
                                return Response::error(format!("persist of `{name}` failed: {e}"))
                            }
                        }
                    }
                    if let Err(e) = store.sync_all() {
                        return Response::error(format!("store sync failed: {e}"));
                    }
                    Response::Persisted {
                        workspaces: compacted,
                        bytes_before: before,
                        bytes_after: after,
                    }
                }
            },
            Request::Recover => match &self.store {
                None => Response::error("no store configured (start cqfit-serve with --data-dir)"),
                Some(_) => Response::Recovery {
                    workspaces: self.recovery.workspaces,
                    records_replayed: self.recovery.records_replayed,
                    torn_bytes_dropped: self.recovery.torn_bytes_dropped,
                    bytes_compacted: self.recovery.bytes_compacted,
                },
            },
            Request::StoreInfo => match &self.store {
                None => Response::error("no store configured (start cqfit-serve with --data-dir)"),
                Some(store) => {
                    let stats = store.stats();
                    let config = store.config();
                    Response::StoreInfo {
                        dir: config.dir.display().to_string(),
                        workspaces: stats.workspaces,
                        records: stats.records,
                        bytes: stats.bytes,
                        compact_after: config.compact_after,
                        fsync: config.fsync,
                    }
                }
            },
            Request::Shutdown => Response::ShuttingDown,
            Request::TraceDump => Response::Traces {
                spans: self.registry.traces(),
            },
            Request::SlowRequests { over_us } => {
                let mut spans = self.registry.slow.snapshot();
                if let Some(over_us) = over_us {
                    spans.retain(|s| s.duration_ns() >= over_us.saturating_mul(1_000));
                }
                Response::Slow { spans }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{FitMode, QueryClass};
    use cqfit_data::Schema;

    fn create(engine: &Engine, name: &str) {
        let resp = engine.handle(&Request::CreateWorkspace {
            workspace: name.into(),
            schema: Schema::new([("R", 2)]).unwrap(),
            arity: 0,
        });
        assert!(resp.is_ok(), "{resp:?}");
    }

    fn add_text(engine: &Engine, ws: &str, polarity: Polarity, text: &str) -> u64 {
        match engine.handle(&Request::AddExample {
            workspace: ws.into(),
            polarity,
            example: ExamplePayload::Text(text.into()),
        }) {
            Response::ExampleAdded { id, .. } => id,
            other => panic!("add failed: {other:?}"),
        }
    }

    #[test]
    fn session_lifecycle() {
        let engine = Engine::default();
        assert!(matches!(engine.handle(&Request::Ping), Response::Pong));
        create(&engine, "w");
        // Duplicate create fails.
        assert!(!engine
            .handle(&Request::CreateWorkspace {
                workspace: "w".into(),
                schema: Schema::new([("R", 2)]).unwrap(),
                arity: 0,
            })
            .is_ok());
        add_text(&engine, "w", Polarity::Positive, "R(a,b)\nR(b,c)\nR(c,a)");
        add_text(&engine, "w", Polarity::Negative, "R(a,b)\nR(b,a)");
        match engine.handle(&Request::Fit {
            workspace: "w".into(),
            class: QueryClass::Cq,
            mode: FitMode::Minimized,
        }) {
            Response::Fitting { query: Some(q), .. } => {
                assert_eq!(q.size(), 6, "C3 core: 3 variables + 3 atoms")
            }
            other => panic!("fit failed: {other:?}"),
        }
        match engine.handle(&Request::WorkspaceInfo {
            workspace: "w".into(),
        }) {
            Response::Info {
                positives,
                negatives,
                ..
            } => {
                assert_eq!((positives, negatives), (1, 1));
            }
            other => panic!("info failed: {other:?}"),
        }
        match engine.handle(&Request::DropWorkspace {
            workspace: "w".into(),
        }) {
            Response::WorkspaceDropped { existed, .. } => assert!(existed),
            other => panic!("drop failed: {other:?}"),
        }
        assert!(!engine
            .handle(&Request::WorkspaceInfo {
                workspace: "w".into()
            })
            .is_ok());
    }

    #[test]
    fn absurd_arities_rejected_without_poisoning() {
        let engine = Engine::default();
        let huge = engine.handle(&Request::CreateWorkspace {
            workspace: "w".into(),
            schema: Schema::new([("R", 2)]).unwrap(),
            arity: usize::MAX / 2,
        });
        assert!(!huge.is_ok());
        let huge_rel = engine.handle(&Request::CreateWorkspace {
            workspace: "w".into(),
            schema: Schema::new([("R", 1 << 40)]).unwrap(),
            arity: 0,
        });
        assert!(!huge_rel.is_ok());
        // The engine survives: the lock is not poisoned.
        create(&engine, "w");
        assert!(engine
            .handle(&Request::WorkspaceInfo {
                workspace: "w".into()
            })
            .is_ok());
    }

    #[test]
    fn parse_errors_carry_position_through_the_engine() {
        let engine = Engine::default();
        create(&engine, "w");
        let resp = engine.handle(&Request::AddExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)\nS(a,b)".into()),
        });
        match resp {
            Response::Error { message, line, .. } => {
                assert_eq!(line, Some(2));
                assert!(message.contains('S'), "{message}");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn memo_serves_unchanged_workspace() {
        let engine = Engine::default();
        create(&engine, "w");
        add_text(&engine, "w", Polarity::Positive, "R(a,b)\nR(b,c)\nR(c,a)");
        let fit = Request::Fit {
            workspace: "w".into(),
            class: QueryClass::Cq,
            mode: FitMode::Minimized,
        };
        let first = engine.handle(&fit);
        let cache_after_first = engine.cache().unwrap().stats();
        let second = engine.handle(&fit);
        let cache_after_second = engine.cache().unwrap().stats();
        assert_eq!(
            cache_after_first.core_misses, cache_after_second.core_misses,
            "memo answered without recomputing"
        );
        match (first, second) {
            (
                Response::Fitting { query: Some(a), .. },
                Response::Fitting { query: Some(b), .. },
            ) => assert_eq!(a.display(), b.display()),
            other => panic!("unexpected {other:?}"),
        }
        // A mutation invalidates the memo (revision changed).
        add_text(&engine, "w", Polarity::Negative, "R(a,b)\nR(b,a)");
        assert!(engine.handle(&fit).is_ok());
    }

    fn info_of(engine: &Engine, ws: &str) -> (usize, u64) {
        match engine.handle(&Request::WorkspaceInfo {
            workspace: ws.into(),
        }) {
            Response::Info {
                positives,
                revision,
                ..
            } => (positives, revision),
            other => panic!("info failed: {other:?}"),
        }
    }

    #[test]
    fn retried_identified_mutation_applies_exactly_once() {
        let engine = Engine::default();
        create(&engine, "w");
        let add = Request::AddExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)".into()),
        };
        let first = engine.handle_with_id(&add, Some(42));
        let Response::ExampleAdded { id: first_id, .. } = first else {
            panic!("add failed: {first:?}");
        };
        let (positives, revision) = info_of(&engine, "w");
        // The client's ack was lost; it reconnects and resends the same
        // request under the same id.  The memo answers — byte-identical
        // response, no second application.
        let retry = engine.handle_with_id(&add, Some(42));
        match retry {
            Response::ExampleAdded { id, .. } => assert_eq!(id, first_id, "memoed response"),
            other => panic!("retry failed: {other:?}"),
        }
        assert_eq!(
            info_of(&engine, "w"),
            (positives, revision),
            "revision bumps once, not twice"
        );
        // A fresh id is a genuinely new request and applies normally.
        let next = engine.handle_with_id(&add, Some(43));
        match next {
            Response::ExampleAdded { id, .. } => assert_ne!(id, first_id),
            other => panic!("new add failed: {other:?}"),
        }
        assert_eq!(info_of(&engine, "w").0, positives + 1);
    }

    #[test]
    fn memo_ignores_failures_questions_and_unidentified_requests() {
        let engine = Engine::default();
        create(&engine, "w");
        // A failed identified mutation is not memoed: the retry really
        // retries (and succeeds once the cause is gone).
        let bad = Request::AddExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("Q(a)".into()),
        };
        assert!(!engine.handle_with_id(&bad, Some(7)).is_ok());
        let good = Request::AddExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)".into()),
        };
        assert!(engine.handle_with_id(&good, Some(7)).is_ok());
        // Questions never consult the memo, even under a replayed id.
        let (positives, _) = info_of(&engine, "w");
        assert_eq!(positives, 1);
        // Un-identified mutations are never deduplicated (pre-PR 7
        // clients keep their semantics).
        assert!(engine.handle_with_id(&good, None).is_ok());
        assert!(engine.handle_with_id(&good, None).is_ok());
        assert_eq!(info_of(&engine, "w").0, 3);
    }

    #[test]
    fn memo_is_per_workspace_and_drop_retries_are_memoed() {
        let engine = Engine::default();
        create(&engine, "a");
        create(&engine, "b");
        let add = |ws: &str| Request::AddExample {
            workspace: ws.into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)".into()),
        };
        // The same id on different workspaces is two distinct requests.
        assert!(engine.handle_with_id(&add("a"), Some(5)).is_ok());
        assert!(engine.handle_with_id(&add("b"), Some(5)).is_ok());
        assert_eq!(info_of(&engine, "a").0, 1);
        assert_eq!(info_of(&engine, "b").0, 1);
        // A retried drop is answered from the memo with the original
        // `existed: true`, not re-run against the now-absent workspace.
        let drop = Request::DropWorkspace {
            workspace: "b".into(),
        };
        match engine.handle_with_id(&drop, Some(6)) {
            Response::WorkspaceDropped { existed, .. } => assert!(existed),
            other => panic!("drop failed: {other:?}"),
        }
        match engine.handle_with_id(&drop, Some(6)) {
            Response::WorkspaceDropped { existed, .. } => {
                assert!(existed, "retry answered from the memo")
            }
            other => panic!("retried drop failed: {other:?}"),
        }
    }

    /// Regression (PR 8): the memo is keyed by workspace *name*, so
    /// without clearing on drop/create, a drop-and-recreate under the
    /// same name would replay a memoed response from the dead workspace
    /// to a stale request id — the retried add below would be answered
    /// `ExampleAdded` without ever touching the fresh workspace.
    #[test]
    fn drop_and_recreate_does_not_replay_the_dead_workspaces_memo() {
        let engine = Engine::default();
        create(&engine, "w");
        let add = Request::AddExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)".into()),
        };
        assert!(engine.handle_with_id(&add, Some(9)).is_ok());
        assert_eq!(info_of(&engine, "w").0, 1);
        // Drop and recreate the namesake workspace (unidentified, as a
        // pre-PR 7 admin client would).
        assert!(engine
            .handle(&Request::DropWorkspace {
                workspace: "w".into(),
            })
            .is_ok());
        create(&engine, "w");
        assert_eq!(info_of(&engine, "w").0, 0, "fresh workspace is empty");
        // A stale retry of the old id must genuinely apply to the new
        // workspace, not be swallowed by the dead workspace's memo.
        match engine.handle_with_id(&add, Some(9)) {
            Response::ExampleAdded { .. } => {}
            other => panic!("stale-id add failed: {other:?}"),
        }
        assert_eq!(
            info_of(&engine, "w").0,
            1,
            "the add really ran against the recreated workspace"
        );
        // Same protection when the drop+create themselves are identified.
        let drop = Request::DropWorkspace {
            workspace: "w".into(),
        };
        assert!(engine.handle_with_id(&drop, Some(10)).is_ok());
        let create_req = Request::CreateWorkspace {
            workspace: "w".into(),
            schema: Schema::digraph().as_ref().clone(),
            arity: 0,
        };
        assert!(engine.handle_with_id(&create_req, Some(11)).is_ok());
        match engine.handle_with_id(&add, Some(9)) {
            Response::ExampleAdded { .. } => {}
            other => panic!("stale-id add failed: {other:?}"),
        }
        assert_eq!(info_of(&engine, "w").0, 1);
    }

    /// Regression (PR 8): a pipelined client that loses its connection
    /// mid-burst replays the *whole* batch under the same ids — create
    /// included.  A one-slot memo only remembered the newest mutation,
    /// so the replayed create re-ran into `already exists` and every
    /// replayed add re-applied.  The window-deep memo must answer each
    /// replayed request byte-identically without touching the workspace.
    #[test]
    fn replayed_pipelined_batch_is_answered_entirely_from_the_memo() {
        let engine = Engine::default();
        let mut batch = vec![Request::CreateWorkspace {
            workspace: "w".into(),
            schema: cqfit_data::Schema::digraph().as_ref().clone(),
            arity: 0,
        }];
        for i in 0..(PIPELINE_WINDOW - 1) {
            batch.push(Request::AddExample {
                workspace: "w".into(),
                polarity: Polarity::Positive,
                example: ExamplePayload::Text(format!("R(a{i},b{i})")),
            });
        }
        let ids: Vec<u64> = (100..100 + batch.len() as u64).collect();
        let first: Vec<String> = batch
            .iter()
            .zip(&ids)
            .map(|(request, id)| serde::to_string(&engine.handle_with_id(request, Some(*id))))
            .collect();
        let (positives, revision) = info_of(&engine, "w");
        assert_eq!(positives, PIPELINE_WINDOW - 1);
        let replay: Vec<String> = batch
            .iter()
            .zip(&ids)
            .map(|(request, id)| serde::to_string(&engine.handle_with_id(request, Some(*id))))
            .collect();
        assert_eq!(first, replay, "every response replayed from the memo");
        assert_eq!(
            info_of(&engine, "w"),
            (positives, revision),
            "no mutation ran twice"
        );
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cqfit_engine_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_engine(dir: &std::path::Path) -> (Engine, RecoveryReport) {
        let store = Store::open(cqfit_store::StoreConfig {
            dir: dir.to_path_buf(),
            compact_after: 1024,
            fsync: false,
        })
        .unwrap();
        Engine::with_store(EngineConfig::default(), store).unwrap()
    }

    #[test]
    fn durable_engine_restores_workspaces_and_answers() {
        let dir = tmp_dir("restore");
        let (engine, report) = durable_engine(&dir);
        assert_eq!(report.workspaces, 0, "fresh data dir");
        create(&engine, "w");
        add_text(&engine, "w", Polarity::Positive, "R(a,b)\nR(b,c)\nR(c,a)");
        let neg = add_text(&engine, "w", Polarity::Negative, "R(a,b)\nR(b,a)");
        let extra = add_text(&engine, "w", Polarity::Positive, "R(x,y)");
        engine.handle(&Request::RemoveExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            id: extra,
        });
        // Removing an absent id is a no-op and must not be logged.
        engine.handle(&Request::RemoveExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            id: 999,
        });
        let fit = Request::Fit {
            workspace: "w".into(),
            class: QueryClass::Cq,
            mode: FitMode::Minimized,
        };
        let live_fit = serde::to_string(&engine.handle(&fit));
        let live_info = engine.handle(&Request::WorkspaceInfo {
            workspace: "w".into(),
        });
        drop(engine); // crash: no shutdown, no sync beyond per-record flush

        let (revived, report) = durable_engine(&dir);
        assert_eq!(report.workspaces, 1);
        assert!(report.records_replayed >= 5, "create + 3 adds + 1 remove");
        assert_eq!(report.torn_bytes_dropped, 0);
        match (
            live_info,
            revived.handle(&Request::WorkspaceInfo {
                workspace: "w".into(),
            }),
        ) {
            (
                Response::Info {
                    positives: lp,
                    negatives: ln,
                    revision: lr,
                    ..
                },
                Response::Info {
                    positives: rp,
                    negatives: rn,
                    revision: rr,
                    ..
                },
            ) => {
                assert_eq!((lp, ln, lr), (rp, rn, rr), "logical state survives");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            serde::to_string(&revived.handle(&fit)),
            live_fit,
            "recovered fitting answer is byte-identical"
        );
        // Ids keep flowing from the pre-crash counter.
        let next = add_text(&revived, "w", Polarity::Positive, "R(p,q)");
        assert!(next > neg, "next id continues past pre-crash ids");
        // Store ops answer.
        assert!(revived.handle(&Request::Persist).is_ok());
        assert!(revived.handle(&Request::Recover).is_ok());
        assert!(revived.handle(&Request::StoreInfo).is_ok());
        // Stats expose store numbers and revisions.
        match revived.handle(&Request::Stats) {
            Response::Stats(stats) => {
                assert!(stats.store.is_some());
                assert_eq!(stats.revisions.len(), 1);
                assert_eq!(stats.revisions[0].0, "w");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Dropping removes the log: a restart must not resurrect it.
        assert!(revived
            .handle(&Request::DropWorkspace {
                workspace: "w".into()
            })
            .is_ok());
        drop(revived);
        let (empty, report) = durable_engine(&dir);
        assert_eq!(report.workspaces, 0, "dropped workspace stays dropped");
        drop(empty);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_ops_error_without_a_store() {
        let engine = Engine::default();
        for req in [Request::Persist, Request::Recover, Request::StoreInfo] {
            assert!(!engine.handle(&req).is_ok(), "{req:?} must error");
        }
    }

    /// A traced mutation on a durable engine leaves one coherent span
    /// tree — parent ⊃ engine.handle ⊃ store.append ⊃ commit_wait, with
    /// the group-commit fsync hanging off the leader's append and both
    /// sides agreeing on the batch number — a memo replay is flagged as
    /// such, and `trace_dump` returns the ring.
    #[test]
    fn traced_request_produces_a_coherent_span_tree() {
        let dir = tmp_dir("traced");
        let (engine, _) = durable_engine(&dir);
        create(&engine, "w");
        let parent = engine.tracer().root_context();
        let add = Request::AddExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)".into()),
        };
        let resp = engine.handle_traced(&add, Some(7), Some(&parent));
        assert!(resp.is_ok(), "{resp:?}");
        let spans = engine.registry().traces();
        let find = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing span `{name}` in {spans:?}"))
        };
        let handle = find("engine.handle");
        let append = find("store.append");
        let wait = find("store.commit_wait");
        let fsync = find("store.fsync");
        for span in [handle, append, wait, fsync] {
            assert_eq!(span.trace_id, parent.trace_id, "one trace end to end");
        }
        assert_eq!(handle.parent_span_id, parent.span_id);
        assert_eq!(append.parent_span_id, handle.span_id);
        assert_eq!(wait.parent_span_id, append.span_id);
        assert_eq!(
            fsync.parent_span_id, append.span_id,
            "sole writer leads its own flush"
        );
        assert_eq!(handle.annotation("op"), Some("add_example"));
        assert_eq!(handle.annotation("request_id"), Some("7"));
        assert!(append.annotation("batch").is_some());
        assert_eq!(
            append.annotation("batch"),
            fsync.annotation("batch"),
            "the append's acked batch is the fsynced one"
        );
        assert!(
            handle.start_ns <= append.start_ns && append.end_ns <= handle.end_ns,
            "child interval nests within its parent"
        );
        // Retrying the same id replays from the memo — and the replay's
        // span says so instead of pretending the mutation ran twice.
        let replay = engine.handle_traced(&add, Some(7), Some(&engine.tracer().root_context()));
        assert_eq!(serde::to_string(&replay), serde::to_string(&resp));
        let spans = engine.registry().traces();
        let memo = spans
            .iter()
            .rev()
            .find(|s| s.name == "engine.handle")
            .unwrap();
        assert_eq!(memo.annotation("memo_replay"), Some("true"));
        match engine.handle(&Request::TraceDump) {
            Response::Traces { spans } => assert!(!spans.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
