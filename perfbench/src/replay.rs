//! The traced run: each workload's seeded inputs replayed in process
//! through every layer's public entry points, in the engine's order, with
//! a benchmark-owned span around each call:
//!
//! * `engine.encode` / `engine.decode` — `Request`/`Response` JSON, both
//!   directions of the wire;
//! * `store.create` / `store.append` / `store.drop` — the WAL, with the
//!   `proc.*` spans of [`TimedFs`] underneath;
//! * `cqfit.add` / `cqfit.remove` / `cqfit.restore` — `IncrementalFitting`;
//!   a positive add extends the product, so it is spanned `hom.product`;
//! * `hom.product` / `hom.core` / `hom.check` / `hom.ucq_min` — product
//!   rebuilds, `HomCache::core_of`, `HomCache::any_hom_exists` and UCQ
//!   minimization through the cache; `cqfit.build` assembles the query;
//! * `store.replay` (`Store::recover`), `engine.restore`
//!   (`Engine::with_store`, its inner replay credited to the store) and
//!   `cqfit.rebuild` (restore plus first question) for every restart.
//!
//! Each root span `op` is one request or restart; its self time is the
//! replay's own glue, reported as unattributed.  Answers are compared with
//! the untraced run's.
//!
//! The layer calls above are this module's copy of `Engine::handle`'s
//! request path, because spans can only go around public calls.  A
//! [`Route::Engine`] pass replays the same inputs through the real
//! `Engine::handle_with_id` and `Engine::with_store`, and [`guard`] fails
//! the run when the two paths stop making the same calls: core lookups,
//! fittings computed, log bytes and syncs, compactions and replays.

use crate::inputs::{self, is_question, restart_question, Churn};
use crate::trace::{self, credit, span, FsCounters, TimedFs};
use crate::workloads::{
    digest, qbe_requests, store_config, text, Run, INGEST_WARM_BURSTS, QBE_RESIDENT,
};
use cqfit::incremental::IncrementalFitting;
use cqfit_data::Example;
use cqfit_engine::{
    Engine, EngineConfig, ExamplePayload, FitMode, FitQuery, Polarity, QueryClass, Request,
    Response,
};
use cqfit_env::{Env, PartsEnv, RealEnv};
use cqfit_hom::HomCache;
use cqfit_obs::Registry;
use cqfit_query::{Cq, Ucq};
use cqfit_store::record::encode_record;
use cqfit_store::{LogRecord, Store, StoreConfig, WorkspaceSnapshot};
use serde::json::Value as Json;
use serde::Deserialize;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// QBE sessions replayed (resident ones included).
pub const QBE_SESSIONS: u64 = 400;
/// Ingest bursts replayed (with the read after each).
pub const INGEST_BURSTS: u64 = 256;
/// Restarts replayed after the inputs.
pub const RESTARTS: usize = 3;

/// Counts of one replay pass.  Every field but `hom_misses` is a pure
/// function of the inputs and must repeat exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub questions: u64,
    /// Fitting answers computed (not served from a memo).
    pub fits_computed: u64,
    /// `HomCache::core_of` calls, hits and misses.
    pub core_lookups: u64,
    pub product_builds: u64,
    pub product_values: u64,
    pub record_bytes: u64,
    pub fs_bytes_written: u64,
    pub fs_syncs: u64,
    pub compactions: u64,
    pub restarts: u64,
    pub records_replayed: u64,
    pub replay_bytes: u64,
    /// Hom checks run (cache misses): timing-dependent, see the README.
    pub hom_misses: u64,
}

impl Counts {
    /// The counts that must repeat exactly.
    pub fn exact(&self) -> Counts {
        Counts {
            hom_misses: 0,
            ..self.clone()
        }
    }
}

/// How a pass answers requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Through the layers' public calls, each under a span.
    Layers,
    /// Through `Engine::handle_with_id` and `Engine::with_store`.
    Engine,
}

/// One replay pass.
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    pub counts: Counts,
    /// Summed `store.replay` duration of real (not credited) replays.
    pub replay_ns: u64,
    /// Per span name, when the pass recorded.
    pub table: BTreeMap<&'static str, trace::Row>,
}

struct Replayer {
    route: Route,
    config: StoreConfig,
    env: Arc<dyn Env>,
    fs: Arc<FsCounters>,
    store: Option<Store>,
    engine: Option<Engine>,
    cache: HomCache,
    spaces: HashMap<String, IncrementalFitting>,
    counts: Counts,
    next_request_id: u64,
    replay_ns: u64,
    problems: Vec<String>,
}

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

/// Answers a fitting question from the layers, as the engine's workspace
/// does.
fn answer(
    cache: &HomCache,
    inc: &mut IncrementalFitting,
    class: QueryClass,
    fit: Option<FitMode>,
    counts: &mut Counts,
) -> Result<Response, String> {
    counts.questions += 1;
    if !inc.product_is_fresh() {
        span("hom.product", || inc.product().map(|_| ())).map_err(|e| e.to_string())?;
        counts.product_builds += 1;
        counts.product_values += inc
            .product()
            .map_err(|e| e.to_string())?
            .instance()
            .num_values() as u64;
    }
    if class == QueryClass::Ucq && inc.num_positives() > 0 {
        // A fitting UCQ exists iff no positive maps into a negative.
        let negatives: Vec<&Example> = inc.negatives().map(|(_, e)| e).collect();
        let positives: Vec<Example> = inc.positives().map(|(_, e)| e.clone()).collect();
        let pairs: Vec<(&Example, &Example)> = positives
            .iter()
            .flat_map(|p| negatives.iter().map(move |n| (p, *n)))
            .collect();
        let exists = !span("hom.check", || cache.any_hom_exists(&pairs));
        let Some(mode) = fit else {
            return Ok(Response::Exists { class, exists });
        };
        let query = if exists {
            let q = span("cqfit.build", || Ucq::from_examples(&positives))
                .map_err(|e| e.to_string())?;
            Some(FitQuery::Ucq(match mode {
                FitMode::Plain => q,
                FitMode::Minimized => span("hom.ucq_min", || q.minimized_with(Some(cache))),
            }))
        } else {
            None
        };
        return Ok(Response::Fitting { class, mode, query });
    }
    let no_fit = |class| match fit {
        None => Response::Exists {
            class,
            exists: false,
        },
        Some(mode) => Response::Fitting {
            class,
            mode,
            query: None,
        },
    };
    if class == QueryClass::Ucq && fit.is_some() {
        // The most-specific fitting UCQ needs a positive example.
        return Ok(no_fit(class));
    }
    // The CQ path: the canonical CQ of the product (or of its core).
    let product = inc.product().map_err(|e| e.to_string())?.clone();
    if !product.is_data_example() {
        return Ok(no_fit(class));
    }
    let target = match fit {
        Some(FitMode::Minimized) => span("hom.core", || cache.core_of(&product)),
        _ => Arc::new(product),
    };
    let negatives: Vec<&Example> = inc.negatives().map(|(_, e)| e).collect();
    let pairs: Vec<(&Example, &Example)> = negatives.iter().map(|n| (&*target, *n)).collect();
    let maps = span("hom.check", || cache.any_hom_exists(&pairs));
    Ok(match fit {
        None => Response::Exists {
            class,
            exists: !maps,
        },
        Some(mode) => {
            let query = if maps {
                None
            } else {
                let q =
                    span("cqfit.build", || Cq::from_example(&target)).map_err(|e| e.to_string())?;
                Some(FitQuery::Cq(q))
            };
            Response::Fitting { class, mode, query }
        }
    })
}

impl Replayer {
    fn new(
        route: Route,
        dir: &Path,
        compact_after: usize,
        inner: &Arc<dyn Env>,
    ) -> Result<Replayer, String> {
        crate::env::clear_dir(inner.fs(), dir);
        let fs = Arc::new(FsCounters::default());
        let env: Arc<dyn Env> = Arc::new(PartsEnv::new(
            Arc::new(TimedFs::new(inner.clone(), fs.clone())),
            Arc::new(RealEnv::new()),
            1,
        ));
        let config = store_config(dir, compact_after);
        let store = Store::open_with(config.clone(), env.clone()).map_err(|e| e.to_string())?;
        let (store, engine) = match route {
            Route::Layers => (Some(store), None),
            Route::Engine => {
                let (engine, _) = Engine::with_store(EngineConfig::default(), store)
                    .map_err(|e| e.to_string())?;
                (None, Some(engine))
            }
        };
        Ok(Replayer {
            route,
            config,
            env,
            fs,
            store,
            engine,
            cache: HomCache::with_registry(Arc::new(Registry::new())),
            spaces: HashMap::new(),
            counts: Counts::default(),
            next_request_id: 1,
            replay_ns: 0,
            problems: Vec::new(),
        })
    }

    fn problem(&mut self, msg: String) {
        if self.problems.len() < 16 {
            self.problems.push(msg);
        }
    }

    /// One request through the wire codec and the layers; returns the
    /// answer as the client would read it.
    fn op(&mut self, request: &Request) -> String {
        self.counts.ops += 1;
        let id = self.next_request_id;
        self.next_request_id += 1;
        span("op", || {
            let line = span("engine.encode", || request.to_json_with_id(id).to_string());
            let decoded = span("engine.decode", || {
                Json::parse(&line)
                    .and_then(|v| Request::from_json(&v).map(|r| (r, Request::request_id_of(&v))))
            });
            let response = match decoded {
                Ok((request, request_id)) => match &self.engine {
                    Some(engine) => {
                        self.counts.questions += u64::from(is_question(&request));
                        span("engine.handle", || {
                            engine.handle_with_id(&request, request_id)
                        })
                    }
                    None => self
                        .dispatch(&request, request_id)
                        .unwrap_or_else(Response::error),
                },
                Err(e) => Response::from_json_error(&e),
            };
            let reply = span("engine.encode", || text(&response));
            match span("engine.decode", || serde::from_str::<Response>(&reply)) {
                Ok(r) => text(&r),
                Err(e) => format!("<undecodable: {e}>"),
            }
        })
    }

    fn dispatch(&mut self, request: &Request, request_id: Option<u64>) -> Result<Response, String> {
        let store = self.store.as_ref().expect("store open while replaying");
        match request {
            Request::CreateWorkspace {
                workspace,
                schema,
                arity,
            } => {
                span("store.create", || {
                    store.create_workspace(workspace, schema, *arity)
                })
                .map_err(|e| e.to_string())?;
                let inc = span("cqfit.new", || {
                    IncrementalFitting::new(Arc::new(schema.clone()), *arity)
                });
                self.spaces.insert(workspace.clone(), inc);
                Ok(Response::WorkspaceCreated {
                    workspace: workspace.clone(),
                })
            }
            Request::DropWorkspace { workspace } => {
                let existed = self.spaces.remove(workspace).is_some();
                span("store.drop", || store.drop_workspace(workspace))
                    .map_err(|e| e.to_string())?;
                Ok(Response::WorkspaceDropped {
                    workspace: workspace.clone(),
                    existed,
                })
            }
            Request::AddExample {
                workspace,
                polarity,
                example: ExamplePayload::Structured(example),
            } => {
                let inc = self.spaces.get_mut(workspace).ok_or("unknown workspace")?;
                let id = inc.next_id();
                let positive = *polarity == Polarity::Positive;
                let record = LogRecord::AddExample {
                    id,
                    positive,
                    example: example.clone(),
                    request_id,
                };
                self.counts.record_bytes += encode_record(&record).len() as u64;
                span("store.append", || {
                    store.append(workspace, &record, || snapshot_of(inc))
                })
                .map_err(|e| e.to_string())?;
                if positive {
                    span("hom.product", || inc.add_positive(example.clone()))
                        .map_err(|e| e.to_string())?;
                    self.counts.product_builds += 1;
                    self.counts.product_values += inc
                        .product()
                        .map_err(|e| e.to_string())?
                        .instance()
                        .num_values() as u64;
                } else {
                    span("cqfit.add", || inc.add_negative(example.clone()))
                        .map_err(|e| e.to_string())?;
                }
                Ok(Response::ExampleAdded {
                    polarity: *polarity,
                    id,
                })
            }
            Request::RemoveExample {
                workspace,
                polarity,
                id,
            } => {
                let inc = self.spaces.get_mut(workspace).ok_or("unknown workspace")?;
                let positive = *polarity == Polarity::Positive;
                let present = if positive {
                    inc.has_positive(*id)
                } else {
                    inc.has_negative(*id)
                };
                if present {
                    let record = LogRecord::RemoveExample {
                        id: *id,
                        positive,
                        request_id,
                    };
                    self.counts.record_bytes += encode_record(&record).len() as u64;
                    span("store.append", || {
                        store.append(workspace, &record, || snapshot_of(inc))
                    })
                    .map_err(|e| e.to_string())?;
                }
                let removed = span("cqfit.remove", || {
                    if positive {
                        inc.remove_positive(*id)
                    } else {
                        inc.remove_negative(*id)
                    }
                });
                Ok(Response::ExampleRemoved {
                    polarity: *polarity,
                    id: *id,
                    removed,
                })
            }
            Request::WorkspaceInfo { workspace } => {
                let inc = self.spaces.get(workspace).ok_or("unknown workspace")?;
                Ok(Response::Info {
                    workspace: workspace.clone(),
                    positives: inc.num_positives(),
                    negatives: inc.num_negatives(),
                    arity: inc.arity(),
                    revision: inc.revision(),
                    product_fresh: inc.product_is_fresh(),
                })
            }
            Request::FittingExists { workspace, class } => {
                let inc = self.spaces.get_mut(workspace).ok_or("unknown workspace")?;
                answer(&self.cache, inc, *class, None, &mut self.counts)
            }
            Request::Fit {
                workspace,
                class,
                mode,
            } => {
                let inc = self.spaces.get_mut(workspace).ok_or("unknown workspace")?;
                answer(&self.cache, inc, *class, Some(*mode), &mut self.counts)
            }
            other => Err(format!("the replay does not handle {}", other.op())),
        }
    }

    /// Closes the live store, restarts `n` times — replay and restore
    /// through the store and fitting layers, answering the restart question
    /// on every workspace, then `Engine::with_store` for the engine's own
    /// restore cost — and reopens the store to go on.
    fn restarts(&mut self, n: usize, names: &[String], expect: &[String]) {
        if self.route == Route::Engine {
            return self.engine_restarts(n, names, expect);
        }
        self.close_store();
        self.spaces.clear();
        for _ in 0..n {
            self.counts.restarts += 1;
            let outcome = span("op", || -> Result<Vec<String>, String> {
                let read0 = self.fs.bytes_read.load(Ordering::Relaxed);
                let begun = Instant::now();
                let (restored, report) = span("store.replay", || {
                    Store::open_with(self.config.clone(), self.env.clone())
                        .and_then(|s| s.recover())
                })
                .map_err(|e| e.to_string())?;
                let replay_ns = begun.elapsed().as_nanos() as u64;
                self.replay_ns += replay_ns;
                // Only this replay's reads: `engine.restore` below reads
                // the log once more.
                self.counts.replay_bytes += self.fs.bytes_read.load(Ordering::Relaxed) - read0;
                self.counts.records_replayed += report.records_replayed;
                // A restarted engine starts with an empty cache.
                let cache = HomCache::with_registry(self.cache.registry().clone());
                let mut answers = Vec::new();
                for ws in restored {
                    let text = span("cqfit.rebuild", || -> Result<String, String> {
                        let mut inc = span("cqfit.restore", || {
                            IncrementalFitting::from_parts(
                                Arc::new(ws.schema.clone()),
                                ws.arity,
                                ws.positives.clone(),
                                ws.negatives.clone(),
                                ws.next_id,
                                ws.revision,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                        let r = answer(
                            &cache,
                            &mut inc,
                            QueryClass::Cq,
                            Some(FitMode::Plain),
                            &mut self.counts,
                        )?;
                        Ok(span("engine.encode", || text(&r)))
                    })?;
                    answers.push((ws.name.clone(), text));
                }
                span("engine.restore", || -> Result<(), String> {
                    credit("store.replay_in_restore", replay_ns);
                    let store = Store::open_with(self.config.clone(), self.env.clone())
                        .map_err(|e| e.to_string())?;
                    Engine::with_store(EngineConfig::default(), store)
                        .map(drop)
                        .map_err(|e| e.to_string())
                })?;
                Ok(names
                    .iter()
                    .map(|n| {
                        answers
                            .iter()
                            .find(|(name, _)| name == n)
                            .map_or_else(|| "<missing>".to_string(), |(_, t)| t.clone())
                    })
                    .collect())
            });
            match outcome {
                Ok(got) if got == expect => {}
                Ok(_) => self.problem("replayed restart answered differently".into()),
                Err(e) => self.problem(format!("replayed restart failed: {e}")),
            }
        }
        let reopened = Store::open_with(self.config.clone(), self.env.clone()).and_then(|store| {
            let (restored, _) = store.recover()?;
            Ok((store, restored))
        });
        match reopened {
            Ok((store, restored)) => {
                self.store = Some(store);
                for ws in restored {
                    match IncrementalFitting::from_parts(
                        Arc::new(ws.schema),
                        ws.arity,
                        ws.positives,
                        ws.negatives,
                        ws.next_id,
                        ws.revision,
                    ) {
                        Ok(inc) => {
                            self.spaces.insert(ws.name, inc);
                        }
                        Err(e) => self.problem(format!("reopen after restarts: {e}")),
                    }
                }
            }
            Err(e) => self.problem(format!("reopen after restarts: {e}")),
        }
        self.ask_restart_questions(names);
    }

    /// The served engine never restarted: it was asked the restart
    /// questions when the run froze its restart copy, which also left its
    /// products fresh.  Asks them again on the reopened state.
    fn ask_restart_questions(&mut self, names: &[String]) {
        for name in names {
            let question = restart_question(name);
            let answered = span("op", || match &self.engine {
                Some(engine) => {
                    self.counts.questions += 1;
                    Ok(span("engine.handle", || engine.handle(&question)))
                }
                None => {
                    let inc = self.spaces.get_mut(name).ok_or("unknown workspace")?;
                    answer(
                        &self.cache,
                        inc,
                        QueryClass::Cq,
                        Some(FitMode::Plain),
                        &mut self.counts,
                    )
                }
            });
            if let Err(e) = answered {
                self.problem(format!("reopen after restarts: {e}"));
            }
        }
    }

    /// [`Replayer::restarts`] through the engine: `Store::open_with` →
    /// `Engine::with_store` → `Engine::handle` of the restart question on
    /// every workspace; then a restored engine goes on with the inputs.
    fn engine_restarts(&mut self, n: usize, names: &[String], expect: &[String]) {
        self.close_engine();
        let open = |r: &Replayer| {
            Store::open_with(r.config.clone(), r.env.clone())
                .and_then(|s| Engine::with_store(EngineConfig::default(), s))
        };
        for _ in 0..n {
            self.counts.restarts += 1;
            let outcome = span("op", || -> Result<Vec<String>, String> {
                let read0 = self.fs.bytes_read.load(Ordering::Relaxed);
                let (engine, report) =
                    span("engine.with_store", || open(self)).map_err(|e| e.to_string())?;
                self.counts.replay_bytes += self.fs.bytes_read.load(Ordering::Relaxed) - read0;
                self.counts.records_replayed += report.records_replayed;
                self.counts.questions += names.len() as u64;
                let answers = names
                    .iter()
                    .map(|n| {
                        span("engine.handle", || {
                            text(&engine.handle(&restart_question(n)))
                        })
                    })
                    .collect();
                self.engine = Some(engine);
                self.close_engine();
                Ok(answers)
            });
            match outcome {
                Ok(got) if got == expect => {}
                Ok(_) => self.problem("replayed restart answered differently".into()),
                Err(e) => self.problem(format!("replayed restart failed: {e}")),
            }
        }
        match open(self) {
            Ok((engine, _)) => self.engine = Some(engine),
            Err(e) => self.problem(format!("reopen after restarts: {e}")),
        }
        self.ask_restart_questions(names);
    }

    /// Closes the live store, keeping its compaction count.
    fn close_store(&mut self) {
        if let Some(store) = self.store.take() {
            self.counts.compactions += store.registry().store_compactions.get();
        }
    }

    /// Drops the live engine, keeping its counts.
    fn close_engine(&mut self) {
        if let Some(engine) = self.engine.take() {
            let reg = engine.registry();
            self.counts.core_lookups += reg.core_hits.get() + reg.core_misses.get();
            self.counts.fits_computed += reg.engine_fit_ns.snapshot().count;
            self.counts.hom_misses += reg.hom_misses.get();
            if let Some(store) = engine.store() {
                self.counts.compactions += store.registry().store_compactions.get();
            }
        }
    }

    fn finish(mut self, recording: bool, begun: Instant) -> (Pass, Vec<String>) {
        self.close_store();
        self.close_engine();
        self.counts.fs_bytes_written = self.fs.bytes_written.load(Ordering::Relaxed);
        self.counts.fs_syncs = self.fs.file_syncs.load(Ordering::Relaxed);
        if self.route == Route::Layers {
            // The copy has no memo: every question is computed.
            self.counts.fits_computed = self.counts.questions;
            let reg = self.cache.registry();
            self.counts.core_lookups = reg.core_hits.get() + reg.core_misses.get();
            self.counts.hom_misses = reg.hom_misses.get();
        }
        let wall_s = begun.elapsed().as_secs_f64();
        let table = if recording {
            trace::table()
        } else {
            BTreeMap::new()
        };
        trace::set_recording(false);
        (
            Pass {
                wall_s,
                counts: self.counts,
                replay_ns: self.replay_ns,
                table,
            },
            self.problems,
        )
    }
}

/// The counts a [`Route::Layers`] pass must share with a [`Route::Engine`]
/// pass of the same inputs; a difference means the replay's copy of the
/// request path no longer makes the calls `Engine::handle` makes.
pub fn guard(layers: &Counts, engine: &Counts) -> Option<String> {
    let pick = |c: &Counts| {
        [
            ("ops", c.ops),
            ("questions", c.questions),
            ("fits_computed", c.fits_computed),
            ("core_lookups", c.core_lookups),
            ("fs_bytes_written", c.fs_bytes_written),
            ("fs_syncs", c.fs_syncs),
            ("compactions", c.compactions),
            ("restarts", c.restarts),
            ("records_replayed", c.records_replayed),
            ("replay_bytes", c.replay_bytes),
        ]
    };
    let differ: Vec<String> = pick(layers)
        .iter()
        .zip(pick(engine))
        .filter(|(a, b)| a.1 != b.1)
        .map(|(a, b)| format!("{} {} vs {}", a.0, a.1, b.1))
        .collect();
    (!differ.is_empty()).then(|| {
        format!(
            "the traced replay no longer follows Engine::handle (layers vs engine: {}); update perfbench/src/replay.rs",
            differ.join(", ")
        )
    })
}

/// Replays `workload`'s inputs once along `route`, recording spans when
/// `recording`, and checks the answers against `run`'s.  Returns the pass
/// and any problems found.
pub fn replay(
    route: Route,
    workload: &str,
    dir: &Path,
    env: &Arc<dyn Env>,
    seed: u64,
    run: &Run,
    recording: bool,
) -> (Pass, Vec<String>) {
    let compact_after = if workload == "cold_recovery" {
        usize::MAX
    } else {
        StoreConfig::new(dir).compact_after
    };
    let mut r = match Replayer::new(route, dir, compact_after, env) {
        Ok(r) => r,
        Err(e) => {
            let pass = Pass {
                wall_s: 0.0,
                counts: Counts::default(),
                replay_ns: 0,
                table: BTreeMap::new(),
            };
            return (pass, vec![format!("replay set-up: {e}")]);
        }
    };
    trace::set_recording(recording);
    let begun = Instant::now();
    let check = |r: &mut Replayer, unit: usize, got: u64| {
        if run.answers.get(unit).is_some_and(|&want| want != got) {
            r.problem(format!("replayed unit {unit} answered differently"));
        }
    };
    // Each workload restarts where its untraced run froze its restart copy.
    let restarts = |r: &mut Replayer| r.restarts(RESTARTS, &run.restart_names, &run.restart_expect);
    match workload {
        "qbe_fit" => {
            for i in 0..QBE_SESSIONS {
                if i == QBE_RESIDENT {
                    restarts(&mut r);
                }
                let texts: Vec<String> = qbe_requests(seed, i).iter().map(|q| r.op(q)).collect();
                check(&mut r, i as usize, digest(texts.iter().map(String::as_str)));
            }
        }
        "durable_ingest" => {
            let mut churn = Churn::new(seed);
            let created = r.op(&churn.create());
            let expected = Response::WorkspaceCreated {
                workspace: inputs::INGEST_WS.into(),
            };
            if created != text(&expected) {
                r.problem(format!("replayed create answered {created}"));
            }
            for b in 0..INGEST_BURSTS {
                if b == INGEST_WARM_BURSTS {
                    restarts(&mut r);
                }
                let mut texts: Vec<String> = churn.burst().iter().map(|(q, _)| r.op(q)).collect();
                texts.push(r.op(&churn.info().0));
                check(&mut r, b as usize, digest(texts.iter().map(String::as_str)));
            }
        }
        _ => {
            let texts: Vec<String> = inputs::cold_log(seed)
                .iter()
                .map(|(q, _)| r.op(q))
                .collect();
            check(&mut r, 0, digest(texts.iter().map(String::as_str)));
            restarts(&mut r);
        }
    }
    r.finish(recording, begun)
}
