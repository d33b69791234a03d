//! # cqfit-engine
//!
//! A concurrent, session-based fitting service over the `cqfit` stack:
//! long-lived named **workspaces** hold evolving `(E⁺, E⁻)` example
//! collections whose direct-product / most-specific-fitting state is
//! maintained **incrementally** ([`cqfit::incremental`]) as examples are
//! added and removed, and all homomorphism/core work is routed through a
//! shared **canonical-hash keyed result cache**
//! ([`cqfit_hom::HomCache`]), so repeated containment and core checks —
//! across requests, workspaces and sessions — are hits instead of
//! recomputes.
//!
//! Two front ends share the same [`Request`]/[`Response`] protocol:
//!
//! * the in-process [`Engine`] (interior-mutability-safe; share it via
//!   `Arc` across request threads — every request runs on the thread
//!   that hands it in),
//! * the std-only JSONL-over-TCP [`Server`] behind the `cqfit-serve`
//!   binary, with [`Client`] and the scripted `cqfit-session` binary as
//!   consumers.
//!
//! Since PR 5 the engine is optionally **durable**: attach a
//! [`cqfit_store::Store`] via [`Engine::with_store`] (`cqfit-serve
//! --data-dir`) and every mutation is written to a per-workspace
//! write-ahead log *before* it is acknowledged, startup replays the logs
//! back into workspaces (reported by [`Request::Recover`]), and
//! [`Request::Persist`] / [`Request::StoreInfo`] expose compaction and
//! store introspection over the wire.
//!
//! Since PR 6 every effect — filesystem I/O (via the store), clocks, and
//! scheduler yield points — routes through the injectable
//! [`cqfit_env::Env`]: [`Engine::new`] defaults to the real environment,
//! [`Engine::with_env`] injects one, and [`Engine::with_store`] inherits
//! the store's.  The `cqfit-sim` harness exploits this to run the whole
//! stack on a simulated filesystem under a deterministic scheduler,
//! crashing it at every record boundary.
//!
//! Since PR 7 the *network* routes through the same seam
//! ([`cqfit_env::Net`]): [`Server`] and [`Client`] speak JSONL over
//! whatever `Net` the engine's environment provides — real TCP in
//! production, in-memory seeded connections under the simulator.  The
//! client is resilient (per-request deadlines, capped exponential backoff
//! with jitter, reconnect-and-retry; see [`RetryPolicy`]), and retried
//! mutations apply **exactly once**: each call carries a `request_id`,
//! and the engine answers an already-applied id from its idempotency memo
//! ([`Engine::handle_with_id`]) instead of re-running the mutation.
//!
//! See `DESIGN.md` ("Engine architecture", "Durability", "Environment &
//! Simulation") for the workspace model, the incremental product
//! maintenance rules, the cache keying and invalidation story, the log
//! format/recovery invariants, and the simulation crash model;
//! `EXPERIMENTS.md` documents the throughput methodology behind
//! `BENCH_pr4.json`, the replay/restore methodology behind
//! `BENCH_pr5.json`, and the simulation/overhead methodology behind
//! `BENCH_pr6.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod engine;
mod protocol;
mod server;
mod workspace;

pub use client::{Client, RetryPolicy, DEFAULT_CALL_TIMEOUT};
pub use engine::{Engine, EngineConfig};
pub use protocol::{
    EngineStats, ExamplePayload, FitMode, FitQuery, Polarity, QueryClass, Request, Response,
};
pub use server::Server;
pub use workspace::Workspace;
