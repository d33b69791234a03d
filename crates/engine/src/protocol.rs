//! The request/response protocol of the fitting service.
//!
//! Requests and responses are JSON objects, one per line on the wire
//! (JSONL); the in-process [`crate::Engine`] consumes the same [`Request`]
//! values directly.  Every request object carries an `"op"` tag; every
//! response carries `"ok"` (`true`/`false`) plus op-specific fields.
//! Examples travel either as structured JSON (the
//! `cqfit_data::serde_impls` shape, self-describing with their schema) or
//! as the textual fact format of [`cqfit_data::parse_example`] (parsed
//! against the workspace schema; parse errors come back with the
//! offending line and token).
//!
//! A scripted session:
//!
//! ```text
//! → {"op":"create_workspace","workspace":"w","schema":{"relations":[{"name":"R","arity":2}]},"arity":0}
//! ← {"ok":true,"workspace":"w"}
//! → {"op":"add_example","workspace":"w","polarity":"positive","text":"R(a,b)\nR(b,c)\nR(c,a)"}
//! ← {"ok":true,"id":0,"polarity":"positive"}
//! → {"op":"fit","workspace":"w","class":"cq","mode":"minimized"}
//! ← {"ok":true,"found":true,"query":"q() :- …","size":…,"query_json":{…}}
//! ```

use cqfit_data::{Example, Schema};
use cqfit_obs::{TraceContext, TraceSpan};
use cqfit_query::{Cq, Ucq};
use serde::json::{JsonError, Value as Json};
use serde::{Deserialize, Serialize};

/// Whether an example is added to `E⁺` or `E⁻`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// A positive example (`E⁺`).
    Positive,
    /// A negative example (`E⁻`).
    Negative,
}

impl Polarity {
    fn as_str(self) -> &'static str {
        match self {
            Polarity::Positive => "positive",
            Polarity::Negative => "negative",
        }
    }

    fn parse(s: &str) -> Result<Self, JsonError> {
        match s {
            "positive" => Ok(Polarity::Positive),
            "negative" => Ok(Polarity::Negative),
            other => Err(JsonError::semantic(format!(
                "unknown polarity `{other}` (expected `positive` or `negative`)"
            ))),
        }
    }
}

/// The query class a fitting question is asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Conjunctive queries (Section 3 of the paper).
    Cq,
    /// Unions of conjunctive queries (Section 4).
    Ucq,
}

impl QueryClass {
    fn as_str(self) -> &'static str {
        match self {
            QueryClass::Cq => "cq",
            QueryClass::Ucq => "ucq",
        }
    }

    fn parse(s: &str) -> Result<Self, JsonError> {
        match s {
            "cq" => Ok(QueryClass::Cq),
            "ucq" => Ok(QueryClass::Ucq),
            other => Err(JsonError::semantic(format!(
                "unknown query class `{other}` (expected `cq` or `ucq`)"
            ))),
        }
    }
}

/// Whether a fitting is returned as constructed or minimized (cored).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FitMode {
    /// The canonical construction (most-specific fitting).
    Plain,
    /// The cored, equivalent construction.
    Minimized,
}

impl FitMode {
    fn as_str(self) -> &'static str {
        match self {
            FitMode::Plain => "plain",
            FitMode::Minimized => "minimized",
        }
    }

    fn parse(s: &str) -> Result<Self, JsonError> {
        match s {
            "plain" => Ok(FitMode::Plain),
            "minimized" => Ok(FitMode::Minimized),
            other => Err(JsonError::semantic(format!(
                "unknown fit mode `{other}` (expected `plain` or `minimized`)"
            ))),
        }
    }
}

/// An example in a request: structured JSON or the textual fact format.
#[derive(Debug, Clone)]
pub enum ExamplePayload {
    /// A self-describing structured example (`cqfit_data` serde shape).
    Structured(Example),
    /// The textual format of [`cqfit_data::parse_example`], parsed against
    /// the workspace schema.
    Text(String),
}

/// A request to the fitting service.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Creates a workspace; fails if the name is taken.
    CreateWorkspace {
        /// Workspace name.
        workspace: String,
        /// Schema of the workspace's examples.
        schema: Schema,
        /// Arity of the workspace's examples.
        arity: usize,
    },
    /// Drops a workspace (reports whether it existed).
    DropWorkspace {
        /// Workspace name.
        workspace: String,
    },
    /// Lists workspace names.
    ListWorkspaces,
    /// Reports a workspace's state (sizes, revision, product freshness).
    WorkspaceInfo {
        /// Workspace name.
        workspace: String,
    },
    /// Adds an example to a workspace.
    AddExample {
        /// Workspace name.
        workspace: String,
        /// Positive or negative.
        polarity: Polarity,
        /// The example itself.
        example: ExamplePayload,
    },
    /// Removes an example by id.
    RemoveExample {
        /// Workspace name.
        workspace: String,
        /// Positive or negative.
        polarity: Polarity,
        /// Id returned by the corresponding add.
        id: u64,
    },
    /// Does a fitting query of the class exist?
    FittingExists {
        /// Workspace name.
        workspace: String,
        /// Query class.
        class: QueryClass,
    },
    /// Constructs a (most-specific) fitting query.
    Fit {
        /// Workspace name.
        workspace: String,
        /// Query class.
        class: QueryClass,
        /// Plain or minimized output.
        mode: FitMode,
    },
    /// Engine-wide statistics (requests, workspaces, cache hit rates,
    /// per-workspace revisions, store bytes/records).
    Stats,
    /// A full metrics snapshot from the engine's `cqfit-obs` registry:
    /// counters, gauges, latency-histogram summaries, and the bounded
    /// event/span rings.
    Metrics,
    /// Forces snapshot + log-compaction of every workspace and syncs the
    /// store.  Errors when the engine has no store.
    Persist,
    /// Reports what startup recovery restored (zeroes on a fresh data
    /// directory).  Errors when the engine has no store.
    Recover,
    /// Describes the store: data directory, open logs, record/byte
    /// totals, compaction budget, fsync discipline.  Errors when the
    /// engine has no store.
    StoreInfo,
    /// Asks the server to stop accepting connections (in-process engines
    /// treat it as a no-op acknowledgment).
    Shutdown,
    /// Dumps the registry's bounded ring of recently closed trace spans
    /// (the live counterpart of the on-disk flight recorder).
    TraceDump,
    /// Reports the server's slow-request table: the slowest traced
    /// requests seen so far, optionally filtered to those at or over a
    /// duration threshold in microseconds.
    SlowRequests {
        /// Minimum duration, in microseconds, for a span to be reported.
        over_us: Option<u64>,
    },
}

impl Request {
    /// Whether this request mutates engine state (and is therefore
    /// subject to the exactly-once retry memo keyed by `request_id`).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Request::CreateWorkspace { .. }
                | Request::DropWorkspace { .. }
                | Request::AddExample { .. }
                | Request::RemoveExample { .. }
        )
    }

    /// Serializes this request with a protocol-level idempotency key
    /// attached: the wire object gains a `"request_id"` field.  Retrying
    /// a mutation with the *same* id after an ambiguous connection drop
    /// is answered from the engine's memo instead of being re-applied.
    ///
    /// Ids must fit in 63 bits (the wire integer type is `i64`).
    pub fn to_json_with_id(&self, request_id: u64) -> Json {
        self.to_json_with_meta(request_id, None)
    }

    /// Serializes this request with both protocol-level metadata fields
    /// attached: the `"request_id"` idempotency key and, when given, a
    /// `"trace"` context object.  A server receiving a trace context
    /// opens its request span as a child of it; absent, the server roots
    /// a fresh trace (pre-PR10 clients keep working unchanged).
    pub fn to_json_with_meta(&self, request_id: u64, trace: Option<&TraceContext>) -> Json {
        match self.to_json() {
            Json::Obj(mut fields) => {
                fields.push(("request_id".to_string(), request_id.to_json()));
                if let Some(ctx) = trace {
                    fields.push(("trace".to_string(), ctx.to_json()));
                }
                Json::Obj(fields)
            }
            other => other,
        }
    }

    /// Extracts the optional idempotency key from a parsed request
    /// object.  Absent or malformed keys read as `None` (the request is
    /// then handled without retry protection, exactly as before PR 7).
    pub fn request_id_of(v: &Json) -> Option<u64> {
        v.get("request_id").and_then(|id| u64::from_json(id).ok())
    }

    /// Extracts the optional trace context from a parsed request object.
    /// Absent or malformed contexts read as `None` (the server then
    /// roots a fresh trace for the request).
    pub fn trace_of(v: &Json) -> Option<TraceContext> {
        v.get("trace").and_then(|t| TraceContext::from_json(t).ok())
    }

    /// The wire name of this request's operation (the `"op"` field of
    /// its JSON form) — the span label used by request tracing.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::CreateWorkspace { .. } => "create_workspace",
            Request::DropWorkspace { .. } => "drop_workspace",
            Request::ListWorkspaces => "list_workspaces",
            Request::WorkspaceInfo { .. } => "workspace_info",
            Request::AddExample { .. } => "add_example",
            Request::RemoveExample { .. } => "remove_example",
            Request::FittingExists { .. } => "fitting_exists",
            Request::Fit { .. } => "fit",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Persist => "persist",
            Request::Recover => "recover",
            Request::StoreInfo => "store_info",
            Request::Shutdown => "shutdown",
            Request::TraceDump => "trace_dump",
            Request::SlowRequests { .. } => "slow_requests",
        }
    }

    /// The workspace this request targets, if any (used for the idempotency
    /// memo and span annotations).
    pub fn workspace(&self) -> Option<&str> {
        match self {
            Request::CreateWorkspace { workspace, .. }
            | Request::DropWorkspace { workspace }
            | Request::WorkspaceInfo { workspace }
            | Request::AddExample { workspace, .. }
            | Request::RemoveExample { workspace, .. }
            | Request::FittingExists { workspace, .. }
            | Request::Fit { workspace, .. } => Some(workspace),
            Request::Ping
            | Request::ListWorkspaces
            | Request::Stats
            | Request::Metrics
            | Request::Persist
            | Request::Recover
            | Request::StoreInfo
            | Request::Shutdown
            | Request::TraceDump
            | Request::SlowRequests { .. } => None,
        }
    }
}

impl Serialize for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj([("op", Json::str("ping"))]),
            Request::CreateWorkspace {
                workspace,
                schema,
                arity,
            } => Json::obj([
                ("op", Json::str("create_workspace")),
                ("workspace", Json::str(workspace)),
                ("schema", schema.to_json()),
                ("arity", Json::Int(*arity as i64)),
            ]),
            Request::DropWorkspace { workspace } => Json::obj([
                ("op", Json::str("drop_workspace")),
                ("workspace", Json::str(workspace)),
            ]),
            Request::ListWorkspaces => Json::obj([("op", Json::str("list_workspaces"))]),
            Request::WorkspaceInfo { workspace } => Json::obj([
                ("op", Json::str("workspace_info")),
                ("workspace", Json::str(workspace)),
            ]),
            Request::AddExample {
                workspace,
                polarity,
                example,
            } => {
                let mut fields = vec![
                    ("op", Json::str("add_example")),
                    ("workspace", Json::str(workspace)),
                    ("polarity", Json::str(polarity.as_str())),
                ];
                match example {
                    ExamplePayload::Structured(e) => fields.push(("example", e.to_json())),
                    ExamplePayload::Text(t) => fields.push(("text", Json::str(t))),
                }
                Json::obj(fields)
            }
            Request::RemoveExample {
                workspace,
                polarity,
                id,
            } => Json::obj([
                ("op", Json::str("remove_example")),
                ("workspace", Json::str(workspace)),
                ("polarity", Json::str(polarity.as_str())),
                ("id", id.to_json()),
            ]),
            Request::FittingExists { workspace, class } => Json::obj([
                ("op", Json::str("fitting_exists")),
                ("workspace", Json::str(workspace)),
                ("class", Json::str(class.as_str())),
            ]),
            Request::Fit {
                workspace,
                class,
                mode,
            } => Json::obj([
                ("op", Json::str("fit")),
                ("workspace", Json::str(workspace)),
                ("class", Json::str(class.as_str())),
                ("mode", Json::str(mode.as_str())),
            ]),
            Request::Stats => Json::obj([("op", Json::str("stats"))]),
            Request::Metrics => Json::obj([("op", Json::str("metrics"))]),
            Request::Persist => Json::obj([("op", Json::str("persist"))]),
            Request::Recover => Json::obj([("op", Json::str("recover"))]),
            Request::StoreInfo => Json::obj([("op", Json::str("store_info"))]),
            Request::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
            Request::TraceDump => Json::obj([("op", Json::str("trace_dump"))]),
            Request::SlowRequests { over_us } => {
                let mut fields = vec![("op", Json::str("slow_requests"))];
                if let Some(over_us) = over_us {
                    fields.push(("over_us", over_us.to_json()));
                }
                Json::obj(fields)
            }
        }
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, JsonError> {
    String::from_json(v.req(key)?)
}

impl Deserialize for Request {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let op = req_str(v, "op")?;
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "create_workspace" => Ok(Request::CreateWorkspace {
                workspace: req_str(v, "workspace")?,
                schema: Schema::from_json(v.req("schema")?)?,
                arity: usize::from_json(v.req("arity")?)?,
            }),
            "drop_workspace" => Ok(Request::DropWorkspace {
                workspace: req_str(v, "workspace")?,
            }),
            "list_workspaces" => Ok(Request::ListWorkspaces),
            "workspace_info" => Ok(Request::WorkspaceInfo {
                workspace: req_str(v, "workspace")?,
            }),
            "add_example" => {
                let example = match (v.get("example"), v.get("text")) {
                    (Some(e), None) => ExamplePayload::Structured(Example::from_json(e)?),
                    (None, Some(t)) => ExamplePayload::Text(
                        t.as_str()
                            .ok_or_else(|| JsonError::mismatch("string", t))?
                            .to_string(),
                    ),
                    (Some(_), Some(_)) => {
                        return Err(JsonError::semantic(
                            "give either `example` (structured) or `text`, not both",
                        ))
                    }
                    (None, None) => {
                        return Err(JsonError::semantic(
                            "missing example: give `example` (structured) or `text`",
                        ))
                    }
                };
                Ok(Request::AddExample {
                    workspace: req_str(v, "workspace")?,
                    polarity: Polarity::parse(&req_str(v, "polarity")?)?,
                    example,
                })
            }
            "remove_example" => Ok(Request::RemoveExample {
                workspace: req_str(v, "workspace")?,
                polarity: Polarity::parse(&req_str(v, "polarity")?)?,
                id: u64::from_json(v.req("id")?)?,
            }),
            "fitting_exists" => Ok(Request::FittingExists {
                workspace: req_str(v, "workspace")?,
                class: QueryClass::parse(&req_str(v, "class")?)?,
            }),
            "fit" => Ok(Request::Fit {
                workspace: req_str(v, "workspace")?,
                class: QueryClass::parse(&req_str(v, "class")?)?,
                mode: FitMode::parse(&req_str(v, "mode")?)?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "persist" => Ok(Request::Persist),
            "recover" => Ok(Request::Recover),
            "store_info" => Ok(Request::StoreInfo),
            "shutdown" => Ok(Request::Shutdown),
            "trace_dump" => Ok(Request::TraceDump),
            "slow_requests" => Ok(Request::SlowRequests {
                over_us: match v.get("over_us") {
                    Some(o) => Some(u64::from_json(o)?),
                    None => None,
                },
            }),
            other => Err(JsonError::semantic(format!("unknown op `{other}`"))),
        }
    }
}

/// A fitting query in a response: the CQ or UCQ plus display/size info.
#[derive(Debug, Clone)]
pub enum FitQuery {
    /// A conjunctive query.
    Cq(Cq),
    /// A union of conjunctive queries.
    Ucq(Ucq),
}

impl FitQuery {
    /// Human-readable rendering.
    pub fn display(&self) -> String {
        match self {
            FitQuery::Cq(q) => q.to_string(),
            FitQuery::Ucq(q) => q.to_string(),
        }
    }

    /// Size (variables + atoms, summed over disjuncts for UCQs).
    pub fn size(&self) -> usize {
        match self {
            FitQuery::Cq(q) => q.size(),
            FitQuery::Ucq(q) => q.size(),
        }
    }
}

/// Statistics reported by [`Request::Stats`].
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Requests handled since engine start.
    pub requests: u64,
    /// Current number of workspaces.
    pub workspaces: usize,
    /// Milliseconds since engine construction, per the engine's injected
    /// clock (manual clocks in tests, simulated time under `cqfit-sim`).
    pub uptime_ms: u64,
    /// The server's pipeline window: how many in-flight requests one
    /// connection may have before the server stops reading more.
    pub pipeline_window: usize,
    /// Workspaces currently holding an exactly-once idempotency memo ring.
    pub memo_workspaces: usize,
    /// Total remembered identified mutations across all memo rings
    /// (each ring is capped at the pipeline window).
    pub memo_entries: u64,
    /// Hom/core cache statistics, when caching is enabled.
    pub cache: Option<cqfit_hom::CacheStats>,
    /// Store statistics (records, bytes, compactions), when a store is
    /// configured.
    pub store: Option<cqfit_store::StoreStats>,
    /// Per-workspace revisions, sorted by workspace name — lets operators
    /// watch which workspaces moved since recovery.
    pub revisions: Vec<(String, u64)>,
}

/// A response from the fitting service.
#[derive(Debug, Clone)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::CreateWorkspace`].
    WorkspaceCreated {
        /// Workspace name.
        workspace: String,
    },
    /// Reply to [`Request::DropWorkspace`].
    WorkspaceDropped {
        /// Workspace name.
        workspace: String,
        /// Whether it existed.
        existed: bool,
    },
    /// Reply to [`Request::ListWorkspaces`].
    Workspaces {
        /// Sorted workspace names.
        names: Vec<String>,
    },
    /// Reply to [`Request::WorkspaceInfo`].
    Info {
        /// Workspace name.
        workspace: String,
        /// Number of positive examples.
        positives: usize,
        /// Number of negative examples.
        negatives: usize,
        /// Arity of the workspace.
        arity: usize,
        /// Mutation counter.
        revision: u64,
        /// Whether the maintained product is fresh (no rebuild pending).
        product_fresh: bool,
    },
    /// Reply to [`Request::AddExample`].
    ExampleAdded {
        /// Polarity of the added example.
        polarity: Polarity,
        /// Its id (for removal).
        id: u64,
    },
    /// Reply to [`Request::RemoveExample`].
    ExampleRemoved {
        /// Polarity of the removed example.
        polarity: Polarity,
        /// The id asked for.
        id: u64,
        /// Whether it existed.
        removed: bool,
    },
    /// Reply to [`Request::FittingExists`].
    Exists {
        /// Query class asked about.
        class: QueryClass,
        /// The (exact) answer.
        exists: bool,
    },
    /// Reply to [`Request::Fit`].
    Fitting {
        /// Query class asked about.
        class: QueryClass,
        /// Output mode.
        mode: FitMode,
        /// The fitting query, if one exists.
        query: Option<FitQuery>,
    },
    /// Reply to [`Request::Stats`].
    Stats(EngineStats),
    /// Reply to [`Request::Metrics`]: the full `cqfit-obs` registry
    /// snapshot (counters, gauges, histogram summaries, event/span rings).
    Metrics(cqfit_obs::Snapshot),
    /// Reply to [`Request::Persist`].
    Persisted {
        /// Workspaces whose logs were compacted.
        workspaces: usize,
        /// Total log bytes before compaction.
        bytes_before: u64,
        /// Total log bytes after compaction.
        bytes_after: u64,
    },
    /// Reply to [`Request::Recover`]: what startup recovery restored.
    Recovery {
        /// Workspaces restored.
        workspaces: usize,
        /// Log records replayed.
        records_replayed: u64,
        /// Bytes discarded as torn tails.
        torn_bytes_dropped: u64,
        /// Bytes reclaimed by compaction during recovery.
        bytes_compacted: u64,
    },
    /// Reply to [`Request::StoreInfo`].
    StoreInfo {
        /// The data directory.
        dir: String,
        /// Number of open workspace logs.
        workspaces: usize,
        /// Total records across all logs.
        records: u64,
        /// Total bytes across all logs.
        bytes: u64,
        /// The compaction record budget.
        compact_after: usize,
        /// Whether every append is fsync'd before acknowledgment.
        fsync: bool,
    },
    /// Reply to [`Request::Shutdown`].
    ShuttingDown,
    /// Reply to [`Request::TraceDump`]: recently closed trace spans from
    /// the registry's bounded trace ring, oldest first.
    Traces {
        /// The spans, in ring (completion) order.
        spans: Vec<TraceSpan>,
    },
    /// Reply to [`Request::SlowRequests`]: the slow-request table,
    /// slowest first.
    Slow {
        /// The qualifying spans, slowest first.
        spans: Vec<TraceSpan>,
    },
    /// Any failure: a message, optionally with the position of the
    /// offending token (JSON parse errors and textual example parse
    /// errors).
    Error {
        /// Human-readable description.
        message: String,
        /// 1-based line of the offending token, when known.
        line: Option<usize>,
        /// 1-based column of the offending token, when known.
        col: Option<usize>,
    },
}

impl Response {
    /// An error response without position.
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
            line: None,
            col: None,
        }
    }

    /// An error response from a JSON error, keeping its position if any.
    pub fn from_json_error(e: &JsonError) -> Response {
        Response::Error {
            message: e.msg.clone(),
            line: e.has_position().then_some(e.line),
            col: e.has_position().then_some(e.col),
        }
    }

    /// An error response from a data-layer error; `ParseAt` positions are
    /// surfaced.
    pub fn from_data_error(e: &cqfit_data::DataError) -> Response {
        match e {
            cqfit_data::DataError::ParseAt {
                line,
                token,
                message,
            } => Response::Error {
                message: format!("near `{token}`: {message}"),
                line: Some(*line),
                col: None,
            },
            other => Response::error(other.to_string()),
        }
    }

    /// True for every variant except [`Response::Error`].
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Error { .. })
    }
}

impl Serialize for Response {
    fn to_json(&self) -> Json {
        let ok = |fields: Vec<(&'static str, Json)>| {
            let mut all = vec![("ok", Json::Bool(true))];
            all.extend(fields);
            Json::obj(all)
        };
        match self {
            Response::Pong => ok(vec![("kind", Json::str("pong"))]),
            Response::WorkspaceCreated { workspace } => ok(vec![
                ("kind", Json::str("workspace_created")),
                ("workspace", Json::str(workspace)),
            ]),
            Response::WorkspaceDropped { workspace, existed } => ok(vec![
                ("kind", Json::str("workspace_dropped")),
                ("workspace", Json::str(workspace)),
                ("existed", Json::Bool(*existed)),
            ]),
            Response::Workspaces { names } => ok(vec![
                ("kind", Json::str("workspaces")),
                ("names", names.clone().to_json()),
            ]),
            Response::Info {
                workspace,
                positives,
                negatives,
                arity,
                revision,
                product_fresh,
            } => ok(vec![
                ("kind", Json::str("info")),
                ("workspace", Json::str(workspace)),
                ("positives", Json::Int(*positives as i64)),
                ("negatives", Json::Int(*negatives as i64)),
                ("arity", Json::Int(*arity as i64)),
                ("revision", revision.to_json()),
                ("product_fresh", Json::Bool(*product_fresh)),
            ]),
            Response::ExampleAdded { polarity, id } => ok(vec![
                ("kind", Json::str("example_added")),
                ("polarity", Json::str(polarity.as_str())),
                ("id", id.to_json()),
            ]),
            Response::ExampleRemoved {
                polarity,
                id,
                removed,
            } => ok(vec![
                ("kind", Json::str("example_removed")),
                ("polarity", Json::str(polarity.as_str())),
                ("id", id.to_json()),
                ("removed", Json::Bool(*removed)),
            ]),
            Response::Exists { class, exists } => ok(vec![
                ("kind", Json::str("exists")),
                ("class", Json::str(class.as_str())),
                ("exists", Json::Bool(*exists)),
            ]),
            Response::Fitting { class, mode, query } => {
                let mut fields = vec![
                    ("kind", Json::str("fitting")),
                    ("class", Json::str(class.as_str())),
                    ("mode", Json::str(mode.as_str())),
                    ("found", Json::Bool(query.is_some())),
                ];
                if let Some(q) = query {
                    fields.push(("query", Json::str(q.display())));
                    fields.push(("size", Json::Int(q.size() as i64)));
                    let qj = match q {
                        FitQuery::Cq(q) => q.to_json(),
                        FitQuery::Ucq(q) => q.to_json(),
                    };
                    fields.push(("query_json", qj));
                }
                ok(fields)
            }
            Response::Stats(stats) => {
                let mut fields = vec![
                    ("kind", Json::str("stats")),
                    ("requests", stats.requests.to_json()),
                    ("workspaces", Json::Int(stats.workspaces as i64)),
                    ("uptime_ms", stats.uptime_ms.to_json()),
                    ("pipeline_window", Json::Int(stats.pipeline_window as i64)),
                    ("memo_workspaces", Json::Int(stats.memo_workspaces as i64)),
                    ("memo_entries", stats.memo_entries.to_json()),
                    ("caching", Json::Bool(stats.cache.is_some())),
                ];
                if let Some(c) = &stats.cache {
                    fields.push((
                        "cache",
                        Json::obj([
                            ("hom_hits", c.hom_hits.to_json()),
                            ("hom_misses", c.hom_misses.to_json()),
                            ("core_hits", c.core_hits.to_json()),
                            ("core_misses", c.core_misses.to_json()),
                            ("hom_entries", Json::Int(c.hom_entries as i64)),
                            ("core_entries", Json::Int(c.core_entries as i64)),
                            ("hit_rate", Json::Float(c.hit_rate())),
                        ]),
                    ));
                }
                if let Some(s) = &stats.store {
                    fields.push((
                        "store",
                        Json::obj([
                            ("workspaces", Json::Int(s.workspaces as i64)),
                            ("records", s.records.to_json()),
                            ("bytes", s.bytes.to_json()),
                            ("compactions", s.compactions.to_json()),
                            ("bytes_compacted", s.bytes_compacted.to_json()),
                        ]),
                    ));
                }
                fields.push((
                    "revisions",
                    Json::Obj(
                        stats
                            .revisions
                            .iter()
                            .map(|(name, rev)| (name.clone(), rev.to_json()))
                            .collect(),
                    ),
                ));
                ok(fields)
            }
            Response::Metrics(snap) => {
                let counters = Json::Obj(
                    snap.counters
                        .iter()
                        .map(|(name, value)| (name.clone(), value.to_json()))
                        .collect(),
                );
                let gauges = Json::Obj(
                    snap.gauges
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::Int(*value)))
                        .collect(),
                );
                let histograms = Json::Obj(
                    snap.histograms
                        .iter()
                        .map(|(name, h)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("count", h.count.to_json()),
                                    ("sum", h.sum.to_json()),
                                    ("max", h.max.to_json()),
                                    ("p50", h.p50.to_json()),
                                    ("p90", h.p90.to_json()),
                                    ("p99", h.p99.to_json()),
                                ]),
                            )
                        })
                        .collect(),
                );
                let events = Json::Arr(
                    snap.events
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("at_ns", e.at_ns.to_json()),
                                ("kind", Json::str(&e.kind)),
                                ("detail", Json::str(&e.detail)),
                            ])
                        })
                        .collect(),
                );
                let spans = Json::Arr(
                    snap.spans
                        .iter()
                        .map(|s| {
                            let mut fields = vec![("op", Json::str(&s.op))];
                            if let Some(ws) = &s.workspace {
                                fields.push(("workspace", Json::str(ws)));
                            }
                            if let Some(id) = s.request_id {
                                fields.push(("request_id", id.to_json()));
                            }
                            fields.push(("start_ns", s.start_ns.to_json()));
                            fields.push(("decoded_ns", s.decoded_ns.to_json()));
                            fields.push(("dispatched_ns", s.dispatched_ns.to_json()));
                            fields.push(("replied_ns", s.replied_ns.to_json()));
                            Json::obj(fields)
                        })
                        .collect(),
                );
                ok(vec![
                    ("kind", Json::str("metrics")),
                    ("counters", counters),
                    ("gauges", gauges),
                    ("histograms", histograms),
                    ("events", events),
                    ("spans", spans),
                ])
            }
            Response::Persisted {
                workspaces,
                bytes_before,
                bytes_after,
            } => ok(vec![
                ("kind", Json::str("persisted")),
                ("workspaces", Json::Int(*workspaces as i64)),
                ("bytes_before", bytes_before.to_json()),
                ("bytes_after", bytes_after.to_json()),
            ]),
            Response::Recovery {
                workspaces,
                records_replayed,
                torn_bytes_dropped,
                bytes_compacted,
            } => ok(vec![
                ("kind", Json::str("recovery")),
                ("workspaces", Json::Int(*workspaces as i64)),
                ("records_replayed", records_replayed.to_json()),
                ("torn_bytes_dropped", torn_bytes_dropped.to_json()),
                ("bytes_compacted", bytes_compacted.to_json()),
            ]),
            Response::StoreInfo {
                dir,
                workspaces,
                records,
                bytes,
                compact_after,
                fsync,
            } => ok(vec![
                ("kind", Json::str("store_info")),
                ("dir", Json::str(dir)),
                ("workspaces", Json::Int(*workspaces as i64)),
                ("records", records.to_json()),
                ("bytes", bytes.to_json()),
                ("compact_after", Json::Int(*compact_after as i64)),
                ("fsync", Json::Bool(*fsync)),
            ]),
            Response::ShuttingDown => ok(vec![("kind", Json::str("shutting_down"))]),
            Response::Traces { spans } => ok(vec![
                ("kind", Json::str("traces")),
                (
                    "spans",
                    Json::Arr(spans.iter().map(|s| s.to_json()).collect()),
                ),
            ]),
            Response::Slow { spans } => ok(vec![
                ("kind", Json::str("slow")),
                (
                    "spans",
                    Json::Arr(spans.iter().map(|s| s.to_json()).collect()),
                ),
            ]),
            Response::Error { message, line, col } => {
                let mut fields = vec![("ok", Json::Bool(false)), ("error", Json::str(message))];
                if let Some(line) = line {
                    fields.push(("line", Json::Int(*line as i64)));
                }
                if let Some(col) = col {
                    fields.push(("col", Json::Int(*col as i64)));
                }
                Json::Obj(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                )
            }
        }
    }
}

impl Deserialize for Response {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let ok = bool::from_json(v.req("ok")?)?;
        if !ok {
            return Ok(Response::Error {
                message: req_str(v, "error")?,
                line: v.get("line").and_then(Json::as_i64).map(|l| l as usize),
                col: v.get("col").and_then(Json::as_i64).map(|c| c as usize),
            });
        }
        match req_str(v, "kind")?.as_str() {
            "pong" => Ok(Response::Pong),
            "workspace_created" => Ok(Response::WorkspaceCreated {
                workspace: req_str(v, "workspace")?,
            }),
            "workspace_dropped" => Ok(Response::WorkspaceDropped {
                workspace: req_str(v, "workspace")?,
                existed: bool::from_json(v.req("existed")?)?,
            }),
            "workspaces" => Ok(Response::Workspaces {
                names: Vec::<String>::from_json(v.req("names")?)?,
            }),
            "info" => Ok(Response::Info {
                workspace: req_str(v, "workspace")?,
                positives: usize::from_json(v.req("positives")?)?,
                negatives: usize::from_json(v.req("negatives")?)?,
                arity: usize::from_json(v.req("arity")?)?,
                revision: u64::from_json(v.req("revision")?)?,
                product_fresh: bool::from_json(v.req("product_fresh")?)?,
            }),
            "example_added" => Ok(Response::ExampleAdded {
                polarity: Polarity::parse(&req_str(v, "polarity")?)?,
                id: u64::from_json(v.req("id")?)?,
            }),
            "example_removed" => Ok(Response::ExampleRemoved {
                polarity: Polarity::parse(&req_str(v, "polarity")?)?,
                id: u64::from_json(v.req("id")?)?,
                removed: bool::from_json(v.req("removed")?)?,
            }),
            "exists" => Ok(Response::Exists {
                class: QueryClass::parse(&req_str(v, "class")?)?,
                exists: bool::from_json(v.req("exists")?)?,
            }),
            "fitting" => {
                let class = QueryClass::parse(&req_str(v, "class")?)?;
                let mode = FitMode::parse(&req_str(v, "mode")?)?;
                let found = bool::from_json(v.req("found")?)?;
                let query = if found {
                    let qj = v.req("query_json")?;
                    Some(match class {
                        QueryClass::Cq => FitQuery::Cq(Cq::from_json(qj)?),
                        QueryClass::Ucq => FitQuery::Ucq(Ucq::from_json(qj)?),
                    })
                } else {
                    None
                };
                Ok(Response::Fitting { class, mode, query })
            }
            "stats" => {
                let cache = match v.get("cache") {
                    Some(c) => Some(cqfit_hom::CacheStats {
                        hom_hits: u64::from_json(c.req("hom_hits")?)?,
                        hom_misses: u64::from_json(c.req("hom_misses")?)?,
                        core_hits: u64::from_json(c.req("core_hits")?)?,
                        core_misses: u64::from_json(c.req("core_misses")?)?,
                        hom_entries: usize::from_json(c.req("hom_entries")?)?,
                        core_entries: usize::from_json(c.req("core_entries")?)?,
                    }),
                    None => None,
                };
                let store = match v.get("store") {
                    Some(s) => Some(cqfit_store::StoreStats {
                        workspaces: usize::from_json(s.req("workspaces")?)?,
                        records: u64::from_json(s.req("records")?)?,
                        bytes: u64::from_json(s.req("bytes")?)?,
                        compactions: u64::from_json(s.req("compactions")?)?,
                        bytes_compacted: u64::from_json(s.req("bytes_compacted")?)?,
                    }),
                    None => None,
                };
                let revisions = match v.get("revisions") {
                    Some(r) => r
                        .as_obj()
                        .ok_or_else(|| JsonError::mismatch("object", r))?
                        .iter()
                        .map(|(name, rev)| Ok((name.clone(), u64::from_json(rev)?)))
                        .collect::<Result<Vec<_>, JsonError>>()?,
                    None => Vec::new(),
                };
                Ok(Response::Stats(EngineStats {
                    requests: u64::from_json(v.req("requests")?)?,
                    workspaces: usize::from_json(v.req("workspaces")?)?,
                    // Absent in pre-PR6 captures: default to zero.
                    uptime_ms: match v.get("uptime_ms") {
                        Some(u) => u64::from_json(u)?,
                        None => 0,
                    },
                    // Absent in pre-PR9 captures: default to zero.
                    pipeline_window: match v.get("pipeline_window") {
                        Some(w) => usize::from_json(w)?,
                        None => 0,
                    },
                    memo_workspaces: match v.get("memo_workspaces") {
                        Some(w) => usize::from_json(w)?,
                        None => 0,
                    },
                    memo_entries: match v.get("memo_entries") {
                        Some(e) => u64::from_json(e)?,
                        None => 0,
                    },
                    cache,
                    store,
                    revisions,
                }))
            }
            "metrics" => {
                let obj_of = |key: &str| -> Result<&[(String, Json)], JsonError> {
                    let field = v.req(key)?;
                    field
                        .as_obj()
                        .ok_or_else(|| JsonError::mismatch("object", field))
                };
                let arr_of = |key: &str| -> Result<&[Json], JsonError> {
                    let field = v.req(key)?;
                    field
                        .as_arr()
                        .ok_or_else(|| JsonError::mismatch("array", field))
                };
                let counters = obj_of("counters")?
                    .iter()
                    .map(|(name, value)| Ok((name.clone(), u64::from_json(value)?)))
                    .collect::<Result<Vec<_>, JsonError>>()?;
                let gauges = obj_of("gauges")?
                    .iter()
                    .map(|(name, value)| Ok((name.clone(), i64::from_json(value)?)))
                    .collect::<Result<Vec<_>, JsonError>>()?;
                let histograms = obj_of("histograms")?
                    .iter()
                    .map(|(name, h)| {
                        Ok((
                            name.clone(),
                            cqfit_obs::HistogramSummary {
                                count: u64::from_json(h.req("count")?)?,
                                sum: u64::from_json(h.req("sum")?)?,
                                max: u64::from_json(h.req("max")?)?,
                                p50: u64::from_json(h.req("p50")?)?,
                                p90: u64::from_json(h.req("p90")?)?,
                                p99: u64::from_json(h.req("p99")?)?,
                            },
                        ))
                    })
                    .collect::<Result<Vec<_>, JsonError>>()?;
                let events = arr_of("events")?
                    .iter()
                    .map(|e| {
                        Ok(cqfit_obs::EventRecord {
                            at_ns: u64::from_json(e.req("at_ns")?)?,
                            kind: req_str(e, "kind")?,
                            detail: req_str(e, "detail")?,
                        })
                    })
                    .collect::<Result<Vec<_>, JsonError>>()?;
                let spans = arr_of("spans")?
                    .iter()
                    .map(|s| {
                        Ok(cqfit_obs::SpanRecord {
                            op: req_str(s, "op")?,
                            workspace: match s.get("workspace") {
                                Some(ws) => Some(String::from_json(ws)?),
                                None => None,
                            },
                            request_id: match s.get("request_id") {
                                Some(id) => Some(u64::from_json(id)?),
                                None => None,
                            },
                            start_ns: u64::from_json(s.req("start_ns")?)?,
                            decoded_ns: u64::from_json(s.req("decoded_ns")?)?,
                            dispatched_ns: u64::from_json(s.req("dispatched_ns")?)?,
                            replied_ns: u64::from_json(s.req("replied_ns")?)?,
                        })
                    })
                    .collect::<Result<Vec<_>, JsonError>>()?;
                Ok(Response::Metrics(cqfit_obs::Snapshot {
                    counters,
                    gauges,
                    histograms,
                    events,
                    spans,
                }))
            }
            "persisted" => Ok(Response::Persisted {
                workspaces: usize::from_json(v.req("workspaces")?)?,
                bytes_before: u64::from_json(v.req("bytes_before")?)?,
                bytes_after: u64::from_json(v.req("bytes_after")?)?,
            }),
            "recovery" => Ok(Response::Recovery {
                workspaces: usize::from_json(v.req("workspaces")?)?,
                records_replayed: u64::from_json(v.req("records_replayed")?)?,
                torn_bytes_dropped: u64::from_json(v.req("torn_bytes_dropped")?)?,
                bytes_compacted: u64::from_json(v.req("bytes_compacted")?)?,
            }),
            "store_info" => Ok(Response::StoreInfo {
                dir: req_str(v, "dir")?,
                workspaces: usize::from_json(v.req("workspaces")?)?,
                records: u64::from_json(v.req("records")?)?,
                bytes: u64::from_json(v.req("bytes")?)?,
                compact_after: usize::from_json(v.req("compact_after")?)?,
                fsync: bool::from_json(v.req("fsync")?)?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "traces" | "slow" => {
                let kind = req_str(v, "kind")?;
                let raw = v.req("spans")?;
                let spans = raw
                    .as_arr()
                    .ok_or_else(|| JsonError::mismatch("array", raw))?
                    .iter()
                    .map(TraceSpan::from_json)
                    .collect::<Result<Vec<_>, JsonError>>()?;
                Ok(if kind == "traces" {
                    Response::Traces { spans }
                } else {
                    Response::Slow { spans }
                })
            }
            other => Err(JsonError::semantic(format!(
                "unknown response kind `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) -> Request {
        serde::from_str(&serde::to_string(req)).unwrap()
    }

    #[test]
    fn request_round_trips() {
        let schema = Schema::new([("R", 2)]).unwrap();
        let reqs = vec![
            Request::Ping,
            Request::CreateWorkspace {
                workspace: "w".into(),
                schema,
                arity: 1,
            },
            Request::AddExample {
                workspace: "w".into(),
                polarity: Polarity::Positive,
                example: ExamplePayload::Text("R(a,b)\n* a".into()),
            },
            Request::RemoveExample {
                workspace: "w".into(),
                polarity: Polarity::Negative,
                id: 3,
            },
            Request::Fit {
                workspace: "w".into(),
                class: QueryClass::Ucq,
                mode: FitMode::Minimized,
            },
            Request::FittingExists {
                workspace: "w".into(),
                class: QueryClass::Cq,
            },
            Request::Stats,
            Request::Metrics,
            Request::Persist,
            Request::Recover,
            Request::StoreInfo,
            Request::Shutdown,
            Request::TraceDump,
            Request::SlowRequests { over_us: None },
            Request::SlowRequests {
                over_us: Some(2_500),
            },
        ];
        for req in reqs {
            let back = round_trip_request(&req);
            assert_eq!(
                serde::to_string(&back),
                serde::to_string(&req),
                "round trip of {req:?}"
            );
        }
    }

    #[test]
    fn request_id_rides_along_and_round_trips() {
        let req = Request::AddExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)".into()),
        };
        let wire = req.to_json_with_id((1u64 << 62) + 5).to_string();
        let parsed = serde::json::Value::parse(&wire).unwrap();
        // The id is recoverable and the request parses as if unadorned
        // (unknown keys are ignored by `from_json`).
        assert_eq!(Request::request_id_of(&parsed), Some((1u64 << 62) + 5));
        let back = Request::from_json(&parsed).unwrap();
        assert_eq!(serde::to_string(&back), serde::to_string(&req));
        // Un-identified wire requests read as `None`.
        let plain = serde::json::Value::parse(&serde::to_string(&req)).unwrap();
        assert_eq!(Request::request_id_of(&plain), None);
        // Mutation classification: exactly the four state-changing kinds.
        assert!(req.is_mutation());
        assert!(Request::DropWorkspace {
            workspace: "w".into()
        }
        .is_mutation());
        assert!(!Request::Ping.is_mutation());
        assert!(!Request::Stats.is_mutation());
        assert!(!Request::Metrics.is_mutation());
        assert!(!Request::Shutdown.is_mutation());
    }

    #[test]
    fn trace_context_rides_along_and_round_trips() {
        let req = Request::AddExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)".into()),
        };
        let ctx = TraceContext {
            trace_id: (7u128 << 64) | 9,
            span_id: 0xABCD,
            parent_span_id: 0x1234,
        };
        let wire = req.to_json_with_meta(42, Some(&ctx)).to_string();
        let parsed = serde::json::Value::parse(&wire).unwrap();
        // Both metadata fields are recoverable, and the request parses
        // as if unadorned (unknown keys are ignored by `from_json`).
        assert_eq!(Request::request_id_of(&parsed), Some(42));
        assert_eq!(Request::trace_of(&parsed), Some(ctx));
        let back = Request::from_json(&parsed).unwrap();
        assert_eq!(serde::to_string(&back), serde::to_string(&req));
        // Untraced wire requests read as `None` (pre-PR10 clients).
        let plain = serde::json::Value::parse(&req.to_json_with_id(42).to_string()).unwrap();
        assert_eq!(Request::trace_of(&plain), None);
        // A malformed context also reads as `None` rather than failing.
        let mangled =
            serde::json::Value::parse(&wire.replace("\"trace\":", "\"trace_\":")).unwrap();
        assert_eq!(Request::trace_of(&mangled), None);
    }

    #[test]
    fn trace_and_slow_responses_round_trip() {
        let span = |span_id, parent, name: &str| TraceSpan {
            trace_id: 0xFACE,
            span_id,
            parent_span_id: parent,
            name: name.to_string(),
            start_ns: 1_000,
            end_ns: 5_000,
            annotations: vec![("op".to_string(), "ping".to_string())],
        };
        let responses = vec![
            Response::Traces {
                spans: vec![span(2, 1, "engine.handle"), span(1, 0, "server.request")],
            },
            Response::Traces { spans: Vec::new() },
            Response::Slow {
                spans: vec![span(9, 0, "server.request")],
            },
        ];
        for resp in responses {
            let text = serde::to_string(&resp);
            let back: Response = serde::from_str(&text).unwrap();
            assert_eq!(serde::to_string(&back), text, "round trip of {resp:?}");
            match (&resp, &back) {
                (Response::Traces { spans: a }, Response::Traces { spans: b }) => {
                    assert_eq!(a, b)
                }
                (Response::Slow { spans: a }, Response::Slow { spans: b }) => assert_eq!(a, b),
                other => panic!("variant changed in round trip: {other:?}"),
            }
        }
    }

    #[test]
    fn structured_example_round_trips() {
        let schema = Schema::digraph();
        let e = cqfit_data::parse_example(&schema, "R(a,b)\n* a").unwrap();
        let req = Request::AddExample {
            workspace: "w".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Structured(e.clone()),
        };
        match round_trip_request(&req) {
            Request::AddExample {
                example: ExamplePayload::Structured(back),
                ..
            } => {
                assert!(back.instance().same_facts(e.instance()));
                assert_eq!(back.distinguished(), e.distinguished());
            }
            other => panic!("unexpected round trip {other:?}"),
        }
    }

    #[test]
    fn error_response_keeps_position() {
        let e = JsonError {
            line: 3,
            col: 7,
            msg: "boom".into(),
        };
        let resp = Response::from_json_error(&e);
        let back: Response = serde::from_str(&serde::to_string(&resp)).unwrap();
        match back {
            Response::Error { message, line, col } => {
                assert_eq!(message, "boom");
                assert_eq!(line, Some(3));
                assert_eq!(col, Some(7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn store_responses_round_trip() {
        let responses = vec![
            Response::Persisted {
                workspaces: 2,
                bytes_before: 4096,
                bytes_after: 512,
            },
            Response::Recovery {
                workspaces: 3,
                records_replayed: 17,
                torn_bytes_dropped: 42,
                bytes_compacted: 1000,
            },
            Response::StoreInfo {
                dir: "/data/cqfit".into(),
                workspaces: 3,
                records: 17,
                bytes: 2048,
                compact_after: 1024,
                fsync: true,
            },
            Response::Stats(EngineStats {
                requests: 9,
                workspaces: 1,
                uptime_ms: 1234,
                pipeline_window: 32,
                memo_workspaces: 1,
                memo_entries: 7,
                cache: None,
                store: Some(cqfit_store::StoreStats {
                    workspaces: 1,
                    records: 5,
                    bytes: 300,
                    compactions: 1,
                    bytes_compacted: 120,
                }),
                revisions: vec![("w".into(), 4)],
            }),
        ];
        for resp in responses {
            let text = serde::to_string(&resp);
            let back: Response = serde::from_str(&text).unwrap();
            assert_eq!(serde::to_string(&back), text, "round trip of {resp:?}");
        }
    }

    #[test]
    fn metrics_response_round_trips() {
        let registry = cqfit_obs::Registry::new();
        registry.engine_requests.add(12);
        registry.store_appends_acked.add(4);
        registry.server_connections.set(2);
        registry.store_append_ns.record(1_800);
        registry.store_append_ns.record(150_000);
        registry.event(99, "wal.rollback", "w: rolled back");
        registry.span(cqfit_obs::SpanRecord {
            op: "add_example".into(),
            workspace: Some("w".into()),
            request_id: Some(77),
            start_ns: 10,
            decoded_ns: 11,
            dispatched_ns: 15,
            replied_ns: 16,
        });
        registry.span(cqfit_obs::SpanRecord {
            op: "ping".into(),
            workspace: None,
            request_id: None,
            start_ns: 20,
            decoded_ns: 21,
            dispatched_ns: 22,
            replied_ns: 23,
        });
        let resp = Response::Metrics(registry.snapshot());
        let text = serde::to_string(&resp);
        let back: Response = serde::from_str(&text).unwrap();
        assert_eq!(serde::to_string(&back), text);
        match back {
            Response::Metrics(snap) => {
                assert_eq!(snap, registry.snapshot());
                assert_eq!(snap.counter("engine_requests"), 12);
                assert_eq!(snap.histogram("store_append_ns").unwrap().count, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The stats round-trip tolerates pre-PR9 captures: absent fields
        // default to zero instead of failing.
        let legacy: Response = serde::from_str(
            r#"{"ok":true,"kind":"stats","requests":1,"workspaces":0,"caching":false}"#,
        )
        .unwrap();
        match legacy {
            Response::Stats(stats) => {
                assert_eq!(stats.pipeline_window, 0);
                assert_eq!(stats.memo_workspaces, 0);
                assert_eq!(stats.memo_entries, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(serde::from_str::<Request>(r#"{"op":"nope"}"#).is_err());
        assert!(
            serde::from_str::<Request>(r#"{"op":"fit","workspace":"w","class":"cq"}"#).is_err()
        );
        assert!(serde::from_str::<Request>(
            r#"{"op":"add_example","workspace":"w","polarity":"maybe","text":"R(a,b)"}"#
        )
        .is_err());
        assert!(serde::from_str::<Request>(
            r#"{"op":"add_example","workspace":"w","polarity":"positive"}"#
        )
        .is_err());
    }
}
