//! The request/response protocol of the fitting service.
//!
//! Requests and responses are JSON objects, one per line on the wire
//! (JSONL); the in-process [`crate::Engine`] consumes the same [`Request`]
//! values directly.  Every request object carries an `"op"` tag; every
//! response carries `"ok"` (`true`/`false`) plus, on success, a `"kind"`
//! tag and op-specific fields.  Examples travel either as structured JSON
//! (the `cqfit_data::serde_impls` shape, self-describing with their
//! schema) or as the textual fact format of [`cqfit_data::parse_example`]
//! (parsed against the workspace schema; parse errors come back with the
//! offending line and token).
//!
//! Each variant's wire form is declared once, as a row of the wire table
//! at the end of this file: `Variant { fields… } => "wire_name"`.  The
//! `wire_table!` macro turns the rows into [`Request::op`] and the
//! `Serialize` / `Deserialize` impls of both enums.  A row writes its tag
//! first and then its fields in row order, each under its own name; the
//! private `Field` trait says how a field sits in the object (a required
//! field is always written and must be present, an `Option` field is
//! written only when set, an example sits under `example` or `text`, and
//! fitting, statistics and metrics snapshot fields have hand-written
//! impls).  Decoding reads the fields in the same order, so the first
//! missing or malformed field is the one reported.  Only
//! [`Response::Error`] sits outside the table.
//! The exact text of every variant is pinned by `tests/wire_golden.txt`.

use cqfit_data::{Example, Schema};
use cqfit_obs::{TraceContext, TraceSpan};
use cqfit_query::{Cq, Ucq};
use serde::json::{JsonError, Value as Json};
use serde::{Deserialize, Serialize, Source};

/// Whether an example is added to `E⁺` or `E⁻`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// A positive example (`E⁺`).
    Positive,
    /// A negative example (`E⁻`).
    Negative,
}

/// The query class a fitting question is asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Conjunctive queries (Section 3 of the paper).
    Cq,
    /// Unions of conjunctive queries (Section 4).
    Ucq,
}

/// Whether a fitting is returned as constructed or minimized (cored).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FitMode {
    /// The canonical construction (most-specific fitting).
    Plain,
    /// The cored, equivalent construction.
    Minimized,
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
    /// event ring.
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
        self.wire_name()
            .expect("every request variant is a wire-table row")
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
    /// snapshot (counters, gauges, histogram summaries, event ring).
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

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

/// Gives a two-valued enum its wire strings and the error for any other
/// string.
macro_rules! wire_enum {
    ($ty:ident, $what:literal, $a:ident => $a_name:literal, $b:ident => $b_name:literal) => {
        impl Serialize for $ty {
            fn to_json(&self) -> Json {
                Json::str(match self {
                    $ty::$a => $a_name,
                    $ty::$b => $b_name,
                })
            }
        }

        impl Deserialize for $ty {
            fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
                match v.as_str().as_deref() {
                    Some($a_name) => Ok($ty::$a),
                    Some($b_name) => Ok($ty::$b),
                    Some(other) => Err(JsonError::semantic(format!(
                        "unknown {} `{other}` (expected `{}` or `{}`)",
                        $what, $a_name, $b_name
                    ))),
                    None => Err(JsonError::mismatch("string", &v)),
                }
            }
        }
    };
}

wire_enum!(Polarity, "polarity", Positive => "positive", Negative => "negative");
wire_enum!(QueryClass, "query class", Cq => "cq", Ucq => "ucq");
wire_enum!(FitMode, "fit mode", Plain => "plain", Minimized => "minimized");

/// The key/value pairs of one JSON object under construction.
type Fields = Vec<(&'static str, Json)>;

/// How one field of a wire-table row sits in the row's JSON object.
trait Field: Sized {
    /// Appends the field to the object; `key` is the field's name in the
    /// row.
    fn put(&self, key: &'static str, out: &mut Fields);
    /// Reads the field back from the whole object.
    fn take<'de, S: Source<'de>>(v: &mut S, key: &str) -> Result<Self, JsonError>;
}

/// Required fields: always written, and must be present.
macro_rules! required_fields {
    ($($t:ty),* $(,)?) => {$(
        impl Field for $t {
            fn put(&self, key: &'static str, out: &mut Fields) {
                out.push((key, self.to_json()));
            }
            fn take<'de, S: Source<'de>>(v: &mut S, key: &str) -> Result<Self, JsonError> {
                <$t>::deserialize(v.req(key)?)
            }
        }
    )*};
}

required_fields!(
    String,
    bool,
    u64,
    usize,
    Schema,
    Vec<String>,
    Vec<TraceSpan>,
    Polarity,
    QueryClass,
    FitMode,
);

/// An optional field: written only when set, `None` when absent.
impl Field for Option<u64> {
    fn put(&self, key: &'static str, out: &mut Fields) {
        out.extend(self.map(|value| (key, value.to_json())));
    }
    fn take<'de, S: Source<'de>>(v: &mut S, key: &str) -> Result<Self, JsonError> {
        v.get(key).map(u64::deserialize).transpose()
    }
}

/// An example sits under `example` (structured) or `text`, never both.
impl Field for ExamplePayload {
    fn put(&self, _: &'static str, out: &mut Fields) {
        out.push(match self {
            ExamplePayload::Structured(e) => ("example", e.to_json()),
            ExamplePayload::Text(t) => ("text", Json::str(t)),
        });
    }
    fn take<'de, S: Source<'de>>(v: &mut S, _: &str) -> Result<Self, JsonError> {
        match (v.get("example"), v.get("text")) {
            (Some(e), None) => Ok(ExamplePayload::Structured(Example::deserialize(e)?)),
            (None, Some(t)) => Ok(ExamplePayload::Text(String::deserialize(t)?)),
            (Some(_), Some(_)) => Err(JsonError::semantic(
                "give either `example` (structured) or `text`, not both",
            )),
            (None, None) => Err(JsonError::semantic(
                "missing example: give `example` (structured) or `text`",
            )),
        }
    }
}

/// A fitting sits as `found` plus, when found, its display text, size
/// and JSON form, read back as a CQ or a UCQ per the reply's `class`.
impl Field for Option<FitQuery> {
    fn put(&self, _: &'static str, out: &mut Fields) {
        out.push(("found", Json::Bool(self.is_some())));
        if let Some(q) = self {
            out.push(("query", Json::str(q.display())));
            out.push(("size", q.size().to_json()));
            let query_json = match q {
                FitQuery::Cq(q) => q.to_json(),
                FitQuery::Ucq(q) => q.to_json(),
            };
            out.push(("query_json", query_json));
        }
    }
    fn take<'de, S: Source<'de>>(v: &mut S, _: &str) -> Result<Self, JsonError> {
        if !bool::take(v, "found")? {
            return Ok(None);
        }
        let query_json = v.req("query_json")?;
        Ok(Some(match QueryClass::take(v, "class")? {
            QueryClass::Cq => FitQuery::Cq(Cq::deserialize(query_json)?),
            QueryClass::Ucq => FitQuery::Ucq(Ucq::deserialize(query_json)?),
        }))
    }
}

/// A `(name, value)` list as a JSON object.
fn object_of<T>(pairs: &[(String, T)], value: impl Fn(&T) -> Json) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(name, v)| (name.clone(), value(v)))
            .collect(),
    )
}

/// A JSON object read back as a `(name, value)` list.
fn pairs_of<'de, S: Source<'de>, T>(
    v: &mut S,
    key: &str,
    value: impl Fn(S) -> Result<T, JsonError>,
) -> Result<Vec<(String, T)>, JsonError> {
    let mut field = v.req(key)?;
    field
        .as_obj()
        .ok_or_else(|| JsonError::mismatch("object", &field))?
        .map(|(name, v)| Ok((name.into_owned(), value(v)?)))
        .collect()
}

/// An integer that older replies may lack, read as zero when absent.
fn zero_if_absent<'de, S: Source<'de>, T: Deserialize + Default>(
    v: &mut S,
    key: &str,
) -> Result<T, JsonError> {
    Ok(v.get(key)
        .map(T::deserialize)
        .transpose()?
        .unwrap_or_default())
}

/// Engine statistics sit flat in the reply, the cache and store parts
/// as nested objects present only when configured.
impl Field for EngineStats {
    fn put(&self, _: &'static str, out: &mut Fields) {
        out.extend([
            ("requests", self.requests.to_json()),
            ("workspaces", self.workspaces.to_json()),
            ("uptime_ms", self.uptime_ms.to_json()),
            ("pipeline_window", self.pipeline_window.to_json()),
            ("memo_workspaces", self.memo_workspaces.to_json()),
            ("memo_entries", self.memo_entries.to_json()),
            ("caching", Json::Bool(self.cache.is_some())),
        ]);
        if let Some(c) = &self.cache {
            let cache = Json::obj([
                ("hom_hits", c.hom_hits.to_json()),
                ("hom_misses", c.hom_misses.to_json()),
                ("core_hits", c.core_hits.to_json()),
                ("core_misses", c.core_misses.to_json()),
                ("hom_entries", c.hom_entries.to_json()),
                ("core_entries", c.core_entries.to_json()),
                ("hit_rate", Json::Float(c.hit_rate())),
            ]);
            out.push(("cache", cache));
        }
        if let Some(s) = &self.store {
            let store = Json::obj([
                ("workspaces", s.workspaces.to_json()),
                ("records", s.records.to_json()),
                ("bytes", s.bytes.to_json()),
                ("compactions", s.compactions.to_json()),
                ("bytes_compacted", s.bytes_compacted.to_json()),
            ]);
            out.push(("store", store));
        }
        out.push(("revisions", object_of(&self.revisions, u64::to_json)));
    }
    fn take<'de, S: Source<'de>>(v: &mut S, _: &str) -> Result<Self, JsonError> {
        let cache = match v.get("cache") {
            Some(mut c) => Some(cqfit_hom::CacheStats {
                hom_hits: u64::take(&mut c, "hom_hits")?,
                hom_misses: u64::take(&mut c, "hom_misses")?,
                core_hits: u64::take(&mut c, "core_hits")?,
                core_misses: u64::take(&mut c, "core_misses")?,
                hom_entries: usize::take(&mut c, "hom_entries")?,
                core_entries: usize::take(&mut c, "core_entries")?,
            }),
            None => None,
        };
        let store = match v.get("store") {
            Some(mut s) => Some(cqfit_store::StoreStats {
                workspaces: usize::take(&mut s, "workspaces")?,
                records: u64::take(&mut s, "records")?,
                bytes: u64::take(&mut s, "bytes")?,
                compactions: u64::take(&mut s, "compactions")?,
                bytes_compacted: u64::take(&mut s, "bytes_compacted")?,
            }),
            None => None,
        };
        let revisions = match v.get("revisions") {
            Some(_) => pairs_of(v, "revisions", u64::deserialize)?,
            None => Vec::new(),
        };
        Ok(EngineStats {
            requests: u64::take(v, "requests")?,
            workspaces: usize::take(v, "workspaces")?,
            uptime_ms: zero_if_absent(v, "uptime_ms")?,
            pipeline_window: zero_if_absent(v, "pipeline_window")?,
            memo_workspaces: zero_if_absent(v, "memo_workspaces")?,
            memo_entries: zero_if_absent(v, "memo_entries")?,
            cache,
            store,
            revisions,
        })
    }
}

/// A registry snapshot sits flat in the reply: counters, gauges and
/// histogram summaries as objects keyed by metric name, and the event
/// ring as an array.
impl Field for cqfit_obs::Snapshot {
    fn put(&self, _: &'static str, out: &mut Fields) {
        let histogram = |h: &cqfit_obs::HistogramSummary| {
            Json::obj([
                ("count", h.count.to_json()),
                ("sum", h.sum.to_json()),
                ("max", h.max.to_json()),
                ("p50", h.p50.to_json()),
                ("p90", h.p90.to_json()),
                ("p99", h.p99.to_json()),
            ])
        };
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::obj([
                    ("at_ns", e.at_ns.to_json()),
                    ("kind", Json::str(&e.kind)),
                    ("detail", Json::str(&e.detail)),
                ])
            })
            .collect();
        out.extend([
            ("counters", object_of(&self.counters, u64::to_json)),
            ("gauges", object_of(&self.gauges, i64::to_json)),
            ("histograms", object_of(&self.histograms, histogram)),
            ("events", Json::Arr(events)),
        ]);
    }
    fn take<'de, S: Source<'de>>(v: &mut S, _: &str) -> Result<Self, JsonError> {
        let histogram = |mut h: S| {
            Ok(cqfit_obs::HistogramSummary {
                count: u64::take(&mut h, "count")?,
                sum: u64::take(&mut h, "sum")?,
                max: u64::take(&mut h, "max")?,
                p50: u64::take(&mut h, "p50")?,
                p90: u64::take(&mut h, "p90")?,
                p99: u64::take(&mut h, "p99")?,
            })
        };
        let counters = pairs_of(v, "counters", u64::deserialize)?;
        let gauges = pairs_of(v, "gauges", i64::deserialize)?;
        let histograms = pairs_of(v, "histograms", histogram)?;
        let mut events = v.req("events")?;
        let events = events
            .as_arr()
            .ok_or_else(|| JsonError::mismatch("array", &events))?
            .map(|mut e| {
                Ok(cqfit_obs::EventRecord {
                    at_ns: u64::take(&mut e, "at_ns")?,
                    kind: String::take(&mut e, "kind")?,
                    detail: String::take(&mut e, "detail")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(cqfit_obs::Snapshot {
            counters,
            gauges,
            histograms,
            events,
        })
    }
}

/// The wire table: one row per variant, `Variant { fields… } =>
/// "wire_name"` (or `Variant(field) => …` for a newtype variant).
/// Generates the row's wire name, its encoder (the `$tag` key with the
/// wire name, then each field in row order) and its decoder.
macro_rules! wire_table {
    (
        $ty:ident by $tag:literal {
            $($variant:ident $(($inner:ident))? $({ $($field:ident),* })? => $name:literal,)*
        }
    ) => {
        impl $ty {
            /// The wire name of this variant, `None` when it is not a
            /// table row.
            #[allow(unreachable_patterns)]
            fn wire_name(&self) -> Option<&'static str> {
                match self {
                    $($ty::$variant { .. } => Some($name),)*
                    _ => None,
                }
            }

            /// Appends the tag and fields of this variant's row (nothing
            /// when it is not a table row).
            #[allow(unreachable_patterns)]
            fn encode_row(&self, out: &mut Fields) {
                let Some(name) = self.wire_name() else {
                    return;
                };
                out.push(($tag, Json::str(name)));
                match self {
                    $($ty::$variant $(($inner))? $({ $($field),* })? => {
                        $(Field::put($inner, stringify!($inner), out);)?
                        $($(Field::put($field, stringify!($field), out);)*)?
                    })*
                    _ => {}
                }
            }

            /// Decodes the row named `name`; `None` when no row has it.
            fn decode_row<'de, S: Source<'de>>(
                name: &str,
                v: &mut S,
            ) -> Result<Option<Self>, JsonError> {
                Ok(Some(match name {
                    $($name => $ty::$variant
                        $((Field::take(v, stringify!($inner))?))?
                        $({ $($field: Field::take(v, stringify!($field))?),* })?,)*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

wire_table! {
    Request by "op" {
        Ping => "ping",
        CreateWorkspace { workspace, schema, arity } => "create_workspace",
        DropWorkspace { workspace } => "drop_workspace",
        ListWorkspaces => "list_workspaces",
        WorkspaceInfo { workspace } => "workspace_info",
        AddExample { workspace, polarity, example } => "add_example",
        RemoveExample { workspace, polarity, id } => "remove_example",
        FittingExists { workspace, class } => "fitting_exists",
        Fit { workspace, class, mode } => "fit",
        Stats => "stats",
        Metrics => "metrics",
        Persist => "persist",
        Recover => "recover",
        StoreInfo => "store_info",
        Shutdown => "shutdown",
        TraceDump => "trace_dump",
        SlowRequests { over_us } => "slow_requests",
    }
}

wire_table! {
    Response by "kind" {
        Pong => "pong",
        WorkspaceCreated { workspace } => "workspace_created",
        WorkspaceDropped { workspace, existed } => "workspace_dropped",
        Workspaces { names } => "workspaces",
        Info { workspace, positives, negatives, arity, revision, product_fresh } => "info",
        ExampleAdded { polarity, id } => "example_added",
        ExampleRemoved { polarity, id, removed } => "example_removed",
        Exists { class, exists } => "exists",
        Fitting { class, mode, query } => "fitting",
        Stats(stats) => "stats",
        Metrics(snapshot) => "metrics",
        Persisted { workspaces, bytes_before, bytes_after } => "persisted",
        Recovery { workspaces, records_replayed, torn_bytes_dropped, bytes_compacted } => "recovery",
        StoreInfo { dir, workspaces, records, bytes, compact_after, fsync } => "store_info",
        ShuttingDown => "shutting_down",
        Traces { spans } => "traces",
        Slow { spans } => "slow",
    }
}

impl Serialize for Request {
    fn to_json(&self) -> Json {
        let mut out = Fields::new();
        self.encode_row(&mut out);
        Json::obj(out)
    }
}

impl Deserialize for Request {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let op = String::take(&mut v, "op")?;
        Request::decode_row(&op, &mut v)?
            .ok_or_else(|| JsonError::semantic(format!("unknown op `{op}`")))
    }
}

impl Serialize for Response {
    fn to_json(&self) -> Json {
        let mut out = vec![("ok", Json::Bool(self.is_ok()))];
        if let Response::Error { message, line, col } = self {
            out.push(("error", Json::str(message)));
            out.extend(line.map(|line| ("line", Json::Int(line as i64))));
            out.extend(col.map(|col| ("col", Json::Int(col as i64))));
        } else {
            self.encode_row(&mut out);
        }
        Json::obj(out)
    }
}

impl Deserialize for Response {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        if !bool::take(&mut v, "ok")? {
            return Ok(Response::Error {
                message: String::take(&mut v, "error")?,
                line: v
                    .get("line")
                    .and_then(|mut l| l.as_i64())
                    .map(|l| l as usize),
                col: v
                    .get("col")
                    .and_then(|mut c| c.as_i64())
                    .map(|c| c as usize),
            });
        }
        let kind = String::take(&mut v, "kind")?;
        Response::decode_row(&kind, &mut v)?
            .ok_or_else(|| JsonError::semantic(format!("unknown response kind `{kind}`")))
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
