//! Causal tracing: trace contexts, a span-opening [`Tracer`] handle, and
//! the server-side slow-request table.
//!
//! A **trace** is a tree of spans sharing one 128-bit `trace_id`; each
//! span carries its own 64-bit `span_id` and its parent's (`0` for a
//! root).  Contexts propagate over the protocol's optional `trace` field,
//! so a retried request's client attempt, its server dispatch, its
//! group-commit wait, and its WAL fsync all land in *one* tree.
//!
//! Determinism contract: ids are drawn from [`cqfit_env::Env::rng_u64`]
//! and timestamps from the [`cqfit_env::Clock`] seam, never from ambient
//! OS sources — under the simulator's seeded rng and `ManualClock`,
//! whole span trees are reproducible bit for bit.

use std::sync::{Arc, Mutex};

use cqfit_env::Env;
use serde::json::{JsonError, Value as Json};
use serde::{Deserialize, Serialize, Source};
use std::borrow::Cow;

use crate::flight::FlightRecorder;
use crate::Registry;

/// Capacity of the registry's completed-trace-span ring.
pub const TRACE_RING_CAPACITY: usize = 1024;

/// Maximum entries retained by a [`SlowTable`] (top-K by duration).
pub const SLOW_TABLE_CAPACITY: usize = 32;

/// The propagated identity of a span: which trace it belongs to, which
/// span it is, and which span caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// 128-bit trace identifier shared by every span in the tree.
    pub trace_id: u128,
    /// This span's identifier (nonzero).
    pub span_id: u64,
    /// The parent span's identifier; `0` marks a trace root.
    pub parent_span_id: u64,
}

impl TraceContext {
    /// The trace id as the 32-digit lower-hex wire form.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// The span id as the 16-digit lower-hex wire form.
    pub fn span_id_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }

    /// Parses a 32-digit hex trace id (as printed by
    /// [`TraceContext::trace_id_hex`]).
    pub fn parse_trace_id(s: &str) -> Option<u128> {
        (!s.is_empty() && s.len() <= 32)
            .then(|| u128::from_str_radix(s, 16).ok())
            .flatten()
    }

    /// Parses a 16-digit hex span id.
    pub fn parse_span_id(s: &str) -> Option<u64> {
        (!s.is_empty() && s.len() <= 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
    }
}

impl Serialize for TraceContext {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::str(self.trace_id_hex())),
            ("span_id", Json::str(self.span_id_hex())),
            (
                "parent_span_id",
                Json::str(format!("{:016x}", self.parent_span_id)),
            ),
        ])
    }
}

impl Deserialize for TraceContext {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        context_of(&mut v)
    }
}

/// Reads the context fields of a context or span object.
fn context_of<'de, S: Source<'de>>(v: &mut S) -> Result<TraceContext, JsonError> {
    let mut hex = |key: &str| -> Result<Cow<'de, str>, JsonError> {
        v.req(key)?
            .as_str()
            .ok_or_else(|| JsonError::semantic(format!("trace field `{key}` must be a string")))
    };
    let trace_id = TraceContext::parse_trace_id(&hex("trace_id")?)
        .ok_or_else(|| JsonError::semantic("invalid trace_id hex"))?;
    let span_id = TraceContext::parse_span_id(&hex("span_id")?)
        .ok_or_else(|| JsonError::semantic("invalid span_id hex"))?;
    let parent_span_id = TraceContext::parse_span_id(&hex("parent_span_id")?)
        .ok_or_else(|| JsonError::semantic("invalid parent_span_id hex"))?;
    Ok(TraceContext {
        trace_id,
        span_id,
        parent_span_id,
    })
}

/// A completed, annotated span: the unit persisted to the trace ring, the
/// flight recorder, and the wire (`trace_dump` / `slow_requests`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSpan {
    /// Trace this span belongs to.
    pub trace_id: u128,
    /// This span's id (nonzero).
    pub span_id: u64,
    /// Parent span id; `0` for trace roots.
    pub parent_span_id: u64,
    /// Span name, e.g. `"server.request"` or `"store.fsync"`.
    pub name: String,
    /// Monotonic start, nanoseconds (env clock).
    pub start_ns: u64,
    /// Monotonic end, nanoseconds (env clock).
    pub end_ns: u64,
    /// Ordered key/value annotations (workspace, op, batch, retry, …).
    pub annotations: Vec<(String, String)>,
}

impl TraceSpan {
    /// Span duration in nanoseconds (0 when the clock stood still).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Looks up an annotation value by key.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// This span's identity as a [`TraceContext`] — what a child span's
    /// context is derived from.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
        }
    }
}

impl Serialize for TraceSpan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::str(format!("{:032x}", self.trace_id))),
            ("span_id", Json::str(format!("{:016x}", self.span_id))),
            (
                "parent_span_id",
                Json::str(format!("{:016x}", self.parent_span_id)),
            ),
            ("name", Json::str(self.name.clone())),
            ("start_ns", self.start_ns.to_json()),
            ("end_ns", self.end_ns.to_json()),
            (
                "annotations",
                Json::Arr(
                    self.annotations
                        .iter()
                        .map(|(k, v)| Json::Arr(vec![Json::str(k.clone()), Json::str(v.clone())]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for TraceSpan {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let ctx = context_of(&mut v)?;
        let name = v
            .req("name")?
            .as_str()
            .ok_or_else(|| JsonError::semantic("span `name` must be a string"))?
            .into_owned();
        let start_ns = u64::deserialize(v.req("start_ns")?)?;
        let end_ns = u64::deserialize(v.req("end_ns")?)?;
        let mut annotations = Vec::new();
        for mut pair in v
            .req("annotations")?
            .as_arr()
            .ok_or_else(|| JsonError::semantic("span `annotations` must be an array"))?
        {
            let kv: [S; 2] = pair
                .as_arr()
                .and_then(|kv| kv.collect::<Vec<_>>().try_into().ok())
                .ok_or_else(|| JsonError::semantic("annotation must be a [key, value] pair"))?;
            let [mut k, mut val] = kv;
            match (k.as_str(), val.as_str()) {
                (Some(k), Some(val)) => annotations.push((k.into_owned(), val.into_owned())),
                _ => return Err(JsonError::semantic("annotation key/value must be strings")),
            }
        }
        Ok(TraceSpan {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: ctx.parent_span_id,
            name,
            start_ns,
            end_ns,
            annotations,
        })
    }
}

/// The handle that mints trace contexts and opens/closes spans against a
/// [`Registry`] (and, when attached, a [`FlightRecorder`]).
///
/// Ids come from the environment's rng, timestamps from its clock — the
/// tracer itself holds no time or randomness state.
#[derive(Debug)]
pub struct Tracer {
    env: Arc<dyn Env>,
    registry: Arc<Registry>,
    flight: Mutex<Option<Arc<FlightRecorder>>>,
}

impl Tracer {
    /// A tracer recording into `registry`, drawing ids and timestamps
    /// from `env`.
    pub fn new(env: Arc<dyn Env>, registry: Arc<Registry>) -> Tracer {
        Tracer {
            env,
            registry,
            flight: Mutex::new(None),
        }
    }

    /// The registry completed spans are pushed to.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Attaches a flight recorder: every span committed from now on is
    /// also journaled durably.
    pub fn attach_flight_recorder(&self, recorder: Arc<FlightRecorder>) {
        *self.flight.lock().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    }

    fn nonzero_id(&self) -> u64 {
        loop {
            let id = self.env.rng_u64();
            if id != 0 {
                return id;
            }
        }
    }

    /// Mints a fresh root context: new trace id, new span id, no parent.
    pub fn root_context(&self) -> TraceContext {
        let trace_id = loop {
            let id = (u128::from(self.env.rng_u64()) << 64) | u128::from(self.env.rng_u64());
            if id != 0 {
                break id;
            }
        };
        TraceContext {
            trace_id,
            span_id: self.nonzero_id(),
            parent_span_id: 0,
        }
    }

    /// Mints a child context under `parent`: same trace, new span id.
    pub fn child_context(&self, parent: &TraceContext) -> TraceContext {
        TraceContext {
            trace_id: parent.trace_id,
            span_id: self.nonzero_id(),
            parent_span_id: parent.span_id,
        }
    }

    /// Current monotonic time in nanoseconds, from the env clock.
    pub fn now_ns(&self) -> u64 {
        self.env.clock().monotonic().as_nanos() as u64
    }

    /// Opens a span for `ctx` starting now.
    pub fn start(&self, ctx: TraceContext, name: &'static str) -> OpenSpan {
        let start_ns = self.now_ns();
        self.start_at(ctx, name, start_ns)
    }

    /// Opens a span for `ctx` with a caller-supplied start timestamp
    /// (e.g. the instant a frame came off the wire, read before decode).
    pub fn start_at(&self, ctx: TraceContext, name: &'static str, start_ns: u64) -> OpenSpan {
        OpenSpan {
            ctx,
            name,
            start_ns,
            annotations: Vec::new(),
        }
    }

    fn commit(&self, span: TraceSpan) -> TraceSpan {
        let flight = self.flight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(recorder) = flight.as_ref() {
            let _ = recorder.record(&span);
        }
        drop(flight);
        self.registry.trace_span(span.clone());
        span
    }
}

/// A span that has been opened but not yet finished.  Accumulates
/// annotations; committing happens in [`OpenSpan::finish`] /
/// [`OpenSpan::finish_at`].
#[derive(Debug)]
pub struct OpenSpan {
    ctx: TraceContext,
    name: &'static str,
    start_ns: u64,
    annotations: Vec<(String, String)>,
}

impl OpenSpan {
    /// This span's context — pass it down as the parent of child spans.
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// The span's start timestamp.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Adds a key/value annotation (insertion order preserved).
    pub fn annotate(&mut self, key: &'static str, value: impl Into<String>) {
        self.annotations.push((key.to_string(), value.into()));
    }

    /// Closes the span now and commits it, returning the completed span.
    pub fn finish(self, tracer: &Tracer) -> TraceSpan {
        let end_ns = tracer.now_ns();
        self.finish_at(tracer, end_ns)
    }

    /// Closes the span at a caller-supplied end timestamp and commits it.
    pub fn finish_at(self, tracer: &Tracer, end_ns: u64) -> TraceSpan {
        tracer.commit(TraceSpan {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span_id: self.ctx.parent_span_id,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            end_ns: end_ns.max(self.start_ns),
            annotations: self.annotations,
        })
    }
}

/// The server-side slow-request table: the top-K completed request spans
/// by duration, gated by a settable threshold.  Backs the
/// `slow_requests` protocol op and `cqfit-session slow`.
#[derive(Debug, Default)]
pub struct SlowTable {
    inner: Mutex<SlowInner>,
}

#[derive(Debug, Default)]
struct SlowInner {
    threshold_ns: u64,
    spans: Vec<TraceSpan>,
}

impl SlowTable {
    /// Sets the minimum duration a span must reach to be retained.
    pub fn set_threshold_ns(&self, ns: u64) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .threshold_ns = ns;
    }

    /// Offers a completed span; retained if it meets the threshold and
    /// ranks in the top [`SLOW_TABLE_CAPACITY`] by duration.
    pub fn record(&self, span: &TraceSpan) {
        let duration = span.duration_ns();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if duration < inner.threshold_ns {
            return;
        }
        let at = inner.spans.partition_point(|s| s.duration_ns() >= duration);
        if at >= SLOW_TABLE_CAPACITY {
            return;
        }
        inner.spans.insert(at, span.clone());
        inner.spans.truncate(SLOW_TABLE_CAPACITY);
    }

    /// The current table, slowest first.
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spans
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_env::{ManualClock, PartsEnv, RealEnv};
    use std::time::Duration;

    #[test]
    fn contexts_chain_and_round_trip() {
        let env: Arc<dyn Env> = Arc::new(PartsEnv::new(
            Arc::new(RealEnv::new()),
            Arc::new(ManualClock::new()),
            7,
        ));
        let tracer = Tracer::new(env, Arc::new(Registry::new()));
        let root = tracer.root_context();
        assert_ne!(root.trace_id, 0);
        assert_ne!(root.span_id, 0);
        assert_eq!(root.parent_span_id, 0);
        let child = tracer.child_context(&root);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);

        let text = serde::to_string(&child);
        let back: TraceContext = serde::from_str(&text).expect("context round trip");
        assert_eq!(back, child);
        assert_eq!(
            TraceContext::parse_trace_id(&root.trace_id_hex()),
            Some(root.trace_id)
        );
        assert_eq!(TraceContext::parse_trace_id("zz"), None);
        assert_eq!(TraceContext::parse_trace_id(""), None);
    }

    #[test]
    fn spans_record_into_the_registry_ring() {
        let env: Arc<dyn Env> = Arc::new(PartsEnv::new(
            Arc::new(RealEnv::new()),
            Arc::new(ManualClock::with_auto_tick(Duration::from_micros(5))),
            11,
        ));
        let registry = Arc::new(Registry::new());
        let tracer = Tracer::new(env, Arc::clone(&registry));
        let root = tracer.root_context();
        let mut span = tracer.start(root, "server.request");
        span.annotate("op", "ping");
        let mut child = tracer.start(tracer.child_context(&root), "engine.handle");
        child.annotate("workspace", "w");
        let child_done = child.finish(&tracer);
        let root_done = span.finish(&tracer);
        assert_eq!(child_done.parent_span_id, root_done.span_id);
        assert!(child_done.start_ns >= root_done.start_ns);
        assert!(child_done.end_ns <= root_done.end_ns);
        assert_eq!(root_done.annotation("op"), Some("ping"));

        let traces = registry.traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].name, "engine.handle");
        assert_eq!(traces[1].name, "server.request");

        let text = serde::to_string(&root_done);
        let back: TraceSpan = serde::from_str(&text).expect("span round trip");
        assert_eq!(back, root_done);
    }

    #[test]
    fn slow_table_keeps_top_k_above_threshold() {
        let table = SlowTable::default();
        table.set_threshold_ns(1_000);
        let span = |id: u64, dur: u64| TraceSpan {
            trace_id: 1,
            span_id: id,
            parent_span_id: 0,
            name: "server.request".to_string(),
            start_ns: 0,
            end_ns: dur,
            annotations: Vec::new(),
        };
        table.record(&span(1, 500)); // below threshold
        for i in 0..(SLOW_TABLE_CAPACITY as u64 + 8) {
            table.record(&span(100 + i, 2_000 + i));
        }
        let snap = table.snapshot();
        assert_eq!(snap.len(), SLOW_TABLE_CAPACITY);
        // Slowest first, and the slowest overall survived the cap.
        assert_eq!(
            snap[0].duration_ns(),
            2_000 + SLOW_TABLE_CAPACITY as u64 + 7
        );
        assert!(snap
            .windows(2)
            .all(|w| w[0].duration_ns() >= w[1].duration_ns()));
        assert!(snap.iter().all(|s| s.duration_ns() >= 1_000 + 1_000));
    }
}
