//! `cqfit-obs` — the observability spine of the cqfit stack.
//!
//! A std-only, dependency-free metrics registry designed for two masters at
//! once:
//!
//! * **Production hot paths.**  Counters, gauges, and histograms are plain
//!   atomics — recording a sample is a handful of `fetch_add`s with no
//!   allocation, no locking, and no formatting.  The group-commit append
//!   loop and the pipelined request path can afford to call them on every
//!   record.
//! * **The deterministic simulator.**  The registry itself never reads a
//!   clock.  Every timestamp and duration is passed in by the caller, who
//!   obtains it from the `cqfit-env` `Clock` seam.  Under `ManualClock`
//!   (fixed auto-tick) the recorded values are bit-for-bit reproducible
//!   across runs, so the sim harness can assert *exact* counter and
//!   histogram contents against its oracle.
//!
//! The pieces:
//!
//! * [`Counter`] — monotonically increasing `AtomicU64`.
//! * [`Gauge`] — instantaneous `AtomicI64` (connections, pipeline depth).
//! * [`Histogram`] — 64 log₂-scaled buckets plus exact count/sum/max;
//!   p50/p90/p99 are extracted from the bucket counts at snapshot time.
//! * [`Registry`] — a plain struct with one named field per metric.  No
//!   hash maps, no string interning: the set of metrics is closed at
//!   compile time, which is what keeps the hot path allocation-free.
//! * A bounded event ring ([`EventRecord`]) for structured tracing of
//!   rare transitions (rollback, poison, compaction, reconnect).
//! * [`Snapshot`] — a plain-data copy of everything, plus
//!   [`render_prometheus`] for text exposition.
//! * Causal tracing ([`TraceContext`], [`Tracer`], [`TraceSpan`]) with a
//!   bounded trace ring, a [`SlowTable`] of the slowest
//!   requests, a crash-surviving [`FlightRecorder`] journal, and
//!   Chrome-trace / waterfall exporters ([`render_chrome_trace`],
//!   [`render_waterfall`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod flight;
mod trace;

pub use export::{render_chrome_trace, render_waterfall};
pub use flight::{
    crc32, decode_journal, FlightRecorder, FR_DEFAULT_SLOTS, FR_FILE_NAME, FR_HEADER_BYTES,
    FR_MAGIC, FR_MAX_PAYLOAD, FR_SLOT_BYTES,
};
pub use trace::{
    OpenSpan, SlowTable, TraceContext, TraceSpan, Tracer, SLOW_TABLE_CAPACITY, TRACE_RING_CAPACITY,
};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of log₂ buckets in a [`Histogram`].
///
/// Bucket `i` holds samples whose bit length is `i` — i.e. values in
/// `[2^(i-1), 2^i - 1]` — with bucket 0 reserved for exact zeros and the
/// final bucket absorbing everything above `2^62`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Capacity of the structured-event ring buffer.
pub const EVENT_RING_CAPACITY: usize = 128;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂-scaled histogram for latency-like samples
/// (nanoseconds by convention).
///
/// Recording is three relaxed `fetch_add`s and one `fetch_max` — no
/// allocation, no lock.  Quantiles are extracted from the bucket counts at
/// snapshot time; the reported quantile is the inclusive upper bound of
/// the bucket containing the target rank, clamped to the exact observed
/// maximum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps a sample to its bucket index: bit length of the value, clamped to
/// the final bucket.  Zero lands in bucket 0.
#[inline]
fn bucket_index(value: u64) -> usize {
    let bits = (u64::BITS - value.leading_zeros()) as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `index` (`2^index - 1`, saturating for
/// the final bucket).
#[inline]
fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the full bucket state out for quantile extraction.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Condensed summary (count/sum/max + p50/p90/p99) for wire exposure.
    pub fn summary(&self) -> HistogramSummary {
        self.snapshot().summary()
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Extracts quantile `q` (in `[0, 1]`) as the inclusive upper bound of
    /// the bucket holding the target rank, clamped to the observed max.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Condenses the snapshot to count/sum/max + p50/p90/p99.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Condensed histogram view carried in snapshots and over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

/// A structured event: a rare, named transition worth tracing (rollback,
/// poison, compaction, reconnect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic timestamp in nanoseconds, drawn by the caller from the
    /// `cqfit-env` clock.
    pub at_ns: u64,
    /// Event kind, e.g. `"wal.rollback"`.
    pub kind: String,
    /// Free-form detail (workspace name, byte counts, error text).
    pub detail: String,
}

#[derive(Debug)]
struct Ring<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self {
            items: Mutex::new(VecDeque::new()),
        }
    }
}

impl<T: Clone> Ring<T> {
    fn push(&self, item: T, capacity: usize) {
        let mut items = self.items.lock().unwrap_or_else(|e| e.into_inner());
        if items.len() == capacity {
            items.pop_front();
        }
        items.push_back(item);
    }

    fn to_vec(&self) -> Vec<T> {
        let items = self.items.lock().unwrap_or_else(|e| e.into_inner());
        items.iter().cloned().collect()
    }
}

/// The closed set of metrics for the whole stack.
///
/// One registry is shared per process side: the store creates one and the
/// engine adopts it (mirroring how the engine inherits the store's `Env`),
/// so store, cache, engine, and server metrics land in a single snapshot;
/// the client owns its own.  Fields a given holder never touches simply
/// stay zero.
#[derive(Debug, Default)]
pub struct Registry {
    // -- store / WAL --
    /// Full append latency: stage → ticket resolution.
    pub store_append_ns: Histogram,
    /// Time an append spent parked on the group-commit condvar.
    pub store_commit_wait_ns: Histogram,
    /// Leader flush latency: write + flush + fsync of one batch.
    pub store_fsync_ns: Histogram,
    /// Records per group-commit batch.
    pub store_batch_records: Histogram,
    /// Records durably acknowledged (ticket resolved Ok).
    pub store_appends_acked: Counter,
    /// Appends that resolved with a commit error.
    pub store_append_errors: Counter,
    /// Successful post-failure rollbacks (`set_len` truncations).
    pub store_rollbacks: Counter,
    /// Rollback failures that poisoned a log.
    pub store_poisons: Counter,
    /// Snapshot compactions performed.
    pub store_compactions: Counter,
    /// Bytes reclaimed by compaction.
    pub store_bytes_compacted: Counter,

    // -- engine --
    /// Requests handled (including batch members).
    pub engine_requests: Counter,
    /// Fitting-computation latency: one sample per answered question
    /// (a question that fails records nothing).
    pub engine_fit_ns: Histogram,
    /// Identified mutations answered from the idempotency memo.
    pub engine_memo_replays: Counter,
    /// Homomorphism-cache hits.
    pub hom_hits: Counter,
    /// Homomorphism-cache misses.
    pub hom_misses: Counter,
    /// Core-cache hits.  No cache serves cores, so this stays 0; it is
    /// kept for the readers of the snapshot that still sum it.
    pub core_hits: Counter,
    /// Cores computed through `HomCache::core_of`.
    pub core_misses: Counter,

    // -- server --
    /// Live connections being served.
    pub server_connections: Gauge,
    /// Requests in flight in the pipeline window right now.
    pub server_pipeline_depth: Gauge,
    /// Distribution of dispatched batch sizes (pipelined reads take >1).
    pub server_batch_depth: Histogram,
    /// Wire-to-wire request latency (decode → reply, per batch member).
    pub server_request_ns: Histogram,

    // -- client --
    /// Calls retried after a transport error.
    pub client_retries: Counter,
    /// Reconnects performed after losing an established connection.
    pub client_reconnects: Counter,
    /// Backoff sleeps taken before a retry.
    pub client_backoff_sleeps: Counter,

    // -- tracing --
    /// The slow-request table: top-K completed request spans by
    /// duration, threshold-gated (see [`SlowTable`]).
    pub slow: SlowTable,

    events: Ring<EventRecord>,
    traces: Ring<TraceSpan>,
}

impl Registry {
    /// Creates a registry with every metric at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a structured event to the bounded ring (oldest dropped).
    /// This takes a lock and allocates — rare-path only.
    pub fn event(&self, at_ns: u64, kind: &str, detail: impl Into<String>) {
        self.events.push(
            EventRecord {
                at_ns,
                kind: kind.to_string(),
                detail: detail.into(),
            },
            EVENT_RING_CAPACITY,
        );
    }

    /// Appends a completed trace span to the bounded trace ring.
    /// Normally called through [`OpenSpan::finish`], not directly.
    pub fn trace_span(&self, span: TraceSpan) {
        self.traces.push(span, TRACE_RING_CAPACITY);
    }

    /// The current contents of the trace ring, oldest first.  Kept out
    /// of [`Snapshot`] (and therefore off the `metrics` wire op): trace
    /// dumps have their own protocol op with different volume and
    /// retention than metrics scrapes.
    pub fn traces(&self) -> Vec<TraceSpan> {
        self.traces.to_vec()
    }

    /// Copies every metric into a plain-data [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counter = |name: &str, c: &Counter| (name.to_string(), c.get());
        let gauge = |name: &str, g: &Gauge| (name.to_string(), g.get());
        let histogram = |name: &str, h: &Histogram| (name.to_string(), h.summary());
        Snapshot {
            counters: vec![
                counter("store_appends_acked", &self.store_appends_acked),
                counter("store_append_errors", &self.store_append_errors),
                counter("store_rollbacks", &self.store_rollbacks),
                counter("store_poisons", &self.store_poisons),
                counter("store_compactions", &self.store_compactions),
                counter("store_bytes_compacted", &self.store_bytes_compacted),
                counter("engine_requests", &self.engine_requests),
                counter("engine_memo_replays", &self.engine_memo_replays),
                counter("hom_hits", &self.hom_hits),
                counter("hom_misses", &self.hom_misses),
                counter("core_hits", &self.core_hits),
                counter("core_misses", &self.core_misses),
                counter("client_retries", &self.client_retries),
                counter("client_reconnects", &self.client_reconnects),
                counter("client_backoff_sleeps", &self.client_backoff_sleeps),
            ],
            gauges: vec![
                gauge("server_connections", &self.server_connections),
                gauge("server_pipeline_depth", &self.server_pipeline_depth),
            ],
            histograms: vec![
                histogram("store_append_ns", &self.store_append_ns),
                histogram("store_commit_wait_ns", &self.store_commit_wait_ns),
                histogram("store_fsync_ns", &self.store_fsync_ns),
                histogram("store_batch_records", &self.store_batch_records),
                histogram("engine_fit_ns", &self.engine_fit_ns),
                histogram("server_batch_depth", &self.server_batch_depth),
                histogram("server_request_ns", &self.server_request_ns),
            ],
            events: self.events.to_vec(),
        }
    }
}

/// A plain-data copy of a [`Registry`] at one instant: name/value lists
/// for counters and gauges, condensed summaries for histograms, and the
/// current contents of the event ring.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, in registry order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, in registry order.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram, in registry order.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Bounded structured-event ring contents (oldest first).
    pub events: Vec<EventRecord>,
}

impl Snapshot {
    /// Looks up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Looks up a gauge by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// `# HELP` text for a series: the metric name with the word breaks
/// spelled out (the closed metric set carries its real documentation as
/// rustdoc on [`Registry`]'s fields).
fn help_text(name: &str) -> String {
    name.replace('_', " ")
}

/// Renders a registry in the Prometheus text exposition format
/// (version 0.0.4).  Counters and gauges become single samples;
/// histograms are real `histogram`-typed families with **cumulative
/// `_bucket` series** carrying `le` labels at the log₂ bucket upper
/// bounds (empty buckets elided, `+Inf` always present), plus `_sum` and
/// `_count`, and a companion `_max` gauge for the exact observed
/// maximum.  Every family gets `# HELP` and `# TYPE` lines, and every
/// series is prefixed `cqfit_`.
///
/// Takes the registry rather than a [`Snapshot`] because bucket-level
/// detail is deliberately kept off the wire snapshot — the scrape
/// endpoint is in-process and reads the live atomics.
pub fn render_prometheus(registry: &Registry) -> String {
    let counters: [(&str, &Counter); 15] = [
        ("store_appends_acked", &registry.store_appends_acked),
        ("store_append_errors", &registry.store_append_errors),
        ("store_rollbacks", &registry.store_rollbacks),
        ("store_poisons", &registry.store_poisons),
        ("store_compactions", &registry.store_compactions),
        ("store_bytes_compacted", &registry.store_bytes_compacted),
        ("engine_requests", &registry.engine_requests),
        ("engine_memo_replays", &registry.engine_memo_replays),
        ("hom_hits", &registry.hom_hits),
        ("hom_misses", &registry.hom_misses),
        ("core_hits", &registry.core_hits),
        ("core_misses", &registry.core_misses),
        ("client_retries", &registry.client_retries),
        ("client_reconnects", &registry.client_reconnects),
        ("client_backoff_sleeps", &registry.client_backoff_sleeps),
    ];
    let gauges: [(&str, &Gauge); 2] = [
        ("server_connections", &registry.server_connections),
        ("server_pipeline_depth", &registry.server_pipeline_depth),
    ];
    let histograms: [(&str, &Histogram); 7] = [
        ("store_append_ns", &registry.store_append_ns),
        ("store_commit_wait_ns", &registry.store_commit_wait_ns),
        ("store_fsync_ns", &registry.store_fsync_ns),
        ("store_batch_records", &registry.store_batch_records),
        ("engine_fit_ns", &registry.engine_fit_ns),
        ("server_batch_depth", &registry.server_batch_depth),
        ("server_request_ns", &registry.server_request_ns),
    ];

    let mut out = String::new();
    for (name, counter) in counters {
        out.push_str(&format!(
            "# HELP cqfit_{name} {}\n# TYPE cqfit_{name} counter\ncqfit_{name} {}\n",
            help_text(name),
            counter.get()
        ));
    }
    for (name, gauge) in gauges {
        out.push_str(&format!(
            "# HELP cqfit_{name} {}\n# TYPE cqfit_{name} gauge\ncqfit_{name} {}\n",
            help_text(name),
            gauge.get()
        ));
    }
    for (name, histogram) in histograms {
        let snap = histogram.snapshot();
        out.push_str(&format!(
            "# HELP cqfit_{name} {}\n# TYPE cqfit_{name} histogram\n",
            help_text(name)
        ));
        let mut cumulative = 0u64;
        for (index, &bucket) in snap.buckets.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            cumulative += bucket;
            out.push_str(&format!(
                "cqfit_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_upper_bound(index)
            ));
        }
        out.push_str(&format!(
            "cqfit_{name}_bucket{{le=\"+Inf\"}} {}\ncqfit_{name}_sum {}\ncqfit_{name}_count {}\n",
            snap.count, snap.sum, snap.count
        ));
        out.push_str(&format!(
            "# HELP cqfit_{name}_max {} max\n# TYPE cqfit_{name}_max gauge\ncqfit_{name}_max {}\n",
            help_text(name),
            snap.max
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_env::{Clock, ManualClock};
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket i holds values with bit length i: [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);

        let h = Histogram::new();
        h.record(1023);
        h.record(1024);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.buckets[11], 1);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 2047);
        assert_eq!(snap.max, 1024);
    }

    #[test]
    fn quantiles_come_from_bucket_ranks_clamped_to_max() {
        let h = Histogram::new();
        // 90 cheap samples in bucket 7 ([64, 127]), 10 slow in bucket 14.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(9000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.50), 127);
        assert_eq!(snap.quantile(0.90), 127);
        // Rank 99 falls in the slow bucket; its bound clamps to the max.
        assert_eq!(snap.quantile(0.99), 9000);
        assert_eq!(snap.quantile(1.0), 9000);
        assert_eq!(snap.max, 9000);

        let empty = Histogram::new().snapshot();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.summary(), HistogramSummary::default());
    }

    #[test]
    fn manual_clock_driven_latencies_are_deterministic() {
        // The registry never reads a clock: the caller times operations
        // through the env seam.  Under ManualClock every monotonic()
        // reading auto-ticks by exactly the configured step, so the
        // recorded durations — and therefore the whole snapshot — are
        // reproducible bit for bit.
        let run = || {
            let clock = ManualClock::with_auto_tick(std::time::Duration::from_micros(3));
            let h = Histogram::new();
            for _ in 0..5 {
                let begun = clock.monotonic();
                let ended = clock.monotonic();
                h.record((ended - begun).as_nanos() as u64);
            }
            h.snapshot()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert_eq!(first.count, 5);
        // Each sample is exactly one 3µs auto-tick.
        assert_eq!(first.sum, 5 * 3_000);
        assert_eq!(first.max, 3_000);
        assert_eq!(first.quantile(0.5), bucket_upper_bound(12).min(3_000));
    }

    #[test]
    fn concurrent_writers_lose_no_samples() {
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                        c.inc();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8_000);
        assert_eq!(c.get(), 8_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 8_000);
        // Exact sum: sum over t of sum over i of (1000 t + i).
        let expected: u64 = (0..8u64)
            .map(|t| 1_000 * (1_000 * t) + (0..1_000).sum::<u64>())
            .sum();
        assert_eq!(snap.sum, expected);
    }

    #[test]
    fn gauge_tracks_ups_and_downs() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-4);
        assert_eq!(g.get(), -4);
    }

    #[test]
    fn event_and_span_rings_are_bounded() {
        let registry = Registry::new();
        for i in 0..(EVENT_RING_CAPACITY + 10) {
            registry.event(i as u64, "wal.rollback", format!("event {i}"));
        }
        for i in 0..(TRACE_RING_CAPACITY + 5) {
            registry.trace_span(TraceSpan {
                span_id: i as u64,
                ..TraceSpan::default()
            });
        }
        let snap = registry.snapshot();
        assert_eq!(snap.events.len(), EVENT_RING_CAPACITY);
        assert_eq!(snap.events[0].detail, "event 10");
        let traces = registry.traces();
        assert_eq!(traces.len(), TRACE_RING_CAPACITY);
        assert_eq!(traces[0].span_id, 5);
    }

    #[test]
    fn snapshot_lookups_and_prometheus_rendering() {
        let registry = Registry::new();
        registry.store_appends_acked.add(42);
        registry.server_connections.set(3);
        registry.store_append_ns.record(2_500);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("store_appends_acked"), 42);
        assert_eq!(snap.counter("no_such_counter"), 0);
        assert_eq!(snap.gauge("server_connections"), 3);
        assert_eq!(snap.histogram("store_append_ns").unwrap().count, 1);

        let text = render_prometheus(&registry);
        assert!(text.contains("# TYPE cqfit_store_appends_acked counter"));
        assert!(text.contains("cqfit_store_appends_acked 42"));
        assert!(text.contains("cqfit_server_connections 3"));
        assert!(text.contains("cqfit_store_append_ns_count 1"));
        // 2500 has bit length 12: bucket upper bound 4095, cumulative 1.
        assert!(text.contains("cqfit_store_append_ns_bucket{le=\"4095\"} 1"));
        assert!(text.contains("cqfit_store_append_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("# TYPE cqfit_store_append_ns histogram"));
        // Every non-comment line is "name value" — parseable exposition.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            let name = parts.next().unwrap();
            assert!(name.starts_with("cqfit_"));
            let value = parts.next().unwrap();
            assert!(
                value.parse::<i64>().is_ok() || value.parse::<u64>().is_ok(),
                "{line}"
            );
            assert!(parts.next().is_none());
        }
    }

    #[test]
    fn exposition_declares_types_and_helps_and_cumulates_buckets() {
        let registry = Registry::new();
        // Samples across several buckets, to exercise cumulation.
        for value in [0, 1, 100, 100, 2_500, 9_000, 9_001] {
            registry.server_request_ns.record(value);
        }
        registry.engine_requests.add(7);
        let text = render_prometheus(&registry);

        // Collect TYPE/HELP declarations per family.
        let mut types = std::collections::HashMap::new();
        let mut helps = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let family = parts.next().unwrap().to_string();
                let kind = parts.next().unwrap().to_string();
                assert!(parts.next().is_none(), "TYPE line has extra tokens: {line}");
                assert!(
                    matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                    "bad TYPE kind: {line}"
                );
                assert!(
                    !types.contains_key(&family),
                    "family declared twice: {family}"
                );
                types.insert(family, kind);
            } else if let Some(rest) = line.strip_prefix("# HELP ") {
                helps.insert(rest.split(' ').next().unwrap().to_string());
            }
        }
        // Every declared family has HELP text too.
        for family in types.keys() {
            assert!(helps.contains(family), "missing HELP for {family}");
        }

        // Every sample line belongs to a declared family of the right
        // kind, stripping histogram suffixes and labels.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let series = line.split(' ').next().unwrap();
            let series = series.split('{').next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| series.strip_suffix(suffix))
                .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                .unwrap_or(series);
            assert!(types.contains_key(family), "undeclared series: {line}");
        }

        // Bucket series are cumulative, non-decreasing, and end at the
        // sample count on the +Inf bucket.
        let buckets: Vec<(String, u64)> = text
            .lines()
            .filter(|l| l.starts_with("cqfit_server_request_ns_bucket{le="))
            .map(|l| {
                let mut parts = l.split(' ');
                (
                    parts.next().unwrap().to_string(),
                    parts.next().unwrap().parse::<u64>().unwrap(),
                )
            })
            .collect();
        assert!(buckets.len() >= 4, "expected several buckets: {buckets:?}");
        assert!(
            buckets.windows(2).all(|w| w[0].1 <= w[1].1),
            "buckets must cumulate: {buckets:?}"
        );
        let last = buckets.last().unwrap();
        assert!(last.0.contains("le=\"+Inf\""));
        assert_eq!(last.1, 7);
        // Spot-check one boundary: two samples of 100 land in the
        // [64, 127] bucket; with 0 and 1 below, the cumulative at
        // le="127" is 4.
        assert!(text.contains("cqfit_server_request_ns_bucket{le=\"127\"} 4"));
    }
}
