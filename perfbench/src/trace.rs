//! Benchmark-owned spans: an in-memory, single-thread recorder that the
//! traced replay opens around every public call it makes into a layer, and
//! a filesystem wrapper that records the `proc` layer underneath the store.
//!
//! Spans nest by call structure on the replay thread.  A span's self time
//! is its duration minus the durations of its direct children; summing self
//! time per span name gives the per-layer table.  Work the hom layer fans
//! out to its own worker threads is charged to the span of the call that
//! waited for it.

use cqfit_env::{Env, Fs, FsFile, OpenMode};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    dur_ns: u64,
    child_ns: u64,
}

#[derive(Debug, Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    /// Open spans: (name, start, accumulated child time).
    stack: Vec<(&'static str, Instant, u64)>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Runs `f` inside a span named `name` (a no-op wrapper while recording is
/// off).  Names are `<layer>.<call>`; the layer is the part before the dot.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let on = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.stack.push((name, Instant::now(), 0));
        }
        r.on
    });
    let out = f();
    if on {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let (name, start, child_ns) = r.stack.pop().expect("span stack");
            let dur_ns = start.elapsed().as_nanos() as u64;
            close(&mut r, name, dur_ns, child_ns);
        });
    }
    out
}

/// Records a span of a known duration under the current span without
/// running anything: the replay uses it for work it measured elsewhere but
/// that a call it could not split also performed.
pub fn credit(name: &'static str, dur_ns: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            close(&mut r, name, dur_ns, 0);
        }
    });
}

fn close(r: &mut Recorder, name: &'static str, dur_ns: u64, child_ns: u64) {
    if let Some(parent) = r.stack.last_mut() {
        parent.2 += dur_ns;
    }
    r.spans.push(Span {
        name,
        dur_ns,
        child_ns,
    });
}

/// Turns recording on (clearing earlier spans) or off.
pub fn set_recording(on: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.spans.clear();
        r.stack.clear();
    });
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Row {
    /// Spans closed under the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

/// Takes the recorded spans and sums them per name.
pub fn table() -> BTreeMap<&'static str, Row> {
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for s in &r.spans {
            let row = rows.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += s.dur_ns;
            row.self_ns += s.dur_ns.saturating_sub(s.child_ns);
        }
        rows
    })
}

/// Byte and call counters of a [`TimedFs`].
#[derive(Debug, Default)]
pub struct FsCounters {
    /// Bytes handed to `write_all`.
    pub bytes_written: AtomicU64,
    /// Bytes returned by whole-file reads.
    pub bytes_read: AtomicU64,
    /// `sync_data` + `sync_all` calls on files.
    pub file_syncs: AtomicU64,
}

/// An environment's filesystem with a `proc.*` span around every call,
/// so the replay sees the operating system's share of each store
/// operation.
#[derive(Debug)]
pub struct TimedFs {
    inner: std::sync::Arc<dyn Env>,
    counters: std::sync::Arc<FsCounters>,
}

impl TimedFs {
    /// A wrapper over `inner`'s filesystem sharing `counters`.
    pub fn new(inner: std::sync::Arc<dyn Env>, counters: std::sync::Arc<FsCounters>) -> TimedFs {
        TimedFs { inner, counters }
    }

    fn real(&self) -> &dyn Fs {
        self.inner.fs()
    }
}

#[derive(Debug)]
struct TimedFile {
    inner: Box<dyn FsFile>,
    counters: std::sync::Arc<FsCounters>,
}

impl FsFile for TimedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counters
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        span("proc.write", || self.inner.write_all(buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        span("proc.write", || self.inner.flush())
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.counters.file_syncs.fetch_add(1, Ordering::Relaxed);
        span("proc.fsync", || self.inner.sync_data())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.counters.file_syncs.fetch_add(1, Ordering::Relaxed);
        span("proc.fsync", || self.inner.sync_all())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        span("proc.meta", || self.inner.set_len(len))
    }
}

impl Fs for TimedFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn FsFile>> {
        let inner = span("proc.meta", || self.real().open(path, mode))?;
        Ok(Box::new(TimedFile {
            inner,
            counters: self.counters.clone(),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = span("proc.read", || self.real().read(path))?;
        self.counters
            .bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        span("proc.meta", || self.real().rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        span("proc.meta", || self.real().remove_file(path))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        span("proc.meta", || self.real().create_dir_all(path))
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        span("proc.meta", || self.real().read_dir(path))
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        span("proc.fsync", || self.real().sync_parent_dir(path))
    }
}
