//! Append-only log files: framing, fsync discipline, torn-tail
//! truncation, and atomic snapshot rewrites.
//!
//! One file per workspace, named by a percent-style encoding of the
//! workspace name (so arbitrary names cannot escape the data directory or
//! collide), extension `.wal`.  Appends go through a single handle opened
//! in append mode; with `fsync` enabled every append is `sync_data`'d
//! before it is acknowledged, which is what bounds the loss window of a
//! `kill -9` to the single unacknowledged request.  Compaction rewrites
//! the log as one snapshot record via the classic temp-file + rename +
//! directory-sync sequence, so a crash mid-compaction leaves either the
//! old log or the new one, never a mix.
//!
//! Every filesystem call goes through [`cqfit_env::Fs`], so the same code
//! runs against the real filesystem in production and against
//! `cqfit-sim`'s crash-injecting `SimFs` in the simulation harness.

use crate::record::{decode_record, encode_record, LogRecord, RecordError};
use crate::StoreError;
use cqfit_env::{Env, Fs, FsFile, OpenMode};
use cqfit_obs::{Registry, TraceContext, Tracer};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Extension of write-ahead log files.
pub(crate) const WAL_EXT: &str = "wal";

/// Encodes a workspace name as a filesystem-safe file stem: ASCII
/// alphanumerics, `-` and `_` pass through, every other byte becomes
/// `%XX`.  The encoding is injective, so distinct workspace names never
/// share a log file.
pub(crate) fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Decodes a file stem produced by [`encode_name`]; `None` for stems this
/// store did not write (stray files in the data directory are skipped, not
/// destroyed).
///
/// Only the *canonical* encoding is accepted: a stem using lowercase hex
/// or escaping a byte that did not need escaping decodes to a name whose
/// re-encoding differs, and is rejected — otherwise two distinct on-disk
/// stems (e.g. `a` and `%61`) would collapse onto one workspace name and
/// recovery would silently pair one file's state with another's handle.
pub(crate) fn decode_name(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = stem.get(i + 1..i + 3)?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            }
            b @ (b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_') => {
                out.push(b);
                i += 1;
            }
            _ => return None,
        }
    }
    let name = String::from_utf8(out).ok()?;
    (encode_name(&name) == stem).then_some(name)
}

/// The shared outcome of one group-committed batch: every appender whose
/// record rode the batch reads the same result once the covering sync (or
/// its failure) has happened.  On success the ticket carries the batch's
/// per-log sequence number, which is what links every member's
/// `store.append` trace span to the leader's `store.fsync` span.
type CommitTicket = OnceLock<Result<u64, CommitError>>;

/// A clonable snapshot of the I/O error that failed a batch, handed to
/// every follower of the batch (`std::io::Error` itself is not `Clone`).
#[derive(Debug, Clone)]
struct CommitError {
    kind: std::io::ErrorKind,
    message: String,
}

impl CommitError {
    fn of(e: &std::io::Error) -> CommitError {
        CommitError {
            kind: e.kind(),
            message: e.to_string(),
        }
    }

    fn into_store_error(self) -> StoreError {
        StoreError::Io(std::io::Error::new(self.kind, self.message))
    }
}

/// The mutable half of a log handle, behind [`WalFile`]'s mutex.
#[derive(Debug)]
struct WalInner {
    /// The open append handle; `None` exactly while a commit leader is
    /// writing a batch outside the lock (the leader owns it meanwhile).
    file: Option<Box<dyn FsFile>>,
    /// Records durably in the file (staged records do not count until
    /// their batch commits).
    records: u64,
    /// Records appended since the most recent snapshot record (compaction
    /// budget accounting; the snapshot itself does not count).
    since_snapshot: u64,
    /// Bytes durably in the file — the rollback target of a failed batch.
    bytes: u64,
    /// Encoded lines staged for the next batch, in stage order.
    staged: String,
    /// Per staged record: is it a snapshot record (for the
    /// `since_snapshot` accounting once the batch commits)?
    staged_meta: Vec<bool>,
    /// The ticket of the currently open (staged, not yet taken) batch;
    /// `None` when nothing is staged.
    batch: Option<Arc<CommitTicket>>,
    /// Sequence number the next committed batch will carry (trace
    /// correlation between append spans and their covering fsync).
    next_batch_seq: u64,
    /// Set when a failed append could not be rolled back: the on-disk
    /// tail no longer matches the counters, so further appends could land
    /// *behind* torn bytes and be silently discarded at recovery.  A
    /// poisoned log rejects every operation until a restart replays and
    /// truncates it.
    poisoned: bool,
}

impl WalInner {
    fn check_poisoned(&self, path: &Path) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Corrupt(poison_message(path)));
        }
        Ok(())
    }
}

fn poison_message(path: &Path) -> String {
    format!(
        "log {} is poisoned by an earlier unrecoverable I/O failure; \
         restart to replay and truncate it",
        path.display()
    )
}

/// The open append handle of one workspace's log, with its record and byte
/// counters and the group-commit queue.
///
/// ## Group commit
///
/// Concurrent appends to one log are batched into a single
/// `write_all` + `sync_data` pair: each appender *stages* its encoded
/// line under the log mutex and joins the open batch's commit ticket.
/// The first appender that finds the file handle free becomes the
/// batch's **leader**: it takes every staged line, releases the lock,
/// writes the whole batch with one `write_all`, syncs once, re-takes the
/// lock, advances the counters, and resolves the ticket.  **Followers**
/// block on the ticket and are acknowledged only after the covering sync
/// — durability semantics per record are exactly those of the old
/// fsync-per-append discipline, at one fsync per batch.  Records staged
/// while a leader is writing form the next batch; their stagers wait,
/// and the first to wake after the leader publishes leads that batch.
///
/// A sequential caller degrades to batches of one with the identical
/// write/flush/sync call sequence as before, which keeps the simulated
/// filesystem's op-count coordinates (crash points, write/sync faults)
/// stable.
#[derive(Debug)]
pub(crate) struct WalFile {
    env: Arc<dyn Env>,
    path: PathBuf,
    fsync: bool,
    /// Shared metrics registry (the store's); append/commit-wait/fsync
    /// latencies, batch sizes, ack counts, and rollback/poison events are
    /// recorded here.  Timestamps come from `env.clock()` only, so under
    /// `ManualClock` the recorded values are deterministic.
    registry: Arc<Registry>,
    inner: Mutex<WalInner>,
    /// Signalled whenever a batch resolves or the file handle returns.
    commit_cv: Condvar,
}

impl WalFile {
    /// Creates a fresh (truncated) log file.
    pub(crate) fn create(
        env: Arc<dyn Env>,
        path: PathBuf,
        fsync: bool,
        registry: Arc<Registry>,
    ) -> Result<Self, StoreError> {
        // Truncate any stale file first, then take the real handle in
        // O_APPEND mode — every write must land at EOF *by mode*, not by
        // cursor position: the append-failure rollback truncates with
        // `set_len`, which does not move a write-mode cursor, and a
        // stale cursor past EOF would make the next acknowledged append
        // write behind a NUL hole that recovery then truncates away.
        drop(env.fs().open(&path, OpenMode::CreateTruncate)?);
        let file = env.fs().open(&path, OpenMode::Append)?;
        if fsync {
            env.fs().sync_parent_dir(&path)?;
        }
        Ok(WalFile::with_handle(
            env, path, fsync, registry, file, 0, 0, 0,
        ))
    }

    /// Opens an existing log for appending, with counters supplied by the
    /// replay that just scanned it.
    pub(crate) fn open_append(
        env: Arc<dyn Env>,
        path: PathBuf,
        fsync: bool,
        registry: Arc<Registry>,
        records: u64,
        since_snapshot: u64,
        bytes: u64,
    ) -> Result<Self, StoreError> {
        let file = env.fs().open(&path, OpenMode::Append)?;
        Ok(WalFile::with_handle(
            env,
            path,
            fsync,
            registry,
            file,
            records,
            since_snapshot,
            bytes,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn with_handle(
        env: Arc<dyn Env>,
        path: PathBuf,
        fsync: bool,
        registry: Arc<Registry>,
        file: Box<dyn FsFile>,
        records: u64,
        since_snapshot: u64,
        bytes: u64,
    ) -> Self {
        WalFile {
            env,
            path,
            fsync,
            registry,
            inner: Mutex::new(WalInner {
                file: Some(file),
                records,
                since_snapshot,
                bytes,
                staged: String::new(),
                staged_meta: Vec::new(),
                batch: None,
                next_batch_seq: 0,
                poisoned: false,
            }),
            commit_cv: Condvar::new(),
        }
    }

    /// Records currently committed to the file.
    pub(crate) fn records(&self) -> u64 {
        self.inner.lock().expect("wal state").records
    }

    /// Records committed since the most recent snapshot record.
    pub(crate) fn since_snapshot(&self) -> u64 {
        self.inner.lock().expect("wal state").since_snapshot
    }

    /// Bytes currently committed to the file.
    pub(crate) fn bytes(&self) -> u64 {
        self.inner.lock().expect("wal state").bytes
    }

    /// Appends one record; with `fsync` enabled the record is on disk when
    /// this returns.  Concurrent appends are group-committed: see the
    /// type-level documentation for the staging / leader / follower
    /// protocol.
    ///
    /// On failure the file is rolled back to the last acknowledged record,
    /// so a half-written batch (write error) or a written-but-unsynced
    /// batch (fsync error after the write landed) can never sit in front
    /// of later acknowledged appends — either would be silently discarded
    /// at recovery, losing acknowledged data (torn fragment) or
    /// resurrecting rejected mutations (unsynced records).  If the
    /// rollback itself fails, the log is poisoned and rejects everything
    /// until a restart replays and truncates it.
    pub(crate) fn append(&self, record: &LogRecord) -> Result<(), StoreError> {
        self.append_traced(record, None)
    }

    /// [`append`] under an optional trace context: a `store.append` span
    /// (staging through resolution) is opened as a child of the given
    /// context, with a `store.commit_wait` child covering the queued
    /// portion; if this appender ends up leading its batch, the covering
    /// `store.fsync` span is parented under its append span.  With
    /// `trace: None` the call is byte-for-byte the untraced path — no
    /// extra clock or rng draws.
    ///
    /// [`append`]: WalFile::append
    pub(crate) fn append_traced(
        &self,
        record: &LogRecord,
        trace: Option<(&Tracer, &TraceContext)>,
    ) -> Result<(), StoreError> {
        let begun_ns = self.env.clock().monotonic().as_nanos() as u64;
        // The append span's own context is fixed up front so a leader can
        // parent its fsync span under it before the span closes.
        let append_ctx = trace.map(|(tracer, parent)| tracer.child_context(parent));
        let line = encode_record(record);
        let is_snapshot = matches!(record, LogRecord::Snapshot(_));
        let mut inner = self.inner.lock().expect("wal state");
        inner.check_poisoned(&self.path)?;
        // Stage under the lock and join the open batch's ticket.
        inner.staged.push_str(&line);
        inner.staged_meta.push(is_snapshot);
        let ticket = match &inner.batch {
            Some(t) => t.clone(),
            None => {
                let t = Arc::new(CommitTicket::new());
                inner.batch = Some(t.clone());
                t
            }
        };
        let staged_ns = self.env.clock().monotonic().as_nanos() as u64;
        loop {
            if let Some(outcome) = ticket.get() {
                let resolved_ns = self.env.clock().monotonic().as_nanos() as u64;
                self.registry
                    .store_append_ns
                    .record(resolved_ns.saturating_sub(begun_ns));
                self.registry
                    .store_commit_wait_ns
                    .record(resolved_ns.saturating_sub(staged_ns));
                if outcome.is_err() {
                    self.registry.store_append_errors.inc();
                }
                if let (Some((tracer, _)), Some(ctx)) = (trace, append_ctx) {
                    let wait =
                        tracer.start_at(tracer.child_context(&ctx), "store.commit_wait", staged_ns);
                    wait.finish_at(tracer, resolved_ns);
                    let mut span = tracer.start_at(ctx, "store.append", begun_ns);
                    if let Ok(seq) = outcome {
                        span.annotate("batch", seq.to_string());
                    }
                    span.finish_at(tracer, resolved_ns);
                }
                return outcome
                    .clone()
                    .map(|_| ())
                    .map_err(CommitError::into_store_error);
            }
            let batch_still_open = inner
                .batch
                .as_ref()
                .is_some_and(|b| Arc::ptr_eq(b, &ticket));
            if batch_still_open && inner.file.is_some() {
                // No leader is writing and our batch is still staged:
                // lead it ourselves (resolves `ticket`, so the next loop
                // iteration returns).
                inner = self.flush_batch(inner, trace.map(|(t, _)| (t, append_ctx.unwrap())));
                continue;
            }
            // Either a leader owns the handle or it owns our batch:
            // wait for it to publish.
            inner = self.commit_cv.wait(inner).expect("wal state");
        }
    }

    /// Takes the currently staged batch and commits it with one
    /// `write_all` + one `sync_data`, resolving its ticket.  Must be
    /// called with the file handle present and a batch staged; the lock
    /// is released for the duration of the I/O so later appends can stage
    /// the next batch meanwhile.
    fn flush_batch<'a>(
        &'a self,
        mut inner: MutexGuard<'a, WalInner>,
        trace: Option<(&Tracer, TraceContext)>,
    ) -> MutexGuard<'a, WalInner> {
        let batch = std::mem::take(&mut inner.staged);
        let meta = std::mem::take(&mut inner.staged_meta);
        let ticket = inner
            .batch
            .take()
            .expect("flush_batch needs a staged batch");
        let seq = inner.next_batch_seq;
        if inner.poisoned {
            let _ = ticket.set(Err(CommitError {
                kind: std::io::ErrorKind::Other,
                message: poison_message(&self.path),
            }));
            self.commit_cv.notify_all();
            return inner;
        }
        let mut file = inner
            .file
            .take()
            .expect("flush_batch needs the file handle");
        let acked_bytes = inner.bytes;
        drop(inner);
        // One write + one flush + one (covering) sync for the whole
        // batch: every record in it becomes durable together.
        let flush_begun_ns = self.env.clock().monotonic().as_nanos() as u64;
        let written = file
            .write_all(batch.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| if self.fsync { file.sync_data() } else { Ok(()) });
        let flush_ended_ns = self.env.clock().monotonic().as_nanos() as u64;
        self.registry
            .store_fsync_ns
            .record(flush_ended_ns.saturating_sub(flush_begun_ns));
        self.registry.store_batch_records.record(meta.len() as u64);
        if let Some((tracer, leader_ctx)) = trace {
            let mut span = tracer.start_at(
                tracer.child_context(&leader_ctx),
                "store.fsync",
                flush_begun_ns,
            );
            span.annotate("batch", seq.to_string());
            span.annotate("records", meta.len().to_string());
            span.finish_at(tracer, flush_ended_ns);
        }
        let outcome = match written {
            Ok(()) => Ok(()),
            Err(e) => {
                // Roll the file back to the last acknowledged byte; the
                // whole batch fails together (no record of it was synced).
                let rolled_back = file.set_len(acked_bytes).and_then(|()| file.sync_data());
                if rolled_back.is_ok() {
                    self.registry.store_rollbacks.inc();
                    self.registry.event(
                        flush_ended_ns,
                        "wal.rollback",
                        format!(
                            "{}: rolled back to {acked_bytes} bytes: {e}",
                            self.path.display()
                        ),
                    );
                } else {
                    self.registry.store_poisons.inc();
                    self.registry.event(
                        flush_ended_ns,
                        "wal.poison",
                        format!("{}: rollback failed: {e}", self.path.display()),
                    );
                }
                Err((CommitError::of(&e), rolled_back.is_err()))
            }
        };
        let mut inner = self.inner.lock().expect("wal state");
        inner.file = Some(file);
        inner.next_batch_seq = seq + 1;
        match outcome {
            Ok(()) => {
                self.registry.store_appends_acked.add(meta.len() as u64);
                inner.records += meta.len() as u64;
                for is_snapshot in meta {
                    if is_snapshot {
                        inner.since_snapshot = 0;
                    } else {
                        inner.since_snapshot += 1;
                    }
                }
                inner.bytes += batch.len() as u64;
                let _ = ticket.set(Ok(seq));
            }
            Err((e, rollback_failed)) => {
                if rollback_failed {
                    inner.poisoned = true;
                }
                let _ = ticket.set(Err(e));
            }
        }
        self.commit_cv.notify_all();
        inner
    }

    /// Waits until no commit leader is writing, draining any staged batch
    /// first (leading it if necessary), and returns the guard with the
    /// file handle present and the stage empty.
    fn quiesce(&self) -> MutexGuard<'_, WalInner> {
        let mut inner = self.inner.lock().expect("wal state");
        loop {
            if inner.batch.is_some() && inner.file.is_some() {
                // A staged-but-unflushed batch: flush it now so no caller
                // of sync/rewrite can observe staged records dropped on a
                // clean shutdown.  Quiesce-driven flushes are untraced:
                // the stagers' own spans still resolve off the ticket.
                inner = self.flush_batch(inner, None);
                continue;
            }
            if inner.file.is_some() && inner.batch.is_none() {
                return inner;
            }
            inner = self.commit_cv.wait(inner).expect("wal state");
        }
    }

    /// Atomically replaces the log's contents with the given records
    /// (compaction: a single snapshot record).  Returns `(bytes_before,
    /// bytes_after)`.
    ///
    /// Runs quiesced: any in-flight batch commits first, and the lock is
    /// held across the whole temp-write + rename + reopen sequence, so a
    /// batch can never land in the unlinked pre-rewrite inode.
    pub(crate) fn rewrite(&self, records: &[LogRecord]) -> Result<(u64, u64), StoreError> {
        let mut inner = self.quiesce();
        inner.check_poisoned(&self.path)?;
        let bytes_before = inner.bytes;
        let tmp_path = self.path.with_extension("wal.tmp");
        let mut text = String::new();
        for record in records {
            text.push_str(&encode_record(record));
        }
        // Failures before the rename leave the old log and its handle
        // fully intact — plain error returns are safe (the stray temp
        // file is removed best-effort).
        let tmp_written = (|| {
            let mut tmp = self.env.fs().open(&tmp_path, OpenMode::CreateTruncate)?;
            tmp.write_all(text.as_bytes())?;
            tmp.sync_all()?;
            Ok::<(), std::io::Error>(())
        })();
        if let Err(e) = tmp_written {
            let _ = self.env.fs().remove_file(&tmp_path);
            return Err(e.into());
        }
        if let Err(e) = self.env.fs().rename(&tmp_path, &self.path) {
            let _ = self.env.fs().remove_file(&tmp_path);
            return Err(e.into());
        }
        // From here on the rename has happened: the open handle points at
        // the unlinked pre-rewrite inode.  Any failure to re-establish a
        // handle on the renamed file must POISON the log — otherwise
        // later appends would be written (and fsync'd, and acknowledged)
        // into the unlinked inode and silently vanish on restart.
        let reopened = (|| {
            if self.fsync {
                self.env.fs().sync_parent_dir(&self.path)?;
            }
            self.env.fs().open(&self.path, OpenMode::Append)
        })();
        match reopened {
            Ok(file) => inner.file = Some(file),
            Err(e) => {
                inner.poisoned = true;
                return Err(e.into());
            }
        }
        inner.records = records.len() as u64;
        inner.since_snapshot = records
            .iter()
            .rev()
            .take_while(|r| !matches!(r, LogRecord::Snapshot(_)))
            .count() as u64;
        inner.bytes = text.len() as u64;
        Ok((bytes_before, inner.bytes))
    }

    /// Flushes and (when enabled) fsyncs the file, first draining any
    /// staged-but-unsynced batch — the clean-shutdown path must never
    /// drop records that are sitting in the commit queue.
    pub(crate) fn sync(&self) -> Result<(), StoreError> {
        let mut inner = self.quiesce();
        inner.check_poisoned(&self.path)?;
        let file = inner.file.as_mut().expect("quiesced handle");
        file.flush()?;
        if self.fsync {
            file.sync_data()?;
        }
        Ok(())
    }
}

/// Outcome of scanning one log file on open.
#[derive(Debug)]
pub(crate) struct ReplayOutcome {
    /// Records decoded and handed on (0 if the whole file was torn).
    pub(crate) records: u64,
    /// Bytes of intact records (the file is truncated to this length).
    pub(crate) good_bytes: u64,
    /// Bytes discarded as the torn tail.
    pub(crate) torn_bytes: u64,
    /// Records appended after the most recent snapshot record.
    pub(crate) since_snapshot: u64,
}

/// Reads a log file, handing each record to `apply` in log order as it
/// is decoded, until the first torn line, and **truncates the file** to
/// the intact prefix so subsequent appends extend a clean log.
///
/// A record is intact when its line is newline-terminated, framed, and
/// passes its checksum.  Everything from the first torn line on is the
/// torn tail — records after it are unreplayable because log order is the
/// mutation order.  An intact line that does not decode is not a torn
/// write: it fails the replay with [`StoreError::Corrupt`] and the file is
/// left as it is.
pub(crate) fn replay(
    fs: &dyn Fs,
    path: &Path,
    mut apply: impl FnMut(LogRecord),
) -> Result<ReplayOutcome, StoreError> {
    let data = fs.read(path)?;
    let mut records = 0;
    let mut offset = 0usize;
    let mut since_snapshot = 0u64;
    while offset < data.len() {
        let Some(nl) = data[offset..].iter().position(|&b| b == b'\n') else {
            break; // unterminated tail
        };
        let record = match decode_record(&data[offset..offset + nl]) {
            Ok(record) => record,
            Err(RecordError::Torn(_)) => break,
            Err(RecordError::Corrupt(msg)) => {
                return Err(StoreError::Corrupt(format!(
                    "{}: intact record at byte {offset} does not decode: {msg}",
                    path.display()
                )))
            }
        };
        if matches!(record, LogRecord::Snapshot(_)) {
            since_snapshot = 0;
        } else {
            since_snapshot += 1;
        }
        apply(record);
        records += 1;
        offset += nl + 1;
    }
    let good_bytes = offset as u64;
    let torn_bytes = (data.len() - offset) as u64;
    if torn_bytes > 0 {
        let mut file = fs.open(path, OpenMode::Write)?;
        file.set_len(good_bytes)?;
        file.sync_all()?;
    }
    Ok(ReplayOutcome {
        records,
        good_bytes,
        torn_bytes,
        since_snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_env::RealEnv;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn real_env() -> Arc<dyn Env> {
        RealEnv::arc()
    }

    /// Replays a log, keeping its records.
    fn replay_all(fs: &dyn Fs, path: &Path) -> (ReplayOutcome, Vec<LogRecord>) {
        let mut records = Vec::new();
        let outcome = replay(fs, path, |r| records.push(r)).unwrap();
        (outcome, records)
    }

    /// The freshly-created handle must write at EOF *by mode*: after the
    /// rollback path truncates with `set_len`, a write-mode cursor would
    /// sit past EOF and the next acknowledged append would land behind a
    /// NUL-filled hole that recovery truncates away — silent loss of
    /// acknowledged records.
    #[test]
    fn create_handle_appends_at_eof_after_rollback_truncation() {
        let dir = std::env::temp_dir().join(format!("cqfit_wal_cursor_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let env = real_env();
        let path = dir.join("t.wal");
        let record = LogRecord::Create {
            schema: cqfit_data::Schema::digraph().as_ref().clone(),
            arity: 0,
        };
        let wal =
            WalFile::create(env.clone(), path.clone(), false, Arc::new(Registry::new())).unwrap();
        wal.append(&record).unwrap();
        let one_record = std::fs::metadata(&path).unwrap().len();
        // Simulate the append-failure rollback: truncate everything and
        // reset the counters, exactly as the error path does.
        {
            let mut inner = wal.inner.lock().unwrap();
            inner.file.as_mut().unwrap().set_len(0).unwrap();
            inner.bytes = 0;
            inner.records = 0;
            inner.since_snapshot = 0;
        }
        // The next append must land at the new EOF (offset 0), not at the
        // pre-truncation cursor position.
        wal.append(&record).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            one_record,
            "append after truncation must not leave a hole"
        );
        let (outcome, records) = replay_all(env.fs(), &path);
        assert_eq!(records.len(), 1);
        assert_eq!(outcome.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Group commit: concurrent appenders against one log all come back
    /// acknowledged, every record is intact on disk, and the counters
    /// match — regardless of how the batches formed.
    #[test]
    fn concurrent_appends_group_commit_without_losing_records() {
        let dir = std::env::temp_dir().join(format!("cqfit_wal_group_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let env = real_env();
        let path = dir.join("g.wal");
        let registry = Arc::new(Registry::new());
        let wal =
            Arc::new(WalFile::create(env.clone(), path.clone(), true, registry.clone()).unwrap());
        let schema = cqfit_data::Schema::digraph();
        let example = cqfit_data::parse_example(&schema, "R(a,b)").unwrap();
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 25;
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let wal = wal.clone();
                let example = example.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        wal.append(&LogRecord::AddExample {
                            id: (w as u64) * PER_WRITER + i,
                            positive: true,
                            example: example.clone(),
                            request_id: Some((w as u64) << 32 | i),
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wal.records(), WRITERS as u64 * PER_WRITER);
        assert_eq!(wal.bytes(), std::fs::metadata(&path).unwrap().len());
        let (outcome, records) = replay_all(env.fs(), &path);
        assert_eq!(records.len(), WRITERS * PER_WRITER as usize);
        assert_eq!(outcome.torn_bytes, 0);
        let mut ids: Vec<u64> = records
            .iter()
            .map(|r| match r {
                LogRecord::AddExample { id, .. } => *id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..WRITERS as u64 * PER_WRITER).collect::<Vec<_>>());
        // Metric invariants: every acked record was counted exactly once,
        // the batch-size distribution covers exactly the acked records,
        // and nothing failed or rolled back.
        let total = WRITERS as u64 * PER_WRITER;
        assert_eq!(registry.store_appends_acked.get(), total);
        assert_eq!(registry.store_batch_records.snapshot().sum, total);
        assert_eq!(registry.store_append_ns.count(), total);
        assert_eq!(registry.store_commit_wait_ns.count(), total);
        assert_eq!(registry.store_append_errors.get(), 0);
        assert_eq!(registry.store_rollbacks.get(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn name_encoding_round_trips_and_is_safe() {
        for name in ["plain", "with space", "sl/ash", "..", "ünïcode", "a%b", ""] {
            let encoded = encode_name(name);
            assert!(
                encoded
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'),
                "unsafe byte in {encoded:?}"
            );
            assert_eq!(decode_name(&encoded).as_deref(), Some(name));
        }
        // Distinct names cannot collide (injective encoding).
        assert_ne!(encode_name("a b"), encode_name("a_b"));
        // Stems we did not write are rejected, not misdecoded.
        assert_eq!(decode_name("has.dot"), None);
        assert_eq!(decode_name("bad%zz"), None);
        assert_eq!(decode_name("trunc%4"), None);
        // Non-canonical encodings must not collapse onto canonical names:
        // `%61` (an escaped safe byte) and lowercase hex decode to names
        // whose canonical stems differ, so both are rejected.
        assert_eq!(decode_name("%61"), None, "escape of a safe byte");
        assert_eq!(decode_name("a%2fb"), None, "lowercase hex");
        assert_eq!(decode_name("a%2Fb").as_deref(), Some("a/b"));
    }

    /// A random workspace name drawn to stress the encoder: adversarial
    /// mixes of safe ASCII, percent signs, hex-looking pairs, multi-byte
    /// unicode (including astral-plane), control bytes, and path
    /// metacharacters.
    fn adversarial_name(rng: &mut StdRng) -> String {
        const POOL: &[char] = &[
            'a', 'Z', '0', '-', '_', '%', '2', 'F', 'f', '.', '/', '\\', ' ', '\n', '\t', '\0',
            'é', 'ü', 'ß', 'λ', '中', '🦀', '\u{7f}', '\u{80}', '\u{2028}', '\u{fffd}',
        ];
        let len = rng.gen_range(0usize..24);
        (0..len)
            .map(|_| POOL[rng.gen_range(0..POOL.len())])
            .collect()
    }

    /// Property fuzz (satellite of PR 6): across seeded random adversarial
    /// names, encoding round-trips, stays filesystem-safe, and is
    /// injective; random *stems* either decode-then-re-encode canonically
    /// or are rejected — no stem decodes to a name whose canonical file
    /// would differ.
    #[test]
    fn fuzz_name_encoding_round_trip_and_injectivity() {
        let seed = std::env::var("CQFIT_SIM_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE_u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stems: std::collections::HashMap<String, String> = std::collections::HashMap::new();
        for i in 0..2000 {
            let name = adversarial_name(&mut rng);
            let stem = encode_name(&name);
            assert!(
                stem.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'),
                "seed {seed} iter {i}: unsafe stem {stem:?} for {name:?}"
            );
            assert_eq!(
                decode_name(&stem).as_deref(),
                Some(name.as_str()),
                "seed {seed} iter {i}: round-trip failed for {name:?}"
            );
            // Injectivity: a stem seen before must come from the same name.
            if let Some(prev) = stems.insert(stem.clone(), name.clone()) {
                assert_eq!(
                    prev, name,
                    "seed {seed} iter {i}: names {prev:?} and {name:?} collide on stem {stem:?}"
                );
            }
        }
        // Canonicality: random stems built from the *stem* alphabet either
        // reject or re-encode to themselves — never to a different stem.
        const STEM_POOL: &[u8] = b"azAZ09-_%%%%0123456789abcdefABCDEF";
        for i in 0..2000 {
            let len = rng.gen_range(0usize..16);
            let stem: String = (0..len)
                .map(|_| STEM_POOL[rng.gen_range(0..STEM_POOL.len())] as char)
                .collect();
            if let Some(name) = decode_name(&stem) {
                assert_eq!(
                    encode_name(&name),
                    stem,
                    "seed {seed} iter {i}: stem {stem:?} decoded non-canonically to {name:?}"
                );
            }
        }
    }

    /// A filesystem holding one log in memory: `replay` reads it and
    /// truncates it through `set_len`.
    #[derive(Debug, Default)]
    struct OneLog(Arc<Mutex<Vec<u8>>>);

    #[derive(Debug)]
    struct OneLogFile(Arc<Mutex<Vec<u8>>>);

    impl FsFile for OneLogFile {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn sync_all(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.0.lock().unwrap().resize(len as usize, 0);
            Ok(())
        }
    }

    impl Fs for OneLog {
        fn open(&self, _: &Path, _: OpenMode) -> std::io::Result<Box<dyn FsFile>> {
            Ok(Box::new(OneLogFile(self.0.clone())))
        }
        fn read(&self, _: &Path) -> std::io::Result<Vec<u8>> {
            Ok(self.0.lock().unwrap().clone())
        }
        fn rename(&self, _: &Path, _: &Path) -> std::io::Result<()> {
            unimplemented!("replay does not rename")
        }
        fn remove_file(&self, _: &Path) -> std::io::Result<()> {
            unimplemented!("replay does not unlink")
        }
        fn create_dir_all(&self, _: &Path) -> std::io::Result<()> {
            unimplemented!("replay does not create directories")
        }
        fn read_dir(&self, _: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
            unimplemented!("replay does not list directories")
        }
        fn sync_parent_dir(&self, _: &Path) -> std::io::Result<()> {
            unimplemented!("replay does not sync directories")
        }
    }

    /// Replays `log` and checks the outcome: the intact records are a
    /// prefix of `lines`, decoded byte for byte, and the file is cut to
    /// them; or the replay fails as corrupt.
    fn replay_is_prefix_or_corrupt(log: Vec<u8>, lines: &[&str]) {
        let fs = OneLog(Arc::new(Mutex::new(log)));
        let mut records = Vec::new();
        match replay(&fs, Path::new("ws-sweep.wal"), |r| records.push(r)) {
            Ok(outcome) => {
                assert_eq!(outcome.records, records.len() as u64);
                let kept: String = lines[..records.len()].concat();
                for (record, line) in records.iter().zip(lines) {
                    assert_eq!(encode_record(record), *line);
                }
                assert_eq!(outcome.good_bytes, kept.len() as u64);
                assert_eq!(*fs.0.lock().unwrap(), kept.as_bytes());
            }
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => panic!("replay failed with {e}"),
        }
    }

    /// Every truncation point of the compatibility fixture, and every
    /// single-byte change of each of its lines, is handled as a torn tail
    /// (or rejected as corrupt) — never decoded into a different record,
    /// never a panic.
    #[test]
    fn every_truncation_and_byte_change_of_the_fixture_is_torn_or_rejected() {
        let log = include_str!("../tests/fixtures/compat.wal");
        let lines: Vec<&str> = log.split_inclusive('\n').collect();
        for cut in 0..=log.len() {
            replay_is_prefix_or_corrupt(log.as_bytes()[..cut].to_vec(), &lines);
        }
        for (i, line) in lines.iter().enumerate() {
            let next = lines.get(i + 1).copied().unwrap_or("");
            for at in 0..line.len() {
                for byte in 0..=u8::MAX {
                    if byte == line.as_bytes()[at] {
                        continue;
                    }
                    // The changed line, followed by the next one: both
                    // are dropped as the torn tail.
                    let mut changed = format!("{line}{next}").into_bytes();
                    changed[at] = byte;
                    let fs = OneLog(Arc::new(Mutex::new(changed)));
                    let outcome = replay(&fs, Path::new("ws-sweep.wal"), drop)
                        .expect("a changed byte is a torn write, not corruption");
                    assert_eq!(outcome.records, 0, "line {i} byte {at} -> {byte}");
                    assert!(fs.0.lock().unwrap().is_empty());
                }
            }
        }
    }

    /// A checksummed line that does not decode fails the replay — in the
    /// middle of the log and as its last line — and the file is kept.
    #[test]
    fn an_intact_undecodable_line_fails_replay_instead_of_truncating() {
        let log = include_str!("../tests/fixtures/compat.wal");
        let body = r#"{"op":"add","id":9}"#;
        let bad = format!(
            "{{\"crc\":{},\"rec\":{body}}}\n",
            cqfit_obs::crc32(body.as_bytes())
        );
        let (first, rest) = log.split_at(log.find('\n').unwrap() + 1);
        for file in [format!("{first}{bad}{rest}"), format!("{log}{bad}")] {
            let fs = OneLog(Arc::new(Mutex::new(file.clone().into_bytes())));
            match replay(&fs, Path::new("ws-bad.wal"), drop) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains("does not decode"), "{msg}");
                    assert!(msg.contains("missing key `polarity`"), "{msg}");
                }
                other => panic!("expected corruption, got {other:?}"),
            }
            assert_eq!(*fs.0.lock().unwrap(), file.as_bytes(), "file untouched");
        }
    }
}
