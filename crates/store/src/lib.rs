//! # cqfit-store
//!
//! Durable workspaces for the fitting engine: one append-only,
//! CRC-checked JSONL **write-ahead log** per workspace, **snapshot +
//! log-compaction** once a log exceeds a configurable record budget, and
//! **crash recovery** that replays every log back into workspace state —
//! truncating torn tails, refusing corrupt records — and reports what it
//! restored.
//!
//! The contract with the engine (`cqfit-engine`) is *persist before ack*:
//! every mutation (`create`, `add`, `remove`) is appended — and, with
//! [`StoreConfig::fsync`] on, `fdatasync`'d — **before** the engine
//! applies it and acknowledges the request.  A `kill -9` at an arbitrary
//! point therefore loses at most the single request that was never
//! acknowledged; everything a client saw succeed is on disk.
//!
//! What fsync does and does not guarantee: with `fsync: true` an
//! acknowledged record survives an OS crash or power loss (modulo disk
//! write caches lying); with `fsync: false` appends are buffered by the
//! OS, so a *process* kill loses nothing (the page cache survives) but a
//! machine crash can lose the unsynced suffix — recovery then truncates
//! the torn tail and restores the longest intact prefix.
//!
//! Torn versus corrupt: a line that is unterminated, unframed, or fails
//! its CRC is a torn write, and it and everything after it are cut off.
//! A line that passes its CRC but does not decode was written whole, so
//! cutting it would drop acknowledged records; recovery fails with
//! [`StoreError::Corrupt`] instead and leaves the log as it is.
//!
//! All filesystem traffic goes through the injectable [`cqfit_env::Env`]
//! ([`Store::open`] defaults to the real one): the `cqfit-sim` harness
//! substitutes a simulated filesystem to crash this exact code at every
//! record boundary and verify that recovery restores precisely the
//! acknowledged prefix.
//!
//! Log format: see [`record`].  Compaction: when a log accumulates more
//! than [`StoreConfig::compact_after`] records since its last snapshot,
//! the next append first rewrites the log as a single `snapshot` record of
//! the *pre-append* state (temp file + rename + dir sync, crash-atomic),
//! then appends the new record; replay cost is thereby bounded by the
//! budget, not by workspace lifetime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;
mod wal;

pub use record::{LogRecord, WorkspaceSnapshot};

use cqfit_data::{Example, Schema};
use cqfit_env::{Env, RealEnv};
use cqfit_obs::{Registry, TraceContext, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use wal::WalFile;

/// File-name prefix of workspace logs (`ws-<encoded-name>.wal`); keeps the
/// empty workspace name representable and stray files distinguishable.
const FILE_PREFIX: &str = "ws-";

/// Errors of the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem failure.
    Io(std::io::Error),
    /// A semantic failure: unknown workspace, duplicate create, or a log
    /// whose contents cannot be turned back into workspace state.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Configuration of a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the workspace logs (created if missing).
    pub dir: PathBuf,
    /// Compaction budget: once a log holds more than this many records
    /// since its last snapshot, the next append snapshots + compacts it.
    pub compact_after: usize,
    /// Whether to `fdatasync` every appended record before acknowledging
    /// it (see the crate documentation for the exact guarantee).
    pub fsync: bool,
}

impl StoreConfig {
    /// A config with the default budget (1024 records) and fsync enabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            compact_after: 1024,
            fsync: true,
        }
    }
}

/// Aggregate statistics of a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of workspace logs currently open.
    pub workspaces: usize,
    /// Total records across all open logs.
    pub records: u64,
    /// Total bytes across all open logs.
    pub bytes: u64,
    /// Snapshot-compactions performed over this store's lifetime
    /// (recovery, budget-triggered, and forced).
    pub compactions: u64,
    /// Bytes reclaimed by those compactions.
    pub bytes_compacted: u64,
}

/// What recovery restored, as reported by [`Store::recover`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Workspaces restored.
    pub workspaces: usize,
    /// Log records replayed across all workspaces.
    pub records_replayed: u64,
    /// Bytes discarded as torn tails (truncated mid-record, corrupt
    /// checksum, or unterminated final line).
    pub torn_bytes_dropped: u64,
    /// Bytes reclaimed by compacting over-budget logs during recovery.
    pub bytes_compacted: u64,
}

/// How many identified mutations recovery remembers per workspace (the
/// newest ones, in log order).  A pipelined client that loses its
/// connection replays its whole in-flight batch under the same request
/// ids, so the engine's exactly-once memo must recognize every mutation
/// the batch may already have applied — up to the server's pipeline
/// window — not just the newest.  The engine const-asserts its window
/// fits under this depth.
pub const REPLAY_MEMO_DEPTH: usize = 32;

/// One identified mutation replayed from a workspace's log: what the
/// engine needs to repopulate its exactly-once memo on recovery, so a
/// client retry of an acknowledged-or-in-flight mutation cannot
/// re-apply after a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayedMutation {
    /// The idempotency id the request carried on the wire.
    pub request_id: u64,
    /// The example id the mutation touched.
    pub example_id: u64,
    /// Polarity of the touched example.
    pub positive: bool,
    /// The workspace revision after this mutation applied.
    pub revision: u64,
    /// `true` for an add, `false` for a remove.
    pub added: bool,
}

/// One workspace's logical state as reconstructed from its log: the fold
/// of the most recent snapshot (if any) and every record after it.
#[derive(Debug, Clone)]
pub struct RestoredWorkspace {
    /// The workspace name.
    pub name: String,
    /// Schema of the workspace's examples.
    pub schema: Schema,
    /// Arity of the workspace's examples.
    pub arity: usize,
    /// The id the next added example will receive.
    pub next_id: u64,
    /// The workspace's mutation counter.
    pub revision: u64,
    /// Positive examples with their ids, in id order.
    pub positives: Vec<(u64, Example)>,
    /// Negative examples with their ids, in id order.
    pub negatives: Vec<(u64, Example)>,
    /// The newest replayed mutations that carried request ids, oldest
    /// first, at most [`REPLAY_MEMO_DEPTH`] of them — compaction folds
    /// identified records into an anonymous snapshot, so after a
    /// snapshot this restarts from the records behind it.
    pub recent_requests: Vec<ReplayedMutation>,
}

impl RestoredWorkspace {
    /// The restored state as a snapshot (what a compaction would write).
    pub fn to_snapshot(&self) -> WorkspaceSnapshot {
        WorkspaceSnapshot {
            schema: self.schema.clone(),
            arity: self.arity,
            next_id: self.next_id,
            revision: self.revision,
            positives: self.positives.clone(),
            negatives: self.negatives.clone(),
        }
    }
}

/// Folds a record sequence into workspace state; `None` until a `create`
/// or `snapshot` record establishes the schema.
#[derive(Debug, Default)]
struct Fold {
    schema: Option<Schema>,
    arity: usize,
    next_id: u64,
    revision: u64,
    positives: BTreeMap<u64, Example>,
    negatives: BTreeMap<u64, Example>,
    recent_requests: Vec<ReplayedMutation>,
}

impl Fold {
    /// Remembers an identified mutation for the engine's memo reseed,
    /// keeping only the newest [`REPLAY_MEMO_DEPTH`].
    fn remember(&mut self, m: ReplayedMutation) {
        if self.recent_requests.len() == REPLAY_MEMO_DEPTH {
            self.recent_requests.remove(0);
        }
        self.recent_requests.push(m);
    }

    fn apply(&mut self, record: LogRecord) {
        match record {
            LogRecord::Create { schema, arity } => {
                *self = Fold {
                    schema: Some(schema),
                    arity,
                    ..Fold::default()
                };
            }
            LogRecord::Snapshot(s) => {
                // A snapshot is anonymous: identified records folded into
                // it lose their request ids, so the memo seed restarts
                // from the records behind the snapshot.
                *self = Fold {
                    schema: Some(s.schema),
                    arity: s.arity,
                    next_id: s.next_id,
                    revision: s.revision,
                    positives: s.positives.into_iter().collect(),
                    negatives: s.negatives.into_iter().collect(),
                    recent_requests: Vec::new(),
                };
            }
            LogRecord::AddExample {
                id,
                positive,
                example,
                request_id,
            } => {
                let map = if positive {
                    &mut self.positives
                } else {
                    &mut self.negatives
                };
                map.insert(id, example);
                self.next_id = self.next_id.max(id + 1);
                self.revision += 1;
                if let Some(rid) = request_id {
                    self.remember(ReplayedMutation {
                        request_id: rid,
                        example_id: id,
                        positive,
                        revision: self.revision,
                        added: true,
                    });
                }
            }
            LogRecord::RemoveExample {
                id,
                positive,
                request_id,
            } => {
                let map = if positive {
                    &mut self.positives
                } else {
                    &mut self.negatives
                };
                // Only successful removals are logged, so the id is present
                // in any intact log; tolerate its absence anyway.
                if map.remove(&id).is_some() {
                    self.revision += 1;
                }
                if let Some(rid) = request_id {
                    self.remember(ReplayedMutation {
                        request_id: rid,
                        example_id: id,
                        positive,
                        revision: self.revision,
                        added: false,
                    });
                }
            }
        }
    }

    fn into_restored(self, name: String) -> Option<RestoredWorkspace> {
        Some(RestoredWorkspace {
            name,
            schema: self.schema?,
            arity: self.arity,
            next_id: self.next_id,
            revision: self.revision,
            positives: self.positives.into_iter().collect(),
            negatives: self.negatives.into_iter().collect(),
            recent_requests: self.recent_requests,
        })
    }
}

/// The durability layer: a directory of per-workspace write-ahead logs.
///
/// Thread safety: the name→log map sits behind one mutex (held only for
/// map operations); each log carries its own lock plus a **group-commit
/// queue** (see `wal`), so appends against different workspaces proceed
/// in parallel while concurrent appends against one workspace stage
/// under the log lock and are committed together by a single batch
/// leader — one `write_all` + one `sync_data` per batch, durability
/// acknowledged only after the covering sync.
#[derive(Debug)]
pub struct Store {
    config: StoreConfig,
    env: Arc<dyn Env>,
    logs: Mutex<HashMap<String, Arc<WalFile>>>,
    /// Names with a create in flight: reserved under the `logs` lock so
    /// the fsync'd file creation can run *outside* it without letting a
    /// racing duplicate create through.  Lock order: `logs` before
    /// `creating`.
    creating: Mutex<std::collections::HashSet<String>>,
    /// The process-side metrics registry.  The store creates it and every
    /// WAL handle shares it; an engine built on this store adopts it too
    /// (mirroring how the engine inherits the store's `Env`), so one
    /// snapshot covers store, cache, engine, and server counters.
    /// Lifetime compaction totals live here as registry counters.
    registry: Arc<Registry>,
}

impl Store {
    /// Opens (creating if needed) the data directory against the real
    /// filesystem.  Existing logs are not touched until [`Store::recover`]
    /// scans them.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(config: StoreConfig) -> Result<Store, StoreError> {
        Store::open_with(config, RealEnv::arc())
    }

    /// Opens a store against an explicit [`Env`] — the real one in
    /// production, `cqfit-sim`'s simulated one under the crash harness.
    /// All filesystem traffic of this store (and of any engine built on
    /// it) goes through `env`.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open_with(config: StoreConfig, env: Arc<dyn Env>) -> Result<Store, StoreError> {
        env.fs().create_dir_all(&config.dir)?;
        Ok(Store {
            config,
            env,
            logs: Mutex::new(HashMap::new()),
            creating: Mutex::new(std::collections::HashSet::new()),
            registry: Arc::new(Registry::new()),
        })
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The environment this store performs I/O through.
    pub fn env(&self) -> &Arc<dyn Env> {
        &self.env
    }

    /// The metrics registry shared by this store, its WAL handles, and
    /// any engine built on top of it.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn file_path(&self, name: &str) -> PathBuf {
        self.config.dir.join(format!(
            "{FILE_PREFIX}{}.{}",
            wal::encode_name(name),
            wal::WAL_EXT
        ))
    }

    fn resolve(&self, name: &str) -> Result<Arc<WalFile>, StoreError> {
        self.logs
            .lock()
            .expect("store log map")
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::Corrupt(format!("no log for workspace `{name}`")))
    }

    fn note_compaction(&self, name: &str, bytes_before: u64, bytes_after: u64) {
        let reclaimed = bytes_before.saturating_sub(bytes_after);
        self.registry.store_compactions.inc();
        self.registry.store_bytes_compacted.add(reclaimed);
        self.registry.event(
            self.env.clock().monotonic().as_nanos() as u64,
            "store.compaction",
            format!("workspace `{name}`: {bytes_before} -> {bytes_after} bytes"),
        );
    }

    /// Scans the data directory, replays every workspace log (truncating
    /// torn tails), compacts any log already over budget, and registers
    /// the open log handles.  Call once, before serving.
    ///
    /// Logs whose very first record is torn restore nothing: the create
    /// was never acknowledged, so the empty file is removed.
    ///
    /// # Errors
    /// Propagates I/O failures.  A torn line (unterminated, unframed, or
    /// failing its CRC) is truncated, not an error; a line that passes its
    /// CRC but does not decode returns [`StoreError::Corrupt`] and leaves
    /// the log as it is.
    pub fn recover(&self) -> Result<(Vec<RestoredWorkspace>, RecoveryReport), StoreError> {
        let mut report = RecoveryReport::default();
        let mut restored = Vec::new();
        let mut logs = self.logs.lock().expect("store log map");
        for path in self.env.fs().read_dir(&self.config.dir)? {
            let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = file_name
                .strip_prefix(FILE_PREFIX)
                .and_then(|rest| rest.strip_suffix(&format!(".{}", wal::WAL_EXT)))
            else {
                continue;
            };
            let Some(name) = wal::decode_name(stem) else {
                continue;
            };
            let mut fold = Fold::default();
            let outcome = wal::replay(self.env.fs(), &path, |record| fold.apply(record))?;
            report.records_replayed += outcome.records;
            report.torn_bytes_dropped += outcome.torn_bytes;
            let record_count = outcome.records;
            let Some(ws) = fold.into_restored(name.clone()) else {
                // Nothing intact (the create itself was torn): the
                // workspace never existed as far as any client knows.
                self.env.fs().remove_file(&path)?;
                continue;
            };
            let wal = WalFile::open_append(
                self.env.clone(),
                path,
                self.config.fsync,
                self.registry.clone(),
                record_count,
                outcome.since_snapshot,
                outcome.good_bytes,
            )?;
            if outcome.since_snapshot as usize > self.config.compact_after {
                let (before, after) = wal.rewrite(&[LogRecord::Snapshot(ws.to_snapshot())])?;
                self.note_compaction(&ws.name, before, after);
                report.bytes_compacted += before.saturating_sub(after);
            }
            logs.insert(ws.name.clone(), Arc::new(wal));
            restored.push(ws);
        }
        restored.sort_by(|a, b| a.name.cmp(&b.name));
        report.workspaces = restored.len();
        Ok((restored, report))
    }

    /// Creates a fresh log for a new workspace and durably records its
    /// `create` record.
    ///
    /// # Errors
    /// Fails if a log for the name is already open, or on I/O failure.
    pub fn create_workspace(
        &self,
        name: &str,
        schema: &Schema,
        arity: usize,
    ) -> Result<(), StoreError> {
        // Reserve the name under the locks (no I/O held): appends to
        // other workspaces must not stall behind this create's fsyncs.
        {
            let logs = self.logs.lock().expect("store log map");
            let mut creating = self.creating.lock().expect("create reservations");
            if logs.contains_key(name) || !creating.insert(name.to_string()) {
                return Err(StoreError::Corrupt(format!(
                    "log for workspace `{name}` already exists"
                )));
            }
        }
        // File create + durable create record, outside every store lock —
        // which also makes this a legal scheduling point: a simulated
        // interleaving may run other tasks between the reservation and
        // the file I/O below.
        self.env.yield_point("store.create");
        let created = (|| {
            let wal = WalFile::create(
                self.env.clone(),
                self.file_path(name),
                self.config.fsync,
                self.registry.clone(),
            )?;
            wal.append(&LogRecord::Create {
                schema: schema.clone(),
                arity,
            })?;
            Ok(wal)
        })();
        let mut logs = self.logs.lock().expect("store log map");
        self.creating
            .lock()
            .expect("create reservations")
            .remove(name);
        match created {
            Ok(wal) => {
                logs.insert(name.to_string(), Arc::new(wal));
                Ok(())
            }
            Err(e) => {
                // Best-effort cleanup of a half-created file; recovery
                // would drop it anyway (its create was never acked).
                let _ = self.env.fs().remove_file(&self.file_path(name));
                Err(e)
            }
        }
    }

    /// Appends one mutation record to a workspace's log, durably (see
    /// [`StoreConfig::fsync`]).  If the log is over its compaction budget,
    /// it is first rewritten as a snapshot of the **pre-append** state
    /// obtained from `pre_state` — snapshot-then-append preserves the
    /// invariant that folding the log always yields the post-mutation
    /// state.
    ///
    /// Concurrent appends to one log are group-committed (staged under
    /// the log lock, synced together by a batch leader); this call
    /// returns only after the sync covering this record.
    ///
    /// # Errors
    /// Fails on unknown workspaces and I/O failures; on failure nothing
    /// must be applied or acknowledged by the caller.
    pub fn append(
        &self,
        name: &str,
        record: &LogRecord,
        pre_state: impl FnOnce() -> WorkspaceSnapshot,
    ) -> Result<(), StoreError> {
        self.append_traced(name, record, pre_state, None)
    }

    /// [`append`] under an optional trace context (PR 10): the WAL opens
    /// a `store.append` span as a child of the given context, with a
    /// `store.commit_wait` child for the queued portion and — when this
    /// appender leads its group-commit batch — a `store.fsync` span
    /// carrying the batch sequence number every member's append span is
    /// annotated with.  With `trace: None` this is exactly [`append`].
    ///
    /// [`append`]: Store::append
    pub fn append_traced(
        &self,
        name: &str,
        record: &LogRecord,
        pre_state: impl FnOnce() -> WorkspaceSnapshot,
        trace: Option<(&Tracer, &TraceContext)>,
    ) -> Result<(), StoreError> {
        let log = self.resolve(name)?;
        if log.since_snapshot() as usize >= self.config.compact_after {
            let (before, after) = log.rewrite(&[LogRecord::Snapshot(pre_state())])?;
            self.note_compaction(name, before, after);
        }
        log.append_traced(record, trace)
    }

    /// Forces snapshot + compaction of one workspace's log.  Returns
    /// `(bytes_before, bytes_after)`, or `None` when no log exists for
    /// the name (the workspace was dropped concurrently) — callers
    /// iterating a point-in-time workspace list skip rather than fail.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn compact(
        &self,
        name: &str,
        state: WorkspaceSnapshot,
    ) -> Result<Option<(u64, u64)>, StoreError> {
        let Some(log) = self.logs.lock().expect("store log map").get(name).cloned() else {
            return Ok(None);
        };
        let (before, after) = log.rewrite(&[LogRecord::Snapshot(state)])?;
        self.note_compaction(name, before, after);
        Ok(Some((before, after)))
    }

    /// Deletes a workspace's log (the workspace was dropped).  Returns
    /// whether a log existed.
    ///
    /// The file is unlinked *before* the map entry is removed: if the
    /// deletion fails, the log stays registered (and the caller keeps the
    /// workspace), so the store and the engine never desync — the failure
    /// mode is a retriable error, not a workspace whose log is
    /// unreachable in memory yet resurrects on restart.
    ///
    /// # Errors
    /// Propagates deletion failures.
    pub fn drop_workspace(&self, name: &str) -> Result<bool, StoreError> {
        // Scheduling point before any lock is taken (see yield-point
        // call discipline in `cqfit-env`).
        self.env.yield_point("store.drop");
        let mut logs = self.logs.lock().expect("store log map");
        if !logs.contains_key(name) {
            return Ok(false);
        }
        let path = self.file_path(name);
        self.env.fs().remove_file(&path)?;
        // Make the unlink itself durable: without the directory sync an
        // acknowledged drop could resurrect after power loss.
        if self.config.fsync {
            self.env.fs().sync_parent_dir(&path)?;
        }
        logs.remove(name);
        Ok(true)
    }

    /// Flushes and (when enabled) fsyncs every open log — the clean
    /// shutdown path.  Each log's commit queue is drained first: a batch
    /// that is staged (or mid-write under a leader) when shutdown begins
    /// is committed, never dropped.
    ///
    /// # Errors
    /// Propagates the first sync failure.
    pub fn sync_all(&self) -> Result<(), StoreError> {
        let logs: Vec<Arc<WalFile>> = self
            .logs
            .lock()
            .expect("store log map")
            .values()
            .cloned()
            .collect();
        for log in logs {
            log.sync()?;
        }
        Ok(())
    }

    /// Aggregate statistics over all open logs, assembled as a view over
    /// the registry's lifetime counters plus the live log sizes.
    pub fn stats(&self) -> StoreStats {
        let logs = self.logs.lock().expect("store log map");
        let mut stats = StoreStats {
            workspaces: logs.len(),
            compactions: self.registry.store_compactions.get(),
            bytes_compacted: self.registry.store_bytes_compacted.get(),
            ..StoreStats::default()
        };
        for log in logs.values() {
            stats.records += log.records();
            stats.bytes += log.bytes();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::parse_example;
    use std::path::Path;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cqfit_store_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ex(text: &str) -> Example {
        parse_example(&Schema::digraph(), text).unwrap()
    }

    fn config(dir: &Path) -> StoreConfig {
        StoreConfig {
            dir: dir.to_path_buf(),
            compact_after: 1024,
            fsync: false, // unit tests exercise logic, not disk latency
        }
    }

    fn add_record(id: u64, positive: bool, text: &str) -> LogRecord {
        LogRecord::AddExample {
            id,
            positive,
            example: ex(text),
            request_id: None,
        }
    }

    fn snapshot_of_nothing() -> WorkspaceSnapshot {
        WorkspaceSnapshot {
            schema: Schema::digraph().as_ref().clone(),
            arity: 0,
            next_id: 0,
            revision: 0,
            positives: vec![],
            negatives: vec![],
        }
    }

    #[test]
    fn create_append_recover_round_trip() {
        let dir = tmp_dir("roundtrip");
        let store = Store::open(config(&dir)).unwrap();
        let schema = Schema::digraph();
        store.create_workspace("w", &schema, 0).unwrap();
        store
            .append(
                "w",
                &add_record(0, true, "R(a,b)\nR(b,c)\nR(c,a)"),
                snapshot_of_nothing,
            )
            .unwrap();
        store
            .append(
                "w",
                &add_record(1, false, "R(a,b)\nR(b,a)"),
                snapshot_of_nothing,
            )
            .unwrap();
        store
            .append(
                "w",
                &LogRecord::RemoveExample {
                    id: 1,
                    positive: false,
                    request_id: None,
                },
                snapshot_of_nothing,
            )
            .unwrap();
        drop(store);

        let store = Store::open(config(&dir)).unwrap();
        let (restored, report) = store.recover().unwrap();
        assert_eq!(report.workspaces, 1);
        assert_eq!(report.records_replayed, 4);
        assert_eq!(report.torn_bytes_dropped, 0);
        let w = &restored[0];
        assert_eq!(w.name, "w");
        assert_eq!(w.next_id, 2);
        assert_eq!(w.revision, 3);
        assert_eq!(w.positives.len(), 1);
        assert_eq!(w.positives[0].0, 0);
        assert!(w.negatives.is_empty());
        // The recovered store accepts further appends.
        store
            .append("w", &add_record(2, false, "R(x,x)"), snapshot_of_nothing)
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_restored() {
        let dir = tmp_dir("torn");
        let store = Store::open(config(&dir)).unwrap();
        let schema = Schema::digraph();
        store.create_workspace("w", &schema, 0).unwrap();
        store
            .append("w", &add_record(0, true, "R(a,b)"), snapshot_of_nothing)
            .unwrap();
        store
            .append("w", &add_record(1, true, "R(b,c)"), snapshot_of_nothing)
            .unwrap();
        drop(store);
        // Tear the log mid-way through the last record.
        let path = dir.join("ws-w.wal");
        let full = std::fs::read(&path).unwrap();
        let cut = full.len() - 10;
        std::fs::write(&path, &full[..cut]).unwrap();

        let store = Store::open(config(&dir)).unwrap();
        let (restored, report) = store.recover().unwrap();
        assert_eq!(report.workspaces, 1);
        assert_eq!(report.records_replayed, 2, "create + first add survive");
        assert!(report.torn_bytes_dropped > 0);
        assert_eq!(restored[0].positives.len(), 1);
        assert_eq!(restored[0].revision, 1);
        // The file was truncated to the intact prefix.
        assert!(std::fs::metadata(&path).unwrap().len() < cut as u64);
        // Appends after truncation extend a clean log.
        store
            .append("w", &add_record(1, true, "R(b,c)"), snapshot_of_nothing)
            .unwrap();
        drop(store);
        let store = Store::open(config(&dir)).unwrap();
        let (restored, _) = store.recover().unwrap();
        assert_eq!(restored[0].positives.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay_at_the_corruption() {
        let dir = tmp_dir("corrupt");
        let store = Store::open(config(&dir)).unwrap();
        let schema = Schema::digraph();
        store.create_workspace("w", &schema, 0).unwrap();
        for i in 0..3 {
            store
                .append("w", &add_record(i, true, "R(a,b)"), snapshot_of_nothing)
                .unwrap();
        }
        drop(store);
        // Flip a byte inside the third record (create + 2 adds stay intact).
        let path = dir.join("ws-w.wal");
        let mut bytes = std::fs::read(&path).unwrap();
        let lines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        let target = lines[2] + 20; // inside the 4th line
        bytes[target] = bytes[target].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();

        let store = Store::open(config(&dir)).unwrap();
        let (restored, report) = store.recover().unwrap();
        assert_eq!(report.records_replayed, 3);
        assert!(report.torn_bytes_dropped > 0);
        assert_eq!(restored[0].positives.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_torn_log_restores_nothing_and_is_removed() {
        let dir = tmp_dir("allgone");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ws-w.wal"), b"{\"crc\":1,\"rec\":{\"op\":").unwrap();
        // A stray file that is not ours survives untouched.
        std::fs::write(dir.join("notes.txt"), b"hello").unwrap();
        let store = Store::open(config(&dir)).unwrap();
        let (restored, report) = store.recover().unwrap();
        assert!(restored.is_empty());
        assert_eq!(report.workspaces, 0);
        assert!(report.torn_bytes_dropped > 0);
        assert!(!dir.join("ws-w.wal").exists());
        assert!(dir.join("notes.txt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_triggers_snapshot_compaction() {
        let dir = tmp_dir("budget");
        let mut cfg = config(&dir);
        cfg.compact_after = 4;
        let store = Store::open(cfg).unwrap();
        let schema = Schema::digraph();
        store.create_workspace("w", &schema, 0).unwrap();
        // Each append's pre-state snapshot reflects i examples already
        // applied; keep a running state to hand out.
        let mut live: Vec<(u64, Example)> = Vec::new();
        for i in 0..10u64 {
            let e = ex("R(a,b)");
            let pre = WorkspaceSnapshot {
                schema: schema.as_ref().clone(),
                arity: 0,
                next_id: i,
                revision: i,
                positives: live.clone(),
                negatives: vec![],
            };
            store
                .append(
                    "w",
                    &LogRecord::AddExample {
                        id: i,
                        positive: true,
                        example: e.clone(),
                        request_id: Some(i),
                    },
                    move || pre,
                )
                .unwrap();
            live.push((i, e));
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "budget of 4 must have compacted");
        drop(store);
        let store = Store::open(config(&dir)).unwrap();
        let (restored, _) = store.recover().unwrap();
        assert_eq!(restored[0].positives.len(), 10);
        assert_eq!(restored[0].next_id, 10);
        assert_eq!(restored[0].revision, 10);
        // Snapshot-then-append keeps the latest identified mutation
        // *behind* no snapshot, so its request id survives recovery even
        // though compaction ran.
        assert_eq!(
            restored[0].recent_requests.last(),
            Some(&ReplayedMutation {
                request_id: 9,
                example_id: 9,
                positive: true,
                revision: 10,
                added: true,
            })
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forced_compaction_shrinks_and_reopens_identically() {
        let dir = tmp_dir("forced");
        let store = Store::open(config(&dir)).unwrap();
        let schema = Schema::digraph();
        store.create_workspace("w", &schema, 0).unwrap();
        let mut live = Vec::new();
        for i in 0..6u64 {
            let e = ex("R(a,b)\nR(b,c)");
            store
                .append(
                    "w",
                    &LogRecord::AddExample {
                        id: i,
                        positive: true,
                        example: e.clone(),
                        request_id: None,
                    },
                    snapshot_of_nothing,
                )
                .unwrap();
            live.push((i, e));
        }
        // Remove half so the snapshot is genuinely smaller than the log.
        for i in 0..3u64 {
            store
                .append(
                    "w",
                    &LogRecord::RemoveExample {
                        id: i,
                        positive: true,
                        request_id: None,
                    },
                    snapshot_of_nothing,
                )
                .unwrap();
            live.retain(|(id, _)| *id != i);
        }
        let snap = WorkspaceSnapshot {
            schema: schema.as_ref().clone(),
            arity: 0,
            next_id: 6,
            revision: 9,
            positives: live,
            negatives: vec![],
        };
        let (before, after) = store.compact("w", snap).unwrap().expect("log exists");
        assert!(
            store
                .compact("gone", snapshot_of_nothing())
                .unwrap()
                .is_none(),
            "compacting an unknown workspace is a skip, not an error"
        );
        assert!(
            after < before,
            "compaction must shrink ({before} -> {after})"
        );
        assert!(!dir.join("ws-w.wal.tmp").exists(), "temp file cleaned up");
        drop(store);
        let store = Store::open(config(&dir)).unwrap();
        let (restored, report) = store.recover().unwrap();
        assert_eq!(report.records_replayed, 1, "one snapshot record");
        assert_eq!(restored[0].positives.len(), 3);
        assert_eq!(restored[0].next_id, 6);
        assert_eq!(restored[0].revision, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_workspace_deletes_the_log() {
        let dir = tmp_dir("drop");
        let store = Store::open(config(&dir)).unwrap();
        store.create_workspace("w", &Schema::digraph(), 0).unwrap();
        assert!(dir.join("ws-w.wal").exists());
        assert!(store.drop_workspace("w").unwrap());
        assert!(!dir.join("ws-w.wal").exists());
        assert!(!store.drop_workspace("w").unwrap());
        // Recreating after a drop works (fresh log).
        store.create_workspace("w", &Schema::digraph(), 0).unwrap();
        assert!(dir.join("ws-w.wal").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_create_rejected() {
        let dir = tmp_dir("dup");
        let store = Store::open(config(&dir)).unwrap();
        store.create_workspace("w", &Schema::digraph(), 0).unwrap();
        assert!(store.create_workspace("w", &Schema::digraph(), 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn odd_workspace_names_round_trip_through_filenames() {
        let dir = tmp_dir("names");
        let store = Store::open(config(&dir)).unwrap();
        let names = ["", "with space", "../escape", "ünïcode", "a%2Fb"];
        for name in names {
            store.create_workspace(name, &Schema::digraph(), 0).unwrap();
        }
        drop(store);
        let store = Store::open(config(&dir)).unwrap();
        let (restored, _) = store.recover().unwrap();
        let mut got: Vec<&str> = restored.iter().map(|w| w.name.as_str()).collect();
        got.sort_unstable();
        let mut want: Vec<&str> = names.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        // Nothing escaped the data directory.
        assert!(!dir.parent().unwrap().join("escape.wal").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
