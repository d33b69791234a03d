//! The flight recorder: a bounded, crash-surviving journal of completed
//! trace spans.
//!
//! ## On-disk format (`trace.fr`)
//!
//! ```text
//! header (16 bytes):  "CQFITFR1" | slot_size u32 LE | slot_count u32 LE
//! slot   (512 bytes): seq u64 LE | len u32 LE | crc32 u32 LE
//!                     | len bytes of span JSON | zero padding
//! ```
//!
//! Slots are written strictly append-only through the `cqfit-env` `Fs`
//! seam (so the simulator's crash model applies verbatim): one
//! `write_all` + `flush` per slot, plus `sync_data` when fsync is on.
//! When the ring is full the file is truncated back to the header
//! (`set_len` + sync, the WAL rollback idiom) and writing resumes at
//! slot 0 — the journal holds the most recent *generation* of spans, a
//! bounded ring with the durability discipline of a log.
//!
//! ## Recovery
//!
//! [`decode_journal`] takes the longest valid slot prefix: slots must
//! carry a nonzero, strictly consecutive `seq`, an in-bounds length, and
//! a matching CRC over the payload.  A torn final slot (crash mid-write)
//! fails one of those checks and is dropped, along with any trailing
//! partial bytes — exactly the WAL's torn-tail truncation discipline.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use cqfit_env::{Env, FsFile, OpenMode};
use serde::Serialize;

use crate::trace::TraceSpan;

/// File name of the journal inside the flight-recorder directory.
pub const FR_FILE_NAME: &str = "trace.fr";

/// Journal magic: identifies the file and its format version.
pub const FR_MAGIC: &[u8; 8] = b"CQFITFR1";

/// Size of the journal header in bytes.
pub const FR_HEADER_BYTES: usize = 16;

/// Size of one slot in bytes (header + payload + padding).
pub const FR_SLOT_BYTES: usize = 512;

/// Size of the per-slot header (seq + len + crc).
const FR_SLOT_HEADER: usize = 16;

/// Maximum JSON payload bytes a slot can hold.
pub const FR_MAX_PAYLOAD: usize = FR_SLOT_BYTES - FR_SLOT_HEADER;

/// Default slot count used by `cqfit-serve` when `--fr-slots` is absent.
pub const FR_DEFAULT_SLOTS: usize = 1024;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`,
/// table-driven: besides the journal slots here, it checks every record
/// the store's write-ahead log replays.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// The live, append-only span journal.  See the module docs for format
/// and crash discipline.
#[derive(Debug)]
pub struct FlightRecorder {
    env: Arc<dyn Env>,
    path: PathBuf,
    fsync: bool,
    slot_count: u32,
    inner: Mutex<FrInner>,
}

#[derive(Debug)]
struct FrInner {
    file: Box<dyn FsFile>,
    next_slot: u32,
    seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// Opens (and resets) the journal in `dir`, first recovering every
    /// span the previous incarnation persisted.
    ///
    /// Returns the recorder and the recovered spans (possibly empty).
    /// The file is rewritten fresh — header only — after recovery, with
    /// the sequence counter continuing where the recovered prefix ended,
    /// so slots from different process lifetimes never alias.
    ///
    /// # Errors
    /// Propagates filesystem errors from the `Fs` seam.
    pub fn open(
        env: Arc<dyn Env>,
        dir: &Path,
        slots: usize,
        fsync: bool,
    ) -> io::Result<(FlightRecorder, Vec<TraceSpan>)> {
        let slots = slots.max(1);
        env.fs().create_dir_all(dir)?;
        let path = dir.join(FR_FILE_NAME);
        let (recovered, last_seq) = match env.fs().read(&path) {
            Ok(bytes) => decode_journal_with_seq(&bytes),
            Err(_) => (Vec::new(), 0),
        };

        let mut header = Vec::with_capacity(FR_HEADER_BYTES);
        header.extend_from_slice(FR_MAGIC);
        header.extend_from_slice(&(FR_SLOT_BYTES as u32).to_le_bytes());
        header.extend_from_slice(&(slots as u32).to_le_bytes());
        let mut file = env.fs().open(&path, OpenMode::CreateTruncate)?;
        file.write_all(&header)?;
        file.flush()?;
        file.sync_data()?;
        drop(file);
        env.fs().sync_parent_dir(&path)?;

        let file = env.fs().open(&path, OpenMode::Append)?;
        Ok((
            FlightRecorder {
                env,
                path,
                fsync,
                slot_count: slots as u32,
                inner: Mutex::new(FrInner {
                    file,
                    next_slot: 0,
                    seq: last_seq + 1,
                    dropped: 0,
                }),
            },
            recovered,
        ))
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Spans dropped because their JSON exceeded a slot even with
    /// annotations stripped.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Appends one span as a journal slot.  Spans too large for a slot
    /// are retried without annotations, then counted as dropped.
    ///
    /// # Errors
    /// Propagates write/sync errors; the slot counter only advances on
    /// success, so a failed slot is overwritten by the next attempt's
    /// bytes landing at the same EOF.
    pub fn record(&self, span: &TraceSpan) -> io::Result<()> {
        let mut payload = span.to_json().to_string().into_bytes();
        if payload.len() > FR_MAX_PAYLOAD {
            let mut trimmed = span.clone();
            trimmed.annotations.clear();
            payload = trimmed.to_json().to_string().into_bytes();
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if payload.len() > FR_MAX_PAYLOAD {
            inner.dropped += 1;
            return Ok(());
        }
        if inner.next_slot == self.slot_count {
            // Ring wrap: drop the previous generation and restart at
            // slot 0.  The truncation is synced so a crash right after
            // it recovers an empty (not stale) journal.
            inner.file.set_len(FR_HEADER_BYTES as u64)?;
            if self.fsync {
                inner.file.sync_data()?;
            }
            inner.next_slot = 0;
        }
        let mut slot = vec![0u8; FR_SLOT_BYTES];
        slot[0..8].copy_from_slice(&inner.seq.to_le_bytes());
        slot[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        slot[12..16].copy_from_slice(&crc32(&payload).to_le_bytes());
        slot[FR_SLOT_HEADER..FR_SLOT_HEADER + payload.len()].copy_from_slice(&payload);
        inner.file.write_all(&slot)?;
        inner.file.flush()?;
        if self.fsync {
            inner.file.sync_data()?;
        }
        inner.seq += 1;
        inner.next_slot += 1;
        Ok(())
    }

    /// The clock used for diagnostics, exposed so callers timestamp
    /// recovery dumps consistently with the journal's contents.
    pub fn now_ns(&self) -> u64 {
        self.env.clock().monotonic().as_nanos() as u64
    }
}

/// Decodes a journal image into the longest valid slot prefix of spans.
/// Invalid headers, torn slots, CRC mismatches, and sequence breaks all
/// terminate the prefix; trailing garbage is ignored.  Never fails —
/// recovery of a corrupt journal is an empty span list.
pub fn decode_journal(bytes: &[u8]) -> Vec<TraceSpan> {
    decode_journal_with_seq(bytes).0
}

fn decode_journal_with_seq(bytes: &[u8]) -> (Vec<TraceSpan>, u64) {
    let mut spans = Vec::new();
    let mut last_seq = 0u64;
    if bytes.len() < FR_HEADER_BYTES || &bytes[0..8] != FR_MAGIC {
        return (spans, last_seq);
    }
    let slot_size = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes")) as usize;
    if slot_size != FR_SLOT_BYTES {
        return (spans, last_seq);
    }
    let mut offset = FR_HEADER_BYTES;
    while offset + FR_SLOT_BYTES <= bytes.len() {
        let slot = &bytes[offset..offset + FR_SLOT_BYTES];
        let seq = u64::from_le_bytes(slot[0..8].try_into().expect("8 seq bytes"));
        if seq == 0 || (last_seq != 0 && seq != last_seq + 1) {
            break;
        }
        let len = u32::from_le_bytes(slot[8..12].try_into().expect("4 len bytes")) as usize;
        if len > FR_MAX_PAYLOAD {
            break;
        }
        let crc = u32::from_le_bytes(slot[12..16].try_into().expect("4 crc bytes"));
        let payload = &slot[FR_SLOT_HEADER..FR_SLOT_HEADER + len];
        if crc32(payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(span) = serde::from_str::<TraceSpan>(text) else {
            break;
        };
        spans.push(span);
        last_seq = seq;
        offset += FR_SLOT_BYTES;
    }
    (spans, last_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_env::RealEnv;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cqfit_fr_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn span(i: u64) -> TraceSpan {
        TraceSpan {
            trace_id: 0xABCD_0000 + u128::from(i),
            span_id: i + 1,
            parent_span_id: if i == 0 { 0 } else { i },
            name: format!("span.{i}"),
            start_ns: i * 100,
            end_ns: i * 100 + 50,
            annotations: vec![("i".to_string(), i.to_string())],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn journal_round_trips_and_recovers_across_reopen() {
        let env = RealEnv::arc();
        let dir = tmp_dir("roundtrip");
        let (recorder, recovered) =
            FlightRecorder::open(Arc::clone(&env), &dir, 64, false).expect("open fresh");
        assert!(recovered.is_empty());
        let spans: Vec<TraceSpan> = (0..5).map(span).collect();
        for s in &spans {
            recorder.record(s).expect("record span");
        }
        drop(recorder);

        let (recorder, recovered) =
            FlightRecorder::open(Arc::clone(&env), &dir, 64, false).expect("reopen");
        assert_eq!(recovered, spans);
        // Seq continues: new spans decode after another reopen too.
        recorder.record(&span(9)).expect("record after reopen");
        drop(recorder);
        let bytes = std::fs::read(dir.join(FR_FILE_NAME)).expect("read journal");
        assert_eq!(decode_journal(&bytes), vec![span(9)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_wraps_by_truncating_to_a_fresh_generation() {
        let env = RealEnv::arc();
        let dir = tmp_dir("wrap");
        let (recorder, _) = FlightRecorder::open(Arc::clone(&env), &dir, 4, false).expect("open");
        for i in 0..10 {
            recorder.record(&span(i)).expect("record span");
        }
        drop(recorder);
        let bytes = std::fs::read(dir.join(FR_FILE_NAME)).expect("read journal");
        // 10 spans over a 4-slot ring: generations [0..4), [4..8), [8..10).
        assert_eq!(bytes.len(), FR_HEADER_BYTES + 2 * FR_SLOT_BYTES);
        assert_eq!(decode_journal(&bytes), vec![span(8), span(9)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_slots_truncate_the_prefix() {
        let env = RealEnv::arc();
        let dir = tmp_dir("torn");
        let (recorder, _) = FlightRecorder::open(Arc::clone(&env), &dir, 16, false).expect("open");
        let spans: Vec<TraceSpan> = (0..4).map(span).collect();
        for s in &spans {
            recorder.record(s).expect("record span");
        }
        drop(recorder);
        let bytes = std::fs::read(dir.join(FR_FILE_NAME)).expect("read journal");

        // Cut at every slot boundary: exact prefixes decode.
        for k in 0..=4usize {
            let cut = FR_HEADER_BYTES + k * FR_SLOT_BYTES;
            assert_eq!(
                decode_journal(&bytes[..cut]),
                spans[..k].to_vec(),
                "cut {k}"
            );
        }
        // A mid-slot cut drops the torn slot.
        let cut = FR_HEADER_BYTES + 2 * FR_SLOT_BYTES + 37;
        assert_eq!(decode_journal(&bytes[..cut]), spans[..2].to_vec());
        // A flipped payload byte fails the CRC and ends the prefix.
        let mut corrupt = bytes.clone();
        corrupt[FR_HEADER_BYTES + FR_SLOT_BYTES + FR_SLOT_HEADER + 3] ^= 0x40;
        assert_eq!(decode_journal(&corrupt), spans[..1].to_vec());
        // Garbage headers recover nothing rather than failing.
        assert!(decode_journal(b"").is_empty());
        assert!(decode_journal(&bytes[1..]).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_spans_shed_annotations_then_drop() {
        let env = RealEnv::arc();
        let dir = tmp_dir("oversize");
        let (recorder, _) = FlightRecorder::open(Arc::clone(&env), &dir, 8, false).expect("open");
        let mut big = span(0);
        big.annotations = vec![("blob".to_string(), "x".repeat(2 * FR_SLOT_BYTES))];
        recorder.record(&big).expect("record oversized");
        assert_eq!(recorder.dropped(), 0);
        let mut hopeless = span(1);
        hopeless.name = "n".repeat(2 * FR_SLOT_BYTES);
        recorder.record(&hopeless).expect("record hopeless");
        assert_eq!(recorder.dropped(), 1);
        drop(recorder);
        let bytes = std::fs::read(dir.join(FR_FILE_NAME)).expect("read journal");
        let recovered = decode_journal(&bytes);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].span_id, big.span_id);
        assert!(recovered[0].annotations.is_empty(), "annotations shed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
