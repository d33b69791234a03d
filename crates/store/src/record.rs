//! The log-record format of the write-ahead log.
//!
//! Every record is one JSONL line of the form
//!
//! ```text
//! {"crc":3632233996,"rec":{"op":"add","id":0,"polarity":"positive","example":{…}}}
//! ```
//!
//! where `crc` is the CRC-32 (IEEE) of the record body — the raw bytes
//! between `"rec":` and the line's final `}`, exactly as written.
//! [`encode_record`] always writes this frame, so [`decode_record`] splits
//! the body out of the line and checks its checksum before decoding
//! anything; it then decodes the body straight from the text, with no
//! JSON tree and no second serialization.
//!
//! A line that is not newline-terminated, is not framed this way, or
//! fails its checksum is the torn tail of the log: everything from that
//! byte offset on is discarded (see the crate documentation on recovery).
//! A line whose body passes its checksum but does not decode was written
//! whole by a writer this reader does not understand (a bug or a version
//! skew); it is reported as corruption, since truncating it would drop
//! acknowledged records.
//!
//! Record kinds mirror the engine's mutations: `create` (schema + arity),
//! `add` / `remove` (one example by id and polarity), and `snapshot` (the
//! full workspace state, written by log compaction; replay restarts from
//! the most recent snapshot).

use cqfit_data::{Example, Schema};
use cqfit_obs::crc32;
use serde::json::{JsonError, Value as Json};
use serde::{Deserialize, Serialize, Source};

/// A full copy of one workspace's logical state, as carried by a
/// `snapshot` record and returned by recovery.
///
/// `next_id` and `revision` are stored explicitly so a restored workspace
/// hands out the same example ids and reports the same revision as the
/// pre-crash engine (clients hold ids across restarts).
#[derive(Debug, Clone)]
pub struct WorkspaceSnapshot {
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
}

/// One record of a workspace's write-ahead log.
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// The workspace was created.  Always the first record of a fresh log.
    Create {
        /// Schema of the workspace's examples.
        schema: Schema,
        /// Arity of the workspace's examples.
        arity: usize,
    },
    /// An example was added.
    AddExample {
        /// The id the engine assigned.
        id: u64,
        /// `true` for `E⁺`, `false` for `E⁻`.
        positive: bool,
        /// The example itself.
        example: Example,
        /// The client-supplied idempotency id of the request that caused
        /// this mutation, when it carried one.  Recovery feeds these back
        /// into the engine's exactly-once memo so a retry that races a
        /// crash cannot re-apply after restart.
        request_id: Option<u64>,
    },
    /// An example was removed.
    RemoveExample {
        /// The id being removed.
        id: u64,
        /// `true` for `E⁺`, `false` for `E⁻`.
        positive: bool,
        /// The idempotency id of the causing request (see
        /// [`LogRecord::AddExample::request_id`]).
        request_id: Option<u64>,
    },
    /// A full state snapshot, written by log compaction.  Replay restarts
    /// from the most recent snapshot and folds the records after it.
    Snapshot(WorkspaceSnapshot),
}

fn polarity_str(positive: bool) -> &'static str {
    if positive {
        "positive"
    } else {
        "negative"
    }
}

fn parse_polarity(s: &str) -> Result<bool, JsonError> {
    match s {
        "positive" => Ok(true),
        "negative" => Ok(false),
        other => Err(JsonError::semantic(format!(
            "unknown polarity `{other}` in log record"
        ))),
    }
}

fn examples_json(examples: &[(u64, Example)]) -> Json {
    Json::Arr(
        examples
            .iter()
            .map(|(id, e)| Json::obj([("id", id.to_json()), ("example", e.to_json())]))
            .collect(),
    )
}

fn examples_from_json<'de, S: Source<'de>>(mut v: S) -> Result<Vec<(u64, Example)>, JsonError> {
    v.as_arr()
        .ok_or_else(|| JsonError::mismatch("array", &v))?
        .map(|mut entry| {
            Ok((
                u64::deserialize(entry.req("id")?)?,
                Example::deserialize(entry.req("example")?)?,
            ))
        })
        .collect()
}

impl Serialize for WorkspaceSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", self.schema.to_json()),
            ("arity", Json::Int(self.arity as i64)),
            ("next_id", self.next_id.to_json()),
            ("revision", self.revision.to_json()),
            ("positives", examples_json(&self.positives)),
            ("negatives", examples_json(&self.negatives)),
        ])
    }
}

impl Deserialize for WorkspaceSnapshot {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        snapshot_fields(&mut v)
    }
}

/// Reads the fields of a snapshot object (a `snapshot` record carries
/// them after its `op` tag).
fn snapshot_fields<'de, S: Source<'de>>(v: &mut S) -> Result<WorkspaceSnapshot, JsonError> {
    Ok(WorkspaceSnapshot {
        schema: Schema::deserialize(v.req("schema")?)?,
        arity: usize::deserialize(v.req("arity")?)?,
        next_id: u64::deserialize(v.req("next_id")?)?,
        revision: u64::deserialize(v.req("revision")?)?,
        positives: examples_from_json(v.req("positives")?)?,
        negatives: examples_from_json(v.req("negatives")?)?,
    })
}

impl Serialize for LogRecord {
    fn to_json(&self) -> Json {
        match self {
            LogRecord::Create { schema, arity } => Json::obj([
                ("op", Json::str("create")),
                ("schema", schema.to_json()),
                ("arity", Json::Int(*arity as i64)),
            ]),
            LogRecord::AddExample {
                id,
                positive,
                example,
                request_id,
            } => {
                // The request id is emitted only when present, so logs
                // written before the field existed re-encode byte for
                // byte.
                let mut pairs = vec![
                    ("op".to_string(), Json::str("add")),
                    ("id".to_string(), id.to_json()),
                    ("polarity".to_string(), Json::str(polarity_str(*positive))),
                    ("example".to_string(), example.to_json()),
                ];
                if let Some(rid) = request_id {
                    pairs.push(("request_id".to_string(), rid.to_json()));
                }
                Json::Obj(pairs)
            }
            LogRecord::RemoveExample {
                id,
                positive,
                request_id,
            } => {
                let mut pairs = vec![
                    ("op".to_string(), Json::str("remove")),
                    ("id".to_string(), id.to_json()),
                    ("polarity".to_string(), Json::str(polarity_str(*positive))),
                ];
                if let Some(rid) = request_id {
                    pairs.push(("request_id".to_string(), rid.to_json()));
                }
                Json::Obj(pairs)
            }
            LogRecord::Snapshot(s) => {
                // One source of truth for the snapshot shape: prepend the
                // op tag to WorkspaceSnapshot's own serialization (the
                // Deserialize side reads the same fields with
                // `snapshot_fields`).
                let mut pairs = vec![("op".to_string(), Json::str("snapshot"))];
                match s.to_json() {
                    Json::Obj(fields) => pairs.extend(fields),
                    other => unreachable!("snapshot serializes as an object, got {other:?}"),
                }
                Json::Obj(pairs)
            }
        }
    }
}

impl Deserialize for LogRecord {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let op = String::deserialize(v.req("op")?)?;
        match op.as_str() {
            "create" => Ok(LogRecord::Create {
                schema: Schema::deserialize(v.req("schema")?)?,
                arity: usize::deserialize(v.req("arity")?)?,
            }),
            "add" => Ok(LogRecord::AddExample {
                id: u64::deserialize(v.req("id")?)?,
                positive: parse_polarity(&String::deserialize(v.req("polarity")?)?)?,
                example: Example::deserialize(v.req("example")?)?,
                request_id: v.get("request_id").map(u64::deserialize).transpose()?,
            }),
            "remove" => Ok(LogRecord::RemoveExample {
                id: u64::deserialize(v.req("id")?)?,
                positive: parse_polarity(&String::deserialize(v.req("polarity")?)?)?,
                request_id: v.get("request_id").map(u64::deserialize).transpose()?,
            }),
            "snapshot" => Ok(LogRecord::Snapshot(snapshot_fields(&mut v)?)),
            other => Err(JsonError::semantic(format!(
                "unknown log record op `{other}`"
            ))),
        }
    }
}

/// The frame around every record body: `{"crc":C,"rec":BODY}`.
const CRC_KEY: &str = "{\"crc\":";
const REC_KEY: &str = ",\"rec\":";

/// Encodes one record as a checksummed JSONL line (including the trailing
/// newline).
pub fn encode_record(record: &LogRecord) -> String {
    let body = serde::to_string(record);
    let crc = crc32(body.as_bytes());
    // At most ten digits of checksum, then the closing `}` and newline.
    let mut line = String::with_capacity(CRC_KEY.len() + 10 + REC_KEY.len() + body.len() + 2);
    line.push_str(CRC_KEY);
    Json::Int(i64::from(crc)).write_to(&mut line);
    line.push_str(REC_KEY);
    line.push_str(&body);
    line.push_str("}\n");
    line
}

/// Why a log line did not decode.
#[derive(Debug)]
pub enum RecordError {
    /// The line is not a whole record: unframed or failing its checksum.
    /// It marks the torn tail of the log.
    Torn(String),
    /// The body passes its checksum but does not decode: the line was
    /// written whole, by a writer this reader does not understand.
    Corrupt(String),
}

/// Splits a line into its checksum and its raw record body.
fn split_frame(line: &[u8]) -> Option<(u32, &[u8])> {
    let rest = line.strip_prefix(CRC_KEY.as_bytes())?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let crc = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    let body = rest[digits..].strip_prefix(REC_KEY.as_bytes())?;
    Some((crc, body.strip_suffix(b"}")?))
}

/// Decodes one log line (without its trailing newline): checks the
/// checksum over the raw record body, then decodes the body in one pass.
///
/// # Errors
/// [`RecordError::Torn`] when the line is unframed or fails its checksum;
/// [`RecordError::Corrupt`] when the checksummed body does not decode.
pub fn decode_record(line: &[u8]) -> Result<LogRecord, RecordError> {
    let (crc, body) =
        split_frame(line).ok_or_else(|| RecordError::Torn("unframed log line".to_string()))?;
    let actual = crc32(body);
    if actual != crc {
        return Err(RecordError::Torn(format!(
            "checksum mismatch: record says {crc}, body hashes to {actual}"
        )));
    }
    let body = std::str::from_utf8(body)
        .map_err(|e| RecordError::Corrupt(format!("log record is not UTF-8: {e}")))?;
    serde::json::decode(body)
        .map_err(|e| RecordError::Corrupt(format!("malformed log record: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::parse_example;

    fn decode(line: &str) -> Result<LogRecord, RecordError> {
        decode_record(line.as_bytes())
    }

    fn sample_records() -> Vec<LogRecord> {
        let schema = Schema::digraph();
        let e = parse_example(&schema, "R(a,b)\nR(b,c)").unwrap();
        vec![
            LogRecord::Create {
                schema: schema.as_ref().clone(),
                arity: 0,
            },
            LogRecord::AddExample {
                id: 0,
                positive: true,
                example: e.clone(),
                request_id: None,
            },
            LogRecord::AddExample {
                id: 1,
                positive: false,
                example: e.clone(),
                request_id: Some(0x1234_5678_9ABC),
            },
            LogRecord::RemoveExample {
                id: 0,
                positive: false,
                request_id: None,
            },
            LogRecord::RemoveExample {
                id: 1,
                positive: false,
                request_id: Some(7),
            },
            LogRecord::Snapshot(WorkspaceSnapshot {
                schema: schema.as_ref().clone(),
                arity: 0,
                next_id: 3,
                revision: 7,
                positives: vec![(1, e.clone())],
                negatives: vec![(2, e)],
            }),
        ]
    }

    #[test]
    fn records_round_trip_through_the_line_format() {
        for record in sample_records() {
            let line = encode_record(&record);
            assert!(line.ends_with('\n'));
            let back = decode(line.trim_end()).unwrap();
            // Structural identity via re-encoding: the writer is
            // deterministic, so equal encodings mean equal records.
            assert_eq!(encode_record(&back), line);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let line = encode_record(&sample_records()[1]);
        let trimmed = line.trim_end();
        // Flip one byte inside the record body.
        let mut bytes = trimmed.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        let tampered = String::from_utf8_lossy(&bytes).into_owned();
        assert!(decode(&tampered).is_err());
        // Truncation is also rejected.
        assert!(decode(&trimmed[..trimmed.len() - 4]).is_err());
        // Garbage is rejected.
        assert!(decode("not json at all").is_err());
        assert!(decode("{\"crc\":1}").is_err());
    }

    /// A whole line with a good checksum that does not decode is
    /// corruption; a bad checksum or a broken frame is a torn line.
    #[test]
    fn checksummed_but_undecodable_lines_are_corrupt_not_torn() {
        let frame = |body: &str| format!("{{\"crc\":{},\"rec\":{body}}}", crc32(body.as_bytes()));
        for body in [
            r#"{"op":"bogus"}"#,
            r#"{"op":"add","id":0}"#,
            "{\"op\":",
            "[]",
        ] {
            assert!(
                matches!(decode(&frame(body)), Err(RecordError::Corrupt(_))),
                "{body}"
            );
        }
        let line = encode_record(&sample_records()[0]);
        let line = line.trim_end();
        assert!(matches!(decode(line), Ok(LogRecord::Create { .. })));
        for torn in [
            line.replacen("\"crc\":", "\"crc\": ", 1),
            line.replacen("{\"crc\":", "{\"crc\":1", 1),
            line.replacen("\"rec\"", "\"body\"", 1),
            line[..line.len() - 1].to_string(),
            format!("{line} "),
        ] {
            assert!(matches!(decode(&torn), Err(RecordError::Torn(_))), "{torn}");
        }
        let mut bytes = line.as_bytes().to_vec();
        bytes[20] = 0xFF;
        assert!(matches!(decode_record(&bytes), Err(RecordError::Torn(_))));
    }

    #[test]
    fn request_ids_round_trip_and_old_lines_still_decode() {
        let schema = Schema::digraph();
        let e = parse_example(&schema, "R(a,b)").unwrap();
        let with_id = LogRecord::AddExample {
            id: 4,
            positive: true,
            example: e,
            request_id: Some(0xDEAD_BEEF),
        };
        let line = encode_record(&with_id);
        assert!(line.contains("\"request_id\":3735928559"));
        match decode(line.trim_end()).unwrap() {
            LogRecord::AddExample { request_id, .. } => {
                assert_eq!(request_id, Some(0xDEAD_BEEF));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A pre-PR8 line (no request_id field) still decodes, still
        // passes its CRC, and re-encodes byte-identically.
        let old = LogRecord::RemoveExample {
            id: 2,
            positive: false,
            request_id: None,
        };
        let old_line = encode_record(&old);
        assert!(!old_line.contains("request_id"));
        let back = decode(old_line.trim_end()).unwrap();
        assert_eq!(encode_record(&back), old_line);
    }

    #[test]
    fn snapshot_preserves_ids_and_counters() {
        let record = sample_records().pop().unwrap();
        let back = decode(encode_record(&record).trim_end()).unwrap();
        match back {
            LogRecord::Snapshot(s) => {
                assert_eq!(s.next_id, 3);
                assert_eq!(s.revision, 7);
                assert_eq!(s.positives.len(), 1);
                assert_eq!(s.positives[0].0, 1);
                assert_eq!(s.negatives[0].0, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
