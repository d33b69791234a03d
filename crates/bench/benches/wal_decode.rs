//! Write-ahead-log codec speed over a seeded log shaped like the
//! `cold_recovery` workload's (64 digraph workspaces, each a create plus
//! a churn of single-value examples over 5 values at density 0.3 — at
//! most 2 positives and 3 negatives live), reported in MB/s of log text.
//!
//! `wal_decode` decodes the log's lines (replay).  Its yardstick is
//! `Value::parse` of the record bodies: `json::decode` and `Value::parse`
//! over the same bodies are timed alternately for [`RATIO_ROUNDS`] rounds,
//! so drift of the machine touches both, and one line reports the ratio of
//! their minima, `wal_decode/decode_vs_tree ratio_of_minima=<x>` (below 1
//! means decoding beats building the tree).  `decode_record` over the
//! whole lines runs in the same rounds; what it spends beyond the body
//! decode (frame split, CRC and UTF-8 check) prints on a line of its own,
//! `wal_decode/frame_crc_utf8`.  `crc32/cold_log` is the checksum alone
//! over the same lines.  `wal_encode` encodes its records (appends),
//! plus the wire line of a `durable_ingest`-shaped `add_example` request
//! with its `request_id` and `trace` metadata.

use cqfit_data::Schema;
use cqfit_engine::{ExamplePayload, Polarity, Request};
use cqfit_gen::{churn_workload, random_example, resolve_churn, RandomConfig, ResolvedChurnOp};
use cqfit_obs::{crc32, TraceContext};
use cqfit_store::record::{decode_record, encode_record};
use cqfit_store::LogRecord;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::{self, Value};
use std::time::{Duration, Instant};

const WORKSPACES: u64 = 64;
const CHURN_STEPS: usize = 34;
/// Alternating rounds behind `wal_decode/decode_vs_tree`.
const RATIO_ROUNDS: usize = 40;

/// The log's records, every workspace's in turn.
fn cold_records(seed: u64) -> Vec<LogRecord> {
    let schema = Schema::digraph();
    let mut records = Vec::new();
    for w in 0..WORKSPACES {
        let cfg = RandomConfig {
            num_values: 5,
            density: 0.3,
            arity: 1,
            num_positive: 2,
            num_negative: 3,
            seed: seed << 32 | w,
        };
        records.push(LogRecord::Create {
            schema: schema.as_ref().clone(),
            arity: 1,
        });
        let ops = churn_workload(&schema, &cfg, CHURN_STEPS);
        let mut next_id = 0;
        for op in resolve_churn(&ops, 0) {
            let record = match op {
                ResolvedChurnOp::Add { positive, example } => {
                    next_id += 1;
                    LogRecord::AddExample {
                        id: next_id - 1,
                        positive,
                        example: *example,
                        request_id: None,
                    }
                }
                ResolvedChurnOp::Remove { positive, id } => LogRecord::RemoveExample {
                    id,
                    positive,
                    request_id: None,
                },
            };
            records.push(record);
        }
    }
    records
}

/// The log text: every record, one line each.
fn cold_log(records: &[LogRecord]) -> Vec<u8> {
    records
        .iter()
        .map(encode_record)
        .collect::<String>()
        .into_bytes()
}

fn bench_wal_decode(c: &mut Criterion) {
    let records = cold_records(1);
    let log = cold_log(&records);
    let lines: Vec<&[u8]> = log
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let mut group = c.benchmark_group("wal_decode");
    group
        .sample_size(40)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .throughput(Throughput::Bytes(log.len() as u64));
    let label = format!("cold_log/{}_lines", lines.len());
    group.bench_function(label.as_str(), |b| {
        b.iter(|| {
            for line in &lines {
                black_box(decode_record(line).expect("intact line"));
            }
        })
    });
    group.finish();
    decode_vs_tree(&records, &lines);

    // The checksum alone, line by line as replay checks it.
    let mut group = c.benchmark_group("crc32");
    group
        .sample_size(40)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
        .throughput(Throughput::Bytes(log.len() as u64));
    group.bench_function("cold_log", |b| {
        b.iter(|| {
            for line in &lines {
                black_box(crc32(black_box(line)));
            }
        })
    });
    group.finish();
}

/// Times, in alternating rounds (each round rotates which goes first),
/// `json::decode` and `Value::parse` over the same record bodies and
/// `decode_record` over the whole lines.  Prints the ratio of the body
/// minima — decoding should be no slower than building the tree — and,
/// on a line of its own, the whole-line minimum's excess over the body
/// decode: the frame split, the CRC and the UTF-8 check.
fn decode_vs_tree(records: &[LogRecord], lines: &[&[u8]]) {
    let bodies: Vec<String> = records.iter().map(serde::to_string).collect();
    for (body, line) in bodies.iter().zip(lines) {
        let framed = line
            .strip_suffix(b"}")
            .is_some_and(|l| l.ends_with(body.as_bytes()));
        assert!(framed, "each line frames its record's body");
    }
    let decode = || {
        for body in &bodies {
            black_box(json::decode::<LogRecord>(body).expect("intact body"));
        }
    };
    let tree = || {
        for body in &bodies {
            black_box(Value::parse(body).expect("intact body"));
        }
    };
    let whole = || {
        for line in lines {
            black_box(decode_record(line).expect("intact line"));
        }
    };
    let loops: [&dyn Fn(); 3] = [&decode, &tree, &whole];
    let mut minima = [Duration::MAX; 3];
    for round in 0..=RATIO_ROUNDS {
        for k in 0..3 {
            let which = (round + k) % 3;
            let begun = Instant::now();
            loops[which]();
            let spent = begun.elapsed();
            // Round 0 warms the loops up.
            if round > 0 {
                minima[which] = minima[which].min(spent);
            }
        }
    }
    let [decode_min, tree_min, whole_min] = minima.map(|d| d.as_secs_f64() * 1e3);
    eprintln!(
        "wal_decode/decode_vs_tree ratio_of_minima={:.3} decode_min_ms={decode_min:.3} tree_min_ms={tree_min:.3} rounds={RATIO_ROUNDS}",
        decode_min / tree_min,
    );
    eprintln!(
        "wal_decode/frame_crc_utf8 min_ms={:.3} share_of_decode_record={:.3} decode_record_min_ms={whole_min:.3}",
        whole_min - decode_min,
        (whole_min - decode_min) / whole_min,
    );
}

fn bench_wal_encode(c: &mut Criterion) {
    let records = cold_records(1);
    let log_bytes = cold_log(&records).len() as u64;
    let mut group = c.benchmark_group("wal_encode");
    group
        .sample_size(40)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .throughput(Throughput::Bytes(log_bytes));
    let label = format!("cold_log/{}_records", records.len());
    group.bench_function(label.as_str(), |b| {
        b.iter(|| {
            for record in &records {
                black_box(encode_record(record));
            }
        })
    });

    // A `durable_ingest` add: a negative single-value digraph example
    // over 8 values at density 0.25, with both metadata fields.
    let cfg = RandomConfig {
        num_values: 8,
        density: 0.25,
        arity: 1,
        ..RandomConfig::default()
    };
    let example = random_example(&Schema::digraph(), &cfg, &mut StdRng::seed_from_u64(1));
    let request = Request::AddExample {
        workspace: "ingest".into(),
        polarity: Polarity::Negative,
        example: ExamplePayload::Structured(example),
    };
    let ctx = TraceContext {
        trace_id: (7u128 << 64) | 9,
        span_id: 0xABCD,
        parent_span_id: 0x1234,
    };
    let (id, mut frame) = (1u64 << 62, String::new());
    request.write_with_meta(id, Some(&ctx), &mut frame);
    group.throughput(Throughput::Bytes(frame.len() as u64 + 1));
    let label = format!("add_example_request/{}_bytes", frame.len() + 1);
    group.bench_function(label.as_str(), |b| {
        b.iter(|| {
            let mut frame = String::new();
            request.write_with_meta(id, Some(&ctx), &mut frame);
            frame.push('\n');
            black_box(frame)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_wal_decode, bench_wal_encode);
criterion_main!(benches);
