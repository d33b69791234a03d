//! Write-ahead-log codec speed over a seeded log shaped like the
//! `cold_recovery` workload's (64 digraph workspaces, each a create plus
//! a churn of single-value examples over 5 values at density 0.3 — at
//! most 2 positives and 3 negatives live), reported in MB/s of log text.
//!
//! `wal_decode` decodes the log's lines (replay).  Its yardstick is
//! `Value::parse` of the same lines: the two loops are timed alternately
//! for [`RATIO_ROUNDS`] rounds, so drift of the machine touches both, and
//! one line reports the ratio of their minima,
//! `wal_decode/decode_vs_tree ratio_of_minima=<x>` (below 1 means decoding
//! beats building the tree).  `crc32/cold_log` is the checksum alone over
//! the same lines.  `wal_encode` encodes its records (appends),
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
use serde::json::Value;
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
    let log = cold_log(&cold_records(1));
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
    decode_vs_tree(&lines);

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

/// Times `decode_record` and `Value::parse` over the same lines in
/// alternating rounds (each round switches which goes first) and prints
/// the ratio of the two minima: `decode_record` should be no slower.
fn decode_vs_tree(lines: &[&[u8]]) {
    let texts: Vec<&str> = lines
        .iter()
        .map(|l| std::str::from_utf8(l).expect("the log is UTF-8"))
        .collect();
    let decode = || {
        for line in lines {
            black_box(decode_record(line).expect("intact line"));
        }
    };
    let tree = || {
        for text in &texts {
            black_box(Value::parse(text).expect("intact line"));
        }
    };
    let timed = |f: &dyn Fn()| {
        let begun = Instant::now();
        f();
        begun.elapsed()
    };
    let (mut decode_min, mut tree_min) = (Duration::MAX, Duration::MAX);
    for round in 0..=RATIO_ROUNDS {
        let (d, t) = if round % 2 == 0 {
            (timed(&decode), timed(&tree))
        } else {
            let t = timed(&tree);
            (timed(&decode), t)
        };
        // Round 0 warms both loops up.
        if round > 0 {
            decode_min = decode_min.min(d);
            tree_min = tree_min.min(t);
        }
    }
    eprintln!(
        "wal_decode/decode_vs_tree ratio_of_minima={:.3} decode_min_ms={:.3} tree_min_ms={:.3} rounds={RATIO_ROUNDS}",
        decode_min.as_secs_f64() / tree_min.as_secs_f64(),
        decode_min.as_secs_f64() * 1e3,
        tree_min.as_secs_f64() * 1e3,
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
