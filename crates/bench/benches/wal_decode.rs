//! Write-ahead-log codec speed over a seeded log shaped like the
//! `cold_recovery` workload's (64 digraph workspaces, each a create plus
//! a churn of single-value examples over 5 values at density 0.3 — at
//! most 2 positives and 3 negatives live), reported in MB/s of log text.
//!
//! `wal_decode` decodes the log's lines (replay), next to `Value::parse`
//! of the same lines as the yardstick; `wal_encode` encodes its records
//! (appends), plus the wire line of a `durable_ingest`-shaped
//! `add_example` request with its `request_id` and `trace` metadata.

use cqfit_data::Schema;
use cqfit_engine::{ExamplePayload, Polarity, Request};
use cqfit_gen::{churn_workload, random_example, resolve_churn, RandomConfig, ResolvedChurnOp};
use cqfit_obs::TraceContext;
use cqfit_store::record::{decode_record, encode_record};
use cqfit_store::LogRecord;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::Value;
use std::time::Duration;

const WORKSPACES: u64 = 64;
const CHURN_STEPS: usize = 34;

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
    // The tree of the same lines: `decode_record` should be no slower.
    let label = format!("value_parse/{}_lines", lines.len());
    let lines: Vec<&str> = lines
        .iter()
        .map(|l| std::str::from_utf8(l).expect("the log is UTF-8"))
        .collect();
    group.bench_function(label.as_str(), |b| {
        b.iter(|| {
            for line in &lines {
                black_box(Value::parse(line).expect("intact line"));
            }
        })
    });
    group.finish();
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
