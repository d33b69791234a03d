//! Write-ahead-log replay speed: decoding a seeded log shaped like the
//! `cold_recovery` workload's (64 digraph workspaces, each a create plus
//! a churn of single-value examples over 5 values at density 0.3 — at
//! most 2 positives and 3 negatives live), reported in MB/s of log text.

use cqfit_data::Schema;
use cqfit_gen::{churn_workload, resolve_churn, RandomConfig, ResolvedChurnOp};
use cqfit_store::record::{decode_record, encode_record};
use cqfit_store::LogRecord;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

const WORKSPACES: u64 = 64;
const CHURN_STEPS: usize = 34;

/// The log text: every workspace's records, one line each.
fn cold_log(seed: u64) -> Vec<u8> {
    let schema = Schema::digraph();
    let mut log = String::new();
    for w in 0..WORKSPACES {
        let cfg = RandomConfig {
            num_values: 5,
            density: 0.3,
            arity: 1,
            num_positive: 2,
            num_negative: 3,
            seed: seed << 32 | w,
        };
        log.push_str(&encode_record(&LogRecord::Create {
            schema: schema.as_ref().clone(),
            arity: 1,
        }));
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
            log.push_str(&encode_record(&record));
        }
    }
    log.into_bytes()
}

fn bench_wal_decode(c: &mut Criterion) {
    let log = cold_log(1);
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
}

criterion_group!(benches, bench_wal_decode);
criterion_main!(benches);
