//! Ablation A-1: the effect of arc-consistency propagation in the
//! homomorphism search (the workhorse of every algorithm in the library),
//! the cost of `core_of` on the products a query-by-example session
//! minimizes, and the cost of a plain fit on freshly decoded examples (the
//! first question after a restart).

use cqfit::incremental::IncrementalFitting;
use cqfit_data::{Example, Schema};
use cqfit_gen::{
    directed_cycle, prime_cycles_family, random_labeled_examples, symmetric_clique, RandomConfig,
};
use cqfit_hom::{core_of, find_homomorphism_with, product_of, HomCache, HomConfig, HomSearchStats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/arc_consistency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let schema = cqfit_data::Schema::digraph();
    // Hard negative instances: does C_{3n} map into K_3? (yes) and does
    // C_{2n+1} map into K_2 plus padding? (no).
    let cases = [
        (
            "c9_to_k3",
            directed_cycle(&schema, 9),
            symmetric_clique(&schema, 3),
        ),
        (
            "c15_to_k3",
            directed_cycle(&schema, 15),
            symmetric_clique(&schema, 3),
        ),
        (
            "c11_to_k4",
            directed_cycle(&schema, 11),
            symmetric_clique(&schema, 4),
        ),
    ];
    for (name, src, dst) in &cases {
        for ac in [true, false] {
            let cfg = HomConfig {
                use_arc_consistency: ac,
                max_nodes: None,
            };
            let id = format!("{name}/{}", if ac { "ac" } else { "no_ac" });
            group.bench_with_input(BenchmarkId::from_parameter(&id), &id, |b, _| {
                b.iter(|| {
                    let mut stats = HomSearchStats::default();
                    find_homomorphism_with(src, dst, &cfg, &mut stats).unwrap()
                })
            });
        }
    }
    // Product homomorphism workload (the inner loop of fitting existence).
    for n in [3usize, 4] {
        let examples = prime_cycles_family(n);
        group.bench_with_input(BenchmarkId::new("product_vs_negative", n), &n, |b, _| {
            b.iter(|| cqfit::cq::fitting_exists(&examples).unwrap())
        });
    }
    group.finish();
}

/// Π of `positives` random unary-pointed digraph examples (5 values,
/// density 0.3), one per seed: the products `Fit{Cq,Minimized}` cores in a
/// query-by-example session.
fn qbe_products(positives: usize, seeds: std::ops::Range<u64>) -> Vec<Example> {
    let schema = Schema::digraph();
    seeds
        .map(|seed| {
            let examples = random_labeled_examples(
                &schema,
                &RandomConfig {
                    num_values: 5,
                    density: 0.3,
                    arity: 1,
                    num_positive: positives,
                    num_negative: 0,
                    seed,
                },
            );
            product_of(&schema, 1, examples.positives()).unwrap()
        })
        .collect()
}

fn bench_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/qbe_products");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    // One iteration cores every product of the set.
    for (name, products) in [
        ("2_positives_x64", qbe_products(2, 0..64)),
        ("3_positives_x16", qbe_products(3, 0..16)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &products, |b, ps| {
            b.iter(|| ps.iter().map(|p| core_of(p).size()).sum::<usize>())
        });
    }
    // Thm. 3.40's C3 × C5 = C15 is already a core: nothing folds, so this
    // row shows what the fold costs when it finds nothing.  64 calls per
    // iteration keep one sample well above the timer's noise.
    let fam = prime_cycles_family(3);
    let c15 = product_of(fam.schema().unwrap(), 0, fam.positives()).unwrap();
    group.bench_with_input(
        BenchmarkId::from_parameter("thm3.40_c15_x64"),
        &c15,
        |b, e| b.iter(|| (0..64).map(|_| core_of(e).size()).sum::<usize>()),
    );
    group.finish();
}

/// 64 workspaces shaped like a restarted server's (2 positives and 3
/// negatives, unary-pointed digraph examples over 5 values, density 0.3),
/// each example written to JSON and decoded back, so it starts with no
/// fact index and no memoized hash, as after a write-ahead-log replay.
fn cold_workspaces() -> Vec<(Vec<Example>, Vec<Example>)> {
    let schema = Schema::digraph();
    let decoded = |e: &Example| serde::json::decode::<Example>(&serde::to_string(e)).unwrap();
    (0..64)
        .map(|seed| {
            let col = random_labeled_examples(
                &schema,
                &RandomConfig {
                    num_values: 5,
                    density: 0.3,
                    arity: 1,
                    num_positive: 2,
                    num_negative: 3,
                    seed,
                },
            );
            (
                col.positives().iter().map(decoded).collect(),
                col.negatives().iter().map(decoded).collect(),
            )
        })
        .collect()
}

fn bench_cold_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit/cold_shapes");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let schema = Schema::digraph();
    let workspaces = cold_workspaces();
    let numbered = |es: &[Example], from: u64| (from..).zip(es.iter().cloned()).collect::<Vec<_>>();
    // One iteration answers `Fit{Cq,Plain}` on all 64 workspaces with a
    // fresh cache, as the engine does after a restart: each workspace is
    // restored with `IncrementalFitting::from_parts` and asked
    // `cq_construct_fitting`.  The restore clones the examples — a clone of
    // an unindexed, unhashed example stays cold — so the clones are part of
    // the measured cost.
    group.bench_with_input(
        BenchmarkId::from_parameter("plain_fit_x64"),
        &workspaces,
        |b, wss| {
            b.iter(|| {
                let cache = HomCache::new();
                wss.iter()
                    .map(|(positives, negatives)| {
                        let next_id = (positives.len() + negatives.len()) as u64;
                        let mut ws = IncrementalFitting::from_parts(
                            schema.clone(),
                            1,
                            numbered(positives, 0),
                            numbered(negatives, positives.len() as u64),
                            next_id,
                            next_id,
                        )
                        .unwrap();
                        let fit = ws.cq_construct_fitting(Some(&cache)).unwrap();
                        fit.map_or(0, |q| q.atoms().len())
                    })
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_ablation, bench_core, bench_cold_fit);
criterion_main!(benches);
