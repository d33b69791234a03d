//! Differential certification of the incremental fitting path: after *any*
//! fixed-seed sequence of add/remove operations, the workspace state must
//! agree with the from-scratch batch computation —
//!
//! * the maintained product `Π E⁺` is hom-equivalent to the batch product
//!   (structurally equal when no removal intervened),
//! * every fitting answer (existence, construction, minimized
//!   construction, CQ and UCQ) matches the batch entry points of
//!   `cqfit::cq` / `cqfit::ucq` up to query equivalence,
//! * cached and uncached engines agree.
//!
//! Randomness is fixed-seed (`StdRng::seed_from_u64`), so failures
//! reproduce run-to-run.

use cqfit::incremental::{ExampleId, IncrementalFitting};
use cqfit_data::{Example, Schema};
use cqfit_gen::{random_example, RandomConfig};
use cqfit_hom::{hom_equivalent, product_of, HomCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One random workspace operation.
#[derive(Debug)]
enum Op {
    AddPositive,
    AddNegative,
    RemovePositive,
    RemoveNegative,
    Check,
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..10u32) {
        0..=2 => Op::AddPositive,
        3..=4 => Op::AddNegative,
        5 => Op::RemovePositive,
        6 => Op::RemoveNegative,
        _ => Op::Check,
    }
}

/// Asserts full agreement between the incremental state and the
/// from-scratch batch computation on the same collection.
fn assert_matches_batch(inc: &mut IncrementalFitting, cache: Option<&HomCache>, ctx: &str) {
    let batch = inc.labeled_examples();
    let schema = inc.schema().clone();
    let arity = inc.arity();

    // The batch entry points reject fully-empty collections (they cannot
    // infer a schema); the incremental workspace knows its schema, so it
    // answers: the product is the top example and every CQ over it fits.
    if batch.schema().is_none() {
        assert!(
            inc.product().unwrap().is_data_example(),
            "{ctx}: top product"
        );
        assert!(inc.cq_fitting_exists(cache).unwrap(), "{ctx}: empty exists");
        assert!(
            inc.cq_construct_fitting(cache).unwrap().is_some(),
            "{ctx}: empty construct"
        );
        return;
    }

    // Product: hom-equivalent to the batch fold (structurally equal when
    // the incremental path never rebuilt, but removal rebuilds may
    // parenthesize over fewer factors — hom-equivalence is the contract).
    let positives: Vec<Example> = batch.positives().to_vec();
    let batch_product = product_of(&schema, arity, &positives).unwrap();
    let inc_product = inc.product().unwrap().clone();
    assert!(
        hom_equivalent(&inc_product, &batch_product),
        "{ctx}: maintained product not hom-equivalent to batch product"
    );

    // CQ existence + construction.
    let batch_exists = cqfit::cq::fitting_exists(&batch).unwrap();
    assert_eq!(
        inc.cq_fitting_exists(cache).unwrap(),
        batch_exists,
        "{ctx}: cq existence"
    );
    let inc_fit = inc.cq_construct_fitting(cache).unwrap();
    let batch_fit = cqfit::cq::construct_fitting(&batch).unwrap();
    assert_eq!(inc_fit.is_some(), batch_fit.is_some(), "{ctx}: cq found");
    if let (Some(a), Some(b)) = (&inc_fit, &batch_fit) {
        assert!(a.equivalent_to(b).unwrap(), "{ctx}: cq fit inequivalent");
    }
    let inc_min = inc.cq_construct_fitting_minimized(cache).unwrap();
    let batch_min = cqfit::cq::construct_fitting_minimized(&batch).unwrap();
    assert_eq!(
        inc_min.is_some(),
        batch_min.is_some(),
        "{ctx}: cq min found"
    );
    if let (Some(a), Some(b)) = (&inc_min, &batch_min) {
        assert!(
            a.equivalent_to(b).unwrap(),
            "{ctx}: minimized cq fit inequivalent"
        );
        assert_eq!(
            a.size(),
            b.size(),
            "{ctx}: minimized cq sizes differ (both must be cores)"
        );
    }

    // UCQ existence + most-specific construction.
    let batch_uexists = cqfit::ucq::fitting_exists(&batch).unwrap();
    assert_eq!(
        inc.ucq_fitting_exists(cache).unwrap(),
        batch_uexists,
        "{ctx}: ucq existence"
    );
    let inc_ucq = inc.ucq_most_specific_fitting(cache).unwrap();
    let batch_ucq = cqfit::ucq::most_specific_fitting(&batch).unwrap();
    assert_eq!(inc_ucq.is_some(), batch_ucq.is_some(), "{ctx}: ucq found");
    if let (Some(a), Some(b)) = (&inc_ucq, &batch_ucq) {
        assert!(a.equivalent_to(b).unwrap(), "{ctx}: ucq inequivalent");
    }
    let inc_umin = inc.ucq_most_specific_fitting_minimized(cache).unwrap();
    let batch_umin = cqfit::ucq::most_specific_fitting_minimized(&batch).unwrap();
    assert_eq!(
        inc_umin.is_some(),
        batch_umin.is_some(),
        "{ctx}: ucq min found"
    );
    if let (Some(a), Some(b)) = (&inc_umin, &batch_umin) {
        assert!(
            a.equivalent_to(b).unwrap(),
            "{ctx}: minimized ucq inequivalent"
        );
        assert_eq!(
            a.len(),
            b.len(),
            "{ctx}: minimized ucq disjunct counts differ"
        );
    }
}

/// Runs one fixed-seed operation sequence against a workspace, checking
/// against the batch path at every `Check` op and at the end.
fn run_sequence(schema: &Arc<Schema>, arity: usize, seed: u64, ops: usize, caching: bool) {
    let cache = caching.then(HomCache::new);
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = RandomConfig {
        num_values: 3 + (seed as usize % 3),
        density: 0.3,
        arity,
        seed,
        ..RandomConfig::default()
    };
    let mut inc = IncrementalFitting::new(schema.clone(), arity);
    let mut pos_ids: Vec<ExampleId> = Vec::new();
    let mut neg_ids: Vec<ExampleId> = Vec::new();
    for step in 0..ops {
        let ctx = format!("seed {seed}, step {step}");
        match random_op(&mut rng) {
            Op::AddPositive => {
                // Cap the factor count: the product grows multiplicatively
                // in the number of positives, and the differential check
                // cores it at every checkpoint.
                if pos_ids.len() < 3 {
                    let e = random_example(schema, &cfg, &mut rng);
                    pos_ids.push(inc.add_positive(e).unwrap());
                }
            }
            Op::AddNegative => {
                let e = random_example(schema, &cfg, &mut rng);
                neg_ids.push(inc.add_negative(e).unwrap());
            }
            Op::RemovePositive => {
                if !pos_ids.is_empty() {
                    let id = pos_ids.swap_remove(rng.gen_range(0..pos_ids.len()));
                    assert!(inc.remove_positive(id), "{ctx}: removal must succeed");
                }
            }
            Op::RemoveNegative => {
                if !neg_ids.is_empty() {
                    let id = neg_ids.swap_remove(rng.gen_range(0..neg_ids.len()));
                    assert!(inc.remove_negative(id), "{ctx}: removal must succeed");
                }
            }
            Op::Check => assert_matches_batch(&mut inc, cache.as_ref(), &ctx),
        }
    }
    assert_matches_batch(&mut inc, cache.as_ref(), &format!("seed {seed}, final"));
}

#[test]
fn boolean_digraph_sequences_match_batch() {
    let schema = Schema::digraph();
    for seed in 0..12u64 {
        run_sequence(&schema, 0, seed, 14, seed % 2 == 0);
    }
}

#[test]
fn unary_binary_schema_sequences_match_batch() {
    let schema = Schema::binary_schema(["P"], ["R", "S"]);
    for seed in 100..108u64 {
        run_sequence(&schema, 1, seed, 12, seed % 2 == 0);
    }
}

#[test]
fn binary_arity_sequences_match_batch() {
    let schema = Schema::digraph();
    for seed in 200..206u64 {
        run_sequence(&schema, 2, seed, 10, true);
    }
}

/// The same op sequence on a cached and an uncached workspace must agree
/// answer-for-answer (the cache may change wall-clock, never answers).
#[test]
fn cached_and_uncached_agree() {
    let schema = Schema::digraph();
    let cache = HomCache::new();
    for seed in 300..306u64 {
        let cfg = RandomConfig {
            num_values: 4,
            density: 0.3,
            arity: 0,
            seed,
            ..RandomConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = IncrementalFitting::new(schema.clone(), 0);
        let mut b = IncrementalFitting::new(schema.clone(), 0);
        for _ in 0..6 {
            let e = random_example(&schema, &cfg, &mut rng);
            if rng.gen_bool(0.5) {
                a.add_positive(e.clone()).unwrap();
                b.add_positive(e).unwrap();
            } else {
                a.add_negative(e.clone()).unwrap();
                b.add_negative(e).unwrap();
            }
            assert_eq!(
                a.cq_fitting_exists(Some(&cache)).unwrap(),
                b.cq_fitting_exists(None).unwrap()
            );
            let fa = a.cq_construct_fitting_minimized(Some(&cache)).unwrap();
            let fb = b.cq_construct_fitting_minimized(None).unwrap();
            assert_eq!(fa.is_some(), fb.is_some());
            if let (Some(fa), Some(fb)) = (fa, fb) {
                assert!(fa.equivalent_to(&fb).unwrap());
            }
        }
    }
    // The shared cache must have seen real traffic.
    let stats = cache.stats();
    assert!(stats.hom_hits + stats.hom_misses > 0);
}

/// Interleaving removals with re-adds of the *same* example must behave
/// like the batch path on the surviving set (regression shape for the
/// lazy-invalidation bookkeeping).
#[test]
fn remove_then_readd_round_trips() {
    let schema = Schema::digraph();
    let c3 = cqfit_data::parse_example(&schema, "R(a,b)\nR(b,c)\nR(c,a)").unwrap();
    let c5 = cqfit_data::parse_example(&schema, "R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,a)").unwrap();
    let neg = cqfit_data::parse_example(&schema, "R(a,b)\nR(b,a)").unwrap();
    let mut inc = IncrementalFitting::new(schema.clone(), 0);
    let id3 = inc.add_positive(c3.clone()).unwrap();
    inc.add_positive(c5.clone()).unwrap();
    inc.add_negative(neg).unwrap();
    let before = inc.cq_construct_fitting_minimized(None).unwrap().unwrap();
    assert_eq!(before.num_variables(), 15);
    // Drop C3: the fitting relaxes to C5.
    assert!(inc.remove_positive(id3));
    let mid = inc.cq_construct_fitting_minimized(None).unwrap().unwrap();
    assert_eq!(mid.num_variables(), 5);
    // Re-add C3: back to the C15 core.
    inc.add_positive(c3).unwrap();
    let after = inc.cq_construct_fitting_minimized(None).unwrap().unwrap();
    assert!(after.equivalent_to(&before).unwrap());
    assert_eq!(after.num_variables(), 15);
}
