//! Differential test suite for the mask-based core engine.
//!
//! The core engine (`cqfit_hom::core`: deactivation mask, dominated-value
//! fold, endomorphism sweep, orbit folding, retraction checks) must agree
//! with the preserved greedy oracle (`cqfit_hom::core::reference`) *up to
//! isomorphism*: cores are unique only up to isomorphism, and the two
//! engines may retract onto different (isomorphic) sub-instances.  For every
//! fixed-seed random instance, every paper-family instance and every
//! query-by-example product this harness asserts:
//!
//! * equal value counts and equal fact counts of the two cores,
//! * homomorphic equivalence of the two cores, and of each core with the
//!   input,
//! * identical distinguished handling: same arity, and positionally
//!   identical distinguished labels (neither engine may ever fold away or
//!   relabel a distinguished value),
//! * both outputs are cores according to *both* engines' `is_core`, and the
//!   two `is_core` implementations agree on the input itself.

use cqfit_data::{Example, Schema};
use cqfit_gen::{
    bitstring_family, directed_cycle, prime_cycles_family, random_example, random_labeled_examples,
    symmetric_clique, RandomConfig,
};
use cqfit_hom::core::reference;
use cqfit_hom::{core_of, hom_equivalent, is_core, product_of};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn schemas() -> Vec<Arc<Schema>> {
    vec![
        Schema::digraph(),
        Schema::binary_schema(["P", "Q"], ["R", "S"]),
        Arc::new(Schema::new([("T", 3), ("U", 1)]).unwrap()),
    ]
}

/// Distinguished labels of an example, in tuple order.
fn distinguished_labels(e: &Example) -> Vec<String> {
    e.distinguished()
        .iter()
        .map(|&d| e.instance().label(d).to_string())
        .collect()
}

/// Runs one instance through both engines and asserts full agreement up to
/// isomorphism.  Returns 1 (the number of performed checks) for counting.
fn check_example(e: &Example, label: &str) -> usize {
    let fast = core_of(e);
    let slow = reference::core_of(e);
    assert_eq!(
        fast.instance().num_values(),
        slow.instance().num_values(),
        "{label}: core value counts diverge\ninput = {}",
        e.instance()
    );
    assert_eq!(
        fast.size(),
        slow.size(),
        "{label}: core fact counts diverge\ninput = {}",
        e.instance()
    );
    assert!(
        hom_equivalent(&fast, &slow),
        "{label}: cores are not homomorphically equivalent"
    );
    assert!(
        hom_equivalent(e, &fast),
        "{label}: new core is not equivalent to the input"
    );
    assert!(
        hom_equivalent(e, &slow),
        "{label}: reference core is not equivalent to the input"
    );
    // Distinguished handling: same arity, positionally identical labels
    // (distinguished values are never folded away or remapped).
    assert_eq!(fast.arity(), e.arity(), "{label}: arity changed");
    assert_eq!(slow.arity(), e.arity(), "{label}: oracle arity changed");
    assert_eq!(
        distinguished_labels(&fast),
        distinguished_labels(e),
        "{label}: distinguished labels changed"
    );
    assert_eq!(
        distinguished_labels(&slow),
        distinguished_labels(e),
        "{label}: oracle distinguished labels changed"
    );
    // Both outputs are cores, according to both engines.
    assert!(is_core(&fast), "{label}: new core is not a core (new)");
    assert!(
        reference::is_core(&fast),
        "{label}: new core is not a core (oracle)"
    );
    assert!(
        is_core(&slow),
        "{label}: reference core is not a core (new)"
    );
    // And the two `is_core` implementations agree on the raw input.
    assert_eq!(
        is_core(e),
        reference::is_core(e),
        "{label}: is_core disagreement on the input"
    );
    1
}

#[test]
fn differential_random_instances_agree_with_reference_engine() {
    let mut total = 0usize;
    let mut proper_retracts = 0usize;
    for (si, schema) in schemas().iter().enumerate() {
        for arity in [0usize, 1] {
            let mut rng = StdRng::seed_from_u64(0xC0_3E + (si as u64) * 1000 + arity as u64);
            for (ci, cfg) in [
                RandomConfig {
                    num_values: 4,
                    density: 0.2,
                    arity,
                    ..RandomConfig::default()
                },
                RandomConfig {
                    num_values: 5,
                    density: 0.35,
                    arity,
                    ..RandomConfig::default()
                },
                RandomConfig {
                    num_values: 6,
                    density: 0.5,
                    arity,
                    ..RandomConfig::default()
                },
            ]
            .into_iter()
            .enumerate()
            {
                for pi in 0..18 {
                    let e = random_example(schema, &cfg, &mut rng);
                    let label = format!("schema {si}, arity {arity}, config {ci}, instance {pi}");
                    total += check_example(&e, &label);
                    if core_of(&e).instance().num_values() < e.instance().num_values() {
                        proper_retracts += 1;
                    }
                }
            }
        }
    }
    assert!(total >= 324, "random sweep ran only {total} checks");
    // The workload must exercise both regimes: instances that fold and
    // instances that are already cores.
    assert!(proper_retracts > 0, "no instance had a proper retract");
    assert!(proper_retracts < total, "every instance folded");
}

#[test]
fn differential_family_instances_agree_with_reference_engine() {
    let mut total = 0usize;
    let digraph = Schema::digraph();
    // Thm. 3.40 prime-cycle products (cores) and their padded variants.
    for n in [2usize, 3] {
        let fam = prime_cycles_family(n);
        let schema = fam.schema().unwrap().clone();
        let product = product_of(&schema, 0, fam.positives()).unwrap();
        total += check_example(&product, &format!("prime cycle product n={n}"));
    }
    // Single cycles and cliques.
    for len in [4usize, 7, 12] {
        total += check_example(&directed_cycle(&digraph, len), &format!("C{len}"));
    }
    for k in [3usize, 4] {
        total += check_example(&symmetric_clique(&digraph, k), &format!("K{k}"));
    }
    // Thm. 3.41 bitstring product.
    let fam = bitstring_family(2);
    let schema = fam.schema().unwrap().clone();
    let product = product_of(&schema, 0, fam.positives()).unwrap();
    total += check_example(&product, "bitstring product n=2");
    // Padded instance: pendant path + isolated declared values (regression
    // shape for the up-front isolated-value masking).
    let product = {
        let cycles: Vec<Example> = [3usize, 5]
            .iter()
            .map(|&p| directed_cycle(&digraph, p))
            .collect();
        product_of(&digraph, 0, &cycles).unwrap()
    };
    let (mut inst, dist) = product.into_parts();
    let rel = inst.schema().rel("R").unwrap();
    let mut prev = cqfit_data::Value(0);
    for k in 0..5 {
        let next = inst.add_value(format!("pad{k}"));
        inst.add_fact(rel, &[prev, next]).unwrap();
        prev = next;
    }
    for k in 0..4 {
        inst.add_value(format!("iso{k}"));
    }
    let padded = Example::new(inst, dist);
    total += check_example(&padded, "padded prime cycle product");
    let core = core_of(&padded);
    assert_eq!(
        core.instance().num_values(),
        15,
        "padding and pendant path must fold away, leaving C15"
    );
    // The products `qbe_fit`-style sessions minimize: Π of 2 and 3 random
    // unary-pointed digraph positives (5 values, density 0.3).  Most of
    // their values fold by domination, so these rows pin the
    // dominated-value fold against the oracle on the shape the served
    // engine cores.
    for positives in [2usize, 3] {
        for seed in 0..QBE_PRODUCT_SEEDS {
            let examples = random_labeled_examples(
                &digraph,
                &RandomConfig {
                    num_values: 5,
                    density: 0.3,
                    arity: 1,
                    num_positive: positives,
                    num_negative: 0,
                    seed,
                },
            );
            let product = product_of(&digraph, 1, examples.positives()).unwrap();
            let label = format!("{positives}-positive product, seed {seed}");
            total += check_example(&product, &label);
        }
    }
    assert!(total >= 9 + 2 * QBE_PRODUCT_SEEDS as usize);
}

/// Seeds per positive count in the `qbe_fit`-shaped product rows.
const QBE_PRODUCT_SEEDS: u64 = 12;

/// The combined suite must perform at least 300 new-vs-reference checks;
/// this meta-test keeps the count honest if the sweeps above are retuned.
#[test]
fn differential_suite_reaches_300_checks() {
    // 3 schemas × 2 arities × 3 configs × 18 instances = 324 random checks,
    // plus 9 + 2 × 12 family checks — the constants below must match the
    // sweeps above.
    let random_checks = 3 * 2 * 3 * 18;
    let family_checks = 2 + 3 + 2 + 1 + 1 + 2 * QBE_PRODUCT_SEEDS as usize;
    assert!(
        random_checks + family_checks >= 300,
        "retune the sweeps: only {} checks",
        random_checks + family_checks
    );
}
