//! The pre-mask, greedy core computation, preserved verbatim as a reference
//! oracle (mirroring the [`crate::reference`] pattern for the hom engine).
//!
//! This is the implementation that shipped before the mask-based rewrite of
//! the core engine: one full `Example` clone per retraction, an induced
//! sub-instance rebuild per candidate check, one value removed per pass, and
//! isolated-value cleanup only after the retraction loop.  It is kept as
//! the oracle of the differential suite (`tests/differential_core.rs`),
//! which checks that the mask-based engine agrees with it up to
//! isomorphism (equal value/fact counts, homomorphic equivalence both
//! ways, identical distinguished handling) over hundreds of fixed-seed
//! instances.  The engine's own cost is measured by
//! `cargo bench --bench ablation_hom` (group `core/qbe_products`).
//!
//! It is **not** part of the supported API surface.

use crate::{find_homomorphism, hom_exists};
use cqfit_data::{Example, Value};
use std::collections::HashSet;

/// Computes the core of a pointed instance by greedy retraction: repeatedly
/// remove a non-distinguished value `v` such that the example still maps
/// homomorphically into the sub-instance induced by the remaining values.
///
/// Greedy one-value-at-a-time removal is complete: if the example is not a
/// core, some retraction misses a value `v`, and then the example maps into
/// the sub-instance without `v`.
pub fn core_of(e: &Example) -> Example {
    let mut current = e.clone();
    'outer: loop {
        let distinguished: HashSet<Value> = current.distinguished().iter().copied().collect();
        let candidates: Vec<Value> = current
            .instance()
            .values()
            .filter(|v| current.instance().is_active(*v) && !distinguished.contains(v))
            .collect();
        for v in candidates {
            let keep: HashSet<Value> = current.instance().values().filter(|&w| w != v).collect();
            let (sub, map) = current.instance().induced(&keep);
            let dist: Vec<Value> = current.distinguished().iter().map(|d| map[d]).collect();
            let target = Example::new(sub, dist);
            if hom_exists(&current, &target) {
                current = target;
                continue 'outer;
            }
        }
        // Finally, drop isolated non-distinguished values: the core is a set
        // of facts, and values outside the active domain and the
        // distinguished tuple carry no information.
        let keep: HashSet<Value> = current
            .instance()
            .values()
            .filter(|&v| current.instance().is_active(v) || distinguished.contains(&v))
            .collect();
        if keep.len() < current.instance().num_values() {
            let (sub, map) = current.instance().induced(&keep);
            let dist: Vec<Value> = current.distinguished().iter().map(|d| map[d]).collect();
            current = Example::new(sub, dist);
        }
        return current;
    }
}

/// True if the example is a core: no proper retraction exists (greedy
/// reference implementation).
pub fn is_core(e: &Example) -> bool {
    let distinguished: HashSet<Value> = e.distinguished().iter().copied().collect();
    for v in e.instance().values() {
        if !e.instance().is_active(v) || distinguished.contains(&v) {
            continue;
        }
        let keep: HashSet<Value> = e.instance().values().filter(|&w| w != v).collect();
        let (sub, map) = e.instance().induced(&keep);
        let dist: Vec<Value> = e.distinguished().iter().map(|d| map[d]).collect();
        let target = Example::new(sub, dist);
        if hom_exists(e, &target) {
            return false;
        }
    }
    true
}

/// True if the two examples are homomorphically equivalent (reference
/// rendering; identical to [`crate::hom_equivalent`]).
pub fn hom_equivalent(e1: &Example, e2: &Example) -> bool {
    find_homomorphism(e1, e2).is_some() && find_homomorphism(e2, e1).is_some()
}
