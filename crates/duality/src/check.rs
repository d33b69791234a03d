//! Three-valued decision procedures for homomorphism dualities, relativized
//! homomorphism dualities (Definition 3.28) and simulation dualities
//! (Definition 5.26).
//!
//! The paper shows (Proposition 4.7 / Theorem 4.8) that testing whether a
//! pair `(F, D)` is a homomorphism duality is NP-hard and in ExpTime, with
//! the exact complexity open; several verification problems for UCQs are
//! polynomially equivalent to it.  The checks here are therefore
//! *three-valued*:
//!
//! * `No` answers always come with a certified counterexample (an example `e`
//!   violating the duality equation) or a certified violation of a necessary
//!   structural condition (a non-c-acyclic left-hand side, or `f → d`),
//! * `Yes` answers are produced only on fragments where the enumeration is
//!   provably exhaustive (schemas with only unary relations, up to a size
//!   cap),
//! * `Unknown` is returned when the configured search budget is exhausted
//!   without a verdict.

use crate::frontier_examples;
use cqfit_data::{Example, Instance, Schema, Value};
use cqfit_hom::{core_of, direct_product, hom_exists, simulates};
use cqfit_query::{is_c_acyclic_example, Cq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The verdict of a bounded duality check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certainty {
    /// The pair is certainly a duality (exhaustive verification).
    Yes,
    /// The pair is certainly not a duality (a counterexample or a violated
    /// necessary condition was found).
    No,
    /// The search budget was exhausted without a verdict.
    Unknown,
}

/// Outcome of a duality check: the verdict together with the counterexample
/// that certifies a `No` answer, when one was constructed.
#[derive(Debug, Clone)]
pub struct DualityOutcome {
    /// The verdict.
    pub certainty: Certainty,
    /// A data example violating the duality equation, when available.
    pub counterexample: Option<Example>,
    /// A human-readable reason for the verdict.
    pub reason: String,
}

impl DualityOutcome {
    fn yes(reason: impl Into<String>) -> Self {
        DualityOutcome {
            certainty: Certainty::Yes,
            counterexample: None,
            reason: reason.into(),
        }
    }
    fn no(reason: impl Into<String>, counterexample: Option<Example>) -> Self {
        DualityOutcome {
            certainty: Certainty::No,
            counterexample,
            reason: reason.into(),
        }
    }
    fn unknown(reason: impl Into<String>) -> Self {
        DualityOutcome {
            certainty: Certainty::Unknown,
            counterexample: None,
            reason: reason.into(),
        }
    }

    /// True if the verdict is [`Certainty::Yes`].
    pub fn is_yes(&self) -> bool {
        self.certainty == Certainty::Yes
    }

    /// True if the verdict is [`Certainty::No`].
    pub fn is_no(&self) -> bool {
        self.certainty == Certainty::No
    }
}

/// Budget and strategy configuration for the duality checks.
#[derive(Debug, Clone)]
pub struct DualityConfig {
    /// Number of random candidate counterexamples to try.
    pub random_samples: usize,
    /// Maximum number of elements of random candidate counterexamples.
    pub max_random_elements: usize,
    /// Maximum cycle/path length of structured candidate counterexamples.
    pub max_structured_length: usize,
    /// Unraveling depth for simulation-duality candidates.
    pub max_unraveling_depth: usize,
    /// Run the exhaustive (exact) procedure on unary-only schemas with at
    /// most this many unary relations.
    pub exhaustive_unary_relations: usize,
    /// Random seed (the checks are deterministic for a fixed seed).
    pub seed: u64,
}

impl Default for DualityConfig {
    fn default() -> Self {
        DualityConfig {
            random_samples: 300,
            max_random_elements: 6,
            max_structured_length: 9,
            max_unraveling_depth: 6,
            exhaustive_unary_relations: 3,
            seed: 0xC0FFEE,
        }
    }
}

/// Checks whether `(F, D)` is a homomorphism duality (§2.2): every data
/// example is either above an element of `F` or below an element of `D`, and
/// never both.
pub fn check_hom_duality(f: &[Example], d: &[Example], cfg: &DualityConfig) -> DualityOutcome {
    check_duality_impl(f, d, None, cfg, Mode::Homomorphism)
}

/// Checks whether `(F, D)` is a homomorphism duality *relative to* the
/// pointed instance `p` (Definition 3.28): the duality equation is required
/// only for data examples `e` with `e → p`.
pub fn check_relativized_duality(
    f: &[Example],
    d: &[Example],
    p: &Example,
    cfg: &DualityConfig,
) -> DualityOutcome {
    check_duality_impl(f, d, Some(p), cfg, Mode::Homomorphism)
}

/// Checks whether `(F, D)` is a simulation duality relative to `p`
/// (Definition 5.26), with `⪯` in place of `→`.  All inputs must live over a
/// binary schema.
pub fn check_simulation_duality(
    f: &[Example],
    d: &[Example],
    p: &Example,
    cfg: &DualityConfig,
) -> DualityOutcome {
    check_duality_impl(f, d, Some(p), cfg, Mode::Simulation)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Homomorphism,
    Simulation,
}

/// The pre-order test used by the current mode.
fn below(mode: Mode, src: &Example, dst: &Example) -> bool {
    match mode {
        Mode::Homomorphism => hom_exists(src, dst),
        Mode::Simulation => simulates(src, dst).expect("binary schema required"),
    }
}

fn check_duality_impl(
    f: &[Example],
    d: &[Example],
    p: Option<&Example>,
    cfg: &DualityConfig,
    mode: Mode,
) -> DualityOutcome {
    let schema = f
        .first()
        .or_else(|| d.first())
        .or(p)
        .map(|e| e.instance().schema().clone());
    let Some(schema) = schema else {
        return DualityOutcome::yes("empty inputs form a trivial duality");
    };
    let arity = f
        .first()
        .or_else(|| d.first())
        .or(p)
        .map(Example::arity)
        .unwrap_or(0);

    // Necessary condition 1 (homomorphism mode): after reduction to an
    // antichain of cores, every left-hand side must be c-acyclic
    // (Proposition 4.7).  In simulation mode the analogous requirement is
    // that the left-hand sides are tree-shaped, which we do not enforce here.
    let f_reduced: Vec<Example> = antichain_min(f, mode);
    if mode == Mode::Homomorphism {
        for e in &f_reduced {
            let core = core_of(e);
            if !is_c_acyclic_example(&core) {
                return DualityOutcome::no(
                    "a left-hand side has a non-c-acyclic core, so it cannot be the left-hand side of a finite duality",
                    Some(e.clone()),
                );
            }
        }
    }

    // Necessary condition 2: no f may lie below a d (restricted, in the
    // relativized case, to f below p).
    let below_some_d = f
        .iter()
        .find(|&fe| p.is_none_or(|p| below(mode, fe, p)) && d.iter().any(|de| below(mode, fe, de)));
    if let Some(fe) = below_some_d {
        return DualityOutcome::no(
            "a left-hand side example maps below a right-hand side example",
            Some(fe.clone()),
        );
    }

    // Exhaustive procedure on small unary-only schemas: exact Yes/No.
    if schema.rel_ids().all(|r| schema.arity(r) == 1)
        && schema.len() <= cfg.exhaustive_unary_relations
        && arity <= 2
    {
        return exhaustive_unary(&schema, arity, f, d, p, mode);
    }

    // Counterexample search.
    let mut candidates: Vec<Example> = Vec::new();
    // Frontier members of left-hand sides (homomorphism mode only): these are
    // exactly the maximal examples strictly below an f, so if the duality
    // fails "just below" some f, a frontier member witnesses it.
    if mode == Mode::Homomorphism {
        for fe in f {
            if let Ok(q) = Cq::from_example(fe) {
                if let Ok(members) = frontier_examples(&q) {
                    for m in members {
                        if m.is_data_example() {
                            candidates.push(m);
                        }
                    }
                }
            }
        }
    }
    // Products of right-hand sides (and of the relativizer).
    for (i, d1) in d.iter().enumerate() {
        for d2 in &d[i + 1..] {
            if let Ok(prod) = direct_product(d1, d2) {
                candidates.push(prod);
            }
        }
        if let Some(p) = p {
            if let Ok(prod) = direct_product(d1, p) {
                candidates.push(prod);
            }
        }
    }
    if let Some(p) = p {
        candidates.push(p.clone());
    }
    // Structured candidates: directed cycles and paths over each binary
    // relation (they witness classic duality failures such as
    // non-2-colorability).
    for rel in schema.rel_ids().filter(|r| schema.arity(*r) == 2) {
        for len in 2..=cfg.max_structured_length {
            candidates.push(cycle_example(&schema, rel, len, arity));
            candidates.push(path_example(&schema, rel, len, arity));
        }
    }
    // Unravelings of the relativizer (simulation mode): these are the
    // canonical shapes of critical tree obstructions (Proposition 5.29).
    if mode == Mode::Simulation {
        if let Some(p) = p {
            for depth in 0..=cfg.max_unraveling_depth {
                if let Some(u) = unravel(p, depth) {
                    candidates.push(u);
                }
            }
        }
    }
    // Random candidates.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.random_samples {
        if let Some(e) = random_example(&schema, arity, cfg.max_random_elements, &mut rng) {
            candidates.push(e);
        }
    }

    // Evaluate the duality equation on every candidate, in order, so the
    // reported counterexample is the first one found.
    let counterexample = candidates.iter().find(|&e| {
        e.is_data_example()
            && p.is_none_or(|p| below(mode, e, p))
            && !f.iter().any(|fe| below(mode, fe, e))
            && !d.iter().any(|de| below(mode, e, de))
    });
    if let Some(e) = counterexample {
        return DualityOutcome::no(
            "found a data example that is neither above the left-hand side nor below the right-hand side",
            Some(e.clone()),
        );
    }

    DualityOutcome::unknown(
        "no counterexample found within the search budget; the pair may or may not be a duality",
    )
}

/// Keeps only the homomorphism-minimal members of `f` (enough to determine
/// the upward closure).
fn antichain_min(f: &[Example], mode: Mode) -> Vec<Example> {
    let mut keep = vec![true; f.len()];
    for i in 0..f.len() {
        for j in 0..f.len() {
            if i != j && keep[i] && keep[j] && below(mode, &f[j], &f[i]) {
                // f[j] ≤ f[i]; drop f[i] unless they are equivalent and j > i.
                if !below(mode, &f[i], &f[j]) || j < i {
                    keep[i] = false;
                }
            }
        }
    }
    f.iter()
        .zip(keep)
        .filter(|&(_e, k)| k)
        .map(|(e, _k)| e.clone())
        .collect()
}

/// Exhaustive duality check over a unary-only schema: up to homomorphic
/// equivalence, a data example is determined by the set of "types" (sets of
/// unary relations) realised by its elements plus the types of its
/// distinguished elements, so all of them can be enumerated.
fn exhaustive_unary(
    schema: &Arc<Schema>,
    arity: usize,
    f: &[Example],
    d: &[Example],
    p: Option<&Example>,
    mode: Mode,
) -> DualityOutcome {
    let rels: Vec<_> = schema.rel_ids().collect();
    let n = rels.len();
    let types: Vec<u32> = (1u32..(1 << n)).collect(); // non-empty label sets
    let type_sets: Vec<Vec<u32>> = subsets_nonempty(&types);
    for set in &type_sets {
        // Enumerate distinguished tuples over the chosen types.
        let tuples = tuples_over(set, arity);
        for dist_types in tuples {
            let e = build_unary_example(schema, &rels, set, &dist_types);
            if let Some(p) = p {
                if !below(mode, &e, p) {
                    continue;
                }
            }
            let above_f = f.iter().any(|fe| below(mode, fe, &e));
            let below_d = d.iter().any(|de| below(mode, &e, de));
            if above_f == below_d {
                return DualityOutcome::no(
                    "exhaustive unary enumeration found a violation of the duality equation",
                    Some(e),
                );
            }
        }
    }
    DualityOutcome::yes("exhaustive verification over the unary-only schema")
}

fn subsets_nonempty(items: &[u32]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for mask in 1u64..(1 << items.len()) {
        let mut s = Vec::new();
        for (i, &item) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                s.push(item);
            }
        }
        out.push(s);
    }
    out
}

fn tuples_over(set: &[u32], arity: usize) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::new();
        for t in &out {
            for &s in set {
                let mut t2 = t.clone();
                t2.push(s);
                next.push(t2);
            }
        }
        out = next;
    }
    out
}

fn build_unary_example(
    schema: &Arc<Schema>,
    rels: &[cqfit_data::RelId],
    element_types: &[u32],
    dist_types: &[u32],
) -> Example {
    let mut inst = Instance::new(schema.clone());
    let mut value_of_type = std::collections::HashMap::new();
    for (i, &t) in element_types.iter().enumerate() {
        let v = inst.add_value(format!("t{i}"));
        for (ri, &rel) in rels.iter().enumerate() {
            if t & (1 << ri) != 0 {
                inst.add_fact(rel, &[v]).expect("unary fact");
            }
        }
        value_of_type.insert(t, v);
    }
    let dist = dist_types.iter().map(|t| value_of_type[t]).collect();
    Example::new(inst, dist)
}

/// A directed cycle of the given length over one binary relation, with the
/// distinguished tuple repeating the first vertex.
fn cycle_example(
    schema: &Arc<Schema>,
    rel: cqfit_data::RelId,
    len: usize,
    arity: usize,
) -> Example {
    let mut inst = Instance::new(schema.clone());
    let vs: Vec<Value> = (0..len).map(|i| inst.add_value(format!("c{i}"))).collect();
    for i in 0..len {
        inst.add_fact(rel, &[vs[i], vs[(i + 1) % len]])
            .expect("cycle fact");
    }
    let dist = (0..arity).map(|i| vs[i % len]).collect();
    Example::new(inst, dist)
}

/// A directed path with `len` edges over one binary relation.
fn path_example(schema: &Arc<Schema>, rel: cqfit_data::RelId, len: usize, arity: usize) -> Example {
    let mut inst = Instance::new(schema.clone());
    let vs: Vec<Value> = (0..=len).map(|i| inst.add_value(format!("p{i}"))).collect();
    for i in 0..len {
        inst.add_fact(rel, &[vs[i], vs[i + 1]]).expect("path fact");
    }
    let dist = (0..arity).map(|i| vs[i % (len + 1)]).collect();
    Example::new(inst, dist)
}

/// The `depth`-unraveling of a pointed instance over a binary schema, as an
/// example rooted at the tuple of distinguished elements (only meaningful for
/// unary pointed instances; returns `None` otherwise or on non-binary
/// schemas).
fn unravel(p: &Example, depth: usize) -> Option<Example> {
    if p.arity() != 1 || !p.instance().schema().is_binary() {
        return None;
    }
    let inst = p.instance();
    let schema = inst.schema().clone();
    let root_val = p.distinguished()[0];
    let mut out = Instance::new(schema.clone());
    let root = out.add_value(format!("[{}]", inst.label(root_val)));
    // BFS over paths.
    let mut frontier = vec![(root, root_val)];
    for _ in 0..depth {
        let mut next = Vec::new();
        for &(node, val) in &frontier {
            for rel in schema.rel_ids() {
                match schema.arity(rel) {
                    1 => {
                        if inst.contains_fact(rel, &[val]) {
                            out.add_fact(rel, &[node]).ok();
                        }
                    }
                    2 => {
                        for &fid in inst.facts_with_rel(rel) {
                            let fact = inst.fact(fid);
                            if fact.args[0] == val {
                                let child = out.add_value(format!(
                                    "{}.{}",
                                    out.label(node).to_owned(),
                                    inst.label(fact.args[1])
                                ));
                                out.add_fact(rel, &[node, child]).ok();
                                next.push((child, fact.args[1]));
                            }
                            if fact.args[1] == val {
                                let child = out.add_value(format!(
                                    "{}.{}⁻",
                                    out.label(node).to_owned(),
                                    inst.label(fact.args[0])
                                ));
                                out.add_fact(rel, &[child, node]).ok();
                                next.push((child, fact.args[0]));
                            }
                        }
                    }
                    _ => return None,
                }
            }
        }
        frontier = next;
    }
    // Unary facts of the last layer.
    for &(node, val) in &frontier {
        for rel in schema.rel_ids().filter(|r| schema.arity(*r) == 1) {
            if inst.contains_fact(rel, &[val]) {
                out.add_fact(rel, &[node]).ok();
            }
        }
    }
    Some(Example::new(out, vec![root]))
}

/// A random data example over the schema with at most `max_elements`
/// elements, or `None` if the sampled instance has no facts.
fn random_example(
    schema: &Arc<Schema>,
    arity: usize,
    max_elements: usize,
    rng: &mut StdRng,
) -> Option<Example> {
    let n = rng.gen_range(1..=max_elements);
    let density: f64 = rng.gen_range(0.05..0.6);
    let mut inst = Instance::new(schema.clone());
    let vs: Vec<Value> = (0..n).map(|i| inst.add_value(format!("r{i}"))).collect();
    for rel in schema.rel_ids() {
        let k = schema.arity(rel);
        let mut tuple = vec![0usize; k];
        loop {
            if rng.gen_bool(density) {
                let args: Vec<Value> = tuple.iter().map(|&i| vs[i]).collect();
                inst.add_fact(rel, &args).ok();
            }
            // Advance the mixed-radix counter over [n]^k.
            let mut pos = 0;
            loop {
                if pos == k {
                    break;
                }
                tuple[pos] += 1;
                if tuple[pos] < n {
                    break;
                }
                tuple[pos] = 0;
                pos += 1;
            }
            if pos == k {
                break;
            }
        }
    }
    if inst.is_empty() {
        return None;
    }
    let active: Vec<Value> = inst.active_domain();
    let dist: Vec<Value> = (0..arity)
        .map(|_| active[rng.gen_range(0..active.len())])
        .collect();
    Some(Example::new(inst, dist))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::parse_example;
    use cqfit_data::Schema;

    /// Example 2.15 of the paper: ({P∧Q}, {P∧R, Q∧R}) over unary P, Q, R is a
    /// homomorphism duality — wait, the paper's duality is
    /// ({e1}, {e2, e3}) with e1 = {P(a), Q(b)}, e2 = {P(a), R(a)},
    /// e3 = {Q(a), R(a)}.
    #[test]
    fn paper_example_2_15_is_a_duality() {
        let schema = Schema::binary_schema(["P", "Q", "R"], []);
        let e1 = parse_example(&schema, "P(a)\nQ(b)").unwrap();
        let e2 = parse_example(&schema, "P(a)\nR(a)").unwrap();
        let e3 = parse_example(&schema, "Q(a)\nR(a)").unwrap();
        let out = check_hom_duality(&[e1], &[e2, e3], &DualityConfig::default());
        assert_eq!(out.certainty, Certainty::Yes, "{}", out.reason);
    }

    #[test]
    fn dropping_one_right_hand_side_breaks_the_duality() {
        let schema = Schema::binary_schema(["P", "Q", "R"], []);
        let e1 = parse_example(&schema, "P(a)\nQ(b)").unwrap();
        let e2 = parse_example(&schema, "P(a)\nR(a)").unwrap();
        let out = check_hom_duality(&[e1], &[e2], &DualityConfig::default());
        assert_eq!(out.certainty, Certainty::No);
        assert!(out.counterexample.is_some());
    }

    /// Example 2.14 (Gallai–Hasse–Roy–Vitaver): ({P_n}, {T_{n-1}}) is a
    /// duality.  The bounded check cannot *confirm* it on a binary schema,
    /// but it must not refute it; and it must refute wrong variants.
    #[test]
    fn ghrv_duality_not_refuted_and_wrong_variant_refuted() {
        let schema = Schema::digraph();
        let path4 = {
            // Directed path with 4 edges.
            parse_example(&schema, "R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)").unwrap()
        };
        let order3 = {
            // Transitive tournament on 4 vertices = linear order of length 3.
            parse_example(&schema, "R(a,b)\nR(a,c)\nR(a,d)\nR(b,c)\nR(b,d)\nR(c,d)").unwrap()
        };
        let ok = check_hom_duality(
            std::slice::from_ref(&path4),
            std::slice::from_ref(&order3),
            &DualityConfig::default(),
        );
        assert_ne!(ok.certainty, Certainty::No, "{}", ok.reason);

        // ({P_4}, {T_2}) is not a duality: T_3 itself is a counterexample.
        let order2 = parse_example(&schema, "R(a,b)\nR(a,c)\nR(b,c)").unwrap();
        let bad = check_hom_duality(&[path4], &[order2], &DualityConfig::default());
        assert_eq!(bad.certainty, Certainty::No);
    }

    #[test]
    fn non_c_acyclic_left_hand_side_is_refuted() {
        let schema = Schema::digraph();
        let loop_ex = parse_example(&schema, "R(a,a)").unwrap();
        let edge = parse_example(&schema, "R(a,b)").unwrap();
        let out = check_hom_duality(&[loop_ex], &[edge], &DualityConfig::default());
        assert_eq!(out.certainty, Certainty::No);
    }

    #[test]
    fn left_below_right_is_refuted() {
        let schema = Schema::binary_schema(["P", "Q", "R"], []);
        let f = parse_example(&schema, "P(a)").unwrap();
        let d = parse_example(&schema, "P(a)\nQ(a)").unwrap();
        let out = check_hom_duality(&[f], &[d], &DualityConfig::default());
        assert_eq!(out.certainty, Certainty::No);
    }

    /// Example 3.10(3): over the schema {R}, (∅, {K2}) is not a duality
    /// because odd cycles are neither above anything in ∅ (vacuously they
    /// are: no, the empty F means *nothing* is above F, so every example must
    /// be below K2) nor 2-colorable.
    #[test]
    fn empty_left_with_k2_right_is_refuted() {
        let schema = Schema::digraph();
        let k2 = parse_example(&schema, "R(a,b)\nR(b,a)").unwrap();
        let out = check_hom_duality(&[], &[k2], &DualityConfig::default());
        assert_eq!(out.certainty, Certainty::No);
        let cx = out.counterexample.unwrap();
        assert!(cx.size() >= 3, "an odd cycle witnesses the failure");
    }

    #[test]
    fn relativized_duality_restricts_the_domain() {
        // Over the digraph schema, relativize to p = a single directed edge.
        // Then ({edge}, {}) is a duality relative to p: every e → p either
        // has an edge (and then edge → e) or is empty… the empty example is
        // below nothing in D and above nothing in F, so it is a
        // counterexample unless it admits a homomorphism from the edge — it
        // does not.  Hence the pair is *not* a duality relative to p, and the
        // check must find the empty-ish counterexample or stay Unknown; it
        // must never say Yes.
        let schema = Schema::digraph();
        let edge = parse_example(&schema, "R(a,b)").unwrap();
        let p = edge.clone();
        let out = check_relativized_duality(
            std::slice::from_ref(&edge),
            &[],
            &p,
            &DualityConfig::default(),
        );
        assert_ne!(out.certainty, Certainty::Yes);

        // ({}, {edge}) relative to p = edge *is* a duality (everything below
        // the edge is below the edge); the check must not refute it.
        let out = check_relativized_duality(
            &[],
            std::slice::from_ref(&edge),
            &p,
            &DualityConfig::default(),
        );
        assert_ne!(out.certainty, Certainty::No, "{}", out.reason);
    }

    #[test]
    fn simulation_duality_smoke() {
        let schema = Schema::binary_schema(["A"], ["R"]);
        // p: a → a loop with A; F = {R(x,y),A(y) as a tree example};
        // D = {single A-labelled point}.  The tree R(x,y),A(y) simulates into
        // every e ⪯ p that has an outgoing R-edge to an A-element; examples
        // below p without such an edge are below the single point iff they
        // are a lone A-point… the single point with A but also an R-loop is
        // below p, not above F?  It is above F (it simulates F), fine.  We
        // only check that the procedure runs and does not crash, and refutes
        // an obviously wrong pair.
        let p = parse_example(&schema, "R(a,a)\nA(a)\n* a").unwrap();
        let f = parse_example(&schema, "R(x,y)\nA(y)\n* x").unwrap();
        let wrong_d = parse_example(&schema, "R(b,b)\nA(b)\n* b").unwrap();
        // F below D relative to p → refuted.
        let out = check_simulation_duality(&[f], &[wrong_d], &p, &DualityConfig::default());
        assert_eq!(out.certainty, Certainty::No);
    }
}
