//! Property-style tests for the core data structures and the
//! order-theoretic invariants of Section 2.2.
//!
//! Every test draws its random cases from a [`StdRng`] with a fixed,
//! documented seed, so failures reproduce identically run-to-run (no
//! proptest shrinking, but also no flakiness and no external dependency).

use cqfit_data::{Example, Fact, Instance, Schema, Value};
use cqfit_hom::{core_of, direct_product, disjoint_union, hom_equivalent, hom_exists};
use cqfit_query::{is_c_acyclic_example, Cq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases per property.
const CASES: usize = 24;

/// Draws a small random Boolean example over the digraph schema (directed
/// graphs with up to 4 vertices).
fn digraph_example(rng: &mut StdRng) -> Example {
    let n = rng.gen_range(1usize..=4);
    let num_edges = rng.gen_range(0usize..8);
    let schema = Schema::digraph();
    let rel = schema.rel("R").unwrap();
    let mut inst = Instance::new(schema);
    let vs: Vec<Value> = (0..n).map(|i| inst.add_value(format!("v{i}"))).collect();
    for _ in 0..num_edges {
        let a = rng.gen_range(0usize..n);
        let b = rng.gen_range(0usize..n);
        inst.add_fact(rel, &[vs[a], vs[b]]).unwrap();
    }
    Example::boolean(inst)
}

/// Draws a small random unary example over a binary schema with one unary
/// and one binary relation.
fn unary_example(rng: &mut StdRng) -> Example {
    let n = rng.gen_range(1usize..=4);
    let num_edges = rng.gen_range(1usize..6);
    let num_labels = rng.gen_range(0usize..3);
    let schema = Schema::binary_schema(["A"], ["R"]);
    let r = schema.rel("R").unwrap();
    let a = schema.rel("A").unwrap();
    let mut inst = Instance::new(schema);
    let vs: Vec<Value> = (0..n).map(|i| inst.add_value(format!("v{i}"))).collect();
    for _ in 0..num_edges {
        let x = rng.gen_range(0usize..n);
        let y = rng.gen_range(0usize..n);
        inst.add_fact(r, &[vs[x], vs[y]]).unwrap();
    }
    for _ in 0..num_labels {
        let x = rng.gen_range(0usize..n);
        inst.add_fact(a, &[vs[x]]).unwrap();
    }
    let active = inst.active_domain();
    let root = active[rng.gen_range(0usize..active.len())];
    Example::new(inst, vec![root])
}

/// Proposition 2.7: the direct product is a greatest lower bound.
#[test]
fn product_is_glb() {
    let mut rng = StdRng::seed_from_u64(0xC027);
    for _ in 0..CASES {
        let e1 = digraph_example(&mut rng);
        let e2 = digraph_example(&mut rng);
        let below = digraph_example(&mut rng);
        let p = direct_product(&e1, &e2).unwrap();
        assert!(hom_exists(&p, &e1));
        assert!(hom_exists(&p, &e2));
        if hom_exists(&below, &e1) && hom_exists(&below, &e2) {
            assert!(hom_exists(&below, &p));
        }
    }
}

/// Proposition 2.2: the disjoint union is a least upper bound.
#[test]
fn disjoint_union_is_lub() {
    let mut rng = StdRng::seed_from_u64(0xC022);
    for _ in 0..CASES {
        let e1 = digraph_example(&mut rng);
        let e2 = digraph_example(&mut rng);
        let above = digraph_example(&mut rng);
        let u = disjoint_union(&e1, &e2).unwrap();
        assert!(hom_exists(&e1, &u));
        assert!(hom_exists(&e2, &u));
        if hom_exists(&e1, &above) && hom_exists(&e2, &above) {
            assert!(hom_exists(&u, &above));
        }
    }
}

/// Cores are homomorphically equivalent to the original and idempotent:
/// `core_of(e)` is recognized by `is_core`, so coring twice changes nothing.
#[test]
fn core_properties() {
    let mut rng = StdRng::seed_from_u64(0xC0_4E);
    for _ in 0..CASES {
        let e = digraph_example(&mut rng);
        let c = core_of(&e);
        assert!(hom_equivalent(&e, &c));
        assert!(cqfit_hom::is_core(&c), "core_of must return a core");
        let cc = core_of(&c);
        assert_eq!(c.instance().num_facts(), cc.instance().num_facts());
        assert_eq!(c.instance().num_values(), cc.instance().num_values());
        assert!(c.instance().num_values() <= e.instance().num_values());
    }
}

/// `is_core(core_of(e))` also holds for pointed (unary) examples, where
/// distinguished values must never fold away.
#[test]
fn core_idempotent_on_pointed_examples() {
    let mut rng = StdRng::seed_from_u64(0xC0_4F);
    for _ in 0..CASES {
        let e = unary_example(&mut rng);
        let c = core_of(&e);
        assert!(hom_equivalent(&e, &c));
        assert!(cqfit_hom::is_core(&c));
        assert_eq!(c.arity(), e.arity());
        assert!(
            c.is_data_example(),
            "active distinguished values stay active"
        );
    }
}

/// Coring preserves fitting: whenever the product-of-positives construction
/// fits, the minimized construction yields an equivalent CQ that still fits
/// (and whose canonical example is a core).
#[test]
fn core_preserves_verify_fitting() {
    let mut rng = StdRng::seed_from_u64(0xC0_F1);
    let mut fitted = 0usize;
    for _ in 0..CASES {
        let pos1 = unary_example(&mut rng);
        let pos2 = unary_example(&mut rng);
        let neg = unary_example(&mut rng);
        let examples = cqfit_data::LabeledExamples::new(vec![pos1, pos2], vec![neg]).unwrap();
        let plain = cqfit::cq::construct_fitting(&examples).unwrap();
        let minimized = cqfit::cq::construct_fitting_minimized(&examples).unwrap();
        assert_eq!(plain.is_some(), minimized.is_some());
        let (Some(plain), Some(minimized)) = (plain, minimized) else {
            continue;
        };
        fitted += 1;
        assert!(cqfit::cq::verify_fitting(&minimized, &examples).unwrap());
        assert!(minimized.equivalent_to(&plain).unwrap());
        assert!(cqfit_hom::is_core(&minimized.canonical_example()));
        assert!(minimized.size() <= plain.size());
    }
    assert!(fitted > 0, "the sweep never produced a fitting");
}

/// UCQ minimization cores every disjunct and leaves the surviving disjuncts
/// pairwise incomparable under containment.
#[test]
fn minimized_ucq_disjuncts_pairwise_incomparable() {
    use cqfit_query::Ucq;
    let mut rng = StdRng::seed_from_u64(0xD151);
    let mut pruned = 0usize;
    for _ in 0..CASES {
        let examples: Vec<Example> = (0..3).map(|_| unary_example(&mut rng)).collect();
        let u = Ucq::from_examples(&examples).unwrap();
        let m = u.minimized();
        assert!(m.equivalent_to(&u).unwrap());
        assert!(m.len() <= u.len());
        if m.len() < u.len() {
            pruned += 1;
        }
        for d in m.disjuncts() {
            assert!(cqfit_hom::is_core(&d.canonical_example()));
        }
        for (i, di) in m.disjuncts().iter().enumerate() {
            for (j, dj) in m.disjuncts().iter().enumerate() {
                if i != j {
                    assert!(
                        !di.is_contained_in(dj).unwrap(),
                        "disjuncts {i} and {j} are comparable after minimization"
                    );
                }
            }
        }
    }
    assert!(pruned > 0, "the sweep never pruned a disjunct");
}

/// The structural hash is a set hash: the same facts over the same values
/// hash equal in any insertion order (through `add_fact` and through
/// `Instance::from_facts`), and replacing one fact, changing one argument
/// of one fact, or declaring one more value changes it.
#[test]
fn structural_hash_is_an_order_free_set_hash() {
    let schema = std::sync::Arc::new(Schema::new([("U", 1), ("R", 2), ("T", 3)]).unwrap());
    let rels: Vec<_> = schema.rel_ids().collect();
    let build = |n: usize, facts: &[Fact]| {
        let mut inst = Instance::new(schema.clone());
        inst.add_values("v", n);
        for f in facts {
            inst.add_fact(f.rel, &f.args).unwrap();
        }
        inst
    };
    for seed in 0..500u64 {
        let mut rng = StdRng::seed_from_u64(0x5E7_0000 + seed);
        let n = rng.gen_range(2usize..=8);
        let random_fact = |rng: &mut StdRng| {
            let rel = rels[rng.gen_range(0..rels.len())];
            let args = (0..schema.arity(rel))
                .map(|_| Value(rng.gen_range(0..n as u32)))
                .collect();
            Fact { rel, args }
        };
        let mut facts: Vec<Fact> = Vec::new();
        for _ in 0..rng.gen_range(1usize..=12) {
            let f = random_fact(&mut rng);
            if !facts.contains(&f) {
                facts.push(f);
            }
        }
        let inst = build(n, &facts);
        let hash = inst.canonical_hash();

        let mut shuffled = facts.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        assert_eq!(build(n, &shuffled).canonical_hash(), hash, "seed {seed}");
        let labels = (0..n).map(|i| format!("w{i}")).collect();
        let bulk = Instance::from_facts(schema.clone(), labels, shuffled).unwrap();
        assert_eq!(bulk.canonical_hash(), hash, "seed {seed}: from_facts");

        let at = rng.gen_range(0..facts.len());
        let replacement = loop {
            let f = random_fact(&mut rng);
            if !facts.contains(&f) {
                break f;
            }
        };
        let mut replaced = facts.clone();
        replaced[at] = replacement;
        assert_ne!(
            build(n, &replaced).canonical_hash(),
            hash,
            "seed {seed}: fact"
        );

        let mut moved = facts.clone();
        let pos = rng.gen_range(0..moved[at].args.len());
        let old = moved[at].args[pos].0;
        for delta in 1..n as u32 {
            moved[at].args[pos] = Value((old + delta) % n as u32);
            if !facts.contains(&moved[at]) {
                break;
            }
        }
        if !facts.contains(&moved[at]) {
            assert_ne!(
                build(n, &moved).canonical_hash(),
                hash,
                "seed {seed}: argument"
            );
        }

        let mut wider = inst.clone();
        wider.add_value("extra");
        assert_ne!(wider.canonical_hash(), hash, "seed {seed}: value count");
    }
}

/// Canonical CQ ↔ canonical example round trips up to equivalence, and
/// containment is transitive and reflexive.
#[test]
fn canonical_roundtrip_and_containment() {
    let mut rng = StdRng::seed_from_u64(0x2_1);
    for _ in 0..CASES {
        let e = unary_example(&mut rng);
        let f = unary_example(&mut rng);
        let g = unary_example(&mut rng);
        let qe = Cq::from_example(&e).unwrap();
        let back = qe.canonical_example();
        assert!(hom_equivalent(&e, &back));
        let qf = Cq::from_example(&f).unwrap();
        let qg = Cq::from_example(&g).unwrap();
        assert!(qe.is_contained_in(&qe).unwrap());
        if qe.is_contained_in(&qf).unwrap() && qf.is_contained_in(&qg).unwrap() {
            assert!(qe.is_contained_in(&qg).unwrap());
        }
    }
}

/// Homomorphism existence implies simulation existence (§5).
#[test]
fn hom_implies_simulation() {
    let mut rng = StdRng::seed_from_u64(0x5_1);
    for _ in 0..CASES {
        let e = unary_example(&mut rng);
        let f = unary_example(&mut rng);
        if hom_exists(&e, &f) {
            assert!(cqfit_hom::simulates(&e, &f).unwrap());
        }
    }
}

/// The frontier construction (Definitions 3.21/3.22): members are
/// strictly below the query, and random examples strictly below the query
/// map into some member.
#[test]
fn frontier_soundness_and_coverage() {
    let mut rng = StdRng::seed_from_u64(0x3_21);
    for _ in 0..CASES {
        let e = unary_example(&mut rng);
        let candidate = unary_example(&mut rng);
        let q = Cq::from_example(&core_of(&e)).unwrap();
        let canon = q.canonical_example();
        if !is_c_acyclic_example(&canon) {
            continue;
        }
        let members = cqfit_duality::frontier_examples(&q).unwrap();
        for m in &members {
            assert!(hom_exists(m, &canon));
            assert!(!hom_exists(&canon, m));
        }
        let strictly_below = hom_exists(&candidate, &canon) && !hom_exists(&canon, &candidate);
        if strictly_below {
            assert!(
                members.iter().any(|m| hom_exists(&candidate, m)),
                "frontier must cover {candidate}"
            );
        }
    }
}

/// Fitting is monotone under generalization towards the most-specific
/// fitting: the most-specific fitting CQ is contained in every fitting CQ
/// (Proposition 3.5).
#[test]
fn most_specific_is_minimum() {
    let mut rng = StdRng::seed_from_u64(0x3_5);
    for _ in 0..CASES {
        let pos1 = unary_example(&mut rng);
        let pos2 = unary_example(&mut rng);
        let neg = unary_example(&mut rng);
        let other = unary_example(&mut rng);
        let examples = cqfit_data::LabeledExamples::new(vec![pos1, pos2], vec![neg]).unwrap();
        if let Some(ms) = cqfit::cq::most_specific_fitting(&examples).unwrap() {
            let q = Cq::from_example(&other).unwrap();
            if cqfit::cq::verify_fitting(&q, &examples).unwrap() {
                assert!(ms.is_contained_in(&q).unwrap());
            }
        }
    }
}

/// Seeded collections in [`cq_fitting_agrees_with_the_product_definition`]:
/// 160 are refuted by a positive→negative pair, 31 have a fitting CQ, and
/// one is left for the product search to refute.
const CQ_SEEDS: u64 = 192;

/// Theorem 3.3 is the oracle for every CQ existence and construction entry
/// point, batch and incremental: a CQ fits iff `Π E⁺` is a data example that
/// maps into no negative.  The oracle asks exactly that, so it cannot share a
/// wrong positive→negative refutation with the code it checks; the
/// projection argument behind that refutation is asserted on its own.
#[test]
fn cq_fitting_agrees_with_the_product_definition() {
    use cqfit::incremental::IncrementalFitting;
    use cqfit_gen::{random_labeled_examples, RandomConfig};
    use cqfit_hom::{product_of, HomCache};
    let schema = Schema::digraph();
    let cache = HomCache::new();
    let (mut refuted, mut fitting, mut product_refuted) = (0usize, 0usize, 0usize);
    for seed in 0..CQ_SEEDS {
        let arity = (seed % 2) as usize;
        let cfg = RandomConfig {
            num_values: 5,
            density: 0.25,
            arity,
            num_positive: 1 + (seed / 2 % 3) as usize,
            num_negative: 1 + (seed / 6 % 6) as usize,
            seed,
        };
        let examples = random_labeled_examples(&schema, &cfg);
        let ctx = format!("seed {seed}");
        let product = product_of(&schema, arity, examples.positives()).unwrap();
        let fits = product.is_data_example()
            && !examples.negatives().iter().any(|n| hom_exists(&product, n));
        let mut pair_refuted = false;
        for p in examples.positives() {
            for n in examples.negatives() {
                if hom_exists(p, n) {
                    pair_refuted = true;
                    assert!(hom_exists(&product, n), "{ctx}: Π E⁺ → e⁺ → e⁻");
                }
            }
        }
        refuted += usize::from(pair_refuted);
        product_refuted += usize::from(!pair_refuted && !fits);
        fitting += usize::from(fits);
        assert_eq!(cqfit::cq::fitting_exists(&examples).unwrap(), fits, "{ctx}");
        let plain = cqfit::cq::construct_fitting(&examples).unwrap();
        assert_eq!(plain.is_some(), fits, "{ctx}: construct_fitting");
        let minimized = cqfit::cq::construct_fitting_minimized(&examples).unwrap();
        assert_eq!(minimized.is_some(), fits, "{ctx}: minimized");
        for cache in [None, Some(&cache)] {
            let mut inc = IncrementalFitting::new(schema.clone(), arity);
            for e in examples.positives() {
                inc.add_positive(e.clone()).unwrap();
            }
            for e in examples.negatives() {
                inc.add_negative(e.clone()).unwrap();
            }
            let ctx = format!("{ctx}, incremental, cached: {}", cache.is_some());
            assert_eq!(inc.cq_fitting_exists(cache).unwrap(), fits, "{ctx}");
            let plain = inc.cq_construct_fitting(cache).unwrap();
            assert_eq!(plain.is_some(), fits, "{ctx}: construct");
            let minimized = inc.cq_construct_fitting_minimized(cache).unwrap();
            assert_eq!(minimized.is_some(), fits, "{ctx}: minimized");
        }
    }
    assert!(refuted > 0, "no collection had a positive→negative pair");
    assert!(fitting > 0, "no collection had a fitting CQ");
    assert!(
        product_refuted > 0,
        "no collection was left for the product search to refute"
    );
}

/// The tree CQ reduction produces equivalent, no-larger queries (checked on a
/// deterministic sample of random tree CQs).
#[test]
fn tree_reduce_preserves_equivalence() {
    use rand::SeedableRng;
    let schema = Schema::binary_schema(["A", "B"], ["R", "S"]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for _ in 0..30 {
        let q = cqfit_gen::random_tree_cq(&schema, 3, 2, &mut rng);
        let r = q.reduce();
        assert!(r.equivalent_to(&q).unwrap());
        assert!(r.size() <= q.size());
    }
}

/// Tree CQ containment (simulation-based) agrees with CQ containment
/// (homomorphism-based) on random tree CQs.
#[test]
fn tree_containment_agrees_with_cq_containment() {
    use rand::SeedableRng;
    let schema = Schema::binary_schema(["A"], ["R", "S"]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(123);
    for _ in 0..30 {
        let q1 = cqfit_gen::random_tree_cq(&schema, 3, 2, &mut rng);
        let q2 = cqfit_gen::random_tree_cq(&schema, 3, 2, &mut rng);
        assert_eq!(
            q1.is_contained_in(&q2).unwrap(),
            q1.as_cq().is_contained_in(q2.as_cq()).unwrap()
        );
    }
}

/// Arc consistency is sound: whenever it refutes, no homomorphism exists.
#[test]
fn arc_consistency_soundness() {
    use rand::SeedableRng;
    let schema = Schema::binary_schema(["A"], ["R"]);
    let cfg = cqfit_gen::RandomConfig {
        num_values: 4,
        density: 0.25,
        arity: 1,
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for _ in 0..40 {
        let e1 = cqfit_gen::random_example(&schema, &cfg, &mut rng);
        let e2 = cqfit_gen::random_example(&schema, &cfg, &mut rng);
        if !cqfit_hom::arc_consistent(&e1, &e2) {
            assert!(!hom_exists(&e1, &e2));
        }
    }
}

/// Arc consistency is complete on c-acyclic sources.
#[test]
fn arc_consistency_complete_on_c_acyclic() {
    use rand::SeedableRng;
    let schema = Schema::binary_schema(["A"], ["R"]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let cfg = cqfit_gen::RandomConfig {
        num_values: 4,
        density: 0.3,
        arity: 1,
        ..Default::default()
    };
    for _ in 0..40 {
        let t = cqfit_gen::random_tree_cq(&schema, 3, 2, &mut rng);
        let src = t.canonical_example();
        let dst = cqfit_gen::random_example(&schema, &cfg, &mut rng);
        assert_eq!(
            cqfit_hom::arc_consistent(&src, &dst),
            hom_exists(&src, &dst),
            "arc consistency decides homomorphism existence for tree-shaped sources"
        );
    }
}
