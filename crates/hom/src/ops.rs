//! Lattice operations in the homomorphism pre-order: direct products
//! (greatest lower bounds, Proposition 2.7) and disjoint unions (least upper
//! bounds, Proposition 2.2).

use crate::{HomError, Result};
use cqfit_data::{Example, Fact, Instance, RelId, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The "top" example of a given schema and arity: a single value carrying
/// every possible fact, with the distinguished tuple repeating that value.
///
/// By the paper's convention (§2.2) this is the direct product of the empty
/// set of pointed instances; every example of the same schema and arity maps
/// homomorphically into it.
pub fn top_example(schema: &Arc<Schema>, arity: usize) -> Example {
    let v = Value(0);
    let facts = schema
        .rel_ids()
        .map(|rel| Fact {
            rel,
            args: vec![v; schema.arity(rel)],
        })
        .collect();
    let inst =
        Instance::from_facts(schema.clone(), vec!["⊤".to_string()], facts).expect("valid facts");
    Example::new(inst, vec![v; arity])
}

/// The direct product of two pointed instances (§2.2).
///
/// The result's values are the pairs of values that occur in a common fact,
/// plus the pairs of corresponding distinguished values; its facts are
/// `R((c1,d1),…,(cn,dn))` whenever `R(c̄) ∈ I` and `R(d̄) ∈ J`; its
/// distinguished tuple pairs the two distinguished tuples.  The result is a
/// pointed instance but *not necessarily* a data example (Example 2.6).
///
/// The product is built in bulk: the operands' fact tables are joined
/// relation by relation (each relation's facts in table order, `I`'s
/// outer), a pair becomes a value — labeled `(c|d)` — at its first
/// occurrence in that join, and the fact list goes to
/// [`Instance::from_facts`] in one piece.  Product facts are distinct by
/// construction, so no fact is probed against the ones before it, and
/// neither operand's nor the result's fact index is built.
///
/// # Errors
/// Fails if the inputs have different schemas or arities.
pub fn direct_product(e1: &Example, e2: &Example) -> Result<Example> {
    let (i1, i2) = (e1.instance(), e2.instance());
    if i1.schema().as_ref() != i2.schema().as_ref() {
        return Err(HomError::SchemaMismatch);
    }
    if e1.arity() != e2.arity() {
        return Err(HomError::ArityMismatch {
            left: e1.arity(),
            right: e2.arity(),
        });
    }
    let schema = i1.schema().clone();
    let (rels1, rels2) = (ByRelation::of(i1), ByRelation::of(i2));
    let size = schema
        .rel_ids()
        .map(|rel| rels1.facts(rel).len() * rels2.facts(rel).len())
        .sum();
    let mut facts = Vec::with_capacity(size);
    let mut labels = Vec::new();
    // The fact join below resolves every argument pair through the pair→
    // value map, so it wants an O(1) dense array — but a dense matrix is
    // n1·n2 entries, which for two huge operands would dwarf the actual
    // product.  Use the dense matrix up to a fixed footprint (16 MiB) and
    // fall back to a hash map beyond it.
    let mut pair_value = PairMap::new(i1.num_values(), i2.num_values());
    let mut value_of = |labels: &mut Vec<String>, a: Value, b: Value| -> Value {
        pair_value.get_or_insert(a, b, || {
            let (l1, l2) = (i1.label(a), i2.label(b));
            let mut label = String::with_capacity(l1.len() + l2.len() + 3);
            label.push('(');
            label.push_str(l1);
            label.push('|');
            label.push_str(l2);
            label.push(')');
            labels.push(label);
            Value(labels.len() as u32 - 1)
        })
    };
    for rel in schema.rel_ids() {
        for &f1 in rels1.facts(rel) {
            let a1 = &i1.facts()[f1 as usize].args;
            for &f2 in rels2.facts(rel) {
                let a2 = &i2.facts()[f2 as usize].args;
                let args = a1
                    .iter()
                    .zip(a2)
                    .map(|(&a, &b)| value_of(&mut labels, a, b))
                    .collect();
                facts.push(Fact { rel, args });
            }
        }
    }
    let dist: Vec<Value> = e1
        .distinguished()
        .iter()
        .zip(e2.distinguished().iter())
        .map(|(&a, &b)| value_of(&mut labels, a, b))
        .collect();
    let out = Instance::from_facts(schema, labels, facts)?;
    Ok(Example::new(out, dist))
}

/// The fact positions of an instance grouped by relation, each group in
/// table order: one counting sort, no fact index.
struct ByRelation {
    /// Start of each relation's group in `order`, plus a sentinel.
    start: Vec<u32>,
    /// Fact positions, relation by relation.
    order: Vec<u32>,
}

impl ByRelation {
    fn of(inst: &Instance) -> Self {
        // Count per relation, turn the counts into group ends, then fill
        // each group back to front; the ends become the starts.
        let mut start = vec![0u32; inst.schema().len() + 1];
        for f in inst.facts() {
            start[f.rel.index()] += 1;
        }
        let mut end = 0;
        for s in &mut start {
            end += *s;
            *s = end;
        }
        let mut order = vec![0u32; inst.num_facts()];
        for (i, f) in inst.facts().iter().enumerate().rev() {
            let slot = &mut start[f.rel.index()];
            *slot -= 1;
            order[*slot as usize] = i as u32;
        }
        ByRelation { start, order }
    }

    /// The positions of the facts of `rel`.
    fn facts(&self, rel: RelId) -> &[u32] {
        &self.order[self.start[rel.index()] as usize..self.start[rel.index() + 1] as usize]
    }
}

/// Pair→value map of a direct product: dense matrix while the operand
/// domains are small enough, hash map beyond that.
enum PairMap {
    Dense { cols: usize, slots: Vec<u32> },
    Sparse(HashMap<(Value, Value), Value>),
}

impl PairMap {
    /// Dense-matrix footprint cap: 4M entries (16 MiB of `u32`s).
    const DENSE_LIMIT: usize = 1 << 22;

    fn new(rows: usize, cols: usize) -> Self {
        match rows.checked_mul(cols) {
            Some(size) if size <= Self::DENSE_LIMIT => PairMap::Dense {
                cols,
                slots: vec![u32::MAX; size],
            },
            _ => PairMap::Sparse(HashMap::new()),
        }
    }

    fn get_or_insert(&mut self, a: Value, b: Value, add: impl FnOnce() -> Value) -> Value {
        match self {
            PairMap::Dense { cols, slots } => {
                let slot = &mut slots[a.index() * *cols + b.index()];
                if *slot == u32::MAX {
                    *slot = add().0;
                }
                Value(*slot)
            }
            PairMap::Sparse(map) => *map.entry((a, b)).or_insert_with(add),
        }
    }
}

/// The direct product of a finite set of pointed instances; the product of
/// the empty set is [`top_example`].
///
/// # Errors
/// Fails on schema or arity mismatches between the inputs.
pub fn product_of(schema: &Arc<Schema>, arity: usize, examples: &[Example]) -> Result<Example> {
    let mut acc = top_example(schema, arity);
    for e in examples {
        acc = direct_product(&acc, e)?;
    }
    Ok(acc)
}

/// The disjoint union `e1 ⊎ e2` of two pointed instances with the Unique
/// Names Property (§2.2): the union of (disjoint copies of) the two
/// instances in which corresponding distinguished elements are identified.
///
/// # Errors
/// Fails on schema or arity mismatches, or if either input lacks the UNP.
pub fn disjoint_union(e1: &Example, e2: &Example) -> Result<Example> {
    let (i1, i2) = (e1.instance(), e2.instance());
    if i1.schema().as_ref() != i2.schema().as_ref() {
        return Err(HomError::SchemaMismatch);
    }
    if e1.arity() != e2.arity() {
        return Err(HomError::ArityMismatch {
            left: e1.arity(),
            right: e2.arity(),
        });
    }
    if !e1.has_unp() || !e2.has_unp() {
        return Err(HomError::RequiresUnp);
    }
    let mut out = i1.clone();
    // Map e2's values: distinguished positions are identified with e1's
    // distinguished values, everything else becomes a fresh value.
    let mut map: HashMap<Value, Value> = HashMap::new();
    for (pos, &d2) in e2.distinguished().iter().enumerate() {
        map.insert(d2, e1.distinguished()[pos]);
    }
    for v in i2.values() {
        map.entry(v)
            .or_insert_with(|| out.add_value(format!("{}'", i2.label(v))));
    }
    for f in i2.facts() {
        let args: Vec<Value> = f.args.iter().map(|a| map[a]).collect();
        out.add_fact(f.rel, &args)?;
    }
    Ok(Example::new(out, e1.distinguished().to_vec()))
}

/// The disjoint union of a non-empty sequence of examples with the UNP.
///
/// # Errors
/// Fails on an empty input or on any pairwise failure of [`disjoint_union`].
pub fn disjoint_union_of(examples: &[Example]) -> Result<Example> {
    let (first, rest) =
        examples
            .split_first()
            .ok_or(HomError::Data(cqfit_data::DataError::Parse(
                "disjoint union of an empty family".into(),
            )))?;
    let mut acc = first.clone();
    for e in rest {
        acc = disjoint_union(&acc, e)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_homomorphism, hom_exists};
    use cqfit_data::Schema;

    fn example(facts: &[(&str, &str)], dist: &[&str]) -> Example {
        let mut i = Instance::new(Schema::digraph());
        for (a, b) in facts {
            i.add_fact_labels("R", &[a, b]).unwrap();
        }
        let d = dist.iter().map(|l| i.value_by_label(l).unwrap()).collect();
        Example::new(i, d)
    }

    /// The reference product: one `add_value` per new pair and one
    /// `add_fact` (with its dedup probe) per product fact, driven by the
    /// operands' per-relation posting lists.  The bulk [`direct_product`]
    /// must equal it value for value and fact for fact.
    fn add_fact_join(e1: &Example, e2: &Example) -> Example {
        let (i1, i2) = (e1.instance(), e2.instance());
        let mut out = Instance::new(i1.schema().clone());
        let mut pairs: HashMap<(Value, Value), Value> = HashMap::new();
        let mut value_of = |out: &mut Instance, a: Value, b: Value| {
            *pairs
                .entry((a, b))
                .or_insert_with(|| out.add_value(format!("({}|{})", i1.label(a), i2.label(b))))
        };
        for rel in i1.schema().rel_ids() {
            for &f1 in i1.facts_with_rel(rel) {
                for &f2 in i2.facts_with_rel(rel) {
                    let args: Vec<Value> = (i1.fact(f1).args.iter())
                        .zip(&i2.fact(f2).args)
                        .map(|(&a, &b)| value_of(&mut out, a, b))
                        .collect();
                    out.add_fact(rel, &args).unwrap();
                }
            }
        }
        let dist = (e1.distinguished().iter())
            .zip(e2.distinguished())
            .map(|(&a, &b)| value_of(&mut out, a, b))
            .collect();
        Example::new(out, dist)
    }

    fn assert_same_product(bulk: &Example, reference: &Example, what: &str) {
        let (b, r) = (bulk.instance(), reference.instance());
        assert_eq!(b.num_values(), r.num_values(), "{what}: value count");
        for v in r.values() {
            assert_eq!(b.label(v), r.label(v), "{what}: label of {v:?}");
            assert_eq!(b.is_active(v), r.is_active(v), "{what}: activeness");
        }
        assert_eq!(b.facts(), r.facts(), "{what}: fact order");
        assert_eq!(bulk.distinguished(), reference.distinguished(), "{what}");
        assert_eq!(bulk.canonical_hash(), reference.canonical_hash(), "{what}");
    }

    /// Seeded pseudo-random examples over `schema`: 1–5 values, a few
    /// facts per relation (repeats allowed, so the inputs dedup), and a
    /// distinguished tuple of `arity` values that may repeat and may lie
    /// outside the active domain.
    fn seeded_examples(
        schema: &Arc<Schema>,
        arity: usize,
        seed: u64,
        count: usize,
    ) -> Vec<Example> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % m as u64) as usize
        };
        (0..count)
            .map(|_| {
                let mut i = Instance::new(schema.clone());
                let n = 1 + next(5);
                i.add_values("v", n);
                for rel in schema.rel_ids() {
                    for _ in 0..next(5) {
                        let args: Vec<Value> = (0..schema.arity(rel))
                            .map(|_| Value(next(n) as u32))
                            .collect();
                        i.add_fact(rel, &args).unwrap();
                    }
                }
                let dist = (0..arity).map(|_| Value(next(n) as u32)).collect();
                Example::new(i, dist)
            })
            .collect()
    }

    /// The bulk product equals the `add_fact` join value for value, label
    /// for label and fact for fact, and so hashes equal, on binary and
    /// mixed-arity schemas, at arities 0–2 (repeated distinguished values
    /// included), and along `product_of` folds.
    #[test]
    fn bulk_product_matches_the_add_fact_join() {
        let mixed = Arc::new(Schema::new([("U", 1), ("R", 2), ("T", 3)]).unwrap());
        let mut repeated_dist = 0;
        for schema in [Schema::digraph(), mixed] {
            for arity in 0..=2 {
                for seed in 0..40 {
                    let es = seeded_examples(&schema, arity, seed, 3);
                    repeated_dist += usize::from(!es[0].has_unp());
                    let what = format!("{:?} arity {arity} seed {seed}", schema.relations());
                    let bulk = direct_product(&es[0], &es[1]).unwrap();
                    assert_same_product(&bulk, &add_fact_join(&es[0], &es[1]), &what);
                    let mut reference = add_fact_join(&top_example(&schema, arity), &es[0]);
                    for e in &es[1..] {
                        reference = add_fact_join(&reference, e);
                    }
                    let folded = product_of(&schema, arity, &es).unwrap();
                    assert_same_product(&folded, &reference, &format!("{what} (fold)"));
                }
            }
        }
        assert!(repeated_dist > 0, "no row repeated a distinguished value");
    }

    /// Example 2.1 / Figure 2 of the paper: the disjoint union of two binary
    /// examples identifies corresponding distinguished elements.
    #[test]
    fn paper_example_2_1_disjoint_union() {
        let e1 = example(&[("a1", "a2"), ("a2", "a3"), ("a3", "a1")], &["a1", "a2"]);
        let e2 = example(&[("b2", "b3"), ("b3", "b4"), ("b4", "b1")], &["b1", "b2"]);
        let u = disjoint_union(&e1, &e2).unwrap();
        assert_eq!(u.size(), 6);
        // a1,a2 identified with b1,b2: 3 + 4 - 2 shared + ... = 5 values.
        assert_eq!(u.instance().num_values(), 5);
        // Least upper bound properties (Proposition 2.2).
        assert!(hom_exists(&e1, &u));
        assert!(hom_exists(&e2, &u));
    }

    /// Proposition 2.2(3): the disjoint union is the *least* upper bound.
    #[test]
    fn disjoint_union_is_least_upper_bound() {
        let e1 = example(&[("a", "b")], &["a"]);
        let e2 = example(&[("c", "c")], &["c"]);
        let u = disjoint_union(&e1, &e2).unwrap();
        // e' = a self-loop on the distinguished element is above both.
        let above = example(&[("x", "x")], &["x"]);
        assert!(hom_exists(&e1, &above));
        assert!(hom_exists(&e2, &above));
        assert!(hom_exists(&u, &above));
    }

    /// Example 2.5 / Figure 3: direct product of two Boolean examples.
    #[test]
    fn paper_example_2_5_direct_product() {
        let schema = Schema::binary_schema([], ["R", "S"]);
        let mut i1 = Instance::new(schema.clone());
        i1.add_fact_labels("R", &["a", "b"]).unwrap();
        i1.add_fact_labels("S", &["a", "a"]).unwrap();
        i1.add_fact_labels("S", &["b", "b"]).unwrap();
        let e1 = Example::boolean(i1);
        let mut i2 = Instance::new(schema);
        i2.add_fact_labels("S", &["c", "d"]).unwrap();
        i2.add_fact_labels("R", &["c", "c"]).unwrap();
        i2.add_fact_labels("R", &["d", "d"]).unwrap();
        let e2 = Example::boolean(i2);
        let p = direct_product(&e1, &e2).unwrap();
        assert_eq!(p.instance().num_values(), 4);
        assert_eq!(p.size(), 4);
        // Greatest lower bound properties (Proposition 2.7).
        assert!(hom_exists(&p, &e1));
        assert!(hom_exists(&p, &e2));
    }

    /// Example 2.6: the direct product of two data examples need not be a
    /// data example (the distinguished pair may be inactive).
    #[test]
    fn paper_example_2_6_product_not_data_example() {
        let schema = Schema::binary_schema(["P", "Q"], ["R"]);
        let mut i1 = Instance::new(schema.clone());
        i1.add_fact_labels("P", &["a"]).unwrap();
        i1.add_fact_labels("R", &["c", "d"]).unwrap();
        let a = i1.value_by_label("a").unwrap();
        let e1 = Example::new(i1, vec![a]);
        let mut i2 = Instance::new(schema);
        i2.add_fact_labels("Q", &["b"]).unwrap();
        i2.add_fact_labels("R", &["c", "d"]).unwrap();
        let b = i2.value_by_label("b").unwrap();
        let e2 = Example::new(i2, vec![b]);
        let p = direct_product(&e1, &e2).unwrap();
        assert_eq!(p.size(), 1);
        assert!(!p.is_data_example());
    }

    /// Proposition 2.7(3): anything below both factors is below the product.
    #[test]
    fn product_is_greatest_lower_bound() {
        let e1 = example(&[("a", "b"), ("b", "a")], &[]);
        let e2 = example(&[("x", "x")], &[]);
        let below = example(&[("u", "v")], &[]);
        assert!(hom_exists(&below, &e1));
        assert!(hom_exists(&below, &e2));
        let p = direct_product(&e1, &e2).unwrap();
        let h = find_homomorphism(&below, &p).expect("glb property");
        assert!(h.verify(&below, &p));
    }

    #[test]
    fn top_example_is_maximum() {
        let schema = Schema::digraph();
        let top = top_example(&schema, 1);
        let e = example(&[("a", "b"), ("b", "c")], &["a"]);
        assert!(hom_exists(&e, &top));
        assert!(top.is_data_example());
    }

    #[test]
    fn empty_product_is_top() {
        let schema = Schema::digraph();
        let p = product_of(&schema, 0, &[]).unwrap();
        assert_eq!(p.instance().num_values(), 1);
        assert_eq!(p.size(), 1);
    }

    #[test]
    fn product_of_three() {
        let schema = Schema::digraph();
        let es: Vec<Example> = vec![
            example(&[("a", "b")], &["a"]),
            example(&[("c", "d")], &["c"]),
            example(&[("e", "f")], &["e"]),
        ];
        let p = product_of(&schema, 1, &es).unwrap();
        assert!(p.is_data_example());
        for e in &es {
            assert!(hom_exists(&p, e));
        }
    }

    #[test]
    fn union_requires_unp() {
        let e = example(&[("a", "b")], &["a", "a"]);
        let f = example(&[("c", "d")], &["c", "d"]);
        assert_eq!(disjoint_union(&e, &f).unwrap_err(), HomError::RequiresUnp);
    }

    #[test]
    fn mismatches_rejected() {
        let e1 = example(&[("a", "b")], &["a"]);
        let e2 = example(&[("c", "d")], &[]);
        assert!(matches!(
            direct_product(&e1, &e2),
            Err(HomError::ArityMismatch { .. })
        ));
        let other = {
            let mut i = Instance::new(Schema::binary_schema(["P"], ["R"]));
            i.add_fact_labels("P", &["x"]).unwrap();
            Example::boolean(i)
        };
        let e3 = example(&[("a", "b")], &[]);
        assert_eq!(
            direct_product(&e3, &other).unwrap_err(),
            HomError::SchemaMismatch
        );
    }
}
