//! The fact index of an [`Instance`](crate::Instance): every secondary
//! access path into the fact table, built from the table on first use and
//! from then on maintained incrementally by `Instance::add_fact`.
//!
//! The index exists because the homomorphism engine (`cqfit-hom`) drives
//! all of the paper's fitting algorithms, and its propagation loop needs to
//! enumerate *only* the target facts consistent with a small candidate set
//! instead of scanning every fact of a relation.  The per-`(relation,
//! position, value)` posting lists below make that enumeration proportional
//! to the answer size.
//!
//! Building the index costs one allocation per posting list, so the
//! fitting path avoids it where a plain walk of the fact table does the
//! job.  Activeness is kept on the instance, `Instance::from_facts` (the
//! JSON decoder, direct products, core materialization) builds none, and
//! the search narrows unary and binary constraints with bitsets built from
//! the fact table.  The paths that still read it:
//!
//! * `Instance::add_fact`'s duplicate probe (exact lookup);
//! * `Instance::contains_fact` — the search's forward checking when arc
//!   consistency is off, homomorphism verification, the core fold's facts
//!   of arity ≥ 3, the simulation and duality checks;
//! * `Instance::facts_with_rel_pos_value` — the search's revision of
//!   constraints of arity ≥ 3, and the simulation check;
//! * `Instance::facts_containing` — Gaifman neighbours and components,
//!   and the tree and frontier constructions;
//! * `Instance::facts_with_rel` — the duality checks and the reference
//!   search engine.
//!
//! Everything is stored in dense, offset-addressed vectors — no hashing on
//! any lookup path — because the engine performs millions of lookups per
//! search: exact-fact membership resolves through the *shortest* posting
//! list of the fact's argument positions, which for graph-like instances is
//! the smaller of the two endpoint degrees.

use crate::{Fact, FactId, RelId, Schema, Value};

/// Empty posting list returned for keys that were never inserted.
const NO_FACTS: &[FactId] = &[];

/// Secondary indexes over the fact table of an instance.
///
/// Access paths:
/// * exact-fact lookup (`lookup`) for membership and deduplication,
/// * per-relation posting lists (`with_rel`),
/// * per-value posting lists (`containing_value`; activeness is kept on
///   the instance instead),
/// * per-`(relation, position, value)` posting lists (`with_rel_pos_value`),
///   the workhorse of index-accelerated homomorphism propagation.
#[derive(Debug, Clone)]
pub(crate) struct FactIndex {
    /// All facts of each relation, in insertion order.
    by_rel: Vec<Vec<FactId>>,
    /// All facts mentioning each value (each fact listed once), in insertion
    /// order.
    by_value: Vec<Vec<FactId>>,
    /// Flattened `(relation, position)` slots: slot `slot_of[rel] + pos`
    /// holds the value-indexed posting lists of that argument position.
    /// The value dimension grows lazily on insert, so declaring values is
    /// free and absent keys read as empty.
    by_rel_pos: Vec<Vec<Vec<FactId>>>,
    /// Start of each relation's slot range in `by_rel_pos` (prefix sums of
    /// the arities).
    slot_of: Vec<usize>,
}

impl FactIndex {
    /// The index of `facts` (distinct, ids by position) over the relations
    /// of `schema` and `num_values` values.  Only the per-relation and
    /// per-value lists are sized up front; the positional lists grow with
    /// the values they hold, so memory is linear in the schema's slots plus
    /// the values, never their product.
    pub fn build(schema: &Schema, num_values: usize, facts: &[Fact]) -> Self {
        let mut slot_of = Vec::with_capacity(schema.len());
        let mut slots = 0;
        for rel in schema.rel_ids() {
            slot_of.push(slots);
            slots += schema.arity(rel);
        }
        let mut index = FactIndex {
            by_rel: vec![Vec::new(); schema.len()],
            by_value: vec![Vec::new(); num_values],
            by_rel_pos: vec![Vec::new(); slots],
            slot_of,
        };
        for (i, fact) in facts.iter().enumerate() {
            index.insert(fact, FactId(i as u32));
        }
        index
    }

    /// Registers a freshly declared value (appends an empty posting list).
    pub fn add_value(&mut self) {
        self.by_value.push(Vec::new());
    }

    /// The id of the identical fact, if already present.
    ///
    /// Resolves through the shortest per-position posting list of the
    /// argument values (the full per-relation list for nullary facts) and
    /// verifies candidates against the fact table — no hashing, no
    /// allocation.
    ///
    /// Complexity trade-off: a membership probe costs O(min positional
    /// degree) instead of the O(1) of a hash map, but performs zero heap
    /// allocations (the hash map needed an owned key per probe) and no
    /// SipHash work.  The probe is the inner loop of forward checking and
    /// of fact deduplication during instance construction; at the instance
    /// sizes this library handles (paper families, products of examples)
    /// the short-posting-list scan wins by a wide margin.  For
    /// pathologically dense instances (complete graphs with tens of
    /// thousands of values) construction would degrade to O(Σ degree) per
    /// insert; revisit with a hash-free open-addressing table if such
    /// workloads ever appear.
    pub fn lookup(&self, facts: &[Fact], rel: RelId, args: &[Value]) -> Option<FactId> {
        let postings = if args.is_empty() {
            self.with_rel(rel)
        } else {
            (0..args.len())
                .map(|pos| self.with_rel_pos_value(rel, pos, args[pos]))
                .min_by_key(|list| list.len())
                .expect("non-empty args")
        };
        postings
            .iter()
            .copied()
            .find(|&fid| facts[fid.index()].args == args)
    }

    /// Inserts a (known to be fresh) fact into every access path.
    pub fn insert(&mut self, fact: &Fact, id: FactId) {
        self.by_rel[fact.rel.index()].push(id);
        let base = self.slot_of[fact.rel.index()];
        for (pos, &a) in fact.args.iter().enumerate() {
            let slot = &mut self.by_rel_pos[base + pos];
            if slot.len() <= a.index() {
                slot.resize(a.index() + 1, Vec::new());
            }
            slot[a.index()].push(id);
        }
        for (pos, &a) in fact.args.iter().enumerate() {
            // Each fact is listed once per value, even when the value
            // repeats across positions.
            if fact.args[..pos].contains(&a) {
                continue;
            }
            self.by_value[a.index()].push(id);
        }
    }

    /// All facts of relation `rel`.
    pub fn with_rel(&self, rel: RelId) -> &[FactId] {
        &self.by_rel[rel.index()]
    }

    /// All facts mentioning value `v`.
    pub fn containing_value(&self, v: Value) -> &[FactId] {
        &self.by_value[v.index()]
    }

    /// All facts of relation `rel` whose argument at position `pos` is `v`.
    #[inline]
    pub fn with_rel_pos_value(&self, rel: RelId, pos: usize, v: Value) -> &[FactId] {
        self.by_rel_pos[self.slot_of[rel.index()] + pos]
            .get(v.index())
            .map_or(NO_FACTS, Vec::as_slice)
    }

    /// Value-indexed entries held across all positional slots.
    #[cfg(test)]
    pub fn positional_entries(&self) -> usize {
        self.by_rel_pos.iter().map(Vec::len).sum()
    }
}
