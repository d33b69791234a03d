//! Canonical structural hashing of schemas, instances and examples.
//!
//! The hashes are the cache keys of the `cqfit_hom` result cache: two
//! objects with equal canonical hashes are (with overwhelming probability)
//! *structurally identical* — same schema, same number of declared values,
//! same fact set over the same value indices, same distinguished tuple.
//! Every homomorphism-level question is invariant under structural
//! identity, so equal keys may share answers.
//!
//! Properties:
//!
//! * **Insertion-order independent** — an instance hashes the *set* of its
//!   facts: each fact is hashed on its own, and the per-fact hashes are
//!   added up (wrapping, per 64-bit lane).  Addition is commutative, so the
//!   same fact set built in any order hashes equal, with no sort and no
//!   buffer; facts are distinct (every constructor drops repeats), so the
//!   sum is a set hash, not a multiset one.  Values are part of each fact's
//!   encoding.
//! * **Label independent** — display labels are *excluded*: instances that
//!   differ only in labels hash equal, because labels never influence
//!   homomorphism answers.  A cache of label-carrying artifacts (cores,
//!   whose labels surface in constructed queries) could not key by these
//!   hashes alone.
//! * **Process independent** — no randomized hasher state; equal inputs
//!   hash equal across runs and across machines, so captures and
//!   differential tests are reproducible.  No hash value is persisted.
//!
//! The hash is 128 bits built from two independent 64-bit lanes, each a
//! rotate-xor-multiply stream over whole 64-bit words with its own
//! constants and its own finalizer.  That keeps accidental collisions out
//! of reach for cache-sized key populations; it is *not* designed to
//! resist adversarial collision construction.

use crate::{Example, Fact, Instance, Schema};

/// A 128-bit canonical structural hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalHash(pub u128);

/// Streaming hasher behind [`CanonicalHash`].
#[derive(Debug, Clone)]
pub(crate) struct CanonicalHasher {
    hi: u64,
    lo: u64,
}

impl CanonicalHasher {
    const HI_SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const LO_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    const HI_MULT: u64 = 0xff51_afd7_ed55_8ccd;
    const LO_MULT: u64 = 0xc4ce_b9fe_1a85_ec53;

    /// A fresh hasher.
    pub(crate) fn new() -> Self {
        CanonicalHasher {
            hi: Self::HI_SEED,
            lo: Self::LO_SEED,
        }
    }

    /// Absorbs a `u64` into both lanes.  Each step is a bijection of the
    /// lane state, so two streams differing in a single word never meet.
    pub(crate) fn absorb_u64(&mut self, v: u64) {
        self.hi = (self.hi ^ v).wrapping_mul(Self::HI_MULT).rotate_left(31);
        self.lo = (self.lo ^ v).wrapping_mul(Self::LO_MULT).rotate_left(27);
    }

    /// Absorbs a `u32` (as one word).
    pub(crate) fn absorb_u32(&mut self, v: u32) {
        self.absorb_u64(u64::from(v));
    }

    /// Absorbs a length-prefixed string, eight bytes per word (the prefix
    /// makes concatenations and the zero padding of the last word
    /// unambiguous).
    pub(crate) fn absorb_str(&mut self, s: &str) {
        self.absorb_u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb_u64(u64::from_le_bytes(word));
        }
    }

    /// Absorbs another canonical hash (for compound keys).
    pub(crate) fn absorb_hash(&mut self, h: CanonicalHash) {
        self.absorb_u64(h.0 as u64);
        self.absorb_u64((h.0 >> 64) as u64);
    }

    /// Finishes the hash: one avalanche round per lane (the murmur3 and
    /// splitmix64 finalizers), so short inputs still spread over all bits.
    pub(crate) fn finish(&self) -> CanonicalHash {
        let mut a = self.hi;
        a ^= a >> 33;
        a = a.wrapping_mul(Self::HI_MULT);
        a ^= a >> 33;
        a = a.wrapping_mul(Self::LO_MULT);
        a ^= a >> 33;
        let mut b = self.lo;
        b ^= b >> 30;
        b = b.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        b ^= b >> 27;
        b = b.wrapping_mul(0x94d0_49bb_1331_11eb);
        b ^= b >> 31;
        CanonicalHash((u128::from(a) << 64) | u128::from(b))
    }

    /// The hash of one fact: its relation and its arguments, two
    /// arguments per word (the arity is fixed by the relation, so the
    /// packing is unambiguous).
    fn of_fact(f: &Fact) -> CanonicalHash {
        let mut h = CanonicalHasher::new();
        h.absorb_u32(f.rel.0);
        for pair in f.args.chunks(2) {
            let second = pair.get(1).map_or(0, |a| u64::from(a.0));
            h.absorb_u64(u64::from(pair[0].0) | second << 32);
        }
        h.finish()
    }
}

impl Schema {
    /// Canonical hash of the schema: relation names and arities in
    /// declaration order (declaration order is structural — it fixes the
    /// [`crate::RelId`] assignment).
    pub fn canonical_hash(&self) -> CanonicalHash {
        let mut h = CanonicalHasher::new();
        h.absorb_u64(self.relations().len() as u64);
        for r in self.relations() {
            h.absorb_str(&r.name);
            h.absorb_u64(r.arity as u64);
        }
        h.finish()
    }
}

impl Instance {
    /// Canonical structural hash of the instance: schema, number of
    /// declared values, and the fact set (the wrapping sum, per lane, of
    /// the per-fact hashes).  Labels are excluded; see the module
    /// documentation for the exact invariance guarantees.
    ///
    /// The hash is memoized on the instance (structural mutations reset
    /// the memo), so repeated cache lookups on the same — potentially
    /// large — instance hash its fact set only once.
    pub fn canonical_hash(&self) -> CanonicalHash {
        *self.structural_hash_cell().get_or_init(|| {
            let (mut hi, mut lo) = (0u64, 0u64);
            for f in self.facts() {
                let fact = CanonicalHasher::of_fact(f).0;
                hi = hi.wrapping_add((fact >> 64) as u64);
                lo = lo.wrapping_add(fact as u64);
            }
            let mut h = CanonicalHasher::new();
            h.absorb_hash(self.schema().canonical_hash());
            h.absorb_u64(self.num_values() as u64);
            h.absorb_u64(self.num_facts() as u64);
            h.absorb_u64(hi);
            h.absorb_u64(lo);
            h.finish()
        })
    }
}

impl Example {
    /// Canonical structural hash of the pointed instance: the instance
    /// hash plus the distinguished tuple.
    pub fn canonical_hash(&self) -> CanonicalHash {
        let mut h = CanonicalHasher::new();
        h.absorb_hash(self.instance().canonical_hash());
        h.absorb_u64(self.distinguished().len() as u64);
        for d in self.distinguished() {
            h.absorb_u32(d.0);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn insertion_order_does_not_matter() {
        let schema = Schema::digraph();
        let mut a = Instance::new(schema.clone());
        a.add_fact_labels("R", &["x", "y"]).unwrap();
        a.add_fact_labels("R", &["y", "z"]).unwrap();
        let mut b = Instance::new(schema);
        b.add_value("x");
        b.add_value("y");
        b.add_value("z");
        let (y, z) = (Value(1), Value(2));
        let x = Value(0);
        let r = b.schema().rel("R").unwrap();
        b.add_fact(r, &[y, z]).unwrap();
        b.add_fact(r, &[x, y]).unwrap();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn labels_do_not_matter_but_structure_does() {
        let schema = Schema::digraph();
        let mut a = Instance::new(schema.clone());
        a.add_fact_labels("R", &["x", "y"]).unwrap();
        let mut b = Instance::new(schema.clone());
        b.add_fact_labels("R", &["u", "v"]).unwrap();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        // One more declared (isolated) value changes the structure.
        let mut c = Instance::new(schema.clone());
        c.add_fact_labels("R", &["x", "y"]).unwrap();
        c.add_value("iso");
        assert_ne!(a.canonical_hash(), c.canonical_hash());
        // A reversed edge changes the structure.
        let mut d = Instance::new(schema);
        d.add_value("x");
        d.add_value("y");
        let r = d.schema().rel("R").unwrap();
        d.add_fact(r, &[Value(1), Value(0)]).unwrap();
        assert_ne!(a.canonical_hash(), d.canonical_hash());
    }

    #[test]
    fn distinguished_tuple_matters() {
        let schema = Schema::digraph();
        let mut i = Instance::new(schema);
        i.add_fact_labels("R", &["x", "y"]).unwrap();
        let x = i.value_by_label("x").unwrap();
        let y = i.value_by_label("y").unwrap();
        let ex = Example::new(i.clone(), vec![x]);
        let ey = Example::new(i.clone(), vec![y]);
        let eb = Example::boolean(i);
        assert_ne!(ex.canonical_hash(), ey.canonical_hash());
        assert_ne!(ex.canonical_hash(), eb.canonical_hash());
        assert_ne!(
            ex.canonical_hash(),
            Example::new(ex.instance().clone(), vec![x, x]).canonical_hash()
        );
    }

    #[test]
    fn schema_identity_matters() {
        let mut a = Instance::new(Schema::digraph());
        a.add_fact_labels("R", &["x", "y"]).unwrap();
        let other = Schema::binary_schema([], ["R", "S"]);
        let mut b = Instance::new(other);
        b.add_fact_labels("R", &["x", "y"]).unwrap();
        assert_ne!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn memoized_hash_resets_on_structural_mutation() {
        let mut i = Instance::new(Schema::digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        let h1 = i.canonical_hash();
        assert_eq!(i.canonical_hash(), h1, "memo answers repeat lookups");
        i.add_fact_labels("R", &["b", "a"]).unwrap();
        assert_ne!(i.canonical_hash(), h1, "add_fact resets the memo");
        let v = i.add_value("iso");
        let h2 = i.canonical_hash();
        i.set_label(v, "renamed");
        assert_eq!(
            i.canonical_hash(),
            h2,
            "labels are excluded from the hash, so relabeling keeps it"
        );
    }

    #[test]
    fn deterministic_across_calls() {
        let schema = Schema::digraph();
        let mut i = Instance::new(schema);
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        assert_eq!(i.canonical_hash(), i.clone().canonical_hash());
    }
}
