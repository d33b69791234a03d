//! A small fixed-capacity bit set used for candidate sets during
//! homomorphism search and arc consistency, and the per-relation bitsets of
//! an instance's unary and binary facts that the search and the core fold
//! narrow candidate sets with.

use cqfit_data::Instance;

/// Fixed-capacity bit set over `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    capacity: usize,
    count: usize,
}

impl BitSet {
    /// Creates an empty bit set with room for `capacity` elements.
    pub fn empty(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            count: 0,
        }
    }

    /// Creates a full bit set `{0, …, capacity-1}`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::empty(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask != 0 {
            *w &= !mask;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Keeps only the elements also present in `other`; returns true if the
    /// set changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        let mut count = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let new = *w & *o;
            if new != *w {
                changed = true;
            }
            *w = new;
            count += new.count_ones() as usize;
        }
        self.count = count;
        changed
    }

    /// Retains a single element, dropping everything else.
    pub fn retain_only(&mut self, i: usize) {
        debug_assert!(self.contains(i));
        for w in &mut self.words {
            *w = 0;
        }
        self.count = 0;
        self.insert(i);
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.words)
    }

    /// The single element of a singleton set.
    pub fn only(&self) -> Option<usize> {
        if self.count == 1 {
            self.iter().next()
        } else {
            None
        }
    }
}

/// The indices of the set bits of a little-endian word array (bit `i` of
/// the set lives at `words[i / 64] >> (i % 64)`), in increasing order.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wi * 64 + b
            })
        })
    })
}

/// Per-relation bitsets of an instance's unary and binary facts, `wpv`
/// words per value set (bit `t` of a set lives at `words[t / 64] >>
/// (t % 64)`): the members of each unary relation, and for each binary
/// relation the successors (`out`) and predecessors (`inc`) of every
/// value, value-major (value `t`'s row starts at word `t * wpv`), and the
/// set of values with a loop.  Relations of other arities get none.
pub(crate) struct RelMasks {
    pub wpv: usize,
    pub unary: Vec<Option<Vec<u64>>>,
    pub out: Vec<Option<Vec<u64>>>,
    pub inc: Vec<Option<Vec<u64>>>,
    pub loops: Vec<Option<Vec<u64>>>,
}

impl RelMasks {
    /// The bitsets of `inst`, built in one pass over its fact table.  With
    /// `wanted`, exactly the wanted unary and binary relations get theirs
    /// (all-zero when the relation has no fact) and the others are
    /// skipped; without it, every relation with a fact gets them (and a
    /// loop set once it has a loop).
    pub fn build(inst: &Instance, wanted: Option<&[bool]>) -> Self {
        let n = inst.num_values();
        let wpv = n.div_ceil(64);
        let schema = inst.schema();
        let rels = schema.len();
        let mut m = RelMasks {
            wpv,
            unary: vec![None; rels],
            out: vec![None; rels],
            inc: vec![None; rels],
            loops: vec![None; rels],
        };
        if let Some(wanted) = wanted {
            for rel in schema.rel_ids().filter(|r| wanted[r.index()]) {
                let ri = rel.index();
                match schema.arity(rel) {
                    1 => m.unary[ri] = Some(vec![0; wpv]),
                    2 => {
                        m.out[ri] = Some(vec![0; n * wpv]);
                        m.inc[ri] = Some(vec![0; n * wpv]);
                        m.loops[ri] = Some(vec![0; wpv]);
                    }
                    _ => {}
                }
            }
        }
        for f in inst.facts() {
            let ri = f.rel.index();
            if wanted.is_some_and(|w| !w[ri]) {
                continue;
            }
            match *f.args.as_slice() {
                [a] => set_bit(row(&mut m.unary[ri], wpv), a.index()),
                [a, b] => {
                    let (a, b) = (a.index(), b.index());
                    set_bit(&mut row(&mut m.out[ri], n * wpv)[a * wpv..], b);
                    set_bit(&mut row(&mut m.inc[ri], n * wpv)[b * wpv..], a);
                    if a == b {
                        set_bit(row(&mut m.loops[ri], wpv), a);
                    }
                }
                _ => {}
            }
        }
        m
    }
}

/// The mask row `masks`, allocated (`len` zero words) on first use.
fn row(masks: &mut Option<Vec<u64>>, len: usize) -> &mut [u64] {
    masks.get_or_insert_with(|| vec![0; len])
}

/// Sets bit `i` of a little-endian word array.
pub(crate) fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a little-endian word array.
pub(crate) fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations() {
        let mut s = BitSet::empty(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert_eq!(s.len(), 2);
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![129]);
        assert_eq!(s.only(), Some(129));
    }

    #[test]
    fn full_and_intersect() {
        let mut a = BitSet::full(70);
        let mut b = BitSet::empty(70);
        b.insert(3);
        b.insert(69);
        assert!(a.intersect_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 69]);
        assert!(!a.intersect_with(&b));
        a.retain_only(69);
        assert_eq!(a.len(), 1);
    }
}
