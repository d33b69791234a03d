//! A small fixed-capacity bit set used for candidate sets during
//! homomorphism search and arc consistency.

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
