//! Cross-product homomorphism checks.
//!
//! Every fitting procedure of the paper reduces to *families* of independent
//! homomorphism checks: the product of the positives against each negative
//! example (Prop. 3.3), every positive against every negative for UCQs
//! (Prop. 4.2), each frontier member against each negative (Prop. 3.11),
//! each candidate counterexample of a duality check against both sides.
//! Such families run in order on the calling thread, as plain iterator
//! chains over [`hom_exists`]; parallelism lives at the connection level of
//! the fitting service, never inside one question.  This module holds the
//! one shape that needs more than a one-liner: the `srcs × dsts` answer
//! matrix of [`hom_exists_cross`].

use crate::search::hom_exists;
use cqfit_data::Example;

/// Row-major matrix of boolean answers over a `rows × cols` cross product
/// of checks, with the stride arithmetic kept in one place.
pub struct CrossFlags {
    flags: Vec<bool>,
    cols: usize,
}

impl CrossFlags {
    /// Wraps a row-major flag vector; `flags.len()` must be a multiple of
    /// `cols` (or empty when `cols` is 0).
    pub fn from_flags(flags: Vec<bool>, cols: usize) -> Self {
        debug_assert!(cols == 0 || flags.len().is_multiple_of(cols));
        CrossFlags { flags, cols }
    }

    /// The flags of row `i` (empty when there are no columns).
    pub fn row(&self, i: usize) -> &[bool] {
        &self.flags[i * self.cols..(i + 1) * self.cols]
    }

    /// True if some flag in row `i` is set.
    pub fn any_in_row(&self, i: usize) -> bool {
        self.row(i).iter().any(|&b| b)
    }

    /// True if some flag in column `j` is set.
    pub fn any_in_col(&self, j: usize) -> bool {
        self.flags
            .iter()
            .skip(j)
            .step_by(self.cols.max(1))
            .any(|&b| b)
    }

    /// The `(row, column)` of the first set flag in row-major order.
    pub fn first_true(&self) -> Option<(usize, usize)> {
        self.flags
            .iter()
            .position(|&b| b)
            .map(|p| (p / self.cols, p % self.cols))
    }
}

/// Checks every `(src, dst)` pair of the `srcs × dsts` cross product for
/// homomorphism existence, returning the row-major answer matrix
/// (rows = sources).
pub fn hom_exists_cross(srcs: &[&Example], dsts: &[&Example]) -> CrossFlags {
    let flags = srcs
        .iter()
        .flat_map(|&s| dsts.iter().map(move |&d| hom_exists(s, d)))
        .collect();
    CrossFlags::from_flags(flags, dsts.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::{Instance, Schema};

    fn cycle(n: usize) -> Example {
        let mut i = Instance::new(Schema::digraph());
        let vs = i.add_values("c", n);
        for k in 0..n {
            i.add_fact_by_name("R", &[vs[k], vs[(k + 1) % n]]).unwrap();
        }
        Example::boolean(i)
    }

    fn clique(n: usize) -> Example {
        let mut i = Instance::new(Schema::digraph());
        let vs = i.add_values("k", n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    i.add_fact_by_name("R", &[vs[a], vs[b]]).unwrap();
                }
            }
        }
        Example::boolean(i)
    }

    #[test]
    fn batch_matches_sequential() {
        let srcs: Vec<Example> = (3..9).map(cycle).collect();
        let src_refs: Vec<&Example> = srcs.iter().collect();
        let (k2, k3) = (clique(2), clique(3));
        let dsts = [&k2, &k3];
        let cross = hom_exists_cross(&src_refs, &dsts);
        for (i, s) in srcs.iter().enumerate() {
            let seq: Vec<bool> = dsts.iter().map(|d| hom_exists(s, d)).collect();
            assert_eq!(cross.row(i), seq.as_slice(), "row {i}");
        }
        // Only even cycles map to K2.
        let to_k2: Vec<bool> = (0..srcs.len()).map(|i| cross.row(i)[0]).collect();
        assert_eq!(to_k2, [false, true, false, true, false, true]);
    }

    #[test]
    fn cross_flags_decode_rows_and_columns() {
        let k2 = clique(2);
        let k3 = clique(3);
        let srcs = [cycle(3), cycle(4)];
        let src_refs: Vec<&Example> = srcs.iter().collect();
        let dsts = [&k2, &k3];
        // C3 → K2 no, C3 → K3 yes; C4 → K2 yes, C4 → K3 yes.
        let cross = hom_exists_cross(&src_refs, &dsts);
        assert_eq!(cross.row(0), &[false, true]);
        assert_eq!(cross.row(1), &[true, true]);
        assert!(cross.any_in_row(0) && cross.any_in_row(1));
        assert!(cross.any_in_col(0), "C4 → K2 sets column 0");
        assert!(cross.any_in_col(1));
        assert_eq!(cross.first_true(), Some((0, 1)));
        // Degenerate shapes.
        let empty_dst = hom_exists_cross(&src_refs, &[]);
        assert!(!empty_dst.any_in_row(0));
        assert_eq!(hom_exists_cross(&[], &dsts).first_true(), None);
    }
}
