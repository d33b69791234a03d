//! Unions of conjunctive queries (Section 4).

use crate::{Cq, QueryError, Result};
use cqfit_data::{Example, Instance, Schema, Value};
use std::fmt;
use std::sync::Arc;

/// A union of conjunctive queries `q = q1 ∪ … ∪ qn` over a common schema and
/// arity (n ≥ 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ucq {
    disjuncts: Vec<Cq>,
}

impl Ucq {
    /// Creates a UCQ from its disjuncts.
    ///
    /// # Errors
    /// Fails if the list is empty or the disjuncts disagree on schema or
    /// arity.
    pub fn new(disjuncts: Vec<Cq>) -> Result<Self> {
        let first = disjuncts.first().ok_or(QueryError::Incompatible)?;
        for d in &disjuncts[1..] {
            if d.schema().as_ref() != first.schema().as_ref() || d.arity() != first.arity() {
                return Err(QueryError::Incompatible);
            }
        }
        Ok(Ucq { disjuncts })
    }

    /// Builds the UCQ `⋃_{e ∈ examples} q_e` of canonical CQs of the given
    /// data examples — the canonical most-specific fitting candidate of
    /// Proposition 4.3.
    ///
    /// # Errors
    /// Fails if the list is empty or some example is not a data example.
    pub fn from_examples(examples: &[Example]) -> Result<Self> {
        let disjuncts: Result<Vec<Cq>> = examples.iter().map(Cq::from_example).collect();
        Ucq::new(disjuncts?)
    }

    /// The disjuncts of the union.
    pub fn disjuncts(&self) -> &[Cq] {
        &self.disjuncts
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// A UCQ always has at least one disjunct.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The schema of the query.
    pub fn schema(&self) -> &Arc<Schema> {
        self.disjuncts[0].schema()
    }

    /// The arity of the query.
    pub fn arity(&self) -> usize {
        self.disjuncts[0].arity()
    }

    /// Total size (sum of disjunct sizes).
    pub fn size(&self) -> usize {
        self.disjuncts.iter().map(Cq::size).sum()
    }

    /// Evaluates the UCQ on an instance: `q(I) = ⋃ q_i(I)`.
    pub fn evaluate(&self, instance: &Instance) -> Vec<Vec<Value>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for d in &self.disjuncts {
            for t in d.evaluate(instance) {
                if seen.insert(t.clone()) {
                    out.push(t);
                }
            }
        }
        out.sort();
        out
    }

    /// True if the example is a positive example for the UCQ (some disjunct
    /// is satisfied).
    pub fn is_satisfied_in(&self, example: &Example) -> bool {
        self.disjuncts.iter().any(|d| d.is_satisfied_in(example))
    }

    /// The paper's homomorphism relation on UCQs: `q → q'` iff for every
    /// disjunct `q'_i` of `q'` there is a disjunct `q_j` of `q` with
    /// `q_j → q'_i`.  Under this definition `q → q'` holds precisely when
    /// `q' ⊆ q`.
    pub fn maps_to(&self, other: &Ucq) -> bool {
        other
            .disjuncts
            .iter()
            .all(|oi| self.disjuncts.iter().any(|sj| sj.maps_to(oi)))
    }

    /// UCQ containment `q ⊆ q'`: every disjunct of `q` is contained in some
    /// disjunct of `q'`.
    pub fn is_contained_in(&self, other: &Ucq) -> Result<bool> {
        if self.schema().as_ref() != other.schema().as_ref() || self.arity() != other.arity() {
            return Err(QueryError::Incompatible);
        }
        Ok(other.maps_to(self))
    }

    /// UCQ equivalence.
    pub fn equivalent_to(&self, other: &Ucq) -> Result<bool> {
        Ok(self.is_contained_in(other)? && other.is_contained_in(self)?)
    }

    /// Minimizes the union: cores every disjunct with the mask-based core
    /// engine ([`Cq::minimized`]), then removes disjuncts contained in
    /// another disjunct.  The result is an equivalent, irredundant union of
    /// cores whose surviving disjuncts are pairwise incomparable under
    /// containment.
    ///
    /// Coring first makes the quadratic containment-pruning pass run on the
    /// smallest equivalent disjuncts (each containment check is a
    /// homomorphism search on their canonical examples).
    pub fn minimized(&self) -> Ucq {
        self.minimized_with(None)
    }

    /// [`Ucq::minimized`] with the core computations and the pairwise
    /// containment checks routed through a [`cqfit_hom::HomCache`] when
    /// one is given (`None` behaves exactly like `minimized`).  Used by
    /// the incremental fitting path so that repeated containment checks
    /// across requests and sessions are cache hits; there is exactly one
    /// copy of the pruning logic (including the equivalence tie-break) for
    /// the cached and uncached paths.
    pub fn minimized_with(&self, cache: Option<&cqfit_hom::HomCache>) -> Ucq {
        let disjuncts: Vec<Cq> = self
            .disjuncts
            .iter()
            .map(|d| match cache {
                Some(c) => Cq::from_example(&c.core_of(&d.canonical_example()))
                    .expect("core of a canonical example is a data example"),
                None => d.minimized(),
            })
            .collect();
        // Containment `q_i ⊆ q_j` is a homomorphism `e_{q_j} → e_{q_i}`
        // between the canonical examples of the cored disjuncts; they are
        // materialized once here instead of per pairwise check.
        let canon: Vec<Example> = disjuncts.iter().map(Cq::canonical_example).collect();
        let contained = |i: usize, j: usize| match cache {
            Some(c) => c.hom_exists(&canon[j], &canon[i]),
            None => cqfit_hom::hom_exists(&canon[j], &canon[i]),
        };
        let mut keep: Vec<bool> = vec![true; disjuncts.len()];
        for i in 0..disjuncts.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..disjuncts.len() {
                if i == j || !keep[j] {
                    continue;
                }
                // Drop disjunct i if it is contained in disjunct j (and, on
                // equivalence, keep the earlier one).
                let i_in_j = contained(i, j);
                let j_in_i = contained(j, i);
                if i_in_j && (!j_in_i || j < i) {
                    keep[i] = false;
                    break;
                }
            }
        }
        Ucq {
            disjuncts: disjuncts
                .into_iter()
                .zip(keep)
                .filter(|&(_, k)| k)
                .map(|(d, _)| d)
                .collect(),
        }
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∪  ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_cq;
    use cqfit_data::parse_instance;

    fn unary_schema() -> Arc<Schema> {
        Schema::binary_schema(["P", "Q", "R"], [])
    }

    /// Example 4.1 of the paper: q = (P∧Q) ∪ (P∧R).
    fn example_4_1_ucq() -> Ucq {
        let s = unary_schema();
        let q1 = parse_cq(&s, "q() :- P(x), Q(x)").unwrap();
        let q2 = parse_cq(&s, "q() :- P(x), R(x)").unwrap();
        Ucq::new(vec![q1, q2]).unwrap()
    }

    #[test]
    fn evaluation_is_union() {
        let s = unary_schema();
        let q = example_4_1_ucq();
        let i = parse_instance(&s, "P(a)\nQ(a)\nP(b)\nR(b)\nP(c)").unwrap();
        // Boolean query: satisfied because some disjunct is satisfied.
        assert_eq!(q.evaluate(&i).len(), 1);
        let neg = parse_instance(&s, "P(a)\nQ(b)\nR(b)").unwrap();
        assert!(q.evaluate(&neg).is_empty());
    }

    #[test]
    fn containment_and_equivalence() {
        let s = unary_schema();
        let q = example_4_1_ucq();
        let p_only = Ucq::new(vec![parse_cq(&s, "q() :- P(x)").unwrap()]).unwrap();
        assert!(q.is_contained_in(&p_only).unwrap());
        assert!(!p_only.is_contained_in(&q).unwrap());
        assert!(q.equivalent_to(&q.clone()).unwrap());
    }

    #[test]
    fn maps_to_matches_containment_direction() {
        let s = unary_schema();
        let q = example_4_1_ucq();
        let p_only = Ucq::new(vec![parse_cq(&s, "q() :- P(x)").unwrap()]).unwrap();
        // q ⊆ p_only iff p_only → q.
        assert!(p_only.maps_to(&q));
        assert!(!q.maps_to(&p_only));
    }

    #[test]
    fn minimization_drops_redundant_disjuncts() {
        let s = unary_schema();
        let q1 = parse_cq(&s, "q() :- P(x)").unwrap();
        let q2 = parse_cq(&s, "q() :- P(x), Q(x)").unwrap();
        let u = Ucq::new(vec![q1, q2]).unwrap();
        let m = u.minimized();
        assert_eq!(m.len(), 1);
        assert!(m.equivalent_to(&u).unwrap());
    }

    #[test]
    fn mismatched_disjuncts_rejected() {
        let s = Schema::digraph();
        let q1 = parse_cq(&s, "q(x) :- R(x,y)").unwrap();
        let q2 = parse_cq(&s, "q() :- R(x,y)").unwrap();
        assert!(Ucq::new(vec![q1, q2]).is_err());
        assert!(Ucq::new(vec![]).is_err());
    }

    #[test]
    fn from_examples_builds_canonical_union() {
        let s = Schema::digraph();
        let e1 = {
            let i = parse_instance(&s, "R(a,b)").unwrap();
            Example::boolean(i)
        };
        let e2 = {
            let i = parse_instance(&s, "R(a,a)").unwrap();
            Example::boolean(i)
        };
        let u = Ucq::from_examples(&[e1.clone(), e2]).unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.is_satisfied_in(&e1));
    }
}
