//! Fitting problems for unions of conjunctive queries (Section 4 of the
//! paper).
//!
//! The characterizations used here:
//!
//! * **Existence / most-specific fittings** (Propositions 4.2 and 4.3): a
//!   fitting UCQ exists iff no positive example maps homomorphically into a
//!   negative example, and then `⋃_{e ∈ E⁺} q_e` is the most-specific
//!   fitting UCQ.
//! * **Most-general fittings** (Proposition 4.4): a fitting UCQ
//!   `q1 ∪ … ∪ qn` is (weakly = strongly) most-general iff
//!   `({e_{q1},…,e_{qn}}, E⁻)` is a homomorphism duality.
//! * **Unique fittings** (Proposition 4.5): a unique fitting UCQ exists iff
//!   `(E⁺, E⁻)` is a homomorphism duality, and then `⋃_{e ∈ E⁺} q_e` is it.
//!
//! The duality checks are three-valued (`HomDual` is NP-hard with open exact
//! complexity, Theorem 4.8); everything else is exact.

use crate::{maps_into_some, Certainty, FitError, Result, SearchBudget};
use cqfit_data::{Example, LabeledExamples};
use cqfit_duality::check_hom_duality;
use cqfit_query::Ucq;

/// Does the UCQ fit the examples?  (Verification problem, Theorem 4.6(3).)
pub fn verify_fitting(q: &Ucq, examples: &LabeledExamples) -> Result<bool> {
    if let (Some(schema), Some(arity)) = (examples.schema(), examples.arity()) {
        if q.schema().as_ref() != schema.as_ref() || q.arity() != arity {
            return Err(FitError::Incompatible);
        }
    }
    Ok(examples.positives().iter().all(|e| q.is_satisfied_in(e))
        && !examples.negatives().iter().any(|e| q.is_satisfied_in(e)))
}

/// Does some fitting UCQ exist?  (Proposition 4.2, coNP-complete.)
///
/// For a non-empty `E⁺` this holds iff no positive example maps
/// homomorphically into a negative example.  For an empty `E⁺` a fitting UCQ
/// exists iff a fitting CQ exists (a single disjunct suffices), which is
/// delegated to [`crate::cq::fitting_exists`].
///
/// The `|E⁺| × |E⁻|` separation checks stop at the first positive that
/// maps into a negative.
pub fn fitting_exists(examples: &LabeledExamples) -> Result<bool> {
    if examples.positives().is_empty() {
        return crate::cq::fitting_exists(examples);
    }
    Ok(!maps_into_some(
        examples.positives(),
        examples.negatives(),
        None,
    ))
}

/// Constructs the most-specific fitting UCQ `⋃_{e ∈ E⁺} q_e` if a fitting UCQ
/// exists (Propositions 4.2/4.3).  Requires a non-empty `E⁺` (with no
/// positive examples there is no most-specific fitting UCQ, as UCQs cannot be
/// unsatisfiable).
pub fn most_specific_fitting(examples: &LabeledExamples) -> Result<Option<Ucq>> {
    if examples.positives().is_empty() {
        return Ok(None);
    }
    if !fitting_exists(examples)? {
        return Ok(None);
    }
    Ok(Some(Ucq::from_examples(examples.positives())?))
}

/// [`most_specific_fitting`] with the output minimized: every disjunct is
/// cored with the mask-based core engine and disjuncts contained in another
/// disjunct are dropped ([`Ucq::minimized`]).  The result is an equivalent
/// most-specific fitting UCQ whose disjuncts are cores and pairwise
/// incomparable under containment.
pub fn most_specific_fitting_minimized(examples: &LabeledExamples) -> Result<Option<Ucq>> {
    Ok(most_specific_fitting(examples)?.map(|q| q.minimized()))
}

/// Verifies that `q` is a most-specific fitting UCQ (Proposition 4.3: `q`
/// fits and is equivalent to `⋃_{e ∈ E⁺} q_e`).
pub fn verify_most_specific_fitting(q: &Ucq, examples: &LabeledExamples) -> Result<bool> {
    if !verify_fitting(q, examples)? {
        return Ok(false);
    }
    if examples.positives().is_empty() {
        return Ok(false);
    }
    let canonical = Ucq::from_examples(examples.positives())?;
    Ok(q.equivalent_to(&canonical)?)
}

/// Verifies (three-valued) that `q` is a most-general fitting UCQ
/// (Proposition 4.4): `q` fits and `({e_{q1},…,e_{qn}}, E⁻)` is a
/// homomorphism duality.  The weak and strong notions coincide for UCQs.
pub fn verify_most_general_fitting(
    q: &Ucq,
    examples: &LabeledExamples,
    budget: &SearchBudget,
) -> Result<Certainty> {
    if !verify_fitting(q, examples)? {
        return Ok(Certainty::No);
    }
    let f: Vec<Example> = q
        .disjuncts()
        .iter()
        .map(|d| d.canonical_example())
        .collect();
    Ok(check_hom_duality(&f, examples.negatives(), &budget.duality).certainty)
}

/// Verifies (three-valued) that `q` is the unique fitting UCQ
/// (Proposition 4.5): `q` is equivalent to `⋃_{e ∈ E⁺} q_e` and `(E⁺, E⁻)` is
/// a homomorphism duality.
pub fn verify_unique_fitting(
    q: &Ucq,
    examples: &LabeledExamples,
    budget: &SearchBudget,
) -> Result<Certainty> {
    if !verify_most_specific_fitting(q, examples)? {
        return Ok(Certainty::No);
    }
    Ok(check_hom_duality(examples.positives(), examples.negatives(), &budget.duality).certainty)
}

/// Decides (three-valued) whether a unique fitting UCQ exists
/// (Proposition 4.5, Theorem 4.8): iff `⋃_{e ∈ E⁺} q_e` fits and `(E⁺, E⁻)`
/// is a homomorphism duality.
pub fn unique_fitting_exists(
    examples: &LabeledExamples,
    budget: &SearchBudget,
) -> Result<Certainty> {
    if examples.positives().is_empty() || !fitting_exists(examples)? {
        return Ok(Certainty::No);
    }
    Ok(check_hom_duality(examples.positives(), examples.negatives(), &budget.duality).certainty)
}

/// Constructs the unique fitting UCQ when its existence can be certified.
pub fn construct_unique_fitting(
    examples: &LabeledExamples,
    budget: &SearchBudget,
) -> Result<Option<Ucq>> {
    match unique_fitting_exists(examples, budget)? {
        Certainty::Yes => most_specific_fitting(examples),
        _ => Ok(None),
    }
}

/// Decides (three-valued) whether a most-general fitting UCQ exists
/// (Theorem 4.6(2), NP-complete).
///
/// The implemented procedure answers `No` when no fitting UCQ exists, `Yes`
/// when the most-specific fitting UCQ can be certified to be most-general
/// (in particular on unary-only schemas, where the duality check is
/// exhaustive), and `Unknown` otherwise.
pub fn most_general_fitting_exists(
    examples: &LabeledExamples,
    budget: &SearchBudget,
) -> Result<Certainty> {
    if !fitting_exists(examples)? {
        return Ok(Certainty::No);
    }
    if let Some(candidate) = most_specific_fitting(examples)? {
        if verify_most_general_fitting(&candidate, examples, budget)? == Certainty::Yes {
            return Ok(Certainty::Yes);
        }
    }
    Ok(Certainty::Unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::{parse_example, Schema};
    use cqfit_query::{parse_cq, Ucq};
    use std::sync::Arc;

    fn labeled(schema: &Arc<Schema>, pos: &[&str], neg: &[&str]) -> LabeledExamples {
        LabeledExamples::new(
            pos.iter()
                .map(|t| parse_example(schema, t).unwrap())
                .collect(),
            neg.iter()
                .map(|t| parse_example(schema, t).unwrap())
                .collect(),
        )
        .unwrap()
    }

    /// Example 4.1 of the paper: a fitting UCQ exists although no fitting CQ
    /// does, and q = (P∧Q) ∪ (P∧R) is the unique fitting UCQ.
    #[test]
    fn paper_example_4_1() {
        let schema = Schema::binary_schema(["P", "Q", "R"], []);
        let e = labeled(
            &schema,
            &["P(a)\nQ(a)", "P(a)\nR(a)"],
            &["P(a)\nQ(b)\nR(b)"],
        );
        // No fitting CQ…
        assert!(!crate::cq::fitting_exists(&e).unwrap());
        // …but a fitting UCQ.
        assert!(fitting_exists(&e).unwrap());
        let q = Ucq::new(vec![
            parse_cq(&schema, "q() :- P(x), Q(x)").unwrap(),
            parse_cq(&schema, "q() :- P(x), R(x)").unwrap(),
        ])
        .unwrap();
        assert!(verify_fitting(&q, &e).unwrap());
        assert!(verify_most_specific_fitting(&q, &e).unwrap());
        let budget = SearchBudget::default();
        assert_eq!(
            verify_most_general_fitting(&q, &e, &budget).unwrap(),
            Certainty::Yes
        );
        assert_eq!(
            verify_unique_fitting(&q, &e, &budget).unwrap(),
            Certainty::Yes
        );
        assert_eq!(unique_fitting_exists(&e, &budget).unwrap(), Certainty::Yes);
        let constructed = construct_unique_fitting(&e, &budget).unwrap().unwrap();
        assert!(constructed.equivalent_to(&q).unwrap());
        assert_eq!(
            most_general_fitting_exists(&e, &budget).unwrap(),
            Certainty::Yes
        );
    }

    #[test]
    fn existence_fails_when_positive_maps_to_negative() {
        let schema = Schema::digraph();
        let e = labeled(&schema, &["R(a,b)"], &["R(a,b)\nR(b,c)"]);
        assert!(!fitting_exists(&e).unwrap());
        assert!(most_specific_fitting(&e).unwrap().is_none());
        assert_eq!(
            unique_fitting_exists(&e, &SearchBudget::default()).unwrap(),
            Certainty::No
        );
    }

    #[test]
    fn most_specific_is_union_of_positives() {
        let schema = Schema::digraph();
        // Positives: directed 3- and 5-cycles; negative: the 2-cycle.
        let c3_text = "R(a,b)\nR(b,c)\nR(c,a)";
        let c5_text = "R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,a)";
        let e = labeled(&schema, &[c3_text, c5_text], &["R(a,b)\nR(b,a)"]);
        let ms = most_specific_fitting(&e).unwrap().unwrap();
        assert_eq!(ms.len(), 2);
        assert!(verify_most_specific_fitting(&ms, &e).unwrap());
        // The single-disjunct 15-cycle also fits (C15 maps homomorphically to
        // both positives, being divisible by 3 and 5, and not to the 2-cycle)
        // and is strictly more general, hence not most-specific.
        let mut cycle15 = String::new();
        for i in 0..15 {
            cycle15.push_str(&format!("R(v{}, v{})\n", i, (i + 1) % 15));
        }
        let c15_cq =
            cqfit_query::Cq::from_example(&cqfit_data::parse_example(&schema, &cycle15).unwrap())
                .unwrap();
        let c15 = Ucq::new(vec![c15_cq]).unwrap();
        assert!(verify_fitting(&c15, &e).unwrap());
        assert!(!verify_most_specific_fitting(&c15, &e).unwrap());
    }

    /// The minimized most-specific fitting cores each disjunct and prunes
    /// contained ones, while remaining a most-specific fitting.
    #[test]
    fn minimized_most_specific_cores_and_prunes() {
        let schema = Schema::digraph();
        // First positive: C3 plus a redundant pendant path (folds into the
        // cycle); second positive: C3 again (its canonical CQ is contained in
        // the first's after coring, so pruning drops one disjunct).
        let c3_padded = "R(a,b)\nR(b,c)\nR(c,a)\nR(a,d)\nR(d,e)";
        let c3 = "R(a,b)\nR(b,c)\nR(c,a)";
        let e = labeled(&schema, &[c3_padded, c3], &["R(a,b)\nR(b,a)"]);
        let plain = most_specific_fitting(&e).unwrap().unwrap();
        assert_eq!(plain.len(), 2);
        let minimized = most_specific_fitting_minimized(&e).unwrap().unwrap();
        assert_eq!(minimized.len(), 1, "equivalent disjuncts collapse");
        assert_eq!(minimized.disjuncts()[0].num_variables(), 3);
        assert!(minimized.equivalent_to(&plain).unwrap());
        assert!(verify_most_specific_fitting(&minimized, &e).unwrap());
    }

    #[test]
    fn ucq_fitting_more_liberal_than_cq() {
        // Two incomparable positives and the empty instance as the negative
        // example: the direct product of the positives is empty and maps into
        // the negative, so no CQ fits, but the union of the positives does.
        let schema = Schema::binary_schema(["P", "Q"], []);
        let e = labeled(&schema, &["P(a)", "Q(a)"], &["# empty"]);
        assert!(!crate::cq::fitting_exists(&e).unwrap());
        assert!(fitting_exists(&e).unwrap());
        let ms = most_specific_fitting(&e).unwrap().unwrap();
        assert!(verify_fitting(&ms, &e).unwrap());
    }

    #[test]
    fn empty_positives_delegate_to_cq() {
        let schema = Schema::digraph();
        let e = labeled(&schema, &[], &["R(a,a)"]);
        assert!(!fitting_exists(&e).unwrap());
        let e2 = labeled(&schema, &[], &["R(a,b)"]);
        assert!(fitting_exists(&e2).unwrap());
        assert!(most_specific_fitting(&e2).unwrap().is_none());
    }

    #[test]
    fn incompatible_query_rejected() {
        let schema = Schema::digraph();
        let e = labeled(&schema, &["R(a,b)"], &[]);
        let unary = Ucq::new(vec![parse_cq(&schema, "q(x) :- R(x,y)").unwrap()]).unwrap();
        assert_eq!(
            verify_fitting(&unary, &e).unwrap_err(),
            FitError::Incompatible
        );
    }
}
