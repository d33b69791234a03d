//! Fitting problems for conjunctive queries (Section 3 of the paper).
//!
//! The central characterizations used here:
//!
//! * **Arbitrary / most-specific fittings** (Theorem 3.3, Proposition 3.5):
//!   if any CQ fits `E`, then the canonical CQ of the direct product
//!   `Π E⁺` fits, and it is the (unique up to equivalence) most-specific
//!   fitting CQ.
//! * **Weakly most-general fittings** (Proposition 3.11): a fitting `q` is
//!   weakly most-general iff it has a frontier all of whose members map
//!   homomorphically into a negative example.
//! * **Bases of most-general fittings** (Proposition 3.29): `{q1,…,qn}` is a
//!   basis iff each `q_i` fits and `({e_{q1},…,e_{qn}}, E⁻)` is a
//!   homomorphism duality relative to `Π E⁺`.
//! * **Unique fittings** (Proposition 3.34): a unique fitting is exactly a
//!   fitting that is both most-specific and weakly most-general.

use crate::{Certainty, FitError, Result, SearchBudget};
use cqfit_data::{Example, LabeledExamples, Schema};
use cqfit_duality::{check_relativized_duality, frontier_examples, FrontierError};
use cqfit_hom::{hom_exists, hom_exists_cross, product_of};
use cqfit_query::Cq;
use std::sync::Arc;

/// True if the example maps homomorphically into *some* negative example.
fn maps_into_some_negative(e: &Example, examples: &LabeledExamples) -> bool {
    examples.negatives().iter().any(|neg| hom_exists(e, neg))
}

/// For each source, whether it maps homomorphically into *some* target.
fn cross_product_hom_flags(srcs: &[Example], dsts: &[Example]) -> Vec<bool> {
    let src_refs: Vec<&Example> = srcs.iter().collect();
    let dst_refs: Vec<&Example> = dsts.iter().collect();
    let cross = hom_exists_cross(&src_refs, &dst_refs);
    (0..srcs.len()).map(|i| cross.any_in_row(i)).collect()
}

/// The schema and arity of a non-empty collection of labeled examples.
fn schema_and_arity(examples: &LabeledExamples) -> Result<(Arc<Schema>, usize)> {
    match (examples.schema(), examples.arity()) {
        (Some(s), Some(k)) => Ok((s.clone(), k)),
        _ => Err(FitError::Incompatible),
    }
}

/// The direct product of the positive examples, `Π_{e ∈ E⁺}(e)`
/// (the product of the empty family is the one-element example carrying all
/// facts).  This pointed instance is a data example iff some CQ fits the
/// positive examples.
pub fn product_of_positives(examples: &LabeledExamples) -> Result<Example> {
    let (schema, arity) = schema_and_arity(examples)?;
    Ok(product_of(&schema, arity, examples.positives())?)
}

/// Does the query fit the examples: is every positive example a positive
/// example for `q` and every negative example a negative one?
/// (Verification problem for arbitrary fittings, Theorem 3.1.)
pub fn verify_fitting(q: &Cq, examples: &LabeledExamples) -> Result<bool> {
    if let (Some(schema), Some(arity)) = (examples.schema(), examples.arity()) {
        if q.schema().as_ref() != schema.as_ref() || q.arity() != arity {
            return Err(FitError::Incompatible);
        }
    }
    Ok(examples.positives().iter().all(|e| q.is_satisfied_in(e))
        && !examples.negatives().iter().any(|e| q.is_satisfied_in(e)))
}

/// Does *some* CQ fit the examples?  (Existence problem, Theorem 3.2.)
///
/// By Theorem 3.3 this holds iff `Π E⁺` is a data example that does not map
/// homomorphically into any negative example; the per-negative checks stop
/// at the first negative that admits a homomorphism.
pub fn fitting_exists(examples: &LabeledExamples) -> Result<bool> {
    let product = product_of_positives(examples)?;
    if !product.is_data_example() {
        return Ok(false);
    }
    Ok(!maps_into_some_negative(&product, examples))
}

/// Constructs a fitting CQ if one exists: the canonical CQ of `Π E⁺`
/// (Theorem 3.3).  The result, when it exists, is a most-specific fitting
/// (Proposition 3.5).
pub fn construct_fitting(examples: &LabeledExamples) -> Result<Option<Cq>> {
    let product = product_of_positives(examples)?;
    if !product.is_data_example() {
        return Ok(None);
    }
    if maps_into_some_negative(&product, examples) {
        return Ok(None);
    }
    Ok(Some(Cq::from_example(&product)?))
}

/// Constructs the most-specific fitting CQ if one exists (Proposition 3.5:
/// most-specific fittings exist exactly when fittings exist, and the
/// canonical CQ of `Π E⁺` is one).
pub fn most_specific_fitting(examples: &LabeledExamples) -> Result<Option<Cq>> {
    construct_fitting(examples)
}

/// [`construct_fitting`] with the output minimized: the canonical CQ of the
/// *core* of `Π E⁺`, computed with the mask-based core engine
/// (`cqfit_hom::core_of`).
///
/// Exactness is unchanged — the core is homomorphically equivalent to the
/// product, so it is a data example exactly when the product is, it maps
/// into a negative example exactly when the product does (the per-negative
/// checks below run on the smaller core), and its canonical CQ is equivalent
/// to the uncored fitting.  The size claims of Theorems 3.40–3.42 are claims
/// about precisely this core.
pub fn construct_fitting_minimized(examples: &LabeledExamples) -> Result<Option<Cq>> {
    let product = product_of_positives(examples)?;
    if !product.is_data_example() {
        return Ok(None);
    }
    let core = cqfit_hom::core_of(&product);
    debug_assert!(core.is_data_example());
    if maps_into_some_negative(&core, examples) {
        return Ok(None);
    }
    Ok(Some(Cq::from_example(&core)?))
}

/// [`most_specific_fitting`] with the output minimized; see
/// [`construct_fitting_minimized`].
pub fn most_specific_fitting_minimized(examples: &LabeledExamples) -> Result<Option<Cq>> {
    construct_fitting_minimized(examples)
}

/// Verifies that `q` is a most-specific fitting CQ for the examples
/// (Proposition 3.5: `q` fits and is equivalent to the canonical CQ of
/// `Π E⁺`).
pub fn verify_most_specific_fitting(q: &Cq, examples: &LabeledExamples) -> Result<bool> {
    if !verify_fitting(q, examples)? {
        return Ok(false);
    }
    let product = product_of_positives(examples)?;
    // q fits, so the product is a data example (Theorem 3.3).
    let product_cq = Cq::from_example(&product)?;
    Ok(q.equivalent_to(&product_cq)?)
}

/// One generalization step in the homomorphism pre-order, used by the
/// bounded searches for weakly most-general fittings and bases.
enum GeneralizeStep {
    /// The query is already weakly most-general fitting.
    AlreadyMostGeneral,
    /// Strictly more general fitting CQs, one per frontier member that still
    /// fits the examples.
    MoreGeneral(Vec<Cq>),
    /// The query is not weakly most-general, but no *safe* frontier member
    /// fits, or the query has no frontier; the bounded search cannot proceed.
    Stuck,
}

/// Computes the fitting frontier members of (the core of) `q`.
fn generalize(q: &Cq, examples: &LabeledExamples) -> Result<GeneralizeStep> {
    let core = q.core();
    let members = match frontier_examples(&core) {
        Ok(m) => m,
        Err(FrontierError::NoFrontierExists) => return Ok(GeneralizeStep::Stuck),
        Err(FrontierError::RequiresUnp) => return Err(FitError::RequiresUnp),
        Err(e) => return Err(e.into()),
    };
    // A frontier member "fails" for weak most-generality exactly if it does
    // not map into any negative example (Proposition 3.11).
    let maps_to_negative = cross_product_hom_flags(&members, examples.negatives());
    let mut failing_safe = Vec::new();
    let mut failing_unsafe = 0usize;
    for (mi, m) in members.iter().enumerate() {
        if maps_to_negative[mi] {
            continue;
        }
        if m.is_data_example() {
            // The member also maps into every positive example (it maps into
            // q's canonical example, which maps into every positive), so it
            // is a strictly more general fitting CQ.
            failing_safe.push(Cq::from_example(m)?);
        } else {
            failing_unsafe += 1;
        }
    }
    if failing_safe.is_empty() && failing_unsafe == 0 {
        Ok(GeneralizeStep::AlreadyMostGeneral)
    } else if failing_safe.is_empty() {
        Ok(GeneralizeStep::Stuck)
    } else {
        Ok(GeneralizeStep::MoreGeneral(failing_safe))
    }
}

/// Verifies that `q` is a weakly most-general fitting CQ (Proposition 3.11,
/// Theorem 3.12): `q` fits, its core is c-acyclic, and every frontier member
/// maps homomorphically into a negative example.
///
/// # Errors
/// Fails with [`FitError::RequiresUnp`] if `q` repeats answer variables (the
/// frontier construction implemented here requires the UNP).
pub fn verify_weakly_most_general(q: &Cq, examples: &LabeledExamples) -> Result<bool> {
    if !verify_fitting(q, examples)? {
        return Ok(false);
    }
    let core = q.core();
    let members = match frontier_examples(&core) {
        Ok(m) => m,
        Err(FrontierError::NoFrontierExists) => return Ok(false),
        Err(FrontierError::RequiresUnp) => return Err(FitError::RequiresUnp),
        Err(e) => return Err(e.into()),
    };
    // The first failing member settles the answer.
    Ok(members.iter().all(|m| maps_into_some_negative(m, examples)))
}

/// Bounded-complete existence check for weakly most-general fitting CQs
/// (Theorem 3.13 shows the problem ExpTime-complete).
///
/// The search starts from the most-specific fitting CQ and repeatedly
/// replaces the current fitting by a strictly more general fitting frontier
/// member; it answers `Yes` when a weakly most-general fitting is reached,
/// `No` when no fitting exists at all, and `Unknown` when the budget is
/// exhausted or the greedy chain gets stuck.
pub fn weakly_most_general_exists(
    examples: &LabeledExamples,
    budget: &SearchBudget,
) -> Result<Certainty> {
    Ok(match construct_weakly_most_general(examples, budget)? {
        Some(_) => Certainty::Yes,
        None => {
            if !fitting_exists(examples)? {
                Certainty::No
            } else {
                Certainty::Unknown
            }
        }
    })
}

/// Bounded-complete construction of a weakly most-general fitting CQ; see
/// [`weakly_most_general_exists`].  Returns `None` if no fitting exists or
/// the budget is exhausted.
pub fn construct_weakly_most_general(
    examples: &LabeledExamples,
    budget: &SearchBudget,
) -> Result<Option<Cq>> {
    let Some(mut current) = construct_fitting(examples)? else {
        return Ok(None);
    };
    for _ in 0..budget.max_generalization_steps {
        match generalize(&current, examples)? {
            GeneralizeStep::AlreadyMostGeneral => return Ok(Some(current.core())),
            GeneralizeStep::MoreGeneral(mut next) => {
                // Greedy: follow the smallest more-general candidate.
                next.sort_by_key(Cq::size);
                let candidate = next.swap_remove(0);
                if candidate.size() > budget.max_query_size {
                    return Ok(None);
                }
                current = candidate;
            }
            GeneralizeStep::Stuck => return Ok(None),
        }
    }
    Ok(None)
}

/// Verifies that `q` is a *unique* fitting CQ (Proposition 3.34: `q` is a
/// most-specific and weakly most-general fitting).
pub fn verify_unique_fitting(q: &Cq, examples: &LabeledExamples) -> Result<bool> {
    Ok(verify_most_specific_fitting(q, examples)? && verify_weakly_most_general(q, examples)?)
}

/// Decides whether a unique fitting CQ exists (Theorem 3.35): the canonical
/// CQ of `Π E⁺` must fit and be weakly most-general.
pub fn unique_fitting_exists(examples: &LabeledExamples) -> Result<bool> {
    match construct_fitting(examples)? {
        None => Ok(false),
        Some(q) => verify_weakly_most_general(&q, examples),
    }
}

/// Constructs the unique fitting CQ if one exists.
pub fn construct_unique_fitting(examples: &LabeledExamples) -> Result<Option<Cq>> {
    match construct_fitting(examples)? {
        None => Ok(None),
        Some(q) => {
            if verify_weakly_most_general(&q, examples)? {
                Ok(Some(q))
            } else {
                Ok(None)
            }
        }
    }
}

/// Verifies (three-valued) that `basis` is a basis of most-general fitting
/// CQs for the examples (Proposition 3.29, Theorem 3.31): each member fits
/// and `({e_{q1},…,e_{qn}}, E⁻)` is a homomorphism duality relative to
/// `Π E⁺`.
///
/// The exact parts of the check are: fitting of every member, coverage of the
/// most-specific fitting, and the certified-counterexample refutations of the
/// underlying duality check.  A `Yes` answer is produced only when the
/// duality check is exhaustive (see [`cqfit_duality::check_relativized_duality`]).
pub fn verify_basis(
    basis: &[Cq],
    examples: &LabeledExamples,
    budget: &SearchBudget,
) -> Result<Certainty> {
    for q in basis {
        if !verify_fitting(q, examples)? {
            return Ok(Certainty::No);
        }
    }
    let product = product_of_positives(examples)?;
    if !product.is_data_example() || maps_into_some_negative(&product, examples) {
        // No fitting CQ exists: the empty basis (and only it) is valid.
        return Ok(if basis.is_empty() {
            Certainty::Yes
        } else {
            Certainty::No
        });
    }
    if basis.is_empty() {
        return Ok(Certainty::No);
    }
    // Exact necessary condition: the most-specific fitting must be contained
    // in some member.
    let most_specific = Cq::from_example(&product)?;
    let covered = basis
        .iter()
        .map(|q| most_specific.is_contained_in(q))
        .collect::<cqfit_query::Result<Vec<bool>>>()?;
    if !covered.into_iter().any(|b| b) {
        return Ok(Certainty::No);
    }
    let f: Vec<Example> = basis.iter().map(Cq::canonical_example).collect();
    let outcome = check_relativized_duality(&f, examples.negatives(), &product, &budget.duality);
    Ok(outcome.certainty)
}

/// Bounded-complete existence check for a (finite) basis of most-general
/// fitting CQs (Theorem 3.31 shows the problem NExpTime-complete).
///
/// When no fitting CQ exists the empty basis trivially works and the answer
/// is `Yes`.  Otherwise the procedure tries to construct a basis within the
/// budget (see [`construct_basis`]) and verifies it.
pub fn basis_exists(examples: &LabeledExamples, budget: &SearchBudget) -> Result<Certainty> {
    if !fitting_exists(examples)? {
        return Ok(Certainty::Yes);
    }
    match construct_basis(examples, budget)? {
        Some(_) => Ok(Certainty::Yes),
        None => Ok(Certainty::Unknown),
    }
}

/// Bounded-complete construction of a basis of most-general fitting CQs: a
/// breadth-first exploration of the generalization order above the
/// most-specific fitting, collecting weakly most-general fittings, followed
/// by the (three-valued) basis verification.  Returns `Some(basis)` only if
/// the verification answered `Yes` within the budget.
pub fn construct_basis(
    examples: &LabeledExamples,
    budget: &SearchBudget,
) -> Result<Option<Vec<Cq>>> {
    let Some(start) = construct_fitting(examples)? else {
        return Ok(Some(Vec::new()));
    };
    let mut queue = vec![start.core()];
    let mut visited: Vec<Cq> = Vec::new();
    let mut collected: Vec<Cq> = Vec::new();
    let mut steps = 0usize;
    while let Some(q) = queue.pop() {
        steps += 1;
        if steps > budget.max_candidates {
            return Ok(None);
        }
        if visited
            .iter()
            .map(|v| v.equivalent_to(&q))
            .collect::<cqfit_query::Result<Vec<bool>>>()?
            .into_iter()
            .any(|b| b)
        {
            continue;
        }
        visited.push(q.clone());
        match generalize(&q, examples)? {
            GeneralizeStep::AlreadyMostGeneral => collected.push(q),
            GeneralizeStep::MoreGeneral(next) => {
                for n in next {
                    if n.size() <= budget.max_query_size {
                        queue.push(n);
                    } else {
                        return Ok(None);
                    }
                }
            }
            GeneralizeStep::Stuck => return Ok(None),
        }
    }
    if collected.is_empty() {
        return Ok(None);
    }
    // Keep only the most general representatives.
    let mut basis: Vec<Cq> = Vec::new();
    'outer: for q in collected {
        for other in &basis {
            if q.is_contained_in(other)? {
                continue 'outer;
            }
        }
        basis.retain(|other| !other.is_contained_in(&q).unwrap_or(false));
        basis.push(q);
    }
    match verify_basis(&basis, examples, budget)? {
        Certainty::Yes => Ok(Some(basis)),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::{parse_example, Instance};
    use cqfit_query::parse_cq;

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

    /// Example 3.6 of the paper: most-specific fitting over a ternary/unary
    /// schema.
    #[test]
    fn paper_example_3_6_most_specific() {
        let schema = Arc::new(Schema::new([("R", 3), ("P", 1)]).unwrap());
        let e = labeled(&schema, &["R(a,a,b)\nP(a)", "R(c,d,d)\nP(c)"], &[]);
        // The negative example is the empty instance; an empty instance has
        // an empty active domain, so we model it as "no negative examples"
        // plus the observation below (every Boolean CQ with at least one
        // atom already fails on the empty instance).
        let q1 = parse_cq(&schema, "q() :- R(x,y,z)").unwrap();
        let q2 = parse_cq(&schema, "q() :- R(x,y,z), P(x)").unwrap();
        assert!(verify_fitting(&q1, &e).unwrap());
        assert!(verify_fitting(&q2, &e).unwrap());
        assert!(!verify_most_specific_fitting(&q1, &e).unwrap());
        assert!(verify_most_specific_fitting(&q2, &e).unwrap());
        let constructed = most_specific_fitting(&e).unwrap().unwrap();
        assert!(constructed.equivalent_to(&q2).unwrap());
    }

    /// Example 3.10(1–2): strongly/weakly most-general fittings with only
    /// negative examples.
    #[test]
    fn paper_example_3_10_most_general() {
        let schema = Schema::binary_schema(["P", "Q"], ["R"]);
        // (1) E⁻ = {P(a), Q(a)}: q() :- R(x,y) is strongly most-general.
        let e1 = labeled(&schema, &[], &["P(a)\nQ(a)"]);
        let q_edge = parse_cq(&schema, "q() :- R(x,y)").unwrap();
        assert!(verify_weakly_most_general(&q_edge, &e1).unwrap());
        // It is a singleton basis; verification must not refute it.
        let budget = SearchBudget::default();
        assert_ne!(
            verify_basis(std::slice::from_ref(&q_edge), &e1, &budget).unwrap(),
            Certainty::No
        );

        // (2) E⁻ = {P(a)}, {Q(a)}: both R(x,y) and P(x)∧Q(y) are weakly
        // most-general.
        let e2 = labeled(&schema, &[], &["P(a)", "Q(a)"]);
        let q_pq = parse_cq(&schema, "q() :- P(x), Q(y)").unwrap();
        assert!(verify_weakly_most_general(&q_edge, &e2).unwrap());
        assert!(verify_weakly_most_general(&q_pq, &e2).unwrap());
        // A query that fits but is not weakly most-general:
        let q_specific = parse_cq(&schema, "q() :- P(x), Q(x)").unwrap();
        assert!(verify_fitting(&q_specific, &e2).unwrap());
        assert!(!verify_weakly_most_general(&q_specific, &e2).unwrap());
    }

    /// Example 3.10(3): over the schema {R}, E⁻ = {K2} has fitting CQs but no
    /// weakly most-general one; the bounded search must not claim `Yes`.
    #[test]
    fn paper_example_3_10_3_no_most_general() {
        let schema = Schema::digraph();
        let e = labeled(&schema, &[], &["R(a,b)\nR(b,a)"]);
        assert!(fitting_exists(&e).unwrap());
        let verdict = weakly_most_general_exists(&e, &SearchBudget::default()).unwrap();
        assert_ne!(verdict, Certainty::Yes);
        // An odd cycle fits but is not weakly most-general (its frontier
        // contains a longer odd cycle that still fits).
        let c3 = parse_cq(&schema, "q() :- R(x,y), R(y,z), R(z,x)").unwrap();
        assert!(verify_fitting(&c3, &e).unwrap());
        assert!(!verify_weakly_most_general(&c3, &e).unwrap());
    }

    /// Example 3.10(4): adding K2 to the negatives of (2) keeps P(x)∧Q(y)
    /// weakly most-general.
    #[test]
    fn paper_example_3_10_4() {
        let schema = Schema::binary_schema(["P", "Q"], ["R"]);
        let e = labeled(&schema, &[], &["R(a,b)\nR(b,a)", "P(a)", "Q(a)"]);
        let q_pq = parse_cq(&schema, "q() :- P(x), Q(y)").unwrap();
        assert!(verify_weakly_most_general(&q_pq, &e).unwrap());
        let q_edge = parse_cq(&schema, "q() :- R(x,y)").unwrap();
        assert!(!verify_weakly_most_general(&q_edge, &e).unwrap());
    }

    /// Example 3.33: a unique fitting CQ.
    #[test]
    fn paper_example_3_33_unique() {
        let schema = Schema::digraph();
        let e = labeled(
            &schema,
            &["R(a,b)\nR(b,a)\nR(b,b)\n* b"],
            &["R(a,b)\nR(b,a)\nR(b,b)\n* a"],
        );
        let q = parse_cq(&schema, "q(x) :- R(x,x)").unwrap();
        assert!(verify_unique_fitting(&q, &e).unwrap());
        assert!(unique_fitting_exists(&e).unwrap());
        let constructed = construct_unique_fitting(&e).unwrap().unwrap();
        assert!(constructed.equivalent_to(&q).unwrap());
        // Weakly most-general construction also converges to it.
        let wmg = construct_weakly_most_general(&e, &SearchBudget::default())
            .unwrap()
            .unwrap();
        assert!(wmg.equivalent_to(&q).unwrap());
    }

    /// No fitting exists when a positive example maps into a negative one in
    /// the Boolean case (here: positives force too little).
    #[test]
    fn fitting_nonexistence() {
        let schema = Schema::digraph();
        // Positive: a single edge; negative: a path of length 2.  The product
        // of positives (the edge) maps into the path, so nothing fits.
        let e = labeled(&schema, &["R(a,b)"], &["R(a,b)\nR(b,c)"]);
        assert!(!fitting_exists(&e).unwrap());
        assert!(construct_fitting(&e).unwrap().is_none());
        assert!(!unique_fitting_exists(&e).unwrap());
        assert_eq!(
            weakly_most_general_exists(&e, &SearchBudget::default()).unwrap(),
            Certainty::No
        );
        // The empty basis is the only basis.
        assert_eq!(
            verify_basis(&[], &e, &SearchBudget::default()).unwrap(),
            Certainty::Yes
        );
        assert_eq!(
            basis_exists(&e, &SearchBudget::default()).unwrap(),
            Certainty::Yes
        );
    }

    /// Fitting with two positive examples requires the direct product
    /// (odd-girth style): C3 and C5 as positives, K2-ish negative.
    #[test]
    fn product_fitting_two_cycles() {
        let schema = Schema::digraph();
        let c3 = "R(a,b)\nR(b,c)\nR(c,a)";
        let c5 = "R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,a)";
        let neg = "R(a,b)\nR(b,a)";
        let e = labeled(&schema, &[c3, c5], &[neg]);
        assert!(fitting_exists(&e).unwrap());
        let q = construct_fitting(&e).unwrap().unwrap();
        assert!(verify_fitting(&q, &e).unwrap());
        // The fitting is a directed cycle of length 15 (up to equivalence):
        // its core has 15 variables.
        assert_eq!(q.core().num_variables(), 15);
    }

    /// The minimized construction returns the core of the product directly:
    /// equivalent to the plain construction, already a core, and still a
    /// (most-specific) fitting.
    #[test]
    fn minimized_fitting_is_cored_and_equivalent() {
        let schema = Schema::digraph();
        // Positives whose product (C3 × C9) properly folds: gcd(3,9) = 3
        // disjoint copies of C9, which core to a single C9.
        let c3 = "R(a,b)\nR(b,c)\nR(c,a)";
        let c9 = "R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,f)\nR(f,g)\nR(g,h)\nR(h,i)\nR(i,a)";
        let e = labeled(&schema, &[c3, c9], &["R(a,b)\nR(b,a)"]);
        let plain = construct_fitting(&e).unwrap().unwrap();
        let minimized = construct_fitting_minimized(&e).unwrap().unwrap();
        assert!(minimized.equivalent_to(&plain).unwrap());
        assert!(verify_fitting(&minimized, &e).unwrap());
        assert!(verify_most_specific_fitting(&minimized, &e).unwrap());
        assert!(cqfit_hom::is_core(&minimized.canonical_example()));
        assert!(minimized.num_variables() < plain.num_variables());
        assert_eq!(minimized.num_variables(), 9);
        // Same answers when no fitting exists.
        let none = labeled(&schema, &["R(a,b)"], &["R(a,b)\nR(b,c)"]);
        assert!(construct_fitting_minimized(&none).unwrap().is_none());
        assert!(most_specific_fitting_minimized(&none).unwrap().is_none());
    }

    #[test]
    fn verify_fitting_rejects_incompatible_query() {
        let schema = Schema::digraph();
        let e = labeled(&schema, &["R(a,b)"], &[]);
        let unary = parse_cq(&schema, "q(x) :- R(x,y)").unwrap();
        assert_eq!(
            verify_fitting(&unary, &e).unwrap_err(),
            FitError::Incompatible
        );
    }

    #[test]
    fn empty_positive_set_uses_top_product() {
        let schema = Schema::digraph();
        // Negative: the one-element loop.  Every CQ maps into it, so no CQ
        // fits.
        let e = labeled(&schema, &[], &["R(a,a)"]);
        assert!(!fitting_exists(&e).unwrap());
        // Negative: a loop-free edge.  The loop query fits.
        let e2 = labeled(&schema, &[], &["R(a,b)"]);
        assert!(fitting_exists(&e2).unwrap());
        let q = construct_fitting(&e2).unwrap().unwrap();
        assert!(verify_fitting(&q, &e2).unwrap());
    }

    #[test]
    fn basis_construction_on_unary_schema() {
        // Over a unary-only schema the duality check is exhaustive, so the
        // bounded basis construction can return a certified basis.
        let schema = Schema::binary_schema(["P", "Q"], []);
        let mut i = Instance::new(schema.clone());
        i.add_fact_labels("P", &["a"]).unwrap();
        i.add_fact_labels("Q", &["a"]).unwrap();
        let pos = Example::boolean(i);
        let mut j = Instance::new(schema.clone());
        j.add_fact_labels("P", &["a"]).unwrap();
        let neg = Example::boolean(j);
        let e = LabeledExamples::new(vec![pos], vec![neg]).unwrap();
        // Fitting CQs must mention Q; the most general one is q() :- Q(x).
        let basis = construct_basis(&e, &SearchBudget::default())
            .unwrap()
            .unwrap();
        assert_eq!(basis.len(), 1);
        let expected = parse_cq(&schema, "q() :- Q(x)").unwrap();
        assert!(basis[0].equivalent_to(&expected).unwrap());
        assert_eq!(
            basis_exists(&e, &SearchBudget::default()).unwrap(),
            Certainty::Yes
        );
    }
}
