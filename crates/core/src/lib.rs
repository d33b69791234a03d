//! # cqfit
//!
//! A from-scratch implementation of
//! *ten Cate, Dalmau, Funk, Lutz — Extremal Fitting Problems for Conjunctive
//! Queries* (PODS 2023).
//!
//! Given a collection of labeled data examples `E = (E⁺, E⁻)`, the *fitting
//! problem* asks for a query that returns every positive example and none of
//! the negative ones.  This crate implements, for three query classes, the
//! verification, existence and construction problems for
//!
//! * arbitrary fittings,
//! * most-specific fittings,
//! * weakly most-general fittings,
//! * bases of most-general fittings (and strongly most-general fittings as
//!   the singleton case),
//! * unique fittings,
//!
//! following the structural characterizations of the paper (direct products,
//! frontiers, homomorphism dualities and simulation dualities).
//!
//! ## Modules
//!
//! * [`cq`] — conjunctive queries (Section 3),
//! * [`ucq`] — unions of conjunctive queries (Section 4),
//! * [`tree`] — tree CQs over binary schemas (Section 5), including
//!   unravelings and complete initial pieces,
//! * [`incremental`] — incremental CQ/UCQ fitting over evolving example
//!   collections, the state machine behind the `cqfit-engine` service.
//!
//! ## Exactness
//!
//! Everything the paper characterizes by a direct construction is
//! implemented exactly.  Problems that are NExpTime-/ExpTime-complete or
//! `HomDual`-equivalent expose *bounded-complete* procedures that take an
//! explicit [`SearchBudget`] and return a three-valued
//! [`Certainty`] (`Yes` / `No` / `Unknown`); `No` and `Yes` answers are always
//! certified.  `Unknown` means the procedure did not decide: the budget ran
//! out, or it has no route to a certified answer (a greedy generalization
//! chain that gets stuck, a duality check outside its exhaustive fragment).
//! See `DESIGN.md` at the repository root for the full exactness table.
//!
//! ## Quick start
//!
//! ```
//! use cqfit_data::{parse_example, LabeledExamples, Schema};
//! use cqfit::cq;
//!
//! let schema = Schema::digraph();
//! // Positive: a directed triangle; negative: a single loop-free edge.
//! let pos = parse_example(&schema, "R(a,b)\nR(b,c)\nR(c,a)").unwrap();
//! let neg = parse_example(&schema, "R(a,b)").unwrap();
//! let examples = LabeledExamples::new(vec![pos], vec![neg]).unwrap();
//!
//! assert!(cq::fitting_exists(&examples).unwrap());
//! let fit = cq::most_specific_fitting(&examples).unwrap().unwrap();
//! assert!(cq::verify_fitting(&fit, &examples).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cq;
mod error;
pub mod incremental;
pub mod tree;
pub mod ucq;

pub use cqfit_duality::{Certainty, DualityConfig};
pub use error::FitError;

use cqfit_data::Example;
use cqfit_hom::{hom_exists, HomCache};

/// Does some source map homomorphically into some target?  The
/// `|sources| × |targets|` checks run source by source and stop at the first
/// homomorphism.  With a cache, every verdict is served from (or stored in)
/// its content-keyed entry, so the CQ and UCQ questions about one collection
/// share their positive→negative verdicts.
///
/// Asked of `E⁺ × E⁻` it is the UCQ existence test (Proposition 4.2), and
/// every CQ question asks it before searching from `Π E⁺`: each projection
/// `Π E⁺ → e⁺` is a homomorphism, so a positive that maps into a negative
/// takes the product with it and no CQ fits (Theorem 3.3).
pub(crate) fn maps_into_some<'a, T>(
    sources: impl IntoIterator<Item = &'a Example>,
    targets: T,
    cache: Option<&HomCache>,
) -> bool
where
    T: IntoIterator<Item = &'a Example>,
    T::IntoIter: Clone,
{
    let targets = targets.into_iter();
    let mut pairs = sources
        .into_iter()
        .flat_map(|s| targets.clone().map(move |t| (s, t)));
    match cache {
        Some(c) => c.any_hom_exists(&pairs.collect::<Vec<_>>()),
        None => pairs.any(|(s, t)| hom_exists(s, t)),
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FitError>;

/// Resource limits for the bounded-complete search procedures.
///
/// The defaults are calibrated so that every worked example of the paper and
/// every workload used in the test suite is decided exactly; raise them for
/// larger inputs (at an exponential cost, as the underlying problems are
/// NExpTime-/ExpTime-complete).
#[derive(Debug, Clone)]
pub struct SearchBudget {
    /// Maximum number of generalization steps when searching for weakly
    /// most-general fittings.
    pub max_generalization_steps: usize,
    /// Maximum size (variables + atoms) of intermediate candidate queries.
    pub max_query_size: usize,
    /// Maximum number of candidate queries kept during basis search.
    pub max_candidates: usize,
    /// Maximum number of nodes when materialising unravelings and fitting
    /// tree CQs.
    pub max_tree_nodes: usize,
    /// Maximum unraveling depth for tree CQ construction.
    pub max_unraveling_depth: usize,
    /// Configuration of the underlying duality checks.
    pub duality: DualityConfig,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_generalization_steps: 64,
            max_query_size: 4_096,
            max_candidates: 256,
            max_tree_nodes: 100_000,
            max_unraveling_depth: 64,
            duality: DualityConfig::default(),
        }
    }
}
