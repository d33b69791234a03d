//! # cqfit-hom
//!
//! The homomorphism toolkit underlying every algorithm of
//! *Extremal Fitting Problems for Conjunctive Queries* (PODS 2023):
//!
//! * homomorphism search between pointed instances (backtracking CSP search
//!   with arc-consistency propagation, Section 2.1),
//! * arc consistency as a standalone procedure (used in the duality tests of
//!   Proposition 4.7),
//! * cores and homomorphic equivalence,
//! * least upper bounds (disjoint unions, Proposition 2.2) and greatest lower
//!   bounds (direct products, Proposition 2.7) in the homomorphism pre-order,
//! * simulations and the simulation pre-order over binary schemas (Section 5),
//! * a canonical-hash keyed result cache for hom-existence and core
//!   computations ([`HomCache`]), shared across requests by the
//!   `cqfit-engine` fitting service.
//!
//! All operations act on [`cqfit_data::Example`] values (pointed instances);
//! plain instances are treated as Boolean examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arc;
mod batch;
mod bitset;
mod cache;
pub mod core;
mod error;
mod ops;
#[doc(hidden)]
pub mod reference;
mod search;
mod simulation;

pub use arc::{arc_consistency_candidates, arc_consistent};
pub use batch::{hom_exists_cross, CrossFlags};
pub use cache::{CacheStats, HomCache};
pub use core::{core_of, hom_equivalent, is_core};
pub use error::HomError;
pub use ops::{direct_product, disjoint_union, disjoint_union_of, product_of, top_example};
pub use search::{
    find_all_homomorphisms, find_all_homomorphisms_with, find_homomorphism, find_homomorphism_with,
    hom_exists, HomConfig, HomSearchStats, Homomorphism,
};
pub use simulation::{max_simulation, simulates, simulation_preorder, SimulationRelation};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HomError>;
