//! # cqfit-data
//!
//! Relational data model for the `cqfit` workspace: schemas, instances,
//! pointed instances, data examples and labeled example collections, exactly
//! as defined in Section 2.1 of
//! *ten Cate, Dalmau, Funk, Lutz — Extremal Fitting Problems for Conjunctive
//! Queries (PODS 2023)*.
//!
//! The terminology follows the paper:
//!
//! * A **schema** is a finite set of relation symbols, each with an arity.
//! * A **fact** is `R(a1,…,an)` for values `a1,…,an`.
//! * An **instance** is a finite set of facts over a schema.
//! * A **pointed instance** `(I, ā)` pairs an instance with a tuple of
//!   distinguished values, which may lie outside the active domain.
//! * A **data example** is a pointed instance whose distinguished values all
//!   belong to the active domain.
//! * A **collection of labeled examples** `E = (E⁺, E⁻)` is a pair of finite
//!   sets of data examples of the same schema and arity.
//!
//! Values are dense `u32` indices local to an instance; every value carries a
//! human-readable label used only for display and debugging, so that derived
//! instances (direct products, unravelings, …) remain self-describing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
mod error;
mod example;
mod index;
mod instance;
mod labeled;
mod parse;
mod schema;
mod serde_impls;

pub use canonical::CanonicalHash;
pub use error::DataError;
pub use example::Example;
pub use instance::{Fact, FactId, Instance, Value};
pub use labeled::LabeledExamples;
pub use parse::{parse_example, parse_instance};
pub use schema::{RelId, Relation, Schema, SchemaBuilder};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
