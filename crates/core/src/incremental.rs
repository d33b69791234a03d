//! Incremental fitting over an evolving collection of labeled examples.
//!
//! The batch entry points of [`crate::cq`] recompute the direct product
//! `Π E⁺` from scratch on every call, but interactive workloads
//! (query-by-example sessions, the `cqfit-engine` service) evolve `E⁺`/`E⁻`
//! one example at a time and re-ask for fittings after each step.
//! [`IncrementalFitting`] maintains that state *incrementally*:
//!
//! * **Adding a positive example extends the product** by one factor
//!   (`Π ← Π × e`, a single [`direct_product`]) instead of refolding the
//!   whole family — the direct product is associative up to isomorphism,
//!   and the left fold used here parenthesizes identically to the batch
//!   [`product_of`], so the maintained product is *structurally equal* to
//!   the from-scratch one as long as no removal intervened.
//! * **Removing a positive example invalidates lazily**: the product is
//!   dropped and rebuilt (as one fold over the surviving positives, in
//!   insertion order) only when the next fitting question arrives.
//!   Products have no useful "division"; eager rebuilding would waste the
//!   work when several removals arrive back-to-back.
//! * **Negative examples never touch the product** — adding or removing
//!   one costs O(1).
//!
//! Every fitting entry point takes an optional [`HomCache`]; with a cache,
//! the per-negative hom checks and the core minimizations are served from
//! the canonical-hash keyed store on repeat (across workspaces and
//! sessions), which is what makes warm re-fits cheap in the engine.
//!
//! The answers are certified against the batch path by
//! `tests/engine_incremental.rs`: after any fixed-seed sequence of
//! add/remove operations, the maintained product is hom-equivalent (in
//! fact structurally equal, modulo the rebuild fold) to the from-scratch
//! product, and every fitting answer matches the batch answer up to query
//! equivalence.

use crate::{FitError, Result};
use cqfit_data::{Example, LabeledExamples, Schema};
use cqfit_hom::{direct_product, hom_exists, product_of, HomCache};
use cqfit_query::{Cq, Ucq};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of an example within an [`IncrementalFitting`] workspace.
pub type ExampleId = u64;

/// An evolving collection of labeled examples with incrementally
/// maintained most-specific-fitting state.  See the module documentation.
#[derive(Debug, Clone)]
pub struct IncrementalFitting {
    schema: Arc<Schema>,
    arity: usize,
    next_id: ExampleId,
    positives: BTreeMap<ExampleId, Example>,
    negatives: BTreeMap<ExampleId, Example>,
    /// The maintained product `Π E⁺`; `None` after a positive removal
    /// (lazy invalidation) until the next question rebuilds it.
    product: Option<Example>,
    /// Bumped on every successful mutation; lets callers (the engine's
    /// per-workspace memo) detect staleness cheaply.
    revision: u64,
}

impl IncrementalFitting {
    /// An empty workspace over the given schema and arity.  The product of
    /// the empty positive family is the top example, as in the batch path.
    pub fn new(schema: Arc<Schema>, arity: usize) -> Self {
        let product = cqfit_hom::top_example(&schema, arity);
        IncrementalFitting {
            schema,
            arity,
            next_id: 0,
            positives: BTreeMap::new(),
            negatives: BTreeMap::new(),
            product: Some(product),
            revision: 0,
        }
    }

    /// The schema of the workspace.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The arity of the workspace.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Rebuilds a workspace from externally persisted state (the restore
    /// path of `cqfit-store` recovery): examples arrive with their original
    /// ids, and the id/revision counters are restored verbatim so clients
    /// holding pre-crash ids keep working and the revision-keyed memos of
    /// the engine stay correct.  The maintained product starts invalidated
    /// (first question rebuilds it by the same id-order fold as the batch
    /// path), so restore cost is proportional to the replayed examples,
    /// not to the product.
    ///
    /// # Errors
    /// Rejects examples failing [`IncrementalFitting::validate_example`],
    /// duplicate ids, and ids at or above `next_id`.
    pub fn from_parts(
        schema: Arc<Schema>,
        arity: usize,
        positives: Vec<(ExampleId, Example)>,
        negatives: Vec<(ExampleId, Example)>,
        next_id: ExampleId,
        revision: u64,
    ) -> Result<Self> {
        let mut inc = IncrementalFitting {
            schema,
            arity,
            next_id,
            positives: BTreeMap::new(),
            negatives: BTreeMap::new(),
            product: None,
            revision,
        };
        let mut seen = std::collections::BTreeSet::new();
        for (polarity_positive, examples) in [(true, positives), (false, negatives)] {
            for (id, e) in examples {
                inc.validate_example(&e)?;
                if id >= next_id {
                    return Err(FitError::Data(cqfit_data::DataError::Parse(format!(
                        "restored example id {id} is not below next_id {next_id}"
                    ))));
                }
                // Ids are drawn from one shared counter, so they must be
                // unique across both polarities, not just within one.
                if !seen.insert(id) {
                    return Err(FitError::Data(cqfit_data::DataError::Parse(format!(
                        "duplicate restored example id {id}"
                    ))));
                }
                let map = if polarity_positive {
                    &mut inc.positives
                } else {
                    &mut inc.negatives
                };
                map.insert(id, e);
            }
        }
        Ok(inc)
    }

    /// The current revision; bumped by every successful mutation.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The id the next added example will receive.
    pub fn next_id(&self) -> ExampleId {
        self.next_id
    }

    /// Number of positive examples.
    pub fn num_positives(&self) -> usize {
        self.positives.len()
    }

    /// Number of negative examples.
    pub fn num_negatives(&self) -> usize {
        self.negatives.len()
    }

    /// The positive examples with their ids, in insertion (id) order.
    pub fn positives(&self) -> impl Iterator<Item = (ExampleId, &Example)> {
        self.positives.iter().map(|(&id, e)| (id, e))
    }

    /// The negative examples with their ids, in insertion (id) order.
    pub fn negatives(&self) -> impl Iterator<Item = (ExampleId, &Example)> {
        self.negatives.iter().map(|(&id, e)| (id, e))
    }

    /// True if the maintained product is currently valid (no rebuild
    /// pending).  Exposed for introspection and tests; questions rebuild
    /// transparently.
    pub fn product_is_fresh(&self) -> bool {
        self.product.is_some()
    }

    /// True if a positive example with this id exists.
    pub fn has_positive(&self, id: ExampleId) -> bool {
        self.positives.contains_key(&id)
    }

    /// True if a negative example with this id exists.
    pub fn has_negative(&self, id: ExampleId) -> bool {
        self.negatives.contains_key(&id)
    }

    /// Checks that an example is admissible for this workspace (right
    /// schema and arity, distinguished tuple inside the active domain) —
    /// the exact validation the add entry points perform.  Exposed so
    /// callers that must order a durable log write *before* the mutation
    /// (the engine's persist-before-ack path) can establish up front that
    /// the subsequent add cannot fail.
    ///
    /// # Errors
    /// The same errors as [`IncrementalFitting::add_positive`].
    pub fn validate_example(&self, e: &Example) -> Result<()> {
        self.validate(e)
    }

    fn validate(&self, e: &Example) -> Result<()> {
        if e.instance().schema().as_ref() != self.schema.as_ref() {
            return Err(FitError::Data(cqfit_data::DataError::SchemaMismatch));
        }
        if e.arity() != self.arity {
            return Err(FitError::Data(
                cqfit_data::DataError::ExampleArityMismatch {
                    left: self.arity,
                    right: e.arity(),
                },
            ));
        }
        if !e.is_data_example() {
            return Err(FitError::Data(
                cqfit_data::DataError::DistinguishedOutsideActiveDomain(format!("{e}")),
            ));
        }
        Ok(())
    }

    /// Adds a positive example, extending the maintained product by one
    /// factor (unless a rebuild is already pending).  Returns the new
    /// example's id.
    ///
    /// # Errors
    /// Rejects examples of the wrong schema or arity, and pointed
    /// instances that are not data examples.
    pub fn add_positive(&mut self, e: Example) -> Result<ExampleId> {
        self.validate(&e)?;
        if let Some(p) = self.product.take() {
            self.product = Some(direct_product(&p, &e)?);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.positives.insert(id, e);
        self.revision += 1;
        Ok(id)
    }

    /// Adds a negative example (never touches the product).  Returns the
    /// new example's id.
    ///
    /// # Errors
    /// Same validation as [`IncrementalFitting::add_positive`].
    pub fn add_negative(&mut self, e: Example) -> Result<ExampleId> {
        self.validate(&e)?;
        let id = self.next_id;
        self.next_id += 1;
        self.negatives.insert(id, e);
        self.revision += 1;
        Ok(id)
    }

    /// Removes a positive example; the maintained product is invalidated
    /// lazily (rebuilt by the next question).  Returns whether the id
    /// existed.
    pub fn remove_positive(&mut self, id: ExampleId) -> bool {
        if self.positives.remove(&id).is_some() {
            self.product = None;
            self.revision += 1;
            true
        } else {
            false
        }
    }

    /// Removes a negative example in O(1).  Returns whether the id existed.
    pub fn remove_negative(&mut self, id: ExampleId) -> bool {
        if self.negatives.remove(&id).is_some() {
            self.revision += 1;
            true
        } else {
            false
        }
    }

    /// A from-scratch snapshot of the current collection (the batch view;
    /// used by the differential tests).
    pub fn labeled_examples(&self) -> LabeledExamples {
        let mut col = LabeledExamples::empty();
        for e in self.positives.values() {
            col.add_positive(e.clone());
        }
        for e in self.negatives.values() {
            col.add_negative(e.clone());
        }
        col
    }

    /// Rebuilds the product if a removal invalidated it; afterwards
    /// `self.product` is always `Some`.  Split from [`Self::product`] so
    /// the fitting entry points can end the mutable borrow here and then
    /// read the product and the negatives through separate shared borrows
    /// (no per-request clone of the product).
    fn ensure_product(&mut self) -> Result<()> {
        if self.product.is_none() {
            let positives: Vec<Example> = self.positives.values().cloned().collect();
            self.product = Some(product_of(&self.schema, self.arity, &positives)?);
        }
        Ok(())
    }

    /// The product `Π E⁺`, rebuilding it first if a removal invalidated
    /// it.  The rebuild folds the surviving positives in id order, exactly
    /// like the batch [`product_of`].
    pub fn product(&mut self) -> Result<&Example> {
        self.ensure_product()?;
        Ok(self.product.as_ref().expect("just ensured"))
    }

    /// Is there a homomorphism from `e` into some negative example?
    fn maps_into_some_negative(&self, e: &Example, cache: Option<&HomCache>) -> bool {
        let pairs: Vec<(&Example, &Example)> =
            self.negatives.values().map(|neg| (e, neg)).collect();
        match cache {
            Some(c) => c.any_hom_exists(&pairs),
            None => pairs.iter().any(|&(s, d)| hom_exists(s, d)),
        }
    }

    fn core_via(cache: Option<&HomCache>, e: &Example) -> Arc<Example> {
        match cache {
            Some(c) => c.core_of(e),
            None => Arc::new(cqfit_hom::core_of(e)),
        }
    }

    /// Does some CQ fit the current collection?  (Incremental counterpart
    /// of [`crate::cq::fitting_exists`].)
    pub fn cq_fitting_exists(&mut self, cache: Option<&HomCache>) -> Result<bool> {
        self.ensure_product()?;
        let product = self.product.as_ref().expect("just ensured");
        if !product.is_data_example() {
            return Ok(false);
        }
        Ok(!self.maps_into_some_negative(product, cache))
    }

    /// Constructs a fitting CQ — the canonical CQ of the maintained
    /// product — if one exists.  (Incremental counterpart of
    /// [`crate::cq::construct_fitting`]; the result is a most-specific
    /// fitting.)
    pub fn cq_construct_fitting(&mut self, cache: Option<&HomCache>) -> Result<Option<Cq>> {
        self.ensure_product()?;
        let product = self.product.as_ref().expect("just ensured");
        if !product.is_data_example() {
            return Ok(None);
        }
        if self.maps_into_some_negative(product, cache) {
            return Ok(None);
        }
        Ok(Some(Cq::from_example(product)?))
    }

    /// [`IncrementalFitting::cq_construct_fitting`] with the output
    /// minimized: the canonical CQ of the *core* of the maintained product
    /// (served from the cache on repeat).  Incremental counterpart of
    /// [`crate::cq::construct_fitting_minimized`].
    pub fn cq_construct_fitting_minimized(
        &mut self,
        cache: Option<&HomCache>,
    ) -> Result<Option<Cq>> {
        self.ensure_product()?;
        let product = self.product.as_ref().expect("just ensured");
        if !product.is_data_example() {
            return Ok(None);
        }
        let core = Self::core_via(cache, product);
        if self.maps_into_some_negative(&core, cache) {
            return Ok(None);
        }
        Ok(Some(Cq::from_example(&core)?))
    }

    /// Does some fitting UCQ exist?  (Incremental counterpart of
    /// [`crate::ucq::fitting_exists`]: no positive maps into a negative;
    /// with an empty `E⁺` this is the CQ existence question.)
    pub fn ucq_fitting_exists(&mut self, cache: Option<&HomCache>) -> Result<bool> {
        if self.positives.is_empty() {
            return self.cq_fitting_exists(cache);
        }
        let pairs: Vec<(&Example, &Example)> = self
            .positives
            .values()
            .flat_map(|pos| self.negatives.values().map(move |neg| (pos, neg)))
            .collect();
        Ok(match cache {
            Some(c) => !c.any_hom_exists(&pairs),
            None => !pairs.iter().any(|&(s, d)| hom_exists(s, d)),
        })
    }

    /// Constructs the most-specific fitting UCQ `⋃_{e ∈ E⁺} q_e` if a
    /// fitting UCQ exists.  (Incremental counterpart of
    /// [`crate::ucq::most_specific_fitting`]; requires a non-empty `E⁺`.)
    pub fn ucq_most_specific_fitting(&mut self, cache: Option<&HomCache>) -> Result<Option<Ucq>> {
        if self.positives.is_empty() {
            return Ok(None);
        }
        if !self.ucq_fitting_exists(cache)? {
            return Ok(None);
        }
        let positives: Vec<Example> = self.positives.values().cloned().collect();
        Ok(Some(Ucq::from_examples(&positives)?))
    }

    /// [`IncrementalFitting::ucq_most_specific_fitting`] with the output
    /// minimized via [`Ucq::minimized_with`]: every disjunct is cored and
    /// the pairwise containment pruning runs with both served from the
    /// cache on repeat.  One copy of the pruning logic serves the cached
    /// and uncached paths.
    pub fn ucq_most_specific_fitting_minimized(
        &mut self,
        cache: Option<&HomCache>,
    ) -> Result<Option<Ucq>> {
        Ok(self
            .ucq_most_specific_fitting(cache)?
            .map(|q| q.minimized_with(cache)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::parse_example;

    fn ex(text: &str) -> Example {
        parse_example(&Schema::digraph(), text).unwrap()
    }

    #[test]
    fn incremental_product_matches_batch() {
        let mut inc = IncrementalFitting::new(Schema::digraph(), 0);
        let c3 = ex("R(a,b)\nR(b,c)\nR(c,a)");
        let c5 = ex("R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,a)");
        inc.add_positive(c3.clone()).unwrap();
        inc.add_positive(c5.clone()).unwrap();
        let batch = product_of(&Schema::digraph(), 0, &[c3, c5]).unwrap();
        let p = inc.product().unwrap();
        assert!(p.instance().same_facts(batch.instance()));
        assert!(inc.product_is_fresh());
    }

    #[test]
    fn removal_invalidates_lazily_and_rebuilds() {
        let mut inc = IncrementalFitting::new(Schema::digraph(), 0);
        let c3 = ex("R(a,b)\nR(b,c)\nR(c,a)");
        let c5 = ex("R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,a)");
        let id3 = inc.add_positive(c3).unwrap();
        inc.add_positive(c5.clone()).unwrap();
        assert!(inc.remove_positive(id3));
        assert!(!inc.product_is_fresh(), "removal invalidates lazily");
        let rev = inc.revision();
        let batch = product_of(&Schema::digraph(), 0, &[c5]).unwrap();
        assert!(inc
            .product()
            .unwrap()
            .instance()
            .same_facts(batch.instance()));
        assert!(inc.product_is_fresh(), "question rebuilt the product");
        assert_eq!(inc.revision(), rev, "rebuild is not a mutation");
        assert!(!inc.remove_positive(id3), "double remove reports absence");
    }

    #[test]
    fn fitting_answers_match_batch_entry_points() {
        let cache = HomCache::new();
        let mut inc = IncrementalFitting::new(Schema::digraph(), 0);
        inc.add_positive(ex("R(a,b)\nR(b,c)\nR(c,a)")).unwrap();
        inc.add_positive(ex("R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,a)"))
            .unwrap();
        inc.add_negative(ex("R(a,b)\nR(b,a)")).unwrap();
        let batch = inc.labeled_examples();
        assert_eq!(
            inc.cq_fitting_exists(Some(&cache)).unwrap(),
            crate::cq::fitting_exists(&batch).unwrap()
        );
        let inc_fit = inc.cq_construct_fitting(Some(&cache)).unwrap().unwrap();
        let batch_fit = crate::cq::construct_fitting(&batch).unwrap().unwrap();
        assert!(inc_fit.equivalent_to(&batch_fit).unwrap());
        let inc_min = inc
            .cq_construct_fitting_minimized(Some(&cache))
            .unwrap()
            .unwrap();
        let batch_min = crate::cq::construct_fitting_minimized(&batch)
            .unwrap()
            .unwrap();
        assert!(inc_min.equivalent_to(&batch_min).unwrap());
        assert_eq!(inc_min.num_variables(), 15);
        // Warm re-ask hits the cache.
        let before = cache.stats();
        let again = inc
            .cq_construct_fitting_minimized(Some(&cache))
            .unwrap()
            .unwrap();
        assert!(again.equivalent_to(&inc_min).unwrap());
        let after = cache.stats();
        assert!(after.core_hits > before.core_hits);
    }

    #[test]
    fn ucq_answers_match_batch_entry_points() {
        let mut inc = IncrementalFitting::new(Schema::digraph(), 0);
        inc.add_positive(ex("R(a,b)\nR(b,c)\nR(c,a)")).unwrap();
        // A 9-cycle: cores to itself, contained in the 3-cycle disjunct.
        inc.add_positive(ex(
            "R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,f)\nR(f,g)\nR(g,h)\nR(h,i)\nR(i,a)",
        ))
        .unwrap();
        inc.add_negative(ex("R(a,b)\nR(b,a)")).unwrap();
        let batch = inc.labeled_examples();
        assert_eq!(
            inc.ucq_fitting_exists(None).unwrap(),
            crate::ucq::fitting_exists(&batch).unwrap()
        );
        let inc_ucq = inc.ucq_most_specific_fitting(None).unwrap().unwrap();
        let batch_ucq = crate::ucq::most_specific_fitting(&batch).unwrap().unwrap();
        assert!(inc_ucq.equivalent_to(&batch_ucq).unwrap());
        let inc_min = inc
            .ucq_most_specific_fitting_minimized(None)
            .unwrap()
            .unwrap();
        let batch_min = crate::ucq::most_specific_fitting_minimized(&batch)
            .unwrap()
            .unwrap();
        assert!(inc_min.equivalent_to(&batch_min).unwrap());
        assert_eq!(
            inc_min.len(),
            batch_min.len(),
            "same disjuncts survive pruning"
        );
    }

    #[test]
    fn validation_rejects_mismatches() {
        let mut inc = IncrementalFitting::new(Schema::digraph(), 1);
        // Wrong arity.
        assert!(inc.add_positive(ex("R(a,b)")).is_err());
        // Wrong schema.
        let other = parse_example(&Schema::binary_schema(["P"], ["R"]), "P(a)\n* a").unwrap();
        assert!(inc.add_positive(other).is_err());
        // Valid example passes.
        assert!(inc.add_positive(ex("R(a,b)\n* a")).is_ok());
        assert_eq!(inc.num_positives(), 1);
    }

    #[test]
    fn from_parts_restores_counters_and_answers() {
        let mut live = IncrementalFitting::new(Schema::digraph(), 0);
        let id3 = live.add_positive(ex("R(a,b)\nR(b,c)\nR(c,a)")).unwrap();
        live.add_positive(ex("R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,a)"))
            .unwrap();
        live.add_negative(ex("R(a,b)\nR(b,a)")).unwrap();
        assert!(live.remove_positive(id3));
        let mut restored = IncrementalFitting::from_parts(
            Schema::digraph(),
            0,
            live.positives().map(|(id, e)| (id, e.clone())).collect(),
            live.negatives().map(|(id, e)| (id, e.clone())).collect(),
            live.next_id(),
            live.revision(),
        )
        .unwrap();
        assert_eq!(restored.revision(), live.revision());
        assert_eq!(restored.next_id(), live.next_id());
        assert!(!restored.product_is_fresh(), "product rebuilds lazily");
        // A fresh add in the restored workspace gets the next pre-crash id.
        let next = restored.add_negative(ex("R(x,x)")).unwrap();
        assert_eq!(next, live.next_id());
        assert!(restored.remove_negative(next));
        let live_fit = live.cq_construct_fitting_minimized(None).unwrap().unwrap();
        let restored_fit = restored
            .cq_construct_fitting_minimized(None)
            .unwrap()
            .unwrap();
        assert!(live_fit.equivalent_to(&restored_fit).unwrap());
        // Invalid restores are rejected.
        let dup = IncrementalFitting::from_parts(
            Schema::digraph(),
            0,
            vec![(0, ex("R(a,b)"))],
            vec![(0, ex("R(a,b)"))],
            1,
            2,
        );
        assert!(dup.is_err(), "duplicate id across polarities");
        let high = IncrementalFitting::from_parts(
            Schema::digraph(),
            0,
            vec![(5, ex("R(a,b)"))],
            vec![],
            3,
            1,
        );
        assert!(high.is_err(), "id at or above next_id");
    }

    #[test]
    fn empty_workspace_behaves_like_batch_top() {
        let mut inc = IncrementalFitting::new(Schema::digraph(), 0);
        // No examples: the top product is a data example mapping into no
        // negatives, so a fitting exists (the top CQ).
        assert!(inc.cq_fitting_exists(None).unwrap());
        // Negative loop absorbs everything.
        inc.add_negative(ex("R(a,a)")).unwrap();
        assert!(!inc.cq_fitting_exists(None).unwrap());
        assert!(inc.cq_construct_fitting(None).unwrap().is_none());
        // UCQ most-specific needs positives.
        assert!(inc.ucq_most_specific_fitting(None).unwrap().is_none());
    }
}
