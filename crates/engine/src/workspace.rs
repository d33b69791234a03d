//! A named workspace: an evolving example collection plus a revision-keyed
//! memo of fitting answers.

use crate::protocol::{FitMode, FitQuery, QueryClass};
use cqfit::incremental::IncrementalFitting;
use cqfit::Result;
use cqfit_data::Schema;
use cqfit_env::Clock;
use cqfit_hom::HomCache;
use std::collections::HashMap;
use std::sync::Arc;

/// A workspace owned by the engine: one evolving `(E⁺, E⁻)` collection
/// with incrementally maintained product state
/// ([`cqfit::incremental::IncrementalFitting`]) and a memo of fitting
/// answers keyed by the state's revision, so re-asking an unchanged
/// workspace costs a map lookup.
///
/// Fitting computations are timed through the injected [`Clock`] — the
/// engine's environment clock in production, a hand-cranked one in tests —
/// and accumulate into [`Workspace::fit_nanos`]; memo hits cost nothing.
#[derive(Debug)]
pub struct Workspace {
    name: String,
    state: IncrementalFitting,
    /// Memoized existence answers: `(class) → (revision, answer)`.
    exists_memo: HashMap<QueryClass, (u64, bool)>,
    /// Memoized fittings: `(class, mode) → (revision, query)`.
    fit_memo: HashMap<(QueryClass, FitMode), (u64, Option<FitQuery>)>,
    /// Cumulative nanoseconds spent computing (not memo-serving) fitting
    /// answers, per the injected clock.
    fit_nanos: u64,
}

impl Workspace {
    /// A fresh workspace.
    pub fn new(name: String, schema: Arc<Schema>, arity: usize) -> Self {
        Workspace::from_state(name, IncrementalFitting::new(schema, arity))
    }

    /// A workspace wrapping an already-built state — the restore path of
    /// store recovery (see [`cqfit::incremental::IncrementalFitting::from_parts`]).
    /// Memos start empty; they are derived caches, rebuilt on demand.
    pub fn from_state(name: String, state: IncrementalFitting) -> Self {
        Workspace {
            name,
            state,
            exists_memo: HashMap::new(),
            fit_memo: HashMap::new(),
            fit_nanos: 0,
        }
    }

    /// The workspace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying incremental state (examples, product, revision).
    pub fn state(&self) -> &IncrementalFitting {
        &self.state
    }

    /// Mutable access to the underlying incremental state.  Mutations bump
    /// the revision, which implicitly invalidates the memo (entries are
    /// revision-checked on read).
    pub fn state_mut(&mut self) -> &mut IncrementalFitting {
        &mut self.state
    }

    /// Cumulative time spent computing fitting answers, in nanoseconds of
    /// the clock the computations ran under.
    pub fn fit_nanos(&self) -> u64 {
        self.fit_nanos
    }

    /// Answers the existence question, serving an unchanged workspace from
    /// the memo.
    pub fn fitting_exists(
        &mut self,
        class: QueryClass,
        cache: &HomCache,
        clock: &dyn Clock,
    ) -> Result<bool> {
        let revision = self.state.revision();
        if let Some(&(rev, answer)) = self.exists_memo.get(&class) {
            if rev == revision {
                return Ok(answer);
            }
        }
        let begun = clock.monotonic();
        let answer = match class {
            QueryClass::Cq => self.state.cq_fitting_exists(Some(cache))?,
            QueryClass::Ucq => self.state.ucq_fitting_exists(Some(cache))?,
        };
        self.note_fit_time(begun, clock);
        self.exists_memo.insert(class, (revision, answer));
        Ok(answer)
    }

    /// Constructs the requested fitting, serving an unchanged workspace
    /// from the memo.
    pub fn fit(
        &mut self,
        class: QueryClass,
        mode: FitMode,
        cache: &HomCache,
        clock: &dyn Clock,
    ) -> Result<Option<FitQuery>> {
        let revision = self.state.revision();
        if let Some((rev, query)) = self.fit_memo.get(&(class, mode)) {
            if *rev == revision {
                return Ok(query.clone());
            }
        }
        let begun = clock.monotonic();
        let query = match (class, mode) {
            (QueryClass::Cq, FitMode::Plain) => self
                .state
                .cq_construct_fitting(Some(cache))?
                .map(FitQuery::Cq),
            (QueryClass::Cq, FitMode::Minimized) => self
                .state
                .cq_construct_fitting_minimized(Some(cache))?
                .map(FitQuery::Cq),
            (QueryClass::Ucq, FitMode::Plain) => self
                .state
                .ucq_most_specific_fitting(Some(cache))?
                .map(FitQuery::Ucq),
            (QueryClass::Ucq, FitMode::Minimized) => self
                .state
                .ucq_most_specific_fitting_minimized(Some(cache))?
                .map(FitQuery::Ucq),
        };
        self.note_fit_time(begun, clock);
        self.fit_memo
            .insert((class, mode), (revision, query.clone()));
        Ok(query)
    }

    fn note_fit_time(&mut self, begun: std::time::Duration, clock: &dyn Clock) {
        self.fit_nanos = self
            .fit_nanos
            .saturating_add(clock.monotonic().saturating_sub(begun).as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::parse_example;
    use cqfit_env::ManualClock;
    use std::time::Duration;

    /// Fit timing is measured through the injected clock, so a manual
    /// clock makes the accounting exactly predictable: each computed
    /// answer spans one auto-tick, memo hits span none.
    #[test]
    fn fit_time_accumulates_on_computation_not_on_memo_hits() {
        let schema = Schema::digraph();
        let mut ws = Workspace::new("w".into(), schema.clone(), 0);
        ws.state_mut()
            .add_positive(parse_example(&schema, "R(a,b)\nR(b,c)\nR(c,a)").unwrap())
            .unwrap();
        let tick = Duration::from_micros(7);
        let clock = ManualClock::with_auto_tick(tick);
        let cache = HomCache::new();
        assert_eq!(ws.fit_nanos(), 0);
        ws.fit(QueryClass::Cq, FitMode::Plain, &cache, &clock)
            .unwrap();
        // One computation = two clock readings = exactly one tick between.
        assert_eq!(ws.fit_nanos(), tick.as_nanos() as u64);
        // Memo hit: no clock reading, no accumulated time.
        ws.fit(QueryClass::Cq, FitMode::Plain, &cache, &clock)
            .unwrap();
        assert_eq!(ws.fit_nanos(), tick.as_nanos() as u64);
        // An existence question computes again (different memo).
        ws.fitting_exists(QueryClass::Cq, &cache, &clock).unwrap();
        assert_eq!(ws.fit_nanos(), 2 * tick.as_nanos() as u64);
        ws.fitting_exists(QueryClass::Cq, &cache, &clock).unwrap();
        assert_eq!(ws.fit_nanos(), 2 * tick.as_nanos() as u64);
        // A mutation invalidates the memo; the next fit computes and pays.
        ws.state_mut()
            .add_negative(parse_example(&schema, "R(a,b)\nR(b,a)").unwrap())
            .unwrap();
        ws.fit(QueryClass::Cq, FitMode::Plain, &cache, &clock)
            .unwrap();
        assert_eq!(ws.fit_nanos(), 3 * tick.as_nanos() as u64);
    }
}
