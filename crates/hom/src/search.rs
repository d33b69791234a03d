//! Homomorphism search between pointed instances.
//!
//! A homomorphism `h : (I, ā) → (J, b̄)` is a map from `adom(I) ∪ {ā}` to
//! `adom(J) ∪ {b̄}` preserving all facts and mapping each distinguished
//! element `a_i` to the corresponding `b_i` (§2.1 of the paper).
//!
//! The search is a constraint-satisfaction backtracking procedure: source
//! values are variables, target values are candidate assignments, and every
//! source fact is a constraint requiring its image to be a target fact.
//! Arc-consistency propagation (generalised to arbitrary arities) prunes the
//! candidate sets before and during search; it can be switched off via
//! [`HomConfig`] for the ablation benchmarks.
//!
//! # Engine architecture
//!
//! The engine is *trail-based* and *index-accelerated*:
//!
//! * Candidate sets live in one flat `u64`-block store ([`CandStore`]) with
//!   an undo **trail**: branching records the words it overwrites and
//!   backtracking restores them, so no per-node clone of the candidate
//!   vector is ever made (the pre-rewrite engine in [`crate::reference`]
//!   cloned `Vec<BitSet>` at every node).
//! * Propagation narrows unary and binary constraints with word operations
//!   over per-relation bitsets of the target, built in one pass over its
//!   fact table; only constraints of arity ≥ 3 enumerate target facts,
//!   through the instance's per-`(relation, position, value)` fact index
//!   ([`cqfit_data::Instance::facts_with_rel_pos_value`]), pivoting on the
//!   constraint argument with the fewest candidates, instead of re-scanning
//!   every fact of the relation.  With arc consistency on (the default),
//!   a search over unary and binary relations never builds the index.
//! * Branching is an explicit-stack iterative loop, so deep searches on
//!   large instances cannot overflow the call stack.
//!
//! All three changes are pure optimizations: the variable-selection
//! heuristic, value ordering and propagation fixpoint are identical to the
//! reference engine, so the two agree on existence, witnesses and
//! enumeration order (asserted by `tests/differential_hom.rs`).

use crate::bitset::RelMasks;
use crate::{HomError, Result};
use cqfit_data::{Example, Instance, Value};
use std::collections::BTreeMap;

/// A homomorphism between two pointed instances, stored as a partial map
/// from source value indices to target values (defined exactly on
/// `adom(I) ∪ {ā}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Homomorphism {
    map: Vec<Option<Value>>,
}

impl Homomorphism {
    /// Internal constructor shared with the reference engine.
    pub(crate) fn from_map(map: Vec<Option<Value>>) -> Self {
        Homomorphism { map }
    }

    /// The image of a source value, if the map is defined on it.
    pub fn get(&self, v: Value) -> Option<Value> {
        self.map.get(v.index()).copied().flatten()
    }

    /// The image of a source value; panics if undefined.
    pub fn apply(&self, v: Value) -> Value {
        self.get(v).expect("homomorphism undefined on value")
    }

    /// Iterates over the defined (source, target) pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (Value, Value)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (Value(i as u32), t)))
    }

    /// Verifies that this map really is a homomorphism from `src` to `dst`.
    pub fn verify(&self, src: &Example, dst: &Example) -> bool {
        for (i, &d) in src.distinguished().iter().enumerate() {
            if self.get(d) != Some(dst.distinguished()[i]) {
                return false;
            }
        }
        for f in src.instance().facts() {
            let mut args = Vec::with_capacity(f.args.len());
            for &a in &f.args {
                match self.get(a) {
                    Some(t) => args.push(t),
                    None => return false,
                }
            }
            if !dst.instance().contains_fact(f.rel, &args) {
                return false;
            }
        }
        true
    }
}

/// Configuration of the homomorphism search.
#[derive(Debug, Clone)]
pub struct HomConfig {
    /// Use arc-consistency propagation (default `true`).  Disabling it
    /// degrades the search to forward-checking backtracking; exposed for the
    /// ablation benchmark of the paper reproduction.
    pub use_arc_consistency: bool,
    /// Maximum number of search nodes before giving up with
    /// [`HomError::BudgetExhausted`]; `None` means unlimited.
    pub max_nodes: Option<u64>,
}

impl Default for HomConfig {
    fn default() -> Self {
        HomConfig {
            use_arc_consistency: true,
            max_nodes: None,
        }
    }
}

/// Statistics collected during a homomorphism search.
#[derive(Debug, Clone, Copy, Default)]
pub struct HomSearchStats {
    /// Number of branching nodes explored.
    pub nodes: u64,
    /// Number of backtracks (failed branches).
    pub backtracks: u64,
    /// Number of homomorphisms found (for enumeration).
    pub found: u64,
}

/// Finds one homomorphism from `src` to `dst`, or `None`.
///
/// Panics if the examples have different schemas or arities (this always
/// indicates a logic error in the caller).
pub fn find_homomorphism(src: &Example, dst: &Example) -> Option<Homomorphism> {
    let mut stats = HomSearchStats::default();
    find_homomorphism_with(src, dst, &HomConfig::default(), &mut stats)
        .expect("unlimited search cannot exhaust its budget")
}

/// True if a homomorphism from `src` to `dst` exists.
pub fn hom_exists(src: &Example, dst: &Example) -> bool {
    find_homomorphism(src, dst).is_some()
}

/// Finds one homomorphism under an explicit configuration, collecting search
/// statistics.
///
/// # Errors
/// Returns [`HomError::BudgetExhausted`] if the node limit is reached before
/// the search completes.
pub fn find_homomorphism_with(
    src: &Example,
    dst: &Example,
    config: &HomConfig,
    stats: &mut HomSearchStats,
) -> Result<Option<Homomorphism>> {
    let mut out = Vec::new();
    search(src, dst, config, stats, 1, &mut out)?;
    Ok(out.pop())
}

/// Enumerates up to `limit` homomorphisms from `src` to `dst`.
pub fn find_all_homomorphisms(src: &Example, dst: &Example, limit: usize) -> Vec<Homomorphism> {
    find_all_homomorphisms_with(src, dst, &HomConfig::default(), limit)
}

/// Enumerates up to `limit` homomorphisms under an explicit configuration.
///
/// # Panics
/// Panics if `config.max_nodes` is set and the budget is exhausted before
/// the enumeration completes; pass `max_nodes: None` for a total function.
pub fn find_all_homomorphisms_with(
    src: &Example,
    dst: &Example,
    config: &HomConfig,
    limit: usize,
) -> Vec<Homomorphism> {
    let mut out = Vec::new();
    let mut stats = HomSearchStats::default();
    search(src, dst, config, &mut stats, limit, &mut out)
        .expect("node budget exhausted during homomorphism enumeration");
    out
}

/// Internal knobs for the specialized searches of the core engine
/// (`crate::core`).  They are deliberately not part of [`HomConfig`]: every
/// public entry point runs the one canonical strategy, while retraction
/// checks during core computation use masks and a different propagation
/// schedule.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SearchTweaks<'m> {
    /// Deactivation mask over the *source* domain: only facts all of whose
    /// arguments are alive act as constraints, and only values occurring in
    /// such facts (plus the distinguished tuple) act as variables.  `None`
    /// means "everything alive".
    pub src_alive: Option<&'m [bool]>,
    /// Deactivation mask over the *target* domain: images are restricted to
    /// alive values, and "active" (for the initial candidate sets) means
    /// "occurs in a fact all of whose arguments are alive".
    pub dst_alive: Option<&'m [bool]>,
    /// Branch on this source value first while it is undecided.  Used by the
    /// retraction checks of the core engine, where the deactivated target
    /// value's variable is the only one that cannot map identically.
    pub branch_first: Option<Value>,
    /// Skip the full initial arc-consistency closure; propagation is then
    /// seeded from the constraints of already-singleton (forced) variables
    /// only and otherwise runs incrementally during branching (MAC).  Sound
    /// and complete — see [`find_homomorphism_tweaked`].
    pub lazy_propagation: bool,
}

/// Finds one homomorphism under internal [`SearchTweaks`] — the entry point
/// of the core engine's retraction checks.
///
/// With `lazy_propagation` the full initial closure is replaced by seeding
/// the worklist with the constraints of variables whose candidate set is
/// already a singleton.  This preserves both soundness and completeness of
/// the search:
///
/// * *completeness* — propagation only ever removes unsupported candidates;
/// * *soundness of all-singleton leaves* — a constraint is (re)revised
///   whenever one of its variables' candidate sets changes, and assignment
///   during branching explicitly propagates the assigned variable's
///   constraints; the only constraints that could otherwise escape revision
///   are those all of whose variables started out as singletons, which is
///   exactly what the seeding covers.
pub(crate) fn find_homomorphism_tweaked(
    src: &Example,
    dst: &Example,
    tweaks: SearchTweaks<'_>,
) -> Option<Homomorphism> {
    let problem = Problem::new_masked(src, dst, tweaks)?;
    let mut state = problem.fresh_state();
    if !problem.initial_candidates(&mut state) {
        return None;
    }
    if !problem.initial_propagation(&mut state, tweaks.lazy_propagation) {
        return None;
    }
    let mut out = Vec::new();
    let mut stats = HomSearchStats::default();
    problem
        .solve(&mut state, &HomConfig::default(), &mut stats, 1, &mut out)
        .expect("unlimited search cannot exhaust its budget");
    out.pop()
}

/// Outcome of a capped, predicate-stopped enumeration
/// ([`enumerate_homomorphisms_tweaked`]).
pub(crate) enum TweakedEnumeration {
    /// Enumeration stopped at the first homomorphism satisfying the
    /// predicate.
    Found(Homomorphism),
    /// The whole space was exhausted without the predicate firing.
    Exhausted,
    /// The solution limit or node budget was reached first: inconclusive.
    Capped,
}

/// Enumerates homomorphisms under [`SearchTweaks`] until `stop_when` accepts
/// one, the space is exhausted, or a cap (`limit` solutions / `max_nodes`
/// search nodes) is hit — the core engine's endomorphism sweep.
pub(crate) fn enumerate_homomorphisms_tweaked(
    src: &Example,
    dst: &Example,
    tweaks: SearchTweaks<'_>,
    limit: usize,
    max_nodes: u64,
    mut stop_when: impl FnMut(&Homomorphism) -> bool,
) -> TweakedEnumeration {
    let Some(problem) = Problem::new_masked(src, dst, tweaks) else {
        return TweakedEnumeration::Exhausted;
    };
    let mut state = problem.fresh_state();
    if !problem.initial_candidates(&mut state) {
        return TweakedEnumeration::Exhausted;
    }
    if !problem.initial_propagation(&mut state, tweaks.lazy_propagation) {
        return TweakedEnumeration::Exhausted;
    }
    let config = HomConfig {
        use_arc_consistency: true,
        max_nodes: Some(max_nodes),
    };
    let mut out = Vec::new();
    let mut stats = HomSearchStats::default();
    let mut fired = false;
    let result = problem.solve_until(&mut state, &config, &mut stats, limit, &mut out, &mut |h| {
        fired = stop_when(h);
        fired
    });
    if fired {
        return TweakedEnumeration::Found(out.pop().expect("predicate fired on a found hom"));
    }
    match result {
        // The node budget was hit (solve only ever errs with
        // `HomError::BudgetExhausted`), or the solution cap was reached:
        // either way the sweep is inconclusive.
        Err(_) => TweakedEnumeration::Capped,
        Ok(()) if out.len() >= limit => TweakedEnumeration::Capped,
        Ok(()) => TweakedEnumeration::Exhausted,
    }
}

/// Computes the arc-consistency closure for `src → dst`: the surviving
/// candidate sets per source value (in ascending target order, inside an
/// ordered map, so iteration is reproducible run-to-run), or `None` if some
/// set became empty (no homomorphism exists).  Used by
/// [`crate::arc_consistent`].
pub(crate) fn arc_closure(src: &Example, dst: &Example) -> Option<BTreeMap<Value, Vec<Value>>> {
    let problem = Problem::new(src, dst)?;
    let mut state = problem.fresh_state();
    if !problem.initial_candidates(&mut state) {
        return None;
    }
    if !problem.propagate_all(&mut state) {
        return None;
    }
    let mut out = BTreeMap::new();
    for (vi, &v) in problem.vars.iter().enumerate() {
        out.insert(v, state.cands.values(vi).map(|t| Value(t as u32)).collect());
    }
    Some(out)
}

/// The shared search driver.
fn search(
    src: &Example,
    dst: &Example,
    config: &HomConfig,
    stats: &mut HomSearchStats,
    limit: usize,
    out: &mut Vec<Homomorphism>,
) -> Result<()> {
    assert_eq!(
        src.instance().schema().as_ref(),
        dst.instance().schema().as_ref(),
        "homomorphism search requires a common schema"
    );
    assert_eq!(
        src.arity(),
        dst.arity(),
        "homomorphism search requires a common arity"
    );
    if limit == 0 {
        return Ok(());
    }
    let Some(problem) = Problem::new(src, dst) else {
        return Ok(()); // trivially no homomorphism (distinguished clash)
    };
    let mut state = problem.fresh_state();
    if !problem.initial_candidates(&mut state) {
        return Ok(());
    }
    if config.use_arc_consistency && !problem.propagate_all(&mut state) {
        return Ok(());
    }
    problem.solve(&mut state, config, stats, limit, out)
}

/// A rollback point of the [`CandStore`] trail.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    words: usize,
    counts: usize,
}

/// Flat candidate store: each variable owns `words_per_var` consecutive
/// `u64` blocks, and every destructive update is recorded on an undo trail.
#[derive(Debug)]
struct CandStore {
    /// Words per variable (`ceil(num_target_values / 64)`).
    wpv: usize,
    /// Candidate bit blocks, variable-major.
    words: Vec<u64>,
    /// Cached candidate count per variable.
    counts: Vec<u32>,
    /// Undo trail of overwritten words: `(word index, previous contents)`.
    word_trail: Vec<(u32, u64)>,
    /// Undo trail of count updates: `(variable, previous count)`.
    count_trail: Vec<(u32, u32)>,
}

impl CandStore {
    fn new(num_vars: usize, num_targets: usize) -> Self {
        let wpv = num_targets.div_ceil(64);
        CandStore {
            wpv,
            words: vec![0; num_vars * wpv],
            counts: vec![0; num_vars],
            word_trail: Vec::new(),
            count_trail: Vec::new(),
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            words: self.word_trail.len(),
            counts: self.count_trail.len(),
        }
    }

    fn undo_to(&mut self, m: Mark) {
        while self.word_trail.len() > m.words {
            let (wi, old) = self.word_trail.pop().expect("non-empty trail");
            self.words[wi as usize] = old;
        }
        while self.count_trail.len() > m.counts {
            let (var, old) = self.count_trail.pop().expect("non-empty trail");
            self.counts[var as usize] = old;
        }
    }

    fn count(&self, var: usize) -> usize {
        self.counts[var] as usize
    }

    fn contains(&self, var: usize, t: usize) -> bool {
        (self.words[var * self.wpv + t / 64] >> (t % 64)) & 1 == 1
    }

    /// The candidate words of one variable.
    #[inline]
    fn block(&self, var: usize) -> &[u64] {
        &self.words[var * self.wpv..(var + 1) * self.wpv]
    }

    /// Inserts during initial-candidate construction only: no trail.
    fn insert_raw(&mut self, var: usize, t: usize) {
        let w = &mut self.words[var * self.wpv + t / 64];
        let mask = 1u64 << (t % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.counts[var] += 1;
        }
    }

    /// Iterates the candidate values of `var` in increasing order.
    fn values(&self, var: usize) -> impl Iterator<Item = usize> + '_ {
        crate::bitset::set_bits(&self.words[var * self.wpv..(var + 1) * self.wpv])
    }

    /// The single candidate of a decided variable.
    fn only(&self, var: usize) -> Option<usize> {
        if self.counts[var] == 1 {
            self.values(var).next()
        } else {
            None
        }
    }

    /// Narrows `var` to the single value `t`, recording the trail.
    fn assign(&mut self, var: usize, t: usize) {
        debug_assert!(self.contains(var, t));
        let base = var * self.wpv;
        for k in 0..self.wpv {
            let old = self.words[base + k];
            let new = if k == t / 64 {
                old & (1u64 << (t % 64))
            } else {
                0
            };
            if new != old {
                self.word_trail.push(((base + k) as u32, old));
                self.words[base + k] = new;
            }
        }
        if self.counts[var] != 1 {
            self.count_trail.push((var as u32, self.counts[var]));
            self.counts[var] = 1;
        }
    }

    /// Intersects `var`'s candidates with `support` (a `wpv`-word block),
    /// recording the trail; returns true if the set changed.
    fn intersect(&mut self, var: usize, support: &[u64]) -> bool {
        debug_assert_eq!(support.len(), self.wpv);
        let base = var * self.wpv;
        let mut changed = false;
        let mut count = 0u32;
        for (k, &s) in support.iter().enumerate() {
            let old = self.words[base + k];
            let new = old & s;
            if new != old {
                self.word_trail.push(((base + k) as u32, old));
                self.words[base + k] = new;
                changed = true;
            }
            count += new.count_ones();
        }
        if changed {
            self.count_trail.push((var as u32, self.counts[var]));
            self.counts[var] = count;
        }
        changed
    }
}

/// Reusable, trail-free scratch space of one search.
#[derive(Debug)]
struct Scratch {
    /// Propagation worklist of constraint indices.
    queue: Vec<usize>,
    /// Membership flags for `queue`.
    queued: Vec<bool>,
    /// Argument buffer for ground-fact lookups.
    args: Vec<Value>,
}

/// The full mutable state of one search: candidates, worklist scratch and
/// the per-position support blocks (`max_arity × wpv` words), kept as three
/// separate fields so the borrow checker allows reading candidates while
/// writing supports and narrowing candidates while touching the worklist.
#[derive(Debug)]
struct SearchState {
    cands: CandStore,
    scratch: Scratch,
    supports: Vec<u64>,
}

/// One entry of the explicit branching stack.
#[derive(Debug, Default)]
struct Frame {
    /// The variable this node branches on.
    var: usize,
    /// Snapshot of the candidate values at node entry (ascending).
    choices: Vec<u32>,
    /// Next choice to try.
    next: usize,
    /// Trail state at node entry; restored before every choice.
    mark: Mark,
}

/// Outcome of entering a search node.
enum NodeKind {
    /// All variables decided; the leaf was processed in place.
    Leaf,
    /// A branching frame was installed at the given depth.
    Branch,
}

/// Internal representation of one search problem.
///
/// Constraints and the variable→constraint incidence lists live in flat
/// arenas (`arg_arena`, `cov_arena`): building a problem performs a constant
/// number of allocations regardless of the number of source facts, which
/// matters because every containment / equivalence / core check constructs
/// many small problems.
struct Problem<'a> {
    src: &'a Instance,
    dst: &'a Instance,
    /// The source values that act as variables.
    vars: Vec<Value>,
    /// Forced assignments coming from the distinguished tuples.
    forced: Vec<Option<Value>>,
    /// Relation of each constraint (= source fact).
    con_rel: Vec<cqfit_data::RelId>,
    /// `(start, len)` of each constraint's argument-variable slice in
    /// `arg_arena`.
    con_args: Vec<(u32, u32)>,
    /// Argument variable indices of all constraints, concatenated.
    arg_arena: Vec<u32>,
    /// Constraint indices of all variables, concatenated; the slice of
    /// variable `v` is `cov_arena[cov_start[v]..cov_start[v + 1]]`.
    cov_arena: Vec<u32>,
    /// Slice boundaries into `cov_arena`, one per variable plus a sentinel.
    cov_start: Vec<u32>,
    /// Largest constraint arity (sizes the support scratch).
    max_arity: usize,
    /// The target's per-relation bitsets for the unary and binary
    /// relations the constraints use: membership masks, per-value
    /// successor (`out`) and predecessor (`inc`) masks, and loop sets.
    /// Support computation for unary and binary constraints is then pure
    /// word arithmetic instead of per-fact scans.
    masks: RelMasks,
    /// Mask-aware activeness of every source value; `None` on the unmasked
    /// hot path, where plain [`Instance::is_active`] is used instead (no
    /// extra allocation for ordinary searches).
    src_active: Option<Vec<bool>>,
    /// Mask-aware activeness of every target value: the initial candidate
    /// set of every active source variable; `None` when unmasked.
    dst_active: Option<Vec<bool>>,
    /// Which target values may appear in images at all (the `dst_alive`
    /// mask); `None` when unmasked (everything allowed).
    dst_allowed: Option<Vec<bool>>,
    /// Variable to branch on first while undecided (core retraction checks).
    branch_first: Option<usize>,
}

/// Mask-aware activeness, computed only when a mask is present (the
/// unmasked hot path keeps using [`Instance::is_active`] directly): under a
/// mask a value is active iff it occurs in a fact all of whose arguments are
/// alive, i.e. iff it is active in the induced sub-instance.
fn masked_active(inst: &Instance, mask: Option<&[bool]>) -> Option<Vec<bool>> {
    let alive = mask?;
    let mut active = vec![false; inst.num_values()];
    for f in inst.facts() {
        if f.args.iter().all(|a| alive[a.index()]) {
            for a in &f.args {
                active[a.index()] = true;
            }
        }
    }
    Some(active)
}

impl<'a> Problem<'a> {
    fn new(src_ex: &'a Example, dst_ex: &'a Example) -> Option<Self> {
        Self::new_masked(src_ex, dst_ex, SearchTweaks::default())
    }

    /// Builds the problem for the sub-instances induced by the optional
    /// deactivation masks, without materializing either sub-instance: masked
    /// facts simply contribute no constraints (source side) and masked
    /// values no candidates (target side).  The per-relation target
    /// adjacency/membership masks are still built from the full fact table —
    /// they are only ever *intersected* with candidate sets, which never
    /// contain dead values, so dead target facts cannot contribute support.
    fn new_masked(
        src_ex: &'a Example,
        dst_ex: &'a Example,
        tweaks: SearchTweaks<'_>,
    ) -> Option<Self> {
        let src = src_ex.instance();
        let dst = dst_ex.instance();
        let src_active = masked_active(src, tweaks.src_alive);
        let dst_active = masked_active(dst, tweaks.dst_alive);
        let dst_allowed: Option<Vec<bool>> = tweaks.dst_alive.map(<[bool]>::to_vec);
        let is_src_active = |v: Value| match &src_active {
            Some(active) => active[v.index()],
            None => src.is_active(v),
        };
        let mut var_of_value = vec![usize::MAX; src.num_values()];
        let mut vars = Vec::new();
        let mut forced: Vec<Option<Value>> = Vec::new();
        let add_var = |v: Value,
                       var_of_value: &mut Vec<usize>,
                       vars: &mut Vec<Value>,
                       forced: &mut Vec<Option<Value>>| {
            if var_of_value[v.index()] == usize::MAX {
                var_of_value[v.index()] = vars.len();
                vars.push(v);
                forced.push(None);
            }
            var_of_value[v.index()]
        };
        // Distinguished values are variables with forced assignments.
        for (i, &d) in src_ex.distinguished().iter().enumerate() {
            debug_assert!(
                tweaks.src_alive.is_none_or(|m| m[d.index()]),
                "distinguished source values must never be masked out"
            );
            let vi = add_var(d, &mut var_of_value, &mut vars, &mut forced);
            let target = dst_ex.distinguished()[i];
            match forced[vi] {
                None => forced[vi] = Some(target),
                Some(existing) if existing == target => {}
                Some(_) => return None, // src repeats a value, dst does not
            }
        }
        // Active values are variables.
        for v in src.values() {
            if is_src_active(v) {
                add_var(v, &mut var_of_value, &mut vars, &mut forced);
            }
        }
        // Pass 1: flatten constraints and count incidences per variable.
        // A variable occurring at several positions of one fact is counted
        // once (first occurrence within the fact), mirroring the dedup the
        // per-fact hash set used to perform.  Facts with a masked-out
        // argument are not constraints (they do not exist in the induced
        // sub-instance).
        let facts = src.facts();
        let fact_alive = |f: &cqfit_data::Fact| {
            tweaks
                .src_alive
                .is_none_or(|m| f.args.iter().all(|a| m[a.index()]))
        };
        let mut con_rel = Vec::with_capacity(facts.len());
        let mut con_args = Vec::with_capacity(facts.len());
        let mut arg_arena: Vec<u32> = Vec::with_capacity(facts.iter().map(|f| f.args.len()).sum());
        let mut cov_count = vec![0u32; vars.len()];
        let mut max_arity = 0;
        for f in facts {
            if !fact_alive(f) {
                continue;
            }
            let start = arg_arena.len() as u32;
            for (pos, a) in f.args.iter().enumerate() {
                let av = var_of_value[a.index()] as u32;
                if !arg_arena[start as usize..start as usize + pos].contains(&av) {
                    cov_count[av as usize] += 1;
                }
                arg_arena.push(av);
            }
            con_rel.push(f.rel);
            con_args.push((start, f.args.len() as u32));
            max_arity = max_arity.max(f.args.len());
        }
        // Pass 2: prefix sums, then fill the incidence arena with cursors.
        let mut cov_start = Vec::with_capacity(vars.len() + 1);
        let mut acc = 0u32;
        for &c in &cov_count {
            cov_start.push(acc);
            acc += c;
        }
        cov_start.push(acc);
        let mut cov_arena = vec![0u32; acc as usize];
        let mut cursor: Vec<u32> = cov_start[..vars.len()].to_vec();
        for (ci, &(start, len)) in con_args.iter().enumerate() {
            let args = &arg_arena[start as usize..(start + len) as usize];
            for (pos, &av) in args.iter().enumerate() {
                if args[..pos].contains(&av) {
                    continue;
                }
                cov_arena[cursor[av as usize] as usize] = ci as u32;
                cursor[av as usize] += 1;
            }
        }
        // Target bitsets for the unary and binary relations the
        // constraints actually use, in one pass over the target's facts.
        let mut wanted = vec![false; src.schema().len()];
        for (ci, &rel) in con_rel.iter().enumerate() {
            if matches!(con_args[ci].1, 1 | 2) {
                wanted[rel.index()] = true;
            }
        }
        let masks = RelMasks::build(dst, Some(&wanted));
        let branch_first = tweaks.branch_first.and_then(|v| {
            let vi = var_of_value[v.index()];
            (vi != usize::MAX).then_some(vi)
        });
        Some(Problem {
            src,
            dst,
            vars,
            forced,
            con_rel,
            con_args,
            arg_arena,
            cov_arena,
            cov_start,
            max_arity,
            masks,
            src_active,
            dst_active,
            dst_allowed,
            branch_first,
        })
    }

    /// Number of constraints.
    fn num_constraints(&self) -> usize {
        self.con_rel.len()
    }

    /// The argument variable indices of constraint `ci`.
    #[inline]
    fn args_of(&self, ci: usize) -> &[u32] {
        let (start, len) = self.con_args[ci];
        &self.arg_arena[start as usize..(start + len) as usize]
    }

    /// The constraints variable `var` occurs in.
    #[inline]
    fn constraints_of(&self, var: usize) -> &[u32] {
        &self.cov_arena[self.cov_start[var] as usize..self.cov_start[var + 1] as usize]
    }

    fn fresh_state(&self) -> SearchState {
        let cands = CandStore::new(self.vars.len(), self.dst.num_values());
        let scratch = Scratch {
            queue: Vec::with_capacity(self.num_constraints()),
            queued: vec![false; self.num_constraints()],
            args: Vec::with_capacity(self.max_arity),
        };
        let supports = vec![0; self.max_arity * cands.wpv];
        SearchState {
            cands,
            scratch,
            supports,
        }
    }

    /// True if target value `t` is active (mask-aware when masked).
    #[inline]
    fn dst_is_active(&self, t: Value) -> bool {
        match &self.dst_active {
            Some(active) => active[t.index()],
            None => self.dst.is_active(t),
        }
    }

    /// True if target value `t` may appear in images at all.
    #[inline]
    fn dst_is_allowed(&self, t: Value) -> bool {
        match &self.dst_allowed {
            Some(allowed) => allowed[t.index()],
            None => true,
        }
    }

    /// True if source value `v` is active (mask-aware when masked).
    #[inline]
    fn src_is_active(&self, v: Value) -> bool {
        match &self.src_active {
            Some(active) => active[v.index()],
            None => self.src.is_active(v),
        }
    }

    /// Fills the initial candidate sets; `false` if some variable has no
    /// candidate at all.
    fn initial_candidates(&self, state: &mut SearchState) -> bool {
        for (vi, &v) in self.vars.iter().enumerate() {
            match self.forced[vi] {
                Some(t) => {
                    if !self.dst_is_allowed(t) {
                        return false;
                    }
                    state.cands.insert_raw(vi, t.index());
                }
                None => {
                    // An active source value must map to an active target value.
                    if self.src_is_active(v) {
                        for t in self.dst.values() {
                            if self.dst_is_active(t) {
                                state.cands.insert_raw(vi, t.index());
                            }
                        }
                    } else {
                        for t in self.dst.values() {
                            if self.dst_is_allowed(t) {
                                state.cands.insert_raw(vi, t.index());
                            }
                        }
                    }
                }
            }
            if state.cands.count(vi) == 0 {
                return false;
            }
        }
        true
    }

    /// Runs the initial propagation phase: the full arc-consistency closure
    /// normally, or — under lazy propagation — seeding only from the
    /// constraints of already-singleton (forced) variables, which preserves
    /// all-singleton leaf soundness (see [`find_homomorphism_tweaked`]).
    fn initial_propagation(&self, state: &mut SearchState, lazy: bool) -> bool {
        if lazy {
            let seed: Vec<u32> = (0..self.vars.len())
                .filter(|&vi| state.cands.count(vi) == 1)
                .flat_map(|vi| self.constraints_of(vi).iter().copied())
                .collect();
            self.propagate(state, &seed)
        } else {
            self.propagate_all(state)
        }
    }

    /// Runs arc consistency over all constraints; returns false if some
    /// candidate set becomes empty.
    fn propagate_all(&self, state: &mut SearchState) -> bool {
        let all: Vec<u32> = (0..self.num_constraints() as u32).collect();
        self.propagate(state, &all)
    }

    /// Generalised arc consistency from an initial worklist of constraints.
    ///
    /// Supports are computed by pivoting each constraint on the argument
    /// position whose variable has the fewest candidates, and enumerating
    /// only the target facts carrying one of those candidates at that
    /// position, via the `(relation, position, value)` fact index.
    fn propagate(&self, state: &mut SearchState, seed: &[u32]) -> bool {
        debug_assert!(state.scratch.queue.is_empty());
        for &ci in seed {
            let ci = ci as usize;
            if !state.scratch.queued[ci] {
                state.scratch.queued[ci] = true;
                state.scratch.queue.push(ci);
            }
        }
        while let Some(ci) = state.scratch.queue.pop() {
            state.scratch.queued[ci] = false;
            if !self.revise(state, ci) {
                // Leave the worklist clean for the next propagation.
                for &q in &state.scratch.queue {
                    state.scratch.queued[q] = false;
                }
                state.scratch.queue.clear();
                return false;
            }
        }
        true
    }

    /// Narrows `var` to `support`, enqueueing its constraints on change;
    /// returns false on a wipe-out.
    fn narrow(
        &self,
        cands: &mut CandStore,
        scratch: &mut Scratch,
        var: usize,
        support: &[u64],
    ) -> bool {
        if cands.intersect(var, support) {
            if cands.count(var) == 0 {
                return false;
            }
            for &other in self.constraints_of(var) {
                let other = other as usize;
                if !scratch.queued[other] {
                    scratch.queued[other] = true;
                    scratch.queue.push(other);
                }
            }
        }
        true
    }

    /// Recomputes the supports of constraint `ci` and narrows its variables;
    /// returns false on a wipe-out.
    ///
    /// Four support strategies, cheapest applicable first:
    /// * **unary** constraints intersect with the precomputed membership
    ///   mask of the relation — one word operation per block;
    /// * **loop** constraints `R(x,x)` intersect with the relation's loop
    ///   set the same way;
    /// * **binary** constraints on two distinct variables run over the
    ///   precomputed adjacency masks of the target: for each candidate `t`
    ///   of the narrower side, `mask(t) ∩ cands(other)` decides `t`'s
    ///   support and accumulates the other side's support — word arithmetic
    ///   only, no per-fact scanning;
    /// * everything else (arity ≥ 3) enumerates the target facts through
    ///   the `(relation, position, value)` index, pivoting on the argument
    ///   with the fewest candidates.
    ///
    /// All four compute the same generalized-arc-consistency supports, so
    /// the closure — and hence the search tree — is identical whichever
    /// path runs.
    fn revise(&self, state: &mut SearchState, ci: usize) -> bool {
        let arg_vars = self.args_of(ci);
        let rel = self.con_rel[ci];
        let n = arg_vars.len();
        if n == 0 {
            return true;
        }
        let SearchState {
            cands,
            scratch,
            supports,
        } = state;
        let wpv = cands.wpv;
        // The bitsets exist for every unary and binary relation a
        // constraint uses (`Problem::new_masked`).
        let ri = rel.index();
        let built = "bitsets built for every used relation";
        // Unary fast path: the support is the precomputed membership mask.
        if n == 1 {
            let mask = self.masks.unary[ri].as_ref().expect(built);
            return self.narrow(cands, scratch, arg_vars[0] as usize, mask);
        }
        // Loop fast path: `R(x,x)` is supported exactly by the loops.
        if n == 2 && arg_vars[0] == arg_vars[1] {
            let loops = self.masks.loops[ri].as_ref().expect(built);
            return self.narrow(cands, scratch, arg_vars[0] as usize, loops);
        }
        // Binary fast path over the adjacency masks.
        if n == 2 {
            let out = self.masks.out[ri].as_ref().expect(built);
            let inc = self.masks.inc[ri].as_ref().expect(built);
            let (x, y) = (arg_vars[0] as usize, arg_vars[1] as usize);
            let (pivot_var, other_var, masks) = if cands.count(x) <= cands.count(y) {
                (x, y, out)
            } else {
                (y, x, inc)
            };
            for w in &mut supports[..2 * wpv] {
                *w = 0;
            }
            // supports[..wpv] = pivot side, supports[wpv..2*wpv] = other.
            let other_block = cands.block(other_var);
            for t in cands.values(pivot_var) {
                let mut any = false;
                for k in 0..wpv {
                    let hits = masks[t * wpv + k] & other_block[k];
                    if hits != 0 {
                        any = true;
                        supports[wpv + k] |= hits;
                    }
                }
                if any {
                    supports[t / 64] |= 1u64 << (t % 64);
                }
            }
            // Narrow in fixed position order (x before y) so worklist
            // order matches the generic path.
            let (x_start, y_start) = if pivot_var == x { (0, wpv) } else { (wpv, 0) };
            return self.narrow(cands, scratch, x, &supports[x_start..x_start + wpv])
                && self.narrow(cands, scratch, y, &supports[y_start..y_start + wpv]);
        }
        // Generic path (arity ≥ 3): enumerate target facts through the
        // index, pivoting on the argument position with the fewest
        // candidates.
        for w in &mut supports[..n * wpv] {
            *w = 0;
        }
        let pivot = (0..n)
            .min_by_key(|&i| cands.count(arg_vars[i] as usize))
            .expect("constraint has arguments");
        let pivot_var = arg_vars[pivot] as usize;
        for t in cands.values(pivot_var) {
            'facts: for &fid in self
                .dst
                .facts_with_rel_pos_value(rel, pivot, Value(t as u32))
            {
                let df = self.dst.fact(fid);
                // Check consistency with candidate sets and repeated variables.
                for i in 0..n {
                    if !cands.contains(arg_vars[i] as usize, df.args[i].index()) {
                        continue 'facts;
                    }
                    for j in (i + 1)..n {
                        if arg_vars[i] == arg_vars[j] && df.args[i] != df.args[j] {
                            continue 'facts;
                        }
                    }
                }
                for (i, &a) in df.args.iter().enumerate() {
                    let t = a.index();
                    supports[i * wpv + t / 64] |= 1u64 << (t % 64);
                }
            }
        }
        for i in 0..n {
            let var = arg_vars[i] as usize;
            if !self.narrow(cands, scratch, var, &supports[i * wpv..(i + 1) * wpv]) {
                return false;
            }
        }
        true
    }

    /// Checks that the (total, singleton) assignment satisfies every
    /// constraint; used when arc consistency is disabled.
    fn assignment_consistent(&self, state: &mut SearchState) -> bool {
        let SearchState { cands, scratch, .. } = state;
        for ci in 0..self.num_constraints() {
            scratch.args.clear();
            let mut total = true;
            for &av in self.args_of(ci) {
                match cands.only(av as usize) {
                    Some(t) => scratch.args.push(Value(t as u32)),
                    None => {
                        total = false;
                        break;
                    }
                }
            }
            if total && !self.dst.contains_fact(self.con_rel[ci], &scratch.args) {
                return false;
            }
        }
        true
    }

    /// Checks constraints that are fully decided after `var` was assigned
    /// (forward checking).
    fn forward_check(&self, state: &mut SearchState, var: usize) -> bool {
        let SearchState { cands, scratch, .. } = state;
        for &ci in self.constraints_of(var) {
            let ci = ci as usize;
            scratch.args.clear();
            let mut total = true;
            for &av in self.args_of(ci) {
                match cands.only(av as usize) {
                    Some(t) => scratch.args.push(Value(t as u32)),
                    None => {
                        total = false;
                        break;
                    }
                }
            }
            if total && !self.dst.contains_fact(self.con_rel[ci], &scratch.args) {
                return false;
            }
        }
        true
    }

    fn extract(&self, state: &SearchState) -> Homomorphism {
        let mut map = vec![None; self.src.num_values()];
        for (vi, &v) in self.vars.iter().enumerate() {
            map[v.index()] = state.cands.only(vi).map(|t| Value(t as u32));
        }
        Homomorphism { map }
    }

    /// Enters a new search node: counts it against the budget and either
    /// processes the leaf in place or installs a branching frame at `depth`.
    #[allow(clippy::too_many_arguments)]
    fn enter_node(
        &self,
        state: &mut SearchState,
        frames: &mut Vec<Frame>,
        depth: usize,
        config: &HomConfig,
        stats: &mut HomSearchStats,
        out: &mut Vec<Homomorphism>,
    ) -> Result<NodeKind> {
        stats.nodes += 1;
        if let Some(max) = config.max_nodes {
            if stats.nodes > max {
                return Err(HomError::BudgetExhausted);
            }
        }
        // Select the unassigned variable with the fewest candidates — except
        // that a `branch_first` variable takes precedence while undecided
        // (retraction checks: only the deactivated value's variable cannot
        // map identically, so deciding it first fails or succeeds fastest).
        let pick = self
            .branch_first
            .filter(|&vi| state.cands.count(vi) > 1)
            .or_else(|| {
                (0..self.vars.len())
                    .filter(|&vi| state.cands.count(vi) > 1)
                    .min_by_key(|&vi| state.cands.count(vi))
            });
        let Some(var) = pick else {
            // All candidate sets are singletons.
            let ok = if config.use_arc_consistency {
                // Arc consistency with singleton domains implies every
                // constraint has a supporting target fact, so the assignment
                // is a homomorphism.
                true
            } else {
                self.assignment_consistent(state)
            };
            if ok {
                stats.found += 1;
                out.push(self.extract(state));
            } else {
                stats.backtracks += 1;
            }
            return Ok(NodeKind::Leaf);
        };
        if frames.len() == depth {
            frames.push(Frame::default());
        }
        let frame = &mut frames[depth];
        frame.var = var;
        frame.next = 0;
        frame.mark = state.cands.mark();
        frame.choices.clear();
        frame
            .choices
            .extend(state.cands.values(var).map(|t| t as u32));
        Ok(NodeKind::Branch)
    }

    /// The iterative branching loop (explicit stack + trail restoration).
    fn solve(
        &self,
        state: &mut SearchState,
        config: &HomConfig,
        stats: &mut HomSearchStats,
        limit: usize,
        out: &mut Vec<Homomorphism>,
    ) -> Result<()> {
        self.solve_until(state, config, stats, limit, out, &mut |_| false)
    }

    /// [`Problem::solve`] with an early-stop predicate: enumeration ends as
    /// soon as `stop_when` accepts a freshly found homomorphism (used by the
    /// core engine's endomorphism sweep to stop at the first non-surjective
    /// endomorphism).  The plain `solve` passes a constant-`false` predicate.
    fn solve_until(
        &self,
        state: &mut SearchState,
        config: &HomConfig,
        stats: &mut HomSearchStats,
        limit: usize,
        out: &mut Vec<Homomorphism>,
        stop_when: &mut dyn FnMut(&Homomorphism) -> bool,
    ) -> Result<()> {
        let mut frames: Vec<Frame> = Vec::new();
        let mut seen = out.len();
        let mut check_new = |out: &Vec<Homomorphism>, seen: &mut usize| -> bool {
            if out.len() > *seen {
                *seen = out.len();
                stop_when(out.last().expect("just pushed"))
            } else {
                false
            }
        };
        match self.enter_node(state, &mut frames, 0, config, stats, out)? {
            NodeKind::Leaf => {
                check_new(out, &mut seen);
                return Ok(());
            }
            NodeKind::Branch => {}
        }
        let mut depth = 1usize; // frames[..depth] are active
        loop {
            if depth == 0 || out.len() >= limit {
                return Ok(());
            }
            let frame = &mut frames[depth - 1];
            // Restore the node-entry state before (re)trying a choice; this
            // also unwinds the subtree of the previous choice.
            state.cands.undo_to(frame.mark);
            if frame.next >= frame.choices.len() {
                depth -= 1;
                continue;
            }
            let t = frame.choices[frame.next] as usize;
            frame.next += 1;
            let var = frame.var;
            state.cands.assign(var, t);
            let ok = if config.use_arc_consistency {
                self.propagate(state, self.constraints_of(var))
            } else {
                self.forward_check(state, var)
            };
            if ok {
                match self.enter_node(state, &mut frames, depth, config, stats, out)? {
                    NodeKind::Leaf => {
                        if check_new(out, &mut seen) {
                            return Ok(());
                        }
                    }
                    NodeKind::Branch => depth += 1,
                }
            } else {
                stats.backtracks += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::Schema;

    fn path(n: usize) -> Example {
        // Directed path with n edges.
        let mut i = Instance::new(Schema::digraph());
        let vs = i.add_values("p", n + 1);
        for k in 0..n {
            i.add_fact_by_name("R", &[vs[k], vs[k + 1]]).unwrap();
        }
        Example::boolean(i)
    }

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
    fn path_maps_to_cycle() {
        let h = find_homomorphism(&path(5), &cycle(3)).expect("path → cycle");
        assert!(h.verify(&path(5), &cycle(3)));
    }

    #[test]
    fn cycle_does_not_map_to_longer_path() {
        assert!(!hom_exists(&cycle(3), &path(10)));
    }

    #[test]
    fn odd_cycle_not_two_colorable() {
        // C5 → K2 fails, C4 → K2 succeeds (2-colorability).
        assert!(!hom_exists(&cycle(5), &clique(2)));
        assert!(hom_exists(&cycle(4), &clique(2)));
    }

    #[test]
    fn clique_homomorphism_is_coloring() {
        // K3 → K3 yes; K4 → K3 no (graph 3-colorability of K4).
        assert!(hom_exists(&clique(3), &clique(3)));
        assert!(!hom_exists(&clique(4), &clique(3)));
    }

    #[test]
    fn distinguished_elements_are_respected() {
        let schema = Schema::digraph();
        let mut i = Instance::new(schema.clone());
        i.add_fact_labels("R", &["x", "y"]).unwrap();
        let x = i.value_by_label("x").unwrap();
        let src = Example::new(i, vec![x]);

        let mut j = Instance::new(schema);
        j.add_fact_labels("R", &["a", "b"]).unwrap();
        let a = j.value_by_label("a").unwrap();
        let b = j.value_by_label("b").unwrap();
        let dst_ok = Example::new(j.clone(), vec![a]);
        let dst_bad = Example::new(j, vec![b]);
        assert!(hom_exists(&src, &dst_ok));
        assert!(!hom_exists(&src, &dst_bad), "b has no outgoing edge");
    }

    #[test]
    fn repeated_distinguished_values() {
        let schema = Schema::digraph();
        let mut i = Instance::new(schema.clone());
        i.add_fact_labels("R", &["x", "x"]).unwrap();
        let x = i.value_by_label("x").unwrap();
        let src = Example::new(i, vec![x, x]);
        let mut j = Instance::new(schema);
        j.add_fact_labels("R", &["a", "a"]).unwrap();
        j.add_fact_labels("R", &["a", "b"]).unwrap();
        let a = j.value_by_label("a").unwrap();
        let b = j.value_by_label("b").unwrap();
        // Source repeats x in its distinguished tuple; target ⟨a,b⟩ does not
        // repeat, so no homomorphism can exist.
        let bad = Example::new(j.clone(), vec![a, b]);
        assert!(!hom_exists(&src, &bad));
        let good = Example::new(j, vec![a, a]);
        assert!(hom_exists(&src, &good));
    }

    #[test]
    fn enumeration_counts_colorings() {
        // Homomorphisms from a single edge to K3: 3 * 2 = 6.
        let homs = find_all_homomorphisms(&path(1), &clique(3), 100);
        assert_eq!(homs.len(), 6);
        for h in &homs {
            assert!(h.verify(&path(1), &clique(3)));
        }
    }

    #[test]
    fn enumeration_respects_limit() {
        let homs = find_all_homomorphisms(&path(1), &clique(3), 2);
        assert_eq!(homs.len(), 2);
    }

    #[test]
    fn no_arc_consistency_agrees() {
        let cfg = HomConfig {
            use_arc_consistency: false,
            max_nodes: None,
        };
        let mut stats = HomSearchStats::default();
        let r = find_homomorphism_with(&cycle(5), &clique(2), &cfg, &mut stats).unwrap();
        assert!(r.is_none());
        let mut stats = HomSearchStats::default();
        let r = find_homomorphism_with(&cycle(6), &clique(2), &cfg, &mut stats).unwrap();
        assert!(r.is_some());
    }

    #[test]
    fn budget_exhaustion_reported() {
        let cfg = HomConfig {
            use_arc_consistency: false,
            max_nodes: Some(1),
        };
        let mut stats = HomSearchStats::default();
        let r = find_homomorphism_with(&clique(5), &clique(4), &cfg, &mut stats);
        assert_eq!(r.unwrap_err(), HomError::BudgetExhausted);
    }

    #[test]
    fn empty_source_always_maps() {
        let schema = Schema::digraph();
        let empty = Example::boolean(Instance::new(schema));
        assert!(hom_exists(&empty, &cycle(3)));
        assert!(hom_exists(&empty, &empty));
    }

    #[test]
    fn deep_source_does_not_overflow_the_stack() {
        // A directed path with thousands of edges maps into a 2-cycle; the
        // explicit-stack engine must handle the depth that would overflow a
        // recursion-per-variable implementation.
        let n = 20_000;
        let p = path(n);
        let c2 = cycle(2);
        let h = find_homomorphism(&p, &c2).expect("even cycle target");
        assert!(h.verify(&p, &c2));
    }

    #[test]
    fn stats_match_reference_engine() {
        // The rewrite must preserve the search tree exactly: same nodes,
        // backtracks and found counts as the pre-index engine, with and
        // without arc consistency.
        for (src, dst) in [
            (cycle(9), clique(3)),
            (cycle(5), clique(2)),
            (clique(4), clique(3)),
            (path(6), cycle(3)),
        ] {
            for ac in [true, false] {
                let cfg = HomConfig {
                    use_arc_consistency: ac,
                    max_nodes: None,
                };
                let mut new_stats = HomSearchStats::default();
                let new = find_homomorphism_with(&src, &dst, &cfg, &mut new_stats).unwrap();
                let mut ref_stats = HomSearchStats::default();
                let old =
                    crate::reference::find_homomorphism_with(&src, &dst, &cfg, &mut ref_stats)
                        .unwrap();
                assert_eq!(new, old);
                assert_eq!(new_stats.nodes, ref_stats.nodes);
                assert_eq!(new_stats.backtracks, ref_stats.backtracks);
                assert_eq!(new_stats.found, ref_stats.found);
            }
        }
    }
}
