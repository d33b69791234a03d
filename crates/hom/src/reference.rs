//! The pre-index, clone-based homomorphism engine, preserved verbatim as a
//! reference oracle.
//!
//! This module is the engine that shipped before the trail-based rewrite of
//! the search module: it clones the full candidate-set vector at every branch
//! node and re-scans all target facts of a relation on every propagation
//! step.  It is kept as the oracle of the differential test suite
//! (`tests/differential_hom.rs`), which checks that the new engine agrees
//! with it on existence, enumeration and witnesses over hundreds of random
//! instances.
//!
//! It is **not** part of the supported API surface.

use crate::bitset::BitSet;
use crate::{HomConfig, HomError, HomSearchStats, Homomorphism, Result};
use cqfit_data::{Example, Fact, Instance, Value};

/// Finds one homomorphism with the reference engine, collecting statistics.
///
/// # Errors
/// Returns [`HomError::BudgetExhausted`] if the node limit is reached.
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

/// True if a homomorphism from `src` to `dst` exists (reference engine).
pub fn hom_exists(src: &Example, dst: &Example) -> bool {
    let mut stats = HomSearchStats::default();
    find_homomorphism_with(src, dst, &HomConfig::default(), &mut stats)
        .expect("unlimited search cannot exhaust its budget")
        .is_some()
}

/// Enumerates up to `limit` homomorphisms (reference engine).
pub fn find_all_homomorphisms(src: &Example, dst: &Example, limit: usize) -> Vec<Homomorphism> {
    find_all_homomorphisms_with(src, dst, &HomConfig::default(), limit)
}

/// Enumerates up to `limit` homomorphisms under an explicit configuration
/// (reference engine); panics on budget exhaustion.
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

/// The shared search driver (pre-rewrite version).
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
    let Some(mut cands) = problem.initial_candidates() else {
        return Ok(());
    };
    if config.use_arc_consistency && !problem.propagate_all(&mut cands) {
        return Ok(());
    }
    problem.branch(cands, config, stats, limit, out)?;
    Ok(())
}

/// Internal representation of one search problem (pre-rewrite version).
struct Problem<'a> {
    src: &'a Instance,
    dst: &'a Instance,
    vars: Vec<Value>,
    forced: Vec<Option<Value>>,
    constraints: Vec<Constraint>,
    constraints_of_var: Vec<Vec<usize>>,
}

struct Constraint {
    fact: Fact,
    arg_vars: Vec<usize>,
}

impl<'a> Problem<'a> {
    fn new(src_ex: &'a Example, dst_ex: &'a Example) -> Option<Self> {
        let src = src_ex.instance();
        let dst = dst_ex.instance();
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
        for (i, &d) in src_ex.distinguished().iter().enumerate() {
            let vi = add_var(d, &mut var_of_value, &mut vars, &mut forced);
            let target = dst_ex.distinguished()[i];
            match forced[vi] {
                None => forced[vi] = Some(target),
                Some(existing) if existing == target => {}
                Some(_) => return None,
            }
        }
        for v in src.values() {
            if src.is_active(v) {
                add_var(v, &mut var_of_value, &mut vars, &mut forced);
            }
        }
        let mut constraints_of_var = vec![Vec::new(); vars.len()];
        let mut constraints = Vec::new();
        for f in src.facts() {
            let arg_vars: Vec<usize> = f.args.iter().map(|a| var_of_value[a.index()]).collect();
            let ci = constraints.len();
            let mut seen = std::collections::HashSet::new();
            for &av in &arg_vars {
                if seen.insert(av) {
                    constraints_of_var[av].push(ci);
                }
            }
            constraints.push(Constraint {
                fact: f.clone(),
                arg_vars,
            });
        }
        Some(Problem {
            src,
            dst,
            vars,
            forced,
            constraints,
            constraints_of_var,
        })
    }

    fn initial_candidates(&self) -> Option<Vec<BitSet>> {
        let n_dst = self.dst.num_values();
        let mut cands = Vec::with_capacity(self.vars.len());
        for (vi, &v) in self.vars.iter().enumerate() {
            let mut set = BitSet::empty(n_dst);
            match self.forced[vi] {
                Some(t) => {
                    set.insert(t.index());
                }
                None => {
                    if self.src.is_active(v) {
                        for t in self.dst.values() {
                            if self.dst.is_active(t) {
                                set.insert(t.index());
                            }
                        }
                    } else {
                        for t in self.dst.values() {
                            set.insert(t.index());
                        }
                    }
                }
            }
            if set.is_empty() {
                return None;
            }
            cands.push(set);
        }
        Some(cands)
    }

    fn propagate_all(&self, cands: &mut [BitSet]) -> bool {
        let queue: Vec<usize> = (0..self.constraints.len()).collect();
        self.propagate(cands, queue)
    }

    /// Generalised arc consistency from an initial worklist of constraints,
    /// re-scanning every target fact of the constraint's relation.
    fn propagate(&self, cands: &mut [BitSet], mut queue: Vec<usize>) -> bool {
        let mut queued = vec![false; self.constraints.len()];
        for &q in &queue {
            queued[q] = true;
        }
        while let Some(ci) = queue.pop() {
            queued[ci] = false;
            let c = &self.constraints[ci];
            let n = c.arg_vars.len();
            let mut supports: Vec<BitSet> = (0..n)
                .map(|_| BitSet::empty(self.dst.num_values()))
                .collect();
            'facts: for &fid in self.dst.facts_with_rel(c.fact.rel) {
                let df = self.dst.fact(fid);
                for i in 0..n {
                    if !cands[c.arg_vars[i]].contains(df.args[i].index()) {
                        continue 'facts;
                    }
                    for j in (i + 1)..n {
                        if c.arg_vars[i] == c.arg_vars[j] && df.args[i] != df.args[j] {
                            continue 'facts;
                        }
                    }
                }
                for (i, support) in supports.iter_mut().enumerate() {
                    support.insert(df.args[i].index());
                }
            }
            for (i, support) in supports.iter().enumerate() {
                let var = c.arg_vars[i];
                if cands[var].intersect_with(support) {
                    if cands[var].is_empty() {
                        return false;
                    }
                    for &other in &self.constraints_of_var[var] {
                        if !queued[other] {
                            queued[other] = true;
                            queue.push(other);
                        }
                    }
                }
            }
        }
        true
    }

    fn assignment_consistent(&self, cands: &[BitSet]) -> bool {
        for c in &self.constraints {
            let mut args = Vec::with_capacity(c.arg_vars.len());
            for &av in &c.arg_vars {
                match cands[av].only() {
                    Some(t) => args.push(Value(t as u32)),
                    None => return true,
                }
            }
            if !self.dst.contains_fact(c.fact.rel, &args) {
                return false;
            }
        }
        true
    }

    fn forward_check(&self, cands: &[BitSet], var: usize) -> bool {
        for &ci in &self.constraints_of_var[var] {
            let c = &self.constraints[ci];
            let mut args = Vec::with_capacity(c.arg_vars.len());
            let mut total = true;
            for &av in &c.arg_vars {
                match cands[av].only() {
                    Some(t) => args.push(Value(t as u32)),
                    None => {
                        total = false;
                        break;
                    }
                }
            }
            if total && !self.dst.contains_fact(c.fact.rel, &args) {
                return false;
            }
        }
        true
    }

    fn extract(&self, cands: &[BitSet]) -> Homomorphism {
        let mut map = vec![None; self.src.num_values()];
        for (vi, &v) in self.vars.iter().enumerate() {
            map[v.index()] = cands[vi].only().map(|t| Value(t as u32));
        }
        Homomorphism::from_map(map)
    }

    /// Recursive branching: clones the full candidate vector (and the
    /// constraint list of the picked variable) at every node.
    fn branch(
        &self,
        cands: Vec<BitSet>,
        config: &HomConfig,
        stats: &mut HomSearchStats,
        limit: usize,
        out: &mut Vec<Homomorphism>,
    ) -> Result<()> {
        stats.nodes += 1;
        if let Some(max) = config.max_nodes {
            if stats.nodes > max {
                return Err(HomError::BudgetExhausted);
            }
        }
        let pick = (0..self.vars.len())
            .filter(|&vi| cands[vi].len() > 1)
            .min_by_key(|&vi| cands[vi].len());
        let Some(var) = pick else {
            let ok = if config.use_arc_consistency {
                true
            } else {
                self.assignment_consistent(&cands)
            };
            if ok {
                stats.found += 1;
                out.push(self.extract(&cands));
            } else {
                stats.backtracks += 1;
            }
            return Ok(());
        };
        let choices: Vec<usize> = cands[var].iter().collect();
        for t in choices {
            if out.len() >= limit {
                return Ok(());
            }
            let mut next = cands.clone();
            next[var].retain_only(t);
            let ok = if config.use_arc_consistency {
                self.propagate(&mut next, self.constraints_of_var[var].clone())
            } else {
                self.forward_check(&next, var)
            };
            if ok {
                self.branch(next, config, stats, limit, out)?;
            } else {
                stats.backtracks += 1;
            }
        }
        Ok(())
    }
}
