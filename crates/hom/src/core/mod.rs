//! Cores and homomorphic equivalence — the mask-based core engine.
//!
//! Every instance has a unique (up to isomorphism) minimal sub-instance to
//! which it is homomorphically equivalent — its *core* (§2.1).  For pointed
//! instances, homomorphisms must fix the distinguished tuple, so distinguished
//! values are never folded away.
//!
//! # Engine architecture
//!
//! Core computation reduces to *retraction checks*: does the example map
//! homomorphically into itself with one value deactivated?  The engine here
//! differs from the preserved greedy oracle ([`self::reference`]) in five
//! ways:
//!
//! * **Dominated-value fold before every sweep** — a value `u` whose alive
//!   facts all reappear on another alive value `v` once `u` is replaced by
//!   `v` retracts onto `v` (Hell and Nešetřil, "The core of a graph",
//!   1992).  Such values are folded with word operations over per-relation
//!   bitsets, with no search, after the isolated-value mask and after every
//!   orbit fold; the expensive sweep then runs on the residue only.  On
//!   query-by-example products most of the folding happens here.
//! * **Deactivation mask instead of induced clones** — one `Vec<bool>` over
//!   the original domain drives every check through the trail searcher's
//!   masked mode (`SearchTweaks`); no induced sub-instance (labels, fact
//!   table, fact index) is ever rebuilt until the final materialization,
//!   which goes through one dense old→new value map.  Isolated
//!   non-distinguished values are masked out *up front*, so no intermediate
//!   check ranges over dead values (the greedy oracle only dropped them
//!   after its retraction loop).
//! * **Branch-first retraction search** — for a retraction avoiding `v` the
//!   identity is almost a homomorphism: only `v` needs a new image.  The
//!   masked search therefore branches on `v`'s variable first and skips the
//!   full initial arc-consistency closure (propagation runs incrementally
//!   from each assignment instead, which is sound and complete — see
//!   `search::find_homomorphism_tweaked`).  On the paper's cycle-product
//!   families this replaces one global wipe-out cascade per candidate by a
//!   handful of cheap singleton chains.
//! * **Orbit folding** — a witness retraction `h` avoiding `v` misses not
//!   just `v` but every value outside its image; all of them are deactivated
//!   at once, instead of one value per pass.
//! * **First-witness candidate checks** — when the endomorphism sweep is
//!   capped, the per-candidate retraction searches of one round run in
//!   candidate order on the calling thread and stop at the first witness,
//!   which is the one folded; no search starts after a witness is found.
//!
//! The engine and the oracle agree up to isomorphism (equal value and fact
//! counts, homomorphic equivalence, identical distinguished tuples), which is
//! asserted over hundreds of fixed-seed instances by
//! `tests/differential_core.rs`.

pub mod reference;

use crate::bitset::{clear_bit, set_bit, set_bits, RelMasks};
use crate::search::{
    enumerate_homomorphisms_tweaked, find_homomorphism, find_homomorphism_tweaked, SearchTweaks,
    TweakedEnumeration,
};
use crate::Homomorphism;
use cqfit_data::{Example, Fact, Instance, Value};
use std::collections::HashSet;

/// Folds dominated values until none is left.  A value `u` that is
/// alive and not distinguished is *dominated* by another alive `v` when
/// `v` carries every alive fact of `u` with `u` replaced by `v` (a loop
/// `R(u,u)` needs `R(v,v)`); the map `u ↦ v`, identity elsewhere, is
/// then a retraction of the alive sub-instance onto all of it but `u`
/// (Hell and Nešetřil), so `u` is deactivated.  No value becomes
/// isolated by such a fold: each fact of `u` reappears on `v`.
///
/// Unary and binary facts narrow the candidate dominators with word
/// operations; facts of arity ≥ 3 are checked per candidate on the
/// substituted tuple.  Candidates are taken in index order, so the fold
/// is deterministic.  `masks` are the bitsets of the full fact table:
/// dead values in them never matter, because every candidate set they
/// narrow starts as the alive mask.  The facts of each value are
/// gathered from the fact table ([`FactsByValue`]), so no fact index is
/// built.
fn fold_dominated(
    masks: &RelMasks,
    inst: &Instance,
    is_distinguished: &[bool],
    alive: &mut [bool],
) {
    let RelMasks {
        wpv,
        unary,
        out,
        inc,
        loops,
    } = masks;
    let wpv = *wpv;
    let containing = FactsByValue::of(inst);
    let mut alive_words = vec![0u64; wpv];
    for (i, _) in alive.iter().enumerate().filter(|(_, &a)| a) {
        set_bit(&mut alive_words, i);
    }
    let mut cand = vec![0u64; wpv];
    let mut wide = Vec::new();
    let mut args = Vec::new();
    let mut folded = true;
    while folded {
        folded = false;
        for u in 0..alive.len() {
            if !alive[u] || is_distinguished[u] {
                continue;
            }
            cand.copy_from_slice(&alive_words);
            clear_bit(&mut cand, u);
            wide.clear();
            for &fid in containing.of_value(u) {
                let f = &inst.facts()[fid];
                if !f.args.iter().all(|a| alive[a.index()]) {
                    continue;
                }
                let ri = f.rel.index();
                let (mask, at) = match *f.args.as_slice() {
                    [_] => (&unary[ri], 0),
                    [a, b] if a == b => (&loops[ri], 0),
                    [a, b] if a.index() == u => (&inc[ri], b.index() * wpv),
                    [a, _] => (&out[ri], a.index() * wpv),
                    _ => {
                        wide.push(fid);
                        continue;
                    }
                };
                let mask = mask.as_ref().expect("built from the same facts");
                for (c, m) in cand.iter_mut().zip(&mask[at..at + wpv]) {
                    *c &= m;
                }
            }
            let dominator = set_bits(&cand).find(|&v| {
                wide.iter().all(|&fid| {
                    let f = &inst.facts()[fid];
                    args.clear();
                    args.extend(f.args.iter().map(|&a| {
                        if a.index() == u {
                            Value(v as u32)
                        } else {
                            a
                        }
                    }));
                    inst.contains_fact(f.rel, &args)
                })
            });
            if dominator.is_some() {
                alive[u] = false;
                clear_bit(&mut alive_words, u);
                folded = true;
            }
        }
    }
}

/// The positions in the fact table of the facts each value occurs in,
/// each fact once per value and in table order, in one arena filled by
/// two walks of the table (count, then place).
struct FactsByValue {
    /// The list of value `v` is `facts[starts[v]..starts[v + 1]]`.
    starts: Vec<usize>,
    facts: Vec<usize>,
}

impl FactsByValue {
    fn of(inst: &Instance) -> Self {
        /// Each distinct value of a fact, by index.
        fn values(args: &[Value]) -> impl Iterator<Item = usize> + '_ {
            (0..args.len())
                .filter(|&i| !args[..i].contains(&args[i]))
                .map(|i| args[i].index())
        }
        let n = inst.num_values();
        // Counted two places up, so that filling below moves each start
        // into its final place.
        let mut starts = vec![0; n + 2];
        for f in inst.facts() {
            for v in values(&f.args) {
                starts[v + 2] += 1;
            }
        }
        for v in 2..n + 2 {
            starts[v] += starts[v - 1];
        }
        let mut facts = vec![0; starts[n + 1]];
        for (fid, f) in inst.facts().iter().enumerate() {
            for v in values(&f.args) {
                facts[starts[v + 1]] = fid;
                starts[v + 1] += 1;
            }
        }
        starts.pop();
        FactsByValue { starts, facts }
    }

    fn of_value(&self, v: usize) -> &[usize] {
        &self.facts[self.starts[v]..self.starts[v + 1]]
    }
}

/// Outcome of one endomorphism sweep over the alive sub-instance.
enum Sweep {
    /// A non-surjective endomorphism — its image misses at least one
    /// retraction candidate, so everything outside the image folds away.
    NonSurjective(Homomorphism),
    /// The full endomorphism space was enumerated and every endomorphism is
    /// surjective: the alive sub-instance is certifiably a core.
    AllSurjective,
    /// Solution or node cap hit first (automorphism-rich instances):
    /// inconclusive, fall back to per-candidate retraction checks.
    Capped,
}

/// One capped endomorphism sweep: enumerates endomorphisms of the
/// `alive`-masked sub-instance of `e`, stopping at the first whose image
/// misses a retraction candidate.
///
/// A finite pointed instance is a core iff every endomorphism is surjective,
/// so a single exhaustive enumeration both certifies core-ness and — when it
/// is not a core — hands back a foldable witness, at roughly the cost of
/// *one* per-candidate retraction check on the paper's cycle-product
/// families.  The caps (solution count and search nodes) bound the sweep on
/// automorphism-rich instances, where the per-candidate path is no worse.
fn endo_sweep(e: &Example, alive: &[bool], candidates: &[Value]) -> Sweep {
    let n = e.instance().num_values();
    let limit = 16 + 4 * candidates.len();
    let max_nodes = 64 + 32 * n as u64;
    let mut image = vec![false; n];
    let non_surjective = |h: &Homomorphism, image: &mut Vec<bool>| {
        for slot in image.iter_mut() {
            *slot = false;
        }
        for (_, t) in h.pairs() {
            image[t.index()] = true;
        }
        candidates.iter().any(|c| !image[c.index()])
    };
    let outcome = enumerate_homomorphisms_tweaked(
        e,
        e,
        SearchTweaks {
            src_alive: Some(alive),
            dst_alive: Some(alive),
            branch_first: None,
            lazy_propagation: true,
        },
        limit,
        max_nodes,
        |h| non_surjective(h, &mut image),
    );
    match outcome {
        TweakedEnumeration::Found(h) => Sweep::NonSurjective(h),
        TweakedEnumeration::Exhausted => Sweep::AllSurjective,
        TweakedEnumeration::Capped => Sweep::Capped,
    }
}

/// Finds the first candidate in `candidates` that admits a retraction of
/// the `alive`-masked sub-instance of `e` avoiding that candidate, and
/// returns the witness homomorphism.  Candidates are checked in order and
/// the search stops at the first witness.
fn first_retraction(e: &Example, alive: &[bool], candidates: &[Value]) -> Option<Homomorphism> {
    candidates.iter().find_map(|&c| {
        let mut dst_alive = alive.to_vec();
        dst_alive[c.index()] = false;
        find_homomorphism_tweaked(
            e,
            e,
            SearchTweaks {
                src_alive: Some(alive),
                dst_alive: Some(&dst_alive),
                branch_first: Some(c),
                lazy_propagation: true,
            },
        )
    })
}

/// Computes the core of a pointed instance.
///
/// One deactivation mask over the original domain is maintained throughout:
/// isolated non-distinguished values are deactivated immediately, each round
/// first folds every dominated value and then searches the alive candidates
/// for a retraction, and a found witness deactivates the *entire* complement
/// of its image (orbit folding).  The round that finds no witness certifies
/// the alive sub-instance a core.  The induced sub-instance is materialized
/// exactly once, at the end.
///
/// The greedy one-value-at-a-time oracle this engine replaces is preserved
/// as [`reference::core_of`]; the two agree up to isomorphism.
pub fn core_of(e: &Example) -> Example {
    let inst = e.instance();
    let n = inst.num_values();
    let mut is_distinguished = vec![false; n];
    for &d in e.distinguished() {
        is_distinguished[d.index()] = true;
    }
    // The deactivation mask.  Isolated non-distinguished values carry no
    // information and are dead from the start, so no retraction check ever
    // ranges over them.
    let mut alive: Vec<bool> = inst
        .values()
        .map(|v| inst.is_active(v) || is_distinguished[v.index()])
        .collect();
    let masks = RelMasks::build(inst, None);
    loop {
        // Cheap folds first: every dominated value goes before the sweep,
        // which then runs on the residue (or certifies it a core).
        fold_dominated(&masks, inst, &is_distinguished, &mut alive);
        let candidates: Vec<Value> = inst
            .values()
            .filter(|v| alive[v.index()] && !is_distinguished[v.index()])
            .collect();
        if candidates.is_empty() {
            break;
        }
        // Primary strategy: one capped endomorphism sweep, which either
        // certifies the core, yields a foldable witness, or punts.
        let witness = match endo_sweep(e, &alive, &candidates) {
            Sweep::NonSurjective(h) => Some(h),
            Sweep::AllSurjective => None,
            // Fallback: per-candidate retraction checks.
            Sweep::Capped => first_retraction(e, &alive, &candidates),
        };
        let Some(witness) = witness else {
            break;
        };
        // Orbit folding: the witness maps the alive sub-instance into itself
        // missing at least one candidate, so *every* alive value outside its
        // image retracts away in one step.  Image values stay alive — each is
        // the image of an alive fact's argument (or a distinguished value),
        // so none of them becomes isolated by the fold.
        let mut in_image = vec![false; n];
        for (_, t) in witness.pairs() {
            in_image[t.index()] = true;
        }
        let mut shrunk = false;
        for v in 0..n {
            if alive[v] && !in_image[v] && !is_distinguished[v] {
                alive[v] = false;
                shrunk = true;
            }
        }
        debug_assert!(shrunk, "a retraction witness must miss a candidate");
        if !shrunk {
            break; // defensive: never loop forever
        }
    }
    // Materialize the alive sub-instance once, through a dense old→new map.
    let mut new_of = vec![Value(u32::MAX); n];
    let mut labels = Vec::new();
    for v in inst.values().filter(|v| alive[v.index()]) {
        new_of[v.index()] = Value(labels.len() as u32);
        labels.push(inst.label(v).to_string());
    }
    let facts = inst
        .facts()
        .iter()
        .filter(|f| f.args.iter().all(|a| alive[a.index()]))
        .map(|f| Fact {
            rel: f.rel,
            args: f.args.iter().map(|a| new_of[a.index()]).collect(),
        })
        .collect();
    let sub = Instance::from_facts(inst.schema().clone(), labels, facts).expect("valid facts");
    let dist: Vec<Value> = e
        .distinguished()
        .iter()
        .map(|d| new_of[d.index()])
        .collect();
    Example::new(sub, dist)
}

/// True if the example is a core: no proper retraction exists.  Runs the
/// same mask-based candidate checks as [`core_of`] (with the full
/// domain alive, matching the oracle's semantics of keeping declared values
/// in place).
pub fn is_core(e: &Example) -> bool {
    let inst = e.instance();
    let alive = vec![true; inst.num_values()];
    let is_distinguished: HashSet<Value> = e.distinguished().iter().copied().collect();
    let candidates: Vec<Value> = inst
        .values()
        .filter(|&v| inst.is_active(v) && !is_distinguished.contains(&v))
        .collect();
    match endo_sweep(e, &alive, &candidates) {
        Sweep::NonSurjective(_) => false,
        Sweep::AllSurjective => true,
        Sweep::Capped => first_retraction(e, &alive, &candidates).is_none(),
    }
}

/// True if the two examples are homomorphically equivalent (homomorphisms in
/// both directions exist).
pub fn hom_equivalent(e1: &Example, e2: &Example) -> bool {
    find_homomorphism(e1, e2).is_some() && find_homomorphism(e2, e1).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::Schema;
    use std::sync::Arc;

    fn boolean(facts: &[(&str, &str)]) -> Example {
        let mut i = Instance::new(Schema::digraph());
        for (a, b) in facts {
            i.add_fact_labels("R", &[a, b]).unwrap();
        }
        Example::boolean(i)
    }

    #[test]
    fn core_of_symmetric_even_cycle_is_symmetric_edge() {
        // The symmetric (undirected) 4-cycle is homomorphically equivalent to
        // a single symmetric edge (it is 2-colorable), so its core has 2
        // values and 2 facts.
        let c4 = boolean(&[
            ("0", "1"),
            ("1", "0"),
            ("1", "2"),
            ("2", "1"),
            ("2", "3"),
            ("3", "2"),
            ("3", "0"),
            ("0", "3"),
        ]);
        let core = core_of(&c4);
        assert_eq!(core.instance().num_values(), 2);
        assert_eq!(core.size(), 2);
        assert!(hom_equivalent(&c4, &core));
        assert!(is_core(&core));
    }

    #[test]
    fn directed_even_cycle_is_a_core() {
        // Unlike the symmetric case, the *directed* 4-cycle has no proper
        // retract (it contains no shorter directed cycle as a sub-instance).
        let c4 = boolean(&[("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")]);
        assert!(is_core(&c4));
    }

    #[test]
    fn two_disjoint_edges_core_to_one() {
        let e = boolean(&[("a", "b"), ("c", "d")]);
        let core = core_of(&e);
        assert_eq!(core.instance().num_values(), 2);
        assert_eq!(core.size(), 1);
    }

    #[test]
    fn odd_cycle_is_core() {
        let c5 = boolean(&[("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0")]);
        assert!(is_core(&c5));
        let core = core_of(&c5);
        assert_eq!(core.instance().num_values(), 5);
    }

    #[test]
    fn path_core_is_whole_path() {
        // Directed paths are cores; verify with the library rather than by
        // hand.
        let p3 = boolean(&[("0", "1"), ("1", "2"), ("2", "3")]);
        let core = core_of(&p3);
        assert!(hom_equivalent(&p3, &core));
        assert!(is_core(&core));
        assert_eq!(core.instance().num_values(), 4, "directed paths are cores");
    }

    #[test]
    fn distinguished_values_are_kept() {
        // Two parallel edges from a distinguished source; the non-
        // distinguished copy folds away, the distinguished one stays.
        let mut i = Instance::new(Schema::digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        i.add_fact_labels("R", &["a", "c"]).unwrap();
        let a = i.value_by_label("a").unwrap();
        let b = i.value_by_label("b").unwrap();
        let e = Example::new(i, vec![a, b]);
        let core = core_of(&e);
        assert_eq!(core.instance().num_values(), 2);
        assert_eq!(core.arity(), 2);
        assert!(core.is_data_example());
    }

    #[test]
    fn core_idempotent() {
        let c6 = boolean(&[
            ("0", "1"),
            ("1", "2"),
            ("2", "3"),
            ("3", "4"),
            ("4", "5"),
            ("5", "0"),
        ]);
        let once = core_of(&c6);
        let twice = core_of(&once);
        assert_eq!(once.instance().num_values(), twice.instance().num_values());
        assert!(hom_equivalent(&once, &twice));
    }

    #[test]
    fn hom_equivalence_examples() {
        let loop1 = boolean(&[("x", "x")]);
        let loop2 = boolean(&[("y", "y"), ("y", "z"), ("z", "y")]);
        assert!(hom_equivalent(&loop1, &loop2));
        let edge = boolean(&[("a", "b")]);
        assert!(!hom_equivalent(&loop1, &edge));
    }

    /// Regression for the isolated-value cleanup: padding an instance with
    /// declared-but-isolated values must neither survive into the core nor
    /// change it, and the dead values are masked out before any retraction
    /// check runs (they are never candidates and never candidate images).
    #[test]
    fn padded_isolated_values_are_masked_out_up_front() {
        let mut i = Instance::new(Schema::digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        i.add_fact_labels("R", &["a", "c"]).unwrap();
        for k in 0..16 {
            i.add_value(format!("pad{k}"));
        }
        let a = i.value_by_label("a").unwrap();
        let e = Example::new(i, vec![a]);
        let core = core_of(&e);
        assert_eq!(core.instance().num_values(), 2, "pads and one edge fold");
        assert_eq!(core.size(), 1);
        assert!(core.is_data_example());
        assert!(is_core(&core));
        // The padded and unpadded instances have isomorphic cores.
        let mut j = Instance::new(Schema::digraph());
        j.add_fact_labels("R", &["a", "b"]).unwrap();
        j.add_fact_labels("R", &["a", "c"]).unwrap();
        let a2 = j.value_by_label("a").unwrap();
        let unpadded_core = core_of(&Example::new(j, vec![a2]));
        assert_eq!(
            core.instance().num_values(),
            unpadded_core.instance().num_values()
        );
        assert_eq!(core.size(), unpadded_core.size());
        assert!(hom_equivalent(&core, &unpadded_core));
    }

    /// The alive mask after the dominated-value fold alone, starting from
    /// the mask `core_of` starts from.
    fn fold_only(e: &Example) -> Vec<bool> {
        let inst = e.instance();
        let mut is_distinguished = vec![false; inst.num_values()];
        for &d in e.distinguished() {
            is_distinguished[d.index()] = true;
        }
        let mut alive: Vec<bool> = inst
            .values()
            .map(|v| inst.is_active(v) || is_distinguished[v.index()])
            .collect();
        fold_dominated(
            &RelMasks::build(inst, None),
            inst,
            &is_distinguished,
            &mut alive,
        );
        alive
    }

    fn alive_labels(e: &Example, alive: &[bool]) -> Vec<String> {
        let inst = e.instance();
        inst.values()
            .filter(|v| alive[v.index()])
            .map(|v| inst.label(v).to_string())
            .collect()
    }

    #[test]
    fn dominated_leaf_folds() {
        // `b` and `c` are twins under `a`; the first one folds onto the
        // other, and nothing else is dominated.
        let e = boolean(&[("a", "b"), ("a", "c"), ("c", "d")]);
        assert_eq!(alive_labels(&e, &fold_only(&e)), ["a", "c", "d"]);
    }

    #[test]
    fn a_loop_folds_only_onto_a_loop() {
        // `u` carries a loop; `w` repeats `R(a,u)` as `R(a,w)` but has no
        // loop, so `u` stays and `w` folds onto `u` instead.
        let no_loop = {
            let mut i = Instance::new(Schema::digraph());
            for (x, y) in [("a", "u"), ("u", "u"), ("a", "w")] {
                i.add_fact_labels("R", &[x, y]).unwrap();
            }
            let a = i.value_by_label("a").unwrap();
            Example::new(i, vec![a])
        };
        assert_eq!(alive_labels(&no_loop, &fold_only(&no_loop)), ["a", "u"]);
        // With `R(w,w)` the loop has an image, and `u` folds onto `w`.
        let (mut i, dist) = no_loop.into_parts();
        i.add_fact_labels("R", &["w", "w"]).unwrap();
        let looped = Example::new(i, dist);
        assert_eq!(alive_labels(&looped, &fold_only(&looped)), ["a", "w"]);
    }

    #[test]
    fn distinguished_values_never_fold() {
        // Unpointed, `b` (first in index order) folds onto its twin `c`.
        let e = boolean(&[("a", "b"), ("a", "c")]);
        assert_eq!(alive_labels(&e, &fold_only(&e)), ["a", "c"]);
        // Pointed at `b`, `b` stays and `c` folds onto it instead.
        let (i, _) = e.into_parts();
        let b = i.value_by_label("b").unwrap();
        let pointed = Example::new(i, vec![b]);
        assert_eq!(alive_labels(&pointed, &fold_only(&pointed)), ["a", "b"]);
        // Pointed at both, neither folds.
        let (i, _) = pointed.into_parts();
        let (b, c) = (
            i.value_by_label("b").unwrap(),
            i.value_by_label("c").unwrap(),
        );
        let both = Example::new(i, vec![b, c]);
        assert_eq!(alive_labels(&both, &fold_only(&both)), ["a", "b", "c"]);
    }

    #[test]
    fn a_unary_fact_blocks_a_fold_onto_a_value_without_it() {
        let mut i = Instance::new(Schema::binary_schema(["P", "Q"], ["R"]));
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        i.add_fact_labels("R", &["a", "c"]).unwrap();
        i.add_fact_labels("P", &["b"]).unwrap();
        // `b` cannot fold onto `c` (no `P(c)`); `c` folds onto `b`.
        let e = Example::boolean(i.clone());
        assert_eq!(alive_labels(&e, &fold_only(&e)), ["a", "b"]);
        // With `Q(c)` as well, neither twin dominates the other.
        i.add_fact_labels("Q", &["c"]).unwrap();
        let e = Example::boolean(i);
        assert_eq!(alive_labels(&e, &fold_only(&e)), ["a", "b", "c"]);
    }

    /// Asserts that `core_of` and the greedy oracle agree on value and fact
    /// counts and give homomorphically equivalent cores.
    fn agrees_with_oracle(e: &Example, what: &str) {
        let fast = core_of(e);
        let slow = reference::core_of(e);
        assert_eq!(
            fast.instance().num_values(),
            slow.instance().num_values(),
            "{what}: value counts diverge on {}",
            e.instance()
        );
        assert_eq!(fast.size(), slow.size(), "{what}: fact counts diverge");
        assert!(hom_equivalent(&fast, &slow), "{what}: cores not equivalent");
        assert!(is_core(&fast), "{what}: result is not a core");
    }

    #[test]
    fn ternary_instances_agree_with_oracle() {
        // Pseudo-random ternary + unary instances over 6 values (a fixed
        // LCG, so the rows are the same on every run).
        let schema = Arc::new(Schema::new([("T", 3), ("U", 1)]).unwrap());
        let (t, u) = (schema.rel("T").unwrap(), schema.rel("U").unwrap());
        let mut folding_rows = 0;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % m) as u32
        };
        for row in 0..40 {
            let mut i = Instance::new(schema.clone());
            i.add_values("v", 6);
            for _ in 0..2 + next(5) {
                let args = [Value(next(6)), Value(next(6)), Value(next(6))];
                i.add_fact(t, &args).unwrap();
            }
            for _ in 0..next(3) {
                i.add_fact(u, &[Value(next(6))]).unwrap();
            }
            let dist = if row % 2 == 0 { vec![] } else { vec![Value(0)] };
            let e = Example::new(i, dist);
            let active = e.instance().active_domain_size();
            if fold_only(&e).iter().filter(|&&a| a).count() < active {
                folding_rows += 1;
            }
            agrees_with_oracle(&e, &format!("ternary row {row}"));
        }
        assert!(folding_rows > 0, "no ternary row exercised the fold");
    }

    #[test]
    fn more_than_64_values_agree_with_oracle() {
        // 66 twin leaves into a hub that points into a directed triangle,
        // and 4 more leaves (indices ≥ 64) hanging off the triangle: the
        // twins and the late leaves fold across word boundaries, and the
        // sweep maps what is left onto the triangle.
        let mut i = Instance::new(Schema::digraph());
        let leaves = i.add_values("l", 66);
        let hub = i.add_value("hub");
        let tri = i.add_values("c", 3);
        let r = i.schema().rel("R").unwrap();
        for &l in &leaves {
            i.add_fact(r, &[l, hub]).unwrap();
        }
        i.add_fact(r, &[hub, tri[0]]).unwrap();
        for k in 0..3 {
            i.add_fact(r, &[tri[k], tri[(k + 1) % 3]]).unwrap();
        }
        for l in i.add_values("m", 4) {
            i.add_fact(r, &[tri[1], l]).unwrap();
        }
        assert!(i.num_values() > 64);
        let e = Example::boolean(i.clone());
        assert_eq!(
            alive_labels(&e, &fold_only(&e)),
            ["l65", "hub", "c0", "c1", "c2"]
        );
        agrees_with_oracle(&e, "boolean");
        assert_eq!(core_of(&e).instance().num_values(), 3);
        // Pointed at a late leaf, that leaf survives.
        let m3 = i.value_by_label("m3").unwrap();
        agrees_with_oracle(&Example::new(i, vec![m3]), "pointed");
    }

    /// Orbit folding: the witness image shrinks a long foldable structure in
    /// few rounds, and the result still matches the greedy oracle.
    #[test]
    fn symmetric_path_folds_to_edge_and_agrees_with_oracle() {
        let mut facts = Vec::new();
        let labels: Vec<String> = (0..12).map(|k| k.to_string()).collect();
        for k in 0..11usize {
            facts.push((labels[k].as_str(), labels[k + 1].as_str()));
            facts.push((labels[k + 1].as_str(), labels[k].as_str()));
        }
        let e = boolean(&facts);
        let fast = core_of(&e);
        let slow = reference::core_of(&e);
        assert_eq!(fast.instance().num_values(), 2);
        assert_eq!(fast.instance().num_values(), slow.instance().num_values());
        assert_eq!(fast.size(), slow.size());
        assert!(hom_equivalent(&fast, &slow));
    }
}
