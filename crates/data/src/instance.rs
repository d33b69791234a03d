//! Instances: finite sets of facts over a schema.

use crate::index::FactIndex;
use crate::{DataError, RelId, Result, Schema};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A value (domain element) of an [`Instance`], represented as a dense index
/// local to that instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u32);

impl Value {
    /// The index of this value in the instance's domain.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a fact within an [`Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactId(pub u32);

impl FactId {
    /// The index of this fact in [`Instance::facts`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fact `R(a1,…,an)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fact {
    /// Relation symbol.
    pub rel: RelId,
    /// Arguments; length equals the arity of `rel`.
    pub args: Vec<Value>,
}

/// A finite relational instance: a set of facts over a schema together with a
/// domain of values.
///
/// The *domain* of an instance is the set of declared values; the *active
/// domain* (`adom` in the paper) is the subset of values that occur in at
/// least one fact.  Facts are deduplicated: adding an existing fact returns
/// the existing [`FactId`].
#[derive(Debug, Clone)]
pub struct Instance {
    schema: Arc<Schema>,
    labels: Vec<String>,
    facts: Vec<Fact>,
    /// Per value: does it occur in some fact?  Kept up to date by every
    /// constructor and by [`Instance::add_fact`], so activeness (and with
    /// it the data-example test) never needs the fact index.
    active: Vec<bool>,
    /// Secondary access paths into `facts` (exact lookup, per-relation,
    /// per-value and per-`(relation, position, value)` posting lists),
    /// built from `facts` on first use and from then on maintained
    /// incrementally by [`Instance::add_fact`].  Building it lazily keeps
    /// decoding cheap: a write-ahead-log replay decodes many examples that
    /// a later record removes before anything reads them.  Boxed because
    /// most instances on the fitting path never build it, so it should
    /// not widen every instance (and every example moved or cloned).
    index: OnceLock<Box<FactIndex>>,
    /// Memoized structural hash ([`Instance::canonical_hash`]); reset by
    /// every structural mutation (labels are excluded from the hash, so
    /// [`Instance::set_label`] does not reset it).  Cached because cache
    /// lookups in `cqfit_hom` hash the same (potentially large) instances
    /// on every request.
    structural_hash: OnceLock<crate::CanonicalHash>,
}

impl Instance {
    /// Creates an empty instance over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Instance {
            schema,
            labels: Vec::new(),
            facts: Vec::new(),
            active: Vec::new(),
            index: OnceLock::new(),
            structural_hash: OnceLock::new(),
        }
    }

    /// Builds an instance over `schema` whose values carry `labels`, in
    /// order, and whose facts are `facts`: `new`, one `add_value` per label
    /// and one `add_fact` per fact, in bulk.  Each fact is checked as
    /// `add_fact` checks it, and a repeated fact is kept at its first
    /// occurrence only, so the fact order is the one `add_fact` would
    /// give.  Finding repeats costs one hash per fact; no fact index is
    /// built (it is left to first use).
    ///
    /// # Errors
    /// Fails on the first fact whose argument count does not match its
    /// relation's arity or whose argument is not one of the `labels`.
    pub fn from_facts(
        schema: Arc<Schema>,
        labels: Vec<String>,
        mut facts: Vec<Fact>,
    ) -> Result<Self> {
        let mut inst = Instance::new(schema);
        inst.labels = labels;
        inst.active = vec![false; inst.labels.len()];
        for f in &facts {
            inst.check_fact(f.rel, &f.args)?;
            for a in &f.args {
                inst.active[a.index()] = true;
            }
        }
        if let Some(repeat) = repeated_facts(&facts) {
            let mut at = 0;
            facts.retain(|_| {
                at += 1;
                !repeat[at - 1]
            });
        }
        inst.facts = facts;
        Ok(inst)
    }

    /// The memo cell of the structural hash (filled by
    /// [`Instance::canonical_hash`] in the `canonical` module).
    pub(crate) fn structural_hash_cell(&self) -> &OnceLock<crate::CanonicalHash> {
        &self.structural_hash
    }

    /// The fact index, built on first use.
    #[inline]
    fn index(&self) -> &FactIndex {
        self.index.get_or_init(|| {
            Box::new(FactIndex::build(
                &self.schema,
                self.labels.len(),
                &self.facts,
            ))
        })
    }

    /// The fact index, built on first use, for an update.
    fn index_mut(&mut self) -> &mut FactIndex {
        self.index();
        self.index.get_mut().expect("index built above")
    }

    /// The schema of this instance.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Adds a fresh value with the given display label.
    pub fn add_value(&mut self, label: impl Into<String>) -> Value {
        let v = Value(self.labels.len() as u32);
        self.labels.push(label.into());
        self.active.push(false);
        if let Some(index) = self.index.get_mut() {
            index.add_value();
        }
        self.structural_hash = OnceLock::new();
        v
    }

    /// Adds `n` fresh values labeled `prefix0 … prefix{n-1}` and returns them.
    pub fn add_values(&mut self, prefix: &str, n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| self.add_value(format!("{prefix}{i}")))
            .collect()
    }

    /// Looks up a value by label (linear scan; intended for small, hand-built
    /// instances and the textual parser).
    pub fn value_by_label(&self, label: &str) -> Option<Value> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| Value(i as u32))
    }

    /// Returns the value with the given label, adding it if absent.
    pub fn value_or_add(&mut self, label: &str) -> Value {
        match self.value_by_label(label) {
            Some(v) => v,
            None => self.add_value(label),
        }
    }

    /// Number of declared values (domain size).
    pub fn num_values(&self) -> usize {
        self.labels.len()
    }

    /// Iterator over all declared values.
    pub fn values(&self) -> impl Iterator<Item = Value> {
        (0..self.labels.len() as u32).map(Value)
    }

    /// The display label of a value.
    pub fn label(&self, v: Value) -> &str {
        &self.labels[v.index()]
    }

    /// Overwrites the display label of a value.
    pub fn set_label(&mut self, v: Value, label: impl Into<String>) {
        self.labels[v.index()] = label.into();
    }

    /// Adds a fact; returns its id.  Adding an already-present fact is a
    /// no-op returning the existing id.
    ///
    /// # Errors
    /// Fails if the argument count does not match the relation arity or if an
    /// argument value does not belong to this instance.
    pub fn add_fact(&mut self, rel: RelId, args: &[Value]) -> Result<FactId> {
        self.check_fact(rel, args)?;
        if let Some(id) = self.index().lookup(&self.facts, rel, args) {
            return Ok(id);
        }
        let id = FactId(self.facts.len() as u32);
        for a in args {
            self.active[a.index()] = true;
        }
        let fact = Fact {
            rel,
            args: args.to_vec(),
        };
        self.index_mut().insert(&fact, id);
        self.facts.push(fact);
        self.structural_hash = OnceLock::new();
        Ok(id)
    }

    /// Checks the argument count against the arity of `rel` and that
    /// every argument belongs to this instance.
    fn check_fact(&self, rel: RelId, args: &[Value]) -> Result<()> {
        let arity = self.schema.arity(rel);
        if args.len() != arity {
            return Err(DataError::ArityMismatch {
                relation: self.schema.name(rel).to_string(),
                expected: arity,
                got: args.len(),
            });
        }
        for &a in args {
            if a.index() >= self.labels.len() {
                return Err(DataError::UnknownValue(a.0));
            }
        }
        Ok(())
    }

    /// Adds a fact by relation name.
    pub fn add_fact_by_name(&mut self, rel: &str, args: &[Value]) -> Result<FactId> {
        let rel = self.schema.rel_checked(rel)?;
        self.add_fact(rel, args)
    }

    /// Adds a fact whose arguments are given as labels, creating values on
    /// demand.  Convenient for building small hand-written instances.
    pub fn add_fact_labels(&mut self, rel: &str, args: &[&str]) -> Result<FactId> {
        let vals: Vec<Value> = args.iter().map(|a| self.value_or_add(a)).collect();
        self.add_fact_by_name(rel, &vals)
    }

    /// All facts of the instance.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// The fact with the given id.
    pub fn fact(&self, id: FactId) -> &Fact {
        &self.facts[id.index()]
    }

    /// Number of facts — the paper's notion of the *size* `|e|` of an example.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// True if the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// True if the instance contains the given fact.
    pub fn contains_fact(&self, rel: RelId, args: &[Value]) -> bool {
        self.index().lookup(&self.facts, rel, args).is_some()
    }

    /// Ids of all facts using relation `rel`.
    pub fn facts_with_rel(&self, rel: RelId) -> &[FactId] {
        self.index().with_rel(rel)
    }

    /// Ids of all facts of relation `rel` whose argument at position `pos`
    /// is the value `v` (empty for unknown keys).
    ///
    /// This is the index access path that makes homomorphism propagation
    /// enumerate only the facts consistent with an already-narrowed
    /// candidate set, instead of scanning all of [`Instance::facts_with_rel`].
    pub fn facts_with_rel_pos_value(&self, rel: RelId, pos: usize, v: Value) -> &[FactId] {
        self.index().with_rel_pos_value(rel, pos, v)
    }

    /// Ids of all facts in which value `v` occurs (each fact listed once).
    pub fn facts_containing(&self, v: Value) -> &[FactId] {
        self.index().containing_value(v)
    }

    /// True if `v` occurs in at least one fact.
    pub fn is_active(&self, v: Value) -> bool {
        self.active[v.index()]
    }

    /// The active domain: all values occurring in at least one fact, in index
    /// order.
    pub fn active_domain(&self) -> Vec<Value> {
        self.values().filter(|&v| self.is_active(v)).collect()
    }

    /// Number of active-domain elements.
    pub fn active_domain_size(&self) -> usize {
        self.values().filter(|&v| self.is_active(v)).count()
    }

    /// The Gaifman neighbours of `v`: all values co-occurring with `v` in some
    /// fact (excluding `v` itself), without duplicates.
    pub fn neighbours(&self, v: Value) -> Vec<Value> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for &fid in self.facts_containing(v) {
            for &w in &self.fact(fid).args {
                if w != v && seen.insert(w) {
                    out.push(w);
                }
            }
        }
        out
    }

    /// Connected components of the Gaifman graph restricted to the active
    /// domain (isolated declared values are not reported).
    pub fn connected_components(&self) -> Vec<Vec<Value>> {
        let mut seen: HashSet<Value> = HashSet::new();
        let mut comps = Vec::new();
        for v in self.values() {
            if !self.is_active(v) || seen.contains(&v) {
                continue;
            }
            let mut stack = vec![v];
            let mut comp = Vec::new();
            seen.insert(v);
            while let Some(x) = stack.pop() {
                comp.push(x);
                for w in self.neighbours(x) {
                    if seen.insert(w) {
                        stack.push(w);
                    }
                }
            }
            comp.sort();
            comps.push(comp);
        }
        comps
    }

    /// The sub-instance induced by `keep`: keeps exactly the facts all of
    /// whose arguments lie in `keep`.  Returns the new instance together with
    /// the mapping from old values to new values (only for kept values).
    pub fn induced(&self, keep: &HashSet<Value>) -> (Instance, HashMap<Value, Value>) {
        let mut out = Instance::new(self.schema.clone());
        let mut map = HashMap::new();
        for v in self.values() {
            if keep.contains(&v) {
                let nv = out.add_value(self.label(v));
                map.insert(v, nv);
            }
        }
        for f in &self.facts {
            if f.args.iter().all(|a| keep.contains(a)) {
                let args: Vec<Value> = f.args.iter().map(|a| map[a]).collect();
                out.add_fact(f.rel, &args).expect("valid fact");
            }
        }
        (out, map)
    }

    /// Imports every value and every fact of `other` into `self`, returning
    /// the mapping from `other`'s values to the freshly created values.
    ///
    /// # Errors
    /// Fails if the schemas differ.
    pub fn import(&mut self, other: &Instance) -> Result<Vec<Value>> {
        if self.schema.as_ref() != other.schema.as_ref() {
            return Err(DataError::SchemaMismatch);
        }
        let map: Vec<Value> = other
            .values()
            .map(|v| self.add_value(other.label(v)))
            .collect();
        for f in other.facts() {
            let args: Vec<Value> = f.args.iter().map(|a| map[a.index()]).collect();
            self.add_fact(f.rel, &args)?;
        }
        Ok(map)
    }

    /// True if `self` and `other` have literally the same fact set under the
    /// identity mapping of value indices (not isomorphism).
    pub fn same_facts(&self, other: &Instance) -> bool {
        if self.schema.as_ref() != other.schema.as_ref() || self.num_facts() != other.num_facts() {
            return false;
        }
        self.facts
            .iter()
            .all(|f| other.contains_fact(f.rel, &f.args))
    }

    /// Formats one fact for display.
    pub fn fact_to_string(&self, f: &Fact) -> String {
        let args: Vec<&str> = f.args.iter().map(|a| self.label(*a)).collect();
        format!("{}({})", self.schema.name(f.rel), args.join(","))
    }
}

/// The positions of `facts` that repeat an earlier fact, or `None` when
/// all are distinct.  One open-addressing probe sequence per fact over a
/// table of positions, keyed by a multiply-rotate hash of the fact.
fn repeated_facts(facts: &[Fact]) -> Option<Vec<bool>> {
    if facts.len() < 2 {
        return None;
    }
    let mask = (2 * facts.len()).next_power_of_two() - 1;
    let mut slots = vec![u32::MAX; mask + 1];
    let mut repeat: Option<Vec<bool>> = None;
    for (i, f) in facts.iter().enumerate() {
        let mut h = u64::from(f.rel.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for a in &f.args {
            h = (h.rotate_left(26) ^ u64::from(a.0)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        let mut at = (h >> 32) as usize & mask;
        loop {
            match slots[at] {
                u32::MAX => {
                    slots[at] = i as u32;
                    break;
                }
                j if facts[j as usize] == *f => {
                    repeat.get_or_insert_with(|| vec![false; facts.len()])[i] = true;
                    break;
                }
                _ => at = (at + 1) & mask,
            }
        }
    }
    repeat
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.facts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.fact_to_string(fact))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digraph() -> Arc<Schema> {
        Schema::digraph()
    }

    /// A decoded instance sizes its index by the schema's slots plus its
    /// values, never their product: one wide relation and many labels
    /// (the shape of a hostile `add_example` line) leave the positional
    /// lists empty until facts arrive, and one fact grows each slot only
    /// to the values it mentions.
    #[test]
    fn decoded_index_stays_linear_in_slots_and_values() {
        const N: usize = 2_000;
        let labels = vec!["\"\""; N].join(",");
        let text = format!(
            r#"{{"schema":{{"relations":[{{"name":"W","arity":{N}}}]}},"labels":[{labels}],"facts":[]}}"#
        );
        let empty: Instance = serde::json::decode(&text).unwrap();
        assert_eq!(empty.num_values(), N);
        assert_eq!(empty.index().positional_entries(), 0);
        let tree: Instance = serde::from_str(&text).unwrap();
        assert_eq!(tree.index().positional_entries(), 0);

        let args = vec!["0"; N].join(",");
        let text = text.replace(r#""facts":[]"#, &format!(r#""facts":[[0,{args}]]"#));
        let one: Instance = serde::json::decode(&text).unwrap();
        assert_eq!(one.num_facts(), 1);
        assert_eq!(one.index().positional_entries(), N, "one entry per slot");
    }

    /// The activeness the instance keeps equals a scan of its facts.
    fn assert_activeness_is_kept(inst: &Instance, what: &str) {
        for v in inst.values() {
            let scanned = inst.facts().iter().any(|f| f.args.contains(&v));
            assert_eq!(inst.is_active(v), scanned, "{what}: value {}", v.0);
        }
        let scanned: Vec<Value> = inst
            .values()
            .filter(|v| inst.facts().iter().any(|f| f.args.contains(v)))
            .collect();
        assert_eq!(inst.active_domain(), scanned, "{what}");
    }

    #[test]
    fn kept_activeness_matches_a_scan() {
        let schema = Arc::new(Schema::new([("U", 1), ("R", 2), ("T", 3)]).unwrap());
        let (u, r, t) = (
            schema.rel("U").unwrap(),
            schema.rel("R").unwrap(),
            schema.rel("T").unwrap(),
        );
        let mut i = Instance::new(schema.clone());
        assert_activeness_is_kept(&i, "empty");
        let vs = i.add_values("v", 6);
        assert_activeness_is_kept(&i, "add_value");
        i.add_fact(r, &[vs[0], vs[0]]).unwrap();
        i.add_fact(u, &[vs[2]]).unwrap();
        i.add_fact(r, &[vs[0], vs[0]]).unwrap();
        assert!(i.add_fact(t, &[vs[4], vs[5]]).is_err());
        assert_activeness_is_kept(&i, "add_fact");
        i.add_value("late");
        i.add_fact(t, &[vs[3], vs[0], vs[3]]).unwrap();
        assert_activeness_is_kept(&i, "add_value after add_fact");

        let labels: Vec<String> = (0..5).map(|k| format!("w{k}")).collect();
        let fact = |rel, args: &[u32]| Fact {
            rel,
            args: args.iter().copied().map(Value).collect(),
        };
        let facts = vec![
            fact(r, &[1, 3]),
            fact(u, &[1]),
            fact(r, &[1, 3]),
            fact(t, &[3, 3, 3]),
        ];
        let bulk = Instance::from_facts(schema.clone(), labels.clone(), facts).unwrap();
        assert_eq!(bulk.num_facts(), 3, "the repeat is dropped");
        assert_activeness_is_kept(&bulk, "from_facts");
        let bad = vec![fact(r, &[1, 3]), fact(r, &[1])];
        assert!(matches!(
            Instance::from_facts(schema.clone(), labels.clone(), bad),
            Err(DataError::ArityMismatch { .. })
        ));
        let outside = vec![fact(u, &[7])];
        assert!(matches!(
            Instance::from_facts(schema, labels, outside),
            Err(DataError::UnknownValue(7))
        ));

        let line = r#"{"schema":{"relations":[{"name":"U","arity":1},{"name":"R","arity":2}]},"labels":["a","b","c","d"],"facts":[[1,2,0],[0,2],[1,2,0],[0,2]]}"#;
        for decoded in [
            serde::json::decode::<Instance>(line).unwrap(),
            serde::from_str::<Instance>(line).unwrap(),
        ] {
            assert_eq!(decoded.num_facts(), 2, "repeats are dropped");
            assert_activeness_is_kept(&decoded, "decoded");
            assert!(!decoded.is_active(Value(1)) && !decoded.is_active(Value(3)));
        }
    }

    #[test]
    fn add_values_and_facts() {
        let mut i = Instance::new(digraph());
        let a = i.add_value("a");
        let b = i.add_value("b");
        let r = i.schema().rel("R").unwrap();
        let f1 = i.add_fact(r, &[a, b]).unwrap();
        let f2 = i.add_fact(r, &[a, b]).unwrap();
        assert_eq!(f1, f2, "facts are deduplicated");
        assert_eq!(i.num_facts(), 1);
        assert_eq!(i.num_values(), 2);
        assert!(i.contains_fact(r, &[a, b]));
        assert!(!i.contains_fact(r, &[b, a]));
    }

    #[test]
    fn arity_checked() {
        let mut i = Instance::new(digraph());
        let a = i.add_value("a");
        let r = i.schema().rel("R").unwrap();
        assert!(matches!(
            i.add_fact(r, &[a]),
            Err(DataError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unknown_value_rejected() {
        let mut i = Instance::new(digraph());
        let r = i.schema().rel("R").unwrap();
        let a = i.add_value("a");
        assert!(matches!(
            i.add_fact(r, &[a, Value(7)]),
            Err(DataError::UnknownValue(7))
        ));
    }

    #[test]
    fn active_domain_excludes_isolated_values() {
        let mut i = Instance::new(digraph());
        let a = i.add_value("a");
        let b = i.add_value("b");
        let _c = i.add_value("c");
        i.add_fact_by_name("R", &[a, b]).unwrap();
        assert_eq!(i.active_domain(), vec![a, b]);
        assert_eq!(i.num_values(), 3);
        assert_eq!(i.active_domain_size(), 2);
    }

    #[test]
    fn neighbours_and_components() {
        let mut i = Instance::new(digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        i.add_fact_labels("R", &["b", "c"]).unwrap();
        i.add_fact_labels("R", &["x", "y"]).unwrap();
        let b = i.value_by_label("b").unwrap();
        let mut nb = i.neighbours(b);
        nb.sort();
        assert_eq!(nb.len(), 2);
        assert_eq!(i.connected_components().len(), 2);
    }

    #[test]
    fn induced_subinstance() {
        let mut i = Instance::new(digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        i.add_fact_labels("R", &["b", "c"]).unwrap();
        let a = i.value_by_label("a").unwrap();
        let b = i.value_by_label("b").unwrap();
        let keep: HashSet<Value> = [a, b].into_iter().collect();
        let (sub, map) = i.induced(&keep);
        assert_eq!(sub.num_facts(), 1);
        assert_eq!(sub.num_values(), 2);
        assert_eq!(sub.label(map[&a]), "a");
    }

    #[test]
    fn import_merges_domains() {
        let mut i = Instance::new(digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        let mut j = Instance::new(digraph());
        j.add_fact_labels("R", &["x", "y"]).unwrap();
        let map = i.import(&j).unwrap();
        assert_eq!(i.num_values(), 4);
        assert_eq!(i.num_facts(), 2);
        assert_eq!(i.label(map[0]), "x");
    }

    #[test]
    fn display_lists_facts() {
        let mut i = Instance::new(digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        assert_eq!(i.to_string(), "{R(a,b)}");
    }
}
