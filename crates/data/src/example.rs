//! Pointed instances and data examples.

use crate::{DataError, Instance, Result, Value};
use std::fmt;

/// A pointed instance `(I, ā)`: an instance together with a tuple of
/// distinguished values.
///
/// When every distinguished value lies in the active domain the pointed
/// instance is a *data example* (see [`Example::is_data_example`]).  Boolean
/// examples have an empty tuple of distinguished values.
#[derive(Debug, Clone)]
pub struct Example {
    instance: Instance,
    distinguished: Vec<Value>,
}

impl Example {
    /// Creates a pointed instance; no active-domain requirement is imposed.
    pub fn new(instance: Instance, distinguished: Vec<Value>) -> Self {
        for &d in &distinguished {
            assert!(
                d.index() < instance.num_values(),
                "distinguished value outside the instance domain"
            );
        }
        Example {
            instance,
            distinguished,
        }
    }

    /// Creates a Boolean (0-ary) example.
    pub fn boolean(instance: Instance) -> Self {
        Example::new(instance, Vec::new())
    }

    /// Creates a data example, checking that each distinguished value occurs
    /// in at least one fact.
    ///
    /// # Errors
    /// Returns [`DataError::DistinguishedOutsideActiveDomain`] otherwise.
    pub fn data_example(instance: Instance, distinguished: Vec<Value>) -> Result<Self> {
        for &d in &distinguished {
            if !instance.is_active(d) {
                return Err(DataError::DistinguishedOutsideActiveDomain(
                    instance.label(d).to_string(),
                ));
            }
        }
        Ok(Example::new(instance, distinguished))
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Consumes the example, returning its parts.
    pub fn into_parts(self) -> (Instance, Vec<Value>) {
        (self.instance, self.distinguished)
    }

    /// The tuple of distinguished values.
    pub fn distinguished(&self) -> &[Value] {
        &self.distinguished
    }

    /// The arity of the example (length of the distinguished tuple).
    pub fn arity(&self) -> usize {
        self.distinguished.len()
    }

    /// True if this is a Boolean example.
    pub fn is_boolean(&self) -> bool {
        self.distinguished.is_empty()
    }

    /// True if every distinguished value occurs in some fact, i.e. the
    /// pointed instance is a data example in the sense of §2.1.
    pub fn is_data_example(&self) -> bool {
        self.distinguished
            .iter()
            .all(|&d| self.instance.is_active(d))
    }

    /// True if the example has the Unique Names Property: no value repeats in
    /// the distinguished tuple.
    pub fn has_unp(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.distinguished.iter().all(|d| seen.insert(*d))
    }

    /// The equality type of the distinguished tuple: for each position, the
    /// first position holding the same value.  Two examples have compatible
    /// distinguished tuples (for e.g. products) iff their equality types are
    /// comparable; examples with the UNP have equality type `[0,1,…,k-1]`.
    pub fn equality_type(&self) -> Vec<usize> {
        self.distinguished
            .iter()
            .enumerate()
            .map(|(i, d)| {
                self.distinguished[..i]
                    .iter()
                    .position(|e| e == d)
                    .unwrap_or(i)
            })
            .collect()
    }

    /// The size of the example measured, as in the paper, by the number of
    /// facts.
    pub fn size(&self) -> usize {
        self.instance.num_facts()
    }

    /// Whether the example is connected in the sense of §2.2: it cannot be
    /// written as the disjoint union of two non-empty pointed instances.
    /// Equivalently, the facts form a single connected component of the
    /// Gaifman graph once all distinguished elements are contracted into one
    /// node.
    pub fn is_connected(&self) -> bool {
        let comps = self.connected_components();
        comps.len() <= 1
    }

    /// Groups the facts into the connected components of the example, where
    /// (as in Example 2.3 of the paper) distinguished elements do not merge
    /// components on their own: two facts are in the same component iff they
    /// are linked by a path of shared *non-distinguished* values.
    ///
    /// Returns, for each component, the list of fact ids it contains.
    pub fn connected_components(&self) -> Vec<Vec<crate::FactId>> {
        use std::collections::HashMap;
        let n = self.instance.num_facts();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        fn union(parent: &mut [usize], a: usize, b: usize) {
            let ra = find(parent, a);
            let rb = find(parent, b);
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let distinguished: std::collections::HashSet<Value> =
            self.distinguished.iter().copied().collect();
        // Link facts sharing a non-distinguished value.
        let mut first_fact_of_value: HashMap<Value, usize> = HashMap::new();
        for (fi, fact) in self.instance.facts().iter().enumerate() {
            for &a in &fact.args {
                if distinguished.contains(&a) {
                    continue;
                }
                match first_fact_of_value.get(&a) {
                    Some(&fj) => union(&mut parent, fi, fj),
                    None => {
                        first_fact_of_value.insert(a, fi);
                    }
                }
            }
        }
        let mut groups: HashMap<usize, Vec<crate::FactId>> = HashMap::new();
        for fi in 0..n {
            let root = find(&mut parent, fi);
            groups
                .entry(root)
                .or_default()
                .push(crate::FactId(fi as u32));
        }
        let mut out: Vec<Vec<crate::FactId>> = groups.into_values().collect();
        out.sort_by_key(|g| g.first().copied());
        out
    }

    /// Extracts the connected component containing the given fact ids as a
    /// pointed instance with the same distinguished tuple (Example 2.3: the
    /// result is a pointed instance but not necessarily a data example).
    pub fn component_example(&self, fact_ids: &[crate::FactId]) -> Example {
        let mut keep: std::collections::HashSet<Value> =
            self.distinguished.iter().copied().collect();
        let wanted: std::collections::HashSet<crate::FactId> = fact_ids.iter().copied().collect();
        for &fid in fact_ids {
            for &a in &self.instance.fact(fid).args {
                keep.insert(a);
            }
        }
        let mut out = Instance::new(self.instance.schema().clone());
        let mut map = std::collections::HashMap::new();
        for v in self.instance.values() {
            if keep.contains(&v) {
                map.insert(v, out.add_value(self.instance.label(v)));
            }
        }
        for (fi, fact) in self.instance.facts().iter().enumerate() {
            if wanted.contains(&crate::FactId(fi as u32)) {
                let args: Vec<Value> = fact.args.iter().map(|a| map[a]).collect();
                out.add_fact(fact.rel, &args).expect("valid fact");
            }
        }
        let dist = self.distinguished.iter().map(|d| map[d]).collect();
        Example::new(out, dist)
    }
}

impl fmt::Display for Example {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, ⟨", self.instance)?;
        for (i, d) in self.distinguished.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.instance.label(*d))?;
        }
        write!(f, "⟩)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn simple() -> Example {
        let mut i = Instance::new(Schema::digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        let a = i.value_by_label("a").unwrap();
        Example::new(i, vec![a])
    }

    #[test]
    fn arity_and_unp() {
        let e = simple();
        assert_eq!(e.arity(), 1);
        assert!(e.has_unp());
        assert!(e.is_data_example());
        assert_eq!(e.size(), 1);
    }

    #[test]
    fn data_example_requires_active_distinguished() {
        let mut i = Instance::new(Schema::digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        let c = i.add_value("c");
        assert!(Example::data_example(i, vec![c]).is_err());
    }

    #[test]
    fn boolean_example() {
        let mut i = Instance::new(Schema::digraph());
        i.add_fact_labels("R", &["a", "a"]).unwrap();
        let e = Example::boolean(i);
        assert!(e.is_boolean());
        assert!(e.is_data_example());
    }

    #[test]
    fn equality_type_detects_repeats() {
        let mut i = Instance::new(Schema::digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        let a = i.value_by_label("a").unwrap();
        let b = i.value_by_label("b").unwrap();
        let e = Example::new(i, vec![a, b, a]);
        assert_eq!(e.equality_type(), vec![0, 1, 0]);
        assert!(!e.has_unp());
    }

    /// Example 2.3 of the paper: (I, ⟨a,b⟩) with I = {R(a,b), S(a,c), S(c,b),
    /// P(b)} has three connected components.
    #[test]
    fn paper_example_2_3_components() {
        let schema = Schema::binary_schema(["P"], ["R", "S"]);
        let mut i = Instance::new(schema);
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        i.add_fact_labels("S", &["a", "c"]).unwrap();
        i.add_fact_labels("S", &["c", "b"]).unwrap();
        i.add_fact_labels("P", &["b"]).unwrap();
        let a = i.value_by_label("a").unwrap();
        let b = i.value_by_label("b").unwrap();
        let e = Example::new(i, vec![a, b]);
        let comps = e.connected_components();
        assert_eq!(comps.len(), 3);
        assert!(!e.is_connected());
        // The component containing only P(b) is a pointed instance but not a
        // data example (a does not occur in it).
        let p_comp = comps
            .iter()
            .find(|c| c.len() == 1 && e.instance().fact(c[0]).args.len() == 1)
            .unwrap();
        let sub = e.component_example(p_comp);
        assert!(!sub.is_data_example());
        assert_eq!(sub.arity(), 2);
    }

    #[test]
    fn connected_single_component() {
        let e = simple();
        assert!(e.is_connected());
    }
}
