//! Incidence graphs, c-acyclicity and Berge-acyclicity (§2.2, Definition
//! 2.10).

use crate::Cq;
use cqfit_data::{Example, Value};
use std::collections::HashSet;

/// The incidence (multi)graph of an example: a bipartite multigraph between
/// active-domain values and facts, with one edge per occurrence of a value in
/// a fact.
#[derive(Debug, Clone)]
pub struct IncidenceGraph {
    /// For each value index, the number of occurrences in facts.
    occurrence_count: Vec<usize>,
}

impl IncidenceGraph {
    /// Builds the incidence graph of an example.
    pub fn of_example(e: &Example) -> Self {
        let mut occurrence_count = vec![0usize; e.instance().num_values()];
        for f in e.instance().facts() {
            for a in &f.args {
                occurrence_count[a.index()] += 1;
            }
        }
        IncidenceGraph { occurrence_count }
    }

    /// The maximum degree over all values.
    pub fn max_value_degree(&self) -> usize {
        self.occurrence_count.iter().copied().max().unwrap_or(0)
    }
}

/// Checks whether the incidence multigraph restricted to non-distinguished
/// values is acyclic, i.e. every cycle of the incidence graph (including
/// length-2 multi-edge cycles) passes through a distinguished element.
fn acyclic_modulo(e: &Example, excluded: &HashSet<Value>) -> bool {
    // Union-find over (non-excluded values) ∪ facts; every occurrence of a
    // non-excluded value in a fact is an edge.  A cycle exists iff some edge
    // connects two already-connected nodes.
    let inst = e.instance();
    let n_vals = inst.num_values();
    let n_facts = inst.num_facts();
    let mut parent: Vec<usize> = (0..n_vals + n_facts).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (fi, fact) in inst.facts().iter().enumerate() {
        let fact_node = n_vals + fi;
        for a in &fact.args {
            if excluded.contains(a) {
                continue;
            }
            let ra = find(&mut parent, a.index());
            let rf = find(&mut parent, fact_node);
            if ra == rf {
                return false;
            }
            parent[ra] = rf;
        }
    }
    true
}

/// True if the example is c-acyclic (Definition 2.10): every cycle of its
/// incidence graph passes through a distinguished element.
pub fn is_c_acyclic_example(e: &Example) -> bool {
    let excluded: HashSet<Value> = e.distinguished().iter().copied().collect();
    acyclic_modulo(e, &excluded)
}

/// True if the CQ is c-acyclic (its canonical example is).
pub fn is_c_acyclic(q: &Cq) -> bool {
    is_c_acyclic_example(&q.canonical_example())
}

/// True if the example is Berge-acyclic: its incidence graph has no cycle at
/// all (distinguished elements get no special treatment).  Together with
/// connectedness and unarity this characterises tree CQs (§5).
pub fn is_berge_acyclic(e: &Example) -> bool {
    acyclic_modulo(e, &HashSet::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_cq;
    use cqfit_data::Schema;

    /// Example 2.13 of the paper: q1, q2 are c-acyclic, q3 is not.
    #[test]
    fn paper_example_2_13() {
        let schema = Schema::binary_schema([], ["R", "S"]);
        let q1 = parse_cq(&schema, "q(x) :- R(x,y), R(y,z)").unwrap();
        let q2 = parse_cq(&schema, "q(x) :- R(x,x), S(u,v), S(v,w)").unwrap();
        let q3 = parse_cq(&schema, "q(x) :- R(x,y), R(y,y)").unwrap();
        assert!(is_c_acyclic(&q1));
        assert!(is_c_acyclic(&q2));
        assert!(!is_c_acyclic(&q3));
    }

    /// Example 2.9/2.11: a directed path is c-acyclic, a loop is not (as a
    /// Boolean example).
    #[test]
    fn paper_example_2_11() {
        let schema = Schema::digraph();
        let path = parse_cq(&schema, "q() :- R(a,b), R(b,c), R(c,d)").unwrap();
        let looped = parse_cq(&schema, "q() :- R(a,a)").unwrap();
        assert!(is_c_acyclic(&path));
        assert!(!is_c_acyclic(&looped));
    }

    #[test]
    fn repeated_occurrence_in_one_atom_is_a_cycle() {
        let schema = Schema::digraph();
        // R(x,x) with x existential: multi-edge cycle of length 2.
        let q = parse_cq(&schema, "q() :- R(x,x)").unwrap();
        assert!(!is_c_acyclic(&q));
        // …but if x is an answer variable the cycle passes through a
        // distinguished element.
        let q = parse_cq(&schema, "q(x) :- R(x,x)").unwrap();
        assert!(is_c_acyclic(&q));
        assert!(!is_berge_acyclic(&q.canonical_example()));
    }

    #[test]
    fn two_atoms_sharing_two_variables() {
        let schema = Schema::binary_schema([], ["R", "S"]);
        let q = parse_cq(&schema, "q() :- R(x,y), S(x,y)").unwrap();
        assert!(!is_c_acyclic(&q));
        // If x is an answer variable, the unique cycle x–R–y–S–x passes
        // through the distinguished element x, so the query is c-acyclic.
        let q = parse_cq(&schema, "q(x) :- R(x,y), S(x,y)").unwrap();
        assert!(is_c_acyclic(&q));
    }

    #[test]
    fn berge_acyclic_tree() {
        let schema = Schema::binary_schema(["A"], ["R", "S"]);
        let q = parse_cq(&schema, "q(x) :- R(x,y), S(x,z), A(z)").unwrap();
        assert!(is_berge_acyclic(&q.canonical_example()));
        let q2 = parse_cq(&schema, "q(x) :- R(x,y), S(x,y)").unwrap();
        assert!(!is_berge_acyclic(&q2.canonical_example()));
    }

    #[test]
    fn incidence_degrees() {
        let schema = Schema::digraph();
        let q = parse_cq(&schema, "q(x) :- R(x,y), R(x,z), R(x,x)").unwrap();
        let g = IncidenceGraph::of_example(&q.canonical_example());
        assert_eq!(g.max_value_degree(), 4);
    }
}
