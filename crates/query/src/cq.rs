//! Conjunctive queries.

use crate::{QueryError, Result};
use cqfit_data::{Example, Instance, RelId, Schema, Value};
use cqfit_hom::{find_all_homomorphisms, hom_exists};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A query variable, represented as a dense index local to its [`Cq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable(pub u32);

impl Variable {
    /// The index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An atom `R(x1,…,xn)` in the body of a CQ.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Relation symbol.
    pub rel: RelId,
    /// Argument variables; length equals the arity of `rel`.
    pub args: Vec<Variable>,
}

/// A conjunctive query `q(x̄) :- α1 ∧ … ∧ αn` (§2.1).
///
/// The *answer variables* `x̄` may repeat; every answer variable must occur
/// in at least one atom (the safety condition).  A CQ of arity 0 is Boolean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cq {
    schema: Arc<Schema>,
    var_names: Vec<String>,
    answer_vars: Vec<Variable>,
    atoms: Vec<Atom>,
}

impl Cq {
    /// Builds a CQ directly from its parts: variable display names (their
    /// positions fix the [`Variable`] indices; names may repeat), answer
    /// variables, and atoms.  This is the validated counterpart of the
    /// name-deduplicating [`CqBuilder`], used by deserialization, where
    /// repeated display names must *not* merge distinct variables.
    ///
    /// # Errors
    /// Fails on atoms with out-of-range variables or wrong arities, on
    /// out-of-range answer variables, and on safety violations (an answer
    /// variable occurring in no atom).
    pub fn from_parts(
        schema: Arc<Schema>,
        var_names: Vec<String>,
        answer_vars: Vec<Variable>,
        atoms: Vec<Atom>,
    ) -> Result<Cq> {
        for a in &atoms {
            if a.rel.index() >= schema.len() {
                return Err(QueryError::UnknownRelation(format!("#{}", a.rel.0)));
            }
            let arity = schema.arity(a.rel);
            if a.args.len() != arity {
                return Err(QueryError::ArityMismatch {
                    relation: schema.name(a.rel).to_string(),
                    expected: arity,
                    got: a.args.len(),
                });
            }
            for v in &a.args {
                if v.index() >= var_names.len() {
                    return Err(QueryError::UnknownVariable(v.0));
                }
            }
        }
        let occurring: HashSet<Variable> =
            atoms.iter().flat_map(|a| a.args.iter().copied()).collect();
        for v in &answer_vars {
            if v.index() >= var_names.len() {
                return Err(QueryError::UnknownVariable(v.0));
            }
            if !occurring.contains(v) {
                return Err(QueryError::Unsafe(var_names[v.index()].clone()));
            }
        }
        Ok(Cq {
            schema,
            var_names,
            answer_vars,
            atoms,
        })
    }

    /// Starts building a CQ over the given schema.
    pub fn builder(schema: Arc<Schema>) -> CqBuilder {
        CqBuilder {
            schema,
            var_names: Vec::new(),
            answer_vars: Vec::new(),
            atoms: Vec::new(),
        }
    }

    /// The schema of the query.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The arity (number of answer variables, with repetitions).
    pub fn arity(&self) -> usize {
        self.answer_vars.len()
    }

    /// True if the query is Boolean (arity 0).
    pub fn is_boolean(&self) -> bool {
        self.answer_vars.is_empty()
    }

    /// The answer variables `x̄`.
    pub fn answer_vars(&self) -> &[Variable] {
        &self.answer_vars
    }

    /// All variables of the query, in index order.
    pub fn variables(&self) -> impl Iterator<Item = Variable> {
        (0..self.var_names.len() as u32).map(Variable)
    }

    /// The existential variables: those that are not answer variables.
    pub fn existential_vars(&self) -> Vec<Variable> {
        let ans: HashSet<Variable> = self.answer_vars.iter().copied().collect();
        self.variables().filter(|v| !ans.contains(v)).collect()
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: Variable) -> &str {
        &self.var_names[v.index()]
    }

    /// The atoms (conjuncts) of the query body.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of variables (answer and existential).
    pub fn num_variables(&self) -> usize {
        self.var_names.len()
    }

    /// Size of the query: number of variables plus number of atoms (the
    /// measure used in the paper's size bounds).
    pub fn size(&self) -> usize {
        self.num_variables() + self.num_atoms()
    }

    /// The degree of the query: the largest number of atom occurrences of any
    /// single variable (§2.1).
    pub fn degree(&self) -> usize {
        let mut count = vec![0usize; self.var_names.len()];
        for a in &self.atoms {
            for v in &a.args {
                count[v.index()] += 1;
            }
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// True if the CQ has the Unique Names Property: no repeated answer
    /// variables (§2.1).
    pub fn has_unp(&self) -> bool {
        let mut seen = HashSet::new();
        self.answer_vars.iter().all(|v| seen.insert(*v))
    }

    /// The canonical example `e_q = (I_q, x̄)` of the query (§2.1): one value
    /// per variable, one fact per atom, distinguished tuple = answer
    /// variables.
    pub fn canonical_example(&self) -> Example {
        let mut inst = Instance::new(self.schema.clone());
        let vals: Vec<Value> = self
            .var_names
            .iter()
            .map(|n| inst.add_value(n.clone()))
            .collect();
        for a in &self.atoms {
            let args: Vec<Value> = a.args.iter().map(|v| vals[v.index()]).collect();
            inst.add_fact(a.rel, &args)
                .expect("atom arity checked at build time");
        }
        let dist = self.answer_vars.iter().map(|v| vals[v.index()]).collect();
        Example::new(inst, dist)
    }

    /// The canonical CQ of a data example (§2.1): a variable per active
    /// value, an atom per fact, answer variables for the distinguished tuple.
    ///
    /// # Errors
    /// Fails with [`QueryError::NotADataExample`] if some distinguished value
    /// is outside the active domain (the result would violate safety).
    pub fn from_example(example: &Example) -> Result<Cq> {
        if !example.is_data_example() {
            return Err(QueryError::NotADataExample);
        }
        let inst = example.instance();
        let mut var_of_value = vec![None; inst.num_values()];
        let mut var_names = Vec::new();
        for v in inst.values() {
            if inst.is_active(v) {
                var_of_value[v.index()] = Some(Variable(var_names.len() as u32));
                let label = inst.label(v);
                let mut name = String::with_capacity(label.len() + 2);
                name.push_str("x_");
                name.push_str(label);
                var_names.push(name);
            }
        }
        let atoms = inst
            .facts()
            .iter()
            .map(|f| Atom {
                rel: f.rel,
                args: f
                    .args
                    .iter()
                    .map(|a| var_of_value[a.index()].expect("fact values are active"))
                    .collect(),
            })
            .collect();
        let answer_vars = example
            .distinguished()
            .iter()
            .map(|d| var_of_value[d.index()].expect("data example distinguished are active"))
            .collect();
        Ok(Cq {
            schema: inst.schema().clone(),
            var_names,
            answer_vars,
            atoms,
        })
    }

    /// Evaluates the query on an instance, returning the set of answer
    /// tuples `q(I)` (Chandra–Merlin: answers correspond to homomorphisms of
    /// the canonical example into `(I, ·)`).
    ///
    /// The result may be exponentially large in the worst case; use
    /// [`Cq::contains`] for single-tuple membership tests.
    pub fn evaluate(&self, instance: &Instance) -> Vec<Vec<Value>> {
        let canon = self.canonical_example();
        let src = Example::boolean(canon.instance().clone());
        let dst = Example::boolean(instance.clone());
        let homs = find_all_homomorphisms(&src, &dst, usize::MAX);
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for h in homs {
            let tuple: Vec<Value> = canon.distinguished().iter().map(|d| h.apply(*d)).collect();
            if seen.insert(tuple.clone()) {
                out.push(tuple);
            }
        }
        out.sort();
        out
    }

    /// True if `tuple ∈ q(I)`.
    pub fn contains(&self, instance: &Instance, tuple: &[Value]) -> bool {
        if tuple.len() != self.arity() {
            return false;
        }
        let e = Example::new(instance.clone(), tuple.to_vec());
        self.is_satisfied_in(&e)
    }

    /// True if the example is a *positive example* for the query: its
    /// distinguished tuple is an answer, i.e. `e_q → e`.
    pub fn is_satisfied_in(&self, example: &Example) -> bool {
        hom_exists(&self.canonical_example(), example)
    }

    /// True if there is a homomorphism `q → q'` between the canonical
    /// examples (the paper's notation `q → q'`).
    pub fn maps_to(&self, other: &Cq) -> bool {
        hom_exists(&self.canonical_example(), &other.canonical_example())
    }

    /// Query containment `q ⊆ q'`: every answer of `q` is an answer of `q'`
    /// on every instance.  By Chandra–Merlin this holds iff `e_{q'} → e_q`.
    pub fn is_contained_in(&self, other: &Cq) -> Result<bool> {
        if self.schema.as_ref() != other.schema.as_ref() || self.arity() != other.arity() {
            return Err(QueryError::Incompatible);
        }
        Ok(other.maps_to(self))
    }

    /// Query equivalence `q ≡ q'`.
    pub fn equivalent_to(&self, other: &Cq) -> Result<bool> {
        Ok(self.is_contained_in(other)? && other.is_contained_in(self)?)
    }

    /// Strict containment `q ⊊ q'`.
    pub fn strictly_contained_in(&self, other: &Cq) -> Result<bool> {
        Ok(self.is_contained_in(other)? && !other.is_contained_in(self)?)
    }

    /// The homomorphism core of the query: the canonical CQ of the core of
    /// its canonical example.  The result is equivalent to the original.
    ///
    /// Alias of [`Cq::minimized`].
    pub fn core(&self) -> Cq {
        self.minimized()
    }

    /// The minimized (cored) equivalent query, computed by running the
    /// mask-based core engine ([`cqfit_hom::core_of`]) on the canonical
    /// example: an equivalent CQ with the fewest variables and atoms among
    /// all retracts.
    pub fn minimized(&self) -> Cq {
        let core = cqfit_hom::core_of(&self.canonical_example());
        Cq::from_example(&core).expect("core of a canonical example is a data example")
    }

    /// True if the query is connected in the sense of §2.2 (its canonical
    /// example is connected).
    pub fn is_connected(&self) -> bool {
        self.canonical_example().is_connected()
    }

    /// The number of connected components of the canonical example.
    pub fn num_connected_components(&self) -> usize {
        self.canonical_example().connected_components().len()
    }
}

impl fmt::Display for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q(")?;
        for (i, v) in self.answer_vars.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.var_name(*v))?;
        }
        write!(f, ") :- ")?;
        if self.atoms.is_empty() {
            write!(f, "true")?;
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", self.schema.name(a.rel))?;
            for (j, v) in a.args.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.var_name(*v))?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Incremental builder for [`Cq`].
#[derive(Debug, Clone)]
pub struct CqBuilder {
    schema: Arc<Schema>,
    var_names: Vec<String>,
    answer_vars: Vec<Variable>,
    atoms: Vec<Atom>,
}

impl CqBuilder {
    /// Returns the variable with the given name, creating it if necessary.
    pub fn var(&mut self, name: impl Into<String>) -> Variable {
        let name = name.into();
        match self.var_names.iter().position(|n| *n == name) {
            Some(i) => Variable(i as u32),
            None => {
                let v = Variable(self.var_names.len() as u32);
                self.var_names.push(name);
                v
            }
        }
    }

    /// Declares the answer variables (in order, possibly with repetitions).
    pub fn answer(&mut self, vars: &[Variable]) -> &mut Self {
        self.answer_vars = vars.to_vec();
        self
    }

    /// Adds an atom by relation name and variable names.
    ///
    /// # Errors
    /// Fails on unknown relations or arity mismatches.
    pub fn atom(&mut self, rel: &str, args: &[&str]) -> Result<&mut Self> {
        let rel_id = self
            .schema
            .rel(rel)
            .ok_or_else(|| QueryError::UnknownRelation(rel.to_string()))?;
        let arity = self.schema.arity(rel_id);
        if args.len() != arity {
            return Err(QueryError::ArityMismatch {
                relation: rel.to_string(),
                expected: arity,
                got: args.len(),
            });
        }
        let vars: Vec<Variable> = args.iter().map(|a| self.var(*a)).collect();
        self.atoms.push(Atom {
            rel: rel_id,
            args: vars,
        });
        Ok(self)
    }

    /// Adds an atom from pre-created variables.
    ///
    /// # Errors
    /// Fails on arity mismatches or variables not created by this builder.
    pub fn atom_vars(&mut self, rel: RelId, args: &[Variable]) -> Result<&mut Self> {
        let arity = self.schema.arity(rel);
        if args.len() != arity {
            return Err(QueryError::ArityMismatch {
                relation: self.schema.name(rel).to_string(),
                expected: arity,
                got: args.len(),
            });
        }
        for v in args {
            if v.index() >= self.var_names.len() {
                return Err(QueryError::UnknownVariable(v.0));
            }
        }
        self.atoms.push(Atom {
            rel,
            args: args.to_vec(),
        });
        Ok(self)
    }

    /// Finishes the query, checking the safety condition.
    ///
    /// # Errors
    /// Fails with [`QueryError::Unsafe`] if some answer variable occurs in no
    /// atom.
    pub fn build(&self) -> Result<Cq> {
        let occurring: HashSet<Variable> = self
            .atoms
            .iter()
            .flat_map(|a| a.args.iter().copied())
            .collect();
        for v in &self.answer_vars {
            if !occurring.contains(v) {
                return Err(QueryError::Unsafe(self.var_names[v.index()].clone()));
            }
        }
        Ok(Cq {
            schema: self.schema.clone(),
            var_names: self.var_names.clone(),
            answer_vars: self.answer_vars.clone(),
            atoms: self.atoms.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::parse_instance;

    fn digraph() -> Arc<Schema> {
        Schema::digraph()
    }

    fn cq(text: &str) -> Cq {
        crate::parse_cq(&digraph(), text).unwrap()
    }

    #[test]
    fn builder_and_safety() {
        let schema = digraph();
        let mut b = Cq::builder(schema.clone());
        let x = b.var("x");
        let y = b.var("y");
        b.answer(&[x]);
        b.atom("R", &["x", "y"]).unwrap();
        let q = b.build().unwrap();
        assert_eq!(q.arity(), 1);
        assert_eq!(q.num_atoms(), 1);
        assert_eq!(q.num_variables(), 2);
        assert_eq!(q.existential_vars(), vec![y]);
        assert!(q.has_unp());

        let mut b = Cq::builder(schema);
        let z = b.var("z");
        b.answer(&[z]);
        assert!(matches!(b.build(), Err(QueryError::Unsafe(_))));
    }

    #[test]
    fn canonical_example_roundtrip() {
        let q = cq("q(x) :- R(x,y), R(y,z), R(z,x)");
        let e = q.canonical_example();
        assert_eq!(e.size(), 3);
        assert_eq!(e.arity(), 1);
        let q2 = Cq::from_example(&e).unwrap();
        assert!(q.equivalent_to(&q2).unwrap());
    }

    #[test]
    fn canonical_cq_requires_data_example() {
        let mut i = Instance::new(digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        let c = i.add_value("c");
        let e = Example::new(i, vec![c]);
        assert_eq!(
            Cq::from_example(&e).unwrap_err(),
            QueryError::NotADataExample
        );
    }

    #[test]
    fn evaluation_on_small_graph() {
        // q(x) :- R(x,y), R(y,x): elements on a 2-cycle.
        let q = cq("q(x) :- R(x,y), R(y,x)");
        let i = parse_instance(&digraph(), "R(a,b)\nR(b,a)\nR(b,c)").unwrap();
        let answers = q.evaluate(&i);
        let a = i.value_by_label("a").unwrap();
        let b = i.value_by_label("b").unwrap();
        assert_eq!(answers, vec![vec![a], vec![b]]);
        assert!(q.contains(&i, &[a]));
        let c = i.value_by_label("c").unwrap();
        assert!(!q.contains(&i, &[c]));
    }

    #[test]
    fn boolean_evaluation() {
        let q = cq("q() :- R(x,x)");
        let yes = parse_instance(&digraph(), "R(a,a)").unwrap();
        let no = parse_instance(&digraph(), "R(a,b)").unwrap();
        assert_eq!(q.evaluate(&yes), vec![Vec::<Value>::new()]);
        assert!(q.evaluate(&no).is_empty());
    }

    #[test]
    fn containment_via_chandra_merlin() {
        // q1(x) :- R(x,y),R(y,z) (path of length 2 from x)
        // q2(x) :- R(x,y)        (edge from x)
        // q1 ⊆ q2 but not conversely.
        let q1 = cq("q(x) :- R(x,y), R(y,z)");
        let q2 = cq("q(x) :- R(x,y)");
        assert!(q1.is_contained_in(&q2).unwrap());
        assert!(!q2.is_contained_in(&q1).unwrap());
        assert!(q1.strictly_contained_in(&q2).unwrap());
        assert!(!q1.equivalent_to(&q2).unwrap());
    }

    #[test]
    fn equivalence_of_redundant_query() {
        let q1 = cq("q(x) :- R(x,y), R(x,z)");
        let q2 = cq("q(x) :- R(x,y)");
        assert!(q1.equivalent_to(&q2).unwrap());
        let core = q1.core();
        assert_eq!(core.num_atoms(), 1);
        assert!(core.equivalent_to(&q1).unwrap());
    }

    #[test]
    fn degree_and_components() {
        let q = cq("q(x) :- R(x,y), R(x,z), R(u,v)");
        assert_eq!(q.degree(), 2);
        // Components of the pointed instance are taken modulo distinguished
        // elements (§2.2, Example 2.3): R(x,y) and R(x,z) only share the
        // answer variable x, so they are separate components.
        assert_eq!(q.num_connected_components(), 3);
        assert!(!q.is_connected());
        let q2 = cq("q(x) :- R(x,y)");
        assert!(q2.is_connected());
    }

    #[test]
    fn display_format() {
        let q = cq("q(x) :- R(x,y), R(y,y)");
        assert_eq!(q.to_string(), "q(x) :- R(x,y), R(y,y)");
    }

    #[test]
    fn incompatible_containment_rejected() {
        let q1 = cq("q(x) :- R(x,y)");
        let q2 = cq("q() :- R(x,y)");
        assert_eq!(
            q1.is_contained_in(&q2).unwrap_err(),
            QueryError::Incompatible
        );
    }

    #[test]
    fn repeated_answer_variables() {
        let q = cq("q(x,x) :- R(x,y)");
        assert_eq!(q.arity(), 2);
        assert!(!q.has_unp());
        let i = parse_instance(&digraph(), "R(a,b)").unwrap();
        let a = i.value_by_label("a").unwrap();
        let b = i.value_by_label("b").unwrap();
        assert!(q.contains(&i, &[a, a]));
        assert!(!q.contains(&i, &[a, b]));
    }
}
