//! Hand-written serde round-trips for queries (see
//! `cqfit_data::serde_impls` for the data-layer counterpart and the
//! rationale).
//!
//! Shapes:
//!
//! ```text
//! Cq   {"schema": …, "vars": ["x", …], "answer": [var, …], "atoms": [[rel, var…], …]}
//! Ucq  {"disjuncts": [Cq…]}
//! ```
//!
//! Atoms are flat integer arrays `[rel, arg0, arg1, …]` mirroring the fact
//! encoding of instances; variables are their dense indices.
//! Deserialization goes through the validating [`Cq::from_parts`] /
//! [`Ucq::new`] constructors, so a deserialized query always satisfies the
//! safety condition and schema/arity coherence.

use crate::{Atom, Cq, Ucq, Variable};
use cqfit_data::{RelId, Schema};
use serde::json::{self, JsonError};
use serde::{Deserialize, Serialize, Source};
use std::sync::Arc;

impl Serialize for Variable {
    fn serialize(&self, out: &mut String) {
        self.0.serialize(out);
    }
}

impl Deserialize for Variable {
    fn deserialize<'de, S: Source<'de>>(v: S) -> Result<Self, JsonError> {
        u32::deserialize(v).map(Variable)
    }
}

impl Serialize for Atom {
    fn serialize(&self, out: &mut String) {
        let row = std::iter::once(&self.rel.0).chain(self.args.iter().map(|v| &v.0));
        json::write_array(out, row, u32::serialize);
    }
}

impl Deserialize for Atom {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let mut row = v
            .as_arr()
            .ok_or_else(|| JsonError::mismatch("atom array", &v))?;
        let Some(rel) = row.next() else {
            return Err(JsonError::semantic("empty atom array"));
        };
        Ok(Atom {
            rel: RelId(u32::deserialize(rel)?),
            args: row.map(Variable::deserialize).collect::<Result<_, _>>()?,
        })
    }
}

impl Serialize for Cq {
    fn serialize(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("schema", self.schema().as_ref());
            json::write_array(o.key("vars"), self.variables(), |v, out| {
                json::write_str(out, self.var_name(v));
            });
            o.field("answer", self.answer_vars())
                .field("atoms", self.atoms());
        });
    }
}

impl Deserialize for Cq {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let schema = Arc::new(Schema::deserialize(v.req("schema")?)?);
        let vars = Vec::<String>::deserialize(v.req("vars")?)?;
        let answer = Vec::<Variable>::deserialize(v.req("answer")?)?;
        let atoms = Vec::<Atom>::deserialize(v.req("atoms")?)?;
        Cq::from_parts(schema, vars, answer, atoms)
            .map_err(|e| JsonError::semantic(format!("invalid CQ: {e}")))
    }
}

impl Serialize for Ucq {
    fn serialize(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("disjuncts", self.disjuncts());
        });
    }
}

impl Deserialize for Ucq {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let disjuncts = Vec::<Cq>::deserialize(v.req("disjuncts")?)?;
        Ucq::new(disjuncts).map_err(|e| JsonError::semantic(format!("invalid UCQ: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_cq;

    #[test]
    fn cq_round_trip_is_identical() {
        let schema = Schema::binary_schema(["P"], ["R"]);
        let q = parse_cq(&schema, "q(x,y) :- R(x,z), R(z,y), P(x)").unwrap();
        let back: Cq = serde::from_str(&serde::to_string(&q)).unwrap();
        assert_eq!(back, q, "round trip preserves the exact representation");
        assert!(back.equivalent_to(&q).unwrap());
    }

    #[test]
    fn repeated_var_names_stay_distinct() {
        // Two distinct variables that share a display name must not merge.
        let schema = Schema::digraph();
        let r = schema.rel("R").unwrap();
        let q = Cq::from_parts(
            schema,
            vec!["x".into(), "x".into()],
            vec![],
            vec![Atom {
                rel: r,
                args: vec![Variable(0), Variable(1)],
            }],
        )
        .unwrap();
        let back: Cq = serde::from_str(&serde::to_string(&q)).unwrap();
        assert_eq!(back.num_variables(), 2);
        assert_eq!(back, q);
    }

    #[test]
    fn ucq_round_trip() {
        let schema = Schema::digraph();
        let q1 = parse_cq(&schema, "q() :- R(x,x)").unwrap();
        let q2 = parse_cq(&schema, "q() :- R(x,y), R(y,x)").unwrap();
        let u = Ucq::new(vec![q1, q2]).unwrap();
        let back: Ucq = serde::from_str(&serde::to_string(&u)).unwrap();
        assert_eq!(back, u);
        assert!(back.equivalent_to(&u).unwrap());
    }

    #[test]
    fn invalid_queries_rejected() {
        // Unsafe: answer variable not occurring in any atom.
        let text = r#"{"schema":{"relations":[{"name":"R","arity":2}]},"vars":["x","y"],"answer":[1],"atoms":[[0,0,0]]}"#;
        assert!(serde::from_str::<Cq>(text).is_err());
        // Atom arity mismatch.
        let text = r#"{"schema":{"relations":[{"name":"R","arity":2}]},"vars":["x"],"answer":[],"atoms":[[0,0]]}"#;
        assert!(serde::from_str::<Cq>(text).is_err());
        // Empty UCQ.
        assert!(serde::from_str::<Ucq>(r#"{"disjuncts":[]}"#).is_err());
    }
}
