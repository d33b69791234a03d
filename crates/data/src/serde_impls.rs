//! Hand-written serde round-trips for the data model.
//!
//! The vendored `serde` stand-in exposes functional `Serialize::to_json` /
//! `Deserialize::deserialize` traits over a JSON value model (its no-op
//! derives expand to nothing), so the impls here are explicit.  Each type
//! has one decoder, which reads from any `serde::Source`: JSON text
//! directly (the write-ahead log's replay path) or a parsed value.  The
//! JSON shapes are stable and documented per type; deserialization makes
//! the same checks as programmatic building (those of
//! [`Instance::add_fact`], [`Example::new`], [`LabeledExamples::new`]), so
//! a deserialized object is always internally consistent.  A decoded
//! instance builds its fact index on first use.
//!
//! Shapes:
//!
//! ```text
//! Schema          {"relations": [{"name": "R", "arity": 2}, …]}
//! Instance        {"schema": …, "labels": ["a", …], "facts": [[rel, v…], …]}
//! Example         {"instance": …, "distinguished": [v, …]}
//! LabeledExamples {"positives": [Example…], "negatives": [Example…]}
//! ```
//!
//! Facts are flat integer arrays `[rel, arg0, arg1, …]`; values are their
//! dense indices.

use crate::{Example, Fact, Instance, LabeledExamples, Relation, Schema, Value};
use serde::json::{JsonError, Value as Json};
use serde::{Deserialize, Serialize, Source};
use std::sync::Arc;

impl Serialize for Value {
    fn to_json(&self) -> Json {
        Json::Int(i64::from(self.0))
    }
}

impl Deserialize for Value {
    fn deserialize<'de, S: Source<'de>>(v: S) -> Result<Self, JsonError> {
        u32::deserialize(v).map(Value)
    }
}

impl Serialize for Relation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("arity", Json::Int(self.arity as i64)),
        ])
    }
}

impl Deserialize for Relation {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        Ok(Relation {
            name: String::deserialize(v.req("name")?)?,
            arity: usize::deserialize(v.req("arity")?)?,
        })
    }
}

impl Serialize for Schema {
    fn to_json(&self) -> Json {
        Json::obj([("relations", self.relations().to_vec().to_json())])
    }
}

impl Deserialize for Schema {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let relations = Vec::<Relation>::deserialize(v.req("relations")?)?;
        Schema::new(relations.into_iter().map(|r| (r.name, r.arity)))
            .map_err(|e| JsonError::semantic(format!("invalid schema: {e}")))
    }
}

impl Serialize for Instance {
    fn to_json(&self) -> Json {
        let labels: Vec<String> = self.values().map(|v| self.label(v).to_string()).collect();
        let facts: Vec<Json> = self
            .facts()
            .iter()
            .map(|f| {
                let mut row = Vec::with_capacity(f.args.len() + 1);
                row.push(Json::Int(i64::from(f.rel.0)));
                row.extend(f.args.iter().map(|a| Json::Int(i64::from(a.0))));
                Json::Arr(row)
            })
            .collect();
        Json::obj([
            ("schema", self.schema().as_ref().to_json()),
            ("labels", labels.to_json()),
            ("facts", Json::Arr(facts)),
        ])
    }
}

impl Deserialize for Instance {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let schema = Arc::new(Schema::deserialize(v.req("schema")?)?);
        let labels = Vec::<String>::deserialize(v.req("labels")?)?;
        let inst = Instance::with_labels(schema, labels);
        let mut rows = v.req("facts")?;
        let mut facts = Vec::new();
        for mut fact in rows
            .as_arr()
            .ok_or_else(|| JsonError::mismatch("array", &rows))?
        {
            let mut row = fact
                .as_arr()
                .ok_or_else(|| JsonError::mismatch("fact array", &fact))?;
            let Some(rel) = row.next() else {
                return Err(JsonError::semantic("empty fact array"));
            };
            let rel = crate::RelId(u32::deserialize(rel)?);
            if rel.index() >= inst.schema().len() {
                return Err(JsonError::semantic(format!(
                    "fact references unknown relation id {}",
                    rel.0
                )));
            }
            let args = row.map(Value::deserialize).collect::<Result<Vec<_>, _>>()?;
            inst.check_fact(rel, &args)
                .map_err(|e| JsonError::semantic(format!("invalid fact: {e}")))?;
            facts.push(Fact { rel, args });
        }
        Ok(inst.with_checked_facts(facts))
    }
}

impl Serialize for Example {
    fn to_json(&self) -> Json {
        Json::obj([
            ("instance", self.instance().to_json()),
            ("distinguished", self.distinguished().to_vec().to_json()),
        ])
    }
}

impl Deserialize for Example {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let instance = Instance::deserialize(v.req("instance")?)?;
        let distinguished = Vec::<Value>::deserialize(v.req("distinguished")?)?;
        for d in &distinguished {
            if d.index() >= instance.num_values() {
                return Err(JsonError::semantic(format!(
                    "distinguished value {} outside the instance domain",
                    d.0
                )));
            }
        }
        Ok(Example::new(instance, distinguished))
    }
}

impl Serialize for LabeledExamples {
    fn to_json(&self) -> Json {
        Json::obj([
            ("positives", self.positives().to_vec().to_json()),
            ("negatives", self.negatives().to_vec().to_json()),
        ])
    }
}

impl Deserialize for LabeledExamples {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let positives = Vec::<Example>::deserialize(v.req("positives")?)?;
        let negatives = Vec::<Example>::deserialize(v.req("negatives")?)?;
        LabeledExamples::new(positives, negatives)
            .map_err(|e| JsonError::semantic(format!("invalid labeled examples: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_example;

    #[test]
    fn schema_round_trip() {
        let s = Schema::new([("EmpInfo", 3), ("P", 1)]).unwrap();
        let back: Schema = serde::from_str(&serde::to_string(&s)).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.rel("P"), s.rel("P"), "by-name index rebuilt");
    }

    #[test]
    fn instance_round_trip_preserves_structure_and_index() {
        let schema = Schema::digraph();
        let mut i = Instance::new(schema);
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        i.add_fact_labels("R", &["b", "c"]).unwrap();
        i.add_value("isolated");
        let back: Instance = serde::from_str(&serde::to_string(&i)).unwrap();
        assert!(back.same_facts(&i));
        assert_eq!(back.num_values(), i.num_values());
        assert_eq!(back.label(Value(3)), "isolated");
        // The rebuilt index answers lookups.
        let r = back.schema().rel("R").unwrap();
        let b = back.value_by_label("b").unwrap();
        assert_eq!(back.facts_with_rel_pos_value(r, 0, b).len(), 1);
        assert_eq!(back.canonical_hash(), i.canonical_hash());
    }

    /// A fact written twice is kept once, at its first position, as
    /// `add_fact` keeps it; the index built later agrees.
    #[test]
    fn repeated_facts_keep_their_first_occurrence() {
        let text = r#"{"schema":{"relations":[{"name":"R","arity":2}]},"labels":["a","b","c"],"facts":[[0,1,0],[0,0,1],[0,1,0],[0,2,2],[0,0,1],[0,1,0]]}"#;
        let mut expected = Instance::new(Schema::digraph());
        expected.add_values("v", 3);
        let r = expected.schema().rel("R").unwrap();
        for (a, b) in [(1, 0), (0, 1), (1, 0), (2, 2), (0, 1), (1, 0)] {
            expected.add_fact(r, &[Value(a), Value(b)]).unwrap();
        }
        for back in [
            serde::from_str::<Instance>(text).unwrap(),
            serde::json::decode::<Instance>(text).unwrap(),
        ] {
            assert_eq!(back.facts(), expected.facts());
            assert!(back.contains_fact(r, &[Value(2), Value(2)]));
            assert_eq!(back.facts_with_rel_pos_value(r, 0, Value(1)).len(), 1);
            assert_eq!(back.facts_containing(Value(0)).len(), 2);
        }
    }

    #[test]
    fn example_round_trip() {
        let schema = Schema::digraph();
        let e = parse_example(&schema, "R(a,b)\nR(b,c)\n* a, c").unwrap();
        let back: Example = serde::from_str(&serde::to_string(&e)).unwrap();
        assert_eq!(back.distinguished(), e.distinguished());
        assert!(back.instance().same_facts(e.instance()));
        assert_eq!(back.canonical_hash(), e.canonical_hash());
    }

    #[test]
    fn labeled_round_trip_validates() {
        let schema = Schema::digraph();
        let pos = parse_example(&schema, "R(a,b)\n* a").unwrap();
        let neg = parse_example(&schema, "R(c,c)\n* c").unwrap();
        let col = LabeledExamples::new(vec![pos], vec![neg]).unwrap();
        let back: LabeledExamples = serde::from_str(&serde::to_string(&col)).unwrap();
        assert_eq!(back.positives().len(), 1);
        assert_eq!(back.negatives().len(), 1);
        assert_eq!(back.arity(), Some(1));
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(serde::from_str::<Instance>("{\"labels\": []}").is_err());
        // Unknown relation id in a fact.
        let text =
            r#"{"schema":{"relations":[{"name":"R","arity":2}]},"labels":["a"],"facts":[[5,0,0]]}"#;
        assert!(serde::from_str::<Instance>(text).is_err());
        // Wrong arity.
        let text =
            r#"{"schema":{"relations":[{"name":"R","arity":2}]},"labels":["a"],"facts":[[0,0]]}"#;
        assert!(serde::from_str::<Instance>(text).is_err());
        // Distinguished value out of range.
        let text = r#"{"instance":{"schema":{"relations":[{"name":"R","arity":2}]},"labels":["a"],"facts":[[0,0,0]]},"distinguished":[9]}"#;
        assert!(serde::from_str::<Example>(text).is_err());
    }
}
