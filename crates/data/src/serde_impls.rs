//! Hand-written serde round-trips for the data model.
//!
//! The vendored `serde` stand-in exposes functional `Serialize::serialize`
//! / `Deserialize::deserialize` traits (its no-op derives expand to
//! nothing), so the impls here are explicit.  Each type has one encoder,
//! which writes JSON text straight into the caller's buffer, and one
//! decoder, which reads from any `serde::Source`: JSON text directly (the
//! write-ahead log's replay path) or a parsed value.  The
//! JSON shapes are stable and documented per type; deserialization makes
//! the same checks as programmatic building (those of
//! [`Instance::add_fact`], [`Example::new`], [`LabeledExamples::new`]), so
//! a deserialized object is always internally consistent.  A decoded
//! instance builds its fact index on first use, and instances decoded one
//! after another on a thread share one `Arc<Schema>` while their schemas
//! are equal.
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
use serde::json::{self, JsonError};
use serde::{Deserialize, Serialize, Source};
use std::cell::RefCell;
use std::sync::Arc;

impl Serialize for Value {
    fn serialize(&self, out: &mut String) {
        self.0.serialize(out);
    }
}

impl Deserialize for Value {
    fn deserialize<'de, S: Source<'de>>(v: S) -> Result<Self, JsonError> {
        u32::deserialize(v).map(Value)
    }
}

impl Serialize for Relation {
    fn serialize(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("name", &self.name).field("arity", &self.arity);
        });
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
    fn serialize(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("relations", self.relations());
        });
    }
}

impl Deserialize for Schema {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let relations = Vec::<Relation>::deserialize(v.req("relations")?)?;
        Schema::new(relations.into_iter().map(|r| (r.name, r.arity)))
            .map_err(|e| JsonError::semantic(format!("invalid schema: {e}")))
    }
}

thread_local! {
    /// The schema of the last instance this thread decoded.  The examples
    /// of one run (a log replay, a stream of requests) almost always share
    /// one schema, so [`shared_schema`] hands that `Arc` out again
    /// instead of building an equal schema (a `Vec`, a `HashMap` and a
    /// name per relation) for every example.  Only a schema that decoded
    /// without error is kept.
    static LAST_SCHEMA: RefCell<Option<Arc<Schema>>> = const { RefCell::new(None) };
}

/// Decodes the schema `v` holds, sharing this thread's last decoded
/// schema when `v` holds exactly its relations.  A shared schema is the
/// one decoding would give (the same relations, which passed
/// [`Schema::new`]'s checks when it was kept); any other input, invalid
/// ones included, is decoded as [`Schema::deserialize`] decodes it.
fn shared_schema<'de, S: Source<'de>>(mut v: S) -> Result<Arc<Schema>, JsonError> {
    let last = LAST_SCHEMA.with_borrow(|last| last.clone());
    if let Some(last) = last.filter(|last| holds_relations(&mut v, last)) {
        return Ok(last);
    }
    let schema = Arc::new(Schema::deserialize(v)?);
    LAST_SCHEMA.set(Some(Arc::clone(&schema)));
    Ok(schema)
}

/// Whether the schema object `v` lists exactly `schema`'s relations, in
/// order: as many of them, each with the same name and an integer arity
/// equal to its own.  Reads names borrowed; builds nothing.
fn holds_relations<'de, S: Source<'de>>(v: &mut S, schema: &Schema) -> bool {
    let Some(mut listed) = v.get("relations").and_then(|mut r| r.as_arr()) else {
        return false;
    };
    let same = |mut r: S, known: &Relation| {
        r.get("name")
            .and_then(|mut name| name.as_str())
            .is_some_and(|name| name == known.name.as_str())
            && r.get("arity")
                .and_then(|mut arity| arity.as_i64())
                .is_some_and(|arity| usize::try_from(arity) == Ok(known.arity))
    };
    schema
        .relations()
        .iter()
        .all(|known| listed.next().is_some_and(|r| same(r, known)))
        && listed.next().is_none()
}

impl Serialize for Instance {
    fn serialize(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("schema", self.schema().as_ref());
            json::write_array(o.key("labels"), self.values(), |v, out| {
                json::write_str(out, self.label(v));
            });
            json::write_array(o.key("facts"), self.facts(), |f, out| {
                let row = std::iter::once(&f.rel.0).chain(f.args.iter().map(|a| &a.0));
                json::write_array(out, row, u32::serialize);
            });
        });
    }
}

impl Deserialize for Instance {
    fn deserialize<'de, S: Source<'de>>(mut v: S) -> Result<Self, JsonError> {
        let schema = shared_schema(v.req("schema")?)?;
        let labels = Vec::<String>::deserialize(v.req("labels")?)?;
        let mut rows = v.req("facts")?;
        let rows = rows
            .as_arr()
            .ok_or_else(|| JsonError::mismatch("array", &rows))?;
        let mut facts = Vec::with_capacity(rows.size_hint().0);
        for mut fact in rows {
            let mut row = fact
                .as_arr()
                .ok_or_else(|| JsonError::mismatch("fact array", &fact))?;
            let Some(rel) = row.next() else {
                return Err(JsonError::semantic("empty fact array"));
            };
            let rel = crate::RelId(u32::deserialize(rel)?);
            if rel.index() >= schema.len() {
                return Err(JsonError::semantic(format!(
                    "fact references unknown relation id {}",
                    rel.0
                )));
            }
            let args = row.map(Value::deserialize).collect::<Result<Vec<_>, _>>()?;
            facts.push(Fact { rel, args });
        }
        Instance::from_facts(schema, labels, facts)
            .map_err(|e| JsonError::semantic(format!("invalid fact: {e}")))
    }
}

impl Serialize for Example {
    fn serialize(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("instance", self.instance())
                .field("distinguished", self.distinguished());
        });
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
    fn serialize(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("positives", self.positives())
                .field("negatives", self.negatives());
        });
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

    /// An instance whose schema lists `relations` (JSON text), with no
    /// values and no facts.
    fn instance_text(relations: &str) -> String {
        format!(r#"{{"schema":{{"relations":[{relations}]}},"labels":[],"facts":[]}}"#)
    }

    type Decoder = fn(&str) -> Result<Instance, JsonError>;

    /// Both decoders: straight from the text, and through a tree.
    fn decoders() -> [Decoder; 2] {
        [serde::json::decode::<Instance>, serde::from_str::<Instance>]
    }

    #[test]
    fn equal_schemas_share_one_arc() {
        for decode in decoders() {
            let text = instance_text(r#"{"name":"R","arity":2},{"name":"P","arity":1}"#);
            let a = decode(&text).unwrap();
            let b = decode(&text.replace(r#""R""#, r#""\u0052""#)).unwrap();
            assert!(Arc::ptr_eq(a.schema(), b.schema()));
            assert_eq!(**a.schema(), Schema::new([("R", 2), ("P", 1)]).unwrap());
        }
    }

    #[test]
    fn a_different_schema_gets_its_own_arc() {
        let base = r#"{"name":"R","arity":2},{"name":"P","arity":1}"#;
        for decode in decoders() {
            for (other, expected) in [
                (
                    r#"{"name":"S","arity":2},{"name":"P","arity":1}"#,
                    [("S", 2), ("P", 1)].as_slice(),
                ),
                (
                    r#"{"name":"R","arity":3},{"name":"P","arity":1}"#,
                    &[("R", 3), ("P", 1)],
                ),
                (r#"{"name":"R","arity":2}"#, &[("R", 2)]),
                (
                    r#"{"name":"R","arity":2},{"name":"P","arity":1},{"name":"Q","arity":1}"#,
                    &[("R", 2), ("P", 1), ("Q", 1)],
                ),
                (
                    r#"{"name":"R","arity":"2"},{"name":"P","arity":1}"#,
                    &[("R", 2), ("P", 1)],
                ),
            ] {
                let first = decode(&instance_text(base)).unwrap();
                let second = decode(&instance_text(other)).unwrap();
                assert!(!Arc::ptr_eq(first.schema(), second.schema()), "{other}");
                assert_eq!(
                    **second.schema(),
                    Schema::new(expected.iter().copied()).unwrap()
                );
            }
        }
    }

    /// An invalid schema fails as it would on a thread that never
    /// decoded one, however close it is to the schema kept.
    #[test]
    fn invalid_schemas_fail_the_same_after_a_valid_one() {
        let valid = instance_text(r#"{"name":"R","arity":2}"#);
        let invalid = [
            instance_text(r#"{"name":"R","arity":2},{"name":"R","arity":2}"#),
            instance_text(r#"{"name":"R","arity":0}"#),
            instance_text(r#"{"name":"R","arity":2},{"name":"P","arity":0}"#),
            instance_text(r#"{"name":7,"arity":2}"#),
            instance_text(r#"{"arity":2}"#),
            instance_text(r#"{"name":"R","arity":-2}"#),
            instance_text(r#"{"name":"R","arity":2.0}"#),
            instance_text(r#""R""#),
            r#"{"schema":{"relations":{}},"labels":[],"facts":[]}"#.to_string(),
            r#"{"schema":[],"labels":[],"facts":[]}"#.to_string(),
        ];
        for (d, decode) in decoders().into_iter().enumerate() {
            for text in &invalid {
                let fresh = std::thread::spawn({
                    let text = text.clone();
                    move || decoders()[d](&text).unwrap_err().to_string()
                })
                .join()
                .unwrap();
                decode(&valid).unwrap();
                assert_eq!(decode(text).unwrap_err().to_string(), fresh, "{text}");
            }
        }
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
