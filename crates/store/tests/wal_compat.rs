//! Compatibility of the write-ahead log's line format.
//!
//! `fixtures/compat.wal` is a log written by the record encoder before
//! the single-pass decoder existed.  It covers all four record kinds, a
//! `request_id` both present and absent, a multi-relation schema, and
//! labels that need escaping (`"`, `\`, a newline, a control character)
//! or are not ASCII.  Every line must still decode, and must re-encode
//! byte for byte; the records below must still encode to the same lines.

use cqfit_data::{Example, Instance, Schema, Value};
use cqfit_store::record::{decode_record, encode_record};
use cqfit_store::{LogRecord, WorkspaceSnapshot};
use serde::Deserialize;
use std::sync::Arc;

const FIXTURE: &str = include_str!("fixtures/compat.wal");

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new([("EmpInfo", 3), ("P", 1), ("R", 2)]).unwrap())
}

/// An example over [`schema`] whose labels need escaping.
fn tricky_example() -> Example {
    let schema = schema();
    let mut inst = Instance::new(schema.clone());
    let quote = inst.add_value("say \"hi\"");
    let slash = inst.add_value("back\\slash");
    let newline = inst.add_value("two\nlines");
    let control = inst.add_value("bell\u{1}");
    let unicode = inst.add_value("é⊤😀");
    let emp = schema.rel("EmpInfo").unwrap();
    let p = schema.rel("P").unwrap();
    let r = schema.rel("R").unwrap();
    inst.add_fact(emp, &[quote, slash, newline]).unwrap();
    inst.add_fact(p, &[control]).unwrap();
    inst.add_fact(r, &[unicode, quote]).unwrap();
    inst.add_fact(r, &[unicode, unicode]).unwrap();
    Example::new(inst, vec![unicode])
}

/// An example with an isolated value and no facts of one relation.
fn plain_example() -> Example {
    let schema = schema();
    let mut inst = Instance::new(schema.clone());
    let a = inst.add_value("a");
    let b = inst.add_value("b");
    inst.add_value("isolated");
    inst.add_fact(schema.rel("R").unwrap(), &[a, b]).unwrap();
    inst.add_fact(schema.rel("P").unwrap(), &[b]).unwrap();
    Example::new(inst, vec![a])
}

/// The records of the fixture, in log order: one workspace's history.
fn records() -> Vec<LogRecord> {
    vec![
        LogRecord::Create {
            schema: schema().as_ref().clone(),
            arity: 1,
        },
        LogRecord::AddExample {
            id: 0,
            positive: true,
            example: tricky_example(),
            request_id: None,
        },
        LogRecord::AddExample {
            id: 1,
            positive: false,
            example: plain_example(),
            request_id: Some(0x1234_5678_9ABC),
        },
        LogRecord::RemoveExample {
            id: 1,
            positive: false,
            request_id: Some(7),
        },
        LogRecord::AddExample {
            id: 2,
            positive: false,
            example: plain_example(),
            request_id: None,
        },
        LogRecord::RemoveExample {
            id: 2,
            positive: false,
            request_id: None,
        },
        LogRecord::Snapshot(WorkspaceSnapshot {
            schema: schema().as_ref().clone(),
            arity: 1,
            next_id: 4,
            revision: 9,
            positives: vec![(0, tricky_example())],
            negatives: vec![(3, plain_example())],
        }),
        LogRecord::AddExample {
            id: 4,
            positive: true,
            example: plain_example(),
            request_id: Some(u64::MAX >> 1),
        },
    ]
}

#[test]
fn every_fixture_line_decodes_and_re_encodes_byte_for_byte() {
    let lines: Vec<&str> = FIXTURE.split_inclusive('\n').collect();
    assert_eq!(lines.len(), records().len(), "one line per record");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.ends_with('\n'), "line {i} is newline-terminated");
        let record = decode_record(line.trim_end_matches('\n').as_bytes())
            .unwrap_or_else(|e| panic!("line {i} does not decode: {e:?}"));
        assert_eq!(encode_record(&record), *line, "line {i} re-encodes");
    }
}

#[test]
fn the_records_still_encode_to_the_fixture() {
    let encoded: String = records().iter().map(encode_record).collect();
    assert_eq!(encoded, FIXTURE);
}

#[test]
fn decoded_fixture_keeps_labels_ids_and_request_ids() {
    let line = FIXTURE.lines().nth(1).unwrap();
    let LogRecord::AddExample {
        id,
        positive,
        example,
        request_id,
    } = decode_record(line.as_bytes()).unwrap()
    else {
        panic!("line 1 is an add");
    };
    assert_eq!((id, positive, request_id), (0, true, None));
    let inst = example.instance();
    let labels: Vec<&str> = inst.values().map(|v| inst.label(v)).collect();
    assert_eq!(
        labels,
        [
            "say \"hi\"",
            "back\\slash",
            "two\nlines",
            "bell\u{1}",
            "é⊤😀"
        ]
    );
    assert_eq!(example.distinguished(), &[Value(4)]);
    assert_eq!(inst.num_facts(), 4);
    assert_eq!(inst.schema().len(), 3);

    let line = FIXTURE.lines().nth(2).unwrap();
    let LogRecord::AddExample { request_id, .. } = decode_record(line.as_bytes()).unwrap() else {
        panic!("line 2 is an add");
    };
    assert_eq!(request_id, Some(0x1234_5678_9ABC));
}

/// The record body of a fixture line: the raw text the checksum covers.
fn body_of(line: &str) -> &str {
    let start = line.find(",\"rec\":").unwrap() + ",\"rec\":".len();
    &line[start..line.len() - 1]
}

/// Decoding a body straight from its text gives exactly what parsing it
/// into a tree and decoding that gives — the same record or the same
/// error — on every truncation and on a spread of single-byte changes.
#[test]
fn direct_decode_matches_the_tree_on_every_broken_body() {
    let via_tree = |text: &str| {
        serde::json::Value::parse(text)
            .and_then(|v| LogRecord::from_json(&v))
            .map(|r| encode_record(&r))
    };
    let direct = |text: &str| serde::json::decode::<LogRecord>(text).map(|r| encode_record(&r));
    for line in FIXTURE.lines() {
        let body = body_of(line);
        assert_eq!(direct(body), via_tree(body));
        assert!(direct(body).is_ok());
        let mut texts: Vec<String> = (0..body.len())
            .filter_map(|n| body.get(..n).map(str::to_string))
            .collect();
        for at in 0..body.len() {
            for &byte in b"\"\\,:}]9x \n" {
                let mut changed = body.as_bytes().to_vec();
                changed[at] = byte;
                texts.extend(String::from_utf8(changed));
            }
        }
        for text in &texts {
            assert_eq!(direct(text), via_tree(text), "decoding {text:?}");
        }
    }
}
