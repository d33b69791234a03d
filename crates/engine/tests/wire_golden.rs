//! Golden wire text of the request/response protocol.
//!
//! Every `Request` variant (plain and with the `request_id` / `trace`
//! metadata attached), every `Response` variant, and the error reply of a
//! list of malformed requests and responses are rendered into one text
//! and compared line by line with `wire_golden.txt`.  The round-trip
//! tests in `protocol.rs` encode and decode with the same codec, so only
//! this file pins the bytes a client or server of another build sees.
//!
//! On a mismatch the test prints every differing line and the full
//! rendering, so an intended wire change can be reviewed line by line
//! and the golden file updated from the printed text.
//!
//! The writer is also checked against the tree: every value's text must
//! read back as a `Value` that prints the same text.

use cqfit_data::{parse_example, Example, Instance, Schema};
use cqfit_engine::{
    EngineStats, ExamplePayload, FitMode, FitQuery, Polarity, QueryClass, Request, Response,
};
use cqfit_gen::{random_example, RandomConfig};
use cqfit_obs::{Registry, TraceContext, TraceSpan};
use cqfit_query::{parse_cq, Ucq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::Value as Json;
use serde::Deserialize;

const GOLDEN: &str = include_str!("wire_golden.txt");

fn requests() -> Vec<(&'static str, Request)> {
    let schema = Schema::new([("R", 2), ("P", 1)]).unwrap();
    let example = parse_example(&Schema::digraph(), "R(a,b)\nR(b,a)\n* a").unwrap();
    vec![
        ("ping", Request::Ping),
        (
            "create_workspace",
            Request::CreateWorkspace {
                workspace: "w".into(),
                schema,
                arity: 1,
            },
        ),
        (
            "drop_workspace",
            Request::DropWorkspace {
                workspace: "quote\"d é".into(),
            },
        ),
        ("list_workspaces", Request::ListWorkspaces),
        (
            "workspace_info",
            Request::WorkspaceInfo {
                workspace: "w".into(),
            },
        ),
        (
            "add_example/text",
            Request::AddExample {
                workspace: "w".into(),
                polarity: Polarity::Positive,
                example: ExamplePayload::Text("R(a,b)\nR(b,c)\n* a".into()),
            },
        ),
        (
            "add_example/structured",
            Request::AddExample {
                workspace: "w".into(),
                polarity: Polarity::Negative,
                example: ExamplePayload::Structured(example),
            },
        ),
        (
            "remove_example",
            Request::RemoveExample {
                workspace: "w".into(),
                polarity: Polarity::Negative,
                id: 3,
            },
        ),
        (
            "fitting_exists",
            Request::FittingExists {
                workspace: "w".into(),
                class: QueryClass::Ucq,
            },
        ),
        (
            "fit",
            Request::Fit {
                workspace: "w".into(),
                class: QueryClass::Cq,
                mode: FitMode::Plain,
            },
        ),
        (
            "fit/minimized",
            Request::Fit {
                workspace: "w".into(),
                class: QueryClass::Ucq,
                mode: FitMode::Minimized,
            },
        ),
        ("stats", Request::Stats),
        ("metrics", Request::Metrics),
        ("persist", Request::Persist),
        ("recover", Request::Recover),
        ("store_info", Request::StoreInfo),
        ("shutdown", Request::Shutdown),
        ("trace_dump", Request::TraceDump),
        ("slow_requests", Request::SlowRequests { over_us: None }),
        (
            "slow_requests/over",
            Request::SlowRequests {
                over_us: Some(2_500),
            },
        ),
    ]
}

fn span(span_id: u64, parent_span_id: u64, name: &str) -> TraceSpan {
    TraceSpan {
        trace_id: (0xFACE << 64) | 7,
        span_id,
        parent_span_id,
        name: name.to_string(),
        start_ns: 1_000,
        end_ns: 5_000 + span_id,
        annotations: vec![
            ("op".to_string(), "add_example".to_string()),
            ("workspace".to_string(), "w".to_string()),
        ],
    }
}

fn responses() -> Vec<(&'static str, Response)> {
    let schema = Schema::digraph();
    let cq = parse_cq(&schema, "q(x) :- R(x,y), R(y,x)").unwrap();
    let other = parse_cq(&schema, "q(x) :- R(x,x)").unwrap();
    let ucq = Ucq::new(vec![cq.clone(), other]).unwrap();
    let registry = Registry::new();
    registry.engine_requests.add(12);
    registry.store_appends_acked.add(4);
    registry.server_connections.set(2);
    registry.store_append_ns.record(1_800);
    registry.store_append_ns.record(150_000);
    registry.event(99, "wal.rollback", "w: rolled back");
    vec![
        ("pong", Response::Pong),
        (
            "workspace_created",
            Response::WorkspaceCreated {
                workspace: "w".into(),
            },
        ),
        (
            "workspace_dropped",
            Response::WorkspaceDropped {
                workspace: "w".into(),
                existed: false,
            },
        ),
        (
            "workspaces",
            Response::Workspaces {
                names: vec!["a".into(), "b".into()],
            },
        ),
        (
            "workspaces/empty",
            Response::Workspaces { names: Vec::new() },
        ),
        (
            "info",
            Response::Info {
                workspace: "w".into(),
                positives: 2,
                negatives: 3,
                arity: 1,
                revision: 9,
                product_fresh: true,
            },
        ),
        (
            "example_added",
            Response::ExampleAdded {
                polarity: Polarity::Positive,
                id: 4,
            },
        ),
        (
            "example_removed",
            Response::ExampleRemoved {
                polarity: Polarity::Negative,
                id: 4,
                removed: true,
            },
        ),
        (
            "exists",
            Response::Exists {
                class: QueryClass::Cq,
                exists: true,
            },
        ),
        (
            "fitting/cq",
            Response::Fitting {
                class: QueryClass::Cq,
                mode: FitMode::Minimized,
                query: Some(FitQuery::Cq(cq)),
            },
        ),
        (
            "fitting/ucq",
            Response::Fitting {
                class: QueryClass::Ucq,
                mode: FitMode::Plain,
                query: Some(FitQuery::Ucq(ucq)),
            },
        ),
        (
            "fitting/none",
            Response::Fitting {
                class: QueryClass::Cq,
                mode: FitMode::Plain,
                query: None,
            },
        ),
        (
            "stats",
            Response::Stats(EngineStats {
                requests: 9,
                workspaces: 2,
                uptime_ms: 1234,
                pipeline_window: 32,
                memo_workspaces: 1,
                memo_entries: 7,
                cache: cqfit_hom::CacheStats {
                    hom_hits: 3,
                    hom_misses: 1,
                    hom_entries: 5,
                },
                store: Some(cqfit_store::StoreStats {
                    workspaces: 2,
                    records: 5,
                    bytes: 300,
                    compactions: 1,
                    bytes_compacted: 120,
                }),
                revisions: vec![("v".into(), 1), ("w".into(), 4)],
            }),
        ),
        ("stats/bare", Response::Stats(EngineStats::default())),
        ("metrics", Response::Metrics(registry.snapshot())),
        (
            "persisted",
            Response::Persisted {
                workspaces: 2,
                bytes_before: 4096,
                bytes_after: 512,
            },
        ),
        (
            "recovery",
            Response::Recovery {
                workspaces: 3,
                records_replayed: 17,
                torn_bytes_dropped: 42,
                bytes_compacted: 1000,
            },
        ),
        (
            "store_info",
            Response::StoreInfo {
                dir: "/data/cqfit".into(),
                workspaces: 3,
                records: 17,
                bytes: 2048,
                compact_after: 1024,
                fsync: true,
            },
        ),
        ("shutting_down", Response::ShuttingDown),
        (
            "traces",
            Response::Traces {
                spans: vec![span(2, 1, "engine.handle"), span(1, 0, "server.request")],
            },
        ),
        ("traces/empty", Response::Traces { spans: Vec::new() }),
        (
            "slow",
            Response::Slow {
                spans: vec![span(9, 0, "server.request")],
            },
        ),
        ("error", Response::error("no such workspace `w`")),
        (
            "error/position",
            Response::Error {
                message: "expected `,`".into(),
                line: Some(1),
                col: Some(14),
            },
        ),
        (
            "error/line",
            Response::from_data_error(&cqfit_data::DataError::ParseAt {
                line: 2,
                token: "R(".into(),
                message: "unclosed atom".into(),
            }),
        ),
    ]
}

/// Request lines a server must reject (or, for the lenient ones, accept)
/// exactly as pinned: each renders as the reply the server writes.
const MALFORMED_REQUESTS: &[&str] = &[
    r#"{"op":"nope"}"#,
    r#"{"op":"fit","workspace":"w","class":"cq"}"#,
    r#"{"op":"add_example","workspace":"w","polarity":"maybe","text":"R(a,b)"}"#,
    r#"{"op":"add_example","workspace":"w","polarity":"positive"}"#,
    r#"{"op":"add_example","polarity":"positive"}"#,
    r#"{"op":"add_example","workspace":"w","polarity":"maybe"}"#,
    r#"{"op":"add_example","workspace":"w","text":"R(a,b)"}"#,
    r#"{"op":"add_example","workspace":"w","polarity":"positive","text":"R(a,b)","example":{}}"#,
    r#"{"op":"add_example","workspace":"w","polarity":"positive","text":5}"#,
    r#"{"op":"add_example","workspace":"w","polarity":"positive","example":"R(a,b)"}"#,
    r#"{}"#,
    r#"{"op":42}"#,
    r#"[1,2]"#,
    r#"{"op":"create_workspace","workspace":"w","arity":0}"#,
    r#"{"op":"create_workspace","workspace":"w","schema":{"relations":[]},"arity":-1}"#,
    r#"{"op":"create_workspace","workspace":7,"schema":{"relations":[]},"arity":0}"#,
    r#"{"op":"remove_example","workspace":"w","polarity":"negative","id":"x"}"#,
    r#"{"op":"remove_example","workspace":"w","polarity":"negative"}"#,
    r#"{"op":"fitting_exists","workspace":"w","class":"datalog"}"#,
    r#"{"op":"fit","workspace":"w","class":"cq","mode":"fast"}"#,
    r#"{"op":"fit","class":"ucq","mode":"plain"}"#,
    r#"{"op":"slow_requests","over_us":-5}"#,
    r#"{"op":"slow_requests","over_us":null}"#,
    r#"{"op":"drop_workspace"}"#,
    r#"{"op":"fit",,}"#,
    r#"{"op":"ping","request_id":"abc","trace":7}"#,
];

/// Response lines a client must reject (or accept) exactly as pinned.
const MALFORMED_RESPONSES: &[&str] = &[
    r#"{"ok":true,"kind":"nope"}"#,
    r#"{"ok":true}"#,
    r#"{"kind":"pong"}"#,
    r#"{"ok":false}"#,
    r#"{"ok":true,"kind":"info","workspace":"w"}"#,
    r#"{"ok":true,"kind":"exists","class":"rpq","exists":true}"#,
    r#"{"ok":true,"kind":"fitting","class":"cq","mode":"plain","found":true}"#,
    r#"{"ok":true,"kind":"traces","spans":{}}"#,
    r#"{"ok":true,"kind":"stats","requests":1,"workspaces":0,"caching":false}"#,
    r#"{"ok":true,"kind":"metrics","counters":{},"gauges":{},"histograms":{}}"#,
    r#"{"ok":false,"error":"x","line":-1,"col":-2}"#,
];

fn render() -> String {
    let ctx = TraceContext {
        trace_id: (7u128 << 64) | 9,
        span_id: 0xABCD,
        parent_span_id: 0x1234,
    };
    let mut out = String::new();
    let mut line = |label: String, text: String| {
        out.push_str(&label);
        out.push(' ');
        out.push_str(&text);
        out.push('\n');
    };
    for (label, request) in requests() {
        let plain = serde::to_string(&request);
        line(format!("request {label}"), plain.clone());
        let meta = request.to_json_with_meta((1 << 62) + 5, Some(&ctx));
        // The client writes its frames straight from the request; that
        // text is the tree's, byte for byte.
        let mut written = String::new();
        request.write_with_meta((1 << 62) + 5, Some(&ctx), &mut written);
        assert_eq!(written, meta.to_string(), "request+meta {label} writer");
        line(format!("request+meta {label}"), written);
        // Decoding the pinned text gives back the same request.
        let back: Request = serde::from_str(&plain).unwrap();
        assert_eq!(serde::to_string(&back), plain, "request {label} round trip");
        let back = Request::from_json(&meta).unwrap();
        assert_eq!(serde::to_string(&back), plain, "request {label} with meta");
        assert_eq!(Request::request_id_of(&meta), Some((1 << 62) + 5));
        assert_eq!(Request::trace_of(&meta), Some(ctx));
    }
    for (label, response) in responses() {
        let text = serde::to_string(&response);
        let back: Response = serde::from_str(&text).unwrap();
        assert_eq!(serde::to_string(&back), text, "response {label} round trip");
        line(format!("response {label}"), text);
    }
    for (i, raw) in MALFORMED_REQUESTS.iter().enumerate() {
        let reply = match Json::parse(raw).and_then(|v| Request::from_json(&v)) {
            Ok(request) => format!("accepted as {}", serde::to_string(&request)),
            Err(e) => serde::to_string(&Response::from_json_error(&e)),
        };
        line(format!("malformed-request {i} {raw} =>"), reply);
    }
    for (i, raw) in MALFORMED_RESPONSES.iter().enumerate() {
        let outcome = match serde::from_str::<Response>(raw) {
            Ok(response) => format!("accepted as {}", serde::to_string(&response)),
            Err(e) => format!("rejected: {e}"),
        };
        line(format!("malformed-response {i} {raw} =>"), outcome);
    }
    out
}

#[test]
fn wire_text_matches_the_golden_file() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let got: Vec<&str> = actual.lines().collect();
    let want: Vec<&str> = GOLDEN.lines().collect();
    let mut report = String::new();
    for i in 0..got.len().max(want.len()) {
        let (g, w) = (got.get(i), want.get(i));
        if g != w {
            report.push_str(&format!(
                "line {}:\n  golden: {}\n  actual: {}\n",
                i + 1,
                w.unwrap_or(&"<none>"),
                g.unwrap_or(&"<none>")
            ));
        }
    }
    panic!("wire text differs from wire_golden.txt:\n{report}\nfull rendering:\n{actual}");
}

/// The wire codec decodes the same from text as from a parsed tree: every
/// pinned request and response line, every malformed one, and every
/// truncation of each, gives the same value or the same error through
/// `serde::json::decode` as through `Value::parse` + `from_json`.
#[test]
fn direct_decode_of_every_pinned_line_matches_the_tree() {
    fn same<T: Deserialize + serde::Serialize>(text: &str) {
        let direct = serde::json::decode::<T>(text).map(|t| serde::to_string(&t));
        let via_tree = Json::parse(text)
            .and_then(|v| T::from_json(&v))
            .map(|t| serde::to_string(&t));
        assert_eq!(direct, via_tree, "decoding {text:?}");
    }
    let ctx = TraceContext {
        trace_id: 3,
        span_id: 4,
        parent_span_id: 5,
    };
    let mut request_lines: Vec<String> = MALFORMED_REQUESTS.iter().map(|r| r.to_string()).collect();
    for (_, request) in requests() {
        request_lines.push(serde::to_string(&request));
        request_lines.push(request.to_json_with_meta(6, Some(&ctx)).to_string());
    }
    let mut response_lines: Vec<String> =
        MALFORMED_RESPONSES.iter().map(|r| r.to_string()).collect();
    response_lines.extend(responses().iter().map(|(_, r)| serde::to_string(r)));
    for text in &request_lines {
        for cut in (0..=text.len()).filter(|&n| text.is_char_boundary(n)) {
            same::<Request>(&text[..cut]);
        }
    }
    for text in &response_lines {
        for cut in (0..=text.len()).filter(|&n| text.is_char_boundary(n)) {
            same::<Response>(&text[..cut]);
        }
    }
}

/// The text `serde::to_string` writes reads back as a tree that prints
/// the same text.
fn writes_as_the_tree<T: serde::Serialize + ?Sized>(x: &T) {
    let text = serde::to_string(x);
    let tree = Json::parse(&text).unwrap_or_else(|e| panic!("{text:?} does not parse: {e}"));
    assert_eq!(tree.to_string(), text);
}

/// The writer and the tree agree on every pinned request and response,
/// on seeded random examples, and on the awkward corners: labels that
/// need escapes, ids past `i64::MAX`, and floats JSON cannot spell.
#[test]
fn the_writer_matches_the_tree() {
    for (_, request) in requests() {
        writes_as_the_tree(&request);
    }
    for (_, response) in responses() {
        writes_as_the_tree(&response);
    }

    let schemas = [
        Schema::digraph(),
        Schema::binary_schema(["P", "Q"], ["R", "S"]),
        std::sync::Arc::new(Schema::new([("T", 3), ("P", 1)]).unwrap()),
    ];
    for seed in 0..48u64 {
        let cfg = RandomConfig {
            num_values: 2 + (seed as usize % 5),
            density: 0.2 + 0.1 * (seed % 4) as f64,
            arity: (seed % 3) as usize,
            seed,
            ..RandomConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let example = random_example(&schemas[seed as usize % 3], &cfg, &mut rng);
        writes_as_the_tree(&example);
        writes_as_the_tree(&Request::AddExample {
            workspace: format!("ws-{seed}"),
            polarity: Polarity::Positive,
            example: ExamplePayload::Structured(example),
        });
    }

    let labels = [
        "quote\"d",
        "back\\slash",
        "new\nline",
        "\u{1}",
        "\u{1f}",
        "\r\t\u{8}\u{c}\u{7f}",
        "é ⊤ ü",
        "😀 emoji",
        "",
    ];
    let mut instance = Instance::new(Schema::digraph());
    for pair in labels.windows(2) {
        instance.add_fact_labels("R", pair).unwrap();
    }
    let distinguished = vec![instance.value_by_label("😀 emoji").unwrap()];
    writes_as_the_tree(&Example::new(instance, distinguished));
    for label in labels {
        writes_as_the_tree(label);
        writes_as_the_tree(&Request::DropWorkspace {
            workspace: label.to_string(),
        });
        writes_as_the_tree(&Response::error(label));
    }

    let huge = i64::MAX as u64 + 1;
    for id in [0, i64::MAX as u64, huge, u64::MAX] {
        writes_as_the_tree(&id);
        writes_as_the_tree(&Response::ExampleAdded {
            polarity: Polarity::Negative,
            id,
        });
        writes_as_the_tree(&Request::SlowRequests { over_us: Some(id) });
        let mut written = String::new();
        Request::Ping.write_with_meta(id, None, &mut written);
        assert_eq!(written, Request::Ping.to_json_with_id(id).to_string());
        assert_eq!(Json::parse(&written).unwrap().to_string(), written);
    }
    assert_eq!(serde::to_string(&huge), "\"9223372036854775808\"");
    assert_eq!(serde::to_string(&u64::MAX), "\"18446744073709551615\"");

    for f in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        1e300,
        0.1,
        1.0,
        5e-324,
    ] {
        writes_as_the_tree(&f);
        writes_as_the_tree(&vec![Some(f), None]);
    }
    let floats = vec![f64::NAN, f64::INFINITY, -0.0, 1e300, 0.1];
    assert_eq!(serde::to_string(&floats), "[null,null,-0.0,1e300,0.1]");
}
