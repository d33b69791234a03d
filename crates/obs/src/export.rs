//! Timeline export: Chrome `trace_event` JSON (loadable in Perfetto /
//! `chrome://tracing`) and a plain-text per-trace waterfall.  Shared by
//! the `cqfit-trace` bin and the `cqfit-session trace` verb.

use serde::json;

use crate::trace::TraceSpan;

/// Renders spans as a Chrome `trace_event` JSON document: one complete
/// (`"ph": "X"`) event per span, timestamps and durations in
/// microseconds, one `tid` lane per trace (in order of first
/// appearance).  Trace and span ids ride in `args` as hex strings
/// alongside every annotation.
pub fn render_chrome_trace(spans: &[TraceSpan]) -> String {
    let mut lanes: Vec<u128> = Vec::new();
    let mut out = String::new();
    json::write_object(&mut out, |doc| {
        json::write_array(doc.key("traceEvents"), spans, |span, out| {
            let lane = match lanes.iter().position(|&t| t == span.trace_id) {
                Some(at) => at,
                None => {
                    lanes.push(span.trace_id);
                    lanes.len() - 1
                }
            };
            json::write_object(out, |o| {
                o.field("name", &span.name)
                    .field("cat", "cqfit")
                    .field("ph", "X")
                    .field("ts", &(span.start_ns as f64 / 1_000.0))
                    .field("dur", &(span.duration_ns() as f64 / 1_000.0))
                    .field("pid", &1u32)
                    .field("tid", &(lane + 1));
                json::write_object(o.key("args"), |args| {
                    args.field("trace_id", &format!("{:032x}", span.trace_id))
                        .field("span_id", &format!("{:016x}", span.span_id))
                        .field("parent_span_id", &format!("{:016x}", span.parent_span_id));
                    for (key, value) in &span.annotations {
                        args.field(key, value);
                    }
                });
            });
        });
        doc.field("displayTimeUnit", "ns");
    });
    out
}

/// Renders spans as plain-text waterfalls, one block per trace: children
/// indented under their parent, siblings ordered by start time, each
/// line carrying the span's offset from the trace root, duration, and
/// annotations.  Orphans (parent missing from the set — e.g. evicted
/// from the ring) surface at top level rather than disappearing.
pub fn render_waterfall(spans: &[TraceSpan]) -> String {
    let mut out = String::new();
    let mut traces: Vec<u128> = Vec::new();
    for span in spans {
        if !traces.contains(&span.trace_id) {
            traces.push(span.trace_id);
        }
    }
    for trace_id in traces {
        let members: Vec<&TraceSpan> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
        let origin_ns = members.iter().map(|s| s.start_ns).min().unwrap_or(0);
        out.push_str(&format!(
            "trace {trace_id:032x} ({} spans)\n",
            members.len()
        ));
        let mut tops: Vec<usize> = (0..members.len())
            .filter(|&i| {
                members[i].parent_span_id == 0
                    || !members
                        .iter()
                        .any(|s| s.span_id == members[i].parent_span_id)
            })
            .collect();
        tops.sort_by_key(|&i| (members[i].start_ns, members[i].span_id));
        for top in tops {
            waterfall_line(&members, top, origin_ns, 1, &mut out);
        }
    }
    out
}

fn waterfall_line(
    members: &[&TraceSpan],
    at: usize,
    origin_ns: u64,
    depth: usize,
    out: &mut String,
) {
    let span = members[at];
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!(
        "{} +{}us {}us [{:016x}]",
        span.name,
        span.start_ns.saturating_sub(origin_ns) / 1_000,
        span.duration_ns() / 1_000,
        span.span_id,
    ));
    for (key, value) in &span.annotations {
        out.push_str(&format!(" {key}={value}"));
    }
    out.push('\n');
    let mut children: Vec<usize> = (0..members.len())
        .filter(|&i| i != at && members[i].parent_span_id == span.span_id)
        .collect();
    children.sort_by_key(|&i| (members[i].start_ns, members[i].span_id));
    for child in children {
        waterfall_line(members, child, origin_ns, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Vec<TraceSpan> {
        let span = |span_id, parent, name: &str, start, end| TraceSpan {
            trace_id: 0xFEED,
            span_id,
            parent_span_id: parent,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            annotations: vec![("op".to_string(), "ping".to_string())],
        };
        vec![
            span(1, 0, "client.request", 1_000, 9_000),
            span(2, 1, "client.attempt", 1_500, 8_500),
            span(3, 2, "server.request", 2_000, 8_000),
            span(4, 3, "engine.handle", 3_000, 7_000),
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_nested_pairs() {
        let text = render_chrome_trace(&tree());
        let v = serde::json::Value::parse(&text).expect("valid chrome trace JSON");
        let events = v.req("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        for event in events {
            assert_eq!(event.req("ph").unwrap().as_str(), Some("X"));
            assert!(event.req("ts").unwrap().as_f64().is_some());
            assert!(event.req("dur").unwrap().as_f64().is_some());
            assert!(event.req("args").unwrap().get("trace_id").is_some());
        }
        // At least one nested parent/child pair is present.
        let nested = events.iter().any(|e| {
            let parent = e.req("args").unwrap().get("parent_span_id").unwrap();
            parent.as_str() != Some("0000000000000000")
                && events.iter().any(|other| {
                    other.req("args").unwrap().get("span_id").unwrap().as_str() == parent.as_str()
                })
        });
        assert!(nested, "expected a nested span pair");
    }

    #[test]
    fn waterfall_indents_children_under_parents() {
        let text = render_waterfall(&tree());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("trace "));
        assert!(lines[1].starts_with("  client.request +0us 8us"));
        assert!(lines[2].starts_with("    client.attempt"));
        assert!(lines[3].starts_with("      server.request"));
        assert!(lines[4].starts_with("        engine.handle"));
        assert!(lines[4].contains("op=ping"));

        // An orphan (parent outside the set) still renders at top level.
        let orphan = vec![TraceSpan {
            trace_id: 1,
            span_id: 7,
            parent_span_id: 99,
            name: "engine.handle".to_string(),
            start_ns: 0,
            end_ns: 1_000,
            annotations: Vec::new(),
        }];
        let text = render_waterfall(&orphan);
        assert!(text.contains("engine.handle"));
    }
}
