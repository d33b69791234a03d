//! `cqfit-trace` — export causal traces as Chrome `trace_event` JSON or
//! a plain-text waterfall.
//!
//! ```text
//! cqfit-trace --journal DIR   [--format chrome|text] [--trace HEXID] [--out FILE]
//! cqfit-trace --addr HOST:PORT [--format chrome|text] [--trace HEXID] [--out FILE]
//! ```
//!
//! Two sources, one renderer.  `--journal DIR` decodes the flight
//! recorder journal (`trace.fr`) a `cqfit-serve --flight-recorder DIR`
//! run left behind — the longest valid slot prefix survives even a crash
//! mid-write, so a post-mortem always gets whatever the recorder had
//! made durable.  `--addr` instead asks a *live* server for its
//! in-memory trace ring over the wire (`{"op":"trace_dump"}`).
//!
//! `--format chrome` (the default is `text`) emits Chrome
//! `trace_event` JSON — load the file in `chrome://tracing` or Perfetto
//! to see every request's span tree on a timeline, one lane per trace.
//! `--trace HEXID` restricts the export to one trace id (as printed by
//! the waterfall and carried in span `args`).  `--out FILE` writes to a
//! file instead of stdout.

use cqfit_engine::{Client, Request, Response};
use cqfit_env::RealEnv;
use cqfit_obs::TraceSpan;
use std::io::Write;

fn usage_error(message: &str) -> ! {
    eprintln!("cqfit-trace: {message}");
    eprintln!(
        "usage: cqfit-trace (--journal DIR | --addr HOST:PORT) [--format chrome|text] [--trace HEXID] [--out FILE]"
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("cqfit-trace: {message}");
    std::process::exit(1);
}

/// Reads and decodes a flight-recorder journal: every fully-written,
/// CRC-clean slot in sequence order (a torn tail is dropped, not fatal).
fn spans_from_journal(dir: &str) -> Vec<TraceSpan> {
    let path = std::path::Path::new(dir).join(cqfit_obs::FR_FILE_NAME);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => fail(&format!("cannot read {}: {e}", path.display())),
    };
    cqfit_obs::decode_journal(&bytes)
}

/// Fetches the live trace ring of a running server.
fn spans_from_server(addr: &str) -> Vec<TraceSpan> {
    let mut client = match Client::connect_with(addr, RealEnv::arc(), 10) {
        Ok(c) => c,
        Err(e) => fail(&format!("cannot connect to {addr}: {e}")),
    };
    match client.call(&Request::TraceDump) {
        Ok(Response::Traces { spans }) => spans,
        Ok(other) => fail(&format!("unexpected trace_dump response: {other:?}")),
        Err(e) => fail(&format!("trace_dump failed: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut journal: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut format = "text".to_string();
    let mut trace_filter: Option<u128> = None;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--journal" => match args.get(i + 1) {
                Some(value) => {
                    journal = Some(value.clone());
                    i += 1;
                }
                None => usage_error("`--journal` requires a directory path"),
            },
            "--addr" => match args.get(i + 1) {
                Some(value) => {
                    addr = Some(value.clone());
                    i += 1;
                }
                None => usage_error("`--addr` requires a HOST:PORT value"),
            },
            "--format" => match args.get(i + 1).map(String::as_str) {
                Some(value @ ("chrome" | "text")) => {
                    format = value.to_string();
                    i += 1;
                }
                _ => usage_error("`--format` requires `chrome` or `text`"),
            },
            "--trace" => match args
                .get(i + 1)
                .and_then(|v| cqfit_obs::TraceContext::parse_trace_id(v))
            {
                Some(id) => {
                    trace_filter = Some(id);
                    i += 1;
                }
                _ => usage_error("`--trace` requires a hex trace id"),
            },
            "--out" => match args.get(i + 1) {
                Some(value) => {
                    out = Some(value.clone());
                    i += 1;
                }
                None => usage_error("`--out` requires a file path"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let mut spans = match (&journal, &addr) {
        (Some(dir), None) => spans_from_journal(dir),
        (None, Some(addr)) => spans_from_server(addr),
        _ => usage_error("exactly one of `--journal` or `--addr` is required"),
    };
    if let Some(id) = trace_filter {
        spans.retain(|s| s.trace_id == id);
        if spans.is_empty() {
            fail(&format!("no spans for trace {id:032x}"));
        }
    }
    let rendered = match format.as_str() {
        "chrome" => cqfit_obs::render_chrome_trace(&spans),
        _ => cqfit_obs::render_waterfall(&spans),
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered.as_bytes()) {
                fail(&format!("cannot write {path}: {e}"));
            }
            eprintln!("cqfit-trace: wrote {} spans to {path}", spans.len());
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let _ = lock.write_all(rendered.as_bytes());
            let _ = lock.flush();
        }
    }
}
