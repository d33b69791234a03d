//! `cqfit-session` — a scripted client session against `cqfit-serve`.
//!
//! ```text
//! cqfit-session [--addr HOST:PORT] [--store] [--shutdown]
//! cqfit-session [--addr HOST:PORT] --verify-recovery [--shutdown]
//! cqfit-session [--addr HOST:PORT] stats
//! cqfit-session [--addr HOST:PORT] metrics
//! cqfit-session [--addr HOST:PORT] watch [--interval-ms N] [--count N]
//! cqfit-session [--addr HOST:PORT] trace TRACE_ID
//! cqfit-session [--addr HOST:PORT] slow [--over-us N]
//! ```
//!
//! Connects (with retries, so it can be started right after the server),
//! drives a fixed query-by-example session — create a workspace, add
//! positive cycles and a negative 2-cycle, fit CQs and UCQs, exercise the
//! parse-error path, read the engine statistics — and *validates* every
//! response, exiting non-zero on the first unexpected answer.  CI uses it
//! as the server smoke test.  With `--shutdown` the session ends by
//! stopping the server.
//!
//! `--store` additionally exercises the durability ops against a server
//! started with `--data-dir`: `store_info`, a forced `persist`
//! (snapshot + compaction), a post-snapshot add/remove pair (so the log
//! has records after its snapshot), and `recover`.
//!
//! `--verify-recovery` replaces the scripted session with its post-crash
//! counterpart: instead of creating the workspace it asserts that the
//! `qbe` workspace *survived* — same example counts, same minimized
//! fitting — and that the server reports a non-trivial recovery.  CI runs
//! it after `kill -9`-ing and restarting a durable server.
//!
//! `stats` prints an operator summary (requests, hom-cache hit rate,
//! pipeline window, exactly-once memo occupancy, store records/bytes,
//! per-workspace revisions) — the warm-up view after a recovery.
//!
//! `metrics` dumps the engine's full metrics registry — every counter
//! and gauge, latency-histogram summaries (p50/p90/p99/max), and the
//! most recent structured events.  `watch` polls the
//! same registry every `--interval-ms` (default 1000) and prints one
//! delta line per tick — request/append/retry throughput at a glance —
//! until interrupted or `--count` ticks have been printed.
//!
//! `trace TRACE_ID` fetches the server's causal trace ring and prints
//! the waterfall of one trace (ids as printed by `cqfit-trace` or the
//! waterfall itself); `slow [--over-us N]` lists the server's slowest
//! requests — the threshold-gated top-K table — optionally restricted
//! to those over `N` microseconds.
//!
//! Scripted runs end with a `client-stats:` line summing the retries,
//! reconnects, and backoff sleeps the resilient client burned through —
//! zero on a healthy wire, non-zero when the transport flapped.

use cqfit_engine::{
    Client, EngineStats, ExamplePayload, FitMode, Polarity, QueryClass, Request, Response,
};
use cqfit_env::RealEnv;

fn fail(step: &str, got: &Response) -> ! {
    eprintln!("cqfit-session: step `{step}` got unexpected response: {got:?}");
    std::process::exit(1);
}

fn call(client: &mut Client, step: &str, request: &Request) -> Response {
    let response = match client.call(request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cqfit-session: step `{step}` failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{step}: {}", serde::to_string(&response));
    response
}

fn usage_error(message: &str) -> ! {
    eprintln!("cqfit-session: {message}");
    eprintln!("usage: cqfit-session [--addr HOST:PORT] [--store] [--verify-recovery] [--shutdown] [stats | metrics | watch [--interval-ms N] [--count N] | trace TRACE_ID | slow [--over-us N]]");
    std::process::exit(2);
}

fn connect(addr: &str) -> Client {
    match Client::connect_with(addr, RealEnv::arc(), 50) {
        Ok(mut c) => {
            // The scripted fits legitimately run long on large examples;
            // no fixed per-request deadline fits them all.
            c.set_call_timeout(None);
            c
        }
        Err(e) => {
            eprintln!("cqfit-session: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// The `stats` command: a human-readable operator summary.
fn run_stats(addr: &str) -> ! {
    let mut client = connect(addr);
    let stats = match client.call(&Request::Stats) {
        Ok(Response::Stats(stats)) => stats,
        Ok(other) => fail("stats", &other),
        Err(e) => {
            eprintln!("cqfit-session: stats failed: {e}");
            std::process::exit(1);
        }
    };
    print_stats(&stats);
    std::process::exit(0);
}

fn print_stats(stats: &EngineStats) {
    println!("requests handled : {}", stats.requests);
    println!("workspaces       : {}", stats.workspaces);
    println!("uptime           : {:.3}s", stats.uptime_ms as f64 / 1000.0);
    println!(
        "pipeline window  : {} requests in flight max",
        stats.pipeline_window
    );
    println!(
        "memo occupancy   : {} ids across {} workspace rings",
        stats.memo_entries, stats.memo_workspaces
    );
    let c = &stats.cache;
    println!(
        "cache hit rate   : {:.3} ({} hits, {} misses, {} entries)",
        c.hit_rate(),
        c.hom_hits,
        c.hom_misses,
        c.hom_entries
    );
    match &stats.store {
        Some(s) => println!(
            "store            : {} records, {} bytes across {} logs ({} compactions, {} bytes reclaimed)",
            s.records, s.bytes, s.workspaces, s.compactions, s.bytes_compacted
        ),
        None => println!("store            : (not configured)"),
    }
    for (name, revision) in &stats.revisions {
        println!("workspace {name:<12} revision {revision}");
    }
}

/// One wire fetch of the engine's metrics registry snapshot.
fn fetch_metrics(client: &mut Client) -> cqfit_obs::Snapshot {
    match client.call(&Request::Metrics) {
        Ok(Response::Metrics(snapshot)) => snapshot,
        Ok(other) => fail("metrics", &other),
        Err(e) => {
            eprintln!("cqfit-session: metrics failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The `metrics` command: the full registry, human-readable.
fn run_metrics(addr: &str) -> ! {
    let mut client = connect(addr);
    let snapshot = fetch_metrics(&mut client);
    println!("counters:");
    for (name, value) in &snapshot.counters {
        println!("  {name:<24} {value}");
    }
    println!("gauges:");
    for (name, value) in &snapshot.gauges {
        println!("  {name:<24} {value}");
    }
    println!("histograms (ns unless noted):");
    for (name, h) in &snapshot.histograms {
        println!(
            "  {name:<24} count {} p50 {} p90 {} p99 {} max {} sum {}",
            h.count, h.p50, h.p90, h.p99, h.max, h.sum
        );
    }
    if !snapshot.events.is_empty() {
        println!("recent events:");
        for e in &snapshot.events {
            println!("  [{}ns] {}: {}", e.at_ns, e.kind, e.detail);
        }
    }
    std::process::exit(0);
}

/// The `watch` command: one delta summary line per polling tick.
fn run_watch(addr: &str, interval: std::time::Duration, count: Option<u64>) -> ! {
    let mut client = connect(addr);
    let mut previous = fetch_metrics(&mut client);
    let mut ticks = 0u64;
    while count.is_none_or(|c| ticks < c) {
        std::thread::sleep(interval);
        let current = fetch_metrics(&mut client);
        let delta = |name: &str| current.counter(name).saturating_sub(previous.counter(name));
        let fit_count =
            |snap: &cqfit_obs::Snapshot| snap.histogram("engine_fit_ns").map_or(0, |h| h.count);
        let request_p99 = current.histogram("server_request_ns").map_or(0, |h| h.p99);
        println!(
            "+{} req  +{} acked appends  +{} fits  +{} memo replays  +{} retries  {} conns  req p99 {}ns",
            delta("engine_requests"),
            delta("store_appends_acked"),
            fit_count(&current).saturating_sub(fit_count(&previous)),
            delta("engine_memo_replays"),
            delta("client_retries"),
            current.gauge("server_connections"),
            request_p99,
        );
        previous = current;
        ticks += 1;
    }
    std::process::exit(0);
}

/// The `trace` command: the waterfall of one trace from the server's
/// in-memory causal ring.
fn run_trace(addr: &str, trace_id: u128) -> ! {
    let mut client = connect(addr);
    let spans = match client.call(&Request::TraceDump) {
        Ok(Response::Traces { spans }) => spans,
        Ok(other) => fail("trace_dump", &other),
        Err(e) => {
            eprintln!("cqfit-session: trace_dump failed: {e}");
            std::process::exit(1);
        }
    };
    let matching: Vec<_> = spans
        .into_iter()
        .filter(|s| s.trace_id == trace_id)
        .collect();
    if matching.is_empty() {
        eprintln!("cqfit-session: no spans for trace {trace_id:032x}");
        std::process::exit(1);
    }
    print!("{}", cqfit_obs::render_waterfall(&matching));
    std::process::exit(0);
}

/// The `slow` command: the server's top-K slow-request table, slowest
/// first, optionally re-filtered to spans over `--over-us`.
fn run_slow(addr: &str, over_us: Option<u64>) -> ! {
    let mut client = connect(addr);
    let spans = match client.call(&Request::SlowRequests { over_us }) {
        Ok(Response::Slow { spans }) => spans,
        Ok(other) => fail("slow_requests", &other),
        Err(e) => {
            eprintln!("cqfit-session: slow_requests failed: {e}");
            std::process::exit(1);
        }
    };
    println!("slow requests: {}", spans.len());
    for s in &spans {
        let mut line = format!(
            "  {:>9}us {} trace {:032x}",
            s.duration_ns() / 1_000,
            s.name,
            s.trace_id
        );
        for (key, value) in &s.annotations {
            line.push_str(&format!(" {key}={value}"));
        }
        println!("{line}");
    }
    std::process::exit(0);
}

/// The `client-stats:` closing line of a scripted run: how hard the
/// resilient client had to work for the session to look seamless.
fn print_client_stats(client: &Client) {
    let registry = client.registry();
    println!(
        "client-stats: retries {} reconnects {} backoff-sleeps {}",
        registry.client_retries.get(),
        registry.client_reconnects.get(),
        registry.client_backoff_sleeps.get()
    );
}

/// The durability tail of the scripted session (`--store`).
fn store_ops(client: &mut Client) {
    let r = call(client, "store_info", &Request::StoreInfo);
    match &r {
        Response::StoreInfo { records, .. } if *records > 0 => {}
        _ => fail("store_info (expected records > 0)", &r),
    }
    let r = call(client, "persist", &Request::Persist);
    match &r {
        Response::Persisted {
            bytes_before,
            bytes_after,
            ..
        } if bytes_after <= bytes_before => {}
        _ => fail("persist (expected bytes_after <= bytes_before)", &r),
    }
    // Leave records *after* the snapshot so a later recovery replays a
    // snapshot-plus-tail log, then restore the workspace to its scripted
    // state (add and remove the same positive).
    let r = call(
        client,
        "add_post_snapshot",
        &Request::AddExample {
            workspace: "qbe".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text(
                "R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,f)\nR(f,g)\nR(g,a)".into(),
            ),
        },
    );
    let id = match r {
        Response::ExampleAdded { id, .. } => id,
        _ => fail("add_post_snapshot", &r),
    };
    let r = call(
        client,
        "remove_post_snapshot",
        &Request::RemoveExample {
            workspace: "qbe".into(),
            polarity: Polarity::Positive,
            id,
        },
    );
    if !matches!(r, Response::ExampleRemoved { removed: true, .. }) {
        fail("remove_post_snapshot", &r);
    }
    let r = call(client, "recover_report", &Request::Recover);
    if !matches!(r, Response::Recovery { .. }) {
        fail("recover_report", &r);
    }
}

/// The post-crash verification session (`--verify-recovery`).
fn verify_recovery(client: &mut Client) {
    let r = call(client, "list", &Request::ListWorkspaces);
    match &r {
        Response::Workspaces { names } if names.iter().any(|n| n == "qbe") => {}
        _ => fail("list (expected recovered workspace `qbe`)", &r),
    }
    let r = call(
        client,
        "info",
        &Request::WorkspaceInfo {
            workspace: "qbe".into(),
        },
    );
    match &r {
        Response::Info {
            positives: 2,
            negatives: 1,
            arity: 0,
            revision,
            ..
        } if *revision >= 3 => {}
        _ => fail("info (expected 2 positives, 1 negative, revision >= 3)", &r),
    }
    // The recovered workspace answers exactly as before the crash: the
    // minimized most-specific fitting CQ of {C3, C5} vs C2 is the
    // 15-cycle (15 variables + 15 atoms).
    let r = call(
        client,
        "fit_cq_min",
        &Request::Fit {
            workspace: "qbe".into(),
            class: QueryClass::Cq,
            mode: FitMode::Minimized,
        },
    );
    match &r {
        Response::Fitting { query: Some(q), .. } if q.size() == 30 => {}
        _ => fail("fit_cq_min (expected size 30 after recovery)", &r),
    }
    let r = call(
        client,
        "exists_ucq",
        &Request::FittingExists {
            workspace: "qbe".into(),
            class: QueryClass::Ucq,
        },
    );
    if !matches!(&r, Response::Exists { exists: true, .. }) {
        fail("exists_ucq (expected true)", &r);
    }
    let r = call(client, "recover_report", &Request::Recover);
    match &r {
        Response::Recovery {
            workspaces,
            records_replayed,
            ..
        } if *workspaces >= 1 && *records_replayed >= 1 => {}
        _ => fail("recover_report (expected restored workspaces)", &r),
    }
    let r = call(client, "store_info", &Request::StoreInfo);
    if !matches!(&r, Response::StoreInfo { .. }) {
        fail("store_info", &r);
    }
    let r = call(client, "stats", &Request::Stats);
    match &r {
        Response::Stats(stats) if stats.revisions.iter().any(|(n, _)| n == "qbe") => {}
        _ => fail("stats (expected per-workspace revisions)", &r),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut shutdown = false;
    let mut store = false;
    let mut verify = false;
    let mut stats_mode = false;
    let mut metrics_mode = false;
    let mut watch_mode = false;
    let mut trace_arg: Option<u128> = None;
    let mut slow_mode = false;
    let mut over_us: Option<u64> = None;
    let mut interval = std::time::Duration::from_millis(1000);
    let mut count: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => match args.get(i + 1) {
                Some(value) => {
                    addr = value.clone();
                    i += 1;
                }
                None => usage_error("`--addr` requires a HOST:PORT value"),
            },
            "--shutdown" => shutdown = true,
            "--store" => store = true,
            "--verify-recovery" => verify = true,
            "--interval-ms" => match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
                Some(value) if value > 0 => {
                    interval = std::time::Duration::from_millis(value);
                    i += 1;
                }
                _ => usage_error("`--interval-ms` requires a positive millisecond count"),
            },
            "--count" => match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
                Some(value) => {
                    count = Some(value);
                    i += 1;
                }
                _ => usage_error("`--count` requires a tick count"),
            },
            "stats" => stats_mode = true,
            "metrics" => metrics_mode = true,
            "watch" => watch_mode = true,
            "trace" => match args
                .get(i + 1)
                .and_then(|v| cqfit_obs::TraceContext::parse_trace_id(v))
            {
                Some(id) => {
                    trace_arg = Some(id);
                    i += 1;
                }
                _ => usage_error("`trace` requires a hex trace id"),
            },
            "slow" => slow_mode = true,
            "--over-us" => match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
                Some(value) => {
                    over_us = Some(value);
                    i += 1;
                }
                _ => usage_error("`--over-us` requires a microsecond count"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if stats_mode {
        run_stats(&addr);
    }
    if metrics_mode {
        run_metrics(&addr);
    }
    if watch_mode {
        run_watch(&addr, interval, count);
    }
    if let Some(trace_id) = trace_arg {
        run_trace(&addr, trace_id);
    }
    if slow_mode {
        run_slow(&addr, over_us);
    }

    let mut client = connect(&addr);

    let r = call(&mut client, "ping", &Request::Ping);
    if !matches!(r, Response::Pong) {
        fail("ping", &r);
    }

    if verify {
        verify_recovery(&mut client);
        if shutdown {
            let r = call(&mut client, "shutdown", &Request::Shutdown);
            if !matches!(r, Response::ShuttingDown) {
                fail("shutdown", &r);
            }
        }
        print_client_stats(&client);
        println!("cqfit-session: recovery ok");
        return;
    }

    let schema = cqfit_data::Schema::new([("R", 2)]).expect("digraph schema");
    let r = call(
        &mut client,
        "create",
        &Request::CreateWorkspace {
            workspace: "qbe".into(),
            schema,
            arity: 0,
        },
    );
    if !r.is_ok() {
        fail("create", &r);
    }

    for (step, text) in [
        ("add_c3", "R(a,b)\nR(b,c)\nR(c,a)"),
        ("add_c5", "R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,a)"),
    ] {
        let r = call(
            &mut client,
            step,
            &Request::AddExample {
                workspace: "qbe".into(),
                polarity: Polarity::Positive,
                example: ExamplePayload::Text(text.into()),
            },
        );
        if !matches!(r, Response::ExampleAdded { .. }) {
            fail(step, &r);
        }
    }
    let r = call(
        &mut client,
        "add_neg_c2",
        &Request::AddExample {
            workspace: "qbe".into(),
            polarity: Polarity::Negative,
            example: ExamplePayload::Text("R(a,b)\nR(b,a)".into()),
        },
    );
    if !matches!(r, Response::ExampleAdded { .. }) {
        fail("add_neg_c2", &r);
    }

    // The minimized most-specific fitting CQ of {C3, C5} vs C2 is the
    // 15-cycle: 15 variables + 15 atoms.
    let r = call(
        &mut client,
        "fit_cq_min",
        &Request::Fit {
            workspace: "qbe".into(),
            class: QueryClass::Cq,
            mode: FitMode::Minimized,
        },
    );
    match &r {
        Response::Fitting { query: Some(q), .. } if q.size() == 30 => {}
        _ => fail("fit_cq_min (expected size 30)", &r),
    }

    let r = call(
        &mut client,
        "exists_ucq",
        &Request::FittingExists {
            workspace: "qbe".into(),
            class: QueryClass::Ucq,
        },
    );
    match &r {
        Response::Exists { exists: true, .. } => {}
        _ => fail("exists_ucq (expected true)", &r),
    }

    let r = call(
        &mut client,
        "fit_ucq_min",
        &Request::Fit {
            workspace: "qbe".into(),
            class: QueryClass::Ucq,
            mode: FitMode::Minimized,
        },
    );
    if !matches!(&r, Response::Fitting { query: Some(_), .. }) {
        fail("fit_ucq_min", &r);
    }

    // Malformed textual example: the error must point at line 2.
    let r = call(
        &mut client,
        "bad_example",
        &Request::AddExample {
            workspace: "qbe".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)\nQ(a,b)".into()),
        },
    );
    match &r {
        Response::Error { line: Some(2), .. } => {}
        _ => fail("bad_example (expected error at line 2)", &r),
    }

    // Re-fit: the workspace is unchanged, the answer must be identical.
    let r = call(
        &mut client,
        "refit_cq_min",
        &Request::Fit {
            workspace: "qbe".into(),
            class: QueryClass::Cq,
            mode: FitMode::Minimized,
        },
    );
    match &r {
        Response::Fitting { query: Some(q), .. } if q.size() == 30 => {}
        _ => fail("refit_cq_min (expected size 30)", &r),
    }

    let r = call(&mut client, "stats", &Request::Stats);
    match &r {
        Response::Stats(stats) if stats.requests > 0 => {}
        _ => fail("stats", &r),
    }

    if store {
        store_ops(&mut client);
    }

    if shutdown {
        let r = call(&mut client, "shutdown", &Request::Shutdown);
        if !matches!(r, Response::ShuttingDown) {
            fail("shutdown", &r);
        }
    }
    print_client_stats(&client);
    println!("cqfit-session: ok");
}
