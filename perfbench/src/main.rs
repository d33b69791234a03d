//! `perfbench`: one benchmark of the served cqfit stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload qbe_fit|durable_ingest|cold_recovery --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root.  It prints the environment fingerprint,
//! the input digest and every metric by name and unit, then, as the last
//! line, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics of the untraced run;
//! `--trace 1` runs the same untraced run, then replays its inputs through
//! the layers in alternating passes with spans off and on, prints the
//! per-layer self-time table and reports the per-layer metrics.  Data
//! directories live in memory, as on tmpfs.  See `perfbench/README.md` for
//! workloads, metrics and pitfalls.

mod env;
mod inputs;
mod replay;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sys::{quantile, ratio};

/// Replay pass pairs (spans off, spans on) of a traced run.
const REPLAY_PAIRS: usize = 5;
const WORKLOADS: [&str; 3] = ["qbe_fit", "durable_ingest", "cold_recovery"];
const USAGE: &str =
    "usage: perfbench --workload qbe_fit|durable_ingest|cold_recovery --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn fingerprint(nproc: usize, pinned: Option<usize>) {
    let pinned = pinned.map_or_else(|| "none".to_string(), |cpu| cpu.to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    // The data directories are in memory (see `env.rs`), never on disk.
    println!(
        "fingerprint: nproc={nproc} pinned_cpu={pinned} rustc=\"{rustc}\" commit={commit} data_fs=memory sync=as-tmpfs"
    );
}

fn end_to_end(run: &workloads::Run) -> Vec<Metric> {
    let w = &run.window;
    let mut setup = run.setup_s.clone();
    vec![
        metric("ops_per_s", w.rate(), "ops/s"),
        metric("read_p50_us", w.read_quantile(0.50), "us"),
        metric("read_p90_us", w.read_quantile(0.90), "us"),
        metric("write_p50_us", w.write_quantile(0.50), "us"),
        metric("write_p95_us", w.write_quantile(0.95), "us"),
        metric("recovery_p50_ms", w.restart_quantile(0.50), "ms"),
        metric("recovery_p90_ms", w.restart_quantile(0.90), "ms"),
        metric("setup_s", quantile(&mut setup, 0.50), "s"),
        metric(
            "peak_rss_mb",
            run.peak_rss.unwrap_or_else(sys::peak_rss_bytes) as f64 / 1e6,
            "MB",
        ),
    ]
}

/// Per-layer metrics from the untraced run and the replay passes (spans
/// alternately off and on; the table is the last pass's).
fn per_layer(run: &workloads::Run, passes: &[replay::Pass]) -> Vec<Metric> {
    let b = &passes[passes.len() - 1];
    let mut overhead: Vec<f64> = passes
        .chunks(2)
        .map(|pair| ratio(pair[1].wall_s - pair[0].wall_s, pair[0].wall_s) * 100.0)
        .collect();
    let row = |name: &str| b.table.get(name).copied().unwrap_or_default();
    let self_us = |name: &str| row(name).self_ns as f64 / 1e3;
    let per = |name: &str| ratio(self_us(name), row(name).count as f64);
    let c = &b.counts;
    let r = &run.reg;
    let q = run.questions as f64;
    let proc_us: f64 = b
        .table
        .iter()
        .filter(|(n, _)| n.starts_with("proc."))
        .map(|(_, r)| r.self_ns as f64 / 1e3)
        .sum();
    let (u0, u1) = run.usage;
    let cpu = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
    let misses: Vec<f64> = passes.iter().map(|p| p.counts.hom_misses as f64).collect();
    let (lo, hi) = misses
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &m| (lo.min(m), hi.max(m)));
    let server_us = r.server_request_ns.mean() / 1e3;
    let wire_us = run
        .wire
        .as_ref()
        .map_or(0.0, |w| ratio(w.total_us, w.round_trips as f64));
    vec![
        metric(
            "hom.check_us",
            ratio(self_us("hom.check"), c.questions as f64),
            "us",
        ),
        metric(
            "hom.checks_per_read",
            ratio(r.hom_misses as f64, q),
            "count",
        ),
        metric(
            "hom.checks_per_read_spread",
            ratio(hi - lo, misses.iter().sum::<f64>() / misses.len() as f64),
            "ratio",
        ),
        metric(
            "hom.cache_hit_ratio",
            ratio(r.hom_hits as f64, (r.hom_hits + r.hom_misses) as f64),
            "ratio",
        ),
        metric(
            "hom.cache_lookups_per_read",
            ratio((r.hom_hits + r.hom_misses) as f64, q),
            "count",
        ),
        metric(
            "hom.core_cache_hit_ratio",
            ratio(r.core_hits as f64, (r.core_hits + r.core_misses) as f64),
            "ratio",
        ),
        metric(
            "hom.core_lookups_per_read",
            ratio((r.core_hits + r.core_misses) as f64, q),
            "count",
        ),
        metric("hom.core_us", per("hom.core"), "us"),
        metric("hom.product_us", per("hom.product"), "us"),
        metric(
            "hom.product_values",
            ratio(c.product_values as f64, c.product_builds as f64),
            "count",
        ),
        metric("cqfit.fit_us", r.fit_ns.mean() / 1e3, "us"),
        metric(
            "cqfit.memo_hit_ratio",
            ratio((q - r.fit_ns.count as f64).max(0.0), q),
            "ratio",
        ),
        metric(
            "cqfit.rebuild_us",
            ratio(
                row("cqfit.rebuild").total_ns as f64 / 1e3,
                row("cqfit.rebuild").count as f64,
            ),
            "us",
        ),
        metric(
            "engine.decode_us",
            ratio(self_us("engine.decode"), c.ops as f64),
            "us",
        ),
        metric(
            "engine.encode_us",
            ratio(self_us("engine.encode"), c.ops as f64),
            "us",
        ),
        metric("engine.server_us", server_us, "us"),
        metric("engine.wire_us", wire_us, "us"),
        metric(
            "engine.batch_depth_mean",
            r.server_batch_depth.mean(),
            "count",
        ),
        metric(
            "engine.retries",
            (run.client_retries + r.memo_replays) as f64,
            "count",
        ),
        metric(
            "engine.restore_us",
            ratio(self_us("engine.restore"), c.restarts as f64),
            "us",
        ),
        metric(
            "store.append_p50_us",
            r.append_ns.quantile(0.50) / 1e3,
            "us",
        ),
        metric(
            "store.append_p99_us",
            r.append_ns.quantile(0.99) / 1e3,
            "us",
        ),
        metric(
            "store.commit_wait_p50_us",
            r.commit_wait_ns.quantile(0.50) / 1e3,
            "us",
        ),
        metric("store.fsync_p50_us", r.fsync_ns.quantile(0.50) / 1e3, "us"),
        metric(
            "store.fsyncs_per_write",
            ratio(r.fsync_ns.count as f64, r.appends_acked as f64),
            "count",
        ),
        metric("store.batch_records_mean", r.batch_records.mean(), "count"),
        metric("store.compactions", c.compactions as f64, "count"),
        metric(
            "store.write_amp",
            ratio(c.fs_bytes_written as f64, c.record_bytes as f64),
            "ratio",
        ),
        metric(
            "store.replay_us",
            ratio(self_us("store.replay"), c.restarts as f64),
            "us",
        ),
        metric(
            "store.replay_mb_per_s",
            ratio(c.replay_bytes as f64 / 1e6, b.replay_ns as f64 / 1e9),
            "MB/s",
        ),
        metric("proc.fs_us", ratio(proc_us, c.ops as f64), "us"),
        metric("proc.cpu_util", ratio(cpu, run.timed_s), "ratio"),
        metric("proc.sys_share", ratio(u1.sys_s - u0.sys_s, cpu), "ratio"),
        metric(
            "proc.ctx_switches_per_op",
            ratio(
                (u1.ctx_switches - u0.ctx_switches) as f64,
                run.window.total_ops() as f64,
            ),
            "count",
        ),
        metric(
            "bench.trace_overhead_pct",
            quantile(&mut overhead, 0.5),
            "%",
        ),
        metric(
            "bench.unattributed_share",
            ratio(row("op").self_ns as f64, row("op").total_ns as f64),
            "ratio",
        ),
    ]
}

fn print_table(pass: &replay::Pass) {
    let root_ns = pass.table.get("op").map_or(0, |r| r.total_ns).max(1) as f64;
    println!(
        "per-layer self time ({} ops, {} restarts):",
        pass.counts.ops, pass.counts.restarts
    );
    println!(
        "  {:<26} {:>8} {:>11} {:>11} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    let mut layers: std::collections::BTreeMap<&str, u64> = Default::default();
    for (name, row) in &pass.table {
        let layer = if *name == "op" {
            "unattributed"
        } else {
            name.split('.').next().unwrap_or(name)
        };
        *layers.entry(layer).or_default() += row.self_ns;
        println!(
            "  {:<26} {:>8} {:>11.3} {:>11.3} {:>6.2}%",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.self_ns as f64 / root_ns * 100.0
        );
    }
    for (layer, ns) in layers {
        println!(
            "  layer {:<20} self_ms={:.3} share={:.2}%",
            layer,
            ns as f64 / 1e6,
            ns as f64 / root_ns * 100.0
        );
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    sys::single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The machine's CPUs, counted before the process pins itself to one.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = sys::pin_to_one_cpu();
    fingerprint(nproc, pinned);
    let root = PathBuf::from("data");
    let env: std::sync::Arc<dyn cqfit_env::Env> = env::BenchEnv::new();
    let run_root = root.join("run");
    let run = match args.workload.as_str() {
        "qbe_fit" => workloads::qbe_fit(&run_root, &env, args.seed, args.seconds, args.trace),
        "durable_ingest" => {
            workloads::durable_ingest(&run_root, &env, args.seed, args.seconds, args.trace)
        }
        _ => workloads::cold_recovery(&run_root, &env, args.seed, args.seconds),
    };
    let (reads, writes, restarts) = run.window.counts();
    println!(
        "workload={} seed={} input_digest={:016x} timed_s={:.3} cpu_s={:.3} ops={} reads={} writes={} restarts={}",
        args.workload,
        args.seed,
        run.input_digest,
        run.timed_s,
        (run.usage.1.user_s - run.usage.0.user_s) + (run.usage.1.sys_s - run.usage.0.sys_s),
        run.window.total_ops(),
        reads,
        writes,
        restarts
    );
    for line in run.window.slice_lines() {
        println!("{line}");
    }
    let mut problems = run.problems.clone();
    if run.attempted == 0 {
        problems.push("no timed op was attempted".into());
    }
    if run.client_retries + run.reg.memo_replays != 0 {
        problems.push(format!(
            "engine.retries must be 0: {} client retries, {} memo replays",
            run.client_retries, run.reg.memo_replays
        ));
    }
    let metrics = if args.trace {
        if let Some(w) = &run.wire {
            println!(
                "wire: {} round trips measured, {} split over several server windows",
                w.round_trips, w.split
            );
        }
        // The reference pass goes through the engine itself.
        let (reference, found) = replay::replay(
            replay::Route::Engine,
            &args.workload,
            &root.join("replay-engine"),
            &env,
            args.seed,
            &run,
            false,
        );
        problems.extend(found);
        // Passes alternate spans off and on, so drift hits both alike.
        let mut passes = Vec::new();
        for i in 0..2 * REPLAY_PAIRS {
            let recording = i % 2 == 1;
            let dir = root.join(format!("replay-{i}"));
            let (pass, found) = replay::replay(
                replay::Route::Layers,
                &args.workload,
                &dir,
                &env,
                args.seed,
                &run,
                recording,
            );
            problems.extend(found);
            passes.push(pass);
        }
        let exact = passes[0].counts.exact();
        if passes.iter().any(|p| p.counts.exact() != exact) {
            problems.push("exact counts differ between replays".into());
        }
        println!("exact counts: {exact:?}");
        println!(
            "engine pass: {:.3} s (layer passes {:.3} s with spans off)",
            reference.wall_s, passes[0].wall_s
        );
        problems.extend(replay::guard(&passes[0].counts, &reference.counts));
        print_table(&passes[passes.len() - 1]);
        per_layer(&run, &passes)
    } else {
        end_to_end(&run)
    };
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        println!("problem: {p}");
    }
    println!(
        "{}",
        json(
            problems.is_empty(),
            run.attempted.max(1),
            run.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
