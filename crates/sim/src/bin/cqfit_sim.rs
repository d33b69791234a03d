//! `cqfit-sim` — deterministic simulation sweep for the durable fitting
//! stack.
//!
//! ```text
//! cqfit-sim [--seeds N] [--base-seed S] [--steps K] [--quick]
//! ```
//!
//! Runs `N` seeds (default 16) through the full exploration (interleaved
//! live run, exhaustive torn-tail cuts, seeded mid-run crashes, one-shot
//! write/sync faults, and network cut sweeps over the simulated wire)
//! and prints coverage.  Any invariant violation
//! prints the failing seed plus a one-line reproduction command and
//! exits non-zero.
//!
//! `CQFIT_SIM_SEED=<seed>` overrides everything and replays exactly that
//! one seed — the reproduction path printed on failure.

use cqfit_sim::{sweep, SimConfig};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut seeds: u64 = 16;
    let mut base_seed: u64 = 1;
    let mut config = SimConfig::default();

    let mut arguments = std::env::args().skip(1);
    while let Some(argument) = arguments.next() {
        match argument.as_str() {
            "--seeds" => seeds = parse(arguments.next(), "--seeds"),
            "--base-seed" => base_seed = parse(arguments.next(), "--base-seed"),
            "--steps" => config.steps = parse(arguments.next(), "--steps"),
            "--quick" => config = SimConfig::smoke(),
            "--help" | "-h" => {
                println!(
                    "usage: cqfit-sim [--seeds N] [--base-seed S] [--steps K] [--quick]\n\
                     env:   CQFIT_SIM_SEED=<seed> replays a single seed"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Ok(value) = std::env::var("CQFIT_SIM_SEED") {
        match value.parse::<u64>() {
            Ok(seed) => {
                base_seed = seed;
                seeds = 1;
            }
            Err(_) => {
                eprintln!("CQFIT_SIM_SEED must be an unsigned integer, got {value:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "cqfit-sim: sweeping {seeds} seed(s) from {base_seed} \
         (steps {}, workspaces {}, crash points {}, fault points {}, net steps {})",
        config.steps, config.workspaces, config.crash_points, config.fault_points, config.net_steps
    );
    let started = Instant::now();
    let outcome = sweep(base_seed, seeds, &config);
    let elapsed = started.elapsed();

    let stats = outcome.stats;
    println!(
        "explored {} executions across {} crash/fault points in {:.2?} ({:.0} executions/s)",
        stats.executions,
        stats.crash_points,
        elapsed,
        stats.executions as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "torn-tail coverage: {} records cut at {} boundaries and {} mid-record bytes",
        stats.records, stats.boundary_cuts, stats.mid_record_cuts
    );
    println!(
        "network coverage: {} sessions; wire cut at {} frame boundaries and {} mid-frame bytes",
        stats.net_executions, stats.net_boundary_cuts, stats.net_mid_frame_cuts
    );
    println!(
        "pipelined coverage: {} group-committed batches cut {} times; \
         {} burst sessions over {} wire cuts (whole-batch replay each)",
        stats.group_batches,
        stats.group_boundary_cuts + stats.group_mid_cuts,
        stats.net_pipelined_executions,
        stats.net_pipelined_cuts
    );
    println!(
        "metric invariants: {} store runs and {} wire sessions cross-checked \
         ({} retries accounted one-for-one to injected cuts); \
         {} same-seed reruns left identical metrics and traces",
        stats.metric_store_checks,
        stats.metric_net_checks,
        stats.metric_retries_accounted,
        stats.determinism_checks
    );
    println!(
        "trace coverage: {} traced sessions, {} spans causality-checked, \
         {} retry links verified; journal cut at {} slot boundaries and {} interior bytes",
        stats.trace_sessions,
        stats.trace_spans_checked,
        stats.trace_retry_links,
        stats.fr_boundary_cuts,
        stats.fr_mid_cuts
    );

    if outcome.failures.is_empty() {
        println!("all {seeds} seed(s) passed");
        ExitCode::SUCCESS
    } else {
        for (seed, message) in &outcome.failures {
            eprintln!("FAIL seed {seed}: {message}");
            eprintln!("reproduce: CQFIT_SIM_SEED={seed} cargo run --release -p cqfit-sim");
        }
        eprintln!("{} of {seeds} seed(s) failed", outcome.failures.len());
        ExitCode::FAILURE
    }
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs an unsigned integer argument"))
}
