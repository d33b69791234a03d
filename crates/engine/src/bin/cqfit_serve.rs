//! `cqfit-serve` — the JSONL-over-TCP fitting server.
//!
//! ```text
//! cqfit-serve [--addr HOST:PORT] [--metrics HOST:PORT]
//!             [--data-dir PATH] [--compact-after N] [--no-fsync]
//!             [--flight-recorder DIR] [--fr-slots N]
//! ```
//!
//! Binds (default `127.0.0.1:7878`), prints `listening on <addr>` to
//! stdout once ready, and serves until a client sends
//! `{"op":"shutdown"}`.
//!
//! With `--data-dir` the engine is **durable**: workspace mutations are
//! written to per-workspace write-ahead logs under the directory before
//! they are acknowledged, and startup replays the logs back into
//! workspaces (a `recovered …` line reports what was restored — also
//! available over the wire as `{"op":"recover"}`).  `--compact-after`
//! sets the per-log record budget before snapshot compaction (default
//! 1024); `--no-fsync` trades the power-loss guarantee for faster appends
//! (a process `kill -9` still loses nothing — see DESIGN.md).
//!
//! With `--flight-recorder DIR` every closed trace span is additionally
//! persisted to a bounded binary ring journal (`trace.fr`) under the
//! directory — the durable flight recorder of PR 10.  On restart the
//! journal's surviving spans are decoded and dumped as per-trace
//! waterfalls before the ring starts a fresh generation.  `--fr-slots N`
//! sets the ring capacity in slots (default 1024); the journal honours
//! the `--no-fsync` discipline of the store.
//!
//! `--metrics HOST:PORT` additionally serves the engine's metrics
//! registry in Prometheus text exposition format: every HTTP GET of the
//! endpoint returns a fresh snapshot (counters, gauges, and latency
//! summaries prefixed `cqfit_`).  The listener runs through the same
//! [`cqfit_env::Net`] seam as the JSONL server and answers any request
//! with the exposition — a scrape endpoint, not a general HTTP server.
//! A `metrics on <addr>` line is printed once ready.

use cqfit_engine::{Engine, EngineConfig, Server};
use cqfit_env::RealEnv;
use cqfit_store::{Store, StoreConfig};
use std::io::Write;
use std::sync::Arc;

fn usage_error(message: &str) -> ! {
    eprintln!("cqfit-serve: {message}");
    eprintln!(
        "usage: cqfit-serve [--addr HOST:PORT] [--metrics HOST:PORT] [--data-dir PATH] [--compact-after N] [--no-fsync] [--flight-recorder DIR] [--fr-slots N]"
    );
    std::process::exit(2);
}

/// Serves Prometheus text exposition on `listener`, one snapshot per
/// connection.  Minimal HTTP/1.0: the request is read (best-effort, one
/// chunk — scrapers send tiny GETs), the response carries
/// `Content-Length` and closes the connection.  Runs on its own thread
/// for the life of the process; errors only end the current scrape.
fn serve_metrics(listener: Box<dyn cqfit_env::NetListener>, engine: Arc<Engine>) {
    loop {
        let mut conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => continue,
        };
        // Drain the request line(s); the reply does not depend on them.
        let mut buf = [0u8; 4096];
        let _ = conn.read(&mut buf, Some(std::time::Duration::from_millis(500)));
        let body = cqfit_obs::render_prometheus(engine.registry());
        let response = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let _ = conn.write_all(response.as_bytes());
        let _ = conn.shutdown();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut metrics_addr: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut compact_after = 1024usize;
    let mut fsync = true;
    let mut flight_dir: Option<String> = None;
    let mut fr_slots = cqfit_obs::FR_DEFAULT_SLOTS;
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
            "--metrics" => match args.get(i + 1) {
                Some(value) => {
                    metrics_addr = Some(value.clone());
                    i += 1;
                }
                None => usage_error("`--metrics` requires a HOST:PORT value"),
            },
            "--data-dir" => match args.get(i + 1) {
                Some(value) => {
                    data_dir = Some(value.clone());
                    i += 1;
                }
                None => usage_error("`--data-dir` requires a directory path"),
            },
            "--compact-after" => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => {
                    compact_after = value;
                    i += 1;
                }
                _ => usage_error("`--compact-after` requires a positive record count"),
            },
            "--no-fsync" => fsync = false,
            "--flight-recorder" => match args.get(i + 1) {
                Some(value) => {
                    flight_dir = Some(value.clone());
                    i += 1;
                }
                None => usage_error("`--flight-recorder` requires a directory path"),
            },
            "--fr-slots" => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => {
                    fr_slots = value;
                    i += 1;
                }
                _ => usage_error("`--fr-slots` requires a positive slot count"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let config = EngineConfig::default();
    // One explicit production environment for the whole process: the
    // store inherits it, and Engine::with_store inherits the store's.
    let env = RealEnv::arc();
    let engine = match data_dir {
        Some(dir) => {
            let store = match Store::open_with(
                StoreConfig {
                    dir: dir.clone().into(),
                    compact_after,
                    fsync,
                },
                env,
            ) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cqfit-serve: cannot open data dir {dir}: {e}");
                    std::process::exit(1);
                }
            };
            match Engine::with_store(config, store) {
                Ok((engine, report)) => {
                    println!(
                        "recovered {} workspaces ({} records replayed, {} torn bytes dropped, {} bytes compacted)",
                        report.workspaces,
                        report.records_replayed,
                        report.torn_bytes_dropped,
                        report.bytes_compacted
                    );
                    Arc::new(engine)
                }
                Err(e) => {
                    eprintln!("cqfit-serve: recovery from {dir} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => Arc::new(Engine::with_env(config, env)),
    };
    // The flight recorder journals every closed span through the engine's
    // own filesystem seam; spans surviving from the previous run are
    // dumped before the ring truncates to a fresh generation.
    if let Some(dir) = flight_dir {
        let path = std::path::PathBuf::from(&dir);
        match cqfit_obs::FlightRecorder::open(engine.env().clone(), &path, fr_slots, fsync) {
            Ok((recorder, recovered)) => {
                println!(
                    "flight recorder on {} ({fr_slots} slots, {} spans recovered)",
                    recorder.path().display(),
                    recovered.len()
                );
                if !recovered.is_empty() {
                    print!("{}", cqfit_obs::render_waterfall(&recovered));
                }
                engine.tracer().attach_flight_recorder(Arc::new(recorder));
            }
            Err(e) => {
                eprintln!("cqfit-serve: cannot open flight recorder in {dir}: {e}");
                std::process::exit(1);
            }
        }
    }
    // The Prometheus endpoint shares the engine (and so its registry and
    // Net seam); its thread dies with the process on shutdown.
    if let Some(maddr) = metrics_addr {
        let listener = match engine.env().net().bind(&maddr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cqfit-serve: cannot bind metrics endpoint {maddr}: {e}");
                std::process::exit(1);
            }
        };
        let bound = listener.local_addr().unwrap_or_else(|_| maddr.clone());
        println!("metrics on {bound}");
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || serve_metrics(listener, engine));
    }
    let server = match Server::bind(&addr, engine) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cqfit-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let bound = server.local_addr().unwrap_or_else(|_| addr.clone());
    println!("listening on {bound}");
    std::io::stdout().flush().expect("flush stdout");
    if let Err(e) = server.run() {
        eprintln!("cqfit-serve: {e}");
        std::process::exit(1);
    }
    eprintln!("cqfit-serve: shut down");
}
