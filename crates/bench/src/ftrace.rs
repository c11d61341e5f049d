//! `halox-bench ftrace` — functional-plane tracing of a real engine run.
//!
//! Attaches a `halox_trace::Recorder` to the multi-threaded engine, runs a
//! short trajectory on each symmetric-heap transport (all-NVLink thread-MPI
//! and the fused NVSHMEM path over a mixed NVLink/IB topology), then:
//!
//! * exports the fused run as a Chrome trace (`results/ftrace.json`, open in
//!   `chrome://tracing` or Perfetto) — spans for pack/unpack, flow arrows for
//!   every put-with-signal edge, proxy queue-depth counters;
//! * prints per-step signal counters (sets / proxied sets / waits / wait
//!   latency);
//! * replays both event streams through the signal-protocol checker and
//!   reports any release/acquire or region-reuse violations; any violation
//!   exits 1 (after the export, so the trace is there to read).
//!
//! This complements `halox-bench trace`, which exports the *timing-plane*
//! schedule simulation; `ftrace` shows what the functional threads actually
//! did.

use halox_dd::DdGrid;
use halox_engine::{Engine, EngineConfig, ExchangeBackend};
use halox_trace::{check, chrome_trace, max_proxy_depth, step_summaries, Recorder, Trace};
use std::path::Path;
use std::sync::Arc;

/// Run `steps` engine steps with a recorder attached; returns the drained
/// functional trace.
pub fn record_run(backend: ExchangeBackend, gpus_per_node: Option<usize>, steps: usize) -> Trace {
    let sys = crate::relaxed_system(6_000, 47, 250.0);
    let rec = Arc::new(Recorder::new());
    let mut cfg = EngineConfig::new(backend);
    cfg.nstlist = 10;
    cfg.topology_gpus_per_node = gpus_per_node;
    cfg.trace = Some(Arc::clone(&rec));
    let mut engine = Engine::new(sys, DdGrid::new([4, 1, 1]), cfg);
    engine.run(steps);
    rec.drain()
}

/// Print the per-step counters and the checker's report; true when clean.
fn print_summary(label: &str, trace: &Trace) -> bool {
    println!("\n== ftrace: {label} ==");
    println!(
        "{} events recorded ({} dropped)",
        trace.events.len(),
        trace.dropped
    );
    println!(
        "{:>6} {:>12} {:>14} {:>12} {:>12} {:>13}",
        "step", "signal_sets", "proxied_sets", "signal_waits", "max_wait_us", "total_wait_us"
    );
    for s in step_summaries(trace) {
        println!(
            "{:>6} {:>12} {:>14} {:>12} {:>12} {:>13}",
            s.step, s.signal_sets, s.proxied_sets, s.signal_waits, s.max_wait_us, s.total_wait_us
        );
    }
    let depth = max_proxy_depth(trace);
    if depth > 0 {
        println!("max proxy queue depth: {depth}");
    }
    let report = check(trace);
    println!("protocol checker: {report}");
    report.is_clean()
}

/// The `ftrace` subcommand: record, summarize, check, export; exit 1 when
/// either trace breaks the signal protocol.
pub fn run(results: &Path) {
    // Fused exchange over a mixed topology: 2 GPUs per node, so half the
    // edges are NVLink gets and half go through the IB proxy.
    let fused = record_run(ExchangeBackend::NvshmemFused, Some(2), 20);
    let fused_clean = print_summary("NVSHMEM fused, islands(4,2), 20 steps", &fused);

    // Thread-MPI on one NVLink island: direct copies, no proxy traffic.
    let tmpi = record_run(ExchangeBackend::ThreadMpi, None, 20);
    let tmpi_clean = print_summary("thread-MPI, all-NVLink, 20 steps", &tmpi);

    println!();
    crate::report::write_json(&results.join("ftrace.json"), &chrome_trace(&fused))
        .expect("write ftrace.json");
    if !(fused_clean && tmpi_clean) {
        eprintln!("signal-protocol violations: see the checker reports above");
        std::process::exit(1);
    }
}
