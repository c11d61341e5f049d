//! Procs-backend probes, in a child process of their own.
//!
//! `enable_shared_heap()` is sticky and process-global, so nothing that
//! touches `WorldBackend::Procs` may run in the process that measures the
//! threads backend. The parent hands the workload's system over as a
//! `Wire` file and reads `key=value` lines back.

use crate::harness::{median, out_dir, rss_kb, time_reps, Outcome};
use crate::inputs::{engine_config, state_hash, timed_run, GRID_2PE};
use crate::span::Spans;
use crate::workloads::ProbeInputs;
use halox_engine::{ExchangeBackend, WorldBackend};
use halox_md::System;
use halox_shmem::{ShmemWorld, Topology, Wire};
use std::process::Command;

const WORLDS: usize = 50;

/// Child entry point: `procs-probe <system file> <nstlist> <thermostat K or 0> <steps>`.
pub fn child_main(args: &[String]) -> ! {
    let [file, nstlist, thermostat, steps] = args else {
        eprintln!("usage: halox-perf procs-probe <system.wire> <nstlist> <thermostat_k> <steps>");
        std::process::exit(2);
    };
    let bytes = std::fs::read(file).expect("read system file");
    let system = System::from_bytes(&bytes).expect("decode system");
    let nstlist: usize = nstlist.parse().expect("nstlist");
    let thermostat: f64 = thermostat.parse().expect("thermostat");
    let steps: usize = steps.parse().expect("steps");

    let new_world =
        || ShmemWorld::new_with_backend(WorldBackend::Procs, Topology::all_nvlink(2), 4);
    let w = new_world();
    w.run(|_| ());
    let runs = time_reps(30, || w.run(|_| ()));
    println!("shmem.world_run_empty_us.procs={}", median(&runs) * 1e6);
    drop(w);

    // Build, run once, drop: resident growth per world is the arena the
    // process-global symmetric heap never gives back.
    let before = rss_kb();
    for _ in 0..WORLDS {
        new_world().run(|_| ());
    }
    println!(
        "shmem.procs_rss_growth_kb_per_world={}",
        (rss_kb() - before) / WORLDS as f64
    );

    let mut cfg = engine_config(
        ExchangeBackend::NvshmemFused,
        nstlist,
        (thermostat > 0.0).then_some(thermostat),
    );
    cfg.world_backend = WorldBackend::Procs;
    let mut spans = Spans::new(false);
    let run =
        timed_run(&system, GRID_2PE, &cfg, steps, None, &mut spans).expect("procs engine run");
    println!("engine.procs_step_ms_p50={}", median(&run.warm_step_ms()));
    println!("failed_steps={}", run.failed_steps());
    println!("hash={}", state_hash(&run.system, &run.stats.energies));
    std::process::exit(0);
}

/// Parent side: spawn the child, wait for it, fold its lines into `out`.
/// `expect_hash` is the threads-backend state the procs run must match
/// bitwise.
pub fn run(
    inputs: &ProbeInputs,
    steps: usize,
    expect_hash: u64,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    spans.scope("probe.procs", |_| {
        let file = out_dir().join(format!("system-{}.wire", std::process::id()));
        std::fs::write(&file, inputs.system.to_bytes()).expect("write system file");
        let thermostat = inputs.config.thermostat.map_or(0.0, |t| t.t_ref);
        let exe = std::env::current_exe().expect("own executable path");
        let output = Command::new(exe)
            .arg("procs-probe")
            .arg(&file)
            .arg(inputs.config.nstlist.to_string())
            .arg(thermostat.to_string())
            .arg(steps.to_string())
            .output();
        let _ = std::fs::remove_file(&file);
        out.attempted += steps as u64;
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                out.failed += steps as u64;
                let err = String::from_utf8_lossy(&o.stderr)
                    .lines()
                    .last()
                    .unwrap_or("")
                    .to_string();
                out.check(false, || {
                    format!("procs probe child exited {}: {err}", o.status)
                });
                return;
            }
            Err(e) => {
                out.failed += steps as u64;
                out.check(false, || format!("procs probe child did not start: {e}"));
                return;
            }
        };
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key {
                "hash" => out.check(value.parse() == Ok(expect_hash), || {
                    "procs backend is not bitwise the threads backend".to_string()
                }),
                "failed_steps" => out.failed += value.parse::<u64>().unwrap_or(steps as u64),
                _ => {
                    let name = crate::metrics::PER_LAYER
                        .iter()
                        .find(|d| d.name == key)
                        .map(|d| d.name);
                    if let (Some(name), Ok(v)) = (name, value.parse::<f64>()) {
                        out.set_value(name, v);
                    }
                }
            }
        }
    });
}
