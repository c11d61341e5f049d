//! Layer probes of the traced run: each layer measured from outside, by
//! timing calls into its public functions on the workload's own inputs.

pub mod core;
pub mod engine;
pub mod md;
pub mod procs;
pub mod serve;
pub mod shmem;

use crate::harness::{cpu_jiffies, Outcome};
use std::time::Instant;

/// Cost of one `Instant::now()` pair — the floor under every span.
pub fn timer_ns() -> f64 {
    let n = 200_000u32;
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(Instant::now());
    }
    t0.elapsed().as_secs_f64() / f64::from(n) * 1e9
}

/// Share of all CPU time since `start` (a [`cpu_jiffies`] reading) that the
/// hypervisor gave to other tenants: the noise explanation when two sets
/// of runs disagree.
pub fn steal_frac(start: (f64, f64)) -> f64 {
    let (steal, total) = cpu_jiffies();
    let dt = total - start.1;
    if dt > 0.0 {
        (steal - start.0) / dt
    } else {
        0.0
    }
}

/// Attribute the primary step to the layer probes: each probe's per-call
/// cost times its calls per step. What is left over is
/// `engine.unattributed_frac` — the engine's interior is not re-implemented,
/// so the remainder is a finding, not an error.
pub fn attribute(
    out: &mut Outcome,
    step_ms: f64,
    nstlist: usize,
    thermostat: bool,
) -> Vec<(&'static str, f64)> {
    let g = |name: &str| {
        let v = out.get(name);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    };
    let per_segment = 1.0 / nstlist as f64;
    let us = 1e-3;
    let rows: Vec<(&'static str, f64)> = vec![
        ("md.nb_local", g("md.nb_local_ms")),
        ("md.nb_halo", g("md.nb_halo_ms")),
        (
            "md.cluster_list_build (per segment)",
            g("md.cluster_list_build_ms") * per_segment,
        ),
        ("md.bonded", g("md.bonded_us") * us),
        ("md.integrate", g("md.integrate_us") * us),
        ("core.pack_x", g("core.pack_x_us") * us),
        ("core.wait_x", g("core.wait_x_us") * us),
        ("core.ack_x", g("core.ack_x_us") * us),
        ("core.unpack_f", g("core.unpack_f_us") * us),
        (
            "shmem.allreduce (thermostat)",
            if thermostat {
                g("shmem.allreduce_sum_us.pe2") * us
            } else {
                0.0
            },
        ),
        (
            "dd.partition (per segment)",
            g("dd.partition_build_ms") * per_segment,
        ),
        (
            "core.contexts (per segment)",
            g("core.build_contexts_us") * us * per_segment,
        ),
        (
            "shmem.world_new (per segment)",
            g("shmem.world_new_us") * us * per_segment,
        ),
        (
            "shmem.world_run launch (per segment)",
            g("shmem.world_run_empty_us.threads") * us * per_segment,
        ),
    ];
    let attributed: f64 = rows.iter().map(|(_, ms)| ms).sum();
    out.set_value("engine.unattributed_frac", 1.0 - attributed / step_ms);
    rows
}
