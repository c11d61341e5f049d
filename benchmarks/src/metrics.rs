//! The metric contract: every name the benchmark reports, with its unit,
//! direction and — for end-to-end metrics — regression bound. `BENCHMARK.json`
//! is generated from these tables (`halox-perf manifest`) and every run
//! checks that it emitted exactly these names, so the manifest and the
//! program cannot drift apart.

/// One workload: name and the reason it exists (one line).
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "md_large",
        why: "9000 atoms on 2 PEs: pair-list and cluster kernel do >90% of the step, exchange <2%; a kernel gain shows here, an exchange change must not",
    },
    WorkloadDef {
        name: "md_small",
        why: "1500 atoms on 2 PEs with thermostat: fewest atoms/PE the DD allows, so exchange, collectives and per-segment set-up take their largest share",
    },
    WorkloadDef {
        name: "halo_only",
        why: "6000-atom partition, exchange rounds with no MD compute: halox-core exec and halox-shmem signals do all the work, halox-md none",
    },
    WorkloadDef {
        name: "serve_batch",
        why: "batches of short 1-4 slice jobs through JobService: lease/reset, resume/suspend and partition rebuild dominate instead of steady stepping",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// End-to-end metrics. Every workload reports every one; `op` is the
/// workload's unit of work (MD step, exchange round, High-priority job) on
/// its primary path — see benchmarks/README.md for the per-workload
/// definition, and `harness::trimmed_mean` for the statistic. The
/// bounds are the contract's maximum: the driver's host has shown a
/// ten-seed set of one metric spread 8 % and then 25 % on the same code.
/// The two-sided MPI baseline is not here: it is a per-layer row
/// (`engine.mpi_step_ms_p50`, `core.mpi_*_us`) since its exchange-only
/// rounds switch between a 13 us and a 50 us regime that no statistic of a
/// 20 s run holds still.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "op_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Counts that must repeat to the digit at the same seed.
    pub exact: bool,
}

const fn t(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn up(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: "higher",
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: "lower",
        exact: true,
    }
}

const fn exact_up(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: "higher",
        exact: true,
    }
}

/// Per-layer metrics of the traced layer-probe run, grouped by crate.
pub const PER_LAYER: &[LayerDef] = &[
    // halox-shmem
    t("shmem.put_signal_rtt_us.direct.n16", "us"),
    t("shmem.put_signal_rtt_us.direct.n1k", "us"),
    t("shmem.put_signal_rtt_us.direct.n16k", "us"),
    t("shmem.put_signal_rtt_us.proxy.n16", "us"),
    t("shmem.put_signal_rtt_us.proxy.n1k", "us"),
    t("shmem.put_signal_rtt_us.proxy.n16k", "us"),
    up("shmem.put_bw_mb_s.direct.n16k", "MB/s"),
    up("shmem.put_bw_mb_s.proxy.n16k", "MB/s"),
    t("shmem.signal_wait_hit_ns", "ns"),
    t("shmem.barrier_us.pe2", "us"),
    t("shmem.allreduce_sum_us.pe2", "us"),
    t("shmem.twosided_sendrecv_us.n1k", "us"),
    t("shmem.symvec3_alloc_us.n16k", "us"),
    t("shmem.world_new_us", "us"),
    t("shmem.world_run_empty_us.threads", "us"),
    t("shmem.world_run_empty_us.procs", "us"),
    t("shmem.pool_lease_reuse_us", "us"),
    up("shmem.pool_reuse_frac", "ratio"),
    t("shmem.procs_rss_growth_kb_per_world", "kB"),
    // halox-dd
    t("dd.partition_build_ms", "ms"),
    t("dd.choose_grid_us", "us"),
    exact("dd.home_atoms_per_rank", "count"),
    exact("dd.halo_atoms_per_rank", "count"),
    exact("dd.pulses", "count"),
    // halox-core
    t("core.build_contexts_us", "us"),
    t("core.buffers_alloc_us", "us"),
    t("core.pack_x_us", "us"),
    t("core.wait_x_us", "us"),
    t("core.ack_x_us", "us"),
    t("core.unpack_f_us", "us"),
    t("core.mpi_coord_us", "us"),
    t("core.mpi_force_us", "us"),
    exact("core.msgs_per_round", "count"),
    exact("core.bytes_per_round", "B"),
    exact("core.signals_per_round", "count"),
    t("core.round_us.ib", "us"),
    t("core.round_us.grid222", "us"),
    exact("core.msgs_per_round.grid222", "count"),
    exact("core.bytes_per_round.grid222", "B"),
    t("core.sched_simulate_ms", "ms"),
    t("core.sched_sweep_ms", "ms"),
    exact_up("core.model_ns_day.nvshmem_45k_4gpu", "ns/day"),
    exact_up("core.model_ns_day.mpi_45k_4gpu", "ns/day"),
    // halox-md
    t("md.system_build_s", "s"),
    t("md.minimize_s", "s"),
    t("md.pairlist_build_ms", "ms"),
    t("md.cluster_list_build_ms", "ms"),
    up("md.list_build_matoms_per_s", "Matoms/s"),
    t("md.nb_cluster_ms", "ms"),
    t("md.nb_local_ms", "ms"),
    t("md.nb_halo_ms", "ms"),
    up("md.nb_cluster_mpairs_per_s", "Mpairs/s"),
    up("md.nb_scalar_mpairs_per_s", "Mpairs/s"),
    exact("md.pairs_per_atom", "count"),
    exact("md.nb_bytes_per_pair", "B"),
    t("md.bonded_us", "us"),
    t("md.integrate_us", "us"),
    // halox-engine
    t("engine.fused_step_ms_p50", "ms"),
    t("engine.mpi_step_ms_p50", "ms"),
    t("engine.serial_step_ms_p50", "ms"),
    t("engine.procs_step_ms_p50", "ms"),
    t("engine.segment_ms_p50", "ms"),
    t("engine.segment_ms_p90", "ms"),
    t("engine.step_ms_p90", "ms"),
    t("engine.first_segment_ms", "ms"),
    t("engine.phase_ms_per_step.nb_local", "ms"),
    t("engine.phase_ms_per_step.nb_halo", "ms"),
    t("engine.phase_ms_per_step.pairlist", "ms"),
    t("engine.phase_ms_per_step.pack", "ms"),
    t("engine.phase_ms_per_step.pack_overlap", "ms"),
    t("engine.untimed_frac", "ratio"),
    t("engine.unattributed_frac", "ratio"),
    t("engine.single_rank_step_ms", "ms"),
    up("engine.parallel_eff_pe2", "ratio"),
    up("engine.overlap_gain_frac", "ratio"),
    exact("engine.retries", "count"),
    exact("engine.degraded_steps", "count"),
    exact("engine.critical_load", "count"),
    exact("engine.load_ratio", "ratio"),
    exact("engine.dlb_critical_load_ratio", "ratio"),
    t("engine.suspend_us", "us"),
    t("engine.resume_us", "us"),
    exact("engine.ckpt_bytes", "B"),
    t("engine.ckpt_write_ms", "ms"),
    t("engine.ckpt_read_ms", "ms"),
    // halox-serve
    t("serve.submit_us", "us"),
    t("serve.predict_us", "us"),
    exact("serve.slices_per_job", "count"),
    t("serve.slice_overhead_frac", "ratio"),
    t("serve.queue_wait_ms_p50", "ms"),
    t("serve.queue_wait_ms_p90", "ms"),
    t("serve.lo_job_latency_ms_p50", "ms"),
    exact("serve.worlds_built", "count"),
    exact("serve.reschedules", "count"),
    // halox-gpusim, halox-trace, the harness itself
    t("gpusim.sweep_ms", "ms"),
    up("gpusim.rank_steps_per_s", "1/s"),
    t("trace.recorder_overhead_frac", "ratio"),
    t("trace.events_per_step", "count"),
    t("bench.trace_overhead_frac", "ratio"),
    t("bench.timer_ns", "ns"),
    t("bench.host_steal_frac", "ratio"),
    t("bench.peak_rss_mb", "MB"),
];

pub fn is_exact(name: &str) -> bool {
    PER_LAYER.iter().any(|d| d.name == name && d.exact)
}

pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|d| d.name == name).map(|d| d.bound)
}

pub fn better_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|d| (d.name, d.better))
        .chain(PER_LAYER.iter().map(|d| (d.name, d.better)))
        .find(|(n, _)| *n == name)
        .map_or("lower", |(_, b)| b)
}

/// Seconds one driver run measures for; also the `all` default.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmarks/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmarks\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
