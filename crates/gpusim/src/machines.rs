//! Machine models: the clusters of the paper's evaluation, reduced to the
//! published topology/latency/bandwidth figures plus kernel-cost parameters
//! calibrated from the paper's own device-side timing numbers (§3, §6.3).

use serde::{Deserialize, Serialize};

/// Hardware + software cost model of one cluster configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineModel {
    pub name: String,
    /// GPUs used per node (paper uses 4 of 8 on Eos multi-node runs).
    pub gpus_per_node: usize,
    /// Whether NVLink spans nodes (GB200 NVL72 MNNVL).
    pub multi_node_nvlink: bool,

    // --- Interconnect ---
    /// Effective NVLink per-GPU bandwidth, bytes/ns (== GB/s / 1e0).
    pub nvlink_gbps: f64,
    /// NVLink one-way latency, ns.
    pub nvlink_latency_ns: u64,
    /// Effective per-rank InfiniBand bandwidth, bytes/ns.
    pub ib_gbps: f64,
    /// IB one-way latency incl. NIC, ns (proxy cost added separately).
    pub ib_latency_ns: u64,

    // --- Host-side overheads (paper §3) ---
    /// Kernel launch API call incl. associated event management, ns
    /// ("2-10 us" launches + "<1 us" event calls).
    pub kernel_launch_ns: u64,
    /// Event record/wait API call, ns ("<1 us").
    pub event_api_ns: u64,
    /// CPU-GPU synchronization (stream/event sync entry+exit), ns.
    pub cpu_gpu_sync_ns: u64,
    /// CPU-side cost of posting an MPI operation, ns.
    pub mpi_overhead_ns: u64,
    /// Remaining per-step CPU work (event management, clears, misc kernel
    /// launches) not modelled individually, ns. Drives the CPU-bound regime
    /// the paper describes for small systems (SS3: >50% of wall-time).
    pub misc_cpu_ns: u64,
    /// NVSHMEM proxy handling per message, ns (IB path).
    pub proxy_overhead_ns: u64,
    /// Multiplier on proxy service time (§5.5 pinning ablation; 1.0 = free
    /// core, large values = contended core).
    pub proxy_contention: f64,

    // --- Kernel cost model (calibrated on Fig 6: H100) ---
    /// Fixed cost of a non-bonded kernel (scheduling, tail), ns.
    pub kernel_fixed_ns: u64,
    /// Fixed cost of a pack/unpack kernel, ns.
    pub pack_kernel_fixed_ns: u64,
    /// Local non-bonded: ns per local atom.
    pub nb_ns_per_atom: f64,
    /// Non-local non-bonded kernel cost: piecewise-linear in halo atoms,
    /// calibrated on the paper's Fig 6 non-local spans. The S-shape (flat at
    /// small halos, steep once the zone pair lists saturate the SMs) does
    /// not fit a power law; points are `(halo_atoms, ns)`, linearly
    /// interpolated and extrapolated with the last segment's slope.
    pub nb_nonlocal_table: Vec<(f64, f64)>,
    /// Pack/unpack kernels: ns per packed atom.
    pub pack_ns_per_atom: f64,
    /// Per-step "other tasks" (integration, reduction, clears): fixed ns
    /// (paper: 30-40 us regardless of DD) plus per-atom term.
    pub other_fixed_ns: u64,
    pub other_ns_per_atom: f64,
    /// Rolling prune kernel: ns per local atom (runs on its own stream).
    pub prune_ns_per_atom: f64,
    /// Fixed cost of one pulse's processing inside a fused kernel (block
    /// scheduling, signal-poll granularity), ns.
    pub pulse_fixed_ns: u64,
    /// Cost of launching a captured CUDA graph for a whole step (paper
    /// SS5.3: NVSHMEM communication remains graph-capturable), ns.
    pub graph_launch_ns: u64,
    /// Fraction of co-resident compute slowed by NVSHMEM SM sharing, per
    /// communication dimension (paper §6.2-6.3: small, grows with pulses).
    pub sm_interference_per_dim: f64,
}

impl MachineModel {
    /// NVIDIA Eos DGX-H100 node (intra-node runs, Fig 3/6): NVLink 4 +
    /// NVSwitch, 8 H100 per node.
    pub fn dgx_h100() -> Self {
        MachineModel {
            name: "DGX-H100".into(),
            gpus_per_node: 8,
            multi_node_nvlink: false,
            nvlink_gbps: 450.0,
            nvlink_latency_ns: 400,
            ib_gbps: 50.0,
            ib_latency_ns: 8_000,
            kernel_launch_ns: 2_500,
            event_api_ns: 500,
            cpu_gpu_sync_ns: 600,
            mpi_overhead_ns: 1_200,
            misc_cpu_ns: 120_000,
            proxy_overhead_ns: 2_500,
            proxy_contention: 1.0,
            kernel_fixed_ns: 5_000,
            pack_kernel_fixed_ns: 800,
            nb_ns_per_atom: 1.63,
            nb_nonlocal_table: vec![
                (0.0, 15_000.0),
                (6_162.0, 52_000.0),
                (15_527.0, 82_000.0),
                (24_675.0, 140_000.0),
            ],
            pack_ns_per_atom: 0.04,
            other_fixed_ns: 30_000,
            other_ns_per_atom: 0.75,
            prune_ns_per_atom: 0.30,
            pulse_fixed_ns: 2_000,
            graph_launch_ns: 5_000,
            sm_interference_per_dim: 0.033,
        }
    }

    /// Eos multi-node configuration (Fig 5/7/8): 4 H100 per node over
    /// multi-rail NDR400 InfiniBand.
    pub fn eos() -> Self {
        MachineModel {
            name: "Eos (4xH100/node + NDR400)".into(),
            gpus_per_node: 4,
            ..Self::dgx_h100()
        }
    }

    /// GB200 NVL72 in the paper's 36x2 configuration: 4 GPUs/node,
    /// multi-node NVLink (Fig 4).
    pub fn gb200_nvl72() -> Self {
        MachineModel {
            name: "GB200 NVL72 (MNNVL 36x2)".into(),
            gpus_per_node: 4,
            multi_node_nvlink: true,
            nvlink_gbps: 900.0,
            nvlink_latency_ns: 900, // cross-node NVLink hops
            // Blackwell B200 + Grace: roughly 1.7x H100 kernel rates.
            nb_ns_per_atom: 0.95,
            other_ns_per_atom: 0.60,
            nb_nonlocal_table: Self::dgx_h100()
                .nb_nonlocal_table
                .into_iter()
                .map(|(h, ns)| (h, ns * 0.8))
                .collect(),
            ..Self::dgx_h100()
        }
    }

    /// DGX-A100 node (previous generation, for what-if studies): NVLink 3,
    /// HDR InfiniBand, roughly half the H100's kernel throughput.
    pub fn dgx_a100() -> Self {
        MachineModel {
            name: "DGX-A100".into(),
            nvlink_gbps: 300.0,
            nvlink_latency_ns: 500,
            ib_gbps: 25.0,
            ib_latency_ns: 9_000,
            nb_ns_per_atom: 3.1,
            nb_nonlocal_table: Self::dgx_h100()
                .nb_nonlocal_table
                .into_iter()
                .map(|(h, ns)| (h, ns * 1.9))
                .collect(),
            ..Self::dgx_h100()
        }
    }

    // --- Chainable overrides for custom what-if machines. ---

    pub fn with_gpus_per_node(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.gpus_per_node = n;
        self
    }

    /// True if ranks `a` and `b` (global ids) share an NVLink domain.
    pub fn nvlink_reachable(&self, a: usize, b: usize) -> bool {
        self.multi_node_nvlink || a / self.gpus_per_node == b / self.gpus_per_node
    }

    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.gpus_per_node
    }

    /// One-way latency between two ranks, ns.
    pub fn latency_ns(&self, a: usize, b: usize) -> u64 {
        if self.nvlink_reachable(a, b) {
            self.nvlink_latency_ns
        } else {
            self.ib_latency_ns
        }
    }

    /// Wire time for `bytes` between two ranks, ns.
    pub fn wire_ns(&self, a: usize, b: usize, bytes: f64) -> u64 {
        let bw = if self.nvlink_reachable(a, b) {
            self.nvlink_gbps
        } else {
            self.ib_gbps
        };
        (bytes / bw).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx_reachability_is_intra_node() {
        let m = MachineModel::dgx_h100();
        assert!(m.nvlink_reachable(0, 7));
        assert!(!m.nvlink_reachable(7, 8));
        assert_eq!(m.node_of(9), 1);
    }

    #[test]
    fn mnnvl_reaches_everywhere() {
        let m = MachineModel::gb200_nvl72();
        assert!(m.nvlink_reachable(0, 71));
    }

    #[test]
    fn eos_uses_four_gpus_per_node() {
        let m = MachineModel::eos();
        assert!(m.nvlink_reachable(0, 3));
        assert!(!m.nvlink_reachable(3, 4));
    }

    #[test]
    fn wire_time_scales_with_bytes_and_transport() {
        let m = MachineModel::eos();
        let nvl = m.wire_ns(0, 1, 450_000.0);
        let ib = m.wire_ns(0, 4, 450_000.0);
        assert_eq!(nvl, 1_000); // 450 KB at 450 GB/s = 1 us
        assert_eq!(ib, 9_000); // 450 KB at 50 GB/s = 9 us
        assert!(m.latency_ns(0, 4) > m.latency_ns(0, 1));
    }

    #[test]
    fn nonlocal_nb_table_matches_paper_fig6() {
        let m = MachineModel::dgx_h100();
        assert_eq!(m.nb_nonlocal_ns(6_162.0), 52_000);
        assert_eq!(m.nb_nonlocal_ns(24_675.0), 140_000);
        // Interpolation between points, extrapolation beyond.
        let mid = m.nb_nonlocal_ns(10_000.0);
        assert!(mid > 52_000 && mid < 82_000, "{mid}");
        let big = m.nb_nonlocal_ns(50_000.0);
        assert!(big > 140_000, "{big}");
    }

    #[test]
    fn a100_is_slower_than_h100() {
        let a = MachineModel::dgx_a100();
        let h = MachineModel::dgx_h100();
        assert!(a.nb_local_ns(90_000.0) > h.nb_local_ns(90_000.0));
        assert!(a.nb_nonlocal_ns(10_000.0) > h.nb_nonlocal_ns(10_000.0));
        assert!(a.wire_ns(0, 1, 1e6) > h.wire_ns(0, 1, 1e6));
    }

    #[test]
    fn builder_overrides_compose() {
        let m = MachineModel::eos().with_gpus_per_node(2);
        assert!(m.nvlink_reachable(0, 1));
        assert!(!m.nvlink_reachable(1, 2));
    }

    #[test]
    fn local_nb_calibration_matches_paper_fig6() {
        // Paper: 11.25k atoms/GPU -> ~22 us; 90k -> ~152 us local work.
        let m = MachineModel::dgx_h100();
        let t11k = m.kernel_fixed_ns as f64 + 11_250.0 * m.nb_ns_per_atom;
        let t90k = m.kernel_fixed_ns as f64 + 90_000.0 * m.nb_ns_per_atom;
        assert!((t11k - 22_000.0).abs() < 3_000.0, "{t11k}");
        assert!((t90k - 152_000.0).abs() < 8_000.0, "{t90k}");
    }
}
