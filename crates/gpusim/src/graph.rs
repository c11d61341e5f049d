//! Deterministic task-graph timing simulator.
//!
//! A step schedule is a DAG of operations, each bound to a *resource* that
//! executes its operations in submission order (FIFO): CPU threads
//! (serializing kernel-launch calls), in-order GPU streams, copy/TMA
//! engines, and interconnect links (serializing transfers that share a
//! link). Cross-resource edges carry an optional `lag` (wire latency).
//!
//! `run` computes start/end times for every op by topological relaxation —
//! exactly the semantics of an event-driven simulation of FIFO servers, but
//! deterministic and replayable. Cycles (schedule bugs) are detected and
//! reported with labels.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Simulated time in nanoseconds.
pub type Time = u64;

/// Execution resources. FIFO semantics per distinct value. The order
/// (variant, then fields) means nothing physical: it breaks ties wherever a
/// report must come out the same twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Resource {
    /// The CPU thread of a rank: kernel launches and MPI calls serialize here.
    Cpu(usize),
    /// An in-order GPU stream: (rank, stream id).
    Stream(usize, u8),
    /// A DMA copy engine of a rank (thread-MPI style D2D copies).
    CopyEngine(usize),
    /// The TMA/bulk-async engine of a rank (paper §5.1 NVLink path).
    Tma(usize),
    /// A directed network link between two *nodes* (IB rail).
    Link(usize, usize),
    /// The NVSHMEM proxy thread of a rank (IB path, §5.5).
    Proxy(usize),
    /// Unlimited concurrency: per-pulse lanes inside a fused kernel
    /// (thread-block parallelism), indexed to stay unique.
    Lane(usize, u32),
}

/// Stream ids used by the engine schedules.
pub mod streams {
    pub const LOCAL: u8 = 0;
    pub const NONLOCAL: u8 = 1;
    pub const UPDATE: u8 = 2;
    /// Dedicated low-priority prune stream (paper §5.4).
    pub const PRUNE: u8 = 3;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

#[derive(Debug, Clone)]
struct Op {
    label: String,
    resource: Resource,
    duration: Time,
    deps: Vec<(OpId, Time)>,
}

/// A schedule under construction.
#[derive(Debug, Default, Clone)]
pub struct TaskGraph {
    ops: Vec<Op>,
}

impl TaskGraph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Add an operation; returns its id. Ops on one resource run in the
    /// order they were added.
    pub fn add(&mut self, label: impl Into<String>, resource: Resource, duration: Time) -> OpId {
        self.ops.push(Op {
            label: label.into(),
            resource,
            duration,
            deps: Vec::new(),
        });
        OpId(self.ops.len() - 1)
    }

    /// `op` cannot start before `on` finishes (plus `lag` ns).
    pub fn dep(&mut self, op: OpId, on: OpId, lag: Time) {
        assert_ne!(op, on, "self-dependency");
        self.ops[op.0].deps.push((on, lag));
    }

    pub fn deps(&mut self, op: OpId, on: &[OpId]) {
        for &d in on {
            self.dep(op, d, 0);
        }
    }

    pub fn label(&self, op: OpId) -> &str {
        &self.ops[op.0].label
    }

    pub fn resource(&self, op: OpId) -> Resource {
        self.ops[op.0].resource
    }

    /// Explicit dependencies of an op (without the implicit FIFO edge).
    pub fn deps_of(&self, op: OpId) -> &[(OpId, Time)] {
        &self.ops[op.0].deps
    }

    /// Compute the timeline. Panics with a labelled message on cycles.
    pub fn run(&self) -> Timeline {
        let n = self.ops.len();
        // Implicit FIFO edges: previous op on the same resource.
        let mut last_on: HashMap<Resource, OpId> = HashMap::new();
        let mut fifo_prev: Vec<Option<OpId>> = vec![None; n];
        for (i, op) in self.ops.iter().enumerate() {
            let id = OpId(i);
            if let Some(&prev) = last_on.get(&op.resource) {
                fifo_prev[i] = Some(prev);
            }
            last_on.insert(op.resource, id);
        }

        // Kahn topological order over explicit deps + fifo edges.
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, op) in self.ops.iter().enumerate() {
            for &(d, _) in &op.deps {
                out[d.0].push(i);
                indeg[i] += 1;
            }
            if let Some(p) = fifo_prev[i] {
                out[p.0].push(i);
                indeg[i] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(i);
            for &j in &out[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if order.len() != n {
            let stuck: Vec<&str> = (0..n)
                .filter(|&i| indeg[i] > 0)
                .map(|i| self.ops[i].label.as_str())
                .take(8)
                .collect();
            panic!("schedule cycle involving: {stuck:?}");
        }

        let mut start = vec![0 as Time; n];
        let mut end = vec![0 as Time; n];
        for &i in &order {
            let mut s: Time = 0;
            for &(d, lag) in &self.ops[i].deps {
                s = s.max(end[d.0] + lag);
            }
            if let Some(p) = fifo_prev[i] {
                s = s.max(end[p.0]);
            }
            start[i] = s;
            end[i] = s + self.ops[i].duration;
        }
        Timeline { start, end }
    }
}

/// Computed start/end times.
#[derive(Debug, Clone)]
pub struct Timeline {
    start: Vec<Time>,
    end: Vec<Time>,
}

impl Timeline {
    pub fn start(&self, op: OpId) -> Time {
        self.start[op.0]
    }

    pub fn end(&self, op: OpId) -> Time {
        self.end[op.0]
    }

    pub fn duration(&self, op: OpId) -> Time {
        self.end[op.0] - self.start[op.0]
    }

    /// Latest end over all ops (makespan).
    pub fn makespan(&self) -> Time {
        self.end.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_ops_start_at_zero() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Cpu(0), 10);
        let b = g.add("b", Resource::Cpu(1), 20);
        let t = g.run();
        assert_eq!(t.start(a), 0);
        assert_eq!(t.start(b), 0);
        assert_eq!(t.makespan(), 20);
    }

    #[test]
    fn fifo_serializes_same_resource() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Cpu(0), 10);
        let b = g.add("b", Resource::Cpu(0), 5);
        let t = g.run();
        assert_eq!(t.start(b), t.end(a));
        assert_eq!(t.end(b), 15);
    }

    #[test]
    fn deps_with_lag_model_latency() {
        let mut g = TaskGraph::new();
        let send = g.add("send", Resource::Cpu(0), 3);
        let recv = g.add("recv", Resource::Cpu(1), 2);
        g.dep(recv, send, 100);
        let t = g.run();
        assert_eq!(t.start(recv), 103);
    }

    #[test]
    fn streams_overlap_cpu() {
        let mut g = TaskGraph::new();
        let launch1 = g.add("launch1", Resource::Cpu(0), 3);
        let k1 = g.add("k1", Resource::Stream(0, 0), 50);
        g.dep(k1, launch1, 0);
        let launch2 = g.add("launch2", Resource::Cpu(0), 3);
        let k2 = g.add("k2", Resource::Stream(0, 1), 40);
        g.dep(k2, launch2, 0);
        let t = g.run();
        // CPU serializes launches; kernels overlap on different streams.
        assert_eq!(t.start(k1), 3);
        assert_eq!(t.start(k2), 6);
        assert!(t.end(k2) < t.end(k1) + 40, "kernels overlapped");
    }

    #[test]
    fn in_order_stream_chains_kernels() {
        let mut g = TaskGraph::new();
        let k1 = g.add("k1", Resource::Stream(0, 0), 50);
        let k2 = g.add("k2", Resource::Stream(0, 0), 40);
        let t = g.run();
        assert_eq!(t.start(k2), t.end(k1));
    }

    #[test]
    fn link_fifo_serializes_transfers() {
        let mut g = TaskGraph::new();
        let w1 = g.add("wire1", Resource::Link(0, 1), 30);
        let w2 = g.add("wire2", Resource::Link(0, 1), 30);
        let w3 = g.add("wire3", Resource::Link(1, 0), 30); // other direction is free
        let t = g.run();
        assert_eq!(t.start(w2), 30);
        assert_eq!(t.start(w3), 0);
        let _ = w1;
    }

    #[test]
    fn lanes_run_concurrently() {
        let mut g = TaskGraph::new();
        let a = g.add("p0", Resource::Lane(0, 0), 100);
        let b = g.add("p1", Resource::Lane(0, 1), 100);
        let t = g.run();
        assert_eq!(t.start(a), 0);
        assert_eq!(t.start(b), 0);
        assert_eq!(t.makespan(), 100);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_detected() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Cpu(0), 1);
        let b = g.add("b", Resource::Cpu(1), 1);
        g.dep(a, b, 0);
        g.dep(b, a, 0);
        let _ = g.run();
    }

    #[test]
    fn diamond_dependency_takes_longest_path() {
        let mut g = TaskGraph::new();
        let a = g.add("a", Resource::Lane(0, 0), 10);
        let b = g.add("b", Resource::Lane(0, 1), 30);
        let c = g.add("c", Resource::Lane(0, 2), 20);
        let d = g.add("d", Resource::Lane(0, 3), 5);
        g.dep(b, a, 0);
        g.dep(c, a, 0);
        g.deps(d, &[b, c]);
        let t = g.run();
        assert_eq!(t.start(d), 40);
        assert_eq!(t.makespan(), 45);
    }
}
