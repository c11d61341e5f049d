//! Schedule analysis: critical-path extraction and resource utilization —
//! the tooling behind the paper's "detailed critical path and overlap
//! analysis using GPU cycle timers" (§1, §6.3), applied to simulated
//! timelines.

use crate::graph::{OpId, Resource, TaskGraph, Time, Timeline};
use std::collections::HashMap;

/// One hop of a critical path.
#[derive(Debug, Clone)]
pub struct CriticalOp {
    pub op: OpId,
    pub label: String,
    pub resource: Resource,
    pub start: Time,
    pub end: Time,
}

impl TaskGraph {
    /// The chain of operations that determines the makespan: walk backwards
    /// from the last-finishing op through whichever predecessor (explicit
    /// dependency or FIFO neighbour) bound each start time. Returned in
    /// execution order. Zero-duration hops whose predecessor binds at the
    /// same instant are kept — they often *are* the interesting latency
    /// (signals, arrivals).
    pub fn critical_path(&self, t: &Timeline) -> Vec<CriticalOp> {
        let n = self.n_ops();
        if n == 0 {
            return Vec::new();
        }
        // Rebuild the FIFO predecessor map exactly as `run` does.
        let mut last_on: HashMap<Resource, OpId> = HashMap::new();
        let mut fifo_prev: Vec<Option<OpId>> = vec![None; n];
        for i in 0..n {
            let id = OpId(i);
            let r = self.resource(id);
            if let Some(&prev) = last_on.get(&r) {
                fifo_prev[i] = Some(prev);
            }
            last_on.insert(r, id);
        }

        // Start from the op that finishes last.
        let mut cur = (0..n).map(OpId).max_by_key(|&i| t.end(i)).unwrap();
        let mut chain = Vec::new();
        loop {
            chain.push(CriticalOp {
                op: cur,
                label: self.label(cur).to_string(),
                resource: self.resource(cur),
                start: t.start(cur),
                end: t.end(cur),
            });
            if t.start(cur) == 0 {
                break;
            }
            // Find the predecessor that bound this start.
            let mut binding: Option<OpId> = None;
            for &(d, lag) in self.deps_of(cur) {
                if t.end(d) + lag == t.start(cur) {
                    binding = Some(d);
                    break;
                }
            }
            if binding.is_none() {
                if let Some(p) = fifo_prev[cur.0] {
                    if t.end(p) == t.start(cur) {
                        binding = Some(p);
                    }
                }
            }
            match binding {
                Some(b) => cur = b,
                // Start bound by nothing we track (shouldn't happen for
                // start > 0, but stay robust).
                None => break,
            }
        }
        chain.reverse();
        chain
    }

    /// Busy time per resource and its fraction of the makespan, busiest
    /// first; equally busy resources in [`Resource`] order.
    pub fn utilization(&self, t: &Timeline) -> Vec<(Resource, Time, f64)> {
        let span = t.makespan().max(1);
        let mut busy: HashMap<Resource, Time> = HashMap::new();
        for i in 0..self.n_ops() {
            let id = OpId(i);
            *busy.entry(self.resource(id)).or_insert(0) += t.duration(id);
        }
        let mut out: Vec<(Resource, Time, f64)> = busy
            .into_iter()
            .map(|(r, b)| (r, b, b as f64 / span as f64))
            .collect();
        out.sort_by_key(|&(r, b, _)| (std::cmp::Reverse(b), r));
        out
    }

    /// Total time the critical path spends per label prefix — a direct
    /// "where does the step time go" attribution.
    pub fn critical_path_breakdown(&self, t: &Timeline, prefixes: &[&str]) -> Vec<(String, Time)> {
        let chain = self.critical_path(t);
        let mut acc: Vec<(String, Time)> = prefixes.iter().map(|p| (p.to_string(), 0)).collect();
        let mut other = 0;
        for hop in &chain {
            // Label shape is "backend:step:rank:opname" — match on opname.
            let opname = hop.label.rsplit(':').next().unwrap_or(&hop.label);
            match acc.iter_mut().find(|(p, _)| opname.starts_with(p.as_str())) {
                Some((_, v)) => *v += hop.end - hop.start,
                None => other += hop.end - hop.start,
            }
        }
        acc.push(("other".to_string(), other));
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Resource as R;

    fn sample() -> (TaskGraph, Timeline) {
        let mut g = TaskGraph::new();
        let a = g.add("x:0:0:launch", R::Cpu(0), 5);
        let k1 = g.add("x:0:0:kernel1", R::Stream(0, 0), 50);
        g.dep(k1, a, 0);
        let k2 = g.add("x:0:0:kernel2", R::Stream(0, 0), 30);
        let side = g.add("x:0:0:side", R::Stream(0, 1), 10);
        g.dep(side, a, 0);
        let t = g.run();
        let _ = k2;
        (g, t)
    }

    #[test]
    fn critical_path_follows_binding_chain() {
        let (g, t) = sample();
        let chain = g.critical_path(&t);
        let labels: Vec<&str> = chain.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["x:0:0:launch", "x:0:0:kernel1", "x:0:0:kernel2"]
        );
        // Contiguous in time.
        for w in chain.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(chain.last().unwrap().end, t.makespan());
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let (g, t) = sample();
        let u = g.utilization(&t);
        let stream0 = u.iter().find(|(r, _, _)| *r == R::Stream(0, 0)).unwrap();
        assert_eq!(stream0.1, 80);
        let frac = stream0.2;
        assert!((frac - 80.0 / 85.0).abs() < 1e-9);
        let cpu = u.iter().find(|(r, _, _)| *r == R::Cpu(0)).unwrap();
        assert_eq!(cpu.1, 5);
    }

    #[test]
    fn utilization_orders_tied_resources_the_same_every_call() {
        // Sixteen equally busy resources: `HashMap` iteration order differs
        // from map to map, so only the tie-break fixes the sequence.
        let mut g = TaskGraph::new();
        for rank in 0..8 {
            g.add("x:0:0:kernel", R::Stream(rank, 0), 20);
            g.add("x:0:0:copy", R::CopyEngine(rank), 20);
        }
        let t = g.run();
        let first = g.utilization(&t);
        assert_eq!(first.len(), 16);
        for _ in 0..8 {
            assert_eq!(g.utilization(&t), first);
        }
        assert!(first.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn breakdown_attributes_by_opname() {
        let (g, t) = sample();
        let b = g.critical_path_breakdown(&t, &["kernel", "launch"]);
        assert_eq!(b[0], ("kernel".to_string(), 80));
        assert_eq!(b[1], ("launch".to_string(), 5));
        assert_eq!(b[2], ("other".to_string(), 0));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = TaskGraph::new();
        let t = g.run();
        assert!(g.critical_path(&t).is_empty());
        assert!(g.utilization(&t).is_empty());
    }
}
