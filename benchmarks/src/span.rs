//! The benchmark's own in-memory span recorder for the traced run.
//!
//! Spans are `(name, start_ns, end_ns, parent)` around calls into a layer,
//! recorded from the benchmark's side of the public API only (in-program
//! tracing is a later change). They live in memory and are written to
//! `benchmarks/out/trace-<workload>.json` when the run ends. A span's self
//! time is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Single-threaded recorder owned by the driver thread. Work done on PE
/// threads is timed there with `Instant` pairs and attached afterwards
/// with [`Spans::leaf_at`].
pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    /// Returns `f`'s result and the span's wall time in seconds (measured
    /// whether or not recording is on, so callers time through one path).
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = if self.enabled {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(id);
            Some(id)
        } else {
            None
        };
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(end);
            self.stack.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    /// Attach an already-measured interval as a child of the open span.
    pub fn leaf_at(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.stack.last().copied(),
            });
        }
    }

    /// Self time per span: duration minus the union of child intervals.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// `(name, count, total_ns, self_ns)` per span name, largest self time
    /// first.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let selfs = self.self_ns();
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(n, (c, t, o))| (n, c, t, o))
            .collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.3));
        rows
    }

    /// Write every span (with its self time) and the per-name summary.
    pub fn write_json(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self.self_ns();
        let mut s = format!("{{\n  \"workload\": \"{workload}\",\n  \"spans\": [\n");
        for (i, (sp, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {own}, \"workload\": \"{workload}\"}}{comma}\n",
                sp.name, sp.start_ns, sp.end_ns
            ));
        }
        s.push_str("  ],\n  \"summary\": [\n");
        let rows = self.summary();
        for (i, (name, count, total, own)) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}{comma}\n"
            ));
        }
        s.push_str("  ]\n}\n");
        std::fs::write(path, s)
    }
}
