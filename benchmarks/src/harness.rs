//! Shared measurement plumbing: arguments, environment hygiene, robust
//! statistics, host fingerprint, memory and steal-time readers, and the
//! result line the driver parses.

use crate::metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;

/// Arguments of one driver run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Refuse to run under any `HALOX_*` lever: `EngineConfig::new` and
/// `ShmemWorld::new` read six of them, and a stray one would silently
/// change what the numbers mean.
pub fn refuse_halox_env() {
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("HALOX_"))
    {
        eprintln!(
            "halox-perf: refusing to run with {} set (the benchmark pins every engine lever explicitly)",
            k.to_string_lossy()
        );
        std::process::exit(2);
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of unsorted samples (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the acceptance rule is written in. 0 for fewer than 2 samples.
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med.abs()
    }
}

/// End-to-end timings and rates are the trimmed mean of a run's samples:
/// the mean of what is left when the lowest and the highest tenth are
/// dropped.
///
/// The reference host gives the benchmark two vCPUs of a shared machine,
/// and it has speed states: for seconds to minutes at a time every sample
/// is 10-20 % faster or slower than before. How a statistic turns the share
/// `f` of a run spent in another state into a value decides how far two
/// runs can disagree. A median or any other quantile ignores `f` until it
/// crosses the quantile and then jumps by the whole gap; the mean of the
/// fastest quarter moves four times as fast as `f` below a quarter; a mean
/// moves in proportion, which is the smallest worst case. Trimming a tenth from each end keeps that and
/// drops what is not a state at all: the cold sample, the page fault, the
/// preempted chunk. On ten-seed sets of raw samples, evaluated offline so
/// every estimator saw the same noise, it spread 1.6-6 % (IQR/median); the
/// fastest-quarter mean 1.7-15 %, the median 1.6-3 % in quiet quarter hours
/// and up to the whole gap in others.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "trimmed mean of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Recorded over unrecorded samples of a traced run, minus one.
pub fn overhead_frac(recorded: &[f64], plain: &[f64]) -> f64 {
    if recorded.is_empty() || plain.is_empty() {
        return f64::NAN;
    }
    trimmed_mean(recorded) / trimmed_mean(plain) - 1.0
}

/// A reported value: the statistic plus the spread of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub value: f64,
    pub iqr_frac: f64,
    pub n: usize,
}

impl Sample {
    /// [`trimmed_mean`] of a run's samples, taken in time order. The spread
    /// beside it is the statistic's own, not the samples': the IQR/median
    /// of the same statistic over five consecutive fifths of the run, so
    /// drift inside the run shows (NaN value when every round failed, which
    /// the missing-metric check then reports).
    pub fn trimmed(samples: &[f64]) -> Self {
        const FIFTHS: usize = 5;
        if samples.is_empty() {
            return Sample::single(f64::NAN);
        }
        let iqr_frac = if samples.len() >= 4 * FIFTHS {
            let per_fifth: Vec<f64> = (0..FIFTHS)
                .map(|k| {
                    let (lo, hi) = (k * samples.len() / FIFTHS, (k + 1) * samples.len() / FIFTHS);
                    trimmed_mean(&samples[lo..hi])
                })
                .collect();
            iqr_frac(&per_fifth)
        } else {
            iqr_frac(samples)
        };
        Sample {
            value: trimmed_mean(samples),
            iqr_frac,
            n: samples.len(),
        }
    }

    /// The median of repeated measurements (set-up repetitions).
    pub fn median_of(samples: &[f64]) -> Self {
        Sample {
            value: median(samples),
            iqr_frac: iqr_frac(samples),
            n: samples.len(),
        }
    }

    /// A single measured or computed value.
    pub fn single(value: f64) -> Self {
        Sample {
            value,
            iqr_frac: 0.0,
            n: 1,
        }
    }
}

/// Run `f` `reps` times and return the per-call wall times in seconds.
pub fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process (`VmRSS`), kB.
pub fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

/// Aggregate CPU jiffies from `/proc/stat`: (steal, total).
pub fn cpu_jiffies() -> (f64, f64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let f: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice
    let steal = f.get(7).copied().unwrap_or(0.0);
    let total: f64 = f.iter().take(8).sum();
    (steal, total)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host fingerprint as a JSON object: the context a number is only
/// comparable within.
pub fn host_fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut simd: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            simd.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            simd.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            simd.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            simd.push("avx512f");
        }
    }
    let simd = simd
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"nproc\": {nproc}, \"arch\": \"{}\", \"simd\": [{simd}], \"rustc\": \"{}\", \"commit\": \"{}\", \"backend\": \"threads\"}}",
        std::env::consts::ARCH,
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// What one run produced: the verdict, the failure tally and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, in the order they were found.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Sample>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, s: Sample) {
        self.metrics.insert(name, s);
    }

    pub fn set_value(&mut self, name: &'static str, v: f64) {
        self.set(name, Sample::single(v));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(f64::NAN, |s| s.value)
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }
}

/// `(name, unit)` of every metric a run with this `trace` flag reports.
pub fn expected_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
    } else {
        END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics = expected_metrics(trace)
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(out.get(name))
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed
    )
}

/// The richer per-run report (`benchmarks/out/report-<workload>-t<trace>.json`)
/// that `all` and `compare` consume: every metric with its spread over
/// rounds, plus the host fingerprint.
pub fn report_json(args: &RunArgs, out: &Outcome) -> String {
    let metrics = expected_metrics(args.trace)
        .iter()
        .map(|(name, unit)| {
            let s = out.metrics.get(name).copied().unwrap_or(Sample::single(f64::NAN));
            format!(
                "    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"iqr_frac\": {}, \"n\": {}}}",
                json_num(s.value),
                json_num(s.iqr_frac),
                s.n
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let failures = out
        .check_failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('\\', "/").replace('"', "'")))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"check_failures\": [{failures}],\n  \"metrics\": {{\n{metrics}\n  }}\n}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host_fingerprint_json(),
        out.correct(),
        out.attempted.max(1),
        out.failed,
    )
}

/// Directory all benchmark outputs go to (inside the checkout).
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("benchmarks/out");
    std::fs::create_dir_all(&dir).expect("create benchmarks/out");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 5.0);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_end() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v[19] = 1e9;
        assert_eq!(trimmed_mean(&v), (3..=18).sum::<i32>() as f64 / 16.0);
        assert_eq!(trimmed_mean(&[3.0, 1.0]), 2.0);
    }
}
