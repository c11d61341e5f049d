//! `all`: every workload, untraced then traced, each in its own subprocess,
//! merged into one ledger file. `compare`: two ledgers row by row against
//! each metric's bound.

use crate::harness::{host_fingerprint_json, out_dir};
use crate::json::{parse, Json};
use crate::metrics::{better_of, bound_of, is_exact, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::{Command, Stdio};

/// Run one (workload, trace) pass as a child process — `VmHWM` and the
/// sticky shared heap are per process — and return its parsed report.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace_flag = if trace { "1" } else { "0" };
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", trace_flag])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    parse(line).map_err(|e| format!("{workload}: child printed no result line ({e})"))?;
    let report = out_dir().join(format!("report-{workload}-t{trace_flag}.json"));
    let text =
        std::fs::read_to_string(&report).map_err(|e| format!("{}: {e}", report.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", report.display()))
}

fn metric_rows(report: &Json, names: &[&'static str]) -> String {
    names
        .iter()
        .map(|name| {
            let m = report.get("metrics").and_then(|m| m.get(name));
            let num = |k: &str| {
                m.and_then(|m| m.get(k))
                    .and_then(Json::as_f64)
                    .map_or("null".to_string(), |v| format!("{v}"))
            };
            let unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str).unwrap_or("");
            format!(
                "        \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"iqr_frac\": {}, \"n\": {}}}",
                num("value"),
                num("iqr_frac"),
                num("n")
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn print_rows(report: &Json, names: &[&'static str]) {
    for name in names {
        let m = report.get("metrics").and_then(|m| m.get(name));
        let f = |k: &str| {
            m.and_then(|m| m.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        let unit = m
            .and_then(|m| m.get("unit"))
            .and_then(Json::as_str)
            .unwrap_or("");
        println!(
            "  {name:<44} {:>16.6} {unit:<9} iqr {:>5.1}%  n={}",
            f("value"),
            f("iqr_frac") * 100.0,
            f("n")
        );
    }
}

pub fn all(seed: u64, seconds: f64, out_file: &Path) -> i32 {
    let e2e: Vec<&'static str> = END_TO_END.iter().map(|d| d.name).collect();
    let layers: Vec<&'static str> = PER_LAYER.iter().map(|d| d.name).collect();
    let mut body = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let passes = [(false, &e2e, "end_to_end"), (true, &layers, "per_layer")];
        let mut sections = Vec::new();
        for (trace, names, section) in passes {
            println!("== {} ({section}) ==", w.name);
            match run_child(w.name, seed, seconds, trace) {
                Ok(report) => {
                    print_rows(&report, names);
                    let correct = report
                        .get("correct")
                        .and_then(Json::as_bool)
                        .unwrap_or(false);
                    let count = |k: &str| report.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    println!(
                        "  correct {correct}, attempted {}, failed {}",
                        count("attempted"),
                        count("failed")
                    );
                    ok &= correct;
                    sections.push(format!(
                        "      \"{section}\": {{\n        \"correct\": {correct},\n        \"attempted\": {},\n        \"failed\": {},\n{}\n      }}",
                        count("attempted"),
                        count("failed"),
                        metric_rows(&report, names)
                    ));
                }
                Err(e) => {
                    eprintln!("halox-perf all: {e}");
                    ok = false;
                }
            }
        }
        body.push(format!(
            "    \"{}\": {{\n{}\n    }}",
            w.name,
            sections.join(",\n")
        ));
    }
    let text = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"host\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host_fingerprint_json(),
        body.join(",\n")
    );
    if let Some(dir) = out_file.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(out_file, text).expect("write ledger");
    println!("wrote {}", out_file.display());
    i32::from(!ok)
}

/// Share of A's value by which B is worse, in the metric's own direction.
fn worse_by(name: &str, a: f64, b: f64) -> f64 {
    if better_of(name) == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

struct Cell {
    value: f64,
    iqr_frac: f64,
}

fn cell(ledger: &Json, workload: &str, section: &str, name: &str) -> Option<Cell> {
    let m = ledger
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)?;
    Some(Cell {
        value: m.get("value")?.as_f64()?,
        iqr_frac: m.get("iqr_frac").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Print the per-row delta of B against A. A row is a regression when B is
/// worse than A by more than the row's bound and both sides' spreads are
/// within it; when either spread exceeds the bound the row is *unresolved*
/// — reported, never counted as unchanged. Exact-count rows must match to
/// the digit when both ledgers ran the same seed.
pub fn compare(a_path: &Path, b_path: &Path) -> i32 {
    let load = |p: &Path| -> Json {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("halox-perf compare: {}: {e}", p.display());
            std::process::exit(2);
        });
        parse(&text).unwrap_or_else(|e| {
            eprintln!("halox-perf compare: {}: {e}", p.display());
            std::process::exit(2);
        })
    };
    let (a, b) = (load(a_path), load(b_path));
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    let mut bad = 0;
    println!(
        "{:<12} {:<40} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in WORKLOADS {
        for d in END_TO_END {
            let (Some(ca), Some(cb)) = (
                cell(&a, w.name, "end_to_end", d.name),
                cell(&b, w.name, "end_to_end", d.name),
            ) else {
                println!("{:<12} {:<40} missing on one side", w.name, d.name);
                bad += 1;
                continue;
            };
            let bound = bound_of(d.name).unwrap_or(0.0);
            let worse = worse_by(d.name, ca.value, cb.value);
            let verdict = if ca.iqr_frac > bound || cb.iqr_frac > bound {
                "unresolved (spread exceeds bound)"
            } else if worse > bound {
                bad += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{:<12} {:<40} {:>14.6} {:>14.6} {:>8.1}% {:>6.0}%  {verdict}",
                w.name,
                d.name,
                ca.value,
                cb.value,
                worse * 100.0,
                bound * 100.0
            );
        }
        for d in PER_LAYER {
            let (Some(ca), Some(cb)) = (
                cell(&a, w.name, "per_layer", d.name),
                cell(&b, w.name, "per_layer", d.name),
            ) else {
                continue;
            };
            if is_exact(d.name) && same_seed {
                let same = ca.value == cb.value;
                if !same {
                    bad += 1;
                }
                println!(
                    "{:<12} {:<40} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
                    w.name,
                    d.name,
                    ca.value,
                    cb.value,
                    "",
                    "exact",
                    if same { "ok" } else { "MISMATCH" }
                );
            } else {
                let worse = worse_by(d.name, ca.value, cb.value);
                println!(
                    "{:<12} {:<40} {:>14.6} {:>14.6} {:>8.1}% {:>7}  layer (not gated)",
                    w.name,
                    d.name,
                    ca.value,
                    cb.value,
                    worse * 100.0,
                    "-"
                );
            }
        }
    }
    if bad > 0 {
        println!("{bad} row(s) regressed, mismatched or missing");
    }
    i32::from(bad > 0)
}
