//! Table printing and the CSV / JSON writers every subcommand shares.

use crate::figures::{PerfRow, TimingRow};
use serde::Serialize;
use std::fs;
use std::path::Path;

/// Write any serializable row set as CSV (header from field names via JSON).
pub fn write_csv<T: Serialize>(path: &Path, rows: &[T]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    let mut header_done = false;
    for row in rows {
        let v = serde_json::to_value(row).expect("row serialization");
        let obj = v.as_object().expect("row must be a struct");
        if !header_done {
            out.push_str(&obj.keys().cloned().collect::<Vec<_>>().join(","));
            out.push('\n');
            header_done = true;
        }
        let vals: Vec<String> = obj
            .values()
            .map(|v| match v {
                serde_json::Value::String(s) => s.clone(),
                serde_json::Value::Array(a) => a
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join("x")
                    .to_string(),
                other => other.to_string(),
            })
            .collect();
        out.push_str(&vals.join(","));
        out.push('\n');
    }
    fs::write(path, out)
}

/// Write any serializable report as pretty JSON, creating the directory
/// first, and say where it went.
pub fn write_json<T: Serialize>(path: &Path, report: &T) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(report).expect("report serialization");
    fs::write(path, json)?;
    println!("wrote {}", path.display());
    Ok(())
}

pub fn print_perf_table(title: &str, rows: &[PerfRow]) {
    println!("\n== {title} ==");
    println!(
        "{:>10} {:>6} {:>5} {:>9} {:>8} {:>10} {:>10} {:>6}",
        "atoms", "nodes", "gpus", "grid", "backend", "ns/day", "ms/step", "eff%"
    );
    for r in rows {
        let eff = if r.efficiency.is_nan() {
            "-".to_string()
        } else {
            format!("{:.0}", r.efficiency * 100.0)
        };
        println!(
            "{:>10} {:>6} {:>5} {:>9} {:>8} {:>10.0} {:>10.3} {:>6}",
            r.system_atoms,
            r.n_nodes,
            r.n_gpus,
            format!("{}x{}x{}", r.grid[0], r.grid[1], r.grid[2]),
            r.backend,
            r.ns_per_day,
            r.ms_per_step,
            eff
        );
    }
}

pub fn print_timing_table(title: &str, rows: &[TimingRow]) {
    println!("\n== {title} ==");
    println!(
        "{:>10} {:>5} {:>10} {:>9} {:>8} {:>9} {:>11} {:>11} {:>11}",
        "atoms",
        "gpus",
        "atoms/gpu",
        "grid",
        "backend",
        "local_us",
        "nonlocal_us",
        "nonovl_us",
        "step_us"
    );
    for r in rows {
        println!(
            "{:>10} {:>5} {:>10.0} {:>9} {:>8} {:>9.1} {:>11.1} {:>11.1} {:>11.1}",
            r.system_atoms,
            r.n_gpus,
            r.atoms_per_gpu,
            format!("{}x{}x{}", r.grid[0], r.grid[1], r.grid[2]),
            r.backend,
            r.local_work_us,
            r.nonlocal_work_us,
            r.nonoverlap_us,
            r.time_per_step_us
        );
    }
}
