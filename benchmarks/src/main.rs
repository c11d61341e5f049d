//! `halox-perf` — the repository's perf ledger.
//!
//! ```text
//! halox-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's contract)
//! halox-perf all [--seed n] [--seconds s] [--out file]                  every workload, untraced + traced
//! halox-perf compare A.json B.json                                      per-row delta against each bound
//! halox-perf manifest                                                   print BENCHMARK.json
//! ```
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; nothing under `crates/` changes. See `benchmarks/README.md`
//! for the metric glossary and why each workload exists.

mod harness;
mod inputs;
mod json;
mod ledger;
mod metrics;
mod probes;
mod span;
mod workloads;

use harness::{Outcome, RunArgs};
use span::Spans;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: halox-perf --workload <{}> [--seed n] [--seconds s] [--trace 0|1]\n       halox-perf all [--seed n] [--seconds s] [--out file]\n       halox-perf compare A.json B.json\n       halox-perf manifest",
        metrics::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

/// `--key value` pairs after the subcommand.
fn flag<T: std::str::FromStr>(args: &[String], key: &str) -> Option<T> {
    let i = args.iter().position(|a| a == key)?;
    match args.get(i + 1).map(|v| v.parse()) {
        Some(Ok(v)) => Some(v),
        _ => {
            eprintln!("halox-perf: {key} needs a valid value");
            usage()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            0
        }
        Some("compare") => match &args[1..] {
            [a, b] => ledger::compare(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        Some("procs-probe") => probes::procs::child_main(&args[1..]),
        Some("all") => {
            harness::refuse_halox_env();
            let seed = flag(&args, "--seed").unwrap_or(DEFAULT_SEED);
            let seconds = flag(&args, "--seconds").unwrap_or(metrics::RUN_SECONDS as f64);
            let out: PathBuf = flag(&args, "--out")
                .unwrap_or_else(|| harness::out_dir().join(format!("ledger-seed{seed}.json")));
            ledger::all(seed, seconds, &out)
        }
        Some(_) => {
            harness::refuse_halox_env();
            let Some(workload) = flag::<String>(&args, "--workload") else {
                usage()
            };
            if !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
                eprintln!("halox-perf: unknown workload {workload}");
                usage();
            }
            run_workload(&RunArgs {
                workload,
                seed: flag(&args, "--seed").unwrap_or(DEFAULT_SEED),
                seconds: flag(&args, "--seconds").unwrap_or(metrics::RUN_SECONDS as f64),
                trace: flag::<u8>(&args, "--trace").unwrap_or(0) != 0,
            })
        }
        None => usage(),
    };
    std::process::exit(code);
}

/// Seed of the committed baseline; 29 is the held-out check seed.
const DEFAULT_SEED: u64 = 11;

/// Sum (seconds) of every span called `name` recorded so far.
fn span_total_s(spans: &Spans, name: &str) -> f64 {
    spans
        .summary()
        .iter()
        .find(|row| row.0 == name)
        .map_or(0.0, |row| row.2 as f64 * 1e-9)
}

/// A run that has not finished by now is hung, not slow: fail it loudly
/// instead of sitting on the driver's 180 s limit.
const RUN_DEADLINE: std::time::Duration = std::time::Duration::from_secs(170);

fn run_workload(args: &RunArgs) -> i32 {
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        eprintln!("halox-perf: run exceeded {RUN_DEADLINE:?}; a layer call never returned");
        std::process::exit(3);
    });
    let steal0 = harness::cpu_jiffies();
    let mut spans = Spans::new(args.trace);
    let mut out = Outcome::default();
    spans.scope("workload", |spans| {
        let (inputs, serve_bases) = match args.workload.as_str() {
            "halo_only" => (workloads::halo::run(args, spans, &mut out), None),
            "serve_batch" => {
                let (inputs, bases) = workloads::serve::run(args, spans, &mut out);
                (inputs, Some(bases))
            }
            _ => (workloads::md::run(args, spans, &mut out), None),
        };
        if args.trace {
            layer_probes(args, &inputs, serve_bases, spans, &mut out);
        }
    });
    if args.trace {
        out.set_value("bench.host_steal_frac", probes::steal_frac(steal0));
        out.set_value("bench.peak_rss_mb", harness::peak_rss_mb());
        let path = harness::out_dir().join(format!("trace-{}.json", args.workload));
        if let Err(e) = spans.write_json(&args.workload, &path) {
            out.check(false, || format!("cannot write {}: {e}", path.display()));
        }
    }
    for (name, _) in harness::expected_metrics(args.trace) {
        let v = out.get(name);
        out.check(v.is_finite(), || {
            format!("metric {name} missing or not finite")
        });
    }
    for failure in &out.check_failures {
        eprintln!("halox-perf: CHECK FAILED: {failure}");
    }
    let report = harness::out_dir().join(format!(
        "report-{}-t{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    std::fs::write(&report, harness::report_json(args, &out)).expect("write report");
    println!("{}", harness::result_line(&out, args.trace));
    i32::from(!out.correct())
}

/// The traced run's second half: every layer probed on the workload's own
/// inputs, then the step attributed to the probes.
fn layer_probes(
    args: &RunArgs,
    inputs: &workloads::ProbeInputs,
    serve_bases: Option<workloads::serve::Bases>,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    // Set-up spans first: the probes below build more systems under the
    // same span names.
    out.set_value("md.system_build_s", span_total_s(spans, "md.system_build"));
    out.set_value("md.minimize_s", span_total_s(spans, "md.minimize"));
    out.set_value("bench.timer_ns", probes::timer_ns());

    probes::shmem::run(spans, out);
    probes::core::run(&inputs.system, spans, out);
    probes::md::run(&inputs.system, spans, out);
    let engine = probes::engine::run(inputs, args.seed, spans, out);
    probes::procs::run(inputs, engine.steps, engine.hash, spans, out);

    let (bases, jobs) = match serve_bases {
        Some(bases) => (bases, workloads::serve::JOBS_PER_ROUND),
        // Other workloads probe the service on one small system: its
        // metrics are about slicing and leasing, not system size.
        None => {
            let small = if inputs.system.n_atoms() <= 1_500 {
                inputs.system.clone()
            } else {
                inputs::relaxed_system(1_500, args.seed, 220.0, spans)
            };
            (workloads::serve::Bases::new(vec![small], spans), 12)
        }
    };
    probes::serve::run(&bases, jobs, spans, out);

    let rows = probes::attribute(
        out,
        engine.step_ms_p50,
        inputs.config.nstlist,
        inputs.config.thermostat.is_some(),
    );
    print_step_table(&args.workload, engine.step_ms_p50, &rows, out);
}

/// "Where the step goes": the layer probes ranked by their share of the
/// primary step, next to the engine's own phase timers. To stderr — stdout
/// ends with the result line.
fn print_step_table(workload: &str, step_ms: f64, rows: &[(&'static str, f64)], out: &Outcome) {
    let mut rows = rows.to_vec();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!("\nwhere the step goes — {workload}, engine.fused_step_ms_p50 = {step_ms:.4} ms");
    eprintln!(
        "  {:<42} {:>10} {:>8}",
        "layer probe x calls per step", "ms/step", "share"
    );
    for (name, ms) in rows.iter().filter(|r| r.1 > 0.0) {
        eprintln!("  {name:<42} {ms:>10.4} {:>7.1}%", ms / step_ms * 100.0);
    }
    eprintln!(
        "  {:<42} {:>10.4} {:>7.1}%",
        "(unattributed)",
        out.get("engine.unattributed_frac") * step_ms,
        out.get("engine.unattributed_frac") * 100.0
    );
    eprintln!("  engine's own phase timers (mean per rank):");
    for phase in ["nb_local", "nb_halo", "pairlist", "pack", "pack_overlap"] {
        let ms = out.get(&format!("engine.phase_ms_per_step.{phase}"));
        eprintln!(
            "  {:<42} {ms:>10.4} {:>7.1}%",
            format!("  phases.{phase}"),
            ms / step_ms * 100.0
        );
    }
    eprintln!(
        "  {:<42} {:>10} {:>7.1}%",
        "  (untimed by the engine)",
        "",
        out.get("engine.untimed_frac") * 100.0
    );
}
