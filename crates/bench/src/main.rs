//! `halox-bench` — regenerate the paper's figures on the timing simulator
//! (`fig3`…`fig8`, `ablation`, `validate` and four views of one simulated
//! step) and soak the functional plane for correctness (`ftrace`, `serve`,
//! `soak`; each exits 1 on a failed check). It times nothing: see
//! `benchmarks/README.md` for the perf ledger.

use halox_bench::{ablation, chart, figures, ftrace, functional, report, serve, soak, validate};
use std::path::Path;

/// Every subcommand, in the order the usage text lists them.
const SUBCOMMANDS: [&str; 16] = [
    "all",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ablation",
    "validate",
    "critical-path",
    "gantt",
    "sweep",
    "trace",
    "ftrace",
    "serve",
    "soak",
];

fn print_and_save(checks: &[halox_bench::validate::Check], results: &Path) -> bool {
    let ok = validate::print_report(checks);
    report::write_csv(&results.join("validation.csv"), checks).unwrap();
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let results = Path::new("results");

    let run_fig = |name: &str| match name {
        "fig3" => {
            let rows = figures::fig3();
            report::print_perf_table(
                "Fig 3: intra-node MPI vs NVSHMEM (DGX-H100, 4/8 GPUs)",
                &rows,
            );
            report::write_csv(&results.join("fig3.csv"), &rows).unwrap();
            std::fs::write(
                results.join("fig3.svg"),
                chart::scaling_chart("Fig 3: intra-node strong scaling (DGX-H100)", &rows),
            )
            .unwrap();
        }
        "fig4" => {
            let rows = figures::fig4();
            report::print_perf_table("Fig 4: NVSHMEM strong scaling on GB200 NVL72", &rows);
            report::write_csv(&results.join("fig4.csv"), &rows).unwrap();
            std::fs::write(
                results.join("fig4.svg"),
                chart::scaling_chart("Fig 4: NVSHMEM strong scaling (GB200 NVL72)", &rows),
            )
            .unwrap();
            let est = figures::fig4_mpi_estimate();
            report::print_perf_table(
                "Fig 4 aside: estimated MPI on MNNVL (paper footnote: ~2x NVSHMEM win at scale)",
                &est,
            );
            report::write_csv(&results.join("fig4_mpi_estimate.csv"), &est).unwrap();
        }
        "fig5" => {
            let rows = figures::fig5();
            report::print_perf_table("Fig 5: multi-node MPI vs NVSHMEM on Eos", &rows);
            report::write_csv(&results.join("fig5.csv"), &rows).unwrap();
            std::fs::write(
                results.join("fig5.svg"),
                chart::scaling_chart("Fig 5: multi-node strong scaling (Eos)", &rows),
            )
            .unwrap();
        }
        "fig6" => {
            let rows = figures::fig6();
            report::print_timing_table("Fig 6: device-side timing, intra-node (4 ranks)", &rows);
            report::write_csv(&results.join("fig6.csv"), &rows).unwrap();
        }
        "fig7" => {
            let rows = figures::fig7();
            report::print_timing_table("Fig 7: device-side timing, 11.25k atoms/GPU", &rows);
            report::write_csv(&results.join("fig7.csv"), &rows).unwrap();
        }
        "fig8" => {
            let rows = figures::fig8();
            report::print_timing_table("Fig 8: device-side timing, 90k atoms/GPU", &rows);
            report::write_csv(&results.join("fig8.csv"), &rows).unwrap();
        }
        "ablation" => {
            for (name, rows) in [
                ("prune_stream", ablation::prune_stream()),
                ("proxy_pinning", ablation::proxy_pinning()),
                ("cuda_graphs", ablation::cuda_graphs()),
                ("fusion", ablation::fusion()),
            ] {
                println!("\n== Ablation: {name} ==");
                for r in &rows {
                    println!(
                        "  {:<28} {:>8} {:>10.0} ns/day {:>+7.1}%",
                        r.variant, r.backend, r.ns_per_day, r.delta_vs_base_pct
                    );
                }
                report::write_csv(&results.join(format!("ablation_{name}.csv")), &rows).unwrap();
            }
        }
        "validate" => {
            let checks = validate::run_all();
            let ok = print_and_save(&checks, results);
            if !ok {
                std::process::exit(1);
            }
        }
        "critical-path" => {
            functional::print_critical_paths();
        }
        "gantt" => {
            functional::print_gantt();
        }
        "sweep" => {
            // halox-bench sweep <atoms> <nodes> [machine]
            let atoms: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(720_000);
            let nodes: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(8);
            let machine = args.get(3).map(String::as_str).unwrap_or("eos");
            functional::print_sweep(atoms, nodes, machine);
        }
        "trace" => {
            let path = results.join("nvshmem_step_trace.json");
            functional::export_trace(&path);
            println!(
                "wrote {} (open in chrome://tracing or Perfetto)",
                path.display()
            );
        }
        "ftrace" => {
            ftrace::run(results);
        }
        "serve" => {
            // halox-bench serve [jobs] [pool_worlds] — multi-job service
            // load (PE substrate via HALOX_BACKEND, like the test suite).
            let jobs: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(200);
            let pool: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(4);
            serve::run(results, jobs, pool);
        }
        "soak" => {
            // halox-bench soak [seed] — checkpoint/restart kill loop
            // (PE substrate via HALOX_BACKEND, like the test suite).
            let seed: u64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(1);
            soak::run(results, seed);
        }
        other => {
            eprintln!("unknown subcommand: {other}");
            eprintln!("subcommands: {}", SUBCOMMANDS.join(" "));
            eprintln!("timings live in the perf ledger: see benchmarks/README.md");
            std::process::exit(2);
        }
    };

    if what == "all" {
        for f in [
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "ablation",
            "critical-path",
            "trace",
            "ftrace",
            "validate",
        ] {
            run_fig(f);
        }
    } else {
        run_fig(what);
    }
}
