//! The binary's error path: what a mistyped or retired subcommand prints.

use std::process::{Command, Output};

fn run(subcommand: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_halox-bench"))
        .arg(subcommand)
        .output()
        .expect("run halox-bench")
}

#[test]
fn unknown_subcommand_lists_the_subcommands_and_points_at_the_ledger() {
    let out = run("threads");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand: threads"), "{err}");
    let list = err
        .lines()
        .find_map(|l| l.strip_prefix("subcommands: "))
        .unwrap_or_else(|| panic!("no subcommand list in: {err}"));
    assert_eq!(
        list,
        "all fig3 fig4 fig5 fig6 fig7 fig8 ablation validate critical-path gantt sweep trace \
         ftrace serve soak"
    );
    let pointers: Vec<&str> = err
        .lines()
        .filter(|l| l.contains("benchmarks/README.md"))
        .collect();
    assert_eq!(pointers.len(), 1, "{err}");
}

/// The fault-plan sweep and the backend-agreement matrix live in the test
/// suite (`tests/chaos_engine.rs`, `tests/functional_equivalence.rs`).
#[test]
fn retired_test_sweeps_are_unknown_subcommands() {
    for retired in ["chaos", "functional"] {
        let out = run(retired);
        assert_eq!(out.status.code(), Some(2), "{retired}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown subcommand: {retired}")),
            "{err}"
        );
    }
}
