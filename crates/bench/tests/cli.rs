//! The binary's error path: what a mistyped or retired subcommand prints.

use std::process::Command;

#[test]
fn unknown_subcommand_lists_the_subcommands_and_points_at_the_ledger() {
    let out = Command::new(env!("CARGO_BIN_EXE_halox-bench"))
        .arg("threads")
        .output()
        .expect("run halox-bench");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand: threads"), "{err}");
    let list = err
        .lines()
        .find_map(|l| l.strip_prefix("subcommands: "))
        .unwrap_or_else(|| panic!("no subcommand list in: {err}"));
    assert_eq!(
        list,
        "all fig3 fig4 fig5 fig6 fig7 fig8 ablation functional validate critical-path gantt \
         sweep trace ftrace chaos serve soak"
    );
    let pointers: Vec<&str> = err
        .lines()
        .filter(|l| l.contains("benchmarks/README.md"))
        .collect();
    assert_eq!(pointers.len(), 1, "{err}");
}
