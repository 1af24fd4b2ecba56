//! The `reproduce` binary's experiment list is the experiment table.

use mds_harness::experiments;
use std::process::Command;

#[test]
fn list_prints_the_experiment_table_in_run_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("--list")
        .output()
        .expect("reproduce runs");
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(listed, experiments::names());
}
