//! Smoke test: every workload at `--smoke` size.
//!
//! Needs `mds-serve` and `reproduce` in the same target directory as
//! `mdsbench`; from the repository root:
//!
//! ```text
//! export CARGO_TARGET_DIR=target
//! cargo build --release --workspace
//! cargo test --release --manifest-path mdsbench/Cargo.toml
//! ```

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["paper_bench", "long_trace", "serve_zipf", "cache_replay"];

fn mdsbench() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mdsbench"))
}

/// A workspace binary built next to `mdsbench`.
fn sibling(name: &str) -> PathBuf {
    let path = mdsbench().with_file_name(name);
    assert!(
        path.is_file(),
        "{} is missing: build the workspace first (cargo build --release --workspace) \
         with the same CARGO_TARGET_DIR as this test",
        path.display()
    );
    path
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `kind`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = Value::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    json.get(kind)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let text = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

/// Runs one workload at smoke size; returns its stdout and its last line.
fn run(workload: &str, traced: bool, out: &Path) -> (String, Value) {
    let output = Command::new(mdsbench())
        .args(["--workload", workload, "--smoke", "--seconds", "0.5"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} (traced {traced}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = Value::parse_json(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    assert!(last.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    (stdout, last)
}

/// The last line carries exactly the declared metrics, each with its unit.
fn assert_metrics(last: &Value, declared: &[(String, String)]) {
    let metrics = last.get("metrics").and_then(Value::as_object).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want);
    for (name, unit) in declared {
        let m = last.get("metrics").unwrap().get(name).unwrap();
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        assert!(m.get("value").and_then(Value::as_f64).unwrap().is_finite());
    }
}

/// Every span's parent exists and encloses it, and no self time is
/// negative.
fn assert_spans_nest(out: &Path, workload: &str) {
    let text = std::fs::read_to_string(out.join(format!("{workload}.spans.jsonl"))).unwrap();
    let spans: Vec<Value> = text
        .lines()
        .map(|l| Value::parse_json(l).unwrap())
        .collect();
    assert!(!spans.is_empty(), "{workload} wrote no spans");
    let field = |s: &Value, k: &str| s.get(k).and_then(Value::as_u64);
    for span in &spans {
        let Some(parent) = field(span, "parent") else {
            continue;
        };
        let p = spans
            .iter()
            .find(|s| field(s, "span") == Some(parent))
            .unwrap_or_else(|| panic!("{workload}: span parent {parent} missing"));
        let (start, dur) = (
            field(span, "start_ns").unwrap(),
            field(span, "dur_ns").unwrap(),
        );
        let (p_start, p_dur) = (field(p, "start_ns").unwrap(), field(p, "dur_ns").unwrap());
        // A microsecond of slack: start and duration come from two
        // readings of the monotonic clock.
        assert!(start >= p_start, "{workload}: {span:?} starts before {p:?}");
        assert!(
            start + dur <= p_start + p_dur + 1_000,
            "{workload}: {span:?} ends after {p:?}"
        );
    }
    let record = std::fs::read_to_string(out.join(format!("{workload}.traced.json"))).unwrap();
    let record = Value::parse_json(&record).unwrap();
    let self_times = record
        .get("self_time_s")
        .and_then(Value::as_object)
        .unwrap();
    assert!(!self_times.is_empty());
    for (name, seconds) in self_times {
        assert!(
            seconds.as_f64().unwrap() >= 0.0,
            "{workload}: self time of {name}"
        );
    }
}

#[test]
fn every_workload_reports_its_declared_metrics_and_paper_bench_matches_reproduce() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    sibling("mds-serve");
    let reproduce = sibling("reproduce");
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");

    let (_, last) = run("long_trace", false, &out);
    assert_metrics(&last, &end_to_end);
    for workload in WORKLOADS {
        let (stdout, last) = run(workload, true, &out);
        assert_metrics(&last, &per_layer);
        // The report lines name every metric with its unit.
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            assert!(
                stdout.lines().any(|l| {
                    let words: Vec<&str> = l.split_whitespace().collect();
                    words.first() == Some(&name.as_str()) && words.get(2) == Some(&unit.as_str())
                }),
                "{workload} did not print {name} in {unit}"
            );
        }
        assert_spans_nest(&out, workload);
    }

    // paper_bench at smoke size is the default seed at tiny scale: the
    // exact computation `reproduce --scale tiny` runs.
    let expected = Command::new(reproduce)
        .args(["--scale", "tiny", "--jobs", "2", "--out"])
        .arg(out.join("reproduce"))
        .output()
        .unwrap();
    assert!(expected.status.success());
    let rendered = std::fs::read(out.join("paper_bench.txt")).unwrap();
    assert!(
        rendered == expected.stdout,
        "paper_bench output differs from reproduce --scale tiny --jobs 2"
    );
    std::fs::remove_dir_all(&out).unwrap();
}
