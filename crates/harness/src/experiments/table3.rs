//! Table 3 — fraction of loads delayed by false dependences and their
//! average resolution latency, measured under `NAS/NO` on the 128-entry
//! window.

use crate::experiments::cfg;
use crate::runner::Runner;
use crate::table::{pct, TextTable};
use mds_core::Policy;
use mds_workloads::Benchmark;
use serde::Serialize;

/// One row of Table 3.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Measured fraction of committed loads delayed by a false dependence.
    pub false_dep_fraction: f64,
    /// Measured mean resolution latency (cycles).
    pub resolution_latency: f64,
    /// The paper's FD value.
    pub paper_fd: f64,
    /// The paper's RL value (cycles).
    pub paper_rl: f64,
}

/// The Table 3 report.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Per-benchmark rows.
    pub rows: Vec<Row>,
}

/// The paper's Table 3 values `(FD, RL)`, keyed by benchmark.
pub fn paper_values(b: Benchmark) -> (f64, f64) {
    match b {
        Benchmark::Go => (0.264, 13.7),
        Benchmark::M88ksim => (0.599, 14.8),
        Benchmark::Gcc => (0.390, 47.3),
        Benchmark::Compress => (0.703, 18.5),
        Benchmark::Li => (0.442, 39.1),
        Benchmark::Ijpeg => (0.703, 22.9),
        Benchmark::Perl => (0.598, 39.1),
        Benchmark::Vortex => (0.672, 54.5),
        Benchmark::Tomcatv => (0.612, 36.3),
        Benchmark::Swim => (0.910, 5.4),
        Benchmark::Su2cor => (0.796, 91.2),
        Benchmark::Hydro2d => (0.852, 9.7),
        Benchmark::Mgrid => (0.454, 26.6),
        Benchmark::Applu => (0.454, 26.6),
        Benchmark::Turb3d => (0.770, 55.6),
        Benchmark::Apsi => (0.775, 78.7),
        Benchmark::Fpppp => (0.887, 51.4),
        Benchmark::Wave5 => (0.836, 9.7),
    }
}

/// Measures false dependences under `NAS/NO`.
pub fn run(runner: &Runner) -> Report {
    let rows = runner
        .run(&cfg(Policy::NasNo))
        .into_iter()
        .map(|(b, r)| {
            let (fd, rl) = paper_values(b);
            Row {
                benchmark: b.name().to_string(),
                false_dep_fraction: r.stats.false_dep_fraction(),
                resolution_latency: r.stats.false_dep_latency(),
                paper_fd: fd,
                paper_rl: rl,
            }
        })
        .collect();
    Report { rows }
}

impl Report {
    /// Renders the table with measured-vs-paper columns.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["Program", "FD", "RL", "FD(paper)", "RL(paper)"]);
        for r in &self.rows {
            t.row_owned(vec![
                r.benchmark.clone(),
                pct(r.false_dep_fraction),
                format!("{:.1}", r.resolution_latency),
                pct(r.paper_fd),
                format!("{:.1}", r.paper_rl),
            ]);
        }
        format!(
            "Table 3: loads delayed by false dependences under NAS/NO (128-entry)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_workloads::SuiteParams;

    #[test]
    fn false_dependences_are_widespread() {
        let runner = Runner::new(
            crate::Suite::generate(&[Benchmark::Swim, Benchmark::Gcc], &SuiteParams::tiny())
                .unwrap(),
        );
        let rep = run(&runner);
        // The paper's central observation: many loads (often most) are
        // delayed by false dependences, for many cycles.
        for r in &rep.rows {
            assert!(
                r.false_dep_fraction > 0.10,
                "{}: FD {:.3} suspiciously low",
                r.benchmark,
                r.false_dep_fraction
            );
            assert!(r.resolution_latency > 1.0, "{}", r.benchmark);
        }
        // FP (swim) should out-FD integer (gcc), as in the paper.
        let swim = &rep.rows[0];
        let gcc = &rep.rows[1];
        assert!(swim.false_dep_fraction > gcc.false_dep_fraction);
        assert!(rep.render().contains("Table 3"));
    }
}
