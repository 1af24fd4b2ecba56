//! Beyond the paper: CPI-stack stall attribution per policy.
//!
//! For each of the paper's main policies, every simulated cycle is
//! charged either to commit or to exactly one
//! [`StallCause`](mds_core::StallCause) — so the per-row fractions sum
//! to 1 and the stack shows *where* the cycles the policies fight over
//! actually go: false dependences under `NAS/NO`, squash recovery under
//! `NAS/NAV`, scheduler latency under the `AS` modes, and so on.

use crate::experiments::cfg;
use crate::runner::Runner;
use crate::table::{pct, TextTable};
use mds_core::{Policy, SimStats, StallCause};
use mds_obs::{merge, snapshot};
use serde::{Serialize, Value};

/// The policies whose stacks the report compares.
pub const POLICIES: [Policy; 6] = [
    Policy::NasNo,
    Policy::NasNaive,
    Policy::NasSync,
    Policy::NasOracle,
    Policy::AsNo,
    Policy::AsNaive,
];

/// One CPI-stack row: cycle fractions for one (policy, benchmark) pair
/// (the `all` rows aggregate a policy over the whole suite).
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Paper-style policy name (e.g. `NAS/SYNC`).
    pub policy: String,
    /// Benchmark name, or `all` for the per-policy aggregate.
    pub benchmark: String,
    /// Total attributed cycles.
    pub cycles: u64,
    /// Fraction of cycles that committed at least one instruction.
    pub commit: f64,
    /// Front-end starvation (empty window).
    pub empty_window: f64,
    /// Head load blocked by a real memory dependence.
    pub true_dependence: f64,
    /// Head load blocked by a false memory dependence.
    pub false_dependence: f64,
    /// Head load delayed by an explicit dependence prediction.
    pub sync_delay: f64,
    /// Head memory op waiting on the address scheduler.
    pub scheduler_latency: f64,
    /// Window empty while recovering from a squash.
    pub squash_recovery: f64,
    /// Head load draining a data-cache miss.
    pub cache_miss: f64,
    /// Everything else (register dependences, ports, bubbles).
    pub other: f64,
}

/// Five-number summary of one aggregated histogram.
#[derive(Debug, Clone, Serialize)]
pub struct HistSummary {
    /// Paper-style policy name.
    pub policy: String,
    /// Histogram name (`false_dep_delay`, `squash_penalty`, ...).
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median upper bound (log2 bucket edge).
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// The CPI-stack report.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Per-(policy, benchmark) rows followed by per-policy `all` rows.
    pub rows: Vec<Row>,
    /// Histogram summaries of the per-policy aggregates.
    pub histograms: Vec<HistSummary>,
    /// Full metric snapshots of the per-policy aggregates, keyed by
    /// policy name (every counter, gauge, and histogram the stats
    /// expose, dot-namespaced).
    pub metrics: Value,
}

fn row(policy: &str, benchmark: &str, stats: &SimStats) -> Row {
    let s = &stats.cpi;
    Row {
        policy: policy.to_string(),
        benchmark: benchmark.to_string(),
        cycles: s.total_cycles(),
        commit: s.commit_fraction(),
        empty_window: s.fraction(StallCause::EmptyWindow),
        true_dependence: s.fraction(StallCause::TrueDependence),
        false_dependence: s.fraction(StallCause::FalseDependence),
        sync_delay: s.fraction(StallCause::SyncDelay),
        scheduler_latency: s.fraction(StallCause::SchedulerLatency),
        squash_recovery: s.fraction(StallCause::SquashRecovery),
        cache_miss: s.fraction(StallCause::CacheMiss),
        other: s.fraction(StallCause::Other),
    }
}

fn summaries(policy: &str, stats: &SimStats) -> Vec<HistSummary> {
    [
        ("false_dep_delay", &stats.false_dep_delay),
        ("squash_penalty", &stats.squash_penalty),
        ("window_occupancy", &stats.window_occupancy),
        ("forward_distance", &stats.forward_distance),
    ]
    .into_iter()
    .map(|(name, h)| HistSummary {
        policy: policy.to_string(),
        name: name.to_string(),
        count: h.count(),
        mean: h.mean(),
        p50: h.percentile(0.50).unwrap_or(0),
        p90: h.percentile(0.90).unwrap_or(0),
        p99: h.percentile(0.99).unwrap_or(0),
        max: h.max().unwrap_or(0),
    })
    .collect()
}

/// Builds the CPI stacks for every policy in [`POLICIES`].
pub fn run(runner: &Runner) -> Report {
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    let mut histograms = Vec::new();
    let mut metrics = Vec::new();
    for policy in POLICIES {
        let name = policy.paper_name();
        let mut agg = SimStats::default();
        for (b, r) in runner.run(&cfg(policy)) {
            rows.push(row(name, b.name(), &r.stats));
            merge(&mut agg, &r.stats);
        }
        totals.push(row(name, "all", &agg));
        histograms.extend(summaries(name, &agg));
        metrics.push((name.to_string(), snapshot(&agg)));
    }
    rows.extend(totals);
    Report {
        rows,
        histograms,
        metrics: Value::Object(metrics),
    }
}

impl Report {
    /// Renders the stacks (per-benchmark and aggregate) plus the
    /// histogram summaries.
    pub fn render(&self) -> String {
        let mut headers = vec!["Policy", "Program", "cycles", "commit"];
        headers.extend(StallCause::ALL.iter().map(|c| c.label()));
        let mut t = TextTable::new(&headers);
        for r in &self.rows {
            t.row_owned(vec![
                r.policy.clone(),
                r.benchmark.clone(),
                r.cycles.to_string(),
                pct(r.commit),
                pct(r.empty_window),
                pct(r.true_dependence),
                pct(r.false_dependence),
                pct(r.sync_delay),
                pct(r.scheduler_latency),
                pct(r.squash_recovery),
                pct(r.cache_miss),
                pct(r.other),
            ]);
        }
        let mut h = TextTable::new(&[
            "Policy",
            "histogram",
            "count",
            "mean",
            "p50",
            "p90",
            "p99",
            "max",
        ]);
        for s in &self.histograms {
            h.row_owned(vec![
                s.policy.clone(),
                s.name.clone(),
                s.count.to_string(),
                format!("{:.1}", s.mean),
                s.p50.to_string(),
                s.p90.to_string(),
                s.p99.to_string(),
                s.max.to_string(),
            ]);
        }
        format!(
            "CPI stack: cycle attribution at the window head (128-entry)\n{}\n\
             Distributions (per-policy aggregates)\n{}",
            t.render(),
            h.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_workloads::{Benchmark, SuiteParams};

    #[test]
    fn stacks_partition_and_tell_the_paper_story() {
        let runner = Runner::new(
            crate::Suite::generate(
                &[Benchmark::Compress, Benchmark::Swim],
                &SuiteParams::tiny(),
            )
            .unwrap(),
        );
        let rep = run(&runner);
        // One row per (policy, benchmark) plus one aggregate per policy.
        assert_eq!(rep.rows.len(), POLICIES.len() * 3);
        for r in &rep.rows {
            let sum = r.commit
                + r.empty_window
                + r.true_dependence
                + r.false_dependence
                + r.sync_delay
                + r.scheduler_latency
                + r.squash_recovery
                + r.cache_miss
                + r.other;
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{} {}: {sum}",
                r.policy,
                r.benchmark
            );
            assert!(r.cycles > 0, "{} {}", r.policy, r.benchmark);
        }
        // NAS/NO pays dependence stalls; speculation (NAS/NAV) removes
        // the false ones, and the oracle never charges a false one.
        let all = |p: &str| {
            rep.rows
                .iter()
                .find(|r| r.policy == p && r.benchmark == "all")
        };
        let no = all("NAS/NO").unwrap();
        assert!(
            no.true_dependence + no.false_dependence > 0.0,
            "NAS/NO should charge dependence stalls"
        );
        let nav = all("NAS/NAV").unwrap();
        assert!(
            nav.false_dependence < no.false_dependence,
            "naive speculation should shrink false-dependence stalls \
             (NAV {} vs NO {})",
            nav.false_dependence,
            no.false_dependence
        );
        let oracle = all("NAS/ORACLE").unwrap();
        assert_eq!(oracle.false_dependence, 0.0, "oracle has no false deps");
        // Histogram summaries cover every policy aggregate.
        assert_eq!(rep.histograms.len(), POLICIES.len() * 4);
        let occ = rep
            .histograms
            .iter()
            .find(|h| h.policy == "NAS/NO" && h.name == "window_occupancy")
            .unwrap();
        assert_eq!(occ.count, no.cycles, "occupancy sampled once per cycle");
        // Metric snapshots are one object per policy.
        assert_eq!(rep.metrics.as_object().unwrap().len(), POLICIES.len());
        let text = rep.render();
        assert!(text.contains("CPI stack"));
        assert!(text.contains("falsedep"));
        assert!(text.contains("NAS/ORACLE"));
    }
}
