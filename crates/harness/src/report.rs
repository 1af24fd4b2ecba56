//! Post-hoc analysis of observability artifacts, backing the
//! `mds-report` binary.
//!
//! [`analyze_spans`] aggregates the span records a traced run (or
//! server) appended to its JSONL stream into per-phase latency tables,
//! per-benchmark time breakdowns, the slowest configurations, and
//! cache-hit / queue-wait summaries.
//!
//! Everything here consumes artifacts *after the fact*; nothing in this
//! module runs simulations or touches the live registry. Durations are
//! summed with saturating adds, so a corrupt or adversarial trace pins
//! a total at `u64::MAX` instead of wrapping or panicking.

use crate::table::TextTable;
use serde::Value;
use std::collections::HashMap;

/// The leaf phases a `config_run` span tree decomposes into, in
/// pipeline order. Container spans (`resolve`, `config_run`, `recv`,
/// `claim`, `dedup_join`) overlap their children, so only these leaves
/// participate in the "share" column.
const LEAF_PHASES: [&str; 6] = [
    "trace_gen",
    "artifact_build",
    "queue_wait",
    "simulate",
    "disk_read",
    "disk_write",
];

/// One span record pulled out of the JSONL stream.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    dur_ns: u64,
    /// The `benchmark` field, on `config_run` spans.
    benchmark: Option<String>,
    /// The `policy` field, on `config_run` spans.
    policy: Option<String>,
}

/// Latency statistics for one span name.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Span name (`simulate`, `queue_wait`, ...).
    pub name: String,
    /// Number of spans observed.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Median duration in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile duration in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile duration in nanoseconds.
    pub p99_ns: u64,
}

/// Per-benchmark time attribution across the leaf phases.
#[derive(Debug, Clone)]
pub struct BenchmarkStat {
    /// Benchmark name from the `config_run` spans.
    pub benchmark: String,
    /// Number of `config_run` trees attributed to this benchmark.
    pub configs: u64,
    /// Summed wall time of those trees in nanoseconds.
    pub total_ns: u64,
    /// Summed leaf-phase nanoseconds, keyed by phase name.
    pub phase_ns: HashMap<String, u64>,
}

/// One executed configuration, for the slowest-configs table.
#[derive(Debug, Clone)]
pub struct ConfigStat {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy label.
    pub policy: String,
    /// The `config_run` span's duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregated view of one span-traced run.
#[derive(Debug, Clone)]
pub struct SpanReport {
    /// Per-span-name latency stats, leaf phases first.
    pub phases: Vec<PhaseStat>,
    /// Per-benchmark leaf-phase breakdowns, sorted by total time.
    pub benchmarks: Vec<BenchmarkStat>,
    /// Every `config_run`, sorted slowest-first.
    pub configs: Vec<ConfigStat>,
    /// Count of each non-span event name seen in the stream.
    pub events: HashMap<String, u64>,
    /// Total JSONL lines consumed.
    pub lines: u64,
    /// Total span records among them.
    pub spans: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn saturating_sum(durs: impl IntoIterator<Item = u64>) -> u64 {
    durs.into_iter().fold(0, u64::saturating_add)
}

/// Parses a span/event JSONL stream and aggregates its span records.
///
/// Lines must each be a JSON object; records with `"event": "span"`
/// feed the report, every other event is merely counted. Returns an
/// error on malformed JSON or on span records missing their core
/// fields.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn analyze_spans(jsonl: &str) -> Result<SpanReport, String> {
    let mut spans: Vec<Span> = Vec::new();
    let mut events: HashMap<String, u64> = HashMap::new();
    let mut lines = 0u64;
    for (i, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        lines += 1;
        let v = Value::parse_json(line).map_err(|e| format!("line {}: bad JSON: {e}", i + 1))?;
        let event = v
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: record has no event field", i + 1))?;
        if event != "span" {
            *events.entry(event.to_string()).or_insert(0) += 1;
            continue;
        }
        let field = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {}: span record has no {key}", i + 1))
        };
        spans.push(Span {
            id: field("span")?,
            parent: v.get("parent").and_then(Value::as_u64),
            name: v
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: span record has no name", i + 1))?
                .to_string(),
            dur_ns: field("dur_ns")?,
            benchmark: v.get("benchmark").and_then(Value::as_str).map(String::from),
            policy: v.get("policy").and_then(Value::as_str).map(String::from),
        });
    }
    Ok(aggregate(spans, events, lines))
}

fn aggregate(spans: Vec<Span>, events: HashMap<String, u64>, lines: u64) -> SpanReport {
    // Per-name duration samples.
    let mut by_name: HashMap<&str, Vec<u64>> = HashMap::new();
    for s in &spans {
        by_name.entry(&s.name).or_default().push(s.dur_ns);
    }
    let mut names: Vec<&str> = by_name.keys().copied().collect();
    // Leaf phases first (pipeline order), then everything else by name.
    names.sort_by_key(|n| {
        (
            LEAF_PHASES
                .iter()
                .position(|p| p == n)
                .unwrap_or(LEAF_PHASES.len()),
            n.to_string(),
        )
    });
    let phases: Vec<PhaseStat> = names
        .iter()
        .map(|name| {
            let mut durs = by_name[*name].clone();
            durs.sort_unstable();
            PhaseStat {
                name: name.to_string(),
                count: durs.len() as u64,
                total_ns: saturating_sum(durs.iter().copied()),
                p50_ns: percentile(&durs, 0.50),
                p95_ns: percentile(&durs, 0.95),
                p99_ns: percentile(&durs, 0.99),
            }
        })
        .collect();

    // Attribute leaf phases to their enclosing config_run (direct
    // parent edge only: the trees are two levels deep by construction).
    let mut owner_bench: HashMap<u64, String> = HashMap::new();
    let mut bench_stats: HashMap<String, BenchmarkStat> = HashMap::new();
    let mut configs: Vec<ConfigStat> = Vec::new();
    for s in &spans {
        if s.name != "config_run" {
            continue;
        }
        let bench = s.benchmark.clone().unwrap_or_else(|| "?".to_string());
        owner_bench.insert(s.id, bench.clone());
        let entry = bench_stats
            .entry(bench.clone())
            .or_insert_with(|| BenchmarkStat {
                benchmark: bench.clone(),
                configs: 0,
                total_ns: 0,
                phase_ns: HashMap::new(),
            });
        entry.configs += 1;
        entry.total_ns = entry.total_ns.saturating_add(s.dur_ns);
        configs.push(ConfigStat {
            benchmark: bench,
            policy: s.policy.clone().unwrap_or_else(|| "?".to_string()),
            dur_ns: s.dur_ns,
        });
    }
    for s in &spans {
        let Some(parent) = s.parent else { continue };
        let Some(bench) = owner_bench.get(&parent) else {
            continue;
        };
        if LEAF_PHASES.contains(&s.name.as_str()) {
            let entry = bench_stats.get_mut(bench).expect("owner registered above");
            let total = entry.phase_ns.entry(s.name.clone()).or_insert(0);
            *total = total.saturating_add(s.dur_ns);
        }
    }
    let mut benchmarks: Vec<BenchmarkStat> = bench_stats.into_values().collect();
    benchmarks.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then(a.benchmark.cmp(&b.benchmark))
    });
    configs.sort_by_key(|c| std::cmp::Reverse(c.dur_ns));

    SpanReport {
        phases,
        benchmarks,
        configs,
        events,
        lines,
        spans: spans.len() as u64,
    }
}

impl SpanReport {
    /// Summed duration of one span name, zero when absent.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.total_ns)
    }

    /// Number of spans with the given name.
    pub fn count(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.count)
    }

    /// Fraction of executed-config wall time spent waiting in the job
    /// queue: `Σ queue_wait / Σ config_run`. Zero when nothing ran.
    pub fn queue_wait_share(&self) -> f64 {
        let total = self.total_ns("config_run");
        if total == 0 {
            return 0.0;
        }
        self.total_ns("queue_wait") as f64 / total as f64
    }

    /// Memory-cache hit rate over all resolved requests: `cache_hit`
    /// events against `cache_hit + disk_read + simulate`.
    pub fn cache_hit_rate(&self) -> f64 {
        let memory = self.events.get("cache_hit").copied().unwrap_or(0);
        let served = memory + self.count("disk_read") + self.count("simulate");
        if served == 0 {
            return 0.0;
        }
        memory as f64 / served as f64
    }

    /// Renders the full report: phase table, per-benchmark breakdown,
    /// the `top` slowest configs, and the summary block.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str("== Phase latency (ms) ==\n");
        let leaf_total = saturating_sum(LEAF_PHASES.iter().map(|p| self.total_ns(p)));
        let mut t = TextTable::new(&["phase", "count", "total", "share", "p50", "p95", "p99"]);
        for p in &self.phases {
            let share = if LEAF_PHASES.contains(&p.name.as_str()) && leaf_total > 0 {
                format!("{:.1}%", 100.0 * p.total_ns as f64 / leaf_total as f64)
            } else {
                "-".to_string()
            };
            t.row_owned(vec![
                p.name.clone(),
                p.count.to_string(),
                ms(p.total_ns),
                share,
                ms(p.p50_ns),
                ms(p.p95_ns),
                ms(p.p99_ns),
            ]);
        }
        out.push_str(&t.render());

        if !self.benchmarks.is_empty() {
            out.push_str("\n== Per-benchmark time breakdown (ms) ==\n");
            let mut t = TextTable::new(&[
                "benchmark",
                "configs",
                "total",
                "simulate",
                "queue_wait",
                "artifacts",
                "disk",
            ]);
            for b in &self.benchmarks {
                let phase = |n: &str| b.phase_ns.get(n).copied().unwrap_or(0);
                t.row_owned(vec![
                    b.benchmark.clone(),
                    b.configs.to_string(),
                    ms(b.total_ns),
                    ms(phase("simulate")),
                    ms(phase("queue_wait")),
                    ms(phase("artifact_build").saturating_add(phase("trace_gen"))),
                    ms(phase("disk_read").saturating_add(phase("disk_write"))),
                ]);
            }
            out.push_str(&t.render());
        }

        if !self.configs.is_empty() {
            out.push_str(&format!("\n== Slowest configs (top {top}, ms) ==\n"));
            let mut t = TextTable::new(&["benchmark", "policy", "wall"]);
            for c in self.configs.iter().take(top) {
                t.row_owned(vec![c.benchmark.clone(), c.policy.clone(), ms(c.dur_ns)]);
            }
            out.push_str(&t.render());
        }

        out.push_str("\n== Summary ==\n");
        let memory = self.events.get("cache_hit").copied().unwrap_or(0);
        out.push_str(&format!(
            "lines: {}  spans: {}  simulations: {}  memory hits: {}  disk reads: {}  disk writes: {}\n",
            self.lines,
            self.spans,
            self.count("simulate"),
            memory,
            self.count("disk_read"),
            self.count("disk_write"),
        ));
        out.push_str(&format!(
            "cache hit rate: {:.1}%  queue-wait share of config wall time: {:.1}%\n",
            100.0 * self.cache_hit_rate(),
            100.0 * self.queue_wait_share(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature but structurally faithful span stream: one resolve
    /// root, two config_run trees with all leaf phases, one memory-hit
    /// event.
    const FIXTURE: &str = r#"
{"event":"run_start","jobs":2}
{"event":"span","name":"trace_gen","span":3,"parent":2,"start_ns":0,"dur_ns":4000000,"amortized":true}
{"event":"span","name":"artifact_build","span":4,"parent":2,"start_ns":10,"dur_ns":2000000,"cached":false}
{"event":"span","name":"queue_wait","span":5,"parent":2,"start_ns":20,"dur_ns":1000000}
{"event":"span","name":"simulate","span":6,"parent":2,"start_ns":30,"dur_ns":8000000,"wall_ns":8000000}
{"event":"sim","benchmark":"compress","cycles":100}
{"event":"span","name":"disk_write","span":7,"parent":2,"start_ns":40,"dur_ns":500000}
{"event":"span","name":"config_run","span":2,"parent":1,"start_ns":0,"dur_ns":12000000,"benchmark":"compress","policy":"NAS/NO"}
{"event":"span","name":"trace_gen","span":8,"parent":9,"start_ns":0,"dur_ns":4000000,"amortized":true}
{"event":"span","name":"artifact_build","span":10,"parent":9,"start_ns":10,"dur_ns":0,"cached":true}
{"event":"span","name":"queue_wait","span":11,"parent":9,"start_ns":20,"dur_ns":3000000}
{"event":"span","name":"simulate","span":12,"parent":9,"start_ns":30,"dur_ns":6000000,"wall_ns":6000000}
{"event":"sim","benchmark":"swim","cycles":100}
{"event":"span","name":"disk_write","span":13,"parent":9,"start_ns":40,"dur_ns":500000}
{"event":"span","name":"config_run","span":9,"parent":1,"start_ns":0,"dur_ns":10000000,"benchmark":"swim","policy":"NAS/NAV"}
{"event":"cache_hit","benchmark":"compress"}
{"event":"span","name":"resolve","span":1,"parent":null,"start_ns":0,"dur_ns":14000000,"requested":3}
"#;

    #[test]
    fn aggregates_phases_benchmarks_and_configs() {
        let report = analyze_spans(FIXTURE).expect("fixture parses");
        assert_eq!(report.spans, 13);
        assert_eq!(report.count("simulate"), 2);
        assert_eq!(report.total_ns("simulate"), 14_000_000);
        assert_eq!(report.count("config_run"), 2);
        assert_eq!(report.events.get("cache_hit"), Some(&1));
        assert_eq!(report.events.get("sim"), Some(&2));

        // Leaf phases come first, in pipeline order.
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "trace_gen",
                "artifact_build",
                "queue_wait",
                "simulate",
                "disk_write",
                "config_run",
                "resolve"
            ]
        );

        // Benchmarks sorted slowest-first, phases attributed via the
        // parent edge.
        assert_eq!(report.benchmarks.len(), 2);
        assert_eq!(report.benchmarks[0].benchmark, "compress");
        assert_eq!(report.benchmarks[0].phase_ns["simulate"], 8_000_000);
        assert_eq!(report.benchmarks[1].phase_ns["queue_wait"], 3_000_000);

        assert_eq!(report.configs[0].policy, "NAS/NO");

        // queue share = 4ms / 22ms; hit rate = 1 / (1 + 0 + 2).
        assert!((report.queue_wait_share() - 4.0 / 22.0).abs() < 1e-9);
        assert!((report.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-9);

        let text = report.render(5);
        assert!(text.contains("== Phase latency"));
        assert!(text.contains("compress"));
        assert!(text.contains("NAS/NO"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(analyze_spans("{not json}").is_err());
        assert!(analyze_spans("{\"no_event\":1}").is_err());
        assert!(analyze_spans("{\"event\":\"span\",\"name\":\"x\"}").is_err());
    }

    fn max_span(name: &str, id: u64, parent: u64) -> String {
        format!(
            r#"{{"event":"span","name":"{name}","span":{id},"parent":{parent},"start_ns":0,"dur_ns":{},"benchmark":"compress"}}"#,
            u64::MAX
        )
    }

    #[test]
    fn huge_durations_saturate_instead_of_wrapping() {
        let two = [max_span("simulate", 1, 0), max_span("simulate", 2, 0)].join("\n");
        let report = analyze_spans(&two).expect("parses");
        assert_eq!(report.total_ns("simulate"), u64::MAX);
        report.render(5);

        // Per-benchmark totals, phase sums and the combined columns.
        let mut lines = Vec::new();
        for run in [10, 20] {
            lines.push(max_span("config_run", run, 0));
            for (i, leaf) in ["trace_gen", "artifact_build", "disk_read", "disk_write"]
                .into_iter()
                .enumerate()
            {
                lines.push(max_span(leaf, run + 1 + i as u64, run));
            }
        }
        let report = analyze_spans(&lines.join("\n")).expect("parses");
        assert_eq!(report.benchmarks[0].total_ns, u64::MAX);
        assert_eq!(report.benchmarks[0].phase_ns["disk_read"], u64::MAX);
        report.render(5);
    }
}
