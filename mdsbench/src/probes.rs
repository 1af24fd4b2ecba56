//! Per-layer probes of the traced run. Each layer is timed from
//! outside, through its public functions, on the workload's own traces:
//! `TraceArtifacts::build`, solo `Simulator::run_with_artifacts`,
//! `Simulator::run_lanes`, `SweepService::handle_line`, and the disk
//! tier under `Runner::run_batch`.

use crate::measure::{median, percentile, Rng};
use crate::workloads::{sweep_line, Ctx, Outcome, POLICIES};
use mds_core::{CoreConfig, Policy, Simulator, TraceArtifacts};
use mds_harness::{ConfigKey, Runner, SweepService};
use mds_workloads::Benchmark;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Cache hits replayed per distinct configuration of a standard plan.
const HITS_PER_CONFIG: usize = 4;

/// The policies the lane probe batches together.
const LANE_POLICIES: [Policy; 4] = [
    Policy::NasNo,
    Policy::NasNaive,
    Policy::NasSync,
    Policy::AsNaive,
];

/// What the probes run.
pub struct Plan {
    /// (benchmark, config) pairs simulated solo, each `repeats` times.
    pub sims: Vec<(Benchmark, CoreConfig)>,
    pub repeats: usize,
    /// One trace and the configs batched over it; every pair is also in
    /// `sims`, whose solo times the batch is compared against.
    pub lanes: (Benchmark, Vec<CoreConfig>),
    /// Sweep requests replayed in process, as indices into `configs`.
    pub configs: Vec<CoreConfig>,
    pub requests: Vec<usize>,
}

impl Plan {
    /// Every policy on `per_policy` seeded benchmarks, lanes on the first
    /// of them, and `distinct` seeded configs each requested once cold
    /// and then [`HITS_PER_CONFIG`] times warm.
    pub fn standard(
        rng: &mut Rng,
        benchmarks: &[Benchmark],
        per_policy: usize,
        repeats: usize,
        configs: Vec<CoreConfig>,
        distinct: usize,
    ) -> Plan {
        let picks: Vec<Benchmark> = rng
            .permutation(benchmarks.len())
            .into_iter()
            .take(per_policy)
            .map(|i| benchmarks[i])
            .collect();
        let paper = |p: Policy| CoreConfig::paper_128().with_policy(p);
        let requests = rng
            .permutation(configs.len())
            .into_iter()
            .take(distinct)
            .flat_map(|i| std::iter::repeat_n(i, 1 + HITS_PER_CONFIG))
            .collect();
        Plan {
            sims: picks
                .iter()
                .flat_map(|&b| POLICIES.map(|p| (b, paper(p))))
                .collect(),
            repeats,
            lanes: (picks[0], LANE_POLICIES.map(paper).to_vec()),
            configs,
            requests,
        }
    }
}

/// Metric-name form of a policy (`NAS/NO` → `NAS-NO`).
fn policy_label(policy: Policy) -> String {
    policy.paper_name().replace('/', "-")
}

/// Runs every probe. The core probes borrow `runner`'s traces; the
/// service and disk probes then take the runner over. Returns the
/// replayed responses, in request order.
pub fn probe(
    ctx: &Ctx,
    runner: Runner,
    plan: &Plan,
    out: &mut Outcome,
) -> Result<Vec<String>, String> {
    ctx.span("probe_core", || core_probes(ctx, &runner, plan, out));
    ctx.span("probe_service", || service_probe(ctx, runner, plan, out))
}

fn core_probes(ctx: &Ctx, runner: &Runner, plan: &Plan, out: &mut Outcome) {
    let suite = runner.suite();
    let mut artifacts: HashMap<Benchmark, TraceArtifacts> = HashMap::new();
    let (mut build_ns, mut records) = (0.0, 0);
    ctx.span("artifact_build", || {
        for (benchmark, trace) in suite.iter() {
            let start = Instant::now();
            let built = TraceArtifacts::build(trace);
            build_ns += start.elapsed().as_nanos() as f64;
            records += trace.len();
            artifacts.insert(benchmark, built);
        }
    });
    out.push(
        "core.artifact_build_ns_per_record",
        "ns",
        build_ns / records as f64,
        suite.len(),
    );

    // Solo simulations: the median of each pair's repeats.
    let mut solo: HashMap<(Benchmark, ConfigKey), (f64, String)> = HashMap::new();
    let mut per_instr: Vec<(Policy, f64)> = Vec::new();
    let (mut exec_ns, mut exec_cycles, mut skipped, mut cycles) = (0.0, 0u64, 0u64, 0u64);
    ctx.span("simulate", || {
        for (benchmark, config) in &plan.sims {
            let trace = suite.trace(*benchmark);
            let sim = Simulator::new(config.clone());
            let mut times = Vec::with_capacity(plan.repeats);
            let mut result = None;
            for _ in 0..plan.repeats {
                let start = Instant::now();
                result = Some(sim.run_with_artifacts(trace, &artifacts[benchmark]));
                times.push(start.elapsed().as_nanos() as f64);
            }
            let result = result.expect("at least one repeat");
            let ns = median(&times);
            per_instr.push((config.policy, ns / trace.len() as f64));
            exec_ns += ns;
            exec_cycles += result.stats.cycles - result.skipped_cycles;
            skipped += result.skipped_cycles;
            cycles += result.stats.cycles;
            solo.insert(
                (*benchmark, ConfigKey::of(config)),
                (ns, format!("{:?}", result.stats)),
            );
        }
        ctx.note("simulations", (plan.sims.len() * plan.repeats) as u64);
    });
    let all: Vec<f64> = per_instr.iter().map(|(_, v)| *v).collect();
    out.push("core.sim_ns_per_instr", "ns", median(&all), all.len());
    out.push(
        "core.sim_ns_per_instr_p90",
        "ns",
        percentile(&all, 0.9),
        all.len(),
    );
    out.push("core.sim_samples", "count", all.len() as f64, 1);
    for policy in POLICIES {
        let own: Vec<f64> = per_instr
            .iter()
            .filter(|(p, _)| *p == policy)
            .map(|(_, v)| *v)
            .collect();
        out.push(
            format!("core.sim_ns_per_instr.{}", policy_label(policy)),
            "ns",
            median(&own),
            own.len(),
        );
    }
    out.push(
        "core.sim_ns_per_exec_cycle",
        "ns",
        exec_ns / exec_cycles as f64,
        plan.sims.len(),
    );
    out.push(
        "core.skip_frac",
        "ratio",
        skipped as f64 / cycles as f64,
        plan.sims.len(),
    );

    // Lanes: the same configs on the same trace, batched, against the
    // sum of their solo times.
    let (benchmark, configs) = &plan.lanes;
    let trace = suite.trace(*benchmark);
    let mut times = Vec::with_capacity(plan.repeats);
    let mut laned = Vec::new();
    ctx.span("lanes", || {
        for _ in 0..plan.repeats {
            let start = Instant::now();
            laned = Simulator::run_lanes(trace, &artifacts[benchmark], configs);
            times.push(start.elapsed().as_nanos() as f64);
        }
    });
    let laned_ns = median(&times);
    let mut solo_ns = 0.0;
    let mut equal = true;
    for (config, result) in configs.iter().zip(&laned) {
        let (ns, stats) = &solo[&(*benchmark, ConfigKey::of(config))];
        solo_ns += ns;
        equal &= *stats == format!("{:?}", result.stats);
    }
    out.check(
        "lanes_equal_solo",
        equal,
        format!("{} configs batched over {benchmark}", configs.len()),
    );
    out.push(
        "core.lanes_ns_per_instr",
        "ns",
        laned_ns / (trace.len() * configs.len()) as f64,
        times.len(),
    );
    out.push("core.lane_gain", "ratio", solo_ns / laned_ns, times.len());
}

/// Replays the plan's requests through an in-process `SweepService` over
/// a disk-backed runner, then re-reads every result from disk.
fn service_probe(
    ctx: &Ctx,
    runner: Runner,
    plan: &Plan,
    out: &mut Outcome,
) -> Result<Vec<String>, String> {
    runner.clear_cache();
    let dir = ctx.work.join("probe-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let benchmarks = runner.suite().len() as u64;
    let service = SweepService::new(runner.with_cache_dir(&dir));
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    let mut responses = Vec::with_capacity(plan.requests.len());
    ctx.span("handle_line", || {
        for &i in &plan.requests {
            let line = sweep_line(&plan.configs[i]);
            let before = service.runner().stats().simulations;
            let start = Instant::now();
            let (response, _) = service.handle_line(&line);
            let ns = start.elapsed().as_nanos() as f64;
            if service.runner().stats().simulations > before {
                miss_ns.push(ns);
            } else {
                hit_ns.push(ns);
            }
            responses.push(response);
        }
        ctx.note("requests", plan.requests.len() as u64);
    });
    let errors = responses
        .iter()
        .filter(|r| !r.starts_with("{\"ok\":true"))
        .count();
    out.check(
        "service_replay_ok",
        errors == 0 && !hit_ns.is_empty() && !miss_ns.is_empty(),
        format!(
            "{} requests: {} hits, {} misses, {errors} errors",
            responses.len(),
            hit_ns.len(),
            miss_ns.len()
        ),
    );
    if hit_ns.is_empty() || miss_ns.is_empty() {
        return Err("the service probe needs at least one hit and one miss".to_string());
    }
    out.push(
        "service.handle_hit_us",
        "us",
        median(&hit_ns) / 1e3,
        hit_ns.len(),
    );
    out.push(
        "service.handle_miss_ms",
        "ms",
        median(&miss_ns) / 1e6,
        miss_ns.len(),
    );
    out.push("service.hits", "count", hit_ns.len() as f64, 1);
    out.push("service.misses", "count", miss_ns.len() as f64, 1);

    let mut distinct: Vec<usize> = Vec::new();
    for &i in &plan.requests {
        if !distinct.contains(&i) {
            distinct.push(i);
        }
    }
    let configs: Vec<CoreConfig> = distinct.iter().map(|&i| plan.configs[i].clone()).collect();
    let runner = service.runner();
    runner.clear_cache();
    let before = runner.stats();
    let start = Instant::now();
    ctx.span("disk_read", || runner.run_batch(&configs));
    let read_ns = start.elapsed().as_nanos() as f64;
    let after = runner.stats();
    let hits = after.disk_hits - before.disk_hits;
    let expected = configs.len() as u64 * benchmarks;
    out.check(
        "disk_replay_complete",
        hits == expected && after.simulations == before.simulations,
        format!("{hits} disk hits of {expected}"),
    );
    out.push(
        "disk.read_us_per_hit",
        "us",
        read_ns / 1e3 / hits.max(1) as f64,
        hits as usize,
    );
    // Write-back time is program-reported: the runner's own
    // `phase.disk_write_us` histogram, read through `obs_snapshot`.
    let obs = runner.obs_snapshot();
    let writes = obs
        .histogram("phase.disk_write_us")
        .ok_or("no disk writes were recorded")?;
    out.push(
        "disk.write_us_per_entry",
        "us",
        writes.mean(),
        writes.count() as usize,
    );
    let (files, bytes) = dir_usage(&dir)?;
    out.push(
        "disk.entry_bytes",
        "B",
        bytes as f64 / files.max(1) as f64,
        files as usize,
    );
    Ok(responses)
}

/// Number of files and their total size under `dir`.
fn dir_usage(dir: &Path) -> Result<(u64, u64), String> {
    let mut totals = (0, 0);
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("cannot stat {}: {e}", entry.path().display()))?;
        if meta.is_dir() {
            let (f, b) = dir_usage(&entry.path())?;
            totals = (totals.0 + f, totals.1 + b);
        } else {
            totals = (totals.0 + 1, totals.1 + meta.len());
        }
    }
    Ok(totals)
}
