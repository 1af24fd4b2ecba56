//! The workloads, their shared set-up/round loop, and their checks.
//!
//! Every workload sets up [`SETUP_REPEATS`] times, then runs timed
//! rounds of one user-visible operation until its time budget is spent,
//! then checks what it computed. All timings are host time; simulated
//! statistics are outputs, pinned by digest, never metrics.

use crate::measure::{cpu_seconds, fnv1a64, median, peak_rss_mib, Reading, Rng, Tracer};
use crate::probes::{self, Plan};
use mds_core::{CoreConfig, Policy, SimResult, Simulator};
use mds_harness::{experiments, Runner, RunnerStats, Suite};
use mds_workloads::{Benchmark, SuiteParams};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = ["paper_bench", "long_trace", "serve_zipf", "cache_replay"];

pub const DEFAULT_SEED: u64 = 181;

/// FNV-1a-64 digests of each workload's outputs at the default seed and
/// full size. A change that moves a simulated statistic, a rendered
/// report or a service response fails the run. The `paper_bench` pin is
/// also the digest of `reproduce --scale test` stdout.
const PINNED: [(&str, u64); 4] = [
    ("paper_bench", 0x028b_ecf9_2ad9_f08a),
    ("long_trace", 0x7788_3a29_7977_c07d),
    ("serve_zipf", 0xf106_e934_b927_c081),
    ("cache_replay", 0xcc56_a6c4_bd63_b208),
];

/// Set-ups before the first round; `setup_s` is the median of these and
/// of every later suite generation between rounds.
const SETUP_REPEATS: usize = 5;

/// Every scheduling policy the simulator implements, in the order the
/// per-policy metrics are named.
pub const POLICIES: [Policy; 9] = [
    Policy::NasNo,
    Policy::NasNaive,
    Policy::NasSelective,
    Policy::NasStoreBarrier,
    Policy::NasSync,
    Policy::NasStoreSets,
    Policy::NasOracle,
    Policy::AsNo,
    Policy::AsNaive,
];

/// The sweep space of `serve_zipf` and `cache_replay`: 9 policies ×
/// window {32, 64, 128, 256} × address-scheduler latency {0, 1, 2}.
pub fn config_space() -> Vec<CoreConfig> {
    let mut space = Vec::with_capacity(108);
    for policy in POLICIES {
        for window in [32, 64, 128, 256] {
            for latency in [0, 1, 2] {
                space.push(
                    CoreConfig::paper_128()
                        .with_policy(policy)
                        .with_window_size(window)
                        .with_addr_sched_latency(latency),
                );
            }
        }
    }
    space
}

/// The one-config sweep request for `config`, over the whole suite.
pub fn sweep_line(config: &CoreConfig) -> String {
    format!(
        "{{\"op\":\"sweep\",\"configs\":[{{\"policy\":\"{}\",\"window_size\":{},\"addr_sched_latency\":{}}}]}}",
        config.policy.paper_name(),
        config.window_size,
        config.addr_sched_latency
    )
}

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Time budget of the measured rounds.
    pub seconds: f64,
    /// Small inputs, for the smoke test.
    pub smoke: bool,
    /// Worker threads, client threads and connections: at most 2, and
    /// never more than the host has cores.
    pub jobs: usize,
    /// Scratch space (sockets, cache directories), removed afterwards.
    pub work: PathBuf,
    pub out: PathBuf,
    /// Present on the traced run, which also probes every layer.
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// Runs `f` inside a span named `name` when tracing.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => {
                t.enter(name);
                let value = f();
                t.exit();
                value
            }
            None => f(),
        }
    }

    /// Attaches a count to the innermost open span when tracing.
    pub fn note(&self, key: &str, value: u64) {
        if let Some(t) = &self.tracer {
            t.note(key, value);
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// A generator for one purpose, independent of every other purpose's.
    pub fn rng(&self, purpose: u64) -> Rng {
        Rng::new(self.seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Whether this run's digest must equal the pinned one.
    fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.smoke
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub readings: Vec<Reading>,
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted and failed: simulations, or requests for
    /// `serve_zipf`.
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64, n: usize) {
        self.readings.push(Reading {
            name: name.into(),
            unit,
            value,
            n,
        });
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn reading(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// Records the run's output digest, and on the default seed at full
    /// size checks it against the pin.
    pub fn digest(&mut self, ctx: &Ctx, workload: &str, digest: u64) {
        self.digest = digest;
        if ctx.pinned() {
            let pin = PINNED
                .iter()
                .find(|(w, _)| *w == workload)
                .map_or(0, |(_, d)| *d);
            self.check(
                "digest_pinned",
                digest == pin,
                format!("{digest:#018x} against pin {pin:#018x}"),
            );
        }
    }

    /// The end-to-end readings every workload reports (`cpu_ms` is
    /// printed, not gated: on a shared host it spreads too widely).
    pub fn end_to_end(&mut self, setup: &[f64], op: &OpTimer, ops: usize, rss_mib: f64) {
        self.push("setup_s", "s", median(setup), setup.len());
        self.push("latency_ms", "ms", median(&op.wall) * 1e3, op.wall.len());
        self.push("cpu_ms", "ms", op.cpu / ops as f64 * 1e3, ops);
        self.push("peak_rss_mb", "MiB", rss_mib, 1);
    }

    /// The runner layer's counts over one measured operation.
    pub fn runner_layer(&mut self, stats: &RunnerStats, wall_s: f64, jobs: usize) {
        let requests = stats.simulations + stats.cache_hits;
        self.push("runner.simulations", "count", stats.simulations as f64, 1);
        self.push(
            "runner.memo_hit_frac",
            "ratio",
            stats.cache_hits as f64 / requests.max(1) as f64,
            requests as usize,
        );
        self.push("runner.lane_batches", "count", stats.lane_batches as f64, 1);
        self.push(
            "runner.busy_frac",
            "ratio",
            stats.sim_seconds() / (wall_s * jobs as f64),
            1,
        );
    }

    /// Interpreter cost per generated instruction, over one suite.
    pub fn isa_layer(&mut self, suite: &Suite) {
        let nanos: u64 = suite.iter().map(|(b, _)| suite.gen_nanos(b)).sum();
        let instrs: usize = suite.iter().map(|(_, t)| t.len()).sum();
        self.push(
            "isa.trace_gen_ns_per_instr",
            "ns",
            nanos as f64 / instrs as f64,
            suite.len(),
        );
    }
}

/// Wall and CPU time of each timed operation.
#[derive(Default)]
pub struct OpTimer {
    pub wall: Vec<f64>,
    /// CPU seconds summed over every timed operation.
    pub cpu: f64,
}

impl OpTimer {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> Result<T, String> {
        let pid = std::process::id();
        let cpu = cpu_seconds(pid)?;
        let start = Instant::now();
        let value = f();
        self.wall.push(start.elapsed().as_secs_f64());
        self.cpu += cpu_seconds(pid)? - cpu;
        Ok(value)
    }
}

/// Runs a workload's set-up [`SETUP_REPEATS`] times, returning each
/// duration and the last result. Each earlier result is dropped before
/// the next set-up starts, so peak memory holds one.
pub fn setup<T>(
    ctx: &Ctx,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(ctx.span("setup", &mut f)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((times, last.expect("at least one set-up")))
}

/// Runs rounds until the budget is spent: at least one, and none that
/// the previous round's duration says would overrun it.
fn rounds(ctx: &Ctx, mut round: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let budget = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    loop {
        let begun = Instant::now();
        ctx.span("round", &mut round)?;
        if start.elapsed() + begun.elapsed() > budget {
            return Ok(());
        }
    }
}

/// Timed rounds, each on a fresh runner (built by `runner`) over a
/// freshly generated suite; `first`, when given, serves the first round.
/// Every generation here is one more `setup` sample, so set-up is
/// sampled across the whole run, not only before it. The timed
/// operation is building the runner and calling `work` on it. Returns
/// what `work` returned each round, and the last round's runner.
fn runner_rounds<T>(
    ctx: &Ctx,
    first: Option<Suite>,
    gen: impl Fn() -> Result<Suite, String>,
    setup: &mut Vec<f64>,
    runner: impl Fn(Suite) -> Runner,
    op: &mut OpTimer,
    mut work: impl FnMut(&Runner) -> T,
) -> Result<(Vec<T>, Runner), String> {
    let mut first = first;
    let mut last: Option<Runner> = None;
    let mut results = Vec::new();
    rounds(ctx, || {
        drop(last.take());
        let suite = match first.take() {
            Some(suite) => suite,
            None => {
                let start = Instant::now();
                let suite = gen()?;
                setup.push(start.elapsed().as_secs_f64());
                suite
            }
        };
        let (built, value) = op.time(|| {
            let built = runner(suite);
            let value = work(&built);
            (built, value)
        })?;
        ctx.note("simulations", built.stats().simulations);
        results.push(value);
        last = Some(built);
        Ok(())
    })?;
    Ok((results, last.expect("at least one round")))
}

fn generate(benchmarks: &[Benchmark], params: &SuiteParams) -> Result<Suite, String> {
    Suite::generate(benchmarks, params).map_err(|e| format!("workload generation failed: {e}"))
}

/// The `Debug` form of every result's statistics, in order.
fn stats_debug<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> String {
    results
        .into_iter()
        .map(|r| format!("{:?}\n", r.stats))
        .collect()
}

/// Re-simulates each pair cycle by cycle (fast-forward off) and requires
/// statistics identical to the runner's.
fn per_cycle_check(
    out: &mut Outcome,
    runner: &Runner,
    pairs: &[(Benchmark, CoreConfig)],
) -> Result<(), String> {
    let mut mismatched = Vec::new();
    for (benchmark, config) in pairs {
        let fast = runner.run_pairs(&[(*benchmark, config.clone())])?;
        let slow = Simulator::new(config.clone()).run_per_cycle(runner.suite().trace(*benchmark));
        if stats_debug(&fast) != stats_debug([&slow]) {
            mismatched.push(format!("{benchmark} under {}", config.policy));
        }
    }
    out.check(
        "per_cycle_equal",
        mismatched.is_empty(),
        format!("{} seeded pairs; mismatched: {mismatched:?}", pairs.len()),
    );
    Ok(())
}

/// `count` seeded (benchmark, config) pairs.
fn sample_pairs(
    rng: &mut Rng,
    benchmarks: &[Benchmark],
    configs: &[CoreConfig],
    count: usize,
) -> Vec<(Benchmark, CoreConfig)> {
    (0..count)
        .map(|_| {
            (
                benchmarks[rng.below(benchmarks.len())],
                configs[rng.below(configs.len())].clone(),
            )
        })
        .collect()
}

fn paper_configs() -> Vec<CoreConfig> {
    POLICIES
        .iter()
        .map(|&p| CoreConfig::paper_128().with_policy(p))
        .collect()
}

/// Renders every experiment in `reproduce`'s order, exactly as
/// `reproduce` prints them to stdout, recording each experiment's time.
fn paper_pass(
    ctx: &Ctx,
    runner: &Runner,
    params: &SuiteParams,
    times: &mut Vec<(&'static str, f64)>,
) -> Result<String, String> {
    let mut stdout = String::new();
    let mut timed = |name: &'static str, f: &dyn Fn() -> Result<Vec<String>, String>| {
        let start = Instant::now();
        let texts = ctx.span(name, f)?;
        times.push((name, start.elapsed().as_secs_f64()));
        for text in texts {
            stdout.push_str(&text);
            stdout.push('\n');
        }
        Ok::<(), String>(())
    };
    use experiments as x;
    timed("table1", &|| Ok(vec![x::table1::run(runner).render()]))?;
    timed("table2", &|| {
        Ok(vec![x::table2::render(&CoreConfig::paper_128())])
    })?;
    timed("fig1", &|| Ok(vec![x::fig1::run(runner).render()]))?;
    timed("table3", &|| Ok(vec![x::table3::run(runner).render()]))?;
    timed("fig2", &|| Ok(vec![x::fig2::run(runner).render()]))?;
    timed("fig3", &|| Ok(vec![x::fig3::run(runner).render()]))?;
    timed("fig4", &|| Ok(vec![x::fig4::run(runner).render()]))?;
    timed("fig5", &|| Ok(vec![x::fig5::run(runner).render()]))?;
    timed("fig6", &|| Ok(vec![x::fig6::run(runner).render()]))?;
    timed("table4", &|| Ok(vec![x::table4::run(runner).render()]))?;
    timed("fig7", &|| Ok(vec![x::fig7::run(runner).render()]))?;
    timed("summary", &|| Ok(vec![x::summary::run(runner).render()]))?;
    timed("cpistack", &|| Ok(vec![x::cpistack::run(runner).render()]))?;
    timed("ablations", &|| {
        use x::ablation as a;
        Ok(vec![
            a::predictor_size(runner, &[256, 1024, 4096, 16384]).render(),
            a::flush_interval(runner, &[Some(100_000), Some(1_000_000), None]).render(),
            a::store_sets(runner).render(),
            a::recovery(runner).render(),
            a::branch_predictors(runner).render(),
            a::window_sweep(runner, &[32, 64, 128, 256]).render(),
        ])
    })?;
    timed("stability", &|| {
        x::stability::run(
            &runner.suite().benchmarks(),
            params,
            &[params.seed, 0x1234, 0xDEAD_BEEF],
            runner.jobs(),
            None,
        )
        .map(|report| vec![report.render()])
        .map_err(|e| format!("stability experiment failed: {e}"))
    })?;
    Ok(stdout)
}

/// `paper_bench`: every experiment of `reproduce`, in its order, over
/// the 18-benchmark suite at test size, on one fresh runner per round.
/// Test size (~20k instructions per benchmark) keeps a round near 5 s,
/// so a run's median covers several rounds.
pub fn paper_bench(ctx: &Ctx) -> Result<Outcome, String> {
    let params = SuiteParams {
        seed: ctx.seed,
        ..if ctx.smoke {
            SuiteParams::tiny()
        } else {
            SuiteParams::test()
        }
    };
    let gen = || generate(&Benchmark::ALL, &params);
    let (mut setup_s, suite) = setup(ctx, gen)?;
    let mut out = Outcome::default();
    let mut op = OpTimer::default();
    let mut experiment_s: Vec<(&'static str, f64)> = Vec::new();
    let (texts, runner) = runner_rounds(
        ctx,
        Some(suite),
        gen,
        &mut setup_s,
        |suite| Runner::new(suite).with_jobs(ctx.jobs),
        &mut op,
        |runner| paper_pass(ctx, runner, &params, &mut experiment_s),
    )?;
    let texts: Vec<String> = texts.into_iter().collect::<Result<_, _>>()?;
    let stats = runner.stats();
    out.attempted = stats.simulations * texts.len() as u64;
    let rss = peak_rss_mib(std::process::id())?;
    out.end_to_end(&setup_s, &op, op.wall.len(), rss);
    // Each round timed the same experiments in the same order.
    let per_round = experiment_s.len() / texts.len();
    for (i, (name, _)) in experiment_s[..per_round].iter().enumerate() {
        let samples: Vec<f64> = experiment_s
            .iter()
            .skip(i)
            .step_by(per_round)
            .map(|(_, s)| *s)
            .collect();
        out.push(
            format!("runner.experiment_s.{name}"),
            "s",
            median(&samples),
            samples.len(),
        );
    }

    let text = texts.last().expect("one text per round");
    std::fs::write(ctx.out.join("paper_bench.txt"), text)
        .map_err(|e| format!("cannot write paper_bench.txt: {e}"))?;
    out.check(
        "rounds_identical",
        texts.iter().all(|t| t == text),
        format!("{} rounds", texts.len()),
    );
    out.digest(ctx, "paper_bench", fnv1a64(text.as_bytes()));
    let pairs = sample_pairs(&mut ctx.rng(1), &Benchmark::ALL, &paper_configs(), 8);
    ctx.span("check", || per_cycle_check(&mut out, &runner, &pairs))?;

    if ctx.traced() {
        out.isa_layer(runner.suite());
        out.runner_layer(&stats, *op.wall.last().expect("a round"), ctx.jobs);
        let plan = Plan::standard(&mut ctx.rng(2), &Benchmark::ALL, 2, 3, paper_configs(), 2);
        probes::probe(ctx, runner, &plan, &mut out)?;
    }
    Ok(out)
}

/// The configurations `long_trace` sweeps.
fn long_configs() -> Vec<CoreConfig> {
    let mut configs = Vec::new();
    for policy in [
        Policy::NasNo,
        Policy::NasNaive,
        Policy::NasSync,
        Policy::AsNaive,
    ] {
        for window in [64, 128] {
            configs.push(
                CoreConfig::paper_128()
                    .with_policy(policy)
                    .with_window_size(window),
            );
        }
    }
    configs
}

/// `long_trace`: two ~1M-instruction traces (about 40 MB each) swept
/// over 8 configurations by one fresh runner per round.
pub fn long_trace(ctx: &Ctx) -> Result<Outcome, String> {
    let benchmarks = [Benchmark::Gcc, Benchmark::Swim];
    let params = SuiteParams {
        dyn_target: if ctx.smoke { 40_000 } else { 1_000_000 },
        seed: ctx.seed,
        max_steps: if ctx.smoke { 400_000 } else { 4_000_000 },
    };
    let configs = long_configs();
    let gen = || generate(&benchmarks, &params);
    let (mut setup_s, suite) = setup(ctx, gen)?;
    let mut out = Outcome::default();
    let mut op = OpTimer::default();
    let (digests, runner) = runner_rounds(
        ctx,
        Some(suite),
        gen,
        &mut setup_s,
        |suite| Runner::new(suite).with_jobs(ctx.jobs),
        &mut op,
        |runner| {
            let results = runner.run_batch(&configs);
            fnv1a64(stats_debug(results.iter().flatten().map(|(_, r)| r)).as_bytes())
        },
    )?;
    let stats = runner.stats();
    out.attempted = stats.simulations * digests.len() as u64;
    let rss = peak_rss_mib(std::process::id())?;
    out.end_to_end(&setup_s, &op, op.wall.len(), rss);
    let records: usize = runner.suite().iter().map(|(_, t)| t.len()).sum();
    out.push("trace_records", "count", records as f64, benchmarks.len());

    out.check(
        "rounds_identical",
        digests.iter().all(|d| *d == digests[0]),
        format!("{} rounds", digests.len()),
    );
    out.digest(ctx, "long_trace", digests[0]);
    let pairs = sample_pairs(&mut ctx.rng(1), &benchmarks, &configs, 1);
    ctx.span("check", || per_cycle_check(&mut out, &runner, &pairs))?;

    if ctx.traced() {
        out.isa_layer(runner.suite());
        out.runner_layer(&stats, *op.wall.last().expect("a round"), ctx.jobs);
        let plan = Plan::standard(&mut ctx.rng(2), &[Benchmark::Gcc], 1, 1, configs, 1);
        probes::probe(ctx, runner, &plan, &mut out)?;
    }
    Ok(out)
}

/// `cache_replay`: a cold round fills a fresh disk cache with the
/// 108-config sweep of the tiny suite, then warm rounds, each a fresh
/// runner over the same directory, replay it from disk.
pub fn cache_replay(ctx: &Ctx) -> Result<Outcome, String> {
    let benchmarks: &[Benchmark] = if ctx.smoke {
        &[Benchmark::Compress, Benchmark::Swim, Benchmark::Gcc]
    } else {
        &Benchmark::ALL
    };
    let params = SuiteParams {
        seed: ctx.seed,
        ..SuiteParams::tiny()
    };
    let configs = config_space();
    let entries = (configs.len() * benchmarks.len()) as u64;
    let dir = ctx.work.join("cache");
    let (mut setup_s, cold) = setup(ctx, || {
        let _ = std::fs::remove_dir_all(&dir);
        Ok(Runner::new(generate(benchmarks, &params)?)
            .with_jobs(ctx.jobs)
            .with_cache_dir(&dir))
    })?;
    let mut out = Outcome::default();

    let start = Instant::now();
    let cold_results = ctx.span("cold", || cold.run_batch(&configs));
    out.push("cold_s", "s", start.elapsed().as_secs_f64(), 1);
    let cold_stats = cold.stats();
    out.attempted = cold_stats.simulations;
    out.failed = cold_stats.disk_write_errors;
    let cold_digest =
        fnv1a64(stats_debug(cold_results.iter().flatten().map(|(_, r)| r)).as_bytes());
    drop((cold, cold_results));
    out.check(
        "cold_round_fills_cache",
        cold_stats.simulations == entries && cold_stats.disk_writes == entries,
        format!(
            "{} simulations and {} disk writes for {entries} entries",
            cold_stats.simulations, cold_stats.disk_writes
        ),
    );

    let mut op = OpTimer::default();
    let gen = || generate(benchmarks, &params);
    let (warm, runner) = runner_rounds(
        ctx,
        None,
        gen,
        &mut setup_s,
        |suite| Runner::new(suite).with_jobs(ctx.jobs).with_cache_dir(&dir),
        &mut op,
        |runner| {
            let results = runner.run_batch(&configs);
            let digest = fnv1a64(stats_debug(results.iter().flatten().map(|(_, r)| r)).as_bytes());
            (digest, runner.stats())
        },
    )?;
    let bad_rounds: Vec<String> = warm
        .iter()
        .enumerate()
        .filter(|(_, (digest, stats))| {
            *digest != cold_digest || stats.simulations != 0 || stats.disk_hits != entries
        })
        .map(|(i, (digest, stats))| {
            format!(
                "round {i}: {} simulations, {} disk hits, digest {digest:#x}",
                stats.simulations, stats.disk_hits
            )
        })
        .collect();
    let rss = peak_rss_mib(std::process::id())?;
    out.end_to_end(&setup_s, &op, op.wall.len(), rss);
    out.check(
        "warm_rounds_replay_cold",
        bad_rounds.is_empty(),
        format!(
            "{} warm rounds of {entries} disk hits, 0 simulations, equal to the cold round; bad: {bad_rounds:?}",
            op.wall.len()
        ),
    );
    out.digest(ctx, "cache_replay", cold_digest);

    if ctx.traced() {
        out.isa_layer(runner.suite());
        out.runner_layer(&runner.stats(), *op.wall.last().expect("a round"), ctx.jobs);
        let plan = Plan::standard(&mut ctx.rng(2), benchmarks, 2, 3, configs, 8);
        probes::probe(ctx, runner, &plan, &mut out)?;
    }
    Ok(out)
}
