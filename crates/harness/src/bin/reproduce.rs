//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! reproduce [--scale tiny|test|bench] [--benchmarks a,b,c]
//!           [--only exp1,exp2] [--out DIR] [--jobs N] [--cache-dir DIR]
//!           [--trace-out FILE.jsonl] [--trace-every N] [--list]
//! ```
//!
//! `--list` prints the experiments, one per line, in run order: the
//! names of [`experiments::ALL`], which `--only` accepts.
//!
//! Every experiment runs on one [`Runner`]. Simulations run on a
//! work-stealing thread pool (`--jobs`, default
//! [`std::thread::available_parallelism`]) and are memoized across
//! experiments, so configurations shared between figures are simulated
//! once. With `--cache-dir DIR`, results also persist to a
//! content-addressed on-disk store keyed by (trace fingerprint, config,
//! schema version): a rerun with the same suite parameters replays
//! entirely from disk, simulating nothing. With `--out DIR`, every
//! report is written there as rendered text (`.txt`), serialized JSON
//! (`.json`), and tabular CSV (`.csv`), next to a `BENCH_reproduce.json`
//! that records per-experiment wall-clock timings and the cache
//! counters (written atomically: temp file + rename). Without `--out`,
//! the reports go to stdout only.
//!
//! With `--trace-out`, a structured JSONL event trace is appended as
//! the run progresses: `run_start`/`run_finish`, per-experiment
//! `experiment_start`/`experiment_finish`, one `sim` record per
//! simulation (wall time, cycles, IPC), `cache_hit` records, and —
//! with a non-zero `--trace-every N` stride — sampled per-instruction
//! `pipe` pipeline events. Tracing never changes the rendered tables.

use mds_harness::cli::{parse_reproduce_args, ReproduceArgs, ReproduceCommand, REPRODUCE_USAGE};
use mds_harness::experiments::{self, Artifact, Experiment};
use mds_harness::{emit, Runner, Suite, TraceSink};
use serde::Value;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_reproduce_args(&argv) {
        Ok(ReproduceCommand::Run(args)) => args,
        Ok(ReproduceCommand::Help) => {
            println!("{REPRODUCE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(ReproduceCommand::List) => {
            for name in experiments::names() {
                println!("{name}");
            }
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match reproduce(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// One run: generate traces, drive every requested experiment through a
/// shared [`Runner`], and record timings.
struct Reproduce {
    args: ReproduceArgs,
    runner: Runner,
    /// Per-experiment `(name, wall-clock seconds)`, in run order.
    timings: Vec<(String, f64)>,
}

fn reproduce(args: ReproduceArgs) -> Result<(), String> {
    let total_start = Instant::now();
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    eprintln!(
        "generating {} benchmark traces (~{} dynamic instructions each)...",
        args.benchmarks.len(),
        args.params.dyn_target
    );
    let trace_start = Instant::now();
    let suite = Suite::generate(&args.benchmarks, &args.params)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let trace_seconds = trace_start.elapsed().as_secs_f64();

    let mut runner = Runner::new(suite).with_jobs(args.jobs);
    let faults = mds_harness::cli::effective_fault_plan(args.fault_plan.as_deref())?;
    if faults.is_armed() {
        eprintln!("fault injection armed");
        runner = runner.with_faults(faults);
    }
    if args.durable_cache {
        runner = runner.with_durable_cache();
    }
    if let Some(dir) = &args.cache_dir {
        eprintln!("persistent result cache at {}...", dir.display());
        runner = runner.with_cache_dir(dir);
    }
    if let Some(path) = &args.trace_out {
        let sink = TraceSink::create(path, args.trace_every)
            .map_err(|e| format!("cannot create trace {}: {e}", path.display()))?;
        eprintln!(
            "tracing to {} (pipeline events every {} instructions)...",
            path.display(),
            args.trace_every
        );
        runner = runner.with_trace(sink);
    }
    eprintln!(
        "simulating on {} worker thread(s), memoizing shared configs...",
        runner.jobs()
    );
    runner
        .trace_event(
            "run_start",
            &[
                ("benchmarks", Value::UInt(args.benchmarks.len() as u64)),
                ("dyn_target", Value::UInt(args.params.dyn_target)),
                ("jobs", Value::UInt(runner.jobs() as u64)),
                ("trace_seconds", Value::Float(trace_seconds)),
            ],
        )
        .map_err(|e| format!("cannot write trace: {e}"))?;

    let mut r = Reproduce {
        args,
        runner,
        timings: Vec::new(),
    };
    for (name, experiment) in experiments::ALL {
        r.timed(name, experiment)?;
    }

    let stats = r.runner.stats();
    let total_seconds = total_start.elapsed().as_secs_f64();
    eprintln!(
        "done: {} simulations run, {} requests served from cache ({} from disk, \
         {:.0}% hit rate); {:.2}s simulating across {} thread(s), {:.2}s preparing \
         {} artifact bundle(s), {:.2}s total",
        stats.simulations,
        stats.cache_hits,
        stats.disk_hits,
        100.0 * stats.hit_rate(),
        stats.sim_seconds(),
        r.runner.jobs(),
        stats.prep_seconds(),
        stats.artifact_builds,
        total_seconds,
    );
    let mut finish = stats.report_fields();
    finish.push(("total_seconds", Value::Float(total_seconds)));
    r.runner
        .trace_event("run_finish", &finish)
        .map_err(|e| format!("cannot write trace: {e}"))?;
    if let Some(sink) = r.runner.trace() {
        sink.flush()
            .map_err(|e| format!("cannot flush trace: {e}"))?;
        eprintln!("wrote {} trace event(s)", sink.lines());
    }
    r.write_bench_record(trace_seconds, total_seconds)?;
    Ok(())
}

impl Reproduce {
    fn wants(&self, name: &str) -> bool {
        self.args
            .only
            .as_ref()
            .is_none_or(|v| v.iter().any(|x| x == name))
    }

    /// Runs one experiment if requested, timing it, then emits its
    /// artifacts; an experiment's failure fails the run.
    fn timed(&mut self, name: &str, experiment: Experiment) -> Result<(), String> {
        if !self.wants(name) {
            return Ok(());
        }
        eprintln!("running {name}...");
        self.experiment_event("experiment_start", name, None)?;
        let start = Instant::now();
        let artifacts = experiment(&self.runner)?;
        let seconds = start.elapsed().as_secs_f64();
        self.timings.push((name.to_string(), seconds));
        self.experiment_event("experiment_finish", name, Some(seconds))?;
        artifacts
            .iter()
            .try_for_each(|artifact| self.emit(artifact))
    }

    /// Emits an experiment lifecycle record to the trace, if tracing.
    fn experiment_event(
        &self,
        event: &str,
        name: &str,
        seconds: Option<f64>,
    ) -> Result<(), String> {
        let mut fields = vec![("name", Value::Str(name.to_string()))];
        if let Some(s) = seconds {
            fields.push(("seconds", Value::Float(s)));
        }
        self.runner
            .trace_event(event, &fields)
            .map_err(|e| format!("cannot write trace: {e}"))
    }

    /// Prints one artifact and, with `--out`, writes its `.txt`,
    /// `.json`, and `.csv` forms.
    fn emit(&self, artifact: &Artifact) -> Result<(), String> {
        let Artifact { name, text, value } = artifact;
        println!("{text}");
        let Some(dir) = &self.args.out else {
            return Ok(());
        };
        let write = |path: std::path::PathBuf, content: &str| {
            std::fs::write(&path, content)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        write(dir.join(format!("{name}.txt")), text)?;
        if let Some(value) = value {
            write(dir.join(format!("{name}.json")), &value.to_json())?;
            if let Some(csv) = emit::to_csv(value) {
                write(dir.join(format!("{name}.csv")), &csv)?;
            }
        }
        Ok(())
    }

    /// With `--out`, writes `BENCH_reproduce.json` there with
    /// per-experiment timings and cache stats.
    fn write_bench_record(&self, trace_seconds: f64, total_seconds: f64) -> Result<(), String> {
        let Some(dir) = &self.args.out else {
            return Ok(());
        };
        let experiments: Vec<Value> = self
            .timings
            .iter()
            .map(|(name, seconds)| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(name.clone())),
                    ("seconds".to_string(), Value::Float(*seconds)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("benchmarks", Value::UInt(self.args.benchmarks.len() as u64)),
            ("dyn_target", Value::UInt(self.args.params.dyn_target)),
            ("jobs", Value::UInt(self.runner.jobs() as u64)),
            ("trace_generation_seconds", Value::Float(trace_seconds)),
            ("total_seconds", Value::Float(total_seconds)),
        ];
        fields.extend(self.runner.stats().report_fields());
        fields.push(("experiments", Value::Array(experiments)));
        let record = Value::Object(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        );
        let path = dir.join("BENCH_reproduce.json");
        // Atomic so a killed run (or a concurrent artifact collector)
        // never leaves a truncated record behind.
        emit::write_atomic(&path, &record.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}
