//! `mdsbench` — the repository's pinned host-performance benchmark.
//!
//! ```text
//! mdsbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!          [--out DIR] [--repeat N] [--smoke]
//! mdsbench compare A.json B.json
//! ```
//!
//! One workload per process. `--workload all` and `--repeat N` re-run
//! this binary once per workload (and per repeat), so peak memory and
//! allocator state belong to one workload. A single-workload run prints
//! every reading with its unit and sample count, then, as its last line,
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with the
//! end-to-end metrics declared in `BENCHMARK.json` (`--trace 0`) or the
//! per-layer ones (`--trace 1`, which also probes each layer and writes
//! its spans to `OUT/NAME.spans.jsonl`). It exits nonzero when a check
//! fails.

mod measure;
mod probes;
mod serve;
mod workloads;

use measure::{host_record, median, quartiles, relative_iqr, self_times, Tracer};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Ctx, DEFAULT_SEED, WORKLOADS};

/// The metric declarations (names, units, directions, bounds) are the
/// repository's `BENCHMARK.json`, compiled in.
const DECLARATIONS: &str = include_str!("../../BENCHMARK.json");

/// Runs per side before `compare` calls anything better.
const MIN_CLAIM_RUNS: usize = 10;

const USAGE: &str =
    "usage: mdsbench --workload paper_bench|long_trace|serve_zipf|cache_replay|all\n\
     \x20               [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--repeat N] [--smoke]\n\
     \x20      mdsbench compare A/repeat.json B/repeat.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    repeat: Option<usize>,
    smoke: bool,
}

enum Cli {
    Run(Args),
    Compare(PathBuf, PathBuf),
    Help,
}

fn parse_args(argv: &[String]) -> Result<Cli, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => Ok(Cli::Compare(a.into(), b.into())),
            _ => Err(format!("compare takes two files\n{USAGE}")),
        };
    }
    let mut args = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from("bench-out"),
        repeat: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if w != "all" && !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}\n{USAGE}"));
                }
                args.workload = w.clone();
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--repeat" => {
                let v = value()?;
                args.repeat = Some(v.parse().ok().filter(|n| *n > 0).ok_or_else(|| bad(v))?);
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Ok(Cli::Help),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Cli::Run(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Cli::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Compare(a, b)) => compare(&a, &b),
        Ok(Cli::Run(args)) if args.repeat.is_some() => repeat(&args),
        Ok(Cli::Run(args)) if args.workload == "all" => all(&args),
        Ok(Cli::Run(args)) => run_one(&args),
        Err(msg) => Err(msg),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mdsbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One metric declared in `BENCHMARK.json`.
struct Decl {
    name: String,
    unit: String,
    higher_better: bool,
    bound: f64,
}

/// The declared (end-to-end, per-layer) metrics.
fn declarations() -> (Vec<Decl>, Vec<Decl>) {
    let json = Value::parse_json(DECLARATIONS).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| -> Vec<Decl> {
        json.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("a {key} entry has no {k}"))
                        .to_string()
                };
                Decl {
                    name: text("name"),
                    unit: text("unit"),
                    higher_better: text("better") == "higher",
                    bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                }
            })
            .collect()
    };
    (list("end_to_end"), list("per_layer"))
}

fn float(v: f64) -> Value {
    Value::Float(v)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn run_file(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "{workload}{}.json",
        if traced { ".traced" } else { "" }
    ))
}

/// Runs one workload in this process.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload.as_str();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let work = args.out.join(format!("work-{w}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        jobs: nproc.min(2),
        work: work.clone(),
        out: args.out.clone(),
        tracer: args.trace.then(Tracer::new),
    };
    let host = host_record();
    let result = match w {
        "paper_bench" => workloads::paper_bench(&ctx),
        "long_trace" => workloads::long_trace(&ctx),
        "serve_zipf" => serve::serve_zipf(&ctx),
        "cache_replay" => workloads::cache_replay(&ctx),
        other => unreachable!("workload {other} was validated"),
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = result?;

    println!(
        "mdsbench {w}: seed {} seconds {} traced {} smoke {} jobs {}",
        args.seed, args.seconds, args.trace, args.smoke, ctx.jobs
    );
    println!("  host {}", host.to_json());
    for r in &outcome.readings {
        println!("  {:<40} {:>16.6} {:<6} n={}", r.name, r.value, r.unit, r.n);
    }
    let mut layer_self = Vec::new();
    if let Some(tracer) = &ctx.tracer {
        let spans = args.out.join(format!("{w}.spans.jsonl"));
        tracer.write(&spans)?;
        println!("  spans written to {}; self time by span:", spans.display());
        for (name, seconds) in self_times(&tracer.records()) {
            println!("    {name:<38} {seconds:>16.6} s");
            layer_self.push((name, float(seconds)));
        }
    }
    let failed_checks = outcome.checks.iter().filter(|(_, ok, _)| !ok).count() as u64;
    for (name, ok, detail) in &outcome.checks {
        println!(
            "  check {name}: {} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let failed = outcome.failed + failed_checks;
    let correct = failed == 0;

    let (end_to_end, per_layer) = declarations();
    let declared = if args.trace { per_layer } else { end_to_end };
    let mut metrics = Vec::new();
    for d in &declared {
        let r = outcome
            .readings
            .iter()
            .find(|r| r.name == d.name)
            .ok_or_else(|| format!("{w} did not measure the declared metric {}", d.name))?;
        if r.unit != d.unit {
            return Err(format!(
                "{} is measured in {}, declared in {}",
                d.name, r.unit, d.unit
            ));
        }
        metrics.push((
            d.name.clone(),
            obj(vec![
                ("value", float(r.value)),
                ("unit", Value::Str(d.unit.clone())),
            ]),
        ));
    }

    let record = obj(vec![
        ("workload", Value::Str(w.to_string())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", float(args.seconds)),
        ("traced", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("host", host),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(failed)),
        ("digest", Value::Str(format!("{:#018x}", outcome.digest))),
        (
            "readings",
            Value::Object(
                outcome
                    .readings
                    .iter()
                    .map(|r| {
                        (
                            r.name.clone(),
                            obj(vec![
                                ("value", float(r.value)),
                                ("unit", Value::Str(r.unit.to_string())),
                                ("n", Value::UInt(r.n as u64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "self_time_s",
            Value::Object(layer_self.into_iter().collect()),
        ),
        (
            "checks",
            Value::Array(
                outcome
                    .checks
                    .iter()
                    .map(|(name, ok, detail)| {
                        obj(vec![
                            ("name", Value::Str(name.clone())),
                            ("ok", Value::Bool(*ok)),
                            ("detail", Value::Str(detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = run_file(&args.out, w, args.trace);
    std::fs::write(&path, record.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{}",
        obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::UInt(outcome.attempted)),
            ("failed", Value::UInt(failed)),
            ("metrics", Value::Object(metrics)),
        ])
        .to_json()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a fresh process of this binary, echoes its
/// report, and returns the run record it wrote.
fn child(args: &Args, workload: &str, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate mdsbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    print!("{}", String::from_utf8_lossy(&output.stdout));
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{workload} failed ({})", output.status));
    }
    let path = run_file(&args.out, workload, traced);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse_json(&text).map_err(|e| format!("bad run record {}: {e}", path.display()))
}

fn reading(record: &Value, name: &str) -> Option<f64> {
    record.get("readings")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, each in its own process; with `--trace 1`, each also
/// traced, and the tracing overhead reported.
fn all(args: &Args) -> Result<ExitCode, String> {
    let (end_to_end, _) = declarations();
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut overheads = Vec::new();
    for w in WORKLOADS {
        let record = child(args, w, false)?;
        attempted += record.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += record.get("failed").and_then(Value::as_u64).unwrap_or(0);
        correct &= record.get("correct").and_then(Value::as_bool) == Some(true);
        for d in &end_to_end {
            let value = reading(&record, &d.name).ok_or(format!("{w} lacks {}", d.name))?;
            metrics.push((
                format!("{w}.{}", d.name),
                obj(vec![
                    ("value", float(value)),
                    ("unit", Value::Str(d.unit.clone())),
                ]),
            ));
        }
        if args.trace {
            let traced = child(args, w, true)?;
            let base = reading(&record, "latency_ms").unwrap_or(f64::NAN);
            let with = reading(&traced, "latency_ms").unwrap_or(f64::NAN);
            overheads.push((w, with / base - 1.0));
        }
    }
    for (w, overhead) in &overheads {
        println!("trace_overhead_frac {w:<14} {overhead:+.4} (traced latency_ms / untraced - 1)");
    }
    println!(
        "{}",
        obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::UInt(attempted)),
            ("failed", Value::UInt(failed)),
            ("metrics", Value::Object(metrics)),
        ])
        .to_json()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--repeat N`: each selected workload N times, each run in a fresh
/// process, then median, quartiles and relative IQR of every end-to-end
/// metric. Writes `OUT/repeat.json` for `compare`.
fn repeat(args: &Args) -> Result<ExitCode, String> {
    let runs = args.repeat.expect("repeat mode");
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (end_to_end, _) = declarations();
    let mut workloads = Vec::new();
    let mut table = Vec::new();
    let mut ok = true;
    for w in selected {
        let records: Vec<Value> = (0..runs)
            .map(|_| child(args, w, false))
            .collect::<Result<_, _>>()?;
        let digests: Vec<Value> = records
            .iter()
            .map(|r| r.get("digest").cloned().unwrap_or(Value::Null))
            .collect();
        let stable = digests.iter().all(|d| *d == digests[0]);
        ok &= stable;
        table.push(format!(
            "{w}: digest identical across {runs} runs: {stable}"
        ));
        let mut metrics = Vec::new();
        for d in &end_to_end {
            let values: Vec<f64> = records
                .iter()
                .map(|r| reading(r, &d.name).ok_or(format!("{w} lacks {}", d.name)))
                .collect::<Result<_, _>>()?;
            let (q1, q3) = quartiles(&values);
            let spread = relative_iqr(&values);
            table.push(format!(
                "  {:<12} {:>14.6} {:<4} q1 {:>14.6} q3 {:>14.6} n={} rel_iqr {:.4} bound {}",
                d.name,
                median(&values),
                d.unit,
                q1,
                q3,
                values.len(),
                spread,
                d.bound
            ));
            metrics.push((
                d.name.clone(),
                obj(vec![
                    ("unit", Value::Str(d.unit.clone())),
                    (
                        "values",
                        Value::Array(values.into_iter().map(float).collect()),
                    ),
                    ("rel_iqr", float(spread)),
                ]),
            ));
        }
        workloads.push((
            w.to_string(),
            obj(vec![
                ("metrics", Value::Object(metrics)),
                ("digests", Value::Array(digests)),
            ]),
        ));
    }
    for line in &table {
        println!("{line}");
    }
    let summary = obj(vec![
        ("seed", Value::UInt(args.seed)),
        ("seconds", float(args.seconds)),
        ("runs", Value::UInt(runs as u64)),
        ("smoke", Value::Bool(args.smoke)),
        ("host", host_record()),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = args.out.join("repeat.json");
    std::fs::write(&path, summary.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Compares two `repeat.json` files, A the baseline. Each (workload,
/// end-to-end metric) is *worse* when B's median is worse by more than
/// the bound (and the spread is inside it, or every B run loses);
/// *unresolved* when the spread is wider than the bound and not every B
/// run wins; *better* when each side has [`MIN_CLAIM_RUNS`] runs, B wins
/// nine tenths of the run pairs, and its median beats A's by more than
/// A's relative IQR; *same* otherwise.
/// Exits 2 when any is worse.
fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        Value::parse_json(&text).map_err(|e| format!("{} is not JSON: {e}", p.display()))
    };
    let (a_json, b_json) = (load(a)?, load(b)?);
    let values = |json: &Value, w: &str, m: &str| -> Option<Vec<f64>> {
        let list = json
            .get("workloads")?
            .get(w)?
            .get("metrics")?
            .get(m)?
            .get("values")?;
        list.as_array()?.iter().map(Value::as_f64).collect()
    };
    let (end_to_end, _) = declarations();
    let mut worse = false;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for w in WORKLOADS {
        for d in &end_to_end {
            let (Some(va), Some(vb)) = (values(&a_json, w, &d.name), values(&b_json, w, &d.name))
            else {
                continue;
            };
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            // Positive: B is worse than A.
            let worse_by = if d.higher_better { -change } else { change };
            // Shares of the (A run, B run) pairs that B wins and loses.
            let beats = |x: f64, y: f64| if d.higher_better { x > y } else { x < y };
            let pairs = (va.len() * vb.len()) as f64;
            let share = |f: &dyn Fn(f64, f64) -> bool| {
                va.iter()
                    .flat_map(|&x| vb.iter().map(move |&y| (x, y)))
                    .filter(|&(x, y)| f(x, y))
                    .count() as f64
                    / pairs
            };
            let wins = share(&|x, y| beats(y, x));
            let losses = share(&|x, y| beats(x, y));
            let spread = relative_iqr(&va).max(relative_iqr(&vb));
            let verdict = if worse_by > d.bound && (spread <= d.bound || losses == 1.0) {
                "worse"
            } else if spread > d.bound && wins < 1.0 {
                "unresolved"
            } else if va.len().min(vb.len()) >= MIN_CLAIM_RUNS
                && wins >= 0.9
                && -worse_by > relative_iqr(&va)
            {
                "better"
            } else {
                "same"
            };
            worse |= verdict == "worse";
            println!(
                "{w:<14} {:<12} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>7.2}% {:>6.1}%  {verdict}",
                d.name,
                change * 100.0,
                spread * 100.0,
                d.bound * 100.0
            );
        }
    }
    Ok(if worse {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}
