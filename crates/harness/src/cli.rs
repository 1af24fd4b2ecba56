//! Shared, unit-testable command-line parsing for the harness binaries.
//!
//! The binaries (`reproduce`, `compare`, `profile`) keep their I/O and
//! orchestration, but everything that can be got wrong in parsing — the
//! benchmark- and policy-name resolution rules, experiment-name
//! validation, scale and job-count parsing, the range of config knobs
//! outside input may set — lives here where tests can reach it.

use crate::experiments;
use crate::faults::FaultPlan;
use mds_core::{CoreConfig, Policy, WindowModel};
use mds_workloads::{Benchmark, SuiteParams};
use std::path::PathBuf;

/// Usage string for `reproduce`.
pub const REPRODUCE_USAGE: &str = "usage: reproduce [--scale tiny|test|bench] \
     [--benchmarks name,...] [--only table1,fig2,...] [--out DIR] [--jobs N]\n\
     [--cache-dir DIR] [--durable-cache] [--trace-out FILE.jsonl] [--trace-every N]\n\
     [--fault-plan SPEC] [--list]\n\
     --list names the experiments, in run order.";

/// Usage string for `mds-serve`.
pub const SERVE_USAGE: &str = "usage: mds-serve --socket PATH [--scale tiny|test|bench] \
     [--benchmarks name,...] [--jobs N]\n\
     [--cache-dir DIR] [--durable-cache] [--trace-out FILE.jsonl] [--trace-every N]\n\
     [--read-timeout-ms N] [--write-timeout-ms N] [--max-connections N] \
     [--fault-plan SPEC]\n\
     Serves simulation sweeps over a Unix socket, one JSON request per \
     line, one JSON response per line.";

/// Parsed `reproduce` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproduceArgs {
    /// Suite sizing.
    pub params: SuiteParams,
    /// Benchmarks to generate and simulate.
    pub benchmarks: Vec<Benchmark>,
    /// Experiment subset (`None` = all).
    pub only: Option<Vec<String>>,
    /// Artifact directory for `.txt`/`.json`/`.csv` emission.
    pub out: Option<PathBuf>,
    /// Worker threads (`0` = automatic).
    pub jobs: usize,
    /// Persistent result-cache directory (`--cache-dir`); `None` keeps
    /// the cache purely in memory.
    pub cache_dir: Option<PathBuf>,
    /// JSONL trace file (`--trace-out`); `None` disables tracing.
    pub trace_out: Option<PathBuf>,
    /// Pipeline-event sampling stride (`--trace-every`): events of
    /// every `N`-th dynamic instruction are recorded; `0` keeps only
    /// lifecycle events.
    pub trace_every: u64,
    /// Fault-injection plan spec (`--fault-plan`), validated at parse
    /// time; `None` defers to the `MDS_FAULT_PLAN` environment variable
    /// (see [`effective_fault_plan`]).
    pub fault_plan: Option<String>,
    /// Whether disk-cache writes fsync file and directory before they
    /// count as stored (`--durable-cache`).
    pub durable_cache: bool,
}

impl Default for ReproduceArgs {
    fn default() -> ReproduceArgs {
        ReproduceArgs {
            params: SuiteParams::bench(),
            benchmarks: Benchmark::ALL.to_vec(),
            only: None,
            out: None,
            jobs: 0,
            cache_dir: None,
            trace_out: None,
            trace_every: 64,
            fault_plan: None,
            durable_cache: false,
        }
    }
}

/// What a `reproduce` invocation asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum ReproduceCommand {
    /// Run with the parsed arguments.
    Run(ReproduceArgs),
    /// Print usage and exit successfully (`--help`).
    Help,
    /// Print the experiment names, one per line (`--list`).
    List,
}

/// Parses `reproduce` arguments (the part after the program name).
///
/// # Errors
///
/// Returns a message naming the offending flag or value: unknown
/// flags, missing values, unknown scales, unknown or ambiguous
/// benchmark names, and unknown experiment names all fail here rather
/// than silently running the wrong thing.
pub fn parse_reproduce_args(args: &[String]) -> Result<ReproduceCommand, String> {
    let mut parsed = ReproduceArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--scale" => parsed.params = parse_scale(value("--scale")?)?,
            "--benchmarks" => parsed.benchmarks = parse_benchmarks(value("--benchmarks")?)?,
            "--only" => {
                let list: Vec<String> = value("--only")?.split(',').map(str::to_string).collect();
                validate_experiments(&list)?;
                parsed.only = Some(list);
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--jobs" => parsed.jobs = parse_jobs(value("--jobs")?)?,
            "--cache-dir" => parsed.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--durable-cache" => parsed.durable_cache = true,
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--trace-every" => parsed.trace_every = parse_trace_every(value("--trace-every")?)?,
            "--fault-plan" => parsed.fault_plan = Some(parse_fault_plan(value("--fault-plan")?)?),
            "--list" => return Ok(ReproduceCommand::List),
            "--help" | "-h" => return Ok(ReproduceCommand::Help),
            other => return Err(format!("unknown argument {other}\n{REPRODUCE_USAGE}")),
        }
    }
    Ok(ReproduceCommand::Run(parsed))
}

/// Parsed `mds-serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Unix-socket path to listen on.
    pub socket: PathBuf,
    /// Suite sizing.
    pub params: SuiteParams,
    /// Benchmarks to generate and serve.
    pub benchmarks: Vec<Benchmark>,
    /// Worker threads (`0` = automatic).
    pub jobs: usize,
    /// Persistent result-cache directory; `None` keeps the cache
    /// purely in memory.
    pub cache_dir: Option<PathBuf>,
    /// JSONL trace file; `None` disables tracing.
    pub trace_out: Option<PathBuf>,
    /// Pipeline-event sampling stride (`0` keeps lifecycle events only).
    pub trace_every: u64,
    /// Per-connection read timeout in milliseconds (`0` disables): how
    /// long the server waits for a client to produce request bytes
    /// before the connection is closed and counted.
    pub read_timeout_ms: u64,
    /// Per-connection write timeout in milliseconds (`0` disables):
    /// how long a response write may block on a client that stopped
    /// reading.
    pub write_timeout_ms: u64,
    /// Concurrent-connection cap (`0` = unbounded): connections beyond
    /// it are shed with a structured `retry_after_ms` error instead of
    /// queueing without bound.
    pub max_connections: u64,
    /// Fault-injection plan spec, validated at parse time; `None`
    /// defers to the `MDS_FAULT_PLAN` environment variable.
    pub fault_plan: Option<String>,
    /// Whether disk-cache writes fsync file and directory before they
    /// count as stored.
    pub durable_cache: bool,
}

/// What an `mds-serve` invocation asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeCommand {
    /// Serve with the parsed arguments.
    Run(ServeArgs),
    /// Print usage and exit successfully (`--help`).
    Help,
}

/// Parses `mds-serve` arguments (the part after the program name).
///
/// # Errors
///
/// Returns a message naming the offending flag or value; a missing
/// `--socket` is an error, since there is nothing to serve on.
pub fn parse_serve_args(args: &[String]) -> Result<ServeCommand, String> {
    let mut socket = None;
    let mut params = SuiteParams::bench();
    let mut benchmarks = Benchmark::ALL.to_vec();
    let mut jobs = 0;
    let mut cache_dir = None;
    let mut trace_out = None;
    let mut trace_every = 0;
    let mut read_timeout_ms = DEFAULT_READ_TIMEOUT_MS;
    let mut write_timeout_ms = DEFAULT_WRITE_TIMEOUT_MS;
    let mut max_connections = DEFAULT_MAX_CONNECTIONS;
    let mut fault_plan = None;
    let mut durable_cache = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--scale" => params = parse_scale(value("--scale")?)?,
            "--benchmarks" => benchmarks = parse_benchmarks(value("--benchmarks")?)?,
            "--jobs" => jobs = parse_jobs(value("--jobs")?)?,
            "--cache-dir" => cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--durable-cache" => durable_cache = true,
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--trace-every" => trace_every = parse_trace_every(value("--trace-every")?)?,
            "--read-timeout-ms" => {
                read_timeout_ms = parse_millis("--read-timeout-ms", value("--read-timeout-ms")?)?
            }
            "--write-timeout-ms" => {
                write_timeout_ms = parse_millis("--write-timeout-ms", value("--write-timeout-ms")?)?
            }
            "--max-connections" => {
                max_connections = parse_millis("--max-connections", value("--max-connections")?)?
            }
            "--fault-plan" => fault_plan = Some(parse_fault_plan(value("--fault-plan")?)?),
            "--help" | "-h" => return Ok(ServeCommand::Help),
            other => return Err(format!("unknown argument {other}\n{SERVE_USAGE}")),
        }
    }
    let socket = socket.ok_or_else(|| format!("--socket is required\n{SERVE_USAGE}"))?;
    Ok(ServeCommand::Run(ServeArgs {
        socket,
        params,
        benchmarks,
        jobs,
        cache_dir,
        trace_out,
        trace_every,
        read_timeout_ms,
        write_timeout_ms,
        max_connections,
        fault_plan,
        durable_cache,
    }))
}

/// Default per-connection read timeout: generous enough for a human at
/// `nc -U`, short enough that a slowloris client cannot pin a worker
/// thread for long.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 30_000;

/// Default per-connection write timeout: a healthy client drains a
/// response in milliseconds; one that stopped reading should not hold
/// the thread longer than this.
pub const DEFAULT_WRITE_TIMEOUT_MS: u64 = 10_000;

/// Default concurrent-connection cap before overload shedding.
pub const DEFAULT_MAX_CONNECTIONS: u64 = 64;

/// Parses a `--scale` value.
///
/// # Errors
///
/// Rejects anything but `tiny`, `test`, or `bench`.
pub fn parse_scale(v: &str) -> Result<SuiteParams, String> {
    match v {
        "tiny" => Ok(SuiteParams::tiny()),
        "test" => Ok(SuiteParams::test()),
        "bench" => Ok(SuiteParams::bench()),
        other => Err(format!("unknown scale {other} (expected tiny|test|bench)")),
    }
}

/// Parses a `--jobs` value (`0` = automatic).
///
/// # Errors
///
/// Rejects non-numeric values.
pub fn parse_jobs(v: &str) -> Result<usize, String> {
    v.parse().map_err(|e| format!("bad --jobs value {v}: {e}"))
}

/// Parses a `--trace-every` stride (`0` = lifecycle events only).
///
/// # Errors
///
/// Rejects non-numeric values.
pub fn parse_trace_every(v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|e| format!("bad --trace-every value {v}: {e}"))
}

/// Parses a non-negative integer flag value (timeouts, connection
/// caps), naming the flag in the error.
///
/// # Errors
///
/// Rejects non-numeric values.
pub fn parse_millis(flag: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|e| format!("bad {flag} value {v}: {e}"))
}

/// Validates a `--fault-plan` spec at parse time — a typo in a site
/// name or trigger fails the invocation instead of silently arming
/// nothing — and hands back the spec for the binary to arm later.
///
/// # Errors
///
/// Whatever [`FaultPlan::parse`] rejects: unknown sites, malformed
/// triggers, out-of-range probabilities, duplicate clauses.
pub fn parse_fault_plan(spec: &str) -> Result<String, String> {
    FaultPlan::parse(spec)?;
    Ok(spec.to_string())
}

/// Resolves the effective fault plan: the `--fault-plan` flag when
/// given, else the `MDS_FAULT_PLAN` environment variable, else an
/// unarmed plan. The environment path lets CI chaos stages arm faults
/// without threading a flag through every wrapper script.
///
/// # Errors
///
/// Whatever [`FaultPlan::parse`] rejects — an env var with a typo'd
/// spec fails loudly rather than running fault-free while the operator
/// believes chaos is armed.
pub fn effective_fault_plan(flag: Option<&str>) -> Result<FaultPlan, String> {
    let spec = match flag {
        Some(s) => Some(s.to_string()),
        None => std::env::var("MDS_FAULT_PLAN").ok(),
    };
    match spec.as_deref().map(str::trim) {
        Some(s) if !s.is_empty() => {
            FaultPlan::parse(s).map_err(|e| format!("bad fault plan {s:?}: {e}"))
        }
        _ => Ok(FaultPlan::none()),
    }
}

/// Resolves one benchmark name.
///
/// An exact match on the full SPEC name (`126.gcc`) or its short form
/// (`gcc`) always wins; otherwise a substring must match exactly one
/// benchmark, and an ambiguous substring errors with the candidates
/// rather than silently picking the first.
///
/// # Errors
///
/// Unknown names and ambiguous substrings, with the candidate list.
pub fn resolve_benchmark(name: &str) -> Result<Benchmark, String> {
    let exact = Benchmark::ALL.into_iter().find(|b| {
        b.name() == name
            || b.name()
                .split_once('.')
                .is_some_and(|(_, short)| short == name)
    });
    if let Some(b) = exact {
        return Ok(b);
    }
    let matches: Vec<Benchmark> = Benchmark::ALL
        .into_iter()
        .filter(|b| b.name().contains(name))
        .collect();
    match matches.as_slice() {
        [] => Err(format!("unknown benchmark {name}")),
        [one] => Ok(*one),
        many => {
            let candidates: Vec<&str> = many.iter().map(|b| b.name()).collect();
            Err(format!(
                "ambiguous benchmark {name}: matches {}",
                candidates.join(", ")
            ))
        }
    }
}

/// Resolves a comma-separated benchmark list via [`resolve_benchmark`].
///
/// # Errors
///
/// Propagates the first unknown or ambiguous name, and rejects a
/// benchmark listed twice, under any spelling: it would be simulated
/// and reported twice, and weigh twice in the suite means.
pub fn parse_benchmarks(list: &str) -> Result<Vec<Benchmark>, String> {
    let mut benchmarks = Vec::new();
    for name in list.split(',') {
        let benchmark = resolve_benchmark(name)?;
        if benchmarks.contains(&benchmark) {
            return Err(format!("{name} repeats benchmark {benchmark}"));
        }
        benchmarks.push(benchmark);
    }
    Ok(benchmarks)
}

/// Resolves a paper-style policy name (`NAS/SYNC`, `AS/NO`, …),
/// ignoring case: the policies of [`Policy::ALL`] plus `NAS/SSET`.
///
/// # Errors
///
/// Unknown names, with the list of known ones.
pub fn parse_policy(name: &str) -> Result<Policy, String> {
    let known = || Policy::ALL.into_iter().chain([Policy::NasStoreSets]);
    known()
        .find(|p| p.paper_name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = known().map(Policy::paper_name).collect();
            format!(
                "unknown policy {name:?} (expected one of: {})",
                names.join(", ")
            )
        })
}

/// Largest window, in entries, a request or flag may ask for.
pub const MAX_WINDOW: usize = 4096;

/// Largest address-scheduler latency, in cycles, a request or flag may
/// ask for.
pub const MAX_SCHED_LATENCY: u64 = 1024;

/// Checks the config knobs that outside input sets — the sweep
/// protocol's `window_size` and `addr_sched_latency`, `compare`'s
/// `--window`, `--sched-latency` and `--split` — against the range the
/// simulator is built for. Outside it a config deadlocks, divides by
/// zero, or silently wraps to another config's row.
///
/// # Errors
///
/// Names the first knob out of range and its bounds.
pub fn check_config(config: &CoreConfig) -> Result<(), String> {
    let window = config.window_size;
    if !(1..=MAX_WINDOW).contains(&window) {
        return Err(format!("window size {window} is outside 1..={MAX_WINDOW}"));
    }
    let latency = config.addr_sched_latency;
    if latency > MAX_SCHED_LATENCY {
        return Err(format!(
            "address-scheduler latency {latency} is outside 0..={MAX_SCHED_LATENCY}"
        ));
    }
    if let WindowModel::Split { units, task_size } = config.window_model {
        if units == 0 || units as usize > window {
            return Err(format!(
                "split units {units} is outside 1..={window} (the window size)"
            ));
        }
        if task_size == 0 {
            return Err("split task size must be at least 1".to_string());
        }
    }
    Ok(())
}

/// Checks every name against [`experiments::names`].
///
/// # Errors
///
/// Names the first unknown experiment and lists the valid ones, so a
/// typo like `fig11` fails loudly instead of running nothing; an empty
/// name (`--only fig1,`) is called one.
pub fn validate_experiments(names: &[String]) -> Result<(), String> {
    let known = experiments::names();
    for name in names {
        if name.is_empty() {
            return Err("--only has an empty experiment name".to_string());
        }
        if !known.contains(&name.as_str()) {
            return Err(format!(
                "unknown experiment {name} (expected one of: {})",
                known.join(", ")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_args() {
        let cmd = parse_reproduce_args(&[]).unwrap();
        let ReproduceCommand::Run(args) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(args.benchmarks.len(), Benchmark::ALL.len());
        assert_eq!(args.only, None);
        assert_eq!(args.jobs, 0);
        assert_eq!(args.out, None);
        assert_eq!(args.cache_dir, None);
        assert_eq!(args.trace_out, None);
        assert_eq!(args.trace_every, 64);
        assert_eq!(args.fault_plan, None);
        assert!(!args.durable_cache);
    }

    #[test]
    fn list_short_circuits() {
        assert_eq!(
            parse_reproduce_args(&strs(&["--list"])),
            Ok(ReproduceCommand::List)
        );
        // --list wins even with other flags present before it.
        assert_eq!(
            parse_reproduce_args(&strs(&["--jobs", "2", "--list"])),
            Ok(ReproduceCommand::List)
        );
    }

    #[test]
    fn help_is_not_an_error() {
        assert_eq!(
            parse_reproduce_args(&strs(&["--help"])),
            Ok(ReproduceCommand::Help)
        );
        assert_eq!(
            parse_reproduce_args(&strs(&["-h"])),
            Ok(ReproduceCommand::Help)
        );
    }

    #[test]
    fn full_flag_set_parses() {
        let cmd = parse_reproduce_args(&strs(&[
            "--scale",
            "tiny",
            "--benchmarks",
            "compress,swim",
            "--only",
            "fig1,table4",
            "--out",
            "/tmp/x",
            "--jobs",
            "3",
            "--cache-dir",
            "/tmp/x/cache",
            "--trace-out",
            "/tmp/x/trace.jsonl",
            "--trace-every",
            "128",
            "--fault-plan",
            "seed=7;disk_write=nth:1",
            "--durable-cache",
        ]))
        .unwrap();
        let ReproduceCommand::Run(args) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(args.params, SuiteParams::tiny());
        assert_eq!(args.benchmarks, vec![Benchmark::Compress, Benchmark::Swim]);
        assert_eq!(
            args.only,
            Some(vec!["fig1".to_string(), "table4".to_string()])
        );
        assert_eq!(args.out, Some(PathBuf::from("/tmp/x")));
        assert_eq!(args.jobs, 3);
        assert_eq!(args.cache_dir, Some(PathBuf::from("/tmp/x/cache")));
        assert_eq!(args.trace_out, Some(PathBuf::from("/tmp/x/trace.jsonl")));
        assert_eq!(args.trace_every, 128);
        assert_eq!(args.fault_plan.as_deref(), Some("seed=7;disk_write=nth:1"));
        assert!(args.durable_cache);
    }

    #[test]
    fn fault_plan_is_validated_at_parse_time() {
        let err = parse_reproduce_args(&strs(&["--fault-plan", "nosuch_site=nth:1"])).unwrap_err();
        assert!(err.contains("nosuch_site"), "{err}");
        let err = parse_serve_args(&strs(&[
            "--socket",
            "/tmp/s",
            "--fault-plan",
            "disk_read=often",
        ]))
        .unwrap_err();
        assert!(err.contains("often"), "{err}");
    }

    #[test]
    fn effective_fault_plan_prefers_the_flag() {
        // Flag given: parsed, armed.
        let plan = effective_fault_plan(Some("worker_panic=nth:2")).unwrap();
        assert!(plan.is_armed());
        // No flag, no env (the test env never sets MDS_FAULT_PLAN):
        // unarmed.
        assert!(!effective_fault_plan(None).unwrap().is_armed());
        // A bad flag spec errors.
        assert!(effective_fault_plan(Some("disk_read")).is_err());
        // Blank means unarmed, not an error.
        assert!(!effective_fault_plan(Some("  ")).unwrap().is_armed());
    }

    #[test]
    fn serve_args_parse_and_require_a_socket() {
        let cmd = parse_serve_args(&strs(&[
            "--socket",
            "/tmp/mds.sock",
            "--scale",
            "tiny",
            "--benchmarks",
            "compress,swim",
            "--jobs",
            "2",
            "--cache-dir",
            "/tmp/cache",
        ]))
        .unwrap();
        let ServeCommand::Run(args) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(args.socket, PathBuf::from("/tmp/mds.sock"));
        assert_eq!(args.params, SuiteParams::tiny());
        assert_eq!(args.benchmarks, vec![Benchmark::Compress, Benchmark::Swim]);
        assert_eq!(args.jobs, 2);
        assert_eq!(args.cache_dir, Some(PathBuf::from("/tmp/cache")));
        assert_eq!(args.trace_out, None);
        assert_eq!(args.trace_every, 0);
        assert_eq!(args.read_timeout_ms, DEFAULT_READ_TIMEOUT_MS);
        assert_eq!(args.write_timeout_ms, DEFAULT_WRITE_TIMEOUT_MS);
        assert_eq!(args.max_connections, DEFAULT_MAX_CONNECTIONS);
        assert_eq!(args.fault_plan, None);
        assert!(!args.durable_cache);

        let cmd = parse_serve_args(&strs(&[
            "--socket",
            "/tmp/mds.sock",
            "--read-timeout-ms",
            "250",
            "--write-timeout-ms",
            "0",
            "--max-connections",
            "2",
            "--fault-plan",
            "conn_drop=nth:1",
            "--durable-cache",
        ]))
        .unwrap();
        let ServeCommand::Run(args) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(args.read_timeout_ms, 250);
        assert_eq!(args.write_timeout_ms, 0);
        assert_eq!(args.max_connections, 2);
        assert_eq!(args.fault_plan.as_deref(), Some("conn_drop=nth:1"));
        assert!(args.durable_cache);

        let err = parse_serve_args(&strs(&["--scale", "tiny"])).unwrap_err();
        assert!(err.contains("--socket is required"), "{err}");
        assert_eq!(parse_serve_args(&strs(&["--help"])), Ok(ServeCommand::Help));
        assert!(parse_serve_args(&strs(&["--frobnicate"])).is_err());
    }

    #[test]
    fn unknown_experiment_errors() {
        let err = parse_reproduce_args(&strs(&["--only", "fig11"])).unwrap_err();
        assert!(err.contains("unknown experiment fig11"), "{err}");
        assert!(err.contains("fig1"), "should list valid names: {err}");
        for list in ["fig1,", ""] {
            let err = parse_reproduce_args(&strs(&["--only", list])).unwrap_err();
            assert_eq!(err, "--only has an empty experiment name", "{list:?}");
        }
    }

    #[test]
    fn only_accepts_every_experiment_in_the_table() {
        let names = experiments::names();
        let Ok(ReproduceCommand::Run(args)) =
            parse_reproduce_args(&strs(&["--only", &names.join(",")]))
        else {
            panic!("every table name must parse");
        };
        assert_eq!(args.only.unwrap(), names);
    }

    #[test]
    fn unknown_flag_and_missing_value_error() {
        assert!(parse_reproduce_args(&strs(&["--frobnicate"])).is_err());
        assert!(parse_reproduce_args(&strs(&["--scale"])).is_err());
        assert!(parse_reproduce_args(&strs(&["--scale", "huge"])).is_err());
        assert!(parse_reproduce_args(&strs(&["--jobs", "many"])).is_err());
        assert!(parse_reproduce_args(&strs(&["--trace-every", "often"])).is_err());
        assert!(parse_reproduce_args(&strs(&["--trace-out"])).is_err());
        for list in ["compress,compress", "compress,129.compress"] {
            let err = parse_reproduce_args(&strs(&["--benchmarks", list])).unwrap_err();
            assert!(err.contains("129.compress"), "{err}");
        }
    }

    #[test]
    fn exact_benchmark_names_win_over_substrings() {
        // "gcc" is the short form of 126.gcc; also a substring of it only.
        assert_eq!(resolve_benchmark("gcc"), Ok(Benchmark::Gcc));
        assert_eq!(resolve_benchmark("126.gcc"), Ok(Benchmark::Gcc));
        // "su2cor" is exact-short for 103.su2cor.
        assert_eq!(resolve_benchmark("su2cor"), Ok(Benchmark::Su2cor));
    }

    #[test]
    fn unique_substring_resolves() {
        assert_eq!(resolve_benchmark("compr"), Ok(Benchmark::Compress));
        assert_eq!(resolve_benchmark("wave"), Ok(Benchmark::Wave5));
    }

    #[test]
    fn ambiguous_substring_errors_with_candidates() {
        // "im" hits 124.m88ksim and 102.swim.
        let err = resolve_benchmark("im").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
        assert!(
            err.contains("124.m88ksim") && err.contains("102.swim"),
            "{err}"
        );
        assert!(resolve_benchmark("nosuch")
            .unwrap_err()
            .contains("unknown benchmark"));
    }

    #[test]
    fn policy_names_resolve_ignoring_case() {
        let paper = "NAS/NO NAS/NAV NAS/SEL NAS/STORE NAS/SYNC NAS/SSET NAS/ORACLE AS/NO AS/NAV";
        for name in paper.split(' ') {
            assert_eq!(parse_policy(name).map(Policy::paper_name), Ok(name));
        }
        assert_eq!(parse_policy("nas/sync"), Ok(Policy::NasSync));
        let err = parse_policy("NAS/MAYBE").unwrap_err();
        assert!(err.contains("unknown policy \"NAS/MAYBE\""), "{err}");
        assert!(err.contains("NAS/SSET"), "should list known names: {err}");
    }

    #[test]
    fn config_knobs_outside_their_range_are_rejected() {
        let base = CoreConfig::paper_128();
        let split = |units, task_size| {
            base.clone()
                .with_window_model(WindowModel::Split { units, task_size })
        };
        // Everything the experiments and the benchmark send passes.
        for window in [1, 32, 64, 128, 256, MAX_WINDOW] {
            assert_eq!(check_config(&base.clone().with_window_size(window)), Ok(()));
        }
        for latency in [0, 1, 2, MAX_SCHED_LATENCY] {
            let config = base.clone().with_addr_sched_latency(latency);
            assert_eq!(check_config(&config), Ok(()));
        }
        assert_eq!(check_config(&split(4, 16)), Ok(()));
        assert_eq!(check_config(&split(128, 1)), Ok(()));
        // Out of range: each names its knob.
        let rejected = [
            (base.clone().with_window_size(0), "window size 0"),
            (base.clone().with_window_size(MAX_WINDOW + 1), "window size"),
            (
                base.clone().with_addr_sched_latency(u64::MAX),
                "address-scheduler latency",
            ),
            (
                base.clone().with_addr_sched_latency(1 << 63),
                "address-scheduler latency",
            ),
            (split(0, 16), "split units 0"),
            (split(129, 16), "split units 129"),
            (split(4, 0), "task size"),
        ];
        for (config, needle) in rejected {
            let err = check_config(&config).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn experiment_list_matches_known_names() {
        validate_experiments(&strs(&["table1", "stability", "ablations", "cpistack"])).unwrap();
        assert!(validate_experiments(&strs(&["fig8"])).is_err());
    }
}
