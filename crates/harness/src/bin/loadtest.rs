//! `mds-load` — a deterministic load-test client for `mds-serve`.
//!
//! ```text
//! mds-load --socket PATH [--clients N] [--policies NAS/NO,NAS/NAV,...]
//!          [--window-sizes 64,128] [--repeats N]
//!          [--expect-simulations-delta N]
//! mds-load --socket PATH --metrics [--samples N] [--interval-ms MS]
//! ```
//!
//! Spawns `N` concurrent clients against a running server. Every
//! client sweeps the *same* (policy, window-size) cross product — each
//! in a different rotated order, and `--repeats` times over — so the
//! requests overlap heavily in flight: the server must simulate each
//! distinct (benchmark, config) pair exactly once and serve everything
//! else from its cache or by waiting on the in-flight simulation.
//!
//! The client then verifies, against the server's own counters, that
//! no duplicate work happened:
//!
//! - all clients received byte-identical rows for identical requests;
//! - with `--expect-simulations-delta N` (pass the distinct pair count
//!   for a cold server, `0` for a warm one), the server's `simulations`
//!   counter moved by exactly `N` across the whole barrage.
//!
//! Prints a one-line JSON summary on success; exits non-zero on any
//! violation.
//!
//! With `--metrics`, the barrage is skipped entirely: the client polls
//! the server's `metrics` op `--samples` times (`--interval-ms` apart),
//! decoding the `phase.*` latency histograms and printing a
//! p50/p95/p99 table per sample alongside the counters and gauges — a
//! poor man's live dashboard for a long-running server.
//!
//! With `--retries N`, a dropped connection, a mid-response EOF, or an
//! overload shed (`retry_after_ms`) is retried up to `N` times with
//! capped exponential backoff and deterministic jitter. Every op this
//! client sends is idempotent — the server memoizes sweep results — so
//! resending after a transport failure never duplicates work or skews
//! the `simulations` counter the barrage asserts on.

use mds_harness::TextTable;
use mds_obs::Histogram;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: mds-load --socket PATH [--clients N] \
     [--policies NAS/NO,...] [--window-sizes 64,128] [--repeats N]\n\
     [--expect-simulations-delta N] [--retries N]\n\
     mds-load --socket PATH --metrics [--samples N] [--interval-ms MS]";

struct Args {
    socket: PathBuf,
    clients: usize,
    policies: Vec<String>,
    window_sizes: Vec<u64>,
    repeats: usize,
    expect_delta: Option<u64>,
    retries: usize,
    metrics: bool,
    samples: usize,
    interval_ms: u64,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut socket = None;
    let mut clients = 3;
    let mut policies: Vec<String> = ["NAS/NO", "NAS/NAV", "NAS/ORACLE"]
        .map(String::from)
        .to_vec();
    let mut window_sizes = vec![128u64];
    let mut repeats = 2;
    let mut expect_delta = None;
    let mut retries = 0;
    let mut metrics = false;
    let mut samples = 1;
    let mut interval_ms = 1000;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--clients" => {
                clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("bad --clients value: {e}"))?;
            }
            "--policies" => {
                policies = value("--policies")?.split(',').map(String::from).collect();
            }
            "--window-sizes" => {
                window_sizes = value("--window-sizes")?
                    .split(',')
                    .map(|v| v.parse().map_err(|e| format!("bad window size {v}: {e}")))
                    .collect::<Result<_, String>>()?;
            }
            "--repeats" => {
                repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("bad --repeats value: {e}"))?;
            }
            "--expect-simulations-delta" => {
                expect_delta = Some(
                    value("--expect-simulations-delta")?
                        .parse()
                        .map_err(|e| format!("bad --expect-simulations-delta value: {e}"))?,
                );
            }
            "--retries" => {
                retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("bad --retries value: {e}"))?;
            }
            "--metrics" => metrics = true,
            "--samples" => {
                samples = value("--samples")?
                    .parse()
                    .map_err(|e| format!("bad --samples value: {e}"))?;
            }
            "--interval-ms" => {
                interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("bad --interval-ms value: {e}"))?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let socket = socket.ok_or_else(|| format!("--socket is required\n{USAGE}"))?;
    Ok(Some(Args {
        socket,
        clients,
        policies,
        window_sizes,
        repeats,
        expect_delta,
        retries,
        metrics,
        samples,
        interval_ms,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.metrics {
        watch_metrics(&args)
    } else {
        run(&args)
    };
    match outcome {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("mds-load: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One connection speaking the line protocol.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// How one request failed — the retry layer treats each differently.
enum RequestError {
    /// Connection-level failure: refused connect, write error,
    /// mid-response EOF or garbage. The connection is unusable;
    /// reconnect and resend.
    Transport(String),
    /// The server shed the connection at capacity and suggested a
    /// retry delay. The server closes a shed connection, so this also
    /// reconnects.
    Shed { retry_after_ms: u64 },
    /// The server answered `ok:false` without a retry hint: the
    /// request itself is bad (or the sweep failed structurally), and
    /// retrying would get the same answer.
    Rejected(String),
}

impl Client {
    fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn request(&mut self, line: &str) -> Result<Value, RequestError> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| RequestError::Transport(format!("write failed: {e}")))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| RequestError::Transport(format!("read failed: {e}")))?;
        if n == 0 {
            return Err(RequestError::Transport(
                "connection closed before a response arrived".to_string(),
            ));
        }
        let parsed = Value::parse_json(response.trim_end()).map_err(|e| {
            RequestError::Transport(format!("bad response JSON: {e} in {response:?}"))
        })?;
        if parsed.get("ok").and_then(Value::as_bool) != Some(true) {
            if let Some(ms) = parsed.get("retry_after_ms").and_then(Value::as_u64) {
                return Err(RequestError::Shed { retry_after_ms: ms });
            }
            return Err(RequestError::Rejected(format!(
                "server rejected {line:?}: {response}"
            )));
        }
        Ok(parsed)
    }
}

/// A self-healing protocol session: requests go through the current
/// connection, and transport failures or sheds reconnect and resend —
/// up to `retries` extra attempts — with capped exponential backoff
/// and deterministic (seeded) jitter, so two runs of the load test
/// sleep identically.
struct Session {
    socket: PathBuf,
    retries: usize,
    rng: u64,
    client: Option<Client>,
}

/// First backoff delay; doubles per attempt.
const BACKOFF_BASE_MS: u64 = 50;
/// Backoff ceiling — a shed server's `retry_after_ms` may exceed it.
const BACKOFF_CAP_MS: u64 = 2_000;

/// splitmix64 step — the same deterministic stream the harness's fault
/// plans use, reused here for jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Session {
    /// A lazy session: the first `request` connects (and a missing
    /// server fails through the same retry policy as a dropped one, so
    /// a client racing the server's bind rides it out).
    fn new(socket: &Path, retries: usize, seed: u64) -> Session {
        Session {
            socket: socket.to_path_buf(),
            retries,
            rng: seed ^ 0x6d64_735f_6c6f_6164,
            client: None,
        }
    }

    fn ensure_connected(&mut self) -> Result<(), RequestError> {
        if self.client.is_none() {
            self.client = Some(Client::connect(&self.socket).map_err(RequestError::Transport)?);
        }
        Ok(())
    }

    fn request(&mut self, line: &str) -> Result<Value, String> {
        let mut backoff_ms = BACKOFF_BASE_MS;
        let mut attempt = 0usize;
        loop {
            let outcome = self
                .ensure_connected()
                .and_then(|()| self.client.as_mut().expect("just connected").request(line));
            let (wait_ms, why) = match outcome {
                Ok(v) => return Ok(v),
                Err(RequestError::Rejected(msg)) => return Err(msg),
                Err(RequestError::Transport(msg)) => {
                    self.client = None;
                    (backoff_ms, msg)
                }
                Err(RequestError::Shed { retry_after_ms }) => {
                    self.client = None;
                    (
                        retry_after_ms.max(backoff_ms),
                        format!("server at capacity (retry_after_ms={retry_after_ms})"),
                    )
                }
            };
            attempt += 1;
            if attempt > self.retries {
                return Err(format!(
                    "giving up on {line:?} after {attempt} attempt(s): {why}"
                ));
            }
            // Full jitter in [0, wait/2] keeps retrying clients from
            // re-colliding in lockstep while staying deterministic.
            let jitter = splitmix64(&mut self.rng) % (wait_ms / 2 + 1);
            std::thread::sleep(std::time::Duration::from_millis(wait_ms + jitter));
            backoff_ms = (backoff_ms * 2).min(BACKOFF_CAP_MS);
        }
    }
}

fn stat(session: &mut Session, counter: &str) -> Result<u64, String> {
    session
        .request("{\"op\":\"stats\"}")?
        .get("stats")
        .and_then(|s| s.get(counter))
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("stats response has no {counter}"))
}

/// The sweep request for one client: the shared cross product, rotated
/// by the client index so concurrent claims interleave.
fn sweep_request(args: &Args, client_index: usize) -> String {
    let n = args.policies.len();
    let configs: Vec<String> = (0..n)
        .map(|i| &args.policies[(client_index + i) % n])
        .flat_map(|policy| {
            args.window_sizes
                .iter()
                .map(move |w| format!("{{\"policy\":\"{policy}\",\"window_size\":{w}}}"))
        })
        .collect();
    format!("{{\"op\":\"sweep\",\"configs\":[{}]}}", configs.join(","))
}

/// Canonical form of a sweep response: its rows, sorted, so responses
/// to differently-ordered requests over the same pairs compare equal.
fn canonical_rows(response: &Value) -> Result<Vec<String>, String> {
    let rows = response
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("sweep response has no rows")?;
    let mut lines: Vec<String> = rows.iter().map(Value::to_json).collect();
    lines.sort();
    Ok(lines)
}

/// Formats a microsecond quantity with a unit, `-` when absent.
fn us(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |n| format!("{n}us"))
}

/// Polls the server's `metrics` op, printing a per-phase latency table
/// (p50/p95/p99 from the log2 histograms) plus counters and gauges for
/// every sample. Returns a one-line JSON summary.
fn watch_metrics(args: &Args) -> Result<String, String> {
    let mut client = Session::new(&args.socket, args.retries, 0x4d45_5452);
    let samples = args.samples.max(1);
    let mut phases_seen = 0u64;
    for sample in 0..samples {
        if sample > 0 {
            std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
        }
        let response = client.request("{\"op\":\"metrics\"}")?;
        let metrics = response
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("metrics response has no metrics object")?;
        let mut t = TextTable::new(&["phase", "count", "mean", "p50", "p95", "p99", "max"]);
        let mut scalars = Vec::new();
        for (name, value) in metrics {
            if let Some(h) = Histogram::from_value(value) {
                if let Some(phase) = name.strip_prefix("phase.") {
                    phases_seen += 1;
                    t.row_owned(vec![
                        phase.to_string(),
                        h.count().to_string(),
                        format!("{:.0}us", h.mean()),
                        us(h.percentile(0.50)),
                        us(h.percentile(0.95)),
                        us(h.percentile(0.99)),
                        us(h.max()),
                    ]);
                }
            } else if let Some(v) = value.as_u64() {
                scalars.push(format!("{name}={v}"));
            } else if let Some(v) = value.as_f64() {
                scalars.push(format!("{name}={v:.1}"));
            }
        }
        println!("--- metrics sample {}/{samples} ---", sample + 1);
        println!("{}", scalars.join("  "));
        if !t.is_empty() {
            print!("{}", t.render());
        }
    }
    Ok(Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("samples".to_string(), Value::UInt(samples as u64)),
        ("phase_histograms".to_string(), Value::UInt(phases_seen)),
    ])
    .to_json())
}

fn run(args: &Args) -> Result<String, String> {
    let mut control = Session::new(&args.socket, args.retries, 0xC0);
    control.request("{\"op\":\"ping\"}")?;
    let sims_before = stat(&mut control, "simulations")?;

    // The concurrent barrage: every client sweeps the same pair set.
    let transcripts: Vec<Result<Vec<Vec<String>>, String>> = std::thread::scope(|scope| {
        (0..args.clients)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Session::new(&args.socket, args.retries, i as u64);
                    let request = sweep_request(args, i);
                    let mut seen = Vec::new();
                    for _ in 0..args.repeats.max(1) {
                        let response = client.request(&request)?;
                        seen.push(canonical_rows(&response)?);
                    }
                    Ok(seen)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all_rows: Vec<Vec<String>> = Vec::new();
    for transcript in transcripts {
        all_rows.extend(transcript?);
    }
    let mut distinct_responses = all_rows.clone();
    distinct_responses.dedup();
    distinct_responses.sort();
    distinct_responses.dedup();
    if distinct_responses.len() != 1 {
        return Err(format!(
            "clients disagree: {} distinct row sets for identical pair sets",
            distinct_responses.len()
        ));
    }

    let sims_after = stat(&mut control, "simulations")?;
    let delta = sims_after - sims_before;
    let benchmarks = distinct_responses[0].len() / (args.policies.len() * args.window_sizes.len());
    let distinct_pairs = distinct_responses[0].len() as u64;
    if let Some(expected) = args.expect_delta {
        if delta != expected {
            return Err(format!(
                "server simulated {delta} pair(s), expected exactly {expected} \
                 (distinct pairs requested: {distinct_pairs})"
            ));
        }
    } else if delta > distinct_pairs {
        return Err(format!(
            "server simulated {delta} pair(s) for only {distinct_pairs} distinct request(s): \
             concurrent duplicates were not deduplicated"
        ));
    }

    Ok(Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("clients".to_string(), Value::UInt(args.clients as u64)),
        (
            "requests".to_string(),
            Value::UInt((args.clients * args.repeats.max(1)) as u64),
        ),
        ("benchmarks".to_string(), Value::UInt(benchmarks as u64)),
        ("distinct_pairs".to_string(), Value::UInt(distinct_pairs)),
        ("simulations_delta".to_string(), Value::UInt(delta)),
        ("agreement".to_string(), Value::Bool(true)),
    ])
    .to_json())
}
