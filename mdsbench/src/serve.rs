//! `serve_zipf`: the real `mds-serve` binary under an open-loop sweep
//! load with Zipf-skewed configuration popularity.
//!
//! The schedule is fixed before the run from the seed: Poisson
//! arrivals at [`RATE`], each request a one-config sweep over the whole
//! suite, the config drawn by Zipf (s = 1) over a seeded ranking of the
//! 108-config space. Independent users do not wait for each other, so
//! the loop is open: a request is timed from when it was due, and a
//! stall shows as latency on the requests queued behind it. The server
//! only ever sees the generated request lines.

use crate::measure::{cpu_seconds, fnv1a64, median, peak_rss_mib, percentile, Rng};
use crate::probes::{self, Plan};
use crate::workloads::{config_space, setup, sweep_line, Ctx, OpTimer, Outcome};
use mds_harness::{Runner, Suite, SweepService};
use mds_workloads::{Benchmark, SuiteParams};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load, requests per second.
const RATE: f64 = 60.0;
/// Zipf exponent of config popularity.
const ZIPF_S: f64 = 1.0;
/// Most popular configs swept once, untimed, before the schedule starts.
const WARM_CONFIGS: usize = 16;
/// A completion within this limit counts toward goodput.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// A run whose generator sent later than this (p99) measured the host,
/// not the server, and is rejected.
const MAX_SCHED_LAG_MS: f64 = 2.0;
/// The lag gate needs a p99 that is more than the single slowest send,
/// so it applies from this many requests on (smoke runs are shorter).
const MIN_GATED_REQUESTS: usize = 500;
/// Requests still unanswered this long after the last one fell due are
/// a backlog the server did not clear; the run is rejected.
const BACKLOG_GRACE: Duration = Duration::from_secs(1);
/// Lets every connection thread reach its first sleep before the
/// schedule's time zero.
const START_DELAY: Duration = Duration::from_millis(50);
/// How long a starting server may take to answer its first ping.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// The benchmarks the server generates (and the in-process twin copies).
fn served(ctx: &Ctx) -> Vec<Benchmark> {
    if ctx.smoke {
        vec![Benchmark::Compress, Benchmark::Swim, Benchmark::Gcc]
    } else {
        Benchmark::ALL.to_vec()
    }
}

/// The `mds-serve` built next to this binary.
fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate mdsbench: {e}"))?;
    let bin = exe.with_file_name("mds-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing: build the workspace first (cargo build --release --workspace) \
             into the same target directory as mdsbench",
            bin.display()
        ))
    }
}

/// Puts the calling process under `SCHED_IDLE`, which every thread it
/// starts inherits.
///
/// The server shares this host's cores with the load generator. Under
/// the default policy a client thread waking on its due time can wait
/// a whole scheduler tick (4 ms here) behind a busy simulation worker,
/// which is the generator running late, not the server being slow. As
/// `SCHED_IDLE`, the server yields to a waking client at once, as it
/// would to a client on another machine; with no client runnable, it
/// has the cores to itself.
fn sched_idle() -> std::io::Result<()> {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` that outlives the
    // call, and pid 0 names the calling process.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// One persistent client connection: a request line out, a response
/// line back.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one newline-terminated request and reads its response line.
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        response.pop();
        Ok(response)
    }
}

/// A running `mds-serve`; dropping it shuts the server down and waits
/// for it to exit.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    fn start(ctx: &Ctx, bin: &Path, socket: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_file(socket);
        let log = std::fs::File::create(ctx.work.join("mds-serve.log"))
            .map_err(|e| format!("cannot create server log: {e}"))?;
        let names: Vec<&str> = served(ctx).iter().map(|b| b.name()).collect();
        let mut command = Command::new(bin);
        command
            .arg("--socket")
            .arg(socket)
            .args(["--scale", "tiny", "--jobs", &ctx.jobs.to_string()])
            .args(["--benchmarks", &names.join(",")])
            .env_remove("MDS_FAULT_PLAN")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe system call.
        unsafe { command.pre_exec(sched_idle) };
        let child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Ok(reply) = server.call("{\"op\":\"ping\"}") {
                if reply.starts_with("{\"ok\":true") {
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "mds-serve exited during start-up ({status}); see mds-serve.log"
                ));
            }
            if Instant::now() > deadline {
                return Err("mds-serve did not answer a ping within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a connection of its own.
    fn call(&self, line: &str) -> Result<String, String> {
        Conn::open(&self.socket)
            .and_then(|mut c| c.call(&format!("{line}\n")))
            .map_err(|e| format!("mds-serve request failed: {e}"))
    }

    /// The runner counters from the `stats` op.
    fn stats(&self) -> Result<Value, String> {
        let reply = self.call("{\"op\":\"stats\"}")?;
        Value::parse_json(&reply)
            .ok()
            .and_then(|v| v.get("stats").cloned())
            .ok_or_else(|| format!("unexpected stats reply: {reply}"))
    }

    /// Asks the server to shut down and waits for it; kills it if it has
    /// not exited within a few seconds. Returns whether it exited cleanly.
    fn stop(&mut self) -> bool {
        if let Ok(Some(status)) = self.child.try_wait() {
            return status.success();
        }
        let _ = self.call("{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn counter(stats: &Value, name: &str) -> Result<u64, String> {
    stats
        .get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("stats reply has no {name}"))
}

/// One scheduled request: when it falls due (from time zero) and which
/// config it sweeps.
struct Due {
    at: Duration,
    config: usize,
}

/// The seeded popularity ranking (most popular first) and the schedule.
fn schedule(rng: &mut Rng, configs: usize, count: usize) -> (Vec<usize>, Vec<Due>) {
    let ranking = rng.permutation(configs);
    let weights: Vec<f64> = (1..=configs)
        .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(configs);
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut at = 0.0;
    let due = (0..count)
        .map(|_| {
            at += -(1.0 - rng.unit()).ln() / RATE;
            let u = rng.unit();
            let rank = cdf.partition_point(|&c| c < u).min(configs - 1);
            Due {
                at: Duration::from_secs_f64(at),
                config: ranking[rank],
            }
        })
        .collect();
    (ranking, due)
}

/// What happened to one scheduled request, relative to time zero.
struct Done {
    sent: Duration,
    replied: Duration,
    /// Send time minus the later of due time and the connection's
    /// previous reply: how late the generator itself ran.
    lag: Duration,
    response: Result<String, String>,
}

/// Plays the schedule over `conns` connections, request `i` on
/// connection `i % conns`, each connection driven by one blocking
/// thread. Returns one record per request, in schedule order.
fn play(
    socket: &Path,
    schedule: &[Due],
    lines: &[String],
    conns: usize,
) -> Result<Vec<Done>, String> {
    let streams: Vec<Conn> = (0..conns)
        .map(|_| Conn::open(socket))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot connect to mds-serve: {e}"))?;
    let zero = Instant::now() + START_DELAY;
    let mut done: Vec<Option<Done>> = (0..schedule.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let threads: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut previous = Duration::ZERO;
                    for (i, due) in schedule.iter().enumerate().skip(c).step_by(conns) {
                        let at = zero + due.at;
                        if let Some(wait) = at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = zero.elapsed();
                        let response = conn
                            .call(&lines[due.config])
                            .map_err(|e| format!("transport: {e}"));
                        let replied = zero.elapsed();
                        let lag = sent.saturating_sub(due.at.max(previous));
                        previous = replied;
                        mine.push((
                            i,
                            Done {
                                sent,
                                replied,
                                lag,
                                response,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        for thread in threads {
            for (i, d) in thread.join().expect("load thread panicked") {
                done[i] = Some(d);
            }
        }
    });
    Ok(done
        .into_iter()
        .map(|d| d.expect("every request played"))
        .collect())
}

pub fn serve_zipf(ctx: &Ctx) -> Result<Outcome, String> {
    let bin = server_binary()?;
    let socket = ctx.work.join("serve.sock");
    let configs = config_space();
    // Request lines are rendered once, newline included, before timing.
    let lines: Vec<String> = configs
        .iter()
        .map(|c| format!("{}\n", sweep_line(c)))
        .collect();
    let count = ((RATE * ctx.seconds).round() as usize).max(1);
    let (ranking, due) = schedule(&mut ctx.rng(3), configs.len(), count);
    let warm: Vec<usize> = ranking[..WARM_CONFIGS].to_vec();
    let mut out = Outcome::default();

    let (setup_s, mut server) = setup(ctx, || Server::start(ctx, &bin, &socket))?;
    let sims_at_start = counter(&server.stats()?, "simulations")?;

    // Warm-up, untimed: the most popular configs, once each.
    let mut first: Vec<Option<String>> = vec![None; configs.len()];
    let mut conn = Conn::open(&socket).map_err(|e| format!("cannot connect: {e}"))?;
    ctx.span("warm_up", || {
        for &c in &warm {
            let reply = conn
                .call(&lines[c])
                .map_err(|e| format!("warm-up request failed: {e}"))?;
            first[c] = Some(reply);
        }
        Ok::<(), String>(())
    })?;
    drop(conn);
    let warm_text: String = warm
        .iter()
        .map(|&c| format!("{}\n", first[c].as_deref().unwrap_or_default()))
        .collect();

    let before = server.stats()?;
    let cpu_before = cpu_seconds(server.pid())?;
    let done = ctx.span("schedule", || play(&socket, &due, &lines, ctx.jobs))?;
    let cpu_after = cpu_seconds(server.pid())?;
    let after = server.stats()?;
    let rss = peak_rss_mib(server.pid())?;
    let clean_exit = server.stop();

    // Latency from due time; failures are transport errors, error
    // replies, and replies that differ from the config's first reply.
    let mut op = OpTimer {
        wall: Vec::with_capacity(done.len()),
        cpu: cpu_after - cpu_before,
    };
    let mut failed = 0;
    let mut within_limit = 0;
    for (d, req) in done.iter().zip(&due) {
        let latency = d.replied.saturating_sub(req.at).as_secs_f64();
        op.wall.push(latency);
        let ok = match &d.response {
            Ok(r) if r.starts_with("{\"ok\":true") => {
                let earlier = first[req.config].get_or_insert_with(|| r.clone());
                earlier == r
            }
            _ => false,
        };
        if ok {
            within_limit += usize::from(latency * 1e3 <= LATENCY_LIMIT_MS);
        } else {
            failed += 1;
        }
    }
    out.attempted = done.len() as u64;
    out.failed = failed;
    out.end_to_end(&setup_s, &op, done.len(), rss);

    let latencies_ms: Vec<f64> = op.wall.iter().map(|s| s * 1e3).collect();
    out.push("p99_ms", "ms", percentile(&latencies_ms, 0.99), done.len());
    out.push(
        "goodput_rps",
        "1/s",
        within_limit as f64 / ctx.seconds,
        done.len(),
    );
    let lags_ms: Vec<f64> = done.iter().map(|d| d.lag.as_secs_f64() * 1e3).collect();
    let lag_p99 = percentile(&lags_ms, 0.99);
    let last_due = due.last().map_or(Duration::ZERO, |d| d.at);
    let backlog = done
        .iter()
        .filter(|d| d.replied > last_due + BACKLOG_GRACE)
        .count();
    out.push("load.sched_lag_p99_ms", "ms", lag_p99, done.len());
    out.push("load.backlog_end", "count", backlog as f64, 1);
    let lag_ok = lag_p99 <= MAX_SCHED_LAG_MS || done.len() < MIN_GATED_REQUESTS;
    out.check(
        "load_generator_valid",
        lag_ok && backlog == 0,
        format!(
            "lag p99 {lag_p99:.3} ms (limit {MAX_SCHED_LAG_MS} from {MIN_GATED_REQUESTS} requests), \
             backlog {backlog}"
        ),
    );
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    out.check(
        "load_within_nproc",
        ctx.jobs <= nproc,
        format!("{} threads and connections on {nproc} cores", ctx.jobs),
    );
    out.check(
        "responses_ok_and_stable",
        failed == 0,
        format!(
            "{failed} of {} requests failed or changed bytes",
            done.len()
        ),
    );
    out.check(
        "server_clean_exit",
        clean_exit,
        "shutdown op, exit status 0",
    );

    // Every distinct config costs one simulation per benchmark, once.
    let requested = first.iter().filter(|r| r.is_some()).count() as u64;
    let benchmarks = served(ctx).len() as u64;
    let sims = counter(&after, "simulations")? - sims_at_start;
    out.check(
        "simulations_once_per_pair",
        sims == requested * benchmarks,
        format!("{sims} simulations for {requested} configs x {benchmarks} benchmarks"),
    );
    out.digest(ctx, "serve_zipf", fnv1a64(warm_text.as_bytes()));

    // A seeded sample of configs answered the same in process.
    let params = SuiteParams::tiny();
    let gen = || {
        Suite::generate(&served(ctx), &params)
            .map_err(|e| format!("workload generation failed: {e}"))
    };
    let twin = SweepService::new(Runner::new(gen()?).with_jobs(ctx.jobs));
    let seen: Vec<usize> = (0..configs.len()).filter(|&c| first[c].is_some()).collect();
    let mut pick = ctx.rng(4);
    let sample: Vec<usize> = (0..8).map(|_| seen[pick.below(seen.len())]).collect();
    let differing: Vec<usize> = ctx.span("check", || {
        sample
            .iter()
            .copied()
            .filter(|&c| Some(twin.handle_line(lines[c].trim_end()).0) != first[c])
            .collect()
    });
    out.check(
        "matches_in_process_service",
        differing.is_empty(),
        format!("8 seeded configs; differing: {differing:?}"),
    );
    drop(twin);

    if ctx.traced() {
        let runner = Runner::new(gen()?).with_jobs(ctx.jobs);
        out.isa_layer(runner.suite());
        let wall = done.last().map_or(0.0, |d| d.replied.as_secs_f64());
        let delta = |name| Ok::<u64, String>(counter(&after, name)? - counter(&before, name)?);
        let stats = mds_harness::RunnerStats {
            simulations: delta("simulations")?,
            cache_hits: delta("cache_hits")?,
            lane_batches: delta("lane_batches")?,
            sim_nanos: delta("sim_nanos")?,
            ..Default::default()
        };
        out.runner_layer(&stats, wall, ctx.jobs);
        // The same requests, warm-up first, replayed in process on one
        // thread: the service layer without the socket.
        let configs_len = configs.len();
        let mut plan = Plan::standard(&mut ctx.rng(2), &served(ctx), 2, 3, configs, 1);
        plan.requests = warm
            .iter()
            .copied()
            .chain(due.iter().map(|d| d.config))
            .collect();
        let replayed = probes::probe(ctx, runner, &plan, &mut out)?;
        // A socket hit: a request sent after its config's first reply
        // arrived (warm-up replies arrived before time zero).
        let mut first_reply: Vec<Option<Duration>> = vec![None; configs_len];
        for &c in &warm {
            first_reply[c] = Some(Duration::ZERO);
        }
        for (d, req) in done.iter().zip(&due) {
            let slot = &mut first_reply[req.config];
            *slot = Some(slot.map_or(d.replied, |t| t.min(d.replied)));
        }
        let socket_hits: Vec<f64> = done
            .iter()
            .zip(&due)
            .filter(|(d, req)| first_reply[req.config].is_some_and(|t| t < d.sent))
            .map(|(d, _)| (d.replied - d.sent).as_secs_f64() * 1e6)
            .collect();
        let in_process = out.reading("service.handle_hit_us").unwrap_or(0.0);
        out.push(
            "service.socket_us",
            "us",
            median(&socket_hits) - in_process,
            socket_hits.len(),
        );
        let socket_replies = warm
            .iter()
            .map(|&c| first[c].clone())
            .chain(done.iter().map(|d| d.response.clone().ok()));
        let same = replayed
            .into_iter()
            .zip(socket_replies)
            .all(|(a, b)| Some(a) == b);
        out.check(
            "replay_matches_socket",
            same,
            "every in-process reply equals the socket reply",
        );
    }
    Ok(out)
}
