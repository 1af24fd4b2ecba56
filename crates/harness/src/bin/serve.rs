//! `mds-serve` — a long-running simulation service over a Unix socket.
//!
//! ```text
//! mds-serve --socket PATH [--scale tiny|test|bench] [--benchmarks a,b]
//!           [--jobs N] [--cache-dir DIR] [--durable-cache]
//!           [--trace-out FILE.jsonl] [--trace-every N]
//!           [--read-timeout-ms N] [--write-timeout-ms N]
//!           [--max-connections N] [--fault-plan SPEC]
//! ```
//!
//! The server generates the benchmark suite once, then accepts any
//! number of concurrent clients. The protocol is line-oriented JSON —
//! one request per line, one response per line (see
//! [`SweepService::handle_line`] for the ops) — so `nc -U` works as a
//! client. All clients share one [`SweepService`]: completed results
//! are memoized (in memory, and on disk with `--cache-dir`), and
//! identical requests *in flight* at the same time are simulated once,
//! with the latecomers waiting for the winner's result. With
//! `--trace-out`, request lifecycle events stream to the JSONL trace
//! as the server works.
//!
//! The server degrades rather than falls over: connections beyond
//! `--max-connections` are shed with a structured `retry_after_ms`
//! error; a client that stalls mid-request (slowloris) or stops
//! reading its response is disconnected after the read/write timeout;
//! and every degradation increments a counter and emits a trace event.
//!
//! A `{"op":"shutdown"}` request — or SIGINT/SIGTERM — stops the
//! server gracefully: it stops accepting, drains in-flight
//! connections, and removes the socket file on the way out.

use mds_harness::cli::{parse_serve_args, ServeArgs, ServeCommand, SERVE_USAGE};
use mds_harness::{FaultSite, Runner, Suite, SweepService, TraceSink, MAX_REQUEST_LINE};
use serde::Value;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set from the signal handler; the accept loop polls it.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Signal handler: the only async-signal-safe action is flipping the
/// flag; the accept loop notices within one poll interval.
extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Registers `on_signal` for SIGINT and SIGTERM via the raw C
/// `signal(2)` entry point — the one libc symbol this binary needs, so
/// it declares it directly instead of growing a dependency.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` only stores to an atomic (async-signal-safe),
    // and `signal` is called before any thread is spawned.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// How often the accept loop re-checks the shutdown flags between
/// `WouldBlock` accepts, and how often the drain loop re-checks the
/// open-connection count.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long shutdown waits for in-flight connections to finish before
/// giving up and exiting anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// What shed responses tell the client to wait before retrying.
const SHED_RETRY_AFTER_MS: u64 = 500;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_serve_args(&argv) {
        Ok(ServeCommand::Run(args)) => args,
        Ok(ServeCommand::Help) => {
            println!("{SERVE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match serve(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: ServeArgs) -> Result<(), String> {
    eprintln!(
        "mds-serve: generating {} benchmark traces (~{} dynamic instructions each)...",
        args.benchmarks.len(),
        args.params.dyn_target
    );
    let suite = Suite::generate(&args.benchmarks, &args.params)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let mut runner = Runner::new(suite).with_jobs(args.jobs);
    let faults = mds_harness::cli::effective_fault_plan(args.fault_plan.as_deref())?;
    if faults.is_armed() {
        eprintln!("mds-serve: fault injection armed");
        runner = runner.with_faults(faults);
    }
    if args.durable_cache {
        runner = runner.with_durable_cache();
    }
    if let Some(dir) = &args.cache_dir {
        eprintln!("mds-serve: persistent cache at {}", dir.display());
        runner = runner.with_cache_dir(dir);
    }
    if let Some(path) = &args.trace_out {
        let sink = TraceSink::create(path, args.trace_every)
            .map_err(|e| format!("cannot create trace {}: {e}", path.display()))?;
        runner = runner.with_trace(sink);
    }
    let service = Arc::new(SweepService::new(runner));

    // A stale socket file from a dead server would make bind fail;
    // replacing it is the standard daemon idiom.
    let _ = std::fs::remove_file(&args.socket);
    let listener = UnixListener::bind(&args.socket)
        .map_err(|e| format!("cannot bind {}: {e}", args.socket.display()))?;
    eprintln!(
        "mds-serve: listening on {} ({} worker thread(s))",
        args.socket.display(),
        service.runner().jobs()
    );
    service
        .runner()
        .trace_event(
            "serve_start",
            &[("benchmarks", Value::UInt(args.benchmarks.len() as u64))],
        )
        .map_err(|e| format!("cannot write trace: {e}"))?;

    install_signal_handlers();
    // Nonblocking accept + poll: a blocking `accept` would not wake
    // for a signal-flag flip (glibc installs `signal(2)` handlers with
    // SA_RESTART, so the syscall resumes instead of returning EINTR)
    // or for a protocol-requested shutdown on another thread.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot make listener nonblocking: {e}"))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("mds-serve: signal received; draining");
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                // The accepted socket must block (with timeouts);
                // inheriting nonblocking mode would turn every read
                // into a spin.
                if let Err(e) = stream.set_nonblocking(false) {
                    eprintln!("mds-serve: cannot configure connection: {e}");
                    continue;
                }
                if args.max_connections > 0 && service.connections() >= args.max_connections {
                    shed(&service, stream, args.write_timeout_ms);
                    continue;
                }
                // Counted here, not in the thread, so the cap check
                // above never races a connection that has been
                // accepted but not yet counted.
                service.connection_opened();
                let service = Arc::clone(&service);
                let shutdown = Arc::clone(&shutdown);
                let read_timeout_ms = args.read_timeout_ms;
                let write_timeout_ms = args.write_timeout_ms;
                std::thread::spawn(move || {
                    if let Err(e) = client_loop(
                        &service,
                        stream,
                        &shutdown,
                        read_timeout_ms,
                        write_timeout_ms,
                    ) {
                        eprintln!("mds-serve: client error: {e}");
                    }
                    service.connection_closed();
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) => eprintln!("mds-serve: accept failed: {e}"),
        }
    }

    // Graceful drain: stop accepting (the listener is simply no longer
    // polled), let in-flight connections finish, bounded so a wedged
    // client cannot hold shutdown hostage forever.
    let drain_start = Instant::now();
    while service.connections() > 0 {
        if drain_start.elapsed() > DRAIN_DEADLINE {
            eprintln!(
                "mds-serve: drain deadline passed with {} connection(s) still open; exiting",
                service.connections()
            );
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }

    let _ = std::fs::remove_file(&args.socket);
    let stats = service.runner().stats();
    eprintln!(
        "mds-serve: shutting down: {} simulations, {} cache hits ({} from disk), \
         {} disk writes",
        stats.simulations, stats.cache_hits, stats.disk_hits, stats.disk_writes
    );
    service
        .runner()
        .trace_event("serve_finish", &stats.report_fields())
        .map_err(|e| format!("cannot write trace: {e}"))?;
    if let Some(sink) = service.runner().trace() {
        sink.flush()
            .map_err(|e| format!("cannot flush trace: {e}"))?;
    }
    Ok(())
}

/// Writes the overload-shed response to a connection accepted beyond
/// the cap, then drops it. Best-effort: the client may already be
/// gone, and the shed is counted either way.
fn shed(service: &SweepService, stream: UnixStream, write_timeout_ms: u64) {
    let response = service.shed_response(SHED_RETRY_AFTER_MS);
    let _ = stream.set_write_timeout(timeout(write_timeout_ms));
    let mut writer = BufWriter::new(stream);
    let _ = writer.write_all(response.as_bytes());
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();
}

/// Converts a millisecond flag value to a socket timeout (`0` =
/// disabled).
fn timeout(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Whether an I/O error is a socket-timeout expiry. Linux reports a
/// timed-out read/write on a socket with `SO_RCVTIMEO`/`SO_SNDTIMEO`
/// as `EWOULDBLOCK`; other platforms use `ETIMEDOUT`.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Serves one client connection: reads request lines, writes response
/// lines. On a shutdown request, flips the flag; the accept loop polls
/// it and begins draining.
///
/// A read or write that exceeds the connection's timeout closes the
/// connection and counts it (`service.read_timeouts`) instead of
/// pinning the thread — the slowloris defence. The `conn_drop` and
/// `conn_slow` fault sites fire here, per request line.
///
/// With tracing attached, every request is wrapped in a `recv` span —
/// from reading the line through flushing the response — that parents
/// the runner's `resolve` span, with its `claim`/`dedup_join` phases and
/// per-config span trees, so one request is one connected tree in the
/// trace.
fn client_loop(
    service: &SweepService,
    stream: UnixStream,
    shutdown: &AtomicBool,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
) -> std::io::Result<()> {
    stream.set_read_timeout(timeout(read_timeout_ms))?;
    stream.set_write_timeout(timeout(write_timeout_ms))?;
    let traced = service.runner().trace().is_some();
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_bounded_line(&mut reader, MAX_REQUEST_LINE) {
            Err(e) if is_timeout(&e) => {
                service.connection_timed_out();
                break;
            }
            Err(e) => return Err(e),
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized(seen)) => {
                let response = service.reject_oversized_line(seen);
                writer.write_all(response.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                continue;
            }
            Ok(LineRead::Line(line)) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        if let Some(f) = service.runner().faults().fire(FaultSite::ConnDrop) {
            let _ = service.runner().trace_event(
                "conn_drop",
                &[("site", Value::Str(f.site.name().to_string()))],
            );
            // Abrupt close mid-conversation: the client sees EOF where
            // a response line should be.
            break;
        }
        if let Some(f) = service.runner().faults().fire(FaultSite::ConnSlow) {
            std::thread::sleep(Duration::from_millis(f.millis));
        }
        let recv = traced.then(|| service.runner().spans().enter("recv", None));
        let (response, stop) = service.handle_line_under(&line, recv.as_ref().map(|s| s.id()));
        let wrote = writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        match wrote {
            Err(e) if is_timeout(&e) => {
                service.connection_timed_out();
                break;
            }
            other => other?,
        }
        if let Some(mut span) = recv {
            span.add_field("bytes_in", Value::UInt(line.len() as u64));
            span.add_field("bytes_out", Value::UInt(response.len() as u64));
            if let Err(e) = service.runner().emit_span(&span.finish()) {
                eprintln!("mds-serve: trace write failed: {e}");
            }
        }
        if stop {
            shutdown.store(true, Ordering::SeqCst);
            break;
        }
    }
    Ok(())
}

/// One bounded line read.
enum LineRead {
    /// A complete line (without its newline), at most `max` bytes.
    Line(String),
    /// The line exceeded `max` bytes; it was discarded through its
    /// terminating newline (so the next read starts on a fresh line)
    /// and this carries how many bytes it held.
    Oversized(usize),
    /// The peer closed the connection.
    Eof,
}

/// Reads one `\n`-terminated line, never buffering more than `max`
/// bytes of it. This replaces `BufRead::lines`, whose internal
/// `read_until` grows its buffer without limit — a client writing an
/// endless line would run the server out of memory before the protocol
/// layer ever saw a byte. An over-long line is drained chunk by chunk
/// (bounded memory) through its newline, keeping the connection usable.
fn read_bounded_line<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF. A non-empty remainder is a final unterminated line,
            // matching `lines()`.
            return if line.is_empty() {
                Ok(LineRead::Eof)
            } else {
                utf8_line(line)
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) if line.len() + newline <= max => {
                line.extend_from_slice(&chunk[..newline]);
                reader.consume(newline + 1);
                return utf8_line(line);
            }
            Some(newline) => {
                let seen = line.len() + newline;
                reader.consume(newline + 1);
                return Ok(LineRead::Oversized(seen));
            }
            None if line.len() + chunk.len() <= max => {
                let taken = chunk.len();
                line.extend_from_slice(chunk);
                reader.consume(taken);
            }
            None => {
                // Already too long: stop accumulating and discard
                // through the newline.
                let mut seen = line.len();
                line.clear();
                loop {
                    let chunk = reader.fill_buf()?;
                    if chunk.is_empty() {
                        return Ok(LineRead::Oversized(seen));
                    }
                    match chunk.iter().position(|&b| b == b'\n') {
                        Some(newline) => {
                            seen += newline;
                            reader.consume(newline + 1);
                            return Ok(LineRead::Oversized(seen));
                        }
                        None => {
                            seen += chunk.len();
                            let taken = chunk.len();
                            reader.consume(taken);
                        }
                    }
                }
            }
        }
    }
}

fn utf8_line(bytes: Vec<u8>) -> std::io::Result<LineRead> {
    String::from_utf8(bytes).map(LineRead::Line).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(input: &[u8], max: usize) -> Vec<String> {
        // A tiny buffer capacity forces the chunk-spanning paths.
        let mut reader = BufReader::with_capacity(8, Cursor::new(input.to_vec()));
        let mut out = Vec::new();
        loop {
            match read_bounded_line(&mut reader, max).expect("read") {
                LineRead::Line(l) => out.push(format!("line:{l}")),
                LineRead::Oversized(seen) => out.push(format!("oversized:{seen}")),
                LineRead::Eof => return out,
            }
        }
    }

    #[test]
    fn reads_lines_within_the_cap() {
        assert_eq!(
            read_all(b"ab\nlonger line\n\ntail", 64),
            ["line:ab", "line:longer line", "line:", "line:tail"]
        );
    }

    #[test]
    fn oversized_line_is_drained_and_reported() {
        let mut input = vec![b'x'; 100];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        assert_eq!(read_all(&input, 10), ["oversized:100", "line:ok"]);
        // A line of exactly `max` bytes still goes through.
        assert_eq!(
            read_all(&input, 100),
            [format!("line:{}", "x".repeat(100)), "line:ok".into()]
        );
    }

    #[test]
    fn oversized_line_at_eof_is_still_reported() {
        assert_eq!(read_all(&[b'y'; 50], 10), ["oversized:50"]);
    }
}
