//! End-to-end tests of the `mds-serve` daemon and `mds-load` client:
//! real binaries, a real Unix socket, genuinely concurrent clients.

use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `mds-serve` bound to a short-lived socket path.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    fn spawn(tag: &str, extra: &[&str]) -> Server {
        // Unix socket paths are limited to ~108 bytes; stay short.
        let socket = std::env::temp_dir().join(format!("mds-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_mds-serve"))
            .arg("--socket")
            .arg(&socket)
            .args([
                "--scale",
                "tiny",
                "--benchmarks",
                "compress,swim",
                "--jobs",
                "2",
            ])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning mds-serve");
        let server = Server { child, socket };
        let deadline = Instant::now() + Duration::from_secs(60);
        while UnixStream::connect(&server.socket).is_err() {
            assert!(
                Instant::now() < deadline,
                "server did not come up on {}",
                server.socket.display()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        server
    }

    fn shutdown_and_wait(mut self) {
        let response = request(&self.socket, "{\"op\":\"shutdown\"}");
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
        let status = self.child.wait().expect("waiting for mds-serve");
        assert!(status.success(), "server exited with {status}");
        assert!(
            !self.socket.exists(),
            "socket file must be removed on shutdown"
        );
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One request over a fresh connection.
fn request(socket: &Path, line: &str) -> Value {
    let stream = UnixStream::connect(socket).expect("connecting");
    let mut writer = stream.try_clone().expect("cloning stream");
    writeln!(writer, "{line}").expect("writing request");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("reading response");
    Value::parse_json(response.trim_end()).expect("parsing response JSON")
}

/// One named counter out of a `metrics` snapshot (0 when absent —
/// registry counters only exist once first touched).
fn metric(socket: &Path, name: &str) -> u64 {
    let response = request(socket, "{\"op\":\"metrics\"}");
    assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
    response
        .get("metrics")
        .expect("metrics response carries a snapshot")
        .get(name)
        .map_or(0, |v| v.as_u64().expect("counter is an integer"))
}

#[test]
fn concurrent_clients_share_one_sweep_of_simulations() {
    let server = Server::spawn("proto", &[]);
    let socket = &server.socket;

    let pong = request(socket, "{\"op\":\"ping\"}");
    assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(pong.get("protocol").unwrap().as_u64(), Some(1));

    // Three clients, same pair set in three rotations, racing over the
    // socket. Each client keeps one connection and sweeps twice (the
    // second pass must be pure cache).
    let policies = ["NAS/NO", "NAS/NAV", "NAS/ORACLE"];
    let row_sets: Vec<Vec<String>> = std::thread::scope(|scope| {
        (0..3)
            .map(|start| {
                scope.spawn(move || {
                    let configs: Vec<String> = (0..policies.len())
                        .map(|i| {
                            format!(
                                "{{\"policy\":\"{}\"}}",
                                policies[(start + i) % policies.len()]
                            )
                        })
                        .collect();
                    let sweep = format!("{{\"op\":\"sweep\",\"configs\":[{}]}}", configs.join(","));
                    let stream = UnixStream::connect(socket).expect("connecting");
                    let mut writer = stream.try_clone().expect("cloning stream");
                    let mut reader = BufReader::new(stream);
                    let mut rows_of = |line: &str| {
                        writeln!(writer, "{line}").expect("writing sweep");
                        let mut response = String::new();
                        reader.read_line(&mut response).expect("reading sweep");
                        let parsed = Value::parse_json(response.trim_end()).unwrap();
                        assert_eq!(
                            parsed.get("ok").unwrap().as_bool(),
                            Some(true),
                            "{response}"
                        );
                        let mut rows: Vec<String> = parsed
                            .get("rows")
                            .unwrap()
                            .as_array()
                            .unwrap()
                            .iter()
                            .map(Value::to_json)
                            .collect();
                        rows.sort();
                        rows
                    };
                    let first = rows_of(&sweep);
                    let second = rows_of(&sweep);
                    assert_eq!(first, second, "repeat sweep must be identical");
                    first
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(row_sets[0].len(), 6, "3 policies x 2 benchmarks");
    assert_eq!(row_sets[0], row_sets[1]);
    assert_eq!(row_sets[1], row_sets[2]);

    // The server's own counters prove each distinct pair ran once.
    let stats = request(socket, "{\"op\":\"stats\"}");
    let stats = stats.get("stats").unwrap();
    assert_eq!(stats.get("simulations").unwrap().as_u64(), Some(6));
    assert_eq!(
        stats.get("cache_hits").unwrap().as_u64(),
        Some(30),
        "6 requests x 6 pairs = 36 total, 6 simulated, 30 served"
    );

    // The metrics verb agrees with the dedup ledger: every one of the
    // 36 requested pairs was claimed once (6 distinct, matching the
    // simulations counter) or satisfied without work.
    assert_eq!(metric(socket, "dedup.claimed"), 6);
    assert_eq!(metric(socket, "service.pairs_requested"), 36);
    assert_eq!(
        metric(socket, "dedup.claimed")
            + metric(socket, "dedup.joined")
            + metric(socket, "dedup.served_from_cache"),
        36,
        "every requested pair is accounted to exactly one dedup outcome"
    );
    assert_eq!(metric(socket, "requests.op.sweep"), 6);

    // Prometheus exposition of the same snapshot.
    let prom = request(socket, "{\"op\":\"metrics\",\"format\":\"prometheus\"}");
    assert_eq!(prom.get("ok").unwrap().as_bool(), Some(true));
    let text = prom.get("text").unwrap().as_str().unwrap();
    assert!(text.contains("mds_dedup_claimed 6"), "{text}");
    assert!(
        text.contains("# TYPE mds_phase_simulate_us histogram"),
        "{text}"
    );
    assert!(text.contains("mds_phase_simulate_us_count 6"), "{text}");

    // An unknown format is a per-request error, not a dead connection.
    let bad_format = request(socket, "{\"op\":\"metrics\",\"format\":\"xml\"}");
    assert_eq!(bad_format.get("ok").unwrap().as_bool(), Some(false));

    // Malformed requests do not wedge the server.
    let bad = request(
        socket,
        "{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NOPE\"}]}",
    );
    assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
    assert!(bad.get("error").unwrap().as_str().is_some());

    // The extended stats response reports service health next to the
    // runner counters.
    let stats = request(socket, "{\"op\":\"stats\"}");
    assert!(stats.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
    assert!(
        stats.get("connections").unwrap().as_u64().unwrap() >= 1,
        "the stats request's own connection is active"
    );
    assert_eq!(stats.get("inflight").unwrap().as_u64(), Some(0));
    let tiers = stats.get("tiers").unwrap();
    assert_eq!(tiers.get("disk_writes").unwrap().as_u64(), Some(0));
    assert_eq!(
        tiers.get("memory_hits").unwrap().as_u64(),
        Some(30),
        "registry memory-tier counter mirrors the stats cache_hits"
    );

    server.shutdown_and_wait();
}

#[test]
fn oversized_request_line_is_rejected_without_killing_the_connection() {
    let server = Server::spawn("cap", &[]);

    let stream = UnixStream::connect(&server.socket).expect("connecting");
    let mut writer = stream.try_clone().expect("cloning stream");
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &str| -> Value {
        writeln!(writer, "{line}").expect("writing request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("reading response");
        Value::parse_json(response.trim_end()).expect("parsing response JSON")
    };

    // Well over the 1 MiB line cap — still valid JSON, but the server
    // must refuse it unparsed rather than buffer it.
    let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "a".repeat(2 << 20));
    let rejected = exchange(&huge);
    assert_eq!(rejected.get("ok").unwrap().as_bool(), Some(false));
    let error = rejected.get("error").unwrap().as_str().unwrap();
    assert!(error.contains("exceeds"), "{error}");

    // The same connection keeps working afterwards.
    let pong = exchange("{\"op\":\"ping\"}");
    assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));

    // The rejection is accounted like any other malformed request.
    assert!(metric(&server.socket, "requests.error") >= 1);
    assert!(metric(&server.socket, "requests.op.invalid") >= 1);

    server.shutdown_and_wait();
}

#[test]
fn deeply_nested_request_is_rejected_without_killing_the_server() {
    let server = Server::spawn("nest", &[]);

    let stream = UnixStream::connect(&server.socket).expect("connecting");
    let mut writer = stream.try_clone().expect("cloning stream");
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &str| -> Value {
        writeln!(writer, "{line}").expect("writing request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("reading response");
        Value::parse_json(response.trim_end()).expect("parsing response JSON")
    };

    // Under the line cap, but far deeper than the parser recurses.
    let rejected = exchange(&"[".repeat(500_000));
    assert_eq!(rejected.get("ok").unwrap().as_bool(), Some(false));
    let error = rejected.get("error").unwrap().as_str().unwrap();
    assert!(
        error.starts_with("bad request JSON: nesting too deep"),
        "{error}"
    );

    // The same connection keeps working afterwards.
    let pong = exchange("{\"op\":\"ping\"}");
    assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
    assert!(metric(&server.socket, "requests.op.invalid") >= 1);

    server.shutdown_and_wait();
}

#[test]
fn slow_client_is_timed_out_and_counted() {
    // A read timeout far below the test's patience: the slowloris
    // connection writes half a request and stalls.
    let server = Server::spawn("slow", &["--read-timeout-ms", "200"]);

    let stream = UnixStream::connect(&server.socket).expect("connecting");
    let mut writer = stream.try_clone().expect("cloning stream");
    write!(writer, "{{\"op\":\"pi").expect("writing a partial request");
    writer.flush().expect("flushing");

    // The server must hang up on us, not wait forever.
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let n = reader.read_line(&mut response).unwrap_or(0);
    assert_eq!(
        n, 0,
        "server should close a stalled connection: {response:?}"
    );

    // The hangup is accounted.
    assert_eq!(metric(&server.socket, "service.read_timeouts"), 1);

    // And fresh connections are unaffected.
    let pong = request(&server.socket, "{\"op\":\"ping\"}");
    assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
    server.shutdown_and_wait();
}

#[test]
fn connections_beyond_the_cap_are_shed_with_retry_after() {
    let server = Server::spawn(
        "shed",
        &["--max-connections", "2", "--read-timeout-ms", "2000"],
    );

    // A held connection that is provably *served*, not shed: it pings
    // and sees ok:true. Retried because the spawn-readiness probe's
    // connection may still be counted for an instant.
    let connect_served = || {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stream = UnixStream::connect(&server.socket).expect("connecting");
            let mut writer = stream.try_clone().expect("cloning stream");
            let mut reader = BufReader::new(stream.try_clone().expect("cloning stream"));
            writeln!(writer, "{{\"op\":\"ping\"}}").expect("writing ping");
            let mut response = String::new();
            reader.read_line(&mut response).expect("reading ping");
            let parsed = Value::parse_json(response.trim_end()).expect("ping response is JSON");
            if parsed.get("ok").unwrap().as_bool() == Some(true) {
                return stream;
            }
            assert!(Instant::now() < deadline, "could not occupy the pool");
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    // Two held connections fill the pool.
    let hold_a = connect_served();
    let hold_b = connect_served();

    // The third is answered with a structured shed, then closed.
    let shed = UnixStream::connect(&server.socket).expect("conn c");
    let mut response = String::new();
    BufReader::new(shed)
        .read_line(&mut response)
        .expect("reading shed response");
    let parsed = Value::parse_json(response.trim_end()).expect("shed response is JSON");
    assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        parsed.get("retry_after_ms").unwrap().as_u64(),
        Some(500),
        "{response}"
    );

    // Releasing capacity lets new connections through again.
    drop(hold_a);
    drop(hold_b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let response = request(&server.socket, "{\"op\":\"ping\"}");
        if response.get("ok").unwrap().as_bool() == Some(true) {
            break;
        }
        assert!(Instant::now() < deadline, "capacity never freed");
        std::thread::sleep(Duration::from_millis(50));
    }
    // At least the one deliberate shed; the probe pings above may have
    // been shed too while the pool was still draining.
    assert!(metric(&server.socket, "service.sheds") >= 1);
    server.shutdown_and_wait();
}

#[test]
fn mid_request_disconnects_do_not_wedge_the_server() {
    let server = Server::spawn("drop", &[]);

    // Disconnect with half a request in flight.
    {
        let stream = UnixStream::connect(&server.socket).expect("connecting");
        let mut writer = stream.try_clone().expect("cloning stream");
        write!(writer, "{{\"op\":\"sweep\",\"configs\":[").expect("writing");
        writer.flush().expect("flushing");
    }
    // Disconnect after a full request, before reading the response:
    // the server's response write hits a closed socket.
    {
        let stream = UnixStream::connect(&server.socket).expect("connecting");
        let mut writer = stream.try_clone().expect("cloning stream");
        writeln!(
            writer,
            "{{\"op\":\"sweep\",\"configs\":[{{\"policy\":\"NAS/NAV\"}}]}}"
        )
        .expect("writing");
        writer.flush().expect("flushing");
    }

    // A malformed line after a valid request on one connection: the
    // error is per-request, the connection survives both.
    let stream = UnixStream::connect(&server.socket).expect("connecting");
    let mut writer = stream.try_clone().expect("cloning stream");
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &str| -> Value {
        writeln!(writer, "{line}").expect("writing request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("reading response");
        Value::parse_json(response.trim_end()).expect("parsing response JSON")
    };
    assert_eq!(
        exchange("{\"op\":\"ping\"}").get("ok").unwrap().as_bool(),
        Some(true)
    );
    let bad = exchange("this is not json {{{");
    assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
    assert!(bad.get("error").unwrap().as_str().is_some());
    assert_eq!(
        exchange("{\"op\":\"ping\"}").get("ok").unwrap().as_bool(),
        Some(true),
        "the connection keeps working after a malformed request"
    );

    server.shutdown_and_wait();
}

#[test]
fn shutdown_racing_an_inflight_sweep_answers_both() {
    let server = Server::spawn("race", &[]);
    let socket = server.socket.clone();

    // A sweep launched concurrently with a shutdown request: the
    // graceful drain must let the sweep finish and both clients get
    // their responses. The sweeper pings first on the same connection
    // so the race is between an *accepted* connection's sweep and the
    // shutdown — not between connect() and the listener going away.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let sweeper = std::thread::spawn(move || {
        let stream = UnixStream::connect(&socket).expect("connecting");
        let mut writer = stream.try_clone().expect("cloning stream");
        let mut reader = BufReader::new(stream);
        let mut exchange = |line: &str| -> Value {
            writeln!(writer, "{line}").expect("writing request");
            let mut response = String::new();
            reader.read_line(&mut response).expect("reading response");
            Value::parse_json(response.trim_end()).expect("parsing response JSON")
        };
        assert_eq!(
            exchange("{\"op\":\"ping\"}").get("ok").unwrap().as_bool(),
            Some(true)
        );
        ready_tx.send(()).expect("signalling readiness");
        exchange(
            "{\"op\":\"sweep\",\"configs\":[{\"policy\":\"NAS/NO\"},{\"policy\":\"NAS/NAV\"},\
             {\"policy\":\"NAS/ORACLE\"}]}",
        )
    });
    ready_rx.recv().expect("sweeper never became ready");
    server.shutdown_and_wait();
    let swept = sweeper.join().expect("sweep client panicked");
    assert_eq!(
        swept.get("ok").unwrap().as_bool(),
        Some(true),
        "in-flight sweep must complete through a graceful shutdown: {swept:?}"
    );
    assert_eq!(swept.get("rows").unwrap().as_array().unwrap().len(), 6);
}

#[test]
fn sigterm_drains_and_removes_the_socket() {
    let server = Server::spawn("term", &[]);

    // Prove the server works, then signal it.
    let pong = request(&server.socket, "{\"op\":\"ping\"}");
    assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));

    let status = Command::new("kill")
        .args(["-TERM", &server.child.id().to_string()])
        .status()
        .expect("sending SIGTERM");
    assert!(status.success(), "kill failed");

    // Consume the server without the Drop kill: it must exit cleanly
    // on its own.
    let mut server = server;
    let deadline = Instant::now() + Duration::from_secs(30);
    let code = loop {
        if let Some(status) = server.child.try_wait().expect("polling server") {
            break status;
        }
        assert!(Instant::now() < deadline, "server ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(code.success(), "SIGTERM exit must be graceful, got {code}");
    assert!(
        !server.socket.exists(),
        "socket file must be removed on SIGTERM shutdown"
    );
}

#[test]
fn load_client_retries_through_injected_connection_drops() {
    // The server drops the first two request-bearing connections on
    // the floor; a retrying client must ride it out and still verify
    // exact simulation counts.
    let server = Server::spawn(
        "chaos",
        &["--fault-plan", "conn_drop=nth:1;conn_slow=nth:2:100"],
    );

    let output = Command::new(env!("CARGO_BIN_EXE_mds-load"))
        .arg("--socket")
        .arg(&server.socket)
        .args([
            "--clients",
            "2",
            "--policies",
            "NAS/NO,NAS/NAV",
            "--repeats",
            "2",
            "--retries",
            "4",
            "--expect-simulations-delta",
            "4",
        ])
        .output()
        .expect("running mds-load");
    assert!(
        output.status.success(),
        "mds-load with --retries must survive injected drops: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let summary = Value::parse_json(String::from_utf8_lossy(&output.stdout).trim()).unwrap();
    assert_eq!(summary.get("agreement").unwrap().as_bool(), Some(true));
    assert_eq!(summary.get("simulations_delta").unwrap().as_u64(), Some(4));

    // The injected faults are on the server's ledger.
    assert_eq!(metric(&server.socket, "faults.injected.conn_drop"), 1);
    assert_eq!(metric(&server.socket, "faults.injected.conn_slow"), 1);
    server.shutdown_and_wait();
}

#[test]
fn load_client_verifies_cold_and_warm_counters() {
    let cache = std::env::temp_dir().join(format!("mds-load-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let cache_arg = cache.to_str().unwrap().to_string();
    let server = Server::spawn("load", &["--cache-dir", &cache_arg]);

    let load = |socket: &Path, expected_delta: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_mds-load"))
            .arg("--socket")
            .arg(socket)
            .args([
                "--clients",
                "3",
                "--policies",
                "NAS/NO,NAS/NAV",
                "--window-sizes",
                "64,128",
                "--repeats",
                "2",
                "--expect-simulations-delta",
                expected_delta,
            ])
            .output()
            .expect("running mds-load");
        assert!(
            output.status.success(),
            "mds-load failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        Value::parse_json(String::from_utf8_lossy(&output.stdout).trim()).unwrap()
    };

    // Cold server: the 2x2 config grid over 2 benchmarks is 8 distinct
    // pairs; three overlapping clients must cost exactly 8 simulations.
    let summary = load(&server.socket, "8");
    assert_eq!(summary.get("distinct_pairs").unwrap().as_u64(), Some(8));
    assert_eq!(summary.get("simulations_delta").unwrap().as_u64(), Some(8));
    assert_eq!(summary.get("agreement").unwrap().as_bool(), Some(true));

    // The metrics snapshot's dedup ledger matches the cold delta: the 8
    // simulated pairs are exactly the 8 claimed ones, written back to
    // the disk tier once each.
    assert_eq!(metric(&server.socket, "dedup.claimed"), 8);
    assert_eq!(metric(&server.socket, "runner.simulations"), 8);
    assert_eq!(metric(&server.socket, "cache.disk_writes"), 8);
    assert_eq!(metric(&server.socket, "cache.disk_hits"), 0);

    // Same barrage again: everything is memoized, nothing simulates —
    // and no new claims appear in the ledger.
    let summary = load(&server.socket, "0");
    assert_eq!(summary.get("simulations_delta").unwrap().as_u64(), Some(0));
    assert_eq!(
        metric(&server.socket, "dedup.claimed"),
        8,
        "warm: no new claims"
    );
    assert_eq!(metric(&server.socket, "runner.simulations"), 8);

    // The live-metrics client mode renders the same snapshot.
    let output = Command::new(env!("CARGO_BIN_EXE_mds-load"))
        .arg("--socket")
        .arg(&server.socket)
        .arg("--metrics")
        .output()
        .expect("running mds-load --metrics");
    assert!(
        output.status.success(),
        "mds-load --metrics failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("simulate"), "{text}");
    assert!(text.contains("dedup.claimed=8"), "{text}");
    assert!(text.contains("\"phase_histograms\""), "{text}");

    // The disk tier saw the results; the counters agree.
    let stats = request(&server.socket, "{\"op\":\"stats\"}");
    assert_eq!(
        stats
            .get("stats")
            .unwrap()
            .get("disk_writes")
            .unwrap()
            .as_u64(),
        Some(8)
    );
    server.shutdown_and_wait();

    // A fresh server on the same cache directory serves the identical
    // barrage entirely from disk.
    let server = Server::spawn("load2", &["--cache-dir", &cache_arg]);
    let summary = load(&server.socket, "0");
    assert_eq!(summary.get("simulations_delta").unwrap().as_u64(), Some(0));
    let stats = request(&server.socket, "{\"op\":\"stats\"}");
    assert_eq!(
        stats
            .get("stats")
            .unwrap()
            .get("disk_hits")
            .unwrap()
            .as_u64(),
        Some(8),
        "every distinct pair loaded from the persistent tier"
    );
    // The registry's disk-tier counter sees the same 8 loads, and the
    // tiers block of the extended stats response agrees.
    assert_eq!(metric(&server.socket, "cache.disk_hits"), 8);
    assert_eq!(metric(&server.socket, "runner.simulations"), 0);
    assert_eq!(
        stats
            .get("tiers")
            .unwrap()
            .get("disk_hits")
            .unwrap()
            .as_u64(),
        Some(8)
    );
    server.shutdown_and_wait();
    let _ = std::fs::remove_dir_all(&cache);
}
