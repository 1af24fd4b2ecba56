//! Parallel, memoizing simulation driver.
//!
//! Experiments submit (benchmark, configuration) requests to a
//! [`Runner`]; the runner serves repeats from its [`SimCache`] and
//! executes the rest on a work-stealing scoped thread pool
//! ([`exec`]), collecting results back into deterministic suite order
//! so every rendered table and figure is byte-identical to a
//! sequential (`--jobs 1`) run.

mod artifacts;
mod cache;
mod disk;
mod exec;
mod key;
mod service;
mod suite;
mod trace;

pub use cache::{RunnerStats, SimCache};
pub use key::{ConfigKey, CACHE_SCHEMA_VERSION};
pub use service::{SweepService, MAX_REQUEST_LINE, PROTOCOL_VERSION};
pub use suite::Suite;
pub use trace::TraceSink;

use crate::faults::{FaultPlan, FaultSite};
use artifacts::ArtifactCache;
use disk::DiskCache;
use exec::Job;
use mds_core::{CoreConfig, SimResult};
use mds_obs::{Registry, SpanId, SpanRecord, Spans};
use mds_workloads::Benchmark;
use serde::Value;
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Drives simulations over a [`Suite`]: memoizes per-(benchmark,
/// config) results across experiments and runs pending simulations in
/// parallel.
///
/// # Examples
///
/// ```
/// use mds_harness::Runner;
/// use mds_harness::Suite;
/// use mds_core::{CoreConfig, Policy};
/// use mds_workloads::{Benchmark, SuiteParams};
///
/// let suite = Suite::generate(&[Benchmark::Compress], &SuiteParams::tiny())?;
/// let runner = Runner::new(suite);
/// let first = runner.run(&CoreConfig::paper_128().with_policy(Policy::NasNaive));
/// let again = runner.run(&CoreConfig::paper_128().with_policy(Policy::NasNaive));
/// assert_eq!(first[0].1.ipc(), again[0].1.ipc());
/// assert_eq!(runner.stats().simulations, 1); // the repeat was a cache hit
/// # Ok::<(), mds_isa::IsaError>(())
/// ```
#[derive(Debug)]
pub struct Runner {
    suite: Suite,
    jobs: usize,
    cache: SimCache,
    disk: Option<DiskCache>,
    durable: bool,
    artifacts: ArtifactCache,
    trace: Option<TraceSink>,
    spans: Spans,
    obs: Mutex<Registry>,
    faults: FaultPlan,
    /// High-water marks of per-site injected-fault counts already
    /// folded into the registry (see `sync_fault_counters`).
    faults_synced: [AtomicU64; FaultSite::ALL.len()],
    job_retries: AtomicU64,
    job_failures: AtomicU64,
}

impl Runner {
    /// Wraps a suite with the thread count from
    /// [`std::thread::available_parallelism`].
    pub fn new(suite: Suite) -> Runner {
        let jobs = std::thread::available_parallelism().map_or(1, usize::from);
        // Trace generation already happened inside the suite; seed the
        // registry with its per-benchmark cost so the `trace_gen` phase
        // is attributed exactly once, not once per config that replays
        // the trace.
        let mut obs = Registry::new();
        for b in suite.benchmarks() {
            obs.record("phase.trace_gen_us", suite.gen_nanos(b) / 1_000);
        }
        Runner {
            suite,
            jobs,
            cache: SimCache::default(),
            disk: None,
            durable: false,
            artifacts: ArtifactCache::default(),
            trace: None,
            spans: Spans::new(),
            obs: Mutex::new(obs),
            faults: FaultPlan::none(),
            faults_synced: Default::default(),
            job_retries: AtomicU64::new(0),
            job_failures: AtomicU64::new(0),
        }
    }

    /// Attaches a persistent on-disk cache tier rooted at `dir`,
    /// promoting the in-memory [`SimCache`] to a two-tier cache: every
    /// request misses memory, then disk — keyed by (trace fingerprint,
    /// [`ConfigKey`], [`CACHE_SCHEMA_VERSION`]) — before simulating,
    /// and every fresh result is written back, so results survive
    /// across processes and builds. Entries verify their own identity
    /// and integrity on load; anything corrupt or mismatched is a miss
    /// that re-simulates.
    /// Opening the tier also runs a crash-recovery sweep: orphaned
    /// `*.tmp` staging files left by an interrupted writer are deleted
    /// (and counted in `orphans_removed`).
    #[must_use]
    pub fn with_cache_dir<P: AsRef<Path>>(mut self, dir: P) -> Runner {
        let mut disk = DiskCache::open(dir);
        if self.durable {
            disk.make_durable();
        }
        disk.recover();
        let orphans = disk.orphans_removed();
        if orphans > 0 {
            self.observe(|r| r.add("cache.orphans_removed", orphans));
        }
        self.disk = Some(disk);
        self
    }

    /// Makes disk-cache write-backs durable: entries are fsynced (file
    /// and directory) before the store returns, so a cached result
    /// survives a crash or power loss at the cost of two disk barriers
    /// per write. See [`crate::emit::write_atomic_durable`].
    #[must_use]
    pub fn with_durable_cache(mut self) -> Runner {
        self.durable = true;
        if let Some(disk) = &mut self.disk {
            disk.make_durable();
        }
        self
    }

    /// Arms a deterministic [`FaultPlan`]: injection sites throughout
    /// the runner, disk tier, and executor consult it, so a test or
    /// chaos run can fail precisely the Nth disk write or panic one
    /// worker without touching any production code path.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Runner {
        self.faults = faults;
        self
    }

    /// The armed fault plan (unarmed by default). Service layers fire
    /// their own sites — dropped/slowed connections — through this.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Overrides the worker-thread count; `0` restores the automatic
    /// choice.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Runner {
        self.jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            jobs
        };
        self
    }

    /// Attaches a JSONL [`TraceSink`]: every simulation and cache hit
    /// is logged, and (with a non-zero sampling stride) simulations
    /// record pipeline traces whose sampled events are appended too.
    ///
    /// Tracing never changes what is simulated or cached — pipeline
    /// traces are stripped before results enter the [`SimCache`] — so a
    /// traced run's results are identical to an untraced run's.
    #[must_use]
    pub fn with_trace(mut self, sink: TraceSink) -> Runner {
        self.trace = Some(sink);
        self
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Emits one event to the attached trace sink (no-op when tracing
    /// is off).
    ///
    /// # Errors
    ///
    /// Propagates the sink's write error.
    pub fn trace_event(&self, event: &str, fields: &[(&str, Value)]) -> io::Result<()> {
        match &self.trace {
            Some(sink) => sink.event(event, fields),
            None => Ok(()),
        }
    }

    /// The span tracker every runner-path span is allocated from: one
    /// monotonic epoch per runner, so service layers can parent their
    /// request spans onto the same id space and timeline.
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// Runs `f` against the runner's operational metric registry —
    /// phase latency histograms, cache-tier counters, gauges. Service
    /// layers use this to fold their own request metrics into the same
    /// registry the `metrics` protocol verb snapshots.
    pub fn observe<F: FnOnce(&mut Registry)>(&self, f: F) {
        f(&mut self.obs.lock().expect("metric registry poisoned"));
    }

    /// A point-in-time clone of the operational metric registry.
    pub fn obs_snapshot(&self) -> Registry {
        self.sync_fault_counters();
        self.obs.lock().expect("metric registry poisoned").clone()
    }

    /// Folds the fault plan's per-site injected counts into the
    /// registry as `faults.injected.<site>` counters. Deltas are
    /// tracked with per-site high-water marks so concurrent snapshots
    /// never double-count.
    fn sync_fault_counters(&self) {
        if !self.faults.is_armed() {
            return;
        }
        for (i, site) in FaultSite::ALL.into_iter().enumerate() {
            let current = self.faults.injected(site);
            let prev = self.faults_synced[i].fetch_max(current, Ordering::Relaxed);
            if current > prev {
                self.observe(|r| {
                    r.add(&format!("faults.injected.{}", site.name()), current - prev)
                });
            }
        }
    }

    /// Emits one finished span to the attached trace sink (no-op when
    /// tracing is off).
    ///
    /// # Errors
    ///
    /// Propagates the sink's write error.
    pub fn emit_span(&self, record: &SpanRecord) -> io::Result<()> {
        match &self.trace {
            Some(sink) => sink.emit_span(record),
            None => Ok(()),
        }
    }

    /// The wrapped suite.
    pub fn suite(&self) -> &Suite {
        &self.suite
    }

    /// The worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every suite benchmark under `config`, returning
    /// per-benchmark results in suite order.
    pub fn run(&self, config: &CoreConfig) -> Vec<(Benchmark, SimResult)> {
        self.run_batch(std::slice::from_ref(config))
            .pop()
            .expect("one result set per config")
    }

    /// Runs every suite benchmark under each of `configs` in one
    /// parallel wave, returning one result set per config, each in
    /// suite order.
    ///
    /// Requests already memoized (or repeated within the batch) are
    /// served from the [`SimCache`]; with a cache directory attached,
    /// the rest is looked up on disk; only the remainder is simulated.
    pub fn run_batch(&self, configs: &[CoreConfig]) -> Vec<Vec<(Benchmark, SimResult)>> {
        let keys: Vec<ConfigKey> = configs.iter().map(ConfigKey::of).collect();
        self.resolve(
            configs
                .iter()
                .zip(&keys)
                .flat_map(|(config, key)| self.suite.iter().map(move |(b, _)| (b, config, key))),
            None,
        )
        .unwrap_or_else(|e| panic!("simulation failed: {e}"));

        // Assemble each config's results in suite order from the cache
        // (without re-counting hits), so output ordering never depends
        // on execution interleaving.
        keys.iter()
            .map(|key| {
                self.suite
                    .iter()
                    .map(|(b, _)| {
                        let result = self
                            .cache
                            .peek(b, key)
                            .expect("every requested (benchmark, config) is cached");
                        (b, result)
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs explicit `(benchmark, configuration)` pairs — the sweep
    /// service's entry point, where concurrent requests may cover
    /// different benchmark subsets — returning one result per pair, in
    /// request order. Memoization and the disk tier behave exactly as
    /// in [`Runner::run_batch`].
    ///
    /// # Errors
    ///
    /// Returns a structured error naming the failed pair(s) when a
    /// simulation job panicked twice (once plus its automatic retry);
    /// every other pair still completes and is cached.
    ///
    /// # Panics
    ///
    /// Panics if a requested benchmark is not part of the suite.
    pub fn run_pairs(&self, pairs: &[(Benchmark, CoreConfig)]) -> Result<Vec<SimResult>, String> {
        self.run_pairs_under(pairs, None)
    }

    /// [`Runner::run_pairs`] with an explicit parent span: the resolve
    /// span (and every per-config span under it) is parented onto the
    /// caller's request span, so a service request's trace forms one
    /// connected tree from `recv` down to `disk_write`.
    ///
    /// # Errors
    ///
    /// Returns a structured error naming the failed pair(s) when a
    /// simulation job panicked twice (once plus its automatic retry).
    ///
    /// # Panics
    ///
    /// Panics if a requested benchmark is not part of the suite.
    pub fn run_pairs_under(
        &self,
        pairs: &[(Benchmark, CoreConfig)],
        parent: Option<SpanId>,
    ) -> Result<Vec<SimResult>, String> {
        let keys: Vec<ConfigKey> = pairs.iter().map(|(_, c)| ConfigKey::of(c)).collect();
        self.resolve(
            pairs.iter().zip(&keys).map(|((b, c), key)| (*b, c, key)),
            parent,
        )?;
        Ok(pairs
            .iter()
            .zip(&keys)
            .map(|((b, _), key)| {
                self.cache
                    .peek(*b, key)
                    .expect("every requested (benchmark, config) is cached")
            })
            .collect())
    }

    /// Brings every requested (benchmark, config) into the in-memory
    /// cache: memory hits are counted, misses fall through to the disk
    /// tier (when attached), and the remainder is simulated in one
    /// parallel wave and written back to disk.
    ///
    /// With a trace sink attached the whole call is wrapped in a
    /// `resolve` span (parented on `parent` when the caller — e.g. a
    /// service request — supplies one) and every executed job emits a
    /// `config_run` span tree covering the `trace_gen`,
    /// `artifact_build`, `queue_wait`, `simulate`, and (with a disk
    /// tier) `disk_write` phases. The metric registry accumulates the
    /// same phases as latency histograms regardless of tracing.
    /// # Errors
    ///
    /// Returns one message naming every (benchmark, policy) whose job
    /// panicked twice; all other requests complete and are cached.
    fn resolve<'a>(
        &'a self,
        requests: impl Iterator<Item = (Benchmark, &'a CoreConfig, &'a ConfigKey)>,
        parent: Option<SpanId>,
    ) -> Result<(), String> {
        // When a trace sink with a sampling stride is attached, the
        // jobs (but not the cache keys) get pipeline-trace recording
        // switched on — and the disk tier is bypassed on reads, since a
        // disk hit cannot replay the pipeline events the caller asked
        // for.
        let record_pipe = self.trace.as_ref().is_some_and(|t| t.every() > 0);
        let resolve_span = self
            .trace
            .as_ref()
            .map(|_| self.spans.enter("resolve", parent));
        let resolve_id = resolve_span.as_ref().map(|s| s.id());
        let mut scheduled: HashSet<(Benchmark, &ConfigKey)> = HashSet::new();
        let mut pending: Vec<Job<'_>> = Vec::new();
        // Per pending job: (benchmark, key, enqueue offset, whether this
        // request built the artifact bundle, its build nanos).
        let mut pending_meta: Vec<(Benchmark, ConfigKey, u64, bool, u64)> = Vec::new();
        for (benchmark, config, key) in requests {
            if self.cache.contains(benchmark, key) || !scheduled.insert((benchmark, key)) {
                self.cache.count_hit();
                self.observe(|r| r.incr("cache.memory_hits"));
                if let Some(sink) = &self.trace {
                    sink.event(
                        "cache_hit",
                        &[
                            ("benchmark", Value::Str(benchmark.name().to_string())),
                            ("policy", Value::Str(config.policy.paper_name().to_string())),
                        ],
                    )
                    .expect("writing JSONL trace");
                }
                continue;
            }
            let trace = self.suite.trace(benchmark);
            if !record_pipe && self.disk.is_some() {
                let read_start = self.spans.now_ns();
                let loaded = match self
                    .disk
                    .as_ref()
                    .map(|disk| disk.load(benchmark, trace.fingerprint(), key, &self.faults))
                {
                    Some(Ok(loaded)) => loaded,
                    Some(Err(e)) => {
                        // An unreadable entry (I/O error, not a plain
                        // miss) degrades to re-simulation: slower,
                        // never wrong.
                        eprintln!(
                            "warning: disk-cache read failed for {}: {e}; re-simulating",
                            benchmark.name()
                        );
                        self.observe(|r| r.incr("cache.disk_read_errors"));
                        if let Some(sink) = &self.trace {
                            sink.event(
                                "disk_read_error",
                                &[
                                    ("benchmark", Value::Str(benchmark.name().to_string())),
                                    ("error", Value::Str(e.to_string())),
                                ],
                            )
                            .expect("writing JSONL trace");
                        }
                        None
                    }
                    None => None,
                };
                if let Some(result) = loaded {
                    let read_ns = self.spans.now_ns().saturating_sub(read_start);
                    self.cache.count_hit();
                    self.cache.insert_loaded(benchmark, key.clone(), result);
                    self.observe(|r| {
                        r.incr("cache.disk_hits");
                        r.record("phase.disk_read_us", read_ns / 1_000);
                    });
                    if let Some(sink) = &self.trace {
                        sink.event(
                            "disk_hit",
                            &[
                                ("benchmark", Value::Str(benchmark.name().to_string())),
                                ("policy", Value::Str(config.policy.paper_name().to_string())),
                            ],
                        )
                        .expect("writing JSONL trace");
                        let span = self.spans.record(
                            "disk_read",
                            resolve_id,
                            read_start,
                            read_ns,
                            vec![(
                                "benchmark".to_string(),
                                Value::Str(benchmark.name().to_string()),
                            )],
                        );
                        sink.emit_span(&span).expect("writing JSONL trace");
                    }
                    continue;
                }
            }
            let config = if record_pipe {
                config.clone().with_pipetrace(true)
            } else {
                config.clone()
            };
            let lookup = self.artifacts.get_or_build(benchmark, trace);
            if lookup.built {
                self.observe(|r| r.record("phase.artifact_build_us", lookup.build_nanos / 1_000));
            }
            pending.push(Job {
                config,
                trace,
                artifacts: lookup.artifacts,
            });
            pending_meta.push((
                benchmark,
                key.clone(),
                self.spans.now_ns(),
                lookup.built,
                lookup.build_nanos,
            ));
        }

        self.observe(|r| r.set_gauge("runner.queue_depth", pending.len() as f64));
        if !pending.is_empty() {
            if let Some(f) = self.faults.fire(FaultSite::QueueDelay) {
                // Artificial queue latency: the whole wave sits on the
                // queue, exactly like a saturated pool would hold it.
                self.observe(|r| r.incr("runner.queue_delays"));
                if let Some(sink) = &self.trace {
                    sink.event("queue_delay", &[("millis", Value::UInt(f.millis))])
                        .expect("writing JSONL trace");
                }
                std::thread::sleep(std::time::Duration::from_millis(f.millis));
            }
        }
        let wave_start_ns = self.spans.now_ns();
        let done = exec::run_jobs(&pending, self.jobs, &self.faults);
        self.observe(|r| r.set_gauge("runner.queue_depth", 0.0));
        let mut failures: Vec<String> = Vec::new();
        for ((benchmark, key, enqueue_ns, built, build_nanos), job_done) in
            pending_meta.into_iter().zip(done)
        {
            let exec::JobDone {
                outcome,
                retried,
                start_offset_ns,
                nanos,
            } = job_done;
            if retried {
                self.job_retries.fetch_add(1, Ordering::Relaxed);
                self.observe(|r| r.incr("runner.job_retries"));
                if let Some(sink) = &self.trace {
                    sink.event(
                        "job_retry",
                        &[("benchmark", Value::Str(benchmark.name().to_string()))],
                    )
                    .expect("writing JSONL trace");
                }
            }
            let mut result = match outcome {
                Ok(result) => result,
                Err(e) => {
                    // Twice-panicked: fail this pair alone, with a
                    // structured error; every sibling still lands.
                    self.job_failures.fetch_add(1, Ordering::Relaxed);
                    self.observe(|r| r.incr("runner.job_failures"));
                    if let Some(sink) = &self.trace {
                        sink.event(
                            "job_error",
                            &[
                                ("benchmark", Value::Str(benchmark.name().to_string())),
                                ("panic", Value::Str(e.panic.clone())),
                            ],
                        )
                        .expect("writing JSONL trace");
                    }
                    failures.push(format!(
                        "{} under {}: worker panicked twice: {}",
                        benchmark.name(),
                        key.as_str(),
                        e.panic
                    ));
                    continue;
                }
            };
            let sim_start_ns = wave_start_ns + start_offset_ns;
            let queue_wait_ns = sim_start_ns.saturating_sub(enqueue_ns);
            self.observe(|r| {
                r.incr("runner.simulations");
                r.record("phase.queue_wait_us", queue_wait_ns / 1_000);
                r.record("phase.simulate_us", nanos / 1_000);
            });
            // One config_run span tree per executed job. The tree is
            // assembled on this (single) collector thread, so children
            // are emitted before their parent, whose duration extends
            // through the disk write below.
            let config_run = self.trace.as_ref().map(|sink| {
                let cr = self.spans.record(
                    "config_run",
                    resolve_id,
                    enqueue_ns,
                    0, // patched once the disk write completes
                    vec![
                        (
                            "benchmark".to_string(),
                            Value::Str(benchmark.name().to_string()),
                        ),
                        ("policy".to_string(), Value::Str(result.policy_name.clone())),
                    ],
                );
                let cr_id = Some(cr.id);
                // Trace generation ran once, before this runner existed;
                // the span attributes that amortized cost to each config
                // that replays the trace, flagged so aggregation can
                // avoid double-counting it as fresh work.
                let trace_gen = self.spans.record(
                    "trace_gen",
                    cr_id,
                    enqueue_ns,
                    self.suite.gen_nanos(benchmark),
                    vec![("amortized".to_string(), Value::Bool(true))],
                );
                sink.emit_span(&trace_gen).expect("writing JSONL trace");
                let artifact_build = self.spans.record(
                    "artifact_build",
                    cr_id,
                    enqueue_ns,
                    build_nanos,
                    vec![("cached".to_string(), Value::Bool(!built))],
                );
                sink.emit_span(&artifact_build)
                    .expect("writing JSONL trace");
                let queue_wait =
                    self.spans
                        .record("queue_wait", cr_id, enqueue_ns, queue_wait_ns, vec![]);
                sink.emit_span(&queue_wait).expect("writing JSONL trace");
                // `wall_ns` is this config's own measured simulation
                // time.
                let simulate = self.spans.record(
                    "simulate",
                    cr_id,
                    sim_start_ns,
                    nanos,
                    vec![
                        ("wall_ns".to_string(), Value::UInt(nanos)),
                        (
                            "skipped_cycles".to_string(),
                            Value::UInt(result.skipped_cycles),
                        ),
                    ],
                );
                sink.emit_span(&simulate).expect("writing JSONL trace");
                cr
            });
            if let Some(sink) = &self.trace {
                sink.event(
                    "sim",
                    &[
                        ("benchmark", Value::Str(benchmark.name().to_string())),
                        ("policy", Value::Str(result.policy_name.clone())),
                        ("wall_ns", Value::UInt(nanos)),
                        ("cycles", Value::UInt(result.stats.cycles)),
                        ("skipped_cycles", Value::UInt(result.skipped_cycles)),
                        ("committed", Value::UInt(result.stats.committed)),
                        ("ipc", Value::Float(result.ipc())),
                    ],
                )
                .expect("writing JSONL trace");
                if let Some(pipe) = &result.pipetrace {
                    for e in pipe.sampled(sink.every()) {
                        sink.event(
                            "pipe",
                            &[
                                ("benchmark", Value::Str(benchmark.name().to_string())),
                                ("seq", Value::UInt(e.seq)),
                                ("stage", Value::Str(e.stage.to_string())),
                                ("cycle", Value::UInt(e.cycle)),
                            ],
                        )
                        .expect("writing JSONL trace");
                    }
                }
                // Strip the pipeline trace so cached results — and
                // therefore every rendered table — are bit-for-bit the
                // same as in an untraced run.
                result.pipetrace = None;
            }
            if let Some(disk) = &self.disk {
                let write_start = self.spans.now_ns();
                let fp = self.suite.trace(benchmark).fingerprint();
                match disk.store(benchmark, fp, &key, &result, &self.faults) {
                    Ok(()) => self.observe(|r| r.incr("cache.disk_writes")),
                    Err(e) => {
                        // A failed write-back (disk full, permissions,
                        // injected) costs a future re-simulation,
                        // nothing more: warn, count, and keep the
                        // result in memory.
                        eprintln!("warning: disk-cache write-back failed: {e}");
                        self.observe(|r| r.incr("cache.disk_write_errors"));
                        if let Some(sink) = &self.trace {
                            sink.event(
                                "disk_write_error",
                                &[
                                    ("benchmark", Value::Str(benchmark.name().to_string())),
                                    ("error", Value::Str(e.to_string())),
                                ],
                            )
                            .expect("writing JSONL trace");
                        }
                    }
                }
                let write_ns = self.spans.now_ns().saturating_sub(write_start);
                self.observe(|r| r.record("phase.disk_write_us", write_ns / 1_000));
                if let (Some(sink), Some(cr)) = (&self.trace, &config_run) {
                    let disk_write =
                        self.spans
                            .record("disk_write", Some(cr.id), write_start, write_ns, vec![]);
                    sink.emit_span(&disk_write).expect("writing JSONL trace");
                }
            }
            if let (Some(sink), Some(mut cr)) = (&self.trace, config_run) {
                cr.duration_ns = self.spans.now_ns().saturating_sub(cr.start_ns);
                sink.emit_span(&cr).expect("writing JSONL trace");
            }
            self.cache.insert(benchmark, key, result, nanos);
        }
        if let (Some(sink), Some(span)) = (&self.trace, resolve_span) {
            sink.emit_span(&span.finish()).expect("writing JSONL trace");
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }

    /// A snapshot of the cache-hit, simulation, disk-tier, and
    /// artifact counters.
    pub fn stats(&self) -> RunnerStats {
        let mut stats = self.cache.stats();
        stats.artifact_builds = self.artifacts.builds();
        stats.prep_nanos = self.artifacts.prep_nanos();
        if let Some(disk) = &self.disk {
            stats.disk_hits = disk.hits();
            stats.disk_writes = disk.writes();
            stats.disk_read_errors = disk.read_errors();
            stats.disk_write_errors = disk.write_errors();
            stats.orphans_removed = disk.orphans_removed();
        }
        stats.job_retries = self.job_retries.load(Ordering::Relaxed);
        stats.job_failures = self.job_failures.load(Ordering::Relaxed);
        stats.faults_injected = self.faults.total_injected();
        stats.lane_batches = stats.simulations + stats.job_failures;
        stats
    }

    /// Drops every memoized result (counters are preserved) so the next
    /// request re-simulates — for benchmarks that time fresh runs.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

/// Geometric mean of `values` (1.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Splits per-benchmark values into `(integer, floating-point)` subsets
/// and returns the geometric mean of each — the paper reports separate
/// int/fp averages throughout.
pub fn int_fp_geomeans(pairs: &[(Benchmark, f64)]) -> (f64, f64) {
    let int: Vec<f64> = pairs
        .iter()
        .filter(|(b, _)| !b.is_fp())
        .map(|(_, v)| *v)
        .collect();
    let fp: Vec<f64> = pairs
        .iter()
        .filter(|(b, _)| b.is_fp())
        .map(|(_, v)| *v)
        .collect();
    (geomean(&int), geomean(&fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_core::Policy;
    use mds_workloads::SuiteParams;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn int_fp_split() {
        let pairs = vec![
            (Benchmark::Gcc, 2.0),
            (Benchmark::Go, 8.0),
            (Benchmark::Swim, 3.0),
        ];
        let (i, f) = int_fp_geomeans(&pairs);
        assert!((i - 4.0).abs() < 1e-12);
        assert!((f - 3.0).abs() < 1e-12);
    }

    #[test]
    fn suite_generates_and_runs() {
        let runner = Runner::new(
            Suite::generate(
                &[Benchmark::Compress, Benchmark::Swim],
                &SuiteParams::tiny(),
            )
            .unwrap(),
        );
        assert_eq!(runner.suite().benchmarks().len(), 2);
        let results = runner.run(&CoreConfig::paper_128().with_policy(Policy::NasNaive));
        assert_eq!(results.len(), 2);
        for (b, r) in &results {
            assert!(r.ipc() > 0.0, "{b}");
        }
    }

    #[test]
    #[should_panic]
    fn missing_benchmark_panics() {
        let suite = Suite::generate(&[Benchmark::Gcc], &SuiteParams::tiny()).unwrap();
        let _ = suite.trace(Benchmark::Swim);
    }

    #[test]
    fn parallel_results_match_sequential_exactly() {
        let mk = || {
            Runner::new(
                Suite::generate(
                    &[Benchmark::Compress, Benchmark::Swim],
                    &SuiteParams::tiny(),
                )
                .unwrap(),
            )
        };
        let sequential = mk().with_jobs(1);
        let parallel = mk().with_jobs(4);
        for policy in [Policy::NasNo, Policy::NasNaive, Policy::NasOracle] {
            let cfg = CoreConfig::paper_128().with_policy(policy);
            let a = sequential.run(&cfg);
            let b = parallel.run(&cfg);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{policy:?}");
        }
    }

    #[test]
    fn second_identical_request_simulates_nothing() {
        let runner = Runner::new(
            Suite::generate(
                &[Benchmark::Compress, Benchmark::Swim],
                &SuiteParams::tiny(),
            )
            .unwrap(),
        );
        let cfg = CoreConfig::paper_128().with_policy(Policy::NasSync);
        let first = runner.run(&cfg);
        let after_first = runner.stats();
        assert_eq!(after_first.simulations, 2);
        assert_eq!(after_first.cache_hits, 0);

        let second = runner.run(&cfg);
        let after_second = runner.stats();
        assert_eq!(after_second.simulations, 2, "repeat must not simulate");
        assert_eq!(after_second.cache_hits, 2);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    fn traced_run_matches_untraced_run_exactly() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mk = || {
            Runner::new(
                Suite::generate(
                    &[Benchmark::Compress, Benchmark::Swim],
                    &SuiteParams::tiny(),
                )
                .unwrap(),
            )
        };
        let buf = Arc::new(Mutex::new(Vec::new()));
        let plain = mk().with_jobs(2);
        let traced = mk()
            .with_jobs(2)
            .with_trace(TraceSink::new(Box::new(Shared(buf.clone())), 16));
        let cfg = CoreConfig::paper_128().with_policy(Policy::NasNaive);

        let a = plain.run(&cfg);
        let b = traced.run(&cfg);
        let _ = traced.run(&cfg); // repeat: served from cache, logged as hits
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "tracing must not perturb results"
        );

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let sims = text
            .lines()
            .filter(|l| l.contains("\"event\":\"sim\""))
            .count();
        let pipes = text
            .lines()
            .filter(|l| l.contains("\"event\":\"pipe\""))
            .count();
        let hits = text
            .lines()
            .filter(|l| l.contains("\"event\":\"cache_hit\""))
            .count();
        assert_eq!(sims, 2, "one sim event per simulated benchmark");
        assert!(pipes > 0, "sampled pipeline events present");
        assert_eq!(hits, 2, "the repeat run is two cache hits");
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn traced_run_emits_complete_span_trees_and_phase_metrics() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let dir = std::env::temp_dir().join(format!("mds-span-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let runner = Runner::new(
            Suite::generate(
                &[Benchmark::Compress, Benchmark::Swim],
                &SuiteParams::tiny(),
            )
            .unwrap(),
        )
        .with_jobs(2)
        .with_cache_dir(&dir)
        .with_trace(TraceSink::new(Box::new(Shared(buf.clone())), 0));
        runner.run(&CoreConfig::paper_128().with_policy(Policy::NasNaive));

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let spans: Vec<Value> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"span\""))
            .map(|l| Value::parse_json(l).unwrap())
            .collect();
        let by_name = |n: &str| -> Vec<&Value> {
            spans
                .iter()
                .filter(|s| s.get("name").unwrap().as_str() == Some(n))
                .collect()
        };
        let resolves = by_name("resolve");
        assert_eq!(resolves.len(), 1);
        assert_eq!(
            resolves[0].get("parent"),
            Some(&Value::Null),
            "a bare run's resolve span is a root"
        );
        let config_runs = by_name("config_run");
        assert_eq!(config_runs.len(), 2, "one tree per executed config");
        for cr in &config_runs {
            let id = cr.get("span").unwrap().as_u64().unwrap();
            assert_eq!(
                cr.get("parent").unwrap().as_u64(),
                resolves[0].get("span").unwrap().as_u64()
            );
            for phase in [
                "trace_gen",
                "artifact_build",
                "queue_wait",
                "simulate",
                "disk_write",
            ] {
                let child = by_name(phase)
                    .into_iter()
                    .find(|s| s.get("parent").unwrap().as_u64() == Some(id));
                assert!(child.is_some(), "config_run {id} missing {phase} child");
            }
        }

        // The same phases accumulate in the registry, tracing or not.
        let obs = runner.obs_snapshot();
        assert_eq!(obs.counter("runner.simulations"), 2);
        assert_eq!(obs.counter("cache.disk_writes"), 2);
        assert_eq!(obs.histogram("phase.simulate_us").unwrap().count(), 2);
        assert_eq!(obs.histogram("phase.queue_wait_us").unwrap().count(), 2);
        assert_eq!(obs.histogram("phase.trace_gen_us").unwrap().count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registry_accumulates_without_tracing() {
        let runner =
            Runner::new(Suite::generate(&[Benchmark::Compress], &SuiteParams::tiny()).unwrap());
        let cfg = CoreConfig::paper_128().with_policy(Policy::NasNo);
        runner.run(&cfg);
        runner.run(&cfg);
        let obs = runner.obs_snapshot();
        assert_eq!(obs.counter("runner.simulations"), 1);
        assert_eq!(obs.counter("cache.memory_hits"), 1);
        assert_eq!(obs.histogram("phase.artifact_build_us").unwrap().count(), 1);
    }

    #[test]
    fn artifacts_are_built_once_per_benchmark_across_configs() {
        let runner = Runner::new(
            Suite::generate(
                &[Benchmark::Compress, Benchmark::Swim],
                &SuiteParams::tiny(),
            )
            .unwrap(),
        );
        let configs: Vec<CoreConfig> = [Policy::NasNo, Policy::NasNaive, Policy::NasOracle]
            .iter()
            .map(|&p| CoreConfig::paper_128().with_policy(p))
            .collect();
        runner.run_batch(&configs);
        let stats = runner.stats();
        assert_eq!(stats.simulations, 6, "3 configs x 2 benchmarks");
        assert_eq!(
            stats.artifact_builds, 2,
            "one artifact bundle per benchmark, shared by every config"
        );
        // A fourth config still reuses the memoized bundles.
        runner.run(&CoreConfig::paper_128().with_policy(Policy::NasSync));
        assert_eq!(runner.stats().artifact_builds, 2);
        assert!(runner.stats().prep_nanos > 0, "prep time is attributed");
    }

    #[test]
    fn run_pairs_matches_run_and_honors_request_order() {
        let runner = Runner::new(
            Suite::generate(
                &[Benchmark::Compress, Benchmark::Swim],
                &SuiteParams::tiny(),
            )
            .unwrap(),
        );
        let a = CoreConfig::paper_128().with_policy(Policy::NasNo);
        let b = CoreConfig::paper_128().with_policy(Policy::NasOracle);
        let pairs = [
            (Benchmark::Swim, a.clone()),
            (Benchmark::Compress, b.clone()),
            (Benchmark::Swim, a.clone()), // in-batch repeat
        ];
        let results = runner.run_pairs(&pairs).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(format!("{:?}", results[0]), format!("{:?}", results[2]));
        assert_eq!(runner.stats().simulations, 2);
        assert_eq!(runner.stats().cache_hits, 1);
        // Full-suite runs agree with the pairwise results.
        let via_run = runner.run(&a);
        let swim = via_run.iter().find(|(b, _)| *b == Benchmark::Swim).unwrap();
        assert_eq!(format!("{:?}", swim.1), format!("{:?}", results[0]));
    }

    #[test]
    fn warm_disk_cache_serves_everything_without_simulating() {
        let dir = std::env::temp_dir().join(format!("mds-runner-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = || {
            Runner::new(
                Suite::generate(
                    &[Benchmark::Compress, Benchmark::Swim],
                    &SuiteParams::tiny(),
                )
                .unwrap(),
            )
            .with_cache_dir(&dir)
        };
        let cfg = CoreConfig::paper_128().with_policy(Policy::NasNaive);

        let cold = mk();
        let first = cold.run(&cfg);
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.simulations, 2);
        assert_eq!(cold_stats.disk_hits, 0);
        assert_eq!(cold_stats.disk_writes, 2, "every fresh result persists");

        // A brand-new runner (fresh process, in effect) with the same
        // cache directory simulates nothing.
        let warm = mk();
        let second = warm.run(&cfg);
        let warm_stats = warm.stats();
        assert_eq!(warm_stats.simulations, 0, "warm run must not simulate");
        assert_eq!(warm_stats.disk_hits, 2);
        assert_eq!(warm_stats.cache_hits, 2, "disk hits count as hits");
        assert_eq!(warm_stats.disk_writes, 0);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));

        // A repeat within the warm runner is a memory hit, not a
        // second disk read.
        let third = warm.run(&cfg);
        assert_eq!(warm.stats().disk_hits, 2);
        assert_eq!(warm.stats().cache_hits, 4);
        assert_eq!(format!("{second:?}"), format!("{third:?}"));

        // A config the disk has never seen still simulates.
        let other = mk();
        other.run(&cfg.clone().with_window_size(64));
        assert_eq!(other.stats().simulations, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn different_suite_params_do_not_share_disk_entries() {
        let dir = std::env::temp_dir().join(format!("mds-runner-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CoreConfig::paper_128().with_policy(Policy::NasNo);
        let tiny =
            Runner::new(Suite::generate(&[Benchmark::Compress], &SuiteParams::tiny()).unwrap())
                .with_cache_dir(&dir);
        tiny.run(&cfg);
        assert_eq!(tiny.stats().disk_writes, 1);

        // Same benchmark and config, differently sized trace: the
        // trace fingerprint keeps the entries apart.
        let mut params = SuiteParams::tiny();
        params.dyn_target /= 2;
        let smaller = Runner::new(Suite::generate(&[Benchmark::Compress], &params).unwrap())
            .with_cache_dir(&dir);
        smaller.run(&cfg);
        assert_eq!(smaller.stats().disk_hits, 0, "fingerprints must differ");
        assert_eq!(smaller.stats().simulations, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_deduplicates_identical_configs() {
        let runner =
            Runner::new(Suite::generate(&[Benchmark::Compress], &SuiteParams::tiny()).unwrap());
        let cfg = CoreConfig::paper_128().with_policy(Policy::NasNo);
        let sets = runner.run_batch(&[cfg.clone(), cfg.clone(), cfg.with_window_size(64)]);
        assert_eq!(sets.len(), 3);
        assert_eq!(runner.stats().simulations, 2, "two distinct configs");
        assert_eq!(runner.stats().cache_hits, 1, "the in-batch repeat");
        assert_eq!(format!("{:?}", sets[0]), format!("{:?}", sets[1]));
    }
}
