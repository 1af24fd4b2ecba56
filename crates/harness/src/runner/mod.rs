//! Parallel, memoizing simulation driver.
//!
//! Experiments submit (benchmark, configuration) requests to a
//! [`Runner`]; the runner serves repeats from its in-memory cache and
//! executes the rest on a work-stealing scoped thread pool
//! ([`exec`]), collecting results back into deterministic suite order
//! so every rendered table and figure is byte-identical to a
//! sequential (`--jobs 1`) run.

mod cache;
mod disk;
mod exec;
mod key;
mod service;
mod stats;
mod suite;
mod trace;

pub use key::{ConfigKey, CACHE_SCHEMA_VERSION};
pub use service::{SweepService, MAX_REQUEST_LINE, PROTOCOL_VERSION};
pub use stats::RunnerStats;
pub use suite::Suite;
pub use trace::TraceSink;

use crate::faults::{FaultPlan, FaultSite};
use cache::{Claim, SimCache, TraceId};
use disk::DiskCache;
use exec::Job;
use mds_core::{CoreConfig, SimResult};
use mds_isa::IsaError;
use mds_obs::{Registry, SpanId, SpanRecord, Spans};
use mds_workloads::{Benchmark, SuiteParams};
use serde::Value;
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// One (trace, config) request, with the config's cache key.
type Request<'a> = (TraceId, &'a CoreConfig, &'a ConfigKey);

/// Drives simulations over a [`Suite`]: memoizes per-(benchmark, trace,
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
    trace: Option<TraceSink>,
    spans: Spans,
    /// The one store of the runner's counters: [`Runner::stats`] and
    /// [`Runner::obs_snapshot`] both read it.
    obs: Mutex<Registry>,
    faults: FaultPlan,
}

impl Runner {
    /// Wraps a suite with the thread count from
    /// [`std::thread::available_parallelism`].
    pub fn new(suite: Suite) -> Runner {
        let runner = Runner {
            suite,
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            cache: SimCache::default(),
            disk: None,
            durable: false,
            trace: None,
            spans: Spans::new(),
            obs: Mutex::new(Registry::new()),
            faults: FaultPlan::none(),
        };
        runner.record_trace_gen(&runner.suite);
        runner
    }

    /// Generates the runner's benchmarks at other suite parameters —
    /// another seed, say — for [`Runner::run_batch_on`]. Like
    /// [`Runner::new`], it records each trace's generation time.
    ///
    /// # Errors
    ///
    /// Propagates workload generation or interpretation errors.
    pub(crate) fn generate(&self, params: &SuiteParams) -> Result<Suite, IsaError> {
        let suite = Suite::generate(&self.suite.benchmarks(), params)?;
        self.record_trace_gen(&suite);
        Ok(suite)
    }

    /// Trace generation happens before any request; seeding the
    /// registry with each trace's cost attributes the `trace_gen` phase
    /// exactly once, not once per config that replays the trace.
    fn record_trace_gen(&self, suite: &Suite) {
        self.observe(|r| {
            for (b, _) in suite.iter() {
                r.record("phase.trace_gen_us", suite.gen_nanos(b) / 1_000);
            }
        });
    }

    /// Attaches a persistent on-disk cache tier rooted at `dir`,
    /// promoting the in-memory cache to a two-tier cache: every
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
        let orphans = disk.recover();
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
    /// traces are stripped before results are memoized — so a traced
    /// run's results are identical to an untraced run's.
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

    /// A point-in-time clone of the operational metric registry, with
    /// the fault plan's per-site injection counts
    /// (`faults.injected.<site>`) and the number of requests in flight
    /// (the `service.inflight` gauge) added to the clone.
    pub fn obs_snapshot(&self) -> Registry {
        let mut snapshot = self.obs.lock().expect("metric registry poisoned").clone();
        for site in FaultSite::ALL {
            let injected = self.faults.injected(site);
            if injected > 0 {
                snapshot.add(&format!("faults.injected.{}", site.name()), injected);
            }
        }
        snapshot.set_gauge("service.inflight", self.inflight_pairs() as f64);
        snapshot
    }

    /// Number of (benchmark, config) pairs currently claimed by a
    /// caller that is still producing their results.
    pub fn inflight_pairs(&self) -> u64 {
        self.cache.pending() as u64
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
    /// served from memory; with a cache directory attached, the rest is
    /// looked up on disk; only the remainder is simulated.
    pub fn run_batch(&self, configs: &[CoreConfig]) -> Vec<Vec<(Benchmark, SimResult)>> {
        self.run_batch_on(&self.suite, configs)
    }

    /// [`Runner::run_batch`] over `suite`'s traces, which may be
    /// another suite than the runner's own (see [`Runner::generate`]).
    /// The memo, the disk tier, the counters, the trace sink and the
    /// fault plan are the runner's either way; each trace's fingerprint
    /// keeps two suites' results of one benchmark apart.
    pub(crate) fn run_batch_on(
        &self,
        suite: &Suite,
        configs: &[CoreConfig],
    ) -> Vec<Vec<(Benchmark, SimResult)>> {
        let keys: Vec<ConfigKey> = configs.iter().map(ConfigKey::of).collect();
        let traces: Vec<TraceId> = suite.iter().map(|(b, t)| (b, t.fingerprint())).collect();
        let requests: Vec<Request<'_>> = configs
            .iter()
            .zip(&keys)
            .flat_map(|(config, key)| traces.iter().map(move |&id| (id, config, key)))
            .collect();
        self.resolve(suite, &requests, None)
            .unwrap_or_else(|e| panic!("simulation failed: {e}"));
        // Assemble each config's results in suite order from the cache,
        // so output ordering never depends on execution interleaving.
        keys.iter()
            .map(|key| {
                let results = self.cache.results(traces.iter().map(|&id| (id, key)));
                traces.iter().map(|&(b, _)| b).zip(results).collect()
            })
            .collect()
    }

    /// Runs explicit `(benchmark, configuration)` pairs — the sweep
    /// service's entry point, where concurrent requests may cover
    /// different benchmark subsets — returning one result per pair, in
    /// request order. Memoization and the disk tier behave exactly as
    /// in [`Runner::run_batch`], and concurrent calls never simulate
    /// the same pair twice: a pair another caller is already
    /// simulating is waited for, then served from memory.
    ///
    /// # Errors
    ///
    /// Returns a structured error naming the failed pair(s) when a
    /// simulation job panicked twice (once plus its automatic retry),
    /// here or in a concurrent caller's overlapping request; every
    /// other pair still completes and is cached.
    ///
    /// # Panics
    ///
    /// Panics if a requested benchmark is not part of the suite.
    pub fn run_pairs(&self, pairs: &[(Benchmark, CoreConfig)]) -> Result<Vec<SimResult>, String> {
        self.run_pairs_under(pairs, None)
    }

    /// [`Runner::run_pairs`] with an explicit parent span: the resolve
    /// span (and every span under it) is parented onto the caller's
    /// request span, so a service request's trace forms one connected
    /// tree from `recv` down to `disk_write`.
    ///
    /// # Errors
    ///
    /// As [`Runner::run_pairs`].
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
        let requests: Vec<Request<'_>> = pairs
            .iter()
            .zip(&keys)
            .map(|((b, c), key)| ((*b, self.suite.trace(*b).fingerprint()), c, key))
            .collect();
        self.resolve(&self.suite, &requests, parent)?;
        Ok(self
            .cache
            .results(requests.iter().map(|&(id, _, key)| (id, key))))
    }

    /// Brings every request's result into memory, replaying `suite`'s
    /// traces: the one path every entry point takes, and the one place
    /// a request is classified and counted.
    ///
    /// A request is a memory hit, a *claim* — a miss this call fills
    /// from the disk tier when attached, else by simulating it in one
    /// parallel wave with the other claims and writing it back — or a
    /// *join* onto a claim another caller holds, which this call waits
    /// for once its own claims are published or released. A repeat
    /// within the call is a memory hit. The dedup ledger counts each
    /// request once: `service.pairs_requested == dedup.claimed +
    /// dedup.joined + dedup.served_from_cache`.
    ///
    /// With a trace sink attached the call is wrapped in a `resolve`
    /// span (parented on `parent` when the caller — e.g. a service
    /// request — supplies one) holding the `claim` and `dedup_join`
    /// phases and one `config_run` span tree per executed job, covering
    /// the `trace_gen`, `artifact_build`, `queue_wait`, `simulate`, and
    /// (with a disk tier) `disk_write` phases. The metric registry
    /// accumulates the same phases as latency histograms regardless of
    /// tracing.
    ///
    /// # Errors
    ///
    /// Returns one message naming every (benchmark, config) whose job
    /// panicked twice, or else every joined request whose owner's job
    /// failed; all other requests complete and are cached.
    fn resolve(
        &self,
        suite: &Suite,
        requests: &[Request<'_>],
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

        let claim_span = self
            .trace
            .as_ref()
            .map(|_| self.spans.enter("claim", resolve_id));
        let mut claims = Claims {
            cache: &self.cache,
            held: Vec::new(),
        };
        let mut mine: Vec<Request<'_>> = Vec::new();
        let mut joined: Vec<Request<'_>> = Vec::new();
        let mut seen: HashSet<(TraceId, &ConfigKey)> = HashSet::new();
        for &(id, config, key) in requests {
            match self.cache.claim(id, key) {
                Claim::Mine => {
                    seen.insert((id, key));
                    claims.held.push(Some((id, key)));
                    mine.push((id, config, key));
                }
                // Claimed by another caller: join it, once.
                Claim::Busy if seen.insert((id, key)) => {
                    joined.push((id, config, key));
                }
                // Memoized, or a repeat within this call.
                Claim::Hit | Claim::Busy => self.memory_hit(id.0, config),
            }
        }
        let served = (requests.len() - mine.len() - joined.len()) as u64;
        self.observe(|r| {
            r.add("service.pairs_requested", requests.len() as u64);
            r.add("dedup.claimed", mine.len() as u64);
            r.add("dedup.joined", joined.len() as u64);
            r.add("dedup.served_from_cache", served);
        });
        if let Some(mut span) = claim_span {
            span.add_field("claimed", Value::UInt(mine.len() as u64));
            span.add_field("joined", Value::UInt(joined.len() as u64));
            span.add_field("served_from_cache", Value::UInt(served));
            self.emit_span(&span.finish()).expect("writing JSONL trace");
        }

        let mut pending: Vec<Job<'_>> = Vec::new();
        // Per pending job: (claim index, enqueue offset, whether this
        // request built the artifact bundle, its build nanos).
        let mut pending_meta: Vec<(usize, u64, bool, u64)> = Vec::new();
        for (i, &(id, config, key)) in mine.iter().enumerate() {
            if !record_pipe {
                if let Some(result) = self.load(id, config, key, resolve_id) {
                    claims.publish(i, result);
                    continue;
                }
            }
            let (artifacts, build_nanos, built) = suite.artifacts(id.0);
            if built {
                self.observe(|r| {
                    r.incr("runner.artifact_builds");
                    r.add("runner.prep_ns", build_nanos);
                    r.record("phase.artifact_build_us", build_nanos / 1_000);
                });
            }
            pending.push(Job {
                config: config
                    .clone()
                    .with_pipetrace(record_pipe || config.record_pipeline_trace),
                trace: suite.trace(id.0),
                artifacts,
            });
            pending_meta.push((i, self.spans.now_ns(), built, build_nanos));
        }

        self.observe(|r| r.set_gauge("runner.queue_depth", pending.len() as f64));
        if !pending.is_empty() {
            if let Some(f) = self.faults.fire(FaultSite::QueueDelay) {
                // Artificial queue latency: the whole wave sits on the
                // queue, exactly like a saturated pool would hold it.
                self.tally("runner.queue_delays", "queue_delay", || {
                    vec![("millis", Value::UInt(f.millis))]
                });
                std::thread::sleep(std::time::Duration::from_millis(f.millis));
            }
        }
        let wave_start_ns = self.spans.now_ns();
        let done = exec::run_jobs(&pending, self.jobs, &self.faults);
        self.observe(|r| r.set_gauge("runner.queue_depth", 0.0));
        let mut failures: Vec<String> = Vec::new();
        for ((i, enqueue_ns, built, build_nanos), job_done) in pending_meta.into_iter().zip(done) {
            let ((benchmark, fp), _, key) = mine[i];
            let exec::JobDone {
                outcome,
                retried,
                start_offset_ns,
                nanos,
            } = job_done;
            if retried {
                self.tally("runner.job_retries", "job_retry", || {
                    vec![benchmark_field(benchmark)]
                });
            }
            let mut result = match outcome {
                Ok(result) => result,
                Err(e) => {
                    // Twice-panicked: fail this pair alone, with a
                    // structured error; every sibling still lands.
                    self.tally("runner.job_failures", "job_error", || {
                        vec![
                            benchmark_field(benchmark),
                            ("panic", Value::Str(e.panic.clone())),
                        ]
                    });
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
                r.add("runner.sim_ns", nanos);
                r.add("runner.skipped_cycles", result.skipped_cycles);
                r.record("phase.queue_wait_us", queue_wait_ns / 1_000);
                r.record("phase.simulate_us", nanos / 1_000);
            });
            // One config_run span tree per executed job. The tree is
            // assembled on this (single) collector thread, so children
            // are emitted before their parent, whose duration extends
            // through the disk write below.
            let config_run = self.trace.as_ref().map(|_| {
                let fields = request_fields(benchmark, &result.policy_name);
                // The duration is patched once the disk write completes.
                self.spans
                    .record("config_run", resolve_id, enqueue_ns, 0, owned(&fields))
            });
            let cr_id = config_run.as_ref().map(|cr| cr.id);
            // Trace generation ran once, before this runner existed;
            // the span attributes that amortized cost to each config
            // that replays the trace, flagged so aggregation can avoid
            // double-counting it as fresh work.
            let trace_gen_ns = suite.gen_nanos(benchmark);
            let amortized = [("amortized", Value::Bool(true))];
            self.phase("trace_gen", cr_id, enqueue_ns, trace_gen_ns, &amortized);
            let cached = [("cached", Value::Bool(!built))];
            self.phase("artifact_build", cr_id, enqueue_ns, build_nanos, &cached);
            self.phase("queue_wait", cr_id, enqueue_ns, queue_wait_ns, &[]);
            // `wall_ns` is this config's own measured simulation time.
            let simulated = [
                ("wall_ns", Value::UInt(nanos)),
                ("skipped_cycles", Value::UInt(result.skipped_cycles)),
            ];
            self.phase("simulate", cr_id, sim_start_ns, nanos, &simulated);
            self.tally("runner.simulations", "sim", || {
                let mut fields = request_fields(benchmark, &result.policy_name);
                fields.extend([
                    ("wall_ns", Value::UInt(nanos)),
                    ("cycles", Value::UInt(result.stats.cycles)),
                    ("skipped_cycles", Value::UInt(result.skipped_cycles)),
                    ("committed", Value::UInt(result.stats.committed)),
                    ("ipc", Value::Float(result.ipc())),
                ]);
                fields
            });
            if let Some(sink) = &self.trace {
                if let Some(pipe) = &result.pipetrace {
                    for e in pipe.sampled(sink.every()) {
                        sink.event(
                            "pipe",
                            &[
                                benchmark_field(benchmark),
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
                match disk.store(benchmark, fp, key, &result, &self.faults) {
                    Ok(()) => self.observe(|r| r.incr("cache.disk_writes")),
                    Err(e) => {
                        // A failed write-back (disk full, permissions,
                        // injected) costs a future re-simulation,
                        // nothing more: warn, count, and keep the
                        // result in memory.
                        eprintln!("warning: disk-cache write-back failed: {e}");
                        self.tally("cache.disk_write_errors", "disk_write_error", || {
                            vec![
                                benchmark_field(benchmark),
                                ("error", Value::Str(e.to_string())),
                            ]
                        });
                    }
                }
                let write_ns = self.spans.now_ns().saturating_sub(write_start);
                self.observe(|r| r.record("phase.disk_write_us", write_ns / 1_000));
                self.phase("disk_write", cr_id, write_start, write_ns, &[]);
            }
            if let Some(mut cr) = config_run {
                cr.duration_ns = self.spans.now_ns().saturating_sub(cr.start_ns);
                self.emit_span(&cr).expect("writing JSONL trace");
            }
            claims.publish(i, result);
        }
        // Release the claims that never landed (failed jobs) before
        // waiting on anyone else's, so two callers never wait on each
        // other. On a panic the guard's drop does the same.
        drop(claims);

        if !joined.is_empty() {
            let join_span = self
                .trace
                .as_ref()
                .map(|_| self.spans.enter("dedup_join", resolve_id));
            self.cache
                .wait(joined.iter().map(|&(id, _, key)| (id, key)));
            if let Some(mut span) = join_span {
                span.add_field("joined", Value::UInt(joined.len() as u64));
                self.emit_span(&span.finish()).expect("writing JSONL trace");
            }
        }
        if let Some(span) = resolve_span {
            self.emit_span(&span.finish()).expect("writing JSONL trace");
        }
        if !failures.is_empty() {
            return Err(failures.join("; "));
        }

        // A joined request is missing when its owner's job failed.
        let missing: Vec<String> = joined
            .iter()
            .filter(|&&(id, _, key)| !self.cache.is_done(id, key))
            .map(|((benchmark, _), config, _)| {
                format!("{} under {}", benchmark.name(), config.policy.paper_name())
            })
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "a concurrent caller's overlapping simulation failed: {}",
                missing.join(", ")
            ));
        }
        for &((benchmark, _), config, _) in &joined {
            self.memory_hit(benchmark, config);
        }
        Ok(())
    }

    /// Looks a claimed request up in the disk tier, when one is
    /// attached, counting the hit or the read error. An unreadable
    /// entry (an I/O error, not a plain miss) degrades to
    /// re-simulation: slower, never wrong.
    fn load(
        &self,
        (benchmark, fp): TraceId,
        config: &CoreConfig,
        key: &ConfigKey,
        parent: Option<SpanId>,
    ) -> Option<SimResult> {
        let disk = self.disk.as_ref()?;
        let start = self.spans.now_ns();
        match disk.load(benchmark, fp, key, &self.faults) {
            Ok(Some(result)) => {
                let read_ns = self.spans.now_ns().saturating_sub(start);
                self.observe(|r| r.record("phase.disk_read_us", read_ns / 1_000));
                self.tally("cache.disk_hits", "disk_hit", || {
                    request_fields(benchmark, config.policy.paper_name())
                });
                let fields = [benchmark_field(benchmark)];
                self.phase("disk_read", parent, start, read_ns, &fields);
                Some(result)
            }
            Ok(None) => None,
            Err(e) => {
                eprintln!(
                    "warning: disk-cache read failed for {}: {e}; re-simulating",
                    benchmark.name()
                );
                self.tally("cache.disk_read_errors", "disk_read_error", || {
                    vec![
                        benchmark_field(benchmark),
                        ("error", Value::Str(e.to_string())),
                    ]
                });
                None
            }
        }
    }

    /// Counts one request served from memory.
    fn memory_hit(&self, benchmark: Benchmark, config: &CoreConfig) {
        self.tally("cache.memory_hits", "cache_hit", || {
            request_fields(benchmark, config.policy.paper_name())
        });
    }

    /// Counts one occurrence under `counter` and, when tracing, logs it
    /// as one JSONL `event` (whose fields are built only then).
    fn tally(
        &self,
        counter: &str,
        event: &str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        self.observe(|r| r.incr(counter));
        if let Some(sink) = &self.trace {
            sink.event(event, &fields()).expect("writing JSONL trace");
        }
    }

    /// When tracing, emits one phase measured out of band as a span
    /// under `parent`.
    fn phase(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start_ns: u64,
        duration_ns: u64,
        fields: &[(&str, Value)],
    ) {
        if self.trace.is_some() {
            let record = self
                .spans
                .record(name, parent, start_ns, duration_ns, owned(fields));
            self.emit_span(&record).expect("writing JSONL trace");
        }
    }

    /// A snapshot of the cache-hit, simulation, disk-tier, and
    /// artifact counters, read from the metric registry.
    pub fn stats(&self) -> RunnerStats {
        let obs = self.obs.lock().expect("metric registry poisoned");
        let count = |name| obs.counter(name);
        let simulations = count("runner.simulations");
        let job_failures = count("runner.job_failures");
        RunnerStats {
            cache_hits: count("cache.memory_hits") + count("cache.disk_hits"),
            simulations,
            sim_nanos: count("runner.sim_ns"),
            skipped_cycles: count("runner.skipped_cycles"),
            artifact_builds: count("runner.artifact_builds"),
            prep_nanos: count("runner.prep_ns"),
            disk_hits: count("cache.disk_hits"),
            disk_writes: count("cache.disk_writes"),
            disk_read_errors: count("cache.disk_read_errors"),
            disk_write_errors: count("cache.disk_write_errors"),
            orphans_removed: count("cache.orphans_removed"),
            job_retries: count("runner.job_retries"),
            job_failures,
            faults_injected: self.faults.total_injected(),
            lane_batches: simulations + job_failures,
        }
    }

    /// Drops every memoized result (counters are preserved) so the next
    /// request re-simulates — for benchmarks that time fresh runs.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

/// The claims one [`Runner::resolve`] call holds. Dropping it — on
/// return, or while the caller unwinds — releases every claim that
/// never got a result, so no waiter is stranded on a claim whose owner
/// is gone.
struct Claims<'a> {
    cache: &'a SimCache,
    /// Indexed like the call's claimed requests; `None` once published.
    held: Vec<Option<(TraceId, &'a ConfigKey)>>,
}

impl Claims<'_> {
    /// Publishes claim `i`'s result, which wakes its waiters.
    fn publish(&mut self, i: usize, result: SimResult) {
        let (id, key) = self.held[i].take().expect("a claim is published once");
        self.cache.publish(id, key, result);
    }
}

impl Drop for Claims<'_> {
    fn drop(&mut self) {
        if self.held.iter().any(Option::is_some) {
            self.cache.release(self.held.iter().flatten().copied());
        }
    }
}

/// The `benchmark` field of a JSONL event.
fn benchmark_field(benchmark: Benchmark) -> (&'static str, Value) {
    ("benchmark", Value::Str(benchmark.name().to_string()))
}

/// The `benchmark` and `policy` fields of a request's event or span.
fn request_fields(benchmark: Benchmark, policy: &str) -> Vec<(&'static str, Value)> {
    vec![
        benchmark_field(benchmark),
        ("policy", Value::Str(policy.to_string())),
    ]
}

/// Span fields, which own their keys.
fn owned(fields: &[(&str, Value)]) -> Vec<(String, Value)> {
    fields
        .iter()
        .map(|(key, value)| (key.to_string(), value.clone()))
        .collect()
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
    fn two_seeds_of_one_benchmark_do_not_alias() {
        let own = SuiteParams::tiny();
        let other = SuiteParams {
            seed: 0x1234,
            ..own
        };
        let runner = Runner::new(Suite::generate(&[Benchmark::Compress], &own).unwrap());
        let suite = runner.generate(&other).unwrap();
        let cfg = CoreConfig::paper_128().with_policy(Policy::NasSync);
        let on_other = || runner.run_batch_on(&suite, std::slice::from_ref(&cfg));
        let first = (runner.run(&cfg), on_other());
        assert_eq!(runner.stats().simulations, 2, "one simulation per seed");
        let again = (runner.run(&cfg), on_other());
        assert_eq!(runner.stats().simulations, 2, "repeats are memo hits");
        assert_eq!(runner.stats().cache_hits, 2);
        assert_eq!(format!("{first:?}"), format!("{again:?}"));
        assert_ne!(format!("{:?}", first.0), format!("{:?}", first.1[0]));
        // Each seed's result is what a runner of that seed alone gets.
        for (params, got) in [(own, first.0), (other, first.1[0].clone())] {
            let fresh = Runner::new(Suite::generate(&[Benchmark::Compress], &params).unwrap());
            assert_eq!(format!("{:?}", fresh.run(&cfg)), format!("{got:?}"));
        }
    }

    #[test]
    fn run_batch_on_the_runners_suite_shares_run_batchs_memo() {
        let runner = Runner::new(
            Suite::generate(
                &[Benchmark::Compress, Benchmark::Swim],
                &SuiteParams::tiny(),
            )
            .unwrap(),
        );
        let cfgs: Vec<CoreConfig> = [Policy::NasNo, Policy::NasOracle]
            .iter()
            .map(|&p| CoreConfig::paper_128().with_policy(p))
            .collect();
        let on = runner.run_batch_on(runner.suite(), &cfgs);
        assert_eq!(runner.stats().simulations, 4);
        let batch = runner.run_batch(&cfgs);
        assert_eq!(format!("{on:?}"), format!("{batch:?}"));
        assert_eq!(
            runner.stats().simulations,
            4,
            "run_batch found every result"
        );
        assert_eq!(runner.stats().cache_hits, 4);
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
