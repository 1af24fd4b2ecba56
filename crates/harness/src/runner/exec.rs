//! Work-stealing parallel execution of pending simulation jobs.
//!
//! Workers share one atomic cursor over the job list: each thread claims
//! the next un-started job with a `fetch_add`, so a thread that finishes
//! a short simulation immediately steals the next pending one instead of
//! idling behind a static partition. Results are reported back tagged
//! with their job index, so callers always observe them in submission
//! order regardless of completion order.
//!
//! A panic inside a job is contained to that job: the worker catches it,
//! retries the job once in place (a transient — OOM-killed thread,
//! poisoned global, injected chaos — may not recur), and if it panics
//! again reports a structured [`JobError`] for that slot while every
//! other job completes normally.

use crate::faults::{FaultPlan, FaultSite};
use mds_core::{CoreConfig, SimResult, Simulator, TraceArtifacts};
use mds_isa::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// One pending simulation.
///
/// The job owns its configuration: the runner may derive it from the
/// requested one (e.g. enabling pipeline-trace recording when a JSONL
/// trace is attached) without perturbing the cache key, which is always
/// computed from the configuration the experiment asked for.
pub(super) struct Job<'a> {
    /// The configuration to simulate under.
    pub config: CoreConfig,
    /// The trace to replay.
    pub trace: &'a Trace,
    /// The trace's precomputed artifacts, shared (read-only) by every
    /// job replaying the same trace, on any worker thread.
    pub artifacts: &'a TraceArtifacts,
}

/// A job whose simulation panicked twice (original run plus one
/// retry).
#[derive(Debug, Clone)]
pub(super) struct JobError {
    /// The panic payload, stringified.
    pub panic: String,
}

/// One finished job: the outcome, when the job actually started
/// (nanoseconds after [`run_jobs`] was entered — its time on the queue
/// behind other jobs), and its simulation wall time.
pub(super) struct JobDone {
    /// The simulation result, or the structured error if the job
    /// panicked on both attempts.
    pub outcome: Result<SimResult, JobError>,
    /// Whether the job panicked once and was re-run.
    pub retried: bool,
    /// Nanoseconds between `run_jobs` entry and a worker claiming this
    /// job — the queue-wait observability layers attribute per config.
    pub start_offset_ns: u64,
    /// Measured wall-clock nanoseconds of this job's simulation,
    /// including a retry.
    pub nanos: u64,
}

/// Runs one simulation attempt, catching a panic (organic, or injected
/// via the `worker_panic` fault site just before the simulator runs).
fn attempt(job: &Job<'_>, faults: &FaultPlan) -> Result<SimResult, JobError> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(f) = faults.fire(FaultSite::WorkerPanic) {
            panic!("injected fault: {}", f.site.name());
        }
        Simulator::new(job.config.clone()).run_with_artifacts(job.trace, job.artifacts)
    }))
    .map_err(|payload| JobError {
        panic: panic_text(payload),
    })
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs one job — with one retry after a panic — returning its outcome,
/// its start offset relative to `wave_start`, and its wall-clock
/// nanoseconds.
fn run_one(job: &Job<'_>, wave_start: Instant, faults: &FaultPlan) -> JobDone {
    let start = Instant::now();
    let (outcome, retried) = match attempt(job, faults) {
        Ok(result) => (Ok(result), false),
        Err(_) => (attempt(job, faults), true),
    };
    JobDone {
        outcome,
        retried,
        start_offset_ns: start.duration_since(wave_start).as_nanos() as u64,
        nanos: start.elapsed().as_nanos() as u64,
    }
}

/// Executes `jobs` on up to `threads` scoped worker threads, returning
/// one [`JobDone`] per job **in job order**.
///
/// `Simulator` is deterministic and stateless across runs, so the
/// output is identical whatever the thread count or completion order —
/// `threads == 1` simply runs inline on the caller's thread.
pub(super) fn run_jobs(jobs: &[Job<'_>], threads: usize, faults: &FaultPlan) -> Vec<JobDone> {
    let threads = threads.max(1).min(jobs.len().max(1));
    let wave_start = Instant::now();
    if threads == 1 {
        return jobs
            .iter()
            .map(|job| run_one(job, wave_start, faults))
            .collect();
    }

    let mut slots: Vec<Option<JobDone>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                if tx.send((i, run_one(job, wave_start, faults))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, done) in rx {
            slots[i] = Some(done);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job reports exactly once"))
        .collect()
}
