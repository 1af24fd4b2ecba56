//! The runner's counters, as one value.

use serde::{Serialize, Value};

/// Counters describing what a [`Runner`](crate::Runner) actually did,
/// read from its metric registry by [`Runner::stats`](crate::Runner::stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RunnerStats {
    /// (benchmark, config) requests served without simulating: memory
    /// hits plus disk hits.
    pub cache_hits: u64,
    /// Simulations actually executed.
    pub simulations: u64,
    /// Total wall-clock nanoseconds spent inside simulations, summed
    /// over jobs (exceeds elapsed time when jobs run in parallel).
    pub sim_nanos: u64,
    /// Cycles the event-driven core fast-forwarded over instead of
    /// executing, summed across executed simulations (cache hits
    /// contribute nothing: their simulations already ran).
    pub skipped_cycles: u64,
    /// Trace-artifact bundles built (one per distinct benchmark; every
    /// config after the first shares the memoized bundle).
    pub artifact_builds: u64,
    /// Nanoseconds spent building trace artifacts (oracle and register
    /// dependences), counted apart from simulation time.
    pub prep_nanos: u64,
    /// Requests served from the persistent on-disk tier (also counted
    /// in `cache_hits`, so `hit_rate` reflects every avoided
    /// simulation).
    pub disk_hits: u64,
    /// Results written back to the persistent on-disk tier.
    pub disk_writes: u64,
    /// Disk-tier entry reads that failed with an I/O error and
    /// degraded to re-simulation.
    pub disk_read_errors: u64,
    /// Disk-tier write-backs that failed and were dropped with a
    /// warning (the result stays memoized in memory).
    pub disk_write_errors: u64,
    /// Orphaned `*.tmp` staging files deleted by the startup
    /// crash-recovery sweep.
    pub orphans_removed: u64,
    /// Simulation jobs re-run after a single worker panic.
    pub job_retries: u64,
    /// Simulation jobs that panicked twice and failed with a
    /// structured error.
    pub job_failures: u64,
    /// Faults injected by the armed [`FaultPlan`](crate::FaultPlan),
    /// across every site (0 on production runs, whose plan is unarmed).
    pub faults_injected: u64,
    /// Simulation jobs dispatched to the executor: `simulations +
    /// job_failures`. Kept, under its old name, because the pinned
    /// benchmark reads it from the `stats` reply.
    pub lane_batches: u64,
}

impl RunnerStats {
    /// Fraction of requests served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.simulations;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Total simulation time in seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_nanos as f64 / 1e9
    }

    /// Total artifact-preparation time in seconds.
    pub fn prep_seconds(&self) -> f64 {
        self.prep_nanos as f64 / 1e9
    }

    /// The fields every end-of-run record carries, in one order:
    /// `BENCH_reproduce.json` and the `run_finish` and `serve_finish`
    /// trace events all render these.
    pub fn report_fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("simulations", Value::UInt(self.simulations)),
            ("cache_hits", Value::UInt(self.cache_hits)),
            ("cache_hit_rate", Value::Float(self.hit_rate())),
            ("disk_hits", Value::UInt(self.disk_hits)),
            ("disk_writes", Value::UInt(self.disk_writes)),
            ("skipped_cycles", Value::UInt(self.skipped_cycles)),
            ("simulation_seconds", Value::Float(self.sim_seconds())),
            ("prep_seconds", Value::Float(self.prep_seconds())),
            ("artifact_builds", Value::UInt(self.artifact_builds)),
            ("disk_read_errors", Value::UInt(self.disk_read_errors)),
            ("disk_write_errors", Value::UInt(self.disk_write_errors)),
            ("orphans_removed", Value::UInt(self.orphans_removed)),
            ("job_retries", Value::UInt(self.job_retries)),
            ("job_failures", Value::UInt(self.job_failures)),
            ("faults_injected", Value::UInt(self.faults_injected)),
        ]
    }
}
