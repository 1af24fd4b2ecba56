//! Benchmark traces, generated once and replayed under every
//! configuration an experiment compares, each next to its artifacts.

use mds_core::TraceArtifacts;
use mds_isa::{IsaError, Trace};
use mds_workloads::{Benchmark, SuiteParams};
use std::sync::OnceLock;
use std::time::Instant;

/// The functional traces of a benchmark set, generated once and replayed
/// under every configuration an experiment compares.
///
/// Simulation itself goes through [`Runner`](crate::Runner), which
/// memoizes per-(benchmark, trace, config) results and runs pending
/// simulations in parallel.
#[derive(Debug)]
pub struct Suite {
    params: SuiteParams,
    entries: Vec<Entry>,
}

/// One benchmark's trace, its generation time, and its artifact bundle
/// with that bundle's build time, built on first use.
#[derive(Debug)]
struct Entry {
    benchmark: Benchmark,
    trace: Trace,
    gen_nanos: u64,
    artifacts: OnceLock<(TraceArtifacts, u64)>,
}

impl Suite {
    /// Generates traces for the given benchmarks, timing each one so
    /// observability layers can attribute trace-generation cost
    /// per benchmark.
    ///
    /// # Errors
    ///
    /// Propagates workload generation or interpretation errors.
    pub fn generate(benchmarks: &[Benchmark], params: &SuiteParams) -> Result<Suite, IsaError> {
        let mut entries = Vec::with_capacity(benchmarks.len());
        for &benchmark in benchmarks {
            let start = Instant::now();
            let trace = benchmark.trace(params)?;
            entries.push(Entry {
                benchmark,
                trace,
                gen_nanos: start.elapsed().as_nanos() as u64,
                artifacts: OnceLock::new(),
            });
        }
        Ok(Suite {
            params: *params,
            entries,
        })
    }

    /// The sizing parameters the suite was generated with.
    pub fn params(&self) -> &SuiteParams {
        &self.params
    }

    /// The benchmarks in this suite, in order.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        self.entries.iter().map(|e| e.benchmark).collect()
    }

    fn entry(&self, benchmark: Benchmark) -> &Entry {
        self.entries
            .iter()
            .find(|e| e.benchmark == benchmark)
            .unwrap_or_else(|| panic!("{benchmark} not in suite"))
    }

    /// The trace of one benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark is not part of this suite.
    pub fn trace(&self, benchmark: Benchmark) -> &Trace {
        &self.entry(benchmark).trace
    }

    /// One benchmark's artifact bundle, shared (read-only) by every job
    /// that replays its trace: the bundle, its build nanoseconds, and
    /// whether this call built it. The first call builds and times it;
    /// concurrent first calls wait for that one build.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark is not part of this suite.
    pub(crate) fn artifacts(&self, benchmark: Benchmark) -> (&TraceArtifacts, u64, bool) {
        let entry = self.entry(benchmark);
        let mut built = false;
        let (artifacts, nanos) = entry.artifacts.get_or_init(|| {
            built = true;
            let start = Instant::now();
            let artifacts = TraceArtifacts::build(&entry.trace);
            (artifacts, start.elapsed().as_nanos() as u64)
        });
        (artifacts, *nanos, built)
    }

    /// Nanoseconds spent generating one benchmark's trace (0 for a
    /// benchmark not in the suite) — the amortized cost observability
    /// layers attribute to the `trace_gen` phase.
    pub fn gen_nanos(&self, benchmark: Benchmark) -> u64 {
        self.entries
            .iter()
            .find(|e| e.benchmark == benchmark)
            .map_or(0, |e| e.gen_nanos)
    }

    /// Iterates over `(benchmark, trace)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Benchmark, &Trace)> {
        self.entries.iter().map(|e| (e.benchmark, &e.trace))
    }

    /// The number of benchmarks in the suite.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
