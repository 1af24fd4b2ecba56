//! Per-benchmark memoization of trace-derived simulation artifacts.
//!
//! Every configuration in a sweep replays the same benchmark traces, so
//! the trace-derived structure ([`TraceArtifacts`]: oracle producers,
//! register dependence edges, per-op classification) is built exactly
//! once per benchmark and shared — via `Arc` — across all configs and
//! all worker threads. The build time is tracked separately from
//! simulation time so experiment reports can attribute preparation cost
//! (`prep_seconds`) apart from simulation cost (`simulation_seconds`).

use mds_core::TraceArtifacts;
use mds_isa::Trace;
use mds_workloads::Benchmark;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Memoizes one [`TraceArtifacts`] bundle per suite benchmark, keeping
/// each bundle's build time so observability layers can attribute the
/// `artifact_build` phase to the request that actually paid for it.
#[derive(Debug, Default)]
pub(super) struct ArtifactCache {
    map: Mutex<HashMap<Benchmark, (Arc<TraceArtifacts>, u64)>>,
}

/// One artifact lookup's outcome: the shared bundle, whether this call
/// built it, and the nanoseconds the build took (whenever it happened).
pub(super) struct ArtifactLookup {
    /// The shared bundle.
    pub artifacts: Arc<TraceArtifacts>,
    /// Whether this call performed the build (false: memoized).
    pub built: bool,
    /// Build wall time in nanoseconds (of the original build when
    /// served memoized).
    pub build_nanos: u64,
}

impl ArtifactCache {
    /// The memoized artifacts for `benchmark`, building (and timing)
    /// them from `trace` on first use.
    pub fn get_or_build(&self, benchmark: Benchmark, trace: &Trace) -> ArtifactLookup {
        let mut map = self.map.lock().expect("artifact cache poisoned");
        if let Some((arts, nanos)) = map.get(&benchmark) {
            return ArtifactLookup {
                artifacts: Arc::clone(arts),
                built: false,
                build_nanos: *nanos,
            };
        }
        let start = Instant::now();
        let arts = TraceArtifacts::shared(trace);
        let nanos = start.elapsed().as_nanos() as u64;
        map.insert(benchmark, (Arc::clone(&arts), nanos));
        ArtifactLookup {
            artifacts: arts,
            built: true,
            build_nanos: nanos,
        }
    }
}
