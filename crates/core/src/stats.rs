//! Simulation statistics and results.

use mds_frontend::FrontEndStats;
use mds_mem::MemStats;
use mds_obs::{CpiStack, Field, Fields, Histogram};

/// Counters accumulated over one timing simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed dynamic instructions.
    pub committed: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed stores.
    pub committed_stores: u64,
    /// Memory dependence mis-speculations (squash events triggered by a
    /// store detecting a violated true dependence).
    pub misspeculations: u64,
    /// Instructions invalidated by squashes (lost work).
    pub squashed: u64,
    /// Instructions re-issued in place by selective invalidation.
    pub reissued: u64,
    /// Loads delayed by a *false* dependence: at address-ready time the
    /// load had to wait for older un-executed stores none of which truly
    /// feed it (Table 3, measured under `NAS/NO`).
    pub false_dep_loads: u64,
    /// Total cycles such loads waited past address-ready (Table 3 "RL").
    pub false_dep_cycles: u64,
    /// Loads that at address-ready time had a *true* un-executed producer.
    pub true_dep_loads: u64,
    /// Loads whose value was forwarded from the store buffer.
    pub forwarded_loads: u64,
    /// Loads issued speculatively (before all older stores executed).
    pub speculative_loads: u64,
    /// Loads delayed by a synchronization prediction (`NAS/SYNC`,
    /// `NAS/SEL`, `NAS/STORE`).
    pub sync_delayed_loads: u64,
    /// Late store-to-load fix-ups under the address scheduler (a posted
    /// store delivered its value to an already-executed load without a
    /// squash because the value had not propagated or was identical).
    pub silent_fixups: u64,
    /// CPI-stack attribution: every cycle is either a commit cycle or
    /// charged to exactly one [`StallCause`](mds_obs::StallCause), so
    /// `cpi.total_cycles() == cycles` always holds.
    pub cpi: CpiStack,
    /// Distribution of per-load false-dependence delays in cycles
    /// (`count == false_dep_loads`, `sum == false_dep_cycles`).
    pub false_dep_delay: Histogram,
    /// Distribution of instructions discarded per squash event
    /// (`count == misspeculations` under squash recovery).
    pub squash_penalty: Histogram,
    /// Window occupancy sampled once per cycle (`count == cycles`).
    pub window_occupancy: Histogram,
    /// Store-to-load forwarding distance in dynamic instructions
    /// (`count == forwarded_loads`).
    pub forward_distance: Histogram,
    /// Front-end statistics.
    pub frontend: FrontEndStats,
    /// Memory hierarchy statistics.
    pub mem: MemStats,
}

impl SimStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mis-speculations per committed load (Table 4's metric).
    pub fn misspeculation_rate(&self) -> f64 {
        if self.committed_loads == 0 {
            0.0
        } else {
            self.misspeculations as f64 / self.committed_loads as f64
        }
    }

    /// Fraction of committed loads delayed by false dependences
    /// (Table 3 "FD").
    pub fn false_dep_fraction(&self) -> f64 {
        if self.committed_loads == 0 {
            0.0
        } else {
            self.false_dep_loads as f64 / self.committed_loads as f64
        }
    }

    /// Mean instruction-window occupancy over the run.
    pub fn mean_window_occupancy(&self) -> f64 {
        self.window_occupancy.mean()
    }

    /// Mean false-dependence resolution latency in cycles (Table 3 "RL").
    pub fn false_dep_latency(&self) -> f64 {
        if self.false_dep_loads == 0 {
            0.0
        } else {
            self.false_dep_cycles as f64 / self.false_dep_loads as f64
        }
    }
}

impl Fields for SimStats {
    fn walk<'a>(&'a mut self, f: &mut dyn FnMut(&'static str, Field<'a>)) {
        let ipc = self.ipc();
        let SimStats {
            cycles,
            committed,
            committed_loads,
            committed_stores,
            misspeculations,
            squashed,
            reissued,
            false_dep_loads,
            false_dep_cycles,
            true_dep_loads,
            forwarded_loads,
            speculative_loads,
            sync_delayed_loads,
            silent_fixups,
            cpi,
            false_dep_delay,
            squash_penalty,
            window_occupancy,
            forward_distance,
            frontend,
            mem,
        } = self;
        f("cycles", Field::Counter(cycles));
        f("committed", Field::Counter(committed));
        f("committed_loads", Field::Counter(committed_loads));
        f("committed_stores", Field::Counter(committed_stores));
        f("misspeculations", Field::Counter(misspeculations));
        f("squashed", Field::Counter(squashed));
        f("reissued", Field::Counter(reissued));
        f("false_dep_loads", Field::Counter(false_dep_loads));
        f("false_dep_cycles", Field::Counter(false_dep_cycles));
        f("true_dep_loads", Field::Counter(true_dep_loads));
        f("forwarded_loads", Field::Counter(forwarded_loads));
        f("speculative_loads", Field::Counter(speculative_loads));
        f("sync_delayed_loads", Field::Counter(sync_delayed_loads));
        f("silent_fixups", Field::Counter(silent_fixups));
        f("ipc", Field::Gauge(ipc));
        f("cpi", Field::Record(cpi));
        f("false_dep_delay", Field::Histogram(false_dep_delay));
        f("squash_penalty", Field::Histogram(squash_penalty));
        f("window_occupancy", Field::Histogram(window_occupancy));
        f("forward_distance", Field::Histogram(forward_distance));
        f("frontend", Field::Record(frontend));
        f("mem", Field::Record(mem));
    }
}

/// The result of one timing simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Accumulated counters.
    pub stats: SimStats,
    /// The paper-style name of the simulated policy (e.g. `NAS/SYNC`).
    pub policy_name: String,
    /// Cycle-by-cycle pipeline events, when
    /// [`CoreConfig::record_pipeline_trace`](crate::CoreConfig) is set.
    pub pipetrace: Option<crate::PipeTrace>,
    /// Cycles the event-driven core skipped instead of executing (0 when
    /// fast-forward is disabled). Deliberately outside [`SimStats`]: the
    /// per-cycle and event-driven cores must produce identical stats,
    /// and this counter is the one value that legitimately differs.
    pub skipped_cycles: u64,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Speedup of this result over `base` (ratio of IPCs).
    pub fn speedup_over(&self, base: &SimResult) -> f64 {
        if base.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / base.ipc()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_obs::{MetricSource, StallCause};

    #[test]
    fn ipc_division() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn rates_guard_against_zero_loads() {
        let s = SimStats::default();
        assert_eq!(s.misspeculation_rate(), 0.0);
        assert_eq!(s.false_dep_fraction(), 0.0);
        assert_eq!(s.false_dep_latency(), 0.0);
    }

    #[test]
    fn speedup_ratio() {
        let a = SimResult {
            stats: SimStats {
                cycles: 100,
                committed: 200,
                ..SimStats::default()
            },
            policy_name: "A".into(),
            pipetrace: None,
            skipped_cycles: 0,
        };
        let b = SimResult {
            stats: SimStats {
                cycles: 100,
                committed: 100,
                ..SimStats::default()
            },
            policy_name: "B".into(),
            pipetrace: None,
            skipped_cycles: 0,
        };
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_counters_and_distributions() {
        let mut a = SimStats {
            cycles: 10,
            committed: 8,
            ..SimStats::default()
        };
        a.cpi.commit();
        a.window_occupancy.record(4);
        let mut b = SimStats {
            cycles: 5,
            committed: 2,
            ..SimStats::default()
        };
        b.cpi.record(StallCause::CacheMiss);
        b.window_occupancy.record(6);
        b.frontend.branches = 3;
        b.mem.l1d.accesses = 7;
        mds_obs::merge(&mut a, &b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.committed, 10);
        assert_eq!(a.cpi.total_cycles(), 2);
        assert_eq!(a.window_occupancy.count(), 2);
        assert_eq!(a.window_occupancy.sum(), 10);
        assert_eq!(a.frontend.branches, 3);
        assert_eq!(a.mem.l1d.accesses, 7);
    }

    #[test]
    fn visit_exposes_namespaced_metrics() {
        let mut s = SimStats {
            cycles: 42,
            ..SimStats::default()
        };
        s.cpi.record(StallCause::FalseDependence);
        s.false_dep_delay.record(9);
        let mut names = Vec::new();
        s.visit(&mut |name, _| names.push(name.to_string()));
        for expected in [
            "cycles",
            "ipc",
            "cpi.commit",
            "cpi.false_dependence",
            "false_dep_delay",
            "frontend.branches",
            "mem.l1d.miss_rate",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        let snap = mds_obs::snapshot(&s);
        let json = snap.to_json();
        assert!(json.contains("\"cycles\":42"), "{json}");
        assert!(json.contains("\"cpi.false_dependence\":1"), "{json}");
    }
}
