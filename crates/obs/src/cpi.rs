//! CPI-stack stall attribution: every non-committing cycle is charged
//! to exactly one cause, so the stack partitions total cycles.

use crate::fields::{Field, Fields};
use crate::registry::snapshot;
use serde::{Serialize, Value};

/// Why the machine failed to commit anything on a given cycle, judged
/// at the head of the instruction window (the standard CPI-stack
/// methodology: the head is what commit is actually waiting on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// The window held no instructions (front-end starvation: branch
    /// mispredict redirects, I-cache misses, fetch bandwidth).
    EmptyWindow,
    /// The head load was blocked by a memory dependence that the oracle
    /// confirms is real (a preceding un-executed store feeds it).
    TrueDependence,
    /// The head load was blocked by a memory dependence that does not
    /// exist (Table 3's false dependences).
    FalseDependence,
    /// The head load was delayed by an explicit dependence prediction
    /// (`NAS/SYNC`, `NAS/SEL`, `NAS/STORE`, store sets).
    SyncDelay,
    /// The head memory op was waiting on the address-based scheduler's
    /// posting latency (`AS` modes, Figure 3's latency knob).
    SchedulerLatency,
    /// The window was empty because a mis-speculation squash is being
    /// recovered (re-fetch has not refilled the window yet).
    SquashRecovery,
    /// The head load had issued and was waiting on a data-cache miss.
    CacheMiss,
    /// Anything else: register dependences, functional-unit or port
    /// contention, writeback-to-commit bubbles.
    Other,
}

impl StallCause {
    /// Every cause, in presentation order.
    pub const ALL: [StallCause; 8] = [
        StallCause::EmptyWindow,
        StallCause::TrueDependence,
        StallCause::FalseDependence,
        StallCause::SyncDelay,
        StallCause::SchedulerLatency,
        StallCause::SquashRecovery,
        StallCause::CacheMiss,
        StallCause::Other,
    ];

    /// A stable machine-readable key (used in metric names and JSON).
    pub fn key(self) -> &'static str {
        match self {
            StallCause::EmptyWindow => "empty_window",
            StallCause::TrueDependence => "true_dependence",
            StallCause::FalseDependence => "false_dependence",
            StallCause::SyncDelay => "sync_delay",
            StallCause::SchedulerLatency => "scheduler_latency",
            StallCause::SquashRecovery => "squash_recovery",
            StallCause::CacheMiss => "cache_miss",
            StallCause::Other => "other",
        }
    }

    /// A short column label for text tables.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::EmptyWindow => "empty",
            StallCause::TrueDependence => "truedep",
            StallCause::FalseDependence => "falsedep",
            StallCause::SyncDelay => "sync",
            StallCause::SchedulerLatency => "sched",
            StallCause::SquashRecovery => "squash",
            StallCause::CacheMiss => "dmiss",
            StallCause::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            StallCause::EmptyWindow => 0,
            StallCause::TrueDependence => 1,
            StallCause::FalseDependence => 2,
            StallCause::SyncDelay => 3,
            StallCause::SchedulerLatency => 4,
            StallCause::SquashRecovery => 5,
            StallCause::CacheMiss => 6,
            StallCause::Other => 7,
        }
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Per-cause cycle attribution for one simulation.
///
/// Exactly one of [`CpiStack::commit`] or [`CpiStack::record`] is
/// called per simulated cycle, so `commit_cycles + total_stalls()`
/// always equals the cycle count — the partition invariant the
/// property tests assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// Cycles in which at least one instruction committed.
    pub commit_cycles: u64,
    stalls: [u64; 8],
}

impl CpiStack {
    /// Charges one cycle to `cause`.
    pub fn record(&mut self, cause: StallCause) {
        self.stalls[cause.index()] += 1;
    }

    /// Charges `n` cycles to `cause` at once — for bulk attribution
    /// (fast-forwarded spans, persisted-stack reconstruction).
    pub fn record_n(&mut self, cause: StallCause, n: u64) {
        self.stalls[cause.index()] += n;
    }

    /// Counts one cycle that committed at least one instruction.
    pub fn commit(&mut self) {
        self.commit_cycles += 1;
    }

    /// Counts `n` committing cycles at once.
    pub fn commit_n(&mut self, n: u64) {
        self.commit_cycles += n;
    }

    /// Cycles charged to `cause`.
    pub fn stall(&self, cause: StallCause) -> u64 {
        self.stalls[cause.index()]
    }

    /// Total stalled (non-committing) cycles.
    pub fn total_stalls(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Total attributed cycles: commit cycles plus every stall.
    pub fn total_cycles(&self) -> u64 {
        self.commit_cycles + self.total_stalls()
    }

    /// [`CpiStack::total_cycles`], or `None` if the sum overflows. A
    /// live simulation cannot get near it, but a decoded stack's lanes
    /// are arbitrary input.
    pub fn checked_total_cycles(&self) -> Option<u64> {
        self.stalls
            .iter()
            .try_fold(self.commit_cycles, |total, &n| total.checked_add(n))
    }

    /// Fraction of attributed cycles charged to `cause` (0 when empty).
    pub fn fraction(&self, cause: StallCause) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.stall(cause) as f64 / total as f64
        }
    }

    /// Fraction of attributed cycles that committed (0 when empty).
    pub fn commit_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.commit_cycles as f64 / total as f64
        }
    }
}

impl Fields for CpiStack {
    fn walk<'a>(&'a mut self, f: &mut dyn FnMut(&'static str, Field<'a>)) {
        let CpiStack {
            commit_cycles,
            stalls,
        } = self;
        f("commit", Field::Counter(commit_cycles));
        // `ALL` lists the causes in `index` order.
        for (cause, cycles) in StallCause::ALL.into_iter().zip(stalls) {
            f(cause.key(), Field::Counter(cycles));
        }
    }
}

impl Serialize for CpiStack {
    fn to_value(&self) -> Value {
        snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricSource;

    #[test]
    fn partition_by_construction() {
        let mut c = CpiStack::default();
        c.commit();
        c.commit();
        c.record(StallCause::FalseDependence);
        c.record(StallCause::EmptyWindow);
        c.record(StallCause::FalseDependence);
        assert_eq!(c.commit_cycles, 2);
        assert_eq!(c.total_stalls(), 3);
        assert_eq!(c.total_cycles(), 5);
        assert_eq!(c.stall(StallCause::FalseDependence), 2);
        assert!((c.fraction(StallCause::FalseDependence) - 0.4).abs() < 1e-12);
        assert!((c.commit_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn bulk_attribution_matches_repeated_singles() {
        let mut singles = CpiStack::default();
        for _ in 0..5 {
            singles.commit();
        }
        for _ in 0..3 {
            singles.record(StallCause::CacheMiss);
        }
        let mut bulk = CpiStack::default();
        bulk.commit_n(5);
        bulk.record_n(StallCause::CacheMiss, 3);
        assert_eq!(bulk, singles);
        assert_eq!(bulk.total_cycles(), 8);
    }

    #[test]
    fn keys_and_labels_are_unique() {
        let mut keys: Vec<&str> = StallCause::ALL.iter().map(|c| c.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), StallCause::ALL.len());
        let mut labels: Vec<&str> = StallCause::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), StallCause::ALL.len());
    }

    #[test]
    fn merge_and_serialize() {
        let mut a = CpiStack::default();
        a.commit();
        a.record(StallCause::CacheMiss);
        let mut b = CpiStack::default();
        b.record(StallCause::CacheMiss);
        crate::merge(&mut a, &b);
        assert_eq!(a.stall(StallCause::CacheMiss), 2);
        let json = a.to_value().to_json();
        assert!(json.contains("\"commit\":1"), "{json}");
        assert!(json.contains("\"cache_miss\":2"), "{json}");
    }

    #[test]
    fn empty_stack_fractions_are_zero() {
        let c = CpiStack::default();
        assert_eq!(c.commit_fraction(), 0.0);
        assert_eq!(c.fraction(StallCause::Other), 0.0);
    }

    #[test]
    fn visit_covers_every_cause() {
        let c = CpiStack::default();
        let mut names = Vec::new();
        c.visit(&mut |k, _| names.push(k.to_string()));
        assert_eq!(names.len(), 1 + StallCause::ALL.len());
        assert_eq!(names[0], "commit");
    }
}
