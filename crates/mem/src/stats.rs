//! Memory-system statistics.

use mds_obs::{Field, Fields};

/// Counters accumulated by one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (reads + writes).
    pub accesses: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Write accesses.
    pub writes: u64,
    /// Misses merged into an outstanding MSHR as secondaries.
    pub secondary_merges: u64,
    /// Cycles lost waiting for a bank port.
    pub bank_conflict_cycles: u64,
    /// Cycles lost waiting for an MSHR (primary exhausted or secondary
    /// slots full).
    pub mshr_stall_cycles: u64,
}

impl CacheStats {
    /// Miss rate over all accesses (0 when there were no accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit rate over all accesses (0 when there were no accesses).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 - self.miss_rate()
        }
    }
}

impl Fields for CacheStats {
    fn walk<'a>(&'a mut self, f: &mut dyn FnMut(&'static str, Field<'a>)) {
        let miss_rate = self.miss_rate();
        let CacheStats {
            accesses,
            misses,
            writes,
            secondary_merges,
            bank_conflict_cycles,
            mshr_stall_cycles,
        } = self;
        f("accesses", Field::Counter(accesses));
        f("misses", Field::Counter(misses));
        f("writes", Field::Counter(writes));
        f("secondary_merges", Field::Counter(secondary_merges));
        f("bank_conflict_cycles", Field::Counter(bank_conflict_cycles));
        f("mshr_stall_cycles", Field::Counter(mshr_stall_cycles));
        f("miss_rate", Field::Gauge(miss_rate));
    }
}

/// Statistics for the composed hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// Accesses that went all the way to main memory.
    pub main_accesses: u64,
    /// Next-line prefetches issued into the L1 data cache.
    pub prefetches: u64,
}

impl Fields for MemStats {
    fn walk<'a>(&'a mut self, f: &mut dyn FnMut(&'static str, Field<'a>)) {
        let MemStats {
            l1i,
            l1d,
            l2,
            main_accesses,
            prefetches,
        } = self;
        f("l1i", Field::Record(l1i));
        f("l1d", Field::Record(l1d));
        f("l2", Field::Record(l2));
        f("main_accesses", Field::Counter(main_accesses));
        f("prefetches", Field::Counter(prefetches));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_obs::{Metric, MetricSource};

    #[test]
    fn rates_of_empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn rates_sum_to_one() {
        let s = CacheStats {
            accesses: 10,
            misses: 3,
            ..CacheStats::default()
        };
        assert!((s.miss_rate() + s.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_every_level() {
        let mut a = MemStats::default();
        a.l1d.accesses = 10;
        a.main_accesses = 1;
        let mut b = MemStats::default();
        b.l1d.accesses = 5;
        b.l1d.misses = 2;
        b.prefetches = 3;
        mds_obs::merge(&mut a, &b);
        assert_eq!(a.l1d.accesses, 15);
        assert_eq!(a.l1d.misses, 2);
        assert_eq!(a.main_accesses, 1);
        assert_eq!(a.prefetches, 3);
    }

    #[test]
    fn visit_namespaces_cache_levels() {
        let mut s = MemStats::default();
        s.l2.misses = 4;
        let mut names = Vec::new();
        s.visit(&mut |name, _| names.push(name.to_string()));
        assert!(names.contains(&"l1i.accesses".to_string()));
        assert!(names.contains(&"l2.misses".to_string()));
        assert!(names.contains(&"main_accesses".to_string()));
        let mut got = 0;
        s.visit(&mut |name, m| {
            if name == "l2.misses" {
                if let Metric::Counter(n) = m {
                    got = n;
                }
            }
        });
        assert_eq!(got, 4);
    }
}
