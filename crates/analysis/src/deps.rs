//! Memory dependence profiling of dynamic traces.
//!
//! Quantifies exactly the properties the paper's policies exploit: how
//! many loads truly depend on a recent store, at what dynamic distance,
//! and how stable the (load PC, store PC) pairs are — the stability that
//! makes MDPT/store-set prediction work (Section 3.6).

use mds_isa::Trace;
use std::collections::HashMap;

/// Histogram of store→load dependence distances (in dynamic
/// instructions), bucketed by powers of two.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceHistogram {
    /// `buckets[k]` counts dependences with `2^k <= distance < 2^(k+1)`.
    pub buckets: Vec<u64>,
}

impl DistanceHistogram {
    fn add(&mut self, distance: u64) {
        let k = 64 - distance.max(1).leading_zeros() as usize - 1;
        if self.buckets.len() <= k {
            self.buckets.resize(k + 1, 0);
        }
        self.buckets[k] += 1;
    }

    /// Total dependences recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Number of dependences with distance strictly below `limit`.
    pub fn below(&self, limit: u64) -> u64 {
        let mut n = 0;
        for (k, &count) in self.buckets.iter().enumerate() {
            let lo = 1u64 << k;
            let hi = (1u64 << (k + 1)).saturating_sub(1);
            if hi < limit {
                n += count;
            } else if lo < limit {
                // Bucket straddles the limit: apportion linearly.
                let span = (hi - lo + 1) as f64;
                let inside = (limit - lo) as f64;
                n += (count as f64 * inside / span).round() as u64;
            }
        }
        n
    }

    /// Renders as one line per non-empty bucket.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, &count) in self.buckets.iter().enumerate() {
            if count > 0 {
                out.push_str(&format!(
                    "  [{:>6}..{:>6})  {count}\n",
                    1u64 << k,
                    1u64 << (k + 1)
                ));
            }
        }
        out
    }
}

/// The memory dependence profile of one trace.
#[derive(Debug, Clone)]
pub struct DepProfile {
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Loads whose value comes from an earlier store in the trace (the
    /// rest read initial memory).
    pub dependent_loads: u64,
    /// Distance histogram over dependent loads (youngest producer).
    pub distances: DistanceHistogram,
    /// Distinct (load PC, store PC) dependence pairs observed.
    pub static_pairs: usize,
    /// Dynamic dependences covered by the 10 most frequent static pairs.
    pub top10_coverage: f64,
    /// Distinct bytes touched by loads and stores.
    pub footprint_bytes: u64,
}

impl DepProfile {
    /// Builds the profile with a per-byte last-writer scan.
    pub fn build(trace: &Trace) -> DepProfile {
        let mut last_writer: HashMap<u64, u32> = HashMap::new();
        let mut touched: HashMap<u64, ()> = HashMap::new();
        let mut pair_counts: HashMap<(u32, u32), u64> = HashMap::new();
        let mut distances = DistanceHistogram::default();
        let (mut loads, mut stores, mut dependent) = (0u64, 0u64, 0u64);

        for (i, rec) in trace.records().iter().enumerate() {
            if rec.size == 0 {
                continue;
            }
            let inst = trace.inst(i);
            // An access wraps around the top of the address space, as
            // the interpreter's memory does.
            let bytes = || (0..rec.size as u64).map(|k| rec.effaddr.wrapping_add(k));
            for b in bytes() {
                touched.insert(b, ());
            }
            if inst.op.is_store() {
                stores += 1;
                for b in bytes() {
                    last_writer.insert(b, i as u32);
                }
            } else if inst.op.is_load() {
                loads += 1;
                let youngest = bytes().filter_map(|b| last_writer.get(&b).copied()).max();
                if let Some(p) = youngest {
                    dependent += 1;
                    distances.add(i as u64 - p as u64);
                    let pair = (rec.sidx, trace.record(p as usize).sidx);
                    *pair_counts.entry(pair).or_insert(0) += 1;
                }
            }
        }

        let mut counts: Vec<u64> = pair_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = counts.iter().take(10).sum();
        DepProfile {
            loads,
            stores,
            dependent_loads: dependent,
            distances,
            static_pairs: pair_counts.len(),
            top10_coverage: if dependent == 0 {
                0.0
            } else {
                top10 as f64 / dependent as f64
            },
            footprint_bytes: touched.len() as u64,
        }
    }

    /// Fraction of loads with a producer within `window` dynamic
    /// instructions — the dependences a `window`-entry machine can
    /// actually violate or synchronize on.
    pub fn window_resident_fraction(&self, window: u64) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.distances.below(window) as f64 / self.loads as f64
        }
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "loads {}  stores {}  dependent loads {} ({:.1}%)\n\
             window-resident dependences (<128): {:.2}% of loads\n\
             static (load,store) pairs: {}  top-10 pairs cover {:.0}% of dependences\n\
             footprint: {} KiB\n\
             distance histogram (dynamic instructions):\n{}",
            self.loads,
            self.stores,
            self.dependent_loads,
            100.0 * self.dependent_loads as f64 / self.loads.max(1) as f64,
            100.0 * self.window_resident_fraction(128),
            self.static_pairs,
            100.0 * self.top10_coverage,
            self.footprint_bytes / 1024,
            self.distances.render(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_isa::{Asm, Interpreter, Reg};

    fn r(n: u8) -> Reg {
        Reg::int(n)
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = DistanceHistogram::default();
        h.add(1);
        h.add(2);
        h.add(3);
        h.add(4);
        h.add(1000);
        assert_eq!(h.buckets[0], 1); // [1,2)
        assert_eq!(h.buckets[1], 2); // [2,4)
        assert_eq!(h.buckets[2], 1); // [4,8)
        assert_eq!(h.buckets[9], 1); // [512,1024)
        assert_eq!(h.total(), 5);
        assert_eq!(h.below(4), 3);
        assert!(h.render().contains("512"));
    }

    #[test]
    fn profile_finds_the_recurrence() {
        // store then load of the same cell each iteration, distance ~5.
        let mut a = Asm::new();
        let cell = a.alloc_data(8, 8);
        a.li(r(1), cell as i64);
        a.li(r(9), 50);
        let top = a.label();
        a.bind(top);
        a.lw(r(2), r(1), 0);
        a.addi(r(2), r(2), 1);
        a.sw(r(2), r(1), 0);
        a.addi(r(9), r(9), -1);
        a.bgtz(r(9), top);
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap()).run(10_000).unwrap();
        let p = DepProfile::build(&t);
        assert_eq!(p.loads, 50);
        assert_eq!(p.stores, 50);
        assert_eq!(p.dependent_loads, 49, "first load reads initial memory");
        assert_eq!(p.static_pairs, 1, "one static (lw, sw) pair");
        assert!(p.top10_coverage > 0.99);
        assert!(p.window_resident_fraction(128) > 0.9);
        // Distance is the loop period (5 instructions).
        assert_eq!(p.distances.below(8), 49);
    }

    #[test]
    fn independent_streams_have_no_dependences() {
        let mut a = Asm::new();
        let arr = a.alloc_data(1024, 8);
        a.li(r(1), arr as i64);
        for k in 0..20 {
            a.lw(r(2), r(1), 4 * k);
        }
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap()).run(1000).unwrap();
        let p = DepProfile::build(&t);
        assert_eq!(p.dependent_loads, 0);
        assert_eq!(p.window_resident_fraction(128), 0.0);
        assert!(p.render().contains("dependent loads 0"));
    }

    #[test]
    fn footprint_counts_distinct_bytes() {
        let mut a = Asm::new();
        let arr = a.alloc_data(64, 8);
        a.li(r(1), arr as i64);
        a.lw(r(2), r(1), 0);
        a.lw(r(3), r(1), 0); // same bytes
        a.lw(r(4), r(1), 4);
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap()).run(100).unwrap();
        let p = DepProfile::build(&t);
        assert_eq!(p.footprint_bytes, 8);
    }
}
