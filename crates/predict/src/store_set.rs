//! Store-set memory dependence predictor (Chrysos & Emer, ISCA 1998).
//!
//! Implemented as an *extension* beyond the paper's five policies: the
//! paper cites store sets as the split-window state of the art; the
//! `store_sets` ablation compares it against the MDPT speculation /
//! synchronization mechanism under the continuous window.
//!
//! Two structures: the Store Set ID Table (SSIT), indexed by instruction
//! PC, maps loads and stores to a store-set ID (SSID); the Last Fetched
//! Store Table (LFST), indexed by SSID, holds the sequence number of the
//! most recently dispatched store of that set.

/// Configuration of the store-set predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSetParams {
    /// SSIT entries (direct-mapped, PC-indexed).
    pub ssit_entries: usize,
    /// LFST entries (one per SSID).
    pub lfst_entries: usize,
    /// Cyclic-clear period in cycles (`None` disables).
    pub clear_interval: Option<u64>,
}

impl StoreSetParams {
    /// Chrysos & Emer's evaluated configuration: 16K SSIT, 4K LFST,
    /// cyclic clearing (we default to the paper's 1M-cycle period).
    pub fn reference() -> StoreSetParams {
        StoreSetParams {
            ssit_entries: 16 * 1024,
            lfst_entries: 4 * 1024,
            clear_interval: Some(1_000_000),
        }
    }
}

/// The store-set predictor.
///
/// # Examples
///
/// ```
/// use mds_predict::{StoreSetParams, StoreSets};
///
/// let mut p = StoreSets::new(StoreSetParams::reference());
/// p.record_violation(0x100, 0x200);
/// // On the next traversal, the store is dispatched first ...
/// p.dispatch_store(0x200, 42);
/// // ... and the load is told to wait for store #42.
/// assert_eq!(p.dispatch_load(0x100), Some(42));
/// ```
#[derive(Debug, Clone)]
pub struct StoreSets {
    params: StoreSetParams,
    ssit: Vec<Option<u32>>,
    lfst: Vec<Option<u64>>,
    next_ssid: u32,
    last_clear: u64,
}

impl StoreSets {
    /// Creates an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if either table size is not a power of two.
    pub fn new(params: StoreSetParams) -> StoreSets {
        assert!(params.ssit_entries.is_power_of_two());
        assert!(params.lfst_entries.is_power_of_two());
        StoreSets {
            ssit: vec![None; params.ssit_entries],
            lfst: vec![None; params.lfst_entries],
            params,
            next_ssid: 0,
            last_clear: 0,
        }
    }

    #[inline]
    fn ssit_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.ssit.len() - 1)
    }

    #[inline]
    fn lfst_index(&self, ssid: u32) -> usize {
        ssid as usize & (self.lfst.len() - 1)
    }

    /// Records a violation between the load at `load_pc` and the store at
    /// `store_pc`, merging their store sets per the Chrysos & Emer
    /// assignment rules.
    pub fn record_violation(&mut self, load_pc: u64, store_pc: u64) {
        let li = self.ssit_index(load_pc);
        let si = self.ssit_index(store_pc);
        match (self.ssit[li], self.ssit[si]) {
            (None, None) => {
                let ssid = self.next_ssid;
                self.next_ssid = self.next_ssid.wrapping_add(1);
                self.ssit[li] = Some(ssid);
                self.ssit[si] = Some(ssid);
            }
            (Some(ssid), None) => self.ssit[si] = Some(ssid),
            (None, Some(ssid)) => self.ssit[li] = Some(ssid),
            (Some(a), Some(b)) => {
                // Both assigned: the one with the smaller SSID wins
                // (declining-SSID merge rule).
                let winner = a.min(b);
                self.ssit[li] = Some(winner);
                self.ssit[si] = Some(winner);
            }
        }
    }

    /// A store with sequence number `seq` is dispatched: returns the
    /// sequence number of the previous in-flight store of the same set
    /// (which this store must order behind, in the full store-set scheme),
    /// and becomes the set's last fetched store.
    pub fn dispatch_store(&mut self, pc: u64, seq: u64) -> Option<u64> {
        let ssid = self.ssit[self.ssit_index(pc)]?;
        let i = self.lfst_index(ssid);
        let prev = self.lfst[i];
        self.lfst[i] = Some(seq);
        prev
    }

    /// A load is dispatched: returns the sequence number of the store it
    /// should wait for, if its PC belongs to a store set with an
    /// in-flight store.
    pub fn dispatch_load(&mut self, pc: u64) -> Option<u64> {
        let ssid = self.ssit[self.ssit_index(pc)]?;
        self.lfst[self.lfst_index(ssid)]
    }

    /// A store issued (executed): clears its LFST entry if it is still the
    /// set's last fetched store, releasing waiting loads.
    pub fn issue_store(&mut self, pc: u64, seq: u64) {
        if let Some(ssid) = self.ssit[self.ssit_index(pc)] {
            let i = self.lfst_index(ssid);
            if self.lfst[i] == Some(seq) {
                self.lfst[i] = None;
            }
        }
    }

    /// A store was squashed: same LFST invalidation as issue.
    pub fn squash_store(&mut self, pc: u64, seq: u64) {
        self.issue_store(pc, seq);
    }

    /// Cyclically clears both tables if the interval has elapsed.
    pub fn maybe_clear(&mut self, now: u64) {
        if let Some(interval) = self.params.clear_interval {
            if now.saturating_sub(self.last_clear) >= interval {
                self.ssit.iter_mut().for_each(|e| *e = None);
                self.lfst.iter_mut().for_each(|e| *e = None);
                self.last_clear = now;
            }
        }
    }

    /// The cycle the next periodic clear fires (`None` when clearing is
    /// disabled): `maybe_clear(at)` is a no-op for every `at` before it.
    pub fn next_clear_at(&self) -> Option<u64> {
        self.params
            .clear_interval
            .map(|i| self.last_clear.saturating_add(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StoreSetParams {
        StoreSetParams {
            ssit_entries: 64,
            lfst_entries: 16,
            clear_interval: Some(100),
        }
    }

    #[test]
    fn unknown_load_is_unconstrained() {
        let mut p = StoreSets::new(small());
        assert_eq!(p.dispatch_load(0x100), None);
    }

    #[test]
    fn violation_creates_a_set_and_orders_load_after_store() {
        let mut p = StoreSets::new(small());
        p.record_violation(0x100, 0x200);
        assert_eq!(p.dispatch_store(0x200, 7), None);
        assert_eq!(p.dispatch_load(0x100), Some(7));
    }

    #[test]
    fn issue_releases_waiting_loads() {
        let mut p = StoreSets::new(small());
        p.record_violation(0x100, 0x200);
        p.dispatch_store(0x200, 7);
        p.issue_store(0x200, 7);
        assert_eq!(p.dispatch_load(0x100), None);
    }

    #[test]
    fn stale_issue_does_not_clear_newer_store() {
        let mut p = StoreSets::new(small());
        p.record_violation(0x100, 0x200);
        p.dispatch_store(0x200, 7);
        p.dispatch_store(0x200, 9); // newer instance
        p.issue_store(0x200, 7); // stale
        assert_eq!(p.dispatch_load(0x100), Some(9));
    }

    #[test]
    fn two_stores_serialize_through_the_set() {
        let mut p = StoreSets::new(small());
        p.record_violation(0x100, 0x200);
        p.record_violation(0x100, 0x204); // merge second store into the set
        assert_eq!(p.dispatch_store(0x200, 5), None);
        assert_eq!(
            p.dispatch_store(0x204, 6),
            Some(5),
            "same set serializes stores"
        );
        assert_eq!(p.dispatch_load(0x100), Some(6));
    }

    #[test]
    fn merge_prefers_smaller_ssid() {
        let mut p = StoreSets::new(small());
        p.record_violation(0x100, 0x200); // ssid 0
        p.record_violation(0x104, 0x204); // ssid 1
        p.record_violation(0x100, 0x204); // merge -> both ssid 0
        p.dispatch_store(0x204, 11);
        assert_eq!(p.dispatch_load(0x100), Some(11));
    }

    #[test]
    fn cyclic_clear_forgets() {
        let mut p = StoreSets::new(small());
        p.record_violation(0x100, 0x200);
        p.maybe_clear(100);
        p.dispatch_store(0x200, 7);
        assert_eq!(p.dispatch_load(0x100), None);
    }
}
