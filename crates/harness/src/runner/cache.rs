//! Cross-experiment memoization of simulation results, and the claims
//! that keep concurrent callers from simulating the same pair twice.
//!
//! A result is keyed by its trace — the benchmark and the trace's
//! fingerprint — and its [`ConfigKey`], so one runner can serve suites
//! generated at several seeds without their results aliasing.

use crate::runner::key::ConfigKey;
use mds_core::SimResult;
use mds_workloads::Benchmark;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The trace a result was simulated on: its benchmark and
/// [`Trace::fingerprint`](mds_isa::Trace::fingerprint).
pub(super) type TraceId = (Benchmark, u64);

/// One (trace, config) request's state: claimed by a caller that is
/// still producing its result, or finished.
#[derive(Debug)]
enum Entry {
    Pending,
    Done(Box<SimResult>),
}

/// How [`SimCache::claim`] found a request.
pub(super) enum Claim {
    /// The result is memoized.
    Hit,
    /// A caller holds the claim and is producing the result.
    Busy,
    /// The caller now holds the claim: it must publish the result or
    /// release the claim.
    Mine,
}

#[derive(Debug, Default)]
struct Entries {
    map: HashMap<ConfigKey, HashMap<TraceId, Entry>>,
    /// Number of [`Entry::Pending`] entries in `map`.
    pending: usize,
    /// Callers blocked in [`SimCache::wait`]; nobody is woken (a
    /// syscall) when this is 0.
    waiters: usize,
}

impl Entries {
    fn get(&self, trace: TraceId, key: &ConfigKey) -> Option<&Entry> {
        self.map.get(key)?.get(&trace)
    }
}

/// Memoizes [`SimResult`]s by ([`TraceId`], [`ConfigKey`]) so that
/// configurations shared across experiments — e.g. `NAS/NO`,
/// `NAS/NAV`, and `NAS/ORACLE`, which fig1, fig2, fig6, summary, and
/// table4 all revisit — are simulated exactly once per process.
///
/// The same map holds in-flight claims, so one lock covers all request
/// state: classifying a request as a memory hit, a claim on a miss, or
/// a wait for another caller's claim is one lookup.
#[derive(Debug, Default)]
pub(super) struct SimCache {
    entries: Mutex<Entries>,
    landed: Condvar,
}

impl SimCache {
    /// The map never holds a half-applied update, so a panic elsewhere
    /// while the lock was held leaves it usable; claims must still be
    /// released while a caller unwinds.
    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks a request up, claiming it for the caller when absent.
    pub fn claim(&self, trace: TraceId, key: &ConfigKey) -> Claim {
        let mut entries = self.lock();
        match entries.get(trace, key) {
            Some(Entry::Done(_)) => Claim::Hit,
            Some(Entry::Pending) => Claim::Busy,
            None => {
                entries
                    .map
                    .entry(key.clone())
                    .or_default()
                    .insert(trace, Entry::Pending);
                entries.pending += 1;
                Claim::Mine
            }
        }
    }

    /// Stores the result of a claimed request and wakes its waiters.
    pub fn publish(&self, trace: TraceId, key: &ConfigKey, result: SimResult) {
        let mut entries = self.lock();
        let entry = entries
            .map
            .get_mut(key)
            .and_then(|per_trace| per_trace.get_mut(&trace))
            .expect("only claimed requests are published");
        debug_assert!(matches!(entry, Entry::Pending));
        *entry = Entry::Done(Box::new(result));
        entries.pending -= 1;
        self.wake(entries);
    }

    /// Drops claims that never got a result, so a waiter finds them
    /// absent instead of blocking forever, and wakes every waiter.
    pub fn release<'k>(&self, claims: impl Iterator<Item = (TraceId, &'k ConfigKey)>) {
        let mut entries = self.lock();
        let Entries { map, pending, .. } = &mut *entries;
        for (trace, key) in claims {
            if let Some(per_trace) = map.get_mut(key) {
                if matches!(per_trace.get(&trace), Some(Entry::Pending)) {
                    per_trace.remove(&trace);
                    *pending -= 1;
                }
            }
        }
        self.wake(entries);
    }

    /// Unlocks, then wakes every waiter, if there is any.
    fn wake(&self, entries: MutexGuard<'_, Entries>) {
        let waiters = entries.waiters;
        drop(entries);
        if waiters > 0 {
            self.landed.notify_all();
        }
    }

    /// Blocks until none of `requests` is claimed.
    pub fn wait<'k>(&self, requests: impl Iterator<Item = (TraceId, &'k ConfigKey)> + Clone) {
        let mut entries = self.lock();
        while requests
            .clone()
            .any(|(trace, key)| matches!(entries.get(trace, key), Some(Entry::Pending)))
        {
            entries.waiters += 1;
            entries = self
                .landed
                .wait(entries)
                .unwrap_or_else(PoisonError::into_inner);
            entries.waiters -= 1;
        }
    }

    /// Whether a request has a finished result.
    pub fn is_done(&self, trace: TraceId, key: &ConfigKey) -> bool {
        matches!(self.lock().get(trace, key), Some(Entry::Done(_)))
    }

    /// The memoized result of each request, in order.
    ///
    /// # Panics
    ///
    /// Panics if a request has no finished result: callers ask only
    /// for requests they just resolved.
    pub fn results<'k>(
        &self,
        requests: impl Iterator<Item = (TraceId, &'k ConfigKey)>,
    ) -> Vec<SimResult> {
        let entries = self.lock();
        requests
            .map(|(trace, key)| match entries.get(trace, key) {
                Some(Entry::Done(result)) => SimResult::clone(result),
                _ => panic!("every resolved request is memoized"),
            })
            .collect()
    }

    /// Number of requests currently claimed.
    pub fn pending(&self) -> usize {
        self.lock().pending
    }

    /// Drops every memoized result, forcing subsequent requests to
    /// re-simulate — used by benchmarks that must time fresh
    /// simulations on every iteration. Claims in flight are kept.
    pub fn clear(&self) {
        self.lock().map.retain(|_, per_trace| {
            per_trace.retain(|_, entry| matches!(entry, Entry::Pending));
            !per_trace.is_empty()
        });
    }
}
