//! Property tests for `Runner::run_pairs`: dispatching pairs across
//! workers, with in-request repeats served as cache hits, must preserve
//! the exact requested pair set and the deterministic, request-ordered
//! output at any `--jobs` — results are byte-identical to the `jobs 1`
//! reference — and concurrent callers on one runner must simulate each
//! distinct pair once between them.

use mds_core::{CoreConfig, Policy, SimResult};
use mds_harness::{Runner, Suite};
use mds_workloads::{Benchmark, SuiteParams};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Barrier, OnceLock};

const POLICIES: [Policy; 4] = [
    Policy::NasNaive,
    Policy::NasSync,
    Policy::NasOracle,
    Policy::AsNo,
];
const BENCHMARKS: [Benchmark; 2] = [Benchmark::Compress, Benchmark::Swim];

fn suite() -> Suite {
    Suite::generate(&BENCHMARKS, &SuiteParams::tiny()).unwrap()
}

/// The pool of distinct pairs cases draw from (8 = 2 benchmarks × 4
/// policies), and index `i`'s pair.
fn pool_pair(i: usize) -> (Benchmark, CoreConfig) {
    let (b, p) = (
        i % BENCHMARKS.len(),
        (i / BENCHMARKS.len()) % POLICIES.len(),
    );
    (
        BENCHMARKS[b],
        CoreConfig::paper_128().with_policy(POLICIES[p]),
    )
}
const POOL: usize = 8;

/// Sequential reference results for every pool pair, computed once:
/// the fingerprint every parallel run must reproduce exactly.
fn reference() -> &'static Vec<String> {
    static REF: OnceLock<Vec<String>> = OnceLock::new();
    REF.get_or_init(|| {
        let runner = Runner::new(suite()).with_jobs(1);
        let pairs: Vec<_> = (0..POOL).map(pool_pair).collect();
        runner
            .run_pairs(&pairs)
            .unwrap()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect()
    })
}

fn fingerprints(results: &[SimResult]) -> Vec<String> {
    results.iter().map(|r| format!("{r:?}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A random request sequence (duplicates included — in-request
    /// repeats are cache hits) at a random thread count returns exactly
    /// the requested pairs, in request order, each byte-identical to
    /// the sequential reference.
    #[test]
    fn any_jobs_preserve_pairs_and_order(
        picks in proptest::collection::vec(0usize..POOL, 1..14),
        jobs in 1usize..5,
    ) {
        let runner = Runner::new(suite()).with_jobs(jobs);
        let pairs: Vec<_> = picks.iter().map(|&i| pool_pair(i)).collect();
        let results = runner.run_pairs(&pairs).unwrap();
        prop_assert_eq!(results.len(), pairs.len(), "exact pair set");
        let reference = reference();
        for (&pick, got) in picks.iter().zip(fingerprints(&results)) {
            prop_assert_eq!(
                &got,
                &reference[pick],
                "pair {} diverged at jobs {}",
                pick,
                jobs
            );
        }
        // Distinct pairs simulate once; repeats are cache hits.
        let distinct = {
            let mut d: Vec<usize> = picks.clone();
            d.sort_unstable();
            d.dedup();
            d.len() as u64
        };
        let stats = runner.stats();
        prop_assert_eq!(stats.simulations, distinct);
        prop_assert_eq!(stats.cache_hits, picks.len() as u64 - distinct);
        // A repeat of the same request is served entirely from cache,
        // with identical output.
        let again = runner.run_pairs(&pairs).unwrap();
        prop_assert_eq!(fingerprints(&results), fingerprints(&again));
        prop_assert_eq!(runner.stats().simulations, distinct, "no re-simulation");
    }

    /// 2–4 callers start together behind a barrier and request
    /// overlapping random pair lists from one runner, with no service
    /// in front of it. Each distinct pair is simulated once, by
    /// whichever caller claimed it first; every caller gets the
    /// sequential reference's bytes; and the dedup ledger accounts for
    /// every request exactly once.
    #[test]
    fn concurrent_callers_simulate_each_distinct_pair_once(
        lists in proptest::collection::vec(
            proptest::collection::vec(0usize..POOL, 1..10),
            2..5,
        ),
        jobs in 1usize..3,
    ) {
        let runner = Runner::new(suite()).with_jobs(jobs);
        let barrier = Barrier::new(lists.len());
        let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
            let callers: Vec<_> = lists
                .iter()
                .map(|picks| {
                    let (runner, barrier) = (&runner, &barrier);
                    scope.spawn(move || {
                        let pairs: Vec<_> = picks.iter().map(|&i| pool_pair(i)).collect();
                        barrier.wait();
                        fingerprints(&runner.run_pairs(&pairs).unwrap())
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let reference = reference();
        for (picks, got) in lists.iter().zip(&transcripts) {
            prop_assert_eq!(got.len(), picks.len());
            for (&pick, fingerprint) in picks.iter().zip(got) {
                prop_assert_eq!(fingerprint, &reference[pick], "pair {}", pick);
            }
        }
        let distinct = lists.iter().flatten().collect::<BTreeSet<_>>().len() as u64;
        let requested = lists.iter().map(Vec::len).sum::<usize>() as u64;
        let stats = runner.stats();
        prop_assert_eq!(stats.simulations, distinct);
        prop_assert_eq!(stats.cache_hits, requested - distinct);
        let obs = runner.obs_snapshot();
        prop_assert_eq!(obs.counter("service.pairs_requested"), requested);
        prop_assert_eq!(
            obs.counter("dedup.claimed")
                + obs.counter("dedup.joined")
                + obs.counter("dedup.served_from_cache"),
            requested
        );
        prop_assert_eq!(obs.counter("dedup.claimed"), distinct);
        prop_assert_eq!(runner.inflight_pairs(), 0);
    }
}
