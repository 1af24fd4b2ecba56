//! Differential equivalence of shared trace artifacts.
//!
//! `Machine` used to rebuild its dependence structures (oracle
//! producers, register dependence edges) per configuration; they now
//! live in a [`TraceArtifacts`] bundle built once per trace and shared
//! — including across threads — by every simulation replaying it. This
//! harness proves sharing changed nothing observable: for every policy
//! and both window models, a run with one shared bundle produces
//! `SimStats` bit-identical to [`Simulator::run`], which builds a fresh
//! bundle per call (the per-machine-rebuild baseline).
//!
//! On top of the core-level check, a runner-level test asserts that the
//! memoizing, multi-threaded [`Runner`] — which serves one shared
//! bundle per benchmark to all worker threads — matches direct
//! single-threaded `Simulator::run` calls exactly, so every rendered
//! table stays byte-identical with the artifact cache on or off.

use mds::core::{CoreConfig, Policy, Recovery, Simulator, TraceArtifacts, WindowModel};
use mds::harness::{Runner, Suite};
use mds::isa::Trace;
use mds::workloads::{Benchmark, SuiteParams};

const ALL_NINE: [Policy; 9] = [
    Policy::NasNo,
    Policy::NasNaive,
    Policy::NasSelective,
    Policy::NasStoreBarrier,
    Policy::NasSync,
    Policy::NasStoreSets,
    Policy::NasOracle,
    Policy::AsNo,
    Policy::AsNaive,
];

/// Runs the config twice — rebuilding artifacts per run, and against a
/// bundle shared across the whole sweep — and checks the stats match.
fn assert_equivalent(cfg: CoreConfig, trace: &Trace, shared: &TraceArtifacts, what: &str) {
    let rebuilt = Simulator::new(cfg.clone()).run(trace);
    let via_shared = Simulator::new(cfg).run_with_artifacts(trace, shared);
    assert_eq!(
        rebuilt.stats, via_shared.stats,
        "{what}: shared artifacts diverged from per-machine rebuild"
    );
    assert_eq!(rebuilt.policy_name, via_shared.policy_name, "{what}");
}

/// All nine policies, continuous and split windows, both recovery
/// models — one shared bundle serving the entire config matrix.
#[test]
fn shared_artifacts_match_rebuild_across_the_config_matrix() {
    let trace = Benchmark::Li.trace(&SuiteParams::tiny()).expect("trace");
    let shared = TraceArtifacts::build(&trace);
    for policy in ALL_NINE {
        assert_equivalent(
            CoreConfig::paper_128().with_policy(policy),
            &trace,
            &shared,
            &format!("{policy} continuous"),
        );
        assert_equivalent(
            CoreConfig::paper_128()
                .with_policy(policy)
                .with_window_model(WindowModel::Split {
                    units: 4,
                    task_size: 16,
                }),
            &trace,
            &shared,
            &format!("{policy} split"),
        );
        assert_equivalent(
            CoreConfig::paper_128()
                .with_policy(policy)
                .with_recovery(Recovery::SelectiveReissue),
            &trace,
            &shared,
            &format!("{policy} selective-reissue"),
        );
    }
}

/// A memory-heavy second workload: the recurrence benchmarks stress the
/// oracle producer lists and the squash/reissue paths that read the
/// CSR rows hardest.
#[test]
fn shared_artifacts_match_rebuild_on_a_memory_recurrence() {
    let trace = Benchmark::Tomcatv
        .trace(&SuiteParams::tiny())
        .expect("trace");
    let shared = TraceArtifacts::build(&trace);
    for policy in [Policy::NasNaive, Policy::NasOracle, Policy::AsNaive] {
        assert_equivalent(
            CoreConfig::paper_128().with_policy(policy),
            &trace,
            &shared,
            &format!("{policy} recurrence"),
        );
    }
}

/// The parallel, memoizing runner (one shared bundle per benchmark,
/// work-stealing threads) must match direct single-threaded runs that
/// rebuild artifacts per simulation.
#[test]
fn runner_with_artifact_cache_matches_direct_simulation() {
    let benchmarks = [Benchmark::Compress, Benchmark::Swim];
    let suite = Suite::generate(&benchmarks, &SuiteParams::tiny()).expect("suite");
    let mut direct: Vec<(Benchmark, mds::core::SimResult)> = Vec::new();
    for &p in &ALL_NINE {
        let cfg = CoreConfig::paper_128().with_policy(p);
        for &b in &benchmarks {
            direct.push((b, Simulator::new(cfg.clone()).run(suite.trace(b))));
        }
    }

    let runner = Runner::new(Suite::generate(&benchmarks, &SuiteParams::tiny()).expect("suite"))
        .with_jobs(4);
    let configs: Vec<CoreConfig> = ALL_NINE
        .iter()
        .map(|&p| CoreConfig::paper_128().with_policy(p))
        .collect();
    let batched: Vec<(Benchmark, mds::core::SimResult)> =
        runner.run_batch(&configs).into_iter().flatten().collect();

    assert_eq!(
        runner.stats().artifact_builds,
        benchmarks.len() as u64,
        "one shared bundle per benchmark"
    );
    assert_eq!(format!("{direct:?}"), format!("{batched:?}"));
}
