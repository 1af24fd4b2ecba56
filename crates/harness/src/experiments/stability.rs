//! Seed stability — beyond the paper: how sensitive the headline result
//! (Figure 6's `NAS/SYNC` vs `NAS/ORACLE` speedups over `NAS/NAV`) is to
//! the synthetic workload generator's random seed.
//!
//! The paper ran fixed binaries, so it had no analogous axis; for a
//! synthetic suite this is the honest error bar.

use crate::experiments::{cfg, ipcs_batch_on, speedups};
use crate::runner::{int_fp_geomeans, Runner, Suite};
use crate::table::{speedup_pct, TextTable};
use mds_core::Policy;
use mds_isa::IsaError;
use mds_workloads::{Benchmark, SuiteParams};
use serde::Serialize;

/// The generator seeds the experiment visits after the run's own.
const OTHER_SEEDS: [u64; 2] = [0x1234, 0xDEAD_BEEF];

/// One seed's aggregate speedups.
#[derive(Debug, Clone, Serialize)]
pub struct SeedPoint {
    /// The generator seed.
    pub seed: u64,
    /// `NAS/SYNC` over `NAS/NAV` (int, fp geometric means).
    pub sync: (f64, f64),
    /// `NAS/ORACLE` over `NAS/NAV` (int, fp geometric means).
    pub oracle: (f64, f64),
}

/// The stability report.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// One point per seed.
    pub points: Vec<SeedPoint>,
    /// Max absolute spread of the sync speedup across seeds (int, fp).
    pub sync_spread: (f64, f64),
}

/// Runs the Figure 6 comparison on the runner's own suite, then on its
/// benchmarks generated at each of [`OTHER_SEEDS`], one seed's suite
/// alive at a time. Every simulation goes through `runner`, so the run's
/// own seed is served from its memo, and the other seeds are counted,
/// traced, fault-injected and cached like any other request.
///
/// # Errors
///
/// Propagates workload-generation errors.
pub fn experiment(runner: &Runner) -> Result<Report, IsaError> {
    let mut points = vec![point(runner, runner.suite())];
    for seed in OTHER_SEEDS {
        let suite = runner.generate(&SuiteParams {
            seed,
            ..*runner.suite().params()
        })?;
        points.push(point(runner, &suite));
    }
    Ok(Report::new(points))
}

/// Runs the Figure 6 comparison at each seed over `benchmarks`, on a
/// fresh [`Runner`] per seed with `jobs` worker threads (`0` =
/// automatic). `mdsbench`'s `paper_bench` is the one caller; `reproduce`
/// uses [`experiment`].
///
/// # Errors
///
/// Propagates workload-generation errors.
pub fn run(
    benchmarks: &[Benchmark],
    base: &SuiteParams,
    seeds: &[u64],
    jobs: usize,
    cache_dir: Option<&std::path::Path>,
) -> Result<Report, IsaError> {
    let mut points = Vec::new();
    for &seed in seeds {
        let params = SuiteParams { seed, ..*base };
        let mut runner = Runner::new(Suite::generate(benchmarks, &params)?).with_jobs(jobs);
        if let Some(dir) = cache_dir {
            runner = runner.with_cache_dir(dir);
        }
        points.push(point(&runner, runner.suite()));
    }
    Ok(Report::new(points))
}

/// One seed's point: `suite`'s traces under `NAS/NAV`, `NAS/SYNC` and
/// `NAS/ORACLE`, simulated through `runner`.
fn point(runner: &Runner, suite: &Suite) -> SeedPoint {
    let mut sets = ipcs_batch_on(
        runner,
        suite,
        &[
            cfg(Policy::NasNaive),
            cfg(Policy::NasSync),
            cfg(Policy::NasOracle),
        ],
    );
    let oracle = sets.pop().expect("three result sets");
    let sync = sets.pop().expect("three result sets");
    let nav = sets.pop().expect("three result sets");
    SeedPoint {
        seed: suite.params().seed,
        sync: int_fp_geomeans(&speedups(&sync, &nav)),
        oracle: int_fp_geomeans(&speedups(&oracle, &nav)),
    }
}

impl Report {
    /// The report over `points`, with the sync speedup's spread.
    fn new(points: Vec<SeedPoint>) -> Report {
        let spread = |pick: fn(&SeedPoint) -> f64| {
            let vals: Vec<f64> = points.iter().map(pick).collect();
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            max - min
        };
        let sync_spread = (spread(|p| p.sync.0), spread(|p| p.sync.1));
        Report {
            points,
            sync_spread,
        }
    }

    /// Renders the per-seed table and the spread.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["seed", "SYNC int", "SYNC fp", "ORACLE int", "ORACLE fp"]);
        for p in &self.points {
            t.row_owned(vec![
                format!("{:#x}", p.seed),
                speedup_pct(p.sync.0),
                speedup_pct(p.sync.1),
                speedup_pct(p.oracle.0),
                speedup_pct(p.oracle.1),
            ]);
        }
        format!(
            "Stability: Figure 6 speedups across generator seeds\n{}\
             sync-speedup spread across seeds: int {:.1} points, fp {:.1} points\n",
            t.render(),
            100.0 * self.sync_spread.0,
            100.0 * self.sync_spread.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conclusion_is_seed_stable() {
        let rep = run(
            &[Benchmark::Compress, Benchmark::Su2cor],
            &SuiteParams::tiny(),
            &[0xB5, 0x1234, 0xDEAD],
            0,
            None,
        )
        .unwrap();
        assert_eq!(rep.points.len(), 3);
        // Across seeds, SYNC must track ORACLE each time (the headline),
        // with slack for the tiny sizing.
        for p in &rep.points {
            assert!(
                p.sync.0 >= p.oracle.0 - 0.12 && p.sync.1 >= p.oracle.1 - 0.12,
                "seed {:#x}: sync {:?} vs oracle {:?}",
                p.seed,
                p.sync,
                p.oracle
            );
        }
        assert!(rep.render().contains("Stability"));
    }

    #[test]
    fn experiment_reuses_fig6_and_matches_a_runner_per_seed() {
        let benchmarks = [Benchmark::Compress, Benchmark::Su2cor];
        let params = SuiteParams::tiny();
        let runner = Runner::new(Suite::generate(&benchmarks, &params).unwrap()).with_jobs(2);
        crate::experiments::fig6::run(&runner);
        let before = runner.stats();
        let rep = experiment(&runner).unwrap();
        let after = runner.stats();
        // Two new seeds x 2 benchmarks x 3 policies; the run's own seed
        // is fig6's 2 x 3 results, served from the memo.
        assert_eq!(after.simulations - before.simulations, 2 * 2 * 3);
        assert_eq!(after.cache_hits - before.cache_hits, 2 * 3);
        let seeds = [params.seed, OTHER_SEEDS[0], OTHER_SEEDS[1]];
        let fresh = run(&benchmarks, &params, &seeds, 2, None).unwrap();
        assert_eq!(rep.render(), fresh.render());
        assert_eq!(rep.to_value().to_json(), fresh.to_value().to_json());
    }

    #[test]
    fn armed_faults_reach_every_seed() {
        let dir = std::env::temp_dir().join(format!("mds-stability-dw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner =
            Runner::new(Suite::generate(&[Benchmark::Compress], &SuiteParams::tiny()).unwrap())
                .with_cache_dir(&dir)
                .with_faults(crate::FaultPlan::parse("disk_write=every:1").unwrap());
        experiment(&runner).unwrap();
        let stats = runner.stats();
        assert_eq!(stats.simulations, 3 * 3, "three seeds x three policies");
        assert_eq!(stats.disk_writes, 0);
        assert_eq!(stats.disk_write_errors, stats.simulations);
        assert_eq!(stats.faults_injected, stats.simulations);
        fn files(dir: &std::path::Path) -> usize {
            std::fs::read_dir(dir).map_or(0, |entries| {
                entries
                    .map(|e| e.unwrap().path())
                    .map(|p| if p.is_dir() { files(&p) } else { 1 })
                    .sum()
            })
        }
        assert_eq!(files(&dir), 0, "no entry may persist");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
