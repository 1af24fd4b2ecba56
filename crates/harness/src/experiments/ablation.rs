//! Ablations beyond the paper, for the design choices DESIGN.md calls
//! out: predictor sizing, MDPT flush interval, store sets vs MDPT, and a
//! window-size sweep extending Figure 1's trend.

use crate::experiments::{ipcs_batch, Artifact};
use crate::runner::{geomean, Runner};
use crate::table::{ipc, pct4, TextTable};
use mds_core::{BranchPredictorConfig, CoreConfig, Policy, Recovery};
use mds_predict::MdptParams;
use serde::Serialize;

/// The six sweeps `reproduce` runs, at its sweep points, in order.
pub fn run(runner: &Runner) -> Vec<Artifact> {
    vec![
        artifact!(
            "ablation_predictor_size",
            predictor_size(runner, &[256, 1024, 4096, 16384])
        ),
        artifact!(
            "ablation_flush_interval",
            flush_interval(runner, &[Some(100_000), Some(1_000_000), None])
        ),
        artifact!("ablation_store_sets", store_sets(runner)),
        artifact!("ablation_recovery", recovery(runner)),
        artifact!("ablation_branch_predictors", branch_predictors(runner)),
        artifact!(
            "ablation_window_sweep",
            window_sweep(runner, &[32, 64, 128, 256])
        ),
    ]
}

/// Result of sweeping the MDPT size under `NAS/SYNC`.
#[derive(Debug, Clone, Serialize)]
pub struct PredictorSizeSweep {
    /// `(entries, mean IPC, mean mis-speculation rate)` per point.
    pub points: Vec<(usize, f64, f64)>,
}

/// Sweeps MDPT capacity (the paper fixes 4K 2-way).
pub fn predictor_size(runner: &Runner, sizes: &[usize]) -> PredictorSizeSweep {
    let configs: Vec<CoreConfig> = sizes
        .iter()
        .map(|&entries| {
            let mut cfg = CoreConfig::paper_128().with_policy(Policy::NasSync);
            cfg.mdpt = MdptParams {
                entries,
                ..MdptParams::paper()
            };
            cfg
        })
        .collect();
    let points = sizes
        .iter()
        .zip(runner.run_batch(&configs))
        .map(|(&entries, results)| {
            let mean_ipc = geomean(&results.iter().map(|(_, r)| r.ipc()).collect::<Vec<_>>());
            let mean_ms = results
                .iter()
                .map(|(_, r)| r.stats.misspeculation_rate())
                .sum::<f64>()
                / results.len() as f64;
            (entries, mean_ipc, mean_ms)
        })
        .collect();
    PredictorSizeSweep { points }
}

impl PredictorSizeSweep {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["MDPT entries", "mean IPC", "mean missspec"]);
        for &(e, i, m) in &self.points {
            t.row_owned(vec![e.to_string(), ipc(i), pct4(m)]);
        }
        format!("Ablation: MDPT size under NAS/SYNC\n{}", t.render())
    }
}

/// Result of sweeping the MDPT flush interval.
#[derive(Debug, Clone, Serialize)]
pub struct FlushIntervalSweep {
    /// `(interval cycles or 0 for never, mean IPC, mean sync-delayed
    /// loads per committed load)` per point.
    pub points: Vec<(u64, f64, f64)>,
}

/// Sweeps the MDPT flush interval (the paper fixes one million cycles).
pub fn flush_interval(runner: &Runner, intervals: &[Option<u64>]) -> FlushIntervalSweep {
    let configs: Vec<CoreConfig> = intervals
        .iter()
        .map(|&interval| {
            let mut cfg = CoreConfig::paper_128().with_policy(Policy::NasSync);
            cfg.mdpt = MdptParams {
                flush_interval: interval,
                ..MdptParams::paper()
            };
            cfg
        })
        .collect();
    let points = intervals
        .iter()
        .zip(runner.run_batch(&configs))
        .map(|(&interval, results)| {
            let mean_ipc = geomean(&results.iter().map(|(_, r)| r.ipc()).collect::<Vec<_>>());
            let delayed: u64 = results
                .iter()
                .map(|(_, r)| r.stats.sync_delayed_loads)
                .sum();
            let loads: u64 = results.iter().map(|(_, r)| r.stats.committed_loads).sum();
            (
                interval.unwrap_or(0),
                mean_ipc,
                if loads == 0 {
                    0.0
                } else {
                    delayed as f64 / loads as f64
                },
            )
        })
        .collect();
    FlushIntervalSweep { points }
}

impl FlushIntervalSweep {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["flush interval", "mean IPC", "sync-delayed loads"]);
        for &(iv, i, d) in &self.points {
            let label = if iv == 0 {
                "never".to_string()
            } else {
                iv.to_string()
            };
            t.row_owned(vec![label, ipc(i), format!("{:.2}%", 100.0 * d)]);
        }
        format!(
            "Ablation: MDPT flush interval under NAS/SYNC\n{}",
            t.render()
        )
    }
}

/// Store-set synchronization vs MDPT synchronization.
#[derive(Debug, Clone, Serialize)]
pub struct StoreSetComparison {
    /// Per-benchmark `(name, sync IPC, store-set IPC)`.
    pub rows: Vec<(String, f64, f64)>,
    /// Geometric-mean IPCs `(sync, store sets)`.
    pub means: (f64, f64),
}

/// Compares `NAS/SYNC` with the Chrysos & Emer store-set predictor.
pub fn store_sets(runner: &Runner) -> StoreSetComparison {
    let mut sets = ipcs_batch(
        runner,
        &[
            CoreConfig::paper_128().with_policy(Policy::NasSync),
            CoreConfig::paper_128().with_policy(Policy::NasStoreSets),
        ],
    );
    let sset = sets.pop().expect("two result sets");
    let sync = sets.pop().expect("two result sets");
    let rows = sync
        .iter()
        .zip(&sset)
        .map(|(&(b, s), &(_, t))| (b.name().to_string(), s, t))
        .collect();
    let means = (
        geomean(&sync.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
        geomean(&sset.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
    );
    StoreSetComparison { rows, means }
}

impl StoreSetComparison {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["Program", "NAS/SYNC", "NAS/SSET"]);
        for (b, s, x) in &self.rows {
            t.row_owned(vec![b.clone(), ipc(*s), ipc(*x)]);
        }
        format!(
            "Ablation: MDPT synchronization vs store sets\n{}means: SYNC {} SSET {}\n",
            t.render(),
            ipc(self.means.0),
            ipc(self.means.1)
        )
    }
}

/// Squash invalidation vs selective invalidation under naive
/// speculation (the Section 2 recovery-cost discussion, quantified).
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryComparison {
    /// Per-benchmark `(name, squash IPC, reissue IPC, squashed insts,
    /// reissued insts)`.
    pub rows: Vec<(String, f64, f64, u64, u64)>,
    /// Geometric-mean IPCs `(squash, selective reissue)`.
    pub means: (f64, f64),
}

/// Compares the two recovery models under `NAS/NAV`.
pub fn recovery(runner: &Runner) -> RecoveryComparison {
    let squash_cfg = CoreConfig::paper_128().with_policy(Policy::NasNaive);
    let reissue_cfg = squash_cfg.clone().with_recovery(Recovery::SelectiveReissue);
    let mut sets = runner.run_batch(&[squash_cfg, reissue_cfg]);
    let reissue = sets.pop().expect("two result sets");
    let squash = sets.pop().expect("two result sets");
    let rows: Vec<(String, f64, f64, u64, u64)> = squash
        .iter()
        .zip(&reissue)
        .map(|((b, rs), (_, rr))| {
            (
                b.name().to_string(),
                rs.ipc(),
                rr.ipc(),
                rs.stats.squashed,
                rr.stats.reissued,
            )
        })
        .collect();
    let means = (
        geomean(&squash.iter().map(|(_, r)| r.ipc()).collect::<Vec<_>>()),
        geomean(&reissue.iter().map(|(_, r)| r.ipc()).collect::<Vec<_>>()),
    );
    RecoveryComparison { rows, means }
}

impl RecoveryComparison {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&[
            "Program",
            "squash IPC",
            "reissue IPC",
            "squashed",
            "reissued",
        ]);
        for (b, s, r, sq, ri) in &self.rows {
            t.row_owned(vec![
                b.clone(),
                ipc(*s),
                ipc(*r),
                sq.to_string(),
                ri.to_string(),
            ]);
        }
        format!(
            "Ablation: squash vs selective invalidation under NAS/NAV
{}means: squash {} reissue {}
",
            t.render(),
            ipc(self.means.0),
            ipc(self.means.1)
        )
    }
}

/// Effect of front-end quality on the memory-dependence results.
#[derive(Debug, Clone, Serialize)]
pub struct BranchPredictorSweep {
    /// `(name, mean NAS/NAV IPC, mean branch accuracy)` per predictor.
    pub points: Vec<(String, f64, f64)>,
}

/// Runs `NAS/NAV` under several direction predictors. The paper fixes
/// the 64K combined predictor; this shows front-end quality scales IPC
/// without changing the policy orderings.
pub fn branch_predictors(runner: &Runner) -> BranchPredictorSweep {
    let predictors = [
        ("static-NT", BranchPredictorConfig::StaticNotTaken),
        (
            "bimodal-4K",
            BranchPredictorConfig::Bimodal { entries: 4096 },
        ),
        (
            "gshare-64K",
            BranchPredictorConfig::Gshare {
                entries: 65536,
                history: 12,
            },
        ),
        (
            "local-4K",
            BranchPredictorConfig::Local {
                entries: 4096,
                history: 10,
            },
        ),
        ("combined-64K (paper)", BranchPredictorConfig::PaperCombined),
    ];
    let configs: Vec<CoreConfig> = predictors
        .iter()
        .map(|(_, bp)| {
            let mut cfg = CoreConfig::paper_128().with_policy(Policy::NasNaive);
            cfg.branch_predictor = *bp;
            cfg
        })
        .collect();
    let points = predictors
        .iter()
        .zip(runner.run_batch(&configs))
        .map(|(&(name, _), results)| {
            let mean_ipc = geomean(&results.iter().map(|(_, r)| r.ipc()).collect::<Vec<_>>());
            let acc = results
                .iter()
                .map(|(_, r)| r.stats.frontend.accuracy())
                .sum::<f64>()
                / results.len() as f64;
            (name.to_string(), mean_ipc, acc)
        })
        .collect();
    BranchPredictorSweep { points }
}

impl BranchPredictorSweep {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["predictor", "mean NAS/NAV IPC", "branch accuracy"]);
        for (name, i, a) in &self.points {
            t.row_owned(vec![name.clone(), ipc(*i), format!("{:.1}%", 100.0 * a)]);
        }
        format!(
            "Ablation: branch predictor quality under NAS/NAV
{}",
            t.render()
        )
    }
}

/// Window-size sweep extending Figure 1's trend.
#[derive(Debug, Clone, Serialize)]
pub struct WindowSweep {
    /// `(window entries, mean NAS/NO IPC, mean NAS/ORACLE IPC)`.
    pub points: Vec<(usize, f64, f64)>,
}

/// Sweeps the window size for `NAS/NO` vs `NAS/ORACLE`.
pub fn window_sweep(runner: &Runner, sizes: &[usize]) -> WindowSweep {
    let mut configs = Vec::new();
    for &w in sizes {
        for policy in [Policy::NasNo, Policy::NasOracle] {
            configs.push(
                CoreConfig::paper_128()
                    .with_policy(policy)
                    .with_window_size(w),
            );
        }
    }
    let mut sets = runner.run_batch(&configs).into_iter();
    let points = sizes
        .iter()
        .map(|&w| {
            let mut mean = || {
                let results = sets.next().expect("one result set per (size, policy)");
                geomean(&results.iter().map(|(_, r)| r.ipc()).collect::<Vec<_>>())
            };
            let no = mean();
            let oracle = mean();
            (w, no, oracle)
        })
        .collect();
    WindowSweep { points }
}

impl WindowSweep {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["window", "NAS/NO", "NAS/ORACLE", "gap"]);
        for &(w, n, o) in &self.points {
            t.row_owned(vec![
                w.to_string(),
                ipc(n),
                ipc(o),
                format!("{:.2}x", if n > 0.0 { o / n } else { 0.0 }),
            ]);
        }
        format!(
            "Ablation: window-size sweep (extends Figure 1)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_workloads::{Benchmark, SuiteParams};

    fn small_runner() -> Runner {
        Runner::new(crate::Suite::generate(&[Benchmark::Compress], &SuiteParams::tiny()).unwrap())
    }

    #[test]
    fn tiny_mdpt_missspeculates_more() {
        let runner = small_runner();
        let sweep = predictor_size(&runner, &[16, 4096]);
        let (small, big) = (&sweep.points[0], &sweep.points[1]);
        assert!(
            small.2 >= big.2,
            "a 16-entry MDPT cannot out-predict a 4K one: {:?} vs {:?}",
            small,
            big
        );
        assert!(sweep.render().contains("MDPT size"));
    }

    #[test]
    fn flush_interval_sweep_runs() {
        let runner = small_runner();
        let sweep = flush_interval(&runner, &[Some(10_000), Some(1_000_000), None]);
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.render().contains("flush interval"));
    }

    #[test]
    fn store_set_comparison_runs() {
        let runner = small_runner();
        let cmp = store_sets(&runner);
        assert_eq!(cmp.rows.len(), 1);
        assert!(cmp.means.0 > 0.0 && cmp.means.1 > 0.0);
    }

    #[test]
    fn selective_reissue_does_not_lose_to_squash() {
        let runner = small_runner();
        let cmp = recovery(&runner);
        assert!(
            cmp.means.1 >= cmp.means.0 * 0.97,
            "reissue {} vs squash {}",
            cmp.means.1,
            cmp.means.0
        );
        assert!(cmp.render().contains("selective invalidation"));
    }

    #[test]
    fn better_predictors_do_not_hurt() {
        let runner = small_runner();
        let sweep = branch_predictors(&runner);
        let static_nt = &sweep.points[0];
        let combined = sweep.points.last().expect("non-empty");
        assert!(
            combined.1 >= static_nt.1 * 0.98,
            "the paper predictor should not lose to static not-taken: {:.2} vs {:.2}",
            combined.1,
            static_nt.1
        );
        assert!(combined.2 >= static_nt.2);
        assert!(sweep.render().contains("branch predictor"));
    }

    #[test]
    fn window_gap_grows_with_size() {
        let runner = small_runner();
        let sweep = window_sweep(&runner, &[32, 128]);
        let gap32 = sweep.points[0].2 / sweep.points[0].1;
        let gap128 = sweep.points[1].2 / sweep.points[1].1;
        assert!(
            gap128 >= gap32 * 0.9,
            "oracle advantage should grow (or hold) with window size: {gap32:.2} -> {gap128:.2}"
        );
    }
}
