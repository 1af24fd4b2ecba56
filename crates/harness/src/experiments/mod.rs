//! One module per table and figure of the paper's evaluation.
//!
//! Every experiment consumes a shared [`Runner`] (so the functional
//! traces are generated once and (benchmark, config) results are
//! memoized across *all* experiments in a run), returns a serializable
//! report struct with the raw numbers, and renders the same rows/series
//! the paper presents. [`ALL`] lists them in `reproduce`'s run order.
//!
//! [`Runner`]: crate::Runner
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table 1 — benchmark execution characteristics |
//! | [`table2`] | Table 2 — the machine configuration |
//! | [`fig1`] | Figure 1 — `NAS/NO` vs `NAS/ORACLE`, 64/128-entry windows |
//! | [`table3`] | Table 3 — false-dependence fraction and resolution latency |
//! | [`fig2`] | Figure 2 — naive speculation without an address scheduler |
//! | [`fig3`] | Figure 3 — `AS/NAV` vs `AS/NO` over scheduler latency 0–2 |
//! | [`fig4`] | Figure 4 — oracle vs address scheduling + naive speculation |
//! | [`fig5`] | Figure 5 — selective and store-barrier speculation |
//! | [`fig6`] | Figure 6 — speculation/synchronization |
//! | [`table4`] | Table 4 — mis-speculation rates (`NAV` and `SYNC`) |
//! | [`fig7`] | Section 3.7 — split vs continuous window |
//! | [`summary`] | Section 4 — the headline average speedups |
//! | [`cpistack`] | beyond the paper: CPI-stack stall attribution per policy |
//! | [`ablation`] | beyond the paper: predictor sizing, flush interval, store sets, window sweep |
//! | [`stability`] | beyond the paper: seed sensitivity of the headline result |

/// The [`Artifact`] of one report, named `$name`.
macro_rules! artifact {
    ($name:expr, $report:expr) => {{
        let report = $report;
        Artifact {
            name: $name,
            text: report.render(),
            value: Some(report.to_value()),
        }
    }};
}

/// A table entry for an experiment whose one report comes from
/// `$module::run` and is named after the module.
macro_rules! one_report {
    ($module:ident) => {
        (stringify!($module), |runner| {
            Ok(vec![artifact!(stringify!($module), $module::run(runner))])
        })
    };
}

pub mod ablation;
pub mod cpistack;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod stability;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use crate::runner::{Runner, Suite};
use mds_core::{CoreConfig, Policy};
use mds_workloads::Benchmark;
use serde::{Serialize, Value};

/// One emitted report: its rendered text and, when it has one, its
/// serialized form (written as `.json` and `.csv`).
#[derive(Debug)]
pub struct Artifact {
    /// The file stem the artifact is written under.
    pub name: &'static str,
    /// The rendered report, as printed.
    pub text: String,
    /// The report's raw numbers.
    pub value: Option<Value>,
}

/// An experiment: runs on the shared runner and returns its artifacts,
/// or a message saying why it failed.
pub type Experiment = fn(&Runner) -> Result<Vec<Artifact>, String>;

/// Every experiment, by name, in `reproduce`'s run order: the list that
/// `reproduce`'s run loop, `--list` and `--only` all read. `ablations`
/// times the six beyond-the-paper sweeps as one experiment; `stability`
/// reruns the headline result at two more generator seeds.
pub const ALL: [(&str, Experiment); 15] = [
    one_report!(table1),
    ("table2", |_| {
        Ok(vec![Artifact {
            name: "table2",
            text: table2::render(&CoreConfig::paper_128()),
            value: None,
        }])
    }),
    one_report!(fig1),
    one_report!(table3),
    one_report!(fig2),
    one_report!(fig3),
    one_report!(fig4),
    one_report!(fig5),
    one_report!(fig6),
    one_report!(table4),
    one_report!(fig7),
    one_report!(summary),
    one_report!(cpistack),
    ("ablations", |runner| Ok(ablation::run(runner))),
    ("stability", |runner| {
        stability::experiment(runner)
            .map(|report| vec![artifact!("stability", report)])
            .map_err(|e| format!("stability experiment failed: {e}"))
    }),
];

/// The experiment names, in run order.
pub fn names() -> Vec<&'static str> {
    ALL.iter().map(|&(name, _)| name).collect()
}

/// Runs every suite benchmark under `config`, returning the IPCs.
pub(crate) fn ipcs(runner: &Runner, config: &CoreConfig) -> Vec<(Benchmark, f64)> {
    runner
        .run(config)
        .into_iter()
        .map(|(b, r)| (b, r.ipc()))
        .collect()
}

/// Runs every suite benchmark under each config in one parallel wave,
/// returning one IPC set per config.
pub(crate) fn ipcs_batch(runner: &Runner, configs: &[CoreConfig]) -> Vec<Vec<(Benchmark, f64)>> {
    ipcs_batch_on(runner, runner.suite(), configs)
}

/// [`ipcs_batch`] over `suite`'s traces (see [`Runner::run_batch_on`]).
pub(crate) fn ipcs_batch_on(
    runner: &Runner,
    suite: &Suite,
    configs: &[CoreConfig],
) -> Vec<Vec<(Benchmark, f64)>> {
    runner
        .run_batch_on(suite, configs)
        .into_iter()
        .map(|set| set.into_iter().map(|(b, r)| (b, r.ipc())).collect())
        .collect()
}

/// Per-benchmark speedup of `new` over `base` (paired by suite order).
pub(crate) fn speedups(
    new: &[(Benchmark, f64)],
    base: &[(Benchmark, f64)],
) -> Vec<(Benchmark, f64)> {
    new.iter()
        .zip(base.iter())
        .map(|(&(b, n), &(b2, d))| {
            debug_assert_eq!(b, b2);
            (b, if d == 0.0 { 0.0 } else { n / d })
        })
        .collect()
}

/// Shorthand for a paper-default 128-entry configuration with `policy`.
pub(crate) fn cfg(policy: Policy) -> CoreConfig {
    CoreConfig::paper_128().with_policy(policy)
}
