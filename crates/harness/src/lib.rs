//! # mds-harness — regenerating the paper's tables and figures
//!
//! The experiment layer of the reproduction (Moshovos & Sohi, HPCA
//! 2000): for every table and figure in the paper's evaluation there is
//! a module under [`experiments`] that runs the corresponding
//! configurations over the synthetic suite and renders the same
//! rows/series the paper reports, alongside the paper's own numbers
//! where the paper gives them.
//!
//! The entry point is [`Runner`]: generate the functional traces once
//! with [`Suite`], wrap them in a runner, then feed it to any number of
//! experiments — repeated (benchmark, config) requests are memoized and
//! pending simulations run on a work-stealing thread pool, with results
//! always assembled in deterministic suite order.
//!
//! # Examples
//!
//! ```
//! use mds_harness::{experiments, Runner, Suite};
//! use mds_workloads::{Benchmark, SuiteParams};
//!
//! let suite = Suite::generate(&[Benchmark::Compress], &SuiteParams::tiny())?;
//! let runner = Runner::new(suite);
//! let table1 = experiments::table1::run(&runner);
//! assert_eq!(table1.rows.len(), 1);
//! println!("{}", table1.render());
//! # Ok::<(), mds_isa::IsaError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod barchart;
pub mod cli;
pub mod emit;
pub mod experiments;
pub mod faults;
pub mod report;
mod runner;
mod table;

pub use barchart::{BarChart, Group};
pub use faults::{Fault, FaultPlan, FaultSite};
pub use runner::{
    geomean, int_fp_geomeans, ConfigKey, Runner, RunnerStats, Suite, SweepService, TraceSink,
    CACHE_SCHEMA_VERSION, MAX_REQUEST_LINE, PROTOCOL_VERSION,
};
pub use table::{ipc, pct, pct4, speedup_pct, Align, TextTable};
