//! # mds-obs — observability primitives for the simulator stack
//!
//! The paper's analysis lives in *distributions*, not just means:
//! Table 3 reports how long false dependences delay loads, Table 4
//! reports mis-speculation rates whose cost depends on the
//! squash-penalty distribution. This crate provides the building blocks
//! that let every layer of the reproduction expose those shapes:
//!
//! * [`Histogram`] — a fixed-size, log2-bucketed histogram of `u64`
//!   samples (exact count/sum/min/max, bucketed percentiles). `Copy`,
//!   so it can live inside plain-old-data statistics structs.
//! * [`CpiStack`] + [`StallCause`] — per-cycle stall attribution: every
//!   simulated cycle is either a commit cycle or charged to exactly one
//!   [`StallCause`], so the stack always partitions total cycles.
//! * [`Fields`] / [`Field`] — one walk per statistics record, lending
//!   each field once, in declaration order, as a counter, histogram,
//!   nested record or derived gauge. Each walk destructures its record
//!   exhaustively, so a new field fails to compile until it is listed.
//! * [`merge`] — adds one record into another, field by field, along
//!   the walk.
//! * [`Metric`] / [`MetricSource`] / [`snapshot`] — a generic visitor
//!   over named metrics, so reports can dump every statistic a
//!   component exposes without hand-listing fields. Every `Copy` record
//!   with a walk is a [`MetricSource`], its nested fields named
//!   `record.field`.
//! * [`Registry`] — a dynamic bag of named counters and histograms for
//!   layers (like the experiment runner) whose metrics are not known
//!   statically.
//! * [`JsonlWriter`] — structured line-delimited JSON event emission
//!   for the `--trace-out` machinery.
//! * [`Spans`] / [`SpanRecord`] — lightweight hierarchical spans
//!   (monotonic start/duration, parent id, key=value fields) for
//!   tracing the runtime's own request path, phase by phase.
//! * [`to_prometheus`] — Prometheus text exposition of any
//!   [`MetricSource`], for live scraping of a running service.
//!
//! # Examples
//!
//! ```
//! use mds_obs::{Histogram, CpiStack, StallCause};
//!
//! let mut h = Histogram::new();
//! for delay in [0, 1, 3, 17, 40] {
//!     h.record(delay);
//! }
//! assert_eq!(h.count(), 5);
//! assert_eq!(h.sum(), 61);
//!
//! let mut cpi = CpiStack::default();
//! cpi.commit();
//! cpi.record(StallCause::FalseDependence);
//! assert_eq!(cpi.total_cycles(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cpi;
mod fields;
mod hist;
mod jsonl;
mod prom;
mod registry;
mod span;

pub use cpi::{CpiStack, StallCause};
pub use fields::{merge, Field, Fields};
pub use hist::{Histogram, HIST_BUCKETS};
pub use jsonl::JsonlWriter;
pub use prom::to_prometheus;
pub use registry::{snapshot, Metric, MetricSource, Registry};
pub use span::{ActiveSpan, SpanId, SpanRecord, Spans};
