//! One field walk per statistics record. Aggregation ([`merge`]), the
//! metrics view ([`MetricSource`]) and the harness's disk codec are all
//! built on it, so a record lists its fields in one place.

use crate::hist::Histogram;
use crate::registry::{Metric, MetricSource};

/// One field of a statistics record, lent by [`Fields::walk`].
pub enum Field<'a> {
    /// A monotonically accumulated count.
    Counter(&'a mut u64),
    /// A distribution of samples.
    Histogram(&'a mut Histogram),
    /// A nested record. Its metrics are named `<field>.<name>`.
    Record(&'a mut dyn Fields),
    /// A value derived from the record's counters (`ipc`, `miss_rate`).
    /// Only the metrics view shows it: [`merge`] and persistence skip
    /// it, since it follows from the counters.
    Gauge(f64),
}

/// A statistics record that lists its fields once.
///
/// Implementations destructure `self` exhaustively, so a new field
/// fails to compile until its walk lists it. [`merge`], the
/// [`MetricSource`] view and the disk codec then carry it with no
/// further edit. Every record is `Copy`, so read-only users walk a copy.
pub trait Fields {
    /// Calls `f(name, field)` once per field, in declaration order.
    fn walk<'a>(&'a mut self, f: &mut dyn FnMut(&'static str, Field<'a>));
}

/// Adds every counter and histogram of `other` into `into`, for
/// aggregating across benchmarks or runs.
pub fn merge<T: Fields + Copy>(into: &mut T, other: &T) {
    let mut other = *other;
    let mut theirs = Vec::new();
    leaves(&mut other, &mut |field| theirs.push(field));
    let mut theirs = theirs.into_iter();
    leaves(into, &mut |mine| match (mine, theirs.next()) {
        (Field::Counter(a), Some(Field::Counter(b))) => *a += *b,
        (Field::Histogram(a), Some(Field::Histogram(b))) => a.merge(b),
        _ => unreachable!("both sides walk the same record type"),
    });
}

/// Calls `f` on every counter and histogram under `record`, depth first.
fn leaves<'a>(record: &'a mut dyn Fields, f: &mut dyn FnMut(Field<'a>)) {
    record.walk(&mut |_, field| match field {
        Field::Record(inner) => leaves(inner, f),
        Field::Gauge(_) => {}
        leaf => f(leaf),
    });
}

impl<T: Fields + Copy> MetricSource for T {
    fn visit(&self, out: &mut dyn FnMut(&str, Metric<'_>)) {
        visit_fields(&mut { *self }, "", out);
    }
}

fn visit_fields(record: &mut dyn Fields, prefix: &str, out: &mut dyn FnMut(&str, Metric<'_>)) {
    record.walk(&mut |name, field| {
        let name = format!("{prefix}{name}");
        match field {
            Field::Counter(n) => out(&name, Metric::Counter(*n)),
            Field::Histogram(h) => out(&name, Metric::Histogram(h)),
            Field::Record(inner) => visit_fields(inner, &format!("{name}."), out),
            Field::Gauge(g) => out(&name, Metric::Gauge(g)),
        }
    });
}
