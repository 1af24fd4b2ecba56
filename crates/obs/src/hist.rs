//! A fixed-size, log2-bucketed histogram of `u64` samples.

use serde::{Serialize, Value};

/// Number of buckets: one for zero plus one per power of two up to
/// `2^63`.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram.
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds the range
/// `[2^(i-1), 2^i - 1]`. Count, sum, min, and max are exact; only the
/// per-bucket resolution is approximate, which is all the paper's
/// distribution arguments ("often tens of cycles") need.
///
/// The storage is a fixed array so the type stays `Copy` and can be
/// embedded in plain-old-data statistics structs that are memoized and
/// compared for determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `[lo, hi]` range of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HIST_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HIST_BUCKETS, "bucket {i} out of range");
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Histogram::bucket_index(value)] += n;
        self.count += n;
        self.sum += value * n;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `p`-th percentile (`p` in `[0, 1]`): the
    /// high edge of the bucket containing that rank, clamped to the
    /// exact maximum. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Histogram::bucket_bounds(i).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Reassembles a histogram from its exact moments and non-empty
    /// bucket counts (keyed by bucket lower bound), i.e. the data
    /// [`Histogram::nonzero_buckets`] and the moment accessors expose.
    ///
    /// Returns `None` when the parts are inconsistent: a `lo` that is
    /// not a bucket lower bound, a duplicate bucket, bucket counts that
    /// do not sum to `count` (or overflow summing), min/max outside
    /// their buckets, or moments on an empty histogram — so corrupted
    /// persisted data is rejected rather than resurrected into an
    /// impossible histogram.
    fn from_parts(
        count: u64,
        sum: u64,
        min: Option<u64>,
        max: Option<u64>,
        bucket_counts: &[(u64, u64)],
    ) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(lo, n) in bucket_counts {
            let i = Histogram::bucket_index(lo);
            if Histogram::bucket_bounds(i).0 != lo || n == 0 || h.buckets[i] != 0 {
                return None;
            }
            h.buckets[i] = n;
        }
        let total = h.buckets.iter().try_fold(0u64, |t, &n| t.checked_add(n));
        if total != Some(count) {
            return None;
        }
        if count == 0 {
            return (sum == 0 && min.is_none() && max.is_none()).then_some(h);
        }
        let (min, max) = (min?, max?);
        if min > max
            || h.buckets[Histogram::bucket_index(min)] == 0
            || h.buckets[Histogram::bucket_index(max)] == 0
        {
            return None;
        }
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        Some(h)
    }

    /// Decodes a histogram from the object [`Serialize::to_value`]
    /// produces (`count`/`sum`/`min`/`max` moments plus `buckets` as
    /// `[[lo, n], ...]`; other keys are ignored), validating every
    /// consistency rule of the parts.
    ///
    /// Returns `None` for any structural or consistency violation, so
    /// a remote metrics snapshot (the `mds-serve` `metrics` verb) or a
    /// disk-cache entry is verified rather than trusted.
    pub fn from_value(value: &Value) -> Option<Histogram> {
        let count = value.get("count")?.as_u64()?;
        let sum = value.get("sum")?.as_u64()?;
        let opt = |v: Option<&Value>| match v {
            None | Some(Value::Null) => Some(None),
            Some(other) => other.as_u64().map(Some),
        };
        let min = opt(value.get("min"))?;
        let max = opt(value.get("max"))?;
        let mut parts = Vec::new();
        for bucket in value.get("buckets")?.as_array()? {
            let pair = bucket.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            parts.push((pair[0].as_u64()?, pair[1].as_u64()?));
        }
        Histogram::from_parts(count, sum, min, max, &parts)
    }

    /// Iterates over the non-empty buckets as `(lo, hi, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = Histogram::bucket_bounds(i);
                (lo, hi, n)
            })
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .nonzero_buckets()
            .map(|(lo, _, n)| Value::Array(vec![Value::UInt(lo), Value::UInt(n)]))
            .collect();
        Value::Object(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("sum".to_string(), Value::UInt(self.sum)),
            ("mean".to_string(), Value::Float(self.mean())),
            ("min".to_string(), self.min().to_value()),
            ("max".to_string(), self.max().to_value()),
            ("p50".to_string(), self.percentile(0.50).to_value()),
            ("p90".to_string(), self.percentile(0.90).to_value()),
            ("p99".to_string(), self.percentile(0.99).to_value()),
            ("buckets".to_string(), Value::Array(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
        }
    }

    #[test]
    fn exact_moments() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(7);
        h.record_n(10, 3);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 37);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(10));
        assert!((h.mean() - 7.4).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.nonzero_buckets().count(), 0);
        assert_eq!(h, Histogram::default());
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 falls in bucket [32, 63]; p99 in [64, 127] clamped to max.
        assert_eq!(h.percentile(0.5), Some(63));
        assert_eq!(h.percentile(0.99), Some(100));
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(1.0), Some(100));
    }

    #[test]
    fn from_parts_roundtrips() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(7);
        h.record_n(1000, 4);
        let parts: Vec<(u64, u64)> = h.nonzero_buckets().map(|(lo, _, n)| (lo, n)).collect();
        let back = Histogram::from_parts(h.count(), h.sum(), h.min(), h.max(), &parts).unwrap();
        assert_eq!(back, h);
        assert_eq!(
            Histogram::from_parts(0, 0, None, None, &[]),
            Some(Histogram::new())
        );
    }

    #[test]
    fn from_parts_rejects_inconsistencies() {
        // lo that is not a bucket lower bound.
        assert!(Histogram::from_parts(1, 3, Some(3), Some(3), &[(3, 1)]).is_none());
        // Counts that do not sum to count.
        assert!(Histogram::from_parts(5, 3, Some(2), Some(2), &[(2, 1)]).is_none());
        // min/max in empty buckets.
        assert!(Histogram::from_parts(1, 2, Some(200), Some(200), &[(2, 1)]).is_none());
        // Moments on an empty histogram.
        assert!(Histogram::from_parts(0, 7, None, None, &[]).is_none());
        // min > max.
        assert!(Histogram::from_parts(2, 6, Some(4), Some(2), &[(2, 2)]).is_none());
        // Duplicate bucket.
        assert!(Histogram::from_parts(2, 4, Some(2), Some(2), &[(2, 1), (2, 1)]).is_none());
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        a.record(3);
        let mut b = Histogram::new();
        b.record(300);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 303);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(300));
    }

    #[test]
    fn from_value_roundtrips_serialization() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(7);
        h.record_n(1000, 4);
        assert_eq!(Histogram::from_value(&h.to_value()), Some(h));
        let empty = Histogram::new();
        assert_eq!(Histogram::from_value(&empty.to_value()), Some(empty));
    }

    #[test]
    fn from_value_rejects_malformed_snapshots() {
        // Not an object at all.
        assert!(Histogram::from_value(&Value::UInt(3)).is_none());
        // Tampered count no longer matches the buckets.
        let mut h = Histogram::new();
        h.record(5);
        let mut fields = h.to_value().as_object().unwrap().to_vec();
        for (k, v) in &mut fields {
            if k == "count" {
                *v = Value::UInt(9);
            }
        }
        assert!(Histogram::from_value(&Value::Object(fields)).is_none());
        // A bucket entry that is not a [lo, n] pair.
        let bad = Value::Object(vec![
            ("count".into(), Value::UInt(1)),
            ("sum".into(), Value::UInt(5)),
            ("min".into(), Value::UInt(5)),
            ("max".into(), Value::UInt(5)),
            ("buckets".into(), Value::Array(vec![Value::UInt(4)])),
        ]);
        assert!(Histogram::from_value(&bad).is_none());
    }

    #[test]
    fn from_value_rejects_bucket_counts_that_overflow() {
        // The counts wrap to 0 == count if summed unchecked.
        let crafted = Value::parse_json(
            "{\"count\":0,\"sum\":0,\"min\":null,\"max\":null,\
             \"buckets\":[[1,18446744073709551615],[2,1]]}",
        )
        .unwrap();
        assert_eq!(Histogram::from_value(&crafted), None);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        // Load-bearing for deterministic multi-threaded aggregation:
        // per-worker histograms may be absorbed in any grouping, and the
        // final moments/buckets must not depend on it.
        let sample = |seed: u64| {
            let mut h = Histogram::new();
            let mut x = seed;
            for _ in 0..50 {
                // LCG: deterministic, spread across many buckets.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                h.record(x >> (x % 50));
            }
            h
        };
        let (a, b, c) = (sample(1), sample(2), sample(3));
        // (a + b) + c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        // c + b + a
        let mut rev = c;
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(left, rev, "merge must be commutative");
        // Identity: merging an empty histogram changes nothing.
        let mut with_empty = left;
        with_empty.merge(&Histogram::new());
        assert_eq!(with_empty, left);
    }

    #[test]
    fn serializes_to_object() {
        let mut h = Histogram::new();
        h.record(5);
        let v = h.to_value();
        let fields = v.as_object().unwrap();
        assert!(fields.iter().any(|(k, _)| k == "p90"));
        let json = v.to_json();
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"buckets\":[[4,1]]"), "{json}");
    }
}
