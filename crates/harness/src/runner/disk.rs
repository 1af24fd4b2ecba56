//! Persistent, content-addressed on-disk tier of the simulation cache.
//!
//! Each entry is one JSON file addressed by (trace fingerprint, config
//! fingerprint, schema version):
//!
//! ```text
//! <cache-dir>/v<SCHEMA>/<benchmark>-<trace_fnv:016x>/<key_fnv:016x>.json
//! ```
//!
//! The full [`ConfigKey`] string, benchmark name, and trace
//! fingerprint are stored *inside* every entry and compared on load,
//! so a hash collision (or a hand-copied file) degrades to a cache
//! miss, never to a wrong result. Statistics are encoded along each
//! record's [`Fields`] walk, so a new counter reaches the entry with no
//! edit here, and decoded in lockstep with the same walk: corrupted,
//! truncated, reordered or semantically impossible entries (e.g. a CPI
//! stack that does not partition the cycle count) are treated as misses
//! and re-simulated rather than crashing or, far worse, silently
//! skewing every downstream table.
//!
//! Entries are written with [`emit::write_atomic`], so concurrent
//! writers of the same entry (two `reproduce` processes, the daemon
//! plus a CI run) each stage a complete private file and the
//! destination only ever flips between complete encodings.

use crate::emit;
use crate::faults::{injected_io_error, FaultPlan, FaultSite};
use crate::runner::key::{ConfigKey, CACHE_SCHEMA_VERSION};
use mds_core::{SimResult, SimStats};
use mds_obs::{Field, Fields, Histogram};
use mds_workloads::Benchmark;
use serde::{Serialize, Value};
use std::io;
use std::path::{Path, PathBuf};

/// The persistent tier: a directory of self-verifying result entries.
#[derive(Debug)]
pub(super) struct DiskCache {
    /// `<cache-dir>/v<SCHEMA>` — entries of other schema versions live
    /// in sibling directories and are invisible to this build.
    root: PathBuf,
    /// Write entries with [`emit::write_atomic_durable`] (fsync file
    /// and directory) instead of the buffered atomic write.
    durable: bool,
}

impl DiskCache {
    /// Opens (without touching the filesystem yet) the disk tier
    /// rooted at `dir`; directories are created lazily on first store.
    pub fn open<P: AsRef<Path>>(dir: P) -> DiskCache {
        DiskCache {
            root: dir.as_ref().join(format!("v{CACHE_SCHEMA_VERSION}")),
            durable: false,
        }
    }

    /// Switches write-back to the fsync-on-write path (see
    /// [`emit::write_atomic_durable`] for the tradeoff).
    pub fn make_durable(&mut self) {
        self.durable = true;
    }

    /// Deletes orphaned `*.tmp` staging files left under the cache
    /// root by a crash between staging and rename. Run once at
    /// startup: any temp file predating this process is garbage — a
    /// live writer's temp exists only for the instant between its
    /// write and its rename, and each writer stages under a unique
    /// name, so the only cost of a mid-flight collision is that the
    /// other writer's rename fails and its entry is re-simulated
    /// later. Unreadable directories are skipped (recovery is
    /// best-effort; a missing root just means nothing was ever
    /// written). Returns the number of orphans deleted.
    pub fn recover(&self) -> u64 {
        let mut removed = 0;
        let Ok(groups) = std::fs::read_dir(&self.root) else {
            return removed;
        };
        for group in groups.flatten() {
            let Ok(entries) = std::fs::read_dir(group.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                let is_orphan = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".tmp"));
                if is_orphan && std::fs::remove_file(&path).is_ok() {
                    removed += 1;
                    eprintln!(
                        "mds-harness: removed orphaned cache temp {}",
                        path.display()
                    );
                }
            }
        }
        removed
    }

    /// The entry file for one (trace, config) pair.
    fn entry_path(&self, benchmark: Benchmark, trace_fp: u64, key: &ConfigKey) -> PathBuf {
        self.root
            .join(format!("{}-{trace_fp:016x}", benchmark.name()))
            .join(format!("{:016x}.json", key.fnv1a()))
    }

    /// Loads a persisted result, verifying identity and integrity.
    /// Any mismatch or corruption is an `Ok(None)` miss; an I/O error
    /// other than the entry simply not existing is returned so the
    /// caller can warn and count it — the request then degrades to
    /// re-simulation rather than aborting the sweep.
    ///
    /// # Errors
    ///
    /// The read error, when the entry exists (or an injected
    /// `disk_read` fault fires) but cannot be read.
    pub fn load(
        &self,
        benchmark: Benchmark,
        trace_fp: u64,
        key: &ConfigKey,
        faults: &FaultPlan,
    ) -> io::Result<Option<SimResult>> {
        let path = self.entry_path(benchmark, trace_fp, key);
        let read = match faults.fire(FaultSite::DiskRead) {
            Some(f) => Err(injected_io_error(f.site)),
            None => std::fs::read_to_string(&path),
        };
        let text = match read {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok((|| {
            let entry = Value::parse_json(&text).ok()?;
            let valid = entry.get("schema")?.as_u64()? == u64::from(CACHE_SCHEMA_VERSION)
                && entry.get("benchmark")?.as_str()? == benchmark.name()
                && entry.get("trace_fingerprint")?.as_u64()? == trace_fp
                && entry.get("config")?.as_str()? == key.as_str();
            if !valid {
                return None;
            }
            decode_result(entry.get("result")?)
        })())
    }

    /// Persists one result. Results carrying a pipeline trace are
    /// skipped (they exist only under `--trace-out`, are stripped
    /// before memoization, and would bloat entries by orders of
    /// magnitude).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write errors; the caller
    /// counts them and downgrades them to a warning, since a failed
    /// write-back only costs a future re-simulation.
    pub fn store(
        &self,
        benchmark: Benchmark,
        trace_fp: u64,
        key: &ConfigKey,
        result: &SimResult,
        faults: &FaultPlan,
    ) -> io::Result<()> {
        if result.pipetrace.is_some() {
            return Ok(());
        }
        let path = self.entry_path(benchmark, trace_fp, key);
        if let Some(f) = faults.fire(FaultSite::DiskWrite) {
            // A full disk (ENOSPC-shaped): nothing reaches the medium.
            return Err(injected_io_error(f.site));
        }
        std::fs::create_dir_all(path.parent().expect("entry path has a parent"))?;
        let entry = Value::Object(vec![
            (
                "schema".to_string(),
                Value::UInt(u64::from(CACHE_SCHEMA_VERSION)),
            ),
            (
                "benchmark".to_string(),
                Value::Str(benchmark.name().to_string()),
            ),
            ("trace_fingerprint".to_string(), Value::UInt(trace_fp)),
            ("config".to_string(), Value::Str(key.as_str().to_string())),
            ("result".to_string(), encode_result(result)),
        ]);
        let json = entry.to_json();
        if let Some(f) = faults.fire(FaultSite::DiskWriteTorn) {
            // A crash between staging and rename: half the bytes land
            // in a `.tmp` sibling that nothing ever renames — exactly
            // what the startup recovery sweep exists to clean up.
            let mut torn_name = path.file_name().expect("entry has a name").to_owned();
            torn_name.push(format!(".{}.torn.tmp", std::process::id()));
            std::fs::write(path.with_file_name(torn_name), &json[..json.len() / 2])?;
            return Err(injected_io_error(f.site));
        }
        if self.durable {
            emit::write_atomic_durable(&path, &json)
        } else {
            emit::write_atomic(&path, &json)
        }
    }
}

/// Encodes a result for persistence (the pipeline trace, if any, is
/// never persisted — see [`DiskCache::store`]).
fn encode_result(result: &SimResult) -> Value {
    let SimResult {
        stats,
        policy_name,
        pipetrace: _,
        skipped_cycles,
    } = result;
    Value::Object(vec![
        ("policy_name".to_string(), Value::Str(policy_name.clone())),
        ("skipped_cycles".to_string(), Value::UInt(*skipped_cycles)),
        ("stats".to_string(), encode(&mut { *stats })),
    ])
}

fn decode_result(v: &Value) -> Option<SimResult> {
    let mut stats = SimStats::default();
    decode(&mut stats, v.get("stats")?)?;
    // The partition invariant every live simulation upholds must also
    // hold for anything claiming to be one. The sum is checked, so
    // crafted lanes cannot wrap around into agreement.
    if stats.cpi.checked_total_cycles() != Some(stats.cycles) {
        return None;
    }
    Some(SimResult {
        policy_name: v.get("policy_name")?.as_str()?.to_string(),
        stats,
        pipetrace: None,
        skipped_cycles: v.get("skipped_cycles")?.as_u64()?,
    })
}

/// Encodes a statistics record as one object, its keys in walk order
/// and each nested record a nested object. Gauges are derived, so they
/// are not stored.
fn encode(record: &mut dyn Fields) -> Value {
    let mut fields = Vec::new();
    record.walk(&mut |name, field| {
        let value = match field {
            Field::Counter(n) => Value::UInt(*n),
            Field::Histogram(h) => encode_hist(h),
            Field::Record(inner) => encode(inner),
            Field::Gauge(_) => return,
        };
        fields.push((name.to_string(), value));
    });
    Value::Object(fields)
}

/// Decodes `value` into `record` in lockstep with the walk, so a
/// missing, extra, renamed or reordered key is a miss.
fn decode(record: &mut dyn Fields, value: &Value) -> Option<()> {
    let mut entries = value.as_object()?.iter();
    let mut ok = true;
    record.walk(&mut |name, field| {
        if ok && !matches!(field, Field::Gauge(_)) {
            ok = match entries.next() {
                Some((key, value)) if key == name => decode_field(field, value).is_some(),
                _ => false,
            };
        }
    });
    (ok && entries.next().is_none()).then_some(())
}

fn decode_field(field: Field<'_>, value: &Value) -> Option<()> {
    match field {
        Field::Counter(n) => *n = value.as_u64()?,
        Field::Histogram(h) => *h = Histogram::from_value(value)?,
        Field::Record(inner) => decode(inner, value)?,
        Field::Gauge(_) => {}
    }
    Some(())
}

/// A histogram's exact moments and non-empty buckets: what
/// [`Histogram::from_value`] reads back.
fn encode_hist(h: &Histogram) -> Value {
    let buckets: Vec<Value> = h
        .nonzero_buckets()
        .map(|(lo, _, n)| Value::Array(vec![Value::UInt(lo), Value::UInt(n)]))
        .collect();
    Value::Object(vec![
        ("count".to_string(), Value::UInt(h.count())),
        ("sum".to_string(), Value::UInt(h.sum())),
        ("min".to_string(), h.min().to_value()),
        ("max".to_string(), h.max().to_value()),
        ("buckets".to_string(), Value::Array(buckets)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_core::{CoreConfig, Policy, Simulator};
    use mds_frontend::FrontEndStats;
    use mds_mem::{CacheStats, MemStats};
    use mds_obs::{CpiStack, StallCause};
    use mds_workloads::SuiteParams;

    fn simulate_one() -> (Benchmark, u64, ConfigKey, SimResult) {
        let benchmark = Benchmark::Compress;
        let trace = benchmark.trace(&SuiteParams::tiny()).unwrap();
        let config = CoreConfig::paper_128().with_policy(Policy::NasNaive);
        let result = Simulator::new(config.clone()).run(&trace);
        (
            benchmark,
            trace.fingerprint(),
            ConfigKey::of(&config),
            result,
        )
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mds-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_is_exact() {
        let dir = tempdir("roundtrip");
        let (benchmark, fp, key, result) = simulate_one();
        let disk = DiskCache::open(&dir);
        assert!(
            disk.load(benchmark, fp, &key, &FaultPlan::none())
                .unwrap()
                .is_none(),
            "cold store"
        );
        disk.store(benchmark, fp, &key, &result, &FaultPlan::none())
            .unwrap();
        assert!(disk.entry_path(benchmark, fp, &key).is_file());
        let loaded = disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .expect("entry persisted");
        assert_eq!(loaded.stats, result.stats);
        assert_eq!(loaded.policy_name, result.policy_name);
        assert_eq!(format!("{loaded:?}"), format!("{result:?}"));
        // A second process opening the same directory sees the entry.
        let other = DiskCache::open(&dir);
        assert!(other
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_identity_is_a_miss() {
        let dir = tempdir("identity");
        let (benchmark, fp, key, result) = simulate_one();
        let disk = DiskCache::open(&dir);
        disk.store(benchmark, fp, &key, &result, &FaultPlan::none())
            .unwrap();
        // Different trace fingerprint (same benchmark and config).
        assert!(disk
            .load(benchmark, fp ^ 1, &key, &FaultPlan::none())
            .unwrap()
            .is_none());
        // Different config.
        let other = ConfigKey::of(&CoreConfig::paper_128().with_policy(Policy::NasOracle));
        assert!(disk
            .load(benchmark, fp, &other, &FaultPlan::none())
            .unwrap()
            .is_none());
        // Hash-collision defence: a file whose *content* names another
        // config is rejected even when placed at this key's address.
        let path = disk.entry_path(benchmark, fp, &key);
        let impostor = disk.entry_path(benchmark, fp, &other);
        std::fs::create_dir_all(impostor.parent().unwrap()).unwrap();
        std::fs::copy(&path, &impostor).unwrap();
        assert!(disk
            .load(benchmark, fp, &other, &FaultPlan::none())
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_truncated_entries_are_misses() {
        let dir = tempdir("corrupt");
        let (benchmark, fp, key, result) = simulate_one();
        let disk = DiskCache::open(&dir);
        disk.store(benchmark, fp, &key, &result, &FaultPlan::none())
            .unwrap();
        let path = disk.entry_path(benchmark, fp, &key);
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncation at every granularity: mid-token, mid-structure.
        for cut in [good.len() / 2, good.len() - 1, 10, 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(
                disk.load(benchmark, fp, &key, &FaultPlan::none())
                    .unwrap()
                    .is_none(),
                "cut at {cut}"
            );
        }
        // Arbitrary garbage.
        std::fs::write(&path, "not json at all \u{1F980}").unwrap();
        assert!(disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_none());
        // Valid JSON, wrong shape.
        std::fs::write(&path, "{\"schema\":1}").unwrap();
        assert!(disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_none());
        // Valid shape, impossible content: CPI stack no longer
        // partitions the cycle count.
        let tampered = good.replacen("\"cycles\":", "\"cycles\":9", 1);
        assert_ne!(tampered, good);
        std::fs::write(&path, &tampered).unwrap();
        assert!(disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_none());
        // Restoring the original bytes restores the hit.
        std::fs::write(&path, &good).unwrap();
        assert!(disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_bump_invalidates_old_entries() {
        let dir = tempdir("schema");
        let (benchmark, fp, key, result) = simulate_one();
        let disk = DiskCache::open(&dir);
        disk.store(benchmark, fp, &key, &result, &FaultPlan::none())
            .unwrap();
        let path = disk.entry_path(benchmark, fp, &key);

        // An entry claiming another schema version inside the current
        // version's directory (e.g. restored from a stale backup) is
        // rejected by the in-entry tag.
        let good = std::fs::read_to_string(&path).unwrap();
        let old = good.replacen(
            &format!("\"schema\":{CACHE_SCHEMA_VERSION}"),
            &format!("\"schema\":{}", CACHE_SCHEMA_VERSION + 1),
            1,
        );
        assert_ne!(old, good);
        std::fs::write(&path, &old).unwrap();
        assert!(disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_none());

        // And entries of a previous schema generation are invisible by
        // construction: they live under a different vN root.
        let stale_root = dir.join(format!("v{}", CACHE_SCHEMA_VERSION + 1));
        assert!(path.starts_with(dir.join(format!("v{CACHE_SCHEMA_VERSION}"))));
        assert!(!path.starts_with(stale_root));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_converge_to_one_valid_entry() {
        let dir = tempdir("race");
        let (benchmark, fp, key, result) = simulate_one();
        let disk = DiskCache::open(&dir);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (disk, key, result) = (&disk, &key, &result);
                scope.spawn(move || {
                    for _ in 0..10 {
                        disk.store(benchmark, fp, key, result, &FaultPlan::none())
                            .unwrap();
                        let loaded = disk
                            .load(benchmark, fp, key, &FaultPlan::none())
                            .unwrap()
                            .expect("entry readable at every instant");
                        assert_eq!(loaded.stats, result.stats);
                    }
                });
            }
        });
        let entry_dir = disk.entry_path(benchmark, fp, &key);
        let entry_dir = entry_dir.parent().unwrap();
        assert_eq!(
            std::fs::read_dir(entry_dir).unwrap().count(),
            1,
            "exactly one entry file, no leaked temps"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pipetraced_results_are_not_persisted() {
        let dir = tempdir("pipetrace");
        let benchmark = Benchmark::Compress;
        let trace = benchmark.trace(&SuiteParams::tiny()).unwrap();
        let config = CoreConfig::paper_128().with_pipetrace(true);
        let result = Simulator::new(config.clone()).run(&trace);
        assert!(result.pipetrace.is_some());
        let disk = DiskCache::open(&dir);
        let key = ConfigKey::of(&config);
        disk.store(
            benchmark,
            trace.fingerprint(),
            &key,
            &result,
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(!disk
            .entry_path(benchmark, trace.fingerprint(), &key)
            .exists());
        assert!(disk
            .load(benchmark, trace.fingerprint(), &key, &FaultPlan::none())
            .unwrap()
            .is_none());
        // The skipped store never even created the directory.
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_error_degrades_to_counted_miss() {
        let dir = tempdir("read-fault");
        let (benchmark, fp, key, result) = simulate_one();
        let disk = DiskCache::open(&dir);
        disk.store(benchmark, fp, &key, &result, &FaultPlan::none())
            .unwrap();
        let faults = FaultPlan::parse("disk_read=nth:1").unwrap();
        let err = disk.load(benchmark, fp, &key, &faults).unwrap_err();
        assert!(err.to_string().contains("injected fault: disk_read"));
        assert_eq!(faults.injected(FaultSite::DiskRead), 1);
        // The entry itself is untouched: the next read hits.
        assert!(disk.load(benchmark, fp, &key, &faults).unwrap().is_some());
        // A missing entry is a plain miss, not an error.
        assert!(disk
            .load(benchmark, fp ^ 1, &key, &FaultPlan::none())
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_error_is_counted_and_leaves_no_entry() {
        let dir = tempdir("write-fault");
        let (benchmark, fp, key, result) = simulate_one();
        let disk = DiskCache::open(&dir);
        let faults = FaultPlan::parse("disk_write=every:1").unwrap();
        let err = disk
            .store(benchmark, fp, &key, &result, &faults)
            .unwrap_err();
        assert!(err.to_string().contains("injected fault: disk_write"));
        assert!(disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_none());
        // A fault-free retry succeeds on the same cache.
        disk.store(benchmark, fp, &key, &result, &FaultPlan::none())
            .unwrap();
        assert!(disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_leaves_an_orphan_that_recovery_removes() {
        let dir = tempdir("torn");
        let (benchmark, fp, key, result) = simulate_one();
        let disk = DiskCache::open(&dir);
        let faults = FaultPlan::parse("disk_write_torn=nth:1").unwrap();
        disk.store(benchmark, fp, &key, &result, &faults)
            .unwrap_err();
        // The torn temp exists but the entry does not: readers only
        // ever see complete entries or a miss.
        let entry_dir = disk.entry_path(benchmark, fp, &key);
        let entry_dir = entry_dir.parent().unwrap();
        let names: Vec<String> = std::fs::read_dir(entry_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "{names:?}");
        assert!(names[0].ends_with(".tmp"), "{names:?}");
        assert!(disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_none());
        // A fresh process's recovery sweep deletes the orphan and
        // leaves real entries alone.
        disk.store(benchmark, fp, &key, &result, &FaultPlan::none())
            .unwrap();
        let fresh = DiskCache::open(&dir);
        assert_eq!(fresh.recover(), 1);
        assert_eq!(std::fs::read_dir(entry_dir).unwrap().count(), 1);
        assert!(fresh
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_some());
        // Recovery on an empty or absent root is a no-op.
        let empty = DiskCache::open(tempdir("torn-empty"));
        assert_eq!(empty.recover(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_store_roundtrips() {
        let dir = tempdir("durable");
        let (benchmark, fp, key, result) = simulate_one();
        let mut disk = DiskCache::open(&dir);
        disk.make_durable();
        disk.store(benchmark, fp, &key, &result, &FaultPlan::none())
            .unwrap();
        let loaded = disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .expect("durable entry persisted");
        assert_eq!(loaded.stats, result.stats);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cpi_lanes_that_overflow_are_misses() {
        let dir = tempdir("cpi-overflow");
        let (benchmark, fp, key, result) = simulate_one();
        let disk = DiskCache::open(&dir);
        disk.store(benchmark, fp, &key, &result, &FaultPlan::none())
            .unwrap();
        let path = disk.entry_path(benchmark, fp, &key);
        let good = std::fs::read_to_string(&path).unwrap();
        // Raise `commit` by 1 and set a zero lane to u64::MAX: summed
        // unchecked, the lanes wrap back to the recorded cycle count.
        let commit = result.stats.cpi.commit_cycles;
        assert_eq!(result.stats.cpi.stall(StallCause::TrueDependence), 0);
        let raised = good.replacen(
            &format!("\"commit\":{commit},"),
            &format!("\"commit\":{},", commit + 1),
            1,
        );
        let crafted = raised.replacen(
            "\"true_dependence\":0,",
            &format!("\"true_dependence\":{},", u64::MAX),
            1,
        );
        assert!(good != raised && raised != crafted, "both edits applied");
        std::fs::write(&path, &crafted).unwrap();
        assert!(disk
            .load(benchmark, fp, &key, &FaultPlan::none())
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record in which every counter is distinct and nonzero and every
    /// histogram holds a sample, so a walk line that lends the wrong
    /// field changes the encoded bytes.
    fn distinct_stats() -> SimStats {
        let hist = |v: u64| {
            let mut h = Histogram::new();
            h.record(v);
            h
        };
        let cache = |n: u64| CacheStats {
            accesses: n,
            misses: n + 1,
            writes: n + 2,
            secondary_merges: n + 3,
            bank_conflict_cycles: n + 4,
            mshr_stall_cycles: n + 5,
        };
        let mut cpi = CpiStack::default();
        cpi.commit_n(100);
        for (n, cause) in (101..).zip(StallCause::ALL) {
            cpi.record_n(cause, n);
        }
        SimStats {
            cycles: cpi.total_cycles(),
            committed: 2,
            committed_loads: 3,
            committed_stores: 4,
            misspeculations: 5,
            squashed: 6,
            reissued: 7,
            false_dep_loads: 8,
            false_dep_cycles: 9,
            true_dep_loads: 10,
            forwarded_loads: 11,
            speculative_loads: 12,
            sync_delayed_loads: 13,
            silent_fixups: 14,
            cpi,
            false_dep_delay: hist(15),
            squash_penalty: hist(16),
            window_occupancy: hist(17),
            forward_distance: hist(18),
            frontend: FrontEndStats {
                branches: 20,
                dir_mispredicts: 21,
                indirects: 22,
                target_mispredicts: 23,
                misfetches: 24,
            },
            mem: MemStats {
                l1i: cache(30),
                l1d: cache(40),
                l2: cache(50),
                main_accesses: 60,
                prefetches: 61,
            },
        }
    }

    #[test]
    fn entry_format_is_pinned() {
        let result = SimResult {
            stats: distinct_stats(),
            policy_name: "NAS/SYNC".to_string(),
            pipetrace: None,
            skipped_cycles: 19,
        };
        let json = encode_result(&result).to_json();
        let pinned = concat!(
            r#"{"policy_name":"NAS/SYNC","skipped_cycles":19,"stats":{"#,
            r#""cycles":936,"committed":2,"committed_loads":3,"committed_stores":4,"#,
            r#""misspeculations":5,"squashed":6,"reissued":7,"false_dep_loads":8,"#,
            r#""false_dep_cycles":9,"true_dep_loads":10,"forwarded_loads":11,"#,
            r#""speculative_loads":12,"sync_delayed_loads":13,"silent_fixups":14,"#,
            r#""cpi":{"commit":100,"empty_window":101,"true_dependence":102,"#,
            r#""false_dependence":103,"sync_delay":104,"scheduler_latency":105,"#,
            r#""squash_recovery":106,"cache_miss":107,"other":108},"#,
            r#""false_dep_delay":{"count":1,"sum":15,"min":15,"max":15,"buckets":[[8,1]]},"#,
            r#""squash_penalty":{"count":1,"sum":16,"min":16,"max":16,"buckets":[[16,1]]},"#,
            r#""window_occupancy":{"count":1,"sum":17,"min":17,"max":17,"buckets":[[16,1]]},"#,
            r#""forward_distance":{"count":1,"sum":18,"min":18,"max":18,"buckets":[[16,1]]},"#,
            r#""frontend":{"branches":20,"dir_mispredicts":21,"indirects":22,"#,
            r#""target_mispredicts":23,"misfetches":24},"#,
            r#""mem":{"l1i":{"accesses":30,"misses":31,"writes":32,"secondary_merges":33,"#,
            r#""bank_conflict_cycles":34,"mshr_stall_cycles":35},"#,
            r#""l1d":{"accesses":40,"misses":41,"writes":42,"secondary_merges":43,"#,
            r#""bank_conflict_cycles":44,"mshr_stall_cycles":45},"#,
            r#""l2":{"accesses":50,"misses":51,"writes":52,"secondary_merges":53,"#,
            r#""bank_conflict_cycles":54,"mshr_stall_cycles":55},"#,
            r#""main_accesses":60,"prefetches":61}}}"#,
        );
        assert_eq!(
            json, pinned,
            "the disk entry format changed: bump CACHE_SCHEMA_VERSION (runner/key.rs), then re-pin"
        );
        let back = decode_result(&Value::parse_json(&json).unwrap()).expect("entry decodes");
        assert_eq!(format!("{back:?}"), format!("{result:?}"));
    }
}
