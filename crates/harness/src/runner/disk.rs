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
//! miss, never to a wrong result. Statistics are encoded field by
//! field — exhaustively destructured, so a new counter fails
//! compilation here until the codec carries it — and decoded with the
//! same strictness: corrupted, truncated, or semantically impossible
//! entries (e.g. a CPI stack that does not partition the cycle count)
//! are treated as misses and re-simulated rather than crashing or, far
//! worse, silently skewing every downstream table.
//!
//! Entries are written with [`emit::write_atomic`], so concurrent
//! writers of the same entry (two `reproduce` processes, the daemon
//! plus a CI run) each stage a complete private file and the
//! destination only ever flips between complete encodings.

use crate::emit;
use crate::faults::{injected_io_error, FaultPlan, FaultSite};
use crate::runner::key::{ConfigKey, CACHE_SCHEMA_VERSION};
use mds_core::{SimResult, SimStats};
use mds_frontend::FrontEndStats;
use mds_mem::{CacheStats, MemStats};
use mds_obs::{CpiStack, Histogram, StallCause};
use mds_workloads::Benchmark;
use serde::Value;
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
        ("stats".to_string(), encode_stats(stats)),
    ])
}

fn decode_result(v: &Value) -> Option<SimResult> {
    Some(SimResult {
        policy_name: v.get("policy_name")?.as_str()?.to_string(),
        stats: decode_stats(v.get("stats")?)?,
        pipetrace: None,
        skipped_cycles: u(v, "skipped_cycles")?,
    })
}

fn encode_stats(stats: &SimStats) -> Value {
    // Exhaustive: a new statistic fails compilation here until the
    // codec (and CACHE_SCHEMA_VERSION) account for it.
    let SimStats {
        cycles,
        committed,
        committed_loads,
        committed_stores,
        misspeculations,
        squashed,
        reissued,
        false_dep_loads,
        false_dep_cycles,
        true_dep_loads,
        forwarded_loads,
        speculative_loads,
        sync_delayed_loads,
        silent_fixups,
        cpi,
        false_dep_delay,
        squash_penalty,
        window_occupancy,
        forward_distance,
        frontend,
        mem,
    } = stats;
    Value::Object(vec![
        ("cycles".to_string(), Value::UInt(*cycles)),
        ("committed".to_string(), Value::UInt(*committed)),
        ("committed_loads".to_string(), Value::UInt(*committed_loads)),
        (
            "committed_stores".to_string(),
            Value::UInt(*committed_stores),
        ),
        ("misspeculations".to_string(), Value::UInt(*misspeculations)),
        ("squashed".to_string(), Value::UInt(*squashed)),
        ("reissued".to_string(), Value::UInt(*reissued)),
        ("false_dep_loads".to_string(), Value::UInt(*false_dep_loads)),
        (
            "false_dep_cycles".to_string(),
            Value::UInt(*false_dep_cycles),
        ),
        ("true_dep_loads".to_string(), Value::UInt(*true_dep_loads)),
        ("forwarded_loads".to_string(), Value::UInt(*forwarded_loads)),
        (
            "speculative_loads".to_string(),
            Value::UInt(*speculative_loads),
        ),
        (
            "sync_delayed_loads".to_string(),
            Value::UInt(*sync_delayed_loads),
        ),
        ("silent_fixups".to_string(), Value::UInt(*silent_fixups)),
        ("cpi".to_string(), encode_cpi(cpi)),
        ("false_dep_delay".to_string(), encode_hist(false_dep_delay)),
        ("squash_penalty".to_string(), encode_hist(squash_penalty)),
        (
            "window_occupancy".to_string(),
            encode_hist(window_occupancy),
        ),
        (
            "forward_distance".to_string(),
            encode_hist(forward_distance),
        ),
        ("frontend".to_string(), encode_frontend(frontend)),
        ("mem".to_string(), encode_mem(mem)),
    ])
}

fn decode_stats(v: &Value) -> Option<SimStats> {
    let stats = SimStats {
        cycles: u(v, "cycles")?,
        committed: u(v, "committed")?,
        committed_loads: u(v, "committed_loads")?,
        committed_stores: u(v, "committed_stores")?,
        misspeculations: u(v, "misspeculations")?,
        squashed: u(v, "squashed")?,
        reissued: u(v, "reissued")?,
        false_dep_loads: u(v, "false_dep_loads")?,
        false_dep_cycles: u(v, "false_dep_cycles")?,
        true_dep_loads: u(v, "true_dep_loads")?,
        forwarded_loads: u(v, "forwarded_loads")?,
        speculative_loads: u(v, "speculative_loads")?,
        sync_delayed_loads: u(v, "sync_delayed_loads")?,
        silent_fixups: u(v, "silent_fixups")?,
        cpi: decode_cpi(v.get("cpi")?)?,
        false_dep_delay: decode_hist(v.get("false_dep_delay")?)?,
        squash_penalty: decode_hist(v.get("squash_penalty")?)?,
        window_occupancy: decode_hist(v.get("window_occupancy")?)?,
        forward_distance: decode_hist(v.get("forward_distance")?)?,
        frontend: decode_frontend(v.get("frontend")?)?,
        mem: decode_mem(v.get("mem")?)?,
    };
    // The partition invariant every live simulation upholds must also
    // hold for anything claiming to be one.
    (stats.cpi.total_cycles() == stats.cycles).then_some(stats)
}

fn encode_cpi(cpi: &CpiStack) -> Value {
    let mut fields = Vec::with_capacity(9);
    cpi.visit(&mut |key, cycles| fields.push((key.to_string(), Value::UInt(cycles))));
    Value::Object(fields)
}

fn decode_cpi(v: &Value) -> Option<CpiStack> {
    let mut cpi = CpiStack::default();
    cpi.commit_n(u(v, "commit")?);
    for cause in StallCause::ALL {
        cpi.record_n(cause, u(v, cause.key())?);
    }
    Some(cpi)
}

fn encode_hist(h: &Histogram) -> Value {
    let buckets: Vec<Value> = h
        .nonzero_buckets()
        .map(|(lo, _, n)| Value::Array(vec![Value::UInt(lo), Value::UInt(n)]))
        .collect();
    Value::Object(vec![
        ("count".to_string(), Value::UInt(h.count())),
        ("sum".to_string(), Value::UInt(h.sum())),
        ("min".to_string(), opt_u(h.min())),
        ("max".to_string(), opt_u(h.max())),
        ("buckets".to_string(), Value::Array(buckets)),
    ])
}

fn decode_hist(v: &Value) -> Option<Histogram> {
    let mut buckets = Vec::new();
    for pair in v.get("buckets")?.as_array()? {
        let pair = pair.as_array()?;
        if pair.len() != 2 {
            return None;
        }
        buckets.push((pair[0].as_u64()?, pair[1].as_u64()?));
    }
    Histogram::from_parts(
        u(v, "count")?,
        u(v, "sum")?,
        v.get("min")?.as_u64(),
        v.get("max")?.as_u64(),
        &buckets,
    )
}

fn encode_frontend(f: &FrontEndStats) -> Value {
    let FrontEndStats {
        branches,
        dir_mispredicts,
        indirects,
        target_mispredicts,
        misfetches,
    } = f;
    Value::Object(vec![
        ("branches".to_string(), Value::UInt(*branches)),
        ("dir_mispredicts".to_string(), Value::UInt(*dir_mispredicts)),
        ("indirects".to_string(), Value::UInt(*indirects)),
        (
            "target_mispredicts".to_string(),
            Value::UInt(*target_mispredicts),
        ),
        ("misfetches".to_string(), Value::UInt(*misfetches)),
    ])
}

fn decode_frontend(v: &Value) -> Option<FrontEndStats> {
    Some(FrontEndStats {
        branches: u(v, "branches")?,
        dir_mispredicts: u(v, "dir_mispredicts")?,
        indirects: u(v, "indirects")?,
        target_mispredicts: u(v, "target_mispredicts")?,
        misfetches: u(v, "misfetches")?,
    })
}

fn encode_mem(m: &MemStats) -> Value {
    let MemStats {
        l1i,
        l1d,
        l2,
        main_accesses,
        prefetches,
    } = m;
    Value::Object(vec![
        ("l1i".to_string(), encode_cache_stats(l1i)),
        ("l1d".to_string(), encode_cache_stats(l1d)),
        ("l2".to_string(), encode_cache_stats(l2)),
        ("main_accesses".to_string(), Value::UInt(*main_accesses)),
        ("prefetches".to_string(), Value::UInt(*prefetches)),
    ])
}

fn decode_mem(v: &Value) -> Option<MemStats> {
    Some(MemStats {
        l1i: decode_cache_stats(v.get("l1i")?)?,
        l1d: decode_cache_stats(v.get("l1d")?)?,
        l2: decode_cache_stats(v.get("l2")?)?,
        main_accesses: u(v, "main_accesses")?,
        prefetches: u(v, "prefetches")?,
    })
}

fn encode_cache_stats(c: &CacheStats) -> Value {
    let CacheStats {
        accesses,
        misses,
        writes,
        secondary_merges,
        bank_conflict_cycles,
        mshr_stall_cycles,
    } = c;
    Value::Object(vec![
        ("accesses".to_string(), Value::UInt(*accesses)),
        ("misses".to_string(), Value::UInt(*misses)),
        ("writes".to_string(), Value::UInt(*writes)),
        (
            "secondary_merges".to_string(),
            Value::UInt(*secondary_merges),
        ),
        (
            "bank_conflict_cycles".to_string(),
            Value::UInt(*bank_conflict_cycles),
        ),
        (
            "mshr_stall_cycles".to_string(),
            Value::UInt(*mshr_stall_cycles),
        ),
    ])
}

fn decode_cache_stats(v: &Value) -> Option<CacheStats> {
    Some(CacheStats {
        accesses: u(v, "accesses")?,
        misses: u(v, "misses")?,
        writes: u(v, "writes")?,
        secondary_merges: u(v, "secondary_merges")?,
        bank_conflict_cycles: u(v, "bank_conflict_cycles")?,
        mshr_stall_cycles: u(v, "mshr_stall_cycles")?,
    })
}

fn u(v: &Value, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn opt_u(v: Option<u64>) -> Value {
    match v {
        Some(n) => Value::UInt(n),
        None => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_core::{CoreConfig, Policy, Simulator};
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
}
