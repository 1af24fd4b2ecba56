//! Stable fingerprints for simulator configurations.

use mds_core::{BranchPredictorConfig, CoreConfig, Recovery, WindowModel};
use mds_mem::{CacheParams, MainMemoryParams, MemConfig, Replacement};
use mds_predict::{ConfidenceParams, MdptParams, StoreSetParams};
use std::fmt::Write;

/// Version of the durable cache schema: the [`ConfigKey`] rendering
/// *and* the on-disk result encoding
/// ([`disk`](crate::runner::disk)-module entries).
///
/// Bump it whenever either changes meaning — a configuration field is
/// added, removed, or re-interpreted, or a statistic changes semantics
/// — so persisted results from older builds are invalidated instead of
/// being silently served as current. The entry encoding follows the
/// statistics records' [`Fields`](mds_obs::Fields) walks, so also bump
/// it when a walk line is added, removed or reordered. The disk
/// module's `entry_format_is_pinned` test fails on any such change.
///
/// v2: result entries carry `skipped_cycles` (event-driven core), and
/// the per-unit fetch-width split changed timing for configurations
/// whose `fetch_width` does not divide evenly across split-window
/// units.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// A stable fingerprint of a [`CoreConfig`], used to key memoized
/// simulation results by (benchmark, configuration) — including
/// results that persist on disk across builds.
///
/// The rendering is an explicit field-by-field serialization behind a
/// schema-version tag, **not** the `Debug` form: `Debug` output shifts
/// whenever a field is added, renamed, or reordered, which for an
/// on-disk cache would either orphan every stored entry or — worse —
/// serve entries computed under a differently-interpreted
/// configuration as current. Every config struct is exhaustively
/// destructured here, so adding a field without extending the
/// serialization (and bumping [`CACHE_SCHEMA_VERSION`]) is a compile
/// error, and `tests::golden_key_is_pinned` fails on any accidental
/// drift in the rendered form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigKey(String);

impl ConfigKey {
    /// Fingerprints a configuration.
    pub fn of(config: &CoreConfig) -> ConfigKey {
        // Exhaustive: a new `CoreConfig` field fails compilation here
        // until the serialization accounts for it.
        let CoreConfig {
            window_size,
            fetch_width,
            fetch_blocks,
            issue_width,
            commit_width,
            decode_latency,
            fu_copies,
            mem_ports,
            store_buffer,
            lsq_size,
            policy,
            addr_sched_latency,
            squash_latency,
            recovery,
            record_pipeline_trace,
            branch_predictor,
            window_model,
            mem,
            selective,
            store_barrier,
            mdpt,
            store_sets,
        } = config;
        let mut s = format!("cfg-v{CACHE_SCHEMA_VERSION}{{");
        let _ = write!(
            s,
            "window_size={window_size},fetch_width={fetch_width},\
             fetch_blocks={fetch_blocks},issue_width={issue_width},\
             commit_width={commit_width},decode_latency={decode_latency},\
             fu_copies={fu_copies},mem_ports={mem_ports},\
             store_buffer={store_buffer},lsq_size={lsq_size},\
             policy={},addr_sched_latency={addr_sched_latency},\
             squash_latency={squash_latency},recovery={},\
             pipetrace={record_pipeline_trace},branch_predictor={},\
             window_model={},mem={},selective={},store_barrier={},\
             mdpt={},store_sets={}}}",
            policy.paper_name(),
            match recovery {
                Recovery::Squash => "squash",
                Recovery::SelectiveReissue => "selective_reissue",
            },
            render_branch_predictor(branch_predictor),
            render_window_model(window_model),
            render_mem(mem),
            render_confidence(selective),
            render_confidence(store_barrier),
            render_mdpt(mdpt),
            render_store_sets(store_sets),
        );
        ConfigKey(s)
    }

    /// The underlying serialized form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// FNV-1a hash of the serialized form — the content address disk
    /// entries file under (the full string is stored inside each entry
    /// and compared on load, so a hash collision degrades to a miss,
    /// never to a wrong result).
    pub fn fnv1a(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.0.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

fn render_branch_predictor(bp: &BranchPredictorConfig) -> String {
    match bp {
        BranchPredictorConfig::PaperCombined => "paper_combined".to_string(),
        BranchPredictorConfig::Bimodal { entries } => format!("bimodal(entries={entries})"),
        BranchPredictorConfig::Gshare { entries, history } => {
            format!("gshare(entries={entries},history={history})")
        }
        BranchPredictorConfig::Local { entries, history } => {
            format!("local(entries={entries},history={history})")
        }
        BranchPredictorConfig::StaticNotTaken => "static_not_taken".to_string(),
    }
}

fn render_window_model(wm: &WindowModel) -> String {
    match wm {
        WindowModel::Continuous => "continuous".to_string(),
        WindowModel::Split { units, task_size } => {
            format!("split(units={units},task_size={task_size})")
        }
    }
}

fn render_mem(mem: &MemConfig) -> String {
    let MemConfig {
        l1i,
        l1d,
        l2,
        main,
        l2_transfer_per_four_words,
        l1d_next_line_prefetch,
    } = mem;
    let MainMemoryParams {
        base_latency,
        per_four_words,
    } = main;
    format!(
        "{{l1i={},l1d={},l2={},main=(base={base_latency},per4={per_four_words}),\
         l2_transfer={l2_transfer_per_four_words},prefetch={l1d_next_line_prefetch}}}",
        render_cache(l1i),
        render_cache(l1d),
        render_cache(l2),
    )
}

fn render_cache(c: &CacheParams) -> String {
    // `name` is presentation-only (it labels statistics output) and
    // deliberately excluded from the key.
    let CacheParams {
        name: _,
        size_bytes,
        assoc,
        banks,
        block_bytes,
        hit_latency,
        primary_mshrs_per_bank,
        secondary_per_primary,
        replacement,
    } = c;
    format!(
        "(size={size_bytes},assoc={assoc},banks={banks},block={block_bytes},\
         hit={hit_latency},mshrs={primary_mshrs_per_bank},\
         secondary={secondary_per_primary},repl={})",
        match replacement {
            Replacement::Lru => "lru",
            Replacement::Fifo => "fifo",
        }
    )
}

fn render_interval(i: &Option<u64>) -> String {
    match i {
        Some(n) => n.to_string(),
        None => "never".to_string(),
    }
}

fn render_confidence(c: &ConfidenceParams) -> String {
    let ConfidenceParams {
        entries,
        assoc,
        threshold,
        reset_interval,
    } = c;
    format!(
        "(entries={entries},assoc={assoc},threshold={threshold},reset={})",
        render_interval(reset_interval)
    )
}

fn render_mdpt(m: &MdptParams) -> String {
    let MdptParams {
        entries,
        assoc,
        flush_interval,
    } = m;
    format!(
        "(entries={entries},assoc={assoc},flush={})",
        render_interval(flush_interval)
    )
}

fn render_store_sets(s: &StoreSetParams) -> String {
    let StoreSetParams {
        ssit_entries,
        lfst_entries,
        clear_interval,
    } = s;
    format!(
        "(ssit={ssit_entries},lfst={lfst_entries},clear={})",
        render_interval(clear_interval)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_core::Policy;

    #[test]
    fn equal_configs_share_a_key() {
        let a = ConfigKey::of(&CoreConfig::paper_128());
        let b = ConfigKey::of(&CoreConfig::paper_128());
        assert_eq!(a, b);
        assert_eq!(a.fnv1a(), b.fnv1a());
    }

    #[test]
    fn any_field_change_changes_the_key() {
        let base = CoreConfig::paper_128();
        let keys = [
            ConfigKey::of(&base),
            ConfigKey::of(&base.clone().with_policy(Policy::NasOracle)),
            ConfigKey::of(&base.clone().with_window_size(64)),
            ConfigKey::of(&base.clone().with_addr_sched_latency(1)),
            ConfigKey::of(
                &base
                    .clone()
                    .with_recovery(mds_core::Recovery::SelectiveReissue),
            ),
            ConfigKey::of(&base.clone().with_window_model(WindowModel::Split {
                units: 4,
                task_size: 32,
            })),
            ConfigKey::of(&base.clone().with_pipetrace(true)),
            ConfigKey::of(&{
                let mut c = base.clone();
                c.mdpt.flush_interval = None;
                c
            }),
            ConfigKey::of(&{
                let mut c = base.clone();
                c.branch_predictor = BranchPredictorConfig::Gshare {
                    entries: 4096,
                    history: 8,
                };
                c
            }),
            ConfigKey::of(&{
                let mut c = base.clone();
                c.mem.l1d.replacement = Replacement::Fifo;
                c
            }),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// The exact rendering of the paper's default configuration,
    /// pinned. If this fails you changed what the key means for every
    /// persisted cache entry: either revert the accidental drift, or —
    /// if the change is intentional — bump [`CACHE_SCHEMA_VERSION`]
    /// and re-pin this string.
    #[test]
    fn golden_key_is_pinned() {
        let expected = "cfg-v2{window_size=128,fetch_width=8,fetch_blocks=4,\
            issue_width=8,commit_width=8,decode_latency=2,fu_copies=8,mem_ports=4,\
            store_buffer=128,lsq_size=128,policy=NAS/NO,addr_sched_latency=0,\
            squash_latency=1,recovery=squash,pipetrace=false,\
            branch_predictor=paper_combined,window_model=continuous,\
            mem={l1i=(size=65536,assoc=2,banks=8,block=32,hit=2,mshrs=2,secondary=1,repl=lru),\
            l1d=(size=32768,assoc=2,banks=4,block=32,hit=2,mshrs=8,secondary=8,repl=lru),\
            l2=(size=4194304,assoc=2,banks=4,block=128,hit=8,mshrs=4,secondary=3,repl=lru),\
            main=(base=34,per4=2),l2_transfer=1,prefetch=false},\
            selective=(entries=4096,assoc=2,threshold=3,reset=1000000),\
            store_barrier=(entries=4096,assoc=2,threshold=3,reset=1000000),\
            mdpt=(entries=4096,assoc=2,flush=1000000),\
            store_sets=(ssit=16384,lfst=4096,clear=1000000)}";
        assert_eq!(ConfigKey::of(&CoreConfig::paper_128()).as_str(), expected);
    }

    #[test]
    fn key_is_versioned_and_hashable() {
        let key = ConfigKey::of(&CoreConfig::paper_64());
        assert!(key.as_str().starts_with("cfg-v2{"), "{}", key.as_str());
        // FNV-1a of a known string ("" hashes to the offset basis).
        assert_ne!(key.fnv1a(), 0xcbf2_9ce4_8422_2325);
    }
}
