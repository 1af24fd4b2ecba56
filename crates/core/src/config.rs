//! Core configuration: the `A/B` policy space of the paper plus the
//! machine parameters of Table 2.

use mds_mem::MemConfig;
use mds_predict::{ConfidenceParams, MdptParams, StoreSetParams};

/// A load/store scheduling policy — the paper's `A/B` naming, where `A`
/// says whether an address-based scheduler is used (`AS`) or not (`NAS`)
/// and `B` names the memory dependence speculation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// `NAS/NO` — no speculation: a load waits until every preceding
    /// store has executed.
    NasNo,
    /// `NAS/NAV` — naive speculation: loads access memory as soon as
    /// their address operands are available; stores detect violations.
    NasNaive,
    /// `NAS/SEL` — selective speculation: predicted-dependent loads wait
    /// for all preceding stores; others speculate naively.
    NasSelective,
    /// `NAS/STORE` — store barrier: loads wait for predicted-dependent
    /// preceding stores to execute; otherwise speculate naively.
    NasStoreBarrier,
    /// `NAS/SYNC` — speculation/synchronization through the MDPT: a
    /// predicted load waits on the closest preceding store with the same
    /// synonym and may issue one cycle after that store issues.
    NasSync,
    /// Store-set synchronization (Chrysos & Emer) — an extension used by
    /// the `store_sets` ablation, not one of the paper's five policies.
    NasStoreSets,
    /// `NAS/ORACLE` — perfect, a-priori dependence knowledge: a load
    /// waits exactly for the stores that actually feed it.
    NasOracle,
    /// `AS/NO` — address-based scheduler, no speculation: a load waits
    /// until all preceding stores have *posted addresses* and every
    /// overlapping one has executed.
    AsNo,
    /// `AS/NAV` — address-based scheduler with naive speculation:
    /// unposted store addresses are ignored; posted overlapping stores
    /// are always respected.
    AsNaive,
}

impl Policy {
    /// All policies evaluated in the paper, in presentation order.
    pub const ALL: [Policy; 8] = [
        Policy::NasNo,
        Policy::NasNaive,
        Policy::NasSelective,
        Policy::NasStoreBarrier,
        Policy::NasSync,
        Policy::NasOracle,
        Policy::AsNo,
        Policy::AsNaive,
    ];

    /// Whether the policy uses the address-based scheduler.
    pub fn uses_address_scheduler(self) -> bool {
        matches!(self, Policy::AsNo | Policy::AsNaive)
    }

    /// The paper's name for this configuration, e.g. `NAS/SYNC`.
    pub fn paper_name(self) -> &'static str {
        match self {
            Policy::NasNo => "NAS/NO",
            Policy::NasNaive => "NAS/NAV",
            Policy::NasSelective => "NAS/SEL",
            Policy::NasStoreBarrier => "NAS/STORE",
            Policy::NasSync => "NAS/SYNC",
            Policy::NasStoreSets => "NAS/SSET",
            Policy::NasOracle => "NAS/ORACLE",
            Policy::AsNo => "AS/NO",
            Policy::AsNaive => "AS/NAV",
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Front-end direction predictor selection (the paper fixes the 64K
/// McFarling combined predictor; alternatives exist for the
/// branch-predictor ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchPredictorConfig {
    /// The paper's 64K combined predictor (Table 2).
    PaperCombined,
    /// Bimodal with the given number of entries (power of two).
    Bimodal {
        /// Table entries.
        entries: usize,
    },
    /// Gshare with the given geometry.
    Gshare {
        /// Table entries (power of two).
        entries: usize,
        /// Global history bits.
        history: u32,
    },
    /// Two-level local-history predictor.
    Local {
        /// Per-branch history registers (power of two).
        entries: usize,
        /// Local history bits (also sizes the pattern table).
        history: u32,
    },
    /// Static not-taken.
    StaticNotTaken,
}

/// Mis-speculation recovery model (Section 2).
///
/// The paper evaluates squash invalidation (the hardware mechanism of
/// the day) and discusses *selective invalidation* — re-executing only
/// the instructions that used erroneous data — as the idealized
/// alternative whose benefit its Section 3.4 results bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Squash invalidation: invalidate and re-fetch the violated load
    /// and every younger instruction.
    Squash,
    /// Selective invalidation: keep the window intact and re-issue only
    /// the violated load and its transitive dependents.
    SelectiveReissue,
}

/// Window organization (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowModel {
    /// Centralized, continuous window: in-order insertion, program-order
    /// issue priority (the paper's focus).
    Continuous,
    /// Distributed, split window: the window is divided over `units`
    /// sub-windows; contiguous tasks of `task_size` dynamic instructions
    /// are assigned to units round-robin, and each unit fetches its task
    /// independently (the model of Section 3.7).
    Split {
        /// Number of processing units (sub-windows).
        units: u32,
        /// Task length in dynamic instructions.
        task_size: u32,
    },
}

/// Complete configuration of the out-of-order core.
///
/// Defaults reproduce the paper's 128-entry continuous-window machine
/// (Table 2); [`CoreConfig::paper_64`] is the reduced 64-entry machine of
/// Figure 1.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Reorder-buffer / instruction-window entries.
    pub window_size: usize,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Maximum non-contiguous blocks combined per fetch cycle.
    pub fetch_blocks: usize,
    /// Operations issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Cycles from fetch delivery to reorder-buffer entry (Table 2's
    /// "combined 4 cycles" minus the 2-cycle I-cache hit).
    pub decode_latency: u64,
    /// Copies of each functional unit class (all fully pipelined).
    pub fu_copies: usize,
    /// Data-memory ports.
    pub mem_ports: usize,
    /// Store-buffer entries.
    pub store_buffer: usize,
    /// Combined load/store queue entries (Table 2: 128): in-flight
    /// memory operations beyond this stall dispatch.
    pub lsq_size: usize,
    /// The load/store scheduling policy.
    pub policy: Policy,
    /// Latency through the address-based scheduler (0–2 in Figure 3),
    /// added to store address posting and to load memory access.
    pub addr_sched_latency: u64,
    /// Extra cycles to perform a squash invalidation.
    pub squash_latency: u64,
    /// Mis-speculation recovery model.
    pub recovery: Recovery,
    /// Record a cycle-by-cycle pipeline trace (returned in the
    /// [`SimResult`](crate::SimResult); costs memory, off by default).
    pub record_pipeline_trace: bool,
    /// Branch direction predictor.
    pub branch_predictor: BranchPredictorConfig,
    /// Window organization.
    pub window_model: WindowModel,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Selective-predictor parameters (`NAS/SEL`).
    pub selective: ConfidenceParams,
    /// Store-barrier-predictor parameters (`NAS/STORE`).
    pub store_barrier: ConfidenceParams,
    /// MDPT parameters (`NAS/SYNC`).
    pub mdpt: MdptParams,
    /// Store-set parameters (`NAS/SSET` extension).
    pub store_sets: StoreSetParams,
}

impl CoreConfig {
    /// The paper's default 128-entry configuration (Table 2): 8-wide
    /// fetch/issue/commit, 8 copies of every functional unit, 4 memory
    /// ports, 128-entry store buffer.
    pub fn paper_128() -> CoreConfig {
        CoreConfig {
            window_size: 128,
            fetch_width: 8,
            fetch_blocks: 4,
            issue_width: 8,
            commit_width: 8,
            decode_latency: 2,
            fu_copies: 8,
            mem_ports: 4,
            store_buffer: 128,
            lsq_size: 128,
            policy: Policy::NasNo,
            addr_sched_latency: 0,
            squash_latency: 1,
            recovery: Recovery::Squash,
            record_pipeline_trace: false,
            branch_predictor: BranchPredictorConfig::PaperCombined,
            window_model: WindowModel::Continuous,
            mem: MemConfig::paper(),
            selective: ConfidenceParams::paper(),
            store_barrier: ConfidenceParams::paper(),
            mdpt: MdptParams::paper(),
            store_sets: StoreSetParams::reference(),
        }
    }

    /// The paper's 64-entry configuration: derived from Table 2 "by
    /// reducing issue width to 4, load/store ports to 2, and all
    /// functional units to 2" (Section 3.2).
    pub fn paper_64() -> CoreConfig {
        CoreConfig {
            window_size: 64,
            issue_width: 4,
            commit_width: 4,
            fu_copies: 2,
            mem_ports: 2,
            store_buffer: 64,
            lsq_size: 64,
            ..CoreConfig::paper_128()
        }
    }

    /// Returns the configuration with the given policy.
    pub fn with_policy(mut self, policy: Policy) -> CoreConfig {
        self.policy = policy;
        self
    }

    /// Returns the configuration with the given address-scheduler latency.
    pub fn with_addr_sched_latency(mut self, latency: u64) -> CoreConfig {
        self.addr_sched_latency = latency;
        self
    }

    /// Returns the configuration with the given window model.
    pub fn with_window_model(mut self, model: WindowModel) -> CoreConfig {
        self.window_model = model;
        self
    }

    /// Returns the configuration with the given memory system.
    pub fn with_mem(mut self, mem: MemConfig) -> CoreConfig {
        self.mem = mem;
        self
    }

    /// Returns the configuration with the given window size (entries).
    pub fn with_window_size(mut self, entries: usize) -> CoreConfig {
        self.window_size = entries;
        self
    }

    /// Returns the configuration with the given recovery model.
    pub fn with_recovery(mut self, recovery: Recovery) -> CoreConfig {
        self.recovery = recovery;
        self
    }

    /// Returns the configuration with pipeline-trace recording set.
    pub fn with_pipetrace(mut self, record: bool) -> CoreConfig {
        self.record_pipeline_trace = record;
        self
    }

    /// Number of units the window is split over (1 for continuous).
    pub fn units(&self) -> u32 {
        match self.window_model {
            WindowModel::Continuous => 1,
            WindowModel::Split { units, .. } => units,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::paper_128()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_128_matches_table2() {
        let c = CoreConfig::paper_128();
        assert_eq!(c.window_size, 128);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.mem_ports, 4);
        assert_eq!(c.fu_copies, 8);
        assert_eq!(c.store_buffer, 128);
        // Fetch-to-ROB: 2 (I-cache hit) + 2 (decode) = 4 cycles.
        assert_eq!(c.mem.l1i.hit_latency + c.decode_latency, 4);
    }

    #[test]
    fn paper_64_reductions() {
        let c = CoreConfig::paper_64();
        assert_eq!(c.window_size, 64);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.mem_ports, 2);
        assert_eq!(c.fu_copies, 2);
    }

    #[test]
    fn builders_compose() {
        let c = CoreConfig::paper_128()
            .with_policy(Policy::AsNaive)
            .with_addr_sched_latency(2)
            .with_window_model(WindowModel::Split {
                units: 4,
                task_size: 32,
            });
        assert_eq!(c.policy, Policy::AsNaive);
        assert_eq!(c.addr_sched_latency, 2);
        assert_eq!(c.units(), 4);
    }

    #[test]
    fn recovery_defaults_to_squash() {
        let c = CoreConfig::paper_128();
        assert_eq!(c.recovery, Recovery::Squash);
        let c = c.with_recovery(Recovery::SelectiveReissue);
        assert_eq!(c.recovery, Recovery::SelectiveReissue);
    }

    #[test]
    fn policy_names_match_paper() {
        assert_eq!(Policy::NasNaive.to_string(), "NAS/NAV");
        assert_eq!(Policy::AsNo.to_string(), "AS/NO");
        assert_eq!(Policy::NasOracle.to_string(), "NAS/ORACLE");
        assert!(Policy::AsNaive.uses_address_scheduler());
        assert!(!Policy::NasSync.uses_address_scheduler());
    }
}
