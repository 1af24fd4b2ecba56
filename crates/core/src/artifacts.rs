//! Trace-derived simulation artifacts, built once per trace and shared
//! immutably across every configuration that replays it.
//!
//! A policy sweep replays the *same* functional trace under tens of
//! configurations. Everything in this module depends only on the trace
//! — oracle memory dependences, register dependence edges, per-op
//! classification — so rebuilding it per [`Machine`](crate::sim) is
//! pure waste. [`TraceArtifacts::build`] computes the bundle once;
//! callers pass a shared reference to
//! [`Simulator::run_with_artifacts`](crate::Simulator::run_with_artifacts),
//! and the harness keeps one bundle next to each suite trace, read by
//! every worker thread.
//!
//! The bundle is immutable after construction: simulation never writes
//! to it, which is what makes lock-free sharing across work-stealing
//! threads sound.

use crate::oracle::OracleDeps;
use crate::window::RegDeps;
use mds_isa::{FuClass, Trace};

/// Cached classification of one dynamic instruction — the fields the
/// per-cycle stages would otherwise re-derive through two levels of
/// indirection (`records[i].sidx` → `program.inst`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpMeta {
    /// The op reads memory.
    pub is_load: bool,
    /// The op writes memory.
    pub is_store: bool,
    /// `is_load || is_store`.
    pub is_mem: bool,
    /// The op is a control transfer (branch or jump).
    pub is_ctrl: bool,
    /// Functional-unit pool the op issues to.
    pub fu_class: FuClass,
    /// Execution latency in cycles.
    pub latency: u64,
}

/// The immutable, configuration-independent structure of one trace:
/// oracle memory dependences, register dependence edges, and per-op
/// classification.
///
/// Build it once per trace and share it across configurations:
///
/// ```
/// use mds_core::{CoreConfig, Policy, Simulator, TraceArtifacts};
/// use mds_isa::{Asm, Interpreter, Reg};
///
/// let mut a = Asm::new();
/// a.li(Reg::int(1), 3);
/// a.addi(Reg::int(1), Reg::int(1), -1);
/// a.halt();
/// let trace = Interpreter::new(a.assemble()?).run(100)?;
///
/// let artifacts = TraceArtifacts::build(&trace);
/// for policy in [Policy::NasNo, Policy::NasNaive] {
///     let sim = Simulator::new(CoreConfig::paper_128().with_policy(policy));
///     let result = sim.run_with_artifacts(&trace, &artifacts);
///     assert_eq!(result.stats.committed, trace.len() as u64);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TraceArtifacts {
    fingerprint: u64,
    len: usize,
    pub(crate) oracle: OracleDeps,
    pub(crate) regdeps: RegDeps,
    pub(crate) ops: Vec<OpMeta>,
}

impl TraceArtifacts {
    /// Builds the artifact bundle for `trace`.
    pub fn build(trace: &Trace) -> TraceArtifacts {
        let ops = (0..trace.len())
            .map(|i| {
                let op = trace.inst(i).op;
                OpMeta {
                    is_load: op.is_load(),
                    is_store: op.is_store(),
                    is_mem: op.is_mem(),
                    is_ctrl: op.is_ctrl(),
                    fu_class: op.fu_class(),
                    latency: op.latency(),
                }
            })
            .collect();
        TraceArtifacts {
            fingerprint: trace.fingerprint(),
            len: trace.len(),
            oracle: OracleDeps::build(trace),
            regdeps: RegDeps::build(trace),
            ops,
        }
    }

    /// Fingerprint of the trace this bundle was built from (see
    /// [`Trace::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of dynamic instructions in the source trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the source trace was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oracle memory dependence information.
    pub fn oracle(&self) -> &OracleDeps {
        &self.oracle
    }

    /// Asserts that this bundle was built from `trace`.
    ///
    /// # Panics
    ///
    /// Panics when the trace's length or fingerprint disagrees with the
    /// one the bundle was built from.
    pub fn assert_matches(&self, trace: &Trace) {
        assert_eq!(
            (self.len, self.fingerprint),
            (trace.len(), trace.fingerprint()),
            "TraceArtifacts used with a trace they were not built from"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_isa::{Asm, Interpreter, Reg};

    fn tiny_trace(seed: i64) -> Trace {
        let mut a = Asm::new();
        let base = a.alloc_data(64, 8);
        let r = Reg::int;
        a.li(r(1), base as i64);
        a.li(r(2), seed);
        a.sw(r(2), r(1), 0);
        a.lw(r(3), r(1), 0);
        a.add(r(4), r(3), r(2));
        a.halt();
        Interpreter::new(a.assemble().unwrap()).run(100).unwrap()
    }

    #[test]
    fn classification_matches_the_trace() {
        let t = tiny_trace(7);
        let arts = TraceArtifacts::build(&t);
        assert_eq!(arts.len(), t.len());
        for i in 0..t.len() {
            let op = t.inst(i).op;
            assert_eq!(arts.ops[i].is_load, op.is_load(), "op {i}");
            assert_eq!(arts.ops[i].is_store, op.is_store(), "op {i}");
            assert_eq!(arts.ops[i].is_mem, op.is_mem(), "op {i}");
            assert_eq!(arts.ops[i].is_ctrl, op.is_ctrl(), "op {i}");
            assert_eq!(arts.ops[i].fu_class, op.fu_class(), "op {i}");
            assert_eq!(arts.ops[i].latency, op.latency(), "op {i}");
        }
    }

    #[test]
    fn matching_trace_passes_the_pairing_check() {
        let t = tiny_trace(7);
        TraceArtifacts::build(&t).assert_matches(&t);
    }

    #[test]
    #[should_panic(expected = "not built from")]
    fn mismatched_trace_fails_the_pairing_check() {
        let arts = TraceArtifacts::build(&tiny_trace(7));
        arts.assert_matches(&tiny_trace(8));
    }
}
