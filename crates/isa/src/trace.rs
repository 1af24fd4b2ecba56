//! Dynamic execution traces produced by the functional interpreter.

use crate::asm::Program;
use crate::inst::Instruction;
use std::sync::Arc;

/// One retired dynamic instruction.
///
/// Records the dynamic facts the timing simulator cannot derive from the
/// static program: the effective address and value of memory operations,
/// the value a store overwrote (used by the value-based mis-speculation
/// filter of `AS/NAV`), and the branch outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Static index of the executed instruction.
    pub sidx: u32,
    /// Effective address, for loads and stores; zero otherwise.
    pub effaddr: u64,
    /// Value loaded (for loads) or stored (for stores), masked to the
    /// access width; zero otherwise.
    pub value: u64,
    /// For stores, the memory content the store overwrote (masked to the
    /// access width); zero otherwise.
    pub old_value: u64,
    /// Access width in bytes for memory operations; zero otherwise.
    pub size: u8,
    /// Whether a control instruction was taken (jumps are always taken).
    pub taken: bool,
}

/// Aggregate dynamic-instruction counts of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Total retired dynamic instructions.
    pub total: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Retired conditional branches.
    pub branches: u64,
    /// Retired taken conditional branches.
    pub taken_branches: u64,
    /// Retired floating-point arithmetic operations.
    pub fp_ops: u64,
}

impl TraceCounts {
    /// Fraction of dynamic instructions that are loads.
    pub fn load_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.loads as f64 / self.total as f64
        }
    }

    /// Fraction of dynamic instructions that are stores.
    pub fn store_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.stores as f64 / self.total as f64
        }
    }
}

/// The correct-path dynamic instruction stream of one program execution.
///
/// Produced by [`Interpreter::run`](crate::Interpreter::run); consumed by
/// the timing core, which replays it under different scheduling policies.
#[derive(Debug, Clone)]
pub struct Trace {
    program: Arc<Program>,
    records: Vec<TraceRecord>,
    counts: TraceCounts,
    completed: bool,
    fingerprint: u64,
}

/// FNV-1a over every record field: a stable identity for the dynamic
/// instruction stream, independent of where the trace lives in memory.
fn fingerprint_of(records: &[TraceRecord]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(PRIME);
    for r in records {
        h = mix(h, r.sidx as u64);
        h = mix(h, r.effaddr);
        h = mix(h, r.value);
        h = mix(h, r.old_value);
        h = mix(h, ((r.size as u64) << 1) | r.taken as u64);
    }
    h
}

impl Trace {
    pub(crate) fn new(program: Arc<Program>, records: Vec<TraceRecord>, completed: bool) -> Trace {
        let mut counts = TraceCounts {
            total: records.len() as u64,
            ..TraceCounts::default()
        };
        for r in &records {
            let inst = program.inst(r.sidx);
            if inst.op.is_load() {
                counts.loads += 1;
            } else if inst.op.is_store() {
                counts.stores += 1;
            } else if inst.op.is_cond_branch() {
                counts.branches += 1;
                if r.taken {
                    counts.taken_branches += 1;
                }
            }
            if inst.op.fu_class().is_fp() {
                counts.fp_ops += 1;
            }
        }
        let fingerprint = fingerprint_of(&records);
        Trace {
            program,
            records,
            counts,
            completed,
            fingerprint,
        }
    }

    /// The program this trace was produced from.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The dynamic instruction records, in program order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The record at dynamic index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn record(&self, i: usize) -> &TraceRecord {
        &self.records[i]
    }

    /// The static instruction executed at dynamic index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn inst(&self, i: usize) -> &Instruction {
        self.program.inst(self.records[i].sidx)
    }

    /// The program counter of the instruction at dynamic index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn pc(&self, i: usize) -> u64 {
        self.program.pc_of(self.records[i].sidx)
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Aggregate dynamic counts.
    pub fn counts(&self) -> &TraceCounts {
        &self.counts
    }

    /// Whether execution reached `halt` (as opposed to the step limit).
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// A stable hash of the dynamic record stream, computed once at
    /// construction. Two traces with the same records share the same
    /// fingerprint; consumers that precompute per-trace structure (e.g.
    /// dependence artifacts) use it to assert they are paired with the
    /// trace they were built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(addr: u64, size: u8) -> TraceRecord {
        TraceRecord {
            sidx: 0,
            effaddr: addr,
            value: 0,
            old_value: 0,
            size,
            taken: false,
        }
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let a = [rec(100, 4), rec(200, 4)];
        let b = [rec(200, 4), rec(100, 4)];
        assert_eq!(fingerprint_of(&a), fingerprint_of(&a));
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b), "order matters");
        assert_ne!(
            fingerprint_of(&a),
            fingerprint_of(&a[..1]),
            "length matters"
        );
    }

    #[test]
    fn fractions_of_empty_counts_are_zero() {
        let c = TraceCounts::default();
        assert_eq!(c.load_fraction(), 0.0);
        assert_eq!(c.store_fraction(), 0.0);
    }
}
