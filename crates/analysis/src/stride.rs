//! Per-static-instruction address stride statistics.
//!
//! Classifies each static load/store by its dynamic address behaviour —
//! constant, strided, or irregular — the access-pattern taxonomy that
//! underlies cache behaviour and the feasibility of address prediction.

use mds_isa::Trace;
use std::collections::HashMap;

/// Address behaviour of one static memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressPattern {
    /// Always the same address.
    Constant,
    /// A single dominant stride (covers ≥ 90% of deltas).
    Strided(i64),
    /// No dominant stride.
    Irregular,
}

/// Stride summary of one static memory instruction.
#[derive(Debug, Clone)]
pub struct InstStride {
    /// Static instruction index.
    pub sidx: u32,
    /// Dynamic executions.
    pub count: u64,
    /// Classified pattern.
    pub pattern: AddressPattern,
}

/// Per-instruction stride statistics for a trace.
#[derive(Debug, Clone)]
pub struct StrideProfile {
    /// Loads and stores, sorted by descending dynamic count.
    pub insts: Vec<InstStride>,
}

impl StrideProfile {
    /// Builds the profile.
    pub fn build(trace: &Trace) -> StrideProfile {
        struct Acc {
            count: u64,
            last: u64,
            deltas: HashMap<i64, u64>,
        }
        let mut accs: HashMap<u32, Acc> = HashMap::new();
        for rec in trace.records() {
            if rec.size == 0 {
                continue;
            }
            let acc = accs.entry(rec.sidx).or_insert(Acc {
                count: 0,
                last: rec.effaddr,
                deltas: HashMap::new(),
            });
            if acc.count > 0 {
                let d = rec.effaddr.wrapping_sub(acc.last) as i64;
                *acc.deltas.entry(d).or_insert(0) += 1;
            }
            acc.last = rec.effaddr;
            acc.count += 1;
        }
        let mut insts: Vec<InstStride> = accs
            .into_iter()
            .map(|(sidx, acc)| {
                let pattern = if acc.deltas.is_empty()
                    || acc.deltas.len() == 1 && acc.deltas.contains_key(&0)
                {
                    AddressPattern::Constant
                } else {
                    let total: u64 = acc.deltas.values().sum();
                    let (&best, &n) = acc
                        .deltas
                        .iter()
                        .max_by_key(|(_, &n)| n)
                        .expect("non-empty");
                    if best != 0 && n as f64 / total as f64 >= 0.9 {
                        AddressPattern::Strided(best)
                    } else if acc.deltas.keys().all(|&d| d == 0) {
                        AddressPattern::Constant
                    } else {
                        AddressPattern::Irregular
                    }
                };
                InstStride {
                    sidx,
                    count: acc.count,
                    pattern,
                }
            })
            .collect();
        insts.sort_by_key(|i| std::cmp::Reverse(i.count));
        StrideProfile { insts }
    }

    /// Fractions of dynamic memory accesses that are
    /// `(constant, strided, irregular)`.
    pub fn mix(&self) -> (f64, f64, f64) {
        let total: u64 = self.insts.iter().map(|i| i.count).sum();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let mut c = 0u64;
        let mut s = 0u64;
        let mut x = 0u64;
        for i in &self.insts {
            match i.pattern {
                AddressPattern::Constant => c += i.count,
                AddressPattern::Strided(_) => s += i.count,
                AddressPattern::Irregular => x += i.count,
            }
        }
        let t = total as f64;
        (c as f64 / t, s as f64 / t, x as f64 / t)
    }

    /// Renders the access-pattern mix and the hottest instructions.
    pub fn render(&self, top: usize) -> String {
        let (c, s, x) = self.mix();
        let mut out = format!(
            "access patterns: constant {:.1}%  strided {:.1}%  irregular {:.1}%\n",
            100.0 * c,
            100.0 * s,
            100.0 * x
        );
        for i in self.insts.iter().take(top) {
            out.push_str(&format!(
                "  inst {:>6}  x{:<8} {:?}\n",
                i.sidx, i.count, i.pattern
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_isa::{Asm, Interpreter, Reg};

    fn r(n: u8) -> Reg {
        Reg::int(n)
    }

    #[test]
    fn classifies_constant_strided_and_irregular() {
        let mut a = Asm::new();
        let arr = a.alloc_data(8192, 8);
        let chase = a.alloc_data(64, 8);
        // A 4-node pointer ring with irregular jumps.
        let order = [2u64, 0, 3, 1];
        for w in 0..4usize {
            a.init_u32(
                chase + 16 * order[w],
                (chase + 16 * order[(w + 1) % 4]) as u32,
            );
        }
        a.li(r(1), arr as i64);
        a.li(r(2), chase as i64);
        a.li(r(3), 0);
        a.li(r(9), 40);
        let top = a.label();
        a.bind(top);
        a.lw(r(4), r(1), 0); // constant address
        a.add(r(5), r(1), r(3));
        a.lw(r(6), r(5), 64); // strided (stride 16)
        a.lw(r(2), r(2), 0); // pointer chase (irregular)
        a.addi(r(3), r(3), 16);
        a.addi(r(9), r(9), -1);
        a.bgtz(r(9), top);
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap()).run(10_000).unwrap();
        let p = StrideProfile::build(&t);
        let by_pattern =
            |want: fn(&AddressPattern) -> bool| p.insts.iter().filter(|i| want(&i.pattern)).count();
        assert!(by_pattern(|p| matches!(p, AddressPattern::Constant)) >= 1);
        assert!(p
            .insts
            .iter()
            .any(|i| matches!(i.pattern, AddressPattern::Strided(16))));
        assert!(by_pattern(|p| matches!(p, AddressPattern::Irregular)) >= 1);
        let (c, s, x) = p.mix();
        assert!((c + s + x - 1.0).abs() < 1e-9);
        assert!(p.render(5).contains("access patterns"));
    }

    #[test]
    fn empty_trace_mix_is_zero() {
        let mut a = Asm::new();
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap()).run(10).unwrap();
        let p = StrideProfile::build(&t);
        assert_eq!(p.mix(), (0.0, 0.0, 0.0));
    }
}
