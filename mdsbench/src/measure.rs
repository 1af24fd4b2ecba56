//! Measurement plumbing: order statistics, process counters read from
//! `/proc`, the host record, digests, a seeded generator, and the
//! in-memory span recorder of the traced run.

use mds_harness::TraceSink;
use mds_obs::{ActiveSpan, SpanRecord, Spans};
use serde::Value;
use std::cell::RefCell;
use std::path::Path;

/// One measured value, with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `0..=1`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method) computes them, so spreads printed here match the ones the
/// bounds were calibrated against. A single sample is its own quartile.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// FNV-1a, 64-bit: the digest pinned for each workload's outputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the seeded source of every random choice the benchmark
/// makes (request schedules, Zipf rankings, sampled pairs).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which Linux
/// fixes at 100 on every architecture for user-space ABI stability.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of a process, all its threads included
/// (exited ones too), from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed {path}"))
    };
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// What the numbers were measured on: cores, CPU, cache sizes,
/// compiler, and source revision.
pub fn host_record() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cache = |level: &str| -> String {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
                (read("level")?.trim() == level && read("type")?.trim() != "Instruction")
                    .then(|| read("size"))
                    .flatten()
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string())
    };
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("cpu".into(), Value::Str(cpu)),
        ("l2".into(), Value::Str(cache("2"))),
        ("l3".into(), Value::Str(cache("3"))),
        ("rustc".into(), Value::Str(rustc)),
        (
            "revision".into(),
            Value::Str(git_revision(Path::new(".git"))),
        ),
    ])
}

/// The checked-out commit, read from the `.git` directory without
/// running git ("unknown" outside a git checkout).
fn git_revision(git: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Spans of the traced run, kept in memory and written when the run
/// ends. Spans open and close on the main thread only, so the open
/// spans form a stack and each new span's parent is its top.
pub struct Tracer {
    spans: Spans,
    open: RefCell<Vec<ActiveSpan>>,
    done: RefCell<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            spans: Spans::new(),
            open: RefCell::new(Vec::new()),
            done: RefCell::new(Vec::new()),
        }
    }

    pub fn enter(&self, name: &str) {
        let parent = self.open.borrow().last().map(ActiveSpan::id);
        let span = self.spans.enter(name, parent);
        self.open.borrow_mut().push(span);
    }

    pub fn exit(&self) {
        let span = self.open.borrow_mut().pop().expect("exit matches an enter");
        self.done.borrow_mut().push(span.finish());
    }

    /// Attaches a count to the innermost open span.
    pub fn note(&self, key: &str, value: u64) {
        if let Some(span) = self.open.borrow_mut().last_mut() {
            span.add_field(key, Value::UInt(value));
        }
    }

    /// Every finished span, in start order.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut records = self.done.borrow().clone();
        records.sort_by_key(|r| (r.start_ns, r.id));
        records
    }

    /// Writes the spans as `{"event":"span",...}` JSONL lines, the
    /// record shape the harness's own traces use.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let sink = TraceSink::create(path, 0)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        for record in self.records() {
            sink.emit_span(&record)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        sink.flush()
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover, summed by name, in first-seen
/// order.
pub fn self_times(records: &[SpanRecord]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for r in records {
        let (start, end) = (r.start_ns, r.start_ns + r.duration_ns);
        let mut children: Vec<(u64, u64)> = records
            .iter()
            .filter(|c| c.parent == Some(r.id))
            .map(|c| {
                (
                    c.start_ns.clamp(start, end),
                    (c.start_ns + c.duration_ns).clamp(start, end),
                )
            })
            .collect();
        children.sort_unstable();
        let (mut covered, mut reach) = (0, start);
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        let own = (r.duration_ns - covered) as f64 / 1e9;
        match out.iter_mut().find(|(n, _)| *n == r.name) {
            Some((_, total)) => *total += own,
            None => out.push((r.name.clone(), own)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.99), 5.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn own_process_counters_are_readable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = Spans::new();
        let parent = spans.record("round", None, 0, 100, vec![]);
        let a = spans.record("sim", Some(parent.id), 10, 30, vec![]);
        let b = spans.record("sim", Some(parent.id), 30, 40, vec![]);
        let t = self_times(&[parent, a, b]);
        assert_eq!(t[0].0, "round");
        assert!((t[0].1 - 40e-9).abs() < 1e-15, "{t:?}");
        assert!((t[1].1 - 70e-9).abs() < 1e-15, "{t:?}");
    }
}
