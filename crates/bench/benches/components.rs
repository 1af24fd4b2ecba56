//! Component micro-benchmarks: raw throughput of the substrate pieces.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mds_core::{OracleDeps, TraceArtifacts};
use mds_frontend::{Combined, DirectionPredictor};
use mds_isa::{Interpreter, Trace, NUM_REGS};
use mds_mem::{AccessKind, MemConfig, MemSystem, StoreBuffer};
use mds_workloads::kernels;
use std::collections::HashMap;

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_cache");
    g.sample_size(20);
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("strided_reads", |b| {
        b.iter(|| {
            let mut m = MemSystem::new(MemConfig::paper());
            let mut now = 0;
            for i in 0..10_000u64 {
                now = m.access(AccessKind::Read, (i * 64) % (1 << 22), now);
            }
            now
        })
    });
    g.finish();
}

fn bench_store_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_store_buffer");
    g.sample_size(20);
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_forward_retire", |b| {
        b.iter(|| {
            let mut sb = StoreBuffer::new(128);
            let mut hits = 0u64;
            for i in 0..10_000u64 {
                sb.push(i, (i % 64) * 8, 8, i);
                if let mds_mem::Forward::Hit { .. } = sb.forward(i + 1, ((i + 32) % 64) * 8, 8) {
                    hits += 1;
                }
                if i >= 100 {
                    sb.retire(i - 100);
                }
            }
            hits
        })
    });
    g.finish();
}

fn bench_branch_predictor(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_branch_predictor");
    g.sample_size(20);
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("combined_64k", |b| {
        b.iter(|| {
            let mut p = Combined::paper();
            let mut correct = 0u64;
            for i in 0..100_000u64 {
                let pc = 0x40_0000 + (i % 97) * 4;
                let taken = (i * 2_654_435_761) >> 13 & 3 != 0;
                if p.predict(pc) == taken {
                    correct += 1;
                }
                p.update(pc, taken);
            }
            correct
        })
    });
    g.finish();
}

fn bench_oracle_build(c: &mut Criterion) {
    let trace = Interpreter::new(kernels::histogram(20_000, 1024).expect("kernel"))
        .run(2_000_000)
        .expect("runs");
    let mut g = c.benchmark_group("component_oracle");
    g.sample_size(20);
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("build", |b| b.iter(|| OracleDeps::build(&trace)));
    g.finish();
}

/// The oracle builder the core used before the CSR/paged-table rewrite:
/// one `HashMap` entry per written byte, one heap `Vec` per record.
/// Kept here (not in the core) as the baseline the new layout is
/// measured against.
fn legacy_oracle_build(trace: &Trace) -> Vec<Vec<u32>> {
    let mut last_writer: HashMap<u64, u32> = HashMap::new();
    let mut producers: Vec<Vec<u32>> = Vec::with_capacity(trace.len());
    for (i, rec) in trace.records().iter().enumerate() {
        let inst = trace.inst(i);
        let mut row = Vec::new();
        if inst.op.is_load() {
            for off in 0..rec.size as u64 {
                if let Some(&w) = rec
                    .effaddr
                    .checked_add(off)
                    .and_then(|a| last_writer.get(&a))
                {
                    if !row.contains(&w) {
                        row.push(w);
                    }
                }
            }
            row.sort_unstable();
        }
        producers.push(row);
        if inst.op.is_store() {
            for off in 0..rec.size as u64 {
                if let Some(a) = rec.effaddr.checked_add(off) {
                    last_writer.insert(a, i as u32);
                }
            }
        }
    }
    producers
}

/// The register-dependence builder the core used before CSR: one boxed
/// slice allocation per record per edge kind.
#[allow(clippy::type_complexity)]
fn legacy_regdeps_build(trace: &Trace) -> (Vec<Box<[u32]>>, Vec<Box<[u32]>>, Vec<Box<[u32]>>) {
    let n = trace.len();
    let mut last_writer: [Option<u32>; NUM_REGS] = [None; NUM_REGS];
    let mut srcs: Vec<Box<[u32]>> = Vec::with_capacity(n);
    let mut addr: Vec<Box<[u32]>> = Vec::with_capacity(n);
    let mut data: Vec<Box<[u32]>> = Vec::with_capacity(n);
    for i in 0..n {
        let inst = trace.inst(i);
        if inst.op.is_mem() {
            srcs.push(Box::from([]));
            addr.push(
                inst.base_reg()
                    .and_then(|b| last_writer[b.index()])
                    .map_or_else(|| Box::from([]), |p| Box::from([p])),
            );
            data.push(
                inst.store_data_reg()
                    .and_then(|d| last_writer[d.index()])
                    .map_or_else(|| Box::from([]), |p| Box::from([p])),
            );
        } else {
            let mut row: Vec<u32> = Vec::new();
            for r in inst.src_regs() {
                if let Some(p) = last_writer[r.index()] {
                    if !row.contains(&p) {
                        row.push(p);
                    }
                }
            }
            srcs.push(row.into_boxed_slice());
            addr.push(Box::from([]));
            data.push(Box::from([]));
        }
        for r in inst.dst_regs() {
            last_writer[r.index()] = Some(i as u32);
        }
    }
    (srcs, addr, data)
}

/// Old vs. new dependence-structure construction on the same trace:
/// the per-byte-`HashMap` oracle and boxed-row register deps against
/// the paged-last-writer CSR oracle and the full [`TraceArtifacts`]
/// bundle (oracle + register deps + per-op metadata in one pass set).
fn bench_dependence_builds(c: &mut Criterion) {
    let trace = Interpreter::new(kernels::histogram(20_000, 1024).expect("kernel"))
        .run(2_000_000)
        .expect("runs");
    let mut g = c.benchmark_group("component_dependence_builds");
    g.sample_size(20);
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("oracle_per_byte_map_legacy", |b| {
        b.iter(|| legacy_oracle_build(&trace))
    });
    g.bench_function("oracle_paged_csr", |b| b.iter(|| OracleDeps::build(&trace)));
    g.bench_function("regdeps_boxed_rows_legacy", |b| {
        b.iter(|| legacy_regdeps_build(&trace))
    });
    g.bench_function("artifact_bundle_csr", |b| {
        b.iter(|| TraceArtifacts::build(&trace))
    });
    g.finish();
}

criterion_group! {
    name = components;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(4)).configure_from_args();
    targets = bench_cache, bench_store_buffer, bench_branch_predictor, bench_oracle_build, bench_dependence_builds
}
criterion_main!(components);
