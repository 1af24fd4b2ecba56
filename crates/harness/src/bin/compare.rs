//! Side-by-side comparison of two simulator configurations over the
//! suite or a kernel.
//!
//! ```text
//! compare --left NAS/NAV --right NAS/SYNC [--benchmarks compress,swim]
//!         [--scale tiny|test|bench] [--window N] [--sched-latency N]
//!         [--split UNITSxTASK] [--reissue left|right|both] [--jobs N]
//! ```

use mds_core::{CoreConfig, Policy, Recovery, WindowModel};
use mds_harness::cli::{check_config, parse_benchmarks, parse_jobs, parse_policy, parse_scale};
use mds_harness::{geomean, Runner, Suite};
use mds_workloads::{Benchmark, SuiteParams};
use std::process::ExitCode;

const USAGE: &str = "usage: compare [--left POLICY] [--right POLICY] \
     [--benchmarks name,...] [--scale tiny|test|bench] [--window N] \
     [--sched-latency N] [--split UNITSxTASK] [--reissue left|right|both] [--jobs N]";

struct Args {
    left: Policy,
    right: Policy,
    benchmarks: Vec<Benchmark>,
    params: SuiteParams,
    window: Option<usize>,
    sched_latency: u64,
    split: Option<(u32, u32)>,
    reissue: (bool, bool),
    jobs: usize,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        left: Policy::NasNaive,
        right: Policy::NasSync,
        benchmarks: Benchmark::ALL.to_vec(),
        params: SuiteParams::test(),
        window: None,
        sched_latency: 0,
        split: None,
        reissue: (false, false),
        jobs: 0,
        help: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--left" => args.left = parse_policy(&next()?)?,
            "--right" => args.right = parse_policy(&next()?)?,
            "--benchmarks" => args.benchmarks = parse_benchmarks(&next()?)?,
            "--scale" => args.params = parse_scale(&next()?)?,
            "--window" => {
                args.window = Some(next()?.parse().map_err(|e| format!("bad window: {e}"))?);
            }
            "--sched-latency" => {
                args.sched_latency = next()?.parse().map_err(|e| format!("bad latency: {e}"))?;
            }
            "--split" => {
                let v = next()?;
                let (u, t) = v.split_once('x').ok_or("expected UNITSxTASK, e.g. 4x16")?;
                args.split = Some((
                    u.parse().map_err(|e| format!("bad units: {e}"))?,
                    t.parse().map_err(|e| format!("bad task size: {e}"))?,
                ));
            }
            "--reissue" => {
                args.reissue = match next()?.as_str() {
                    "left" => (true, false),
                    "right" => (false, true),
                    "both" => (true, true),
                    other => return Err(format!("bad --reissue {other}")),
                };
            }
            "--jobs" => args.jobs = parse_jobs(&next()?)?,
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    // The knobs checked do not depend on the policy or recovery.
    check_config(&configure(&args, args.left, false))?;
    Ok(args)
}

fn configure(args: &Args, policy: Policy, reissue: bool) -> CoreConfig {
    let mut cfg = CoreConfig::paper_128()
        .with_policy(policy)
        .with_addr_sched_latency(args.sched_latency);
    if let Some(w) = args.window {
        cfg = cfg.with_window_size(w);
    }
    if let Some((units, task_size)) = args.split {
        cfg = cfg.with_window_model(WindowModel::Split { units, task_size });
    }
    if reissue {
        cfg = cfg.with_recovery(Recovery::SelectiveReissue);
    }
    cfg
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    eprintln!("generating {} traces...", args.benchmarks.len());
    let suite = match Suite::generate(&args.benchmarks, &args.params) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("workload generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let runner = Runner::new(suite).with_jobs(args.jobs);

    let left_cfg = configure(&args, args.left, args.reissue.0);
    let right_cfg = configure(&args, args.right, args.reissue.1);
    let mut sets = runner.run_batch(&[left_cfg, right_cfg]);
    let right = sets.pop().expect("two result sets");
    let left = sets.pop().expect("two result sets");

    println!(
        "{:14} {:>12} {:>12} {:>9}   {:>10} {:>10}",
        "benchmark",
        args.left.paper_name(),
        args.right.paper_name(),
        "speedup",
        "ms-left",
        "ms-right"
    );
    let mut ratios = Vec::new();
    for ((b, l), (_, r)) in left.iter().zip(&right) {
        let ratio = if l.ipc() > 0.0 {
            r.ipc() / l.ipc()
        } else {
            0.0
        };
        ratios.push(ratio);
        println!(
            "{:14} {:12.2} {:12.2} {:+8.1}%   {:10} {:10}",
            b.name(),
            l.ipc(),
            r.ipc(),
            100.0 * (ratio - 1.0),
            l.stats.misspeculations,
            r.stats.misspeculations
        );
    }
    println!(
        "geometric-mean speedup of {} over {}: {:+.1}%",
        args.right.paper_name(),
        args.left.paper_name(),
        100.0 * (geomean(&ratios) - 1.0)
    );
    ExitCode::SUCCESS
}
