//! `mds-report` — post-hoc analysis of observability artifacts.
//!
//! ```text
//! mds-report spans TRACE.jsonl [--top N] [--out FILE]
//! ```
//!
//! `spans` aggregates the span records of a `--trace-out` JSONL stream
//! (from `reproduce` or `mds-serve`) into per-phase latency tables,
//! per-benchmark time breakdowns, the slowest configurations, and
//! cache-hit / queue-wait summaries. With `--out`, the rendered report
//! is also written atomically to a file.

use mds_harness::emit;
use mds_harness::report::analyze_spans;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mds-report spans TRACE.jsonl [--top N] [--out FILE]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match argv[0].as_str() {
        "spans" => spans(&argv[1..]),
        other => Err(format!("unknown subcommand {other}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mds-report: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn spans(args: &[String]) -> Result<(), String> {
    let mut trace = None;
    let mut top = 10usize;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--top" => {
                top = value("--top")?
                    .parse()
                    .map_err(|e| format!("bad --top value: {e}"))?;
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other if !other.starts_with("--") && trace.is_none() => {
                trace = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let trace = trace.ok_or_else(|| format!("spans needs a TRACE.jsonl path\n{USAGE}"))?;
    let jsonl = std::fs::read_to_string(&trace).map_err(|e| format!("cannot read {trace}: {e}"))?;
    let text = analyze_spans(&jsonl)?.render(top);
    print!("{text}");
    if let Some(path) = out {
        emit::write_atomic(&path, &text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}
