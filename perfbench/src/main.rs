//! The spq benchmark: one process per run, one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selfcheck
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Lines before
//! it describe the run. See README.md for the workloads and metrics.

mod bench;
mod sys;
mod trace;
mod workload;

use bench::{Options, Report};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <uniform-hot|flickr-remote-cold|flickr-admission> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --selfcheck";

/// Count-pass requests of a full run.
const COUNT_LEN: usize = 48;
/// Set-up and window segments per run; `setup_s` is their median.
const SEGMENTS: usize = 6;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--selfcheck") {
        return selfcheck();
    }
    let parsed = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (spec, opts) = parsed;
    match bench::run(spec, &opts) {
        Ok(report) => {
            for line in &report.info {
                println!("# {line}");
            }
            println!("{}", result_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<(&'static workload::Spec, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?} (want 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let spec = workload.ok_or("--workload is required")?;
    Ok((
        spec,
        Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            objects: None,
            segments: SEGMENTS,
            count_len: COUNT_LEN,
        },
    ))
}

/// Runs every workload twice at a tiny size and checks that the per-layer
/// counts repeat exactly between the two processes' worth of work.
fn selfcheck() -> ExitCode {
    let mut ok = true;
    for spec in &workload::WORKLOADS {
        let opts = Options {
            seed: 7,
            seconds: 0.5,
            trace: true,
            objects: Some(4_000),
            segments: 2,
            count_len: 12,
        };
        let outcome = bench::run(spec, &opts).and_then(|first| {
            let second = bench::run(spec, &opts)?;
            if first.counts != second.counts {
                return Err(format!(
                    "counts differ between two runs: {:?} vs {:?}",
                    first.counts, second.counts
                ));
            }
            if !first.correct || !second.correct {
                return Err("a checked response diverged from its reference".into());
            }
            Ok(first.counts.len())
        });
        match outcome {
            Ok(keys) => println!("selfcheck {}: {keys} counts repeat exactly", spec.name),
            Err(e) => {
                println!("selfcheck {}: FAILED: {e}", spec.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line: every value printed with all its digits.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}
