//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload catalog|sweep|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a separate traced run. The line before it is the
//! host fingerprint. See `perfbench/README.md`.

mod catalog;
mod host;
mod http;
mod layers;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run hands back: operations attempted and failed (a wrong
/// output counts as failed) plus its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The command line of a measured run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["catalog", "sweep", "serve"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds must be a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (valid: {})",
            WORKLOADS.join(" ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where a run leaves its result and span files (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench-out")
}

fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        out.push_str(&format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            host::json_str(&m.name),
            host::json_str(m.unit)
        ));
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A fleet member spawned by the serve workload (see serve.rs).
    if argv.first().map(String::as_str) == Some(serve::INSTANCE_FLAG) {
        return serve::instance_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload catalog|sweep|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new(catalog::GOLDEN).is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            catalog::GOLDEN
        );
        return ExitCode::from(2);
    }
    if !host::reset_peak_rss() {
        eprintln!(
            "perfbench: cannot reset the peak-RSS counter; peak_rss_mb covers the whole process"
        );
    }
    let outcome = match (args.workload.as_str(), args.trace) {
        ("catalog", false) => catalog::run(&args),
        ("sweep", false) => sweep::run(&args),
        ("serve", false) => serve::run(&args),
        (_, true) => layers::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let fingerprint = host::fingerprint_json();
    let line = result_line(&outcome);
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{fingerprint},\"result\":{line}}}\n",
        host::json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let dir = out_dir();
    let saved = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!(
                "result-{}-{}-{}.json",
                args.workload,
                args.seed,
                u8::from(args.trace)
            )),
            &record,
        )
    });
    if let Err(e) = saved {
        eprintln!("perfbench: could not save the result record: {e}");
    }
    println!("{{\"host\":{fingerprint}}}");
    println!("{line}");
    ExitCode::SUCCESS
}
