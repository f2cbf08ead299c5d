//! The `sweep` workload: one caller in a closed loop, alternating
//! `run_sweep` of fig05 (10⁵ one-wafer jobs: pool dispatch, the process
//! layer and row collection) and fig12 (75 jobs of 10⁵ trials each: the
//! compact model and circuit) with `threads` = all cores and no cache.
//! The seed picks each id's root seed; every distinct (id, seed) report
//! is checked against a `threads = 1` recomputation after the window.

use crate::stats::{median, percentile};
use crate::{Args, Outcome};
use cnt_interconnect::experiments::{self, SweepOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Trials per sweep.
pub const TRIALS: usize = 100_000;

/// The two sweeps, in the order the loop alternates them.
pub const IDS: [&str; 2] = ["fig05", "fig12"];

/// One sweep's rendered JSON report.
pub fn sweep_json(id: &str, trials: usize, seed: u64, threads: usize) -> Result<String, String> {
    let opts = SweepOpts {
        trials,
        threads,
        seed,
        cache_dir: None,
    };
    let run = experiments::run_sweep(id, &opts).map_err(|e| format!("sweep {id}: {e}"))?;
    Ok(run.report.to_json())
}

/// Set-up: the registry and one warm sweep of each id at a tenth of the
/// timed trial count (long enough that its time is not scheduler noise).
fn set_up() -> Result<(), String> {
    for id in IDS {
        sweep_json(id, TRIALS / 10, 1, 0)?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(crate::catalog::SETUPS);
    for _ in 0..crate::catalog::SETUPS {
        let started = Instant::now();
        set_up()?;
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut rng = StdRng::seed_from_u64(args.seed);
    let seeds: [u64; 2] = [rng.gen_range(1..1_000_000), rng.gen_range(1..1_000_000)];
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reports: [Vec<Result<String, String>>; 2] = [Vec::new(), Vec::new()];
    let window = Instant::now();
    let mut turn = 0;
    while window.elapsed().as_secs_f64() < args.seconds || times[1].is_empty() {
        let started = Instant::now();
        let report = sweep_json(IDS[turn], TRIALS, seeds[turn], 0);
        times[turn].push(started.elapsed().as_secs_f64());
        reports[turn].push(report);
        turn = 1 - turn;
    }
    let mut outcome = Outcome::default();
    for (k, id) in IDS.iter().enumerate() {
        let want = sweep_json(id, TRIALS, seeds[k], 1)?;
        for got in &reports[k] {
            outcome.attempted += 1;
            if got.as_ref().map_or(true, |got| *got != want) {
                outcome.failed += 1;
            }
        }
    }
    let all: Vec<f64> = times.iter().flatten().copied().collect();
    let busy: f64 = all.iter().sum();
    outcome.push("setup_s", median(&setups).unwrap_or(0.0), "s");
    outcome.push("p50_ms", median(&all).unwrap_or(0.0) * 1e3, "ms");
    outcome.push("tail_ms", percentile(&all, 0.9).unwrap_or(0.0) * 1e3, "ms");
    outcome.push(
        "throughput_per_s",
        (all.len() * TRIALS) as f64 / busy,
        "1/s",
    );
    outcome.push(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    );
    eprintln!(
        "sweep: {} fig05 and {} fig12 sweeps of {TRIALS} trials; fig05 p50 {:.3} s, fig12 p50 {:.3} s",
        times[0].len(),
        times[1].len(),
        median(&times[0]).unwrap_or(0.0),
        median(&times[1]).unwrap_or(0.0),
    );
    Ok(outcome)
}
