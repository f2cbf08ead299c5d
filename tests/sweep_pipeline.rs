//! End-to-end: a small Fig. 12 Monte-Carlo sweep driven through the
//! facade — plan construction, the `cnt-sweep` pool, aggregation,
//! caching, and report rendering.

use cnt_beol::interconnect::experiments::{run_sweep, sweep_catalog, SweepOpts};
use std::path::PathBuf;

fn opts(trials: usize, threads: usize, seed: u64) -> SweepOpts {
    SweepOpts {
        trials,
        threads,
        seed,
        cache_dir: None,
    }
}

#[test]
fn fig12_sweep_end_to_end() {
    let run = run_sweep("fig12", &opts(20, 0, 42)).expect("sweep runs");
    assert_eq!(run.report.id, "fig12");
    assert_eq!(run.jobs, 75);
    assert_eq!(run.report.rows.len(), 75);

    // Paper physics survives the Monte-Carlo: the doping benefit grows
    // with length and shrinks with diameter, in the *mean* ratio.
    let mean_ratio = |d: f64, nc: f64, l: f64| -> f64 {
        run.report
            .rows
            .iter()
            .find(|r| r[0] == d && r[1] == nc && r[2] == l)
            .expect("cell present")[3]
    };
    assert!(mean_ratio(10.0, 10.0, 500.0) < mean_ratio(10.0, 10.0, 10.0));
    assert!(mean_ratio(10.0, 10.0, 500.0) < mean_ratio(22.0, 10.0, 500.0));
    // The D = 10 nm anchor keeps its ~10 % reduction.
    let anchor = mean_ratio(10.0, 10.0, 500.0);
    assert!((0.85..0.95).contains(&anchor), "anchor mean {anchor}");

    // Pristine cells are exactly ratio 1 with zero spread.
    for row in run.report.rows.iter().filter(|r| r[1] == 2.0) {
        assert_eq!(row[3], 1.0);
        assert_eq!(row[4], 0.0);
    }
}

#[test]
fn fig12_sweep_is_thread_invariant_through_the_facade() {
    let serial = run_sweep("fig12", &opts(10, 1, 1)).unwrap();
    let par = run_sweep("fig12", &opts(10, 4, 1)).unwrap();
    assert_eq!(serial.report.render(), par.report.render());
}

#[test]
fn fig12_sweep_disk_cache_replays_byte_identical() {
    let dir = std::env::temp_dir().join(format!("cnt-beol-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = SweepOpts {
        cache_dir: Some(dir.clone()),
        ..opts(6, 2, 5)
    };
    let first = run_sweep("fig12", &cached).unwrap();
    assert!(!first.cache_hit);
    let replay = run_sweep("fig12", &cached).unwrap();
    assert!(replay.cache_hit);
    assert_eq!(first.report.render(), replay.report.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every sweep id's JSON report at 2000 trials, seed 42, is pinned byte
/// for byte in `tests/golden/sweep_<id>.json`, serial and on all cores.
/// These captures pin the Monte-Carlo kernels across code changes (the
/// thread-invariance tests only pin them across thread counts); like
/// `repro_all.txt` they are never re-blessed — a drift is a bug.
#[test]
fn every_sweep_matches_its_golden_at_any_thread_count() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let ids: Vec<&str> = sweep_catalog().collect();
    assert_eq!(ids.len(), 8, "a new sweep id needs a golden capture");
    for id in ids {
        let path = dir.join(format!("sweep_{id}.json"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
        for threads in [1, 0] {
            let got = run_sweep(id, &opts(2000, threads, 42)).expect(id);
            assert_eq!(
                got.report.to_json(),
                want,
                "sweep {id} at threads = {threads} drifted from its golden"
            );
        }
    }
}
