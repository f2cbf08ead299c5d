//! Peak RSS is per workload: `sweep` (10⁵-trial fig05 rows) must report
//! more than `catalog`, so the figure is not carried over from anything
//! that ran before the workload.

use std::process::Command;

fn peak_rss_mb(workload: &str) -> f64 {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.contains("\"correct\":true"), "{last}");
    let value = last
        .split("\"peak_rss_mb\":{\"value\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .expect("peak_rss_mb in the result");
    value.parse().expect("a number")
}

#[test]
fn sweep_reports_a_higher_peak_rss_than_catalog() {
    let catalog = peak_rss_mb("catalog");
    let sweep = peak_rss_mb("sweep");
    assert!(
        sweep > catalog,
        "sweep {sweep} MB is not above catalog {catalog} MB"
    );
}
