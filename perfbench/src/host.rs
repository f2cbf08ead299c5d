//! What the host and the process look like: the fingerprint stamped on
//! every result, and peak resident memory.

use std::process::{Command, Stdio};

/// Peak resident-set size (`VmHWM`) of a process, MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's `VmHWM` to its current RSS, so the next reading
/// covers only what ran after the reset. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint as one JSON object. `cpu`, `nproc`, `kernel` and
/// `rustc` identify the host; `commit` names the code measured and is
/// expected to differ between the two sides of a comparison.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit =
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cpu\":{},\"nproc\":{nproc},\"kernel\":{},\"rustc\":{},\"commit\":{}}}",
        json_str(&cpu_model()),
        json_str(&kernel),
        json_str(&rustc),
        json_str(&commit)
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    cnt_interconnect::experiments::format::json_string(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_drops_an_earlier_peak() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let before = peak_rss_mb("self").expect("VmHWM readable");
        drop(big);
        assert!(reset_peak_rss(), "clear_refs refused the reset");
        let after = peak_rss_mb("self").expect("VmHWM readable");
        assert!(
            after < before - 32.0,
            "peak {before} MB survived the reset: {after} MB"
        );
    }
}
