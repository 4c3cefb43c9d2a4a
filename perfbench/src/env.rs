//! The environment a result was measured in.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::jsonw::J;

/// Threads the machine offers (the scheduler's and the server's default).
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The checkout's git revision, when it is a git repository.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

pub fn describe(seed: u64, seconds: u64, trace: bool) -> J {
    J::obj([
        ("available_parallelism", J::Int(parallelism() as u64)),
        ("git_revision", J::str(git_revision())),
        ("rustc", J::str(env!("PERFBENCH_RUSTC"))),
        ("seed", J::Int(seed)),
        ("seconds", J::Int(seconds)),
        ("trace", J::Bool(trace)),
    ])
}
