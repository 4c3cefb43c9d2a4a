//! The `cargo xtask ci` pipeline: fmt-check → lint → clippy → doc →
//! build → test, stopping at the first failing stage. One command, the
//! whole gate — `ci.sh` at the repo root is a thin wrapper around this.

use std::path::Path;
use std::process::Command;

/// A CI stage: a display name plus the cargo arguments to run.
const STAGES: &[(&str, &[&str])] = &[
    ("fmt", &["fmt", "--all", "--", "--check"]),
    // ("lint") runs in-process between fmt and clippy; see `run`.
    (
        "clippy",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    ),
    // Warning-free documentation: a public doc that links a private
    // item, or a link that no longer resolves, fails the gate.
    (
        "doc",
        &[
            "doc",
            "--workspace",
            "--no-deps",
            "--config",
            "build.rustdocflags=[\"-D\", \"warnings\"]",
        ],
    ),
    ("build", &["build", "--release", "--workspace"]),
    ("test", &["test", "-q", "--workspace"]),
];

/// Runs the full pipeline; returns `Err(stage)` naming the first failure.
pub fn run(root: &Path) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());

    for (i, (name, args)) in STAGES.iter().enumerate() {
        // The in-process lint slots in after fmt. The findings document
        // is archived as results/LINT.json either way, and per-rule
        // counts are printed so a red gate is diagnosable from the log.
        if i == 1 {
            eprintln!("ci: lint");
            let findings = crate::rules::lint_workspace(root)
                .map_err(|e| format!("lint: cannot walk workspace: {e}"))?;
            let results = root.join("results");
            if std::fs::create_dir_all(&results).is_ok() {
                // Best-effort artifact: a full disk must not mask findings.
                let _ =
                    std::fs::write(results.join("LINT.json"), crate::report::to_json(&findings));
                // lint: allow(swallowed-error) artifact write is best-effort by design
            }
            if !findings.is_empty() {
                for f in &findings {
                    eprintln!("{f}");
                }
                for (name, n) in crate::report::rule_counts(&findings) {
                    eprintln!("ci: lint: {name}: {n}");
                }
                return Err(format!("lint ({} finding(s))", findings.len()));
            }
        }
        eprintln!("ci: {name}");
        let status = Command::new(&cargo)
            .args(*args)
            .current_dir(root)
            .status()
            .map_err(|e| format!("{name}: failed to spawn cargo: {e}"))?;
        if !status.success() {
            return Err((*name).to_string());
        }
    }
    Ok(())
}
