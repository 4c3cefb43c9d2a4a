//! `cargo xtask` — workspace automation entry point.
//!
//! Subcommands:
//! - `lint` — run the repo static-analysis gate; nonzero exit and
//!   `file:line` diagnostics on any violation. `--json` emits a
//!   machine-readable findings document on stdout (archived by `ci.sh`
//!   as `results/LINT.json`); `--explain <rule>` prints a rule's
//!   rationale and fix.
//! - `ci` — fmt-check → lint → clippy (-D warnings) → docs (rustdoc
//!   -D warnings) → release build → tests, stopping at the first
//!   failure.
//! - `snapshot build|load [PATH]` — persist the paper corpus as an
//!   `SSTSNAP2` snapshot file, or load one back and verify it scores
//!   bit-identically to a cold build (delegates to the `snapshot_bench`
//!   binary so xtask itself stays dependency-free).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use xtask::rules::Rule;
use xtask::{ci, report, rules, workspace_root};

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint [--json] [DIR]   run the static-analysis gate (optionally on one
                        member DIR; member lint skips the workspace-wide
                        lock-graph and metrics-catalog rules)
  lint --explain RULE   print a rule's rationale and the fix it demands
  ci                    fmt-check, lint, clippy -D warnings, docs
                        (rustdoc -D warnings), release build, tests
  snapshot build [PATH] write the paper corpus as an SSTSNAP2 snapshot
                        (default results/corpus.sstsnap)
  snapshot load [PATH]  load a snapshot back and verify bit-identity
                        against a cold corpus build
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let rest = &args[1..];
            if let Some(pos) = rest.iter().position(|a| a == "--explain") {
                return match rest
                    .get(pos + 1)
                    .map(String::as_str)
                    .and_then(Rule::from_name)
                {
                    Some(rule) => {
                        println!("{}", report::explain(rule));
                        ExitCode::SUCCESS
                    }
                    None => {
                        let names: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
                        eprintln!("lint: --explain needs one of: {}", names.join(", "));
                        ExitCode::FAILURE
                    }
                };
            }
            let json = rest.iter().any(|a| a == "--json");
            let dir = rest.iter().find(|a| !a.starts_with("--"));
            let findings = if let Some(dir) = dir {
                rules::lint_member(&root, &root.join(dir))
            } else {
                rules::lint_workspace(&root)
            };
            match findings {
                Ok(findings) => {
                    if json {
                        print!("{}", report::to_json(&findings));
                    } else {
                        for f in &findings {
                            println!("{f}");
                        }
                    }
                    if findings.is_empty() {
                        eprintln!("lint: clean");
                        ExitCode::SUCCESS
                    } else {
                        for (name, n) in report::rule_counts(&findings) {
                            eprintln!("lint: {name}: {n}");
                        }
                        eprintln!("lint: {} finding(s)", findings.len());
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("lint: cannot walk workspace: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("snapshot") => {
            let (flag, default_path) = match args.get(1).map(String::as_str) {
                Some("build") => ("--build", "results/corpus.sstsnap"),
                Some("load") => ("--load", "results/corpus.sstsnap"),
                _ => {
                    eprintln!("xtask: snapshot needs `build` or `load`");
                    eprint!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            };
            let path = args
                .get(2)
                .cloned()
                .unwrap_or_else(|| default_path.to_owned());
            if flag == "--build" {
                if let Some(parent) = std::path::Path::new(&path).parent() {
                    if !parent.as_os_str().is_empty() && std::fs::create_dir_all(parent).is_err() {
                        eprintln!("xtask: cannot create {}", parent.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            // Delegate to the bench binary: the codec lives in sst-core and
            // the corpus loader in sst-bench; xtask stays dependency-free.
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
            let status = std::process::Command::new(&cargo)
                .args([
                    "run",
                    "--release",
                    "-p",
                    "sst-bench",
                    "--bin",
                    "snapshot_bench",
                    "--",
                    flag,
                    &path,
                ])
                .current_dir(&root)
                .status();
            match status {
                Ok(s) if s.success() => ExitCode::SUCCESS,
                Ok(_) => {
                    eprintln!("xtask: snapshot {flag} failed");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("xtask: cannot run snapshot_bench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("ci") => match ci::run(&root) {
            Ok(()) => {
                eprintln!("ci: all stages passed");
                ExitCode::SUCCESS
            }
            Err(stage) => {
                eprintln!("ci: FAILED at stage: {stage}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
