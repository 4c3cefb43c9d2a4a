//! Layer-attributed end-to-end benchmark of the SOQA-SimPack Toolkit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `serve_hot`, `serve_cold` (HTTP, see `serve.rs`) and
//! `batch_matrix` (in process, see `batch.rs`). With `--trace 0` the last
//! line of standard output is a JSON object carrying the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics of a traced
//! run with the same seed and inputs. Each run also writes its full
//! report (realized workload, environment, layer tables and, when traced,
//! every span) under `perfbench/out/`. `README.md` beside this crate
//! lists the metrics and which layer should move which of them.

mod batch;
mod boot;
mod client;
mod delta;
mod env;
mod jsonw;
mod layers;
mod probes;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use jsonw::J;
use layers::Values;
use sst_bench::SplitMix64;
use stats::Tally;
use trace::Tracer;

/// The command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A generator for one purpose (`stream`) of one seed: the same seed
/// gives the same inputs.
pub fn seeded(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    pub values: Values,
    pub details: Vec<(String, J)>,
    pub tracer: Option<Tracer>,
}

const USAGE: &str =
    "usage: perfbench --workload <serve_hot|serve_cold|batch_matrix> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve_hot" => serve::run(&serve::HOT, args),
        "serve_cold" => serve::run(&serve::COLD, args),
        "batch_matrix" => batch::run(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The metrics this run prints: the end-to-end set, or the per-layer set
/// when traced.
fn metric_list(args: &Args, values: &Values) -> Vec<(String, J)> {
    let units: Vec<(String, &str)> = if args.trace {
        layers::per_layer()
    } else {
        layers::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .collect()
    };
    units
        .into_iter()
        .map(|(name, unit)| {
            let value = J::Num(values.get(&name));
            (name, J::obj([("value", value), ("unit", J::str(unit))]))
        })
        .collect()
}

fn write_report(
    args: &Args,
    environment: &J,
    outcome: &Outcome,
    metrics: &[(String, J)],
) -> Result<PathBuf, String> {
    let dir = boot::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut report = vec![
        ("environment".to_owned(), environment.clone()),
        ("correct".to_owned(), J::Bool(outcome.correct)),
        (
            "tally".to_owned(),
            J::obj([
                ("attempted", J::Int(outcome.tally.attempted)),
                ("status", J::Int(outcome.tally.status)),
                ("reset", J::Int(outcome.tally.reset)),
                ("timeout", J::Int(outcome.tally.timeout)),
                ("wrong", J::Int(outcome.tally.wrong)),
            ]),
        ),
        ("metrics".to_owned(), J::Obj(metrics.to_vec())),
    ];
    report.extend(outcome.details.iter().cloned());
    if let Some(tracer) = &outcome.tracer {
        let a = tracer.analysis();
        let roots: Vec<usize> = tracer
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, _)| i)
            .collect();
        let per_root = roots
            .iter()
            .filter(|&&r| tracer.spans()[r].name != "request")
            .map(|&r| {
                let table = a.layer_table(&[r]);
                J::obj([
                    ("root", J::str(tracer.spans()[r].name)),
                    ("attributed_share", J::Num(a.attributed_share(r))),
                    (
                        "self_us",
                        J::Obj(
                            table
                                .into_iter()
                                .map(|(k, ns)| (k, J::Num(ns as f64 / 1e3)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let requests: Vec<usize> = roots
            .iter()
            .copied()
            .filter(|&r| tracer.spans()[r].name == "request")
            .collect();
        let request_table = a.layer_table(&requests);
        report.push(("boot_and_job_layers".to_owned(), J::Arr(per_root)));
        report.push((
            "request_layers_self_us_total".to_owned(),
            J::Obj(
                request_table
                    .into_iter()
                    .map(|(k, ns)| (k, J::Num(ns as f64 / 1e3)))
                    .collect(),
            ),
        ));
        let spans = tracer
            .spans()
            .iter()
            .map(|s| {
                J::Arr(vec![
                    J::str(s.name),
                    J::Int(s.start),
                    J::Int(s.end),
                    s.parent.map_or(J::Null, |p| J::Int(p as u64)),
                    J::Int(s.request),
                ])
            })
            .collect();
        let trace_path = dir.join(format!("{stem}-spans.json"));
        let spans_doc = J::obj([
            (
                "fields",
                J::Arr(
                    ["name", "start_ns", "end_ns", "parent", "request"]
                        .map(J::str)
                        .to_vec(),
                ),
            ),
            ("spans", J::Arr(spans)),
        ]);
        std::fs::write(&trace_path, spans_doc.render())
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    }
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, J::Obj(report).render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// The modes a run starts this program in as a child process: writing
/// serve_cold's snapshot, and one setup of a workload, whose seconds it
/// prints. `None` when `raw` asks for neither.
fn child_mode(raw: &[String]) -> Option<Result<(), String>> {
    let arg = raw.get(2).map(String::as_str);
    match raw.get(1).map(String::as_str) {
        Some("--write-snapshot") => Some(match arg {
            Some(path) => boot::write_snapshot(std::path::Path::new(path)),
            None => Err("--write-snapshot needs a path".to_owned()),
        }),
        Some("--boot") => Some(
            match arg {
                Some("serve_hot") => serve::boot_once(&serve::HOT),
                Some("serve_cold") => serve::boot_once(&serve::COLD),
                Some("batch_matrix") => batch::boot_once(),
                _ => Err("--boot needs a workload".to_owned()),
            }
            .map(|secs| println!("{secs}")),
        ),
        _ => None,
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().collect();
    if let Some(done) = child_mode(&raw) {
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = metric_list(&args, &outcome.values);
    let environment = env::describe(args.seed, args.seconds, args.trace);
    match write_report(&args, &environment, &outcome, &metrics) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    // The realized workload and environment travel with every result.
    let workload = outcome
        .details
        .iter()
        .find(|(k, _)| k == "workload")
        .map_or(J::Null, |(_, v)| v.clone());
    let context = J::obj([("environment", environment), ("workload", workload)]);
    println!("context: {}", context.render());
    let result = J::obj([
        ("correct", J::Bool(outcome.correct)),
        ("attempted", J::Int(outcome.tally.attempted)),
        ("failed", J::Int(outcome.tally.failed())),
        ("metrics", J::Obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
