//! Concept-table batch benchmark: times the similarity-matrix workload
//! (`similarity_matrix` and `similarity_matrix_parallel`) of every
//! built-in measure against its per-pair oracle (`sst_bench::oracle`,
//! registered as a user runner) on a seeded synthetic two-ontology corpus,
//! verifying bit-identity of every cell on every measure, and writes
//! `results/BENCH_matrix.json`. The built-ins score from the toolkit's
//! resident concept table, which the toolkit builds once with itself, so
//! its build is not part of the timed matrices. In the JSON, `naive` is
//! the oracle and `prepared` the built-in.
//!
//! Usage:
//! ```text
//! cargo run --release -p sst-bench --bin matrix_bench                  # full run
//! cargo run --release -p sst-bench --bin matrix_bench -- --smoke       # CI gate
//! cargo run --release -p sst-bench --bin matrix_bench -- --threads 1,2,4,8
//! ```
//!
//! `--smoke` skips the timing loops (and the JSON export) and only checks
//! correctness — the built-ins' serial and parallel matrices must
//! reproduce the oracle bit-for-bit on a smaller fixture. `--threads` sets the
//! thread counts of the scaling sweep (default `1,2,4,8`); the first
//! sweep entry is the baseline the per-count speedup is measured against.
//!
//! Bit-identity is *recorded*, not assumed: every measure row carries a
//! `bit_identical` flag computed by comparing all four paths cell by cell,
//! and `ci.sh` fails the build when any flag is false.

use std::time::Instant;

use sst_bench::oracle::{self, oracle};
use sst_bench::{data_dir, generate_taxonomy, TaxonomySpec};
use sst_core::{ConceptSet, SchedStats, SstBuilder, SstToolkit};

/// Worker threads for the headline parallel-matrix comparison.
const THREADS: usize = 4;
/// Timing repetitions per (measure, mode); the median is reported.
const REPEATS: usize = 3;
/// Corpus for the thread-scaling sweep. Larger than the per-measure
/// comparison corpus so the O(n²) scoring work dominates the serial
/// per-call setup and thread scaling is actually measurable.
const SWEEP_PRIMARY: usize = 320;
const SWEEP_SECONDARY: usize = 160;

fn build_toolkit(primary: usize, secondary: usize) -> SstToolkit {
    // Two ontologies so the matrix crosses ontology boundaries (lowest
    // common ancestors through Super Thing, distinct documentation
    // vocabularies). Instances feed the IC corpus.
    let a = generate_taxonomy(TaxonomySpec {
        concepts: primary,
        branching: 4,
        instances: primary / 2,
        seed: 41,
    });
    let b = generate_taxonomy(TaxonomySpec {
        concepts: secondary,
        branching: 6,
        instances: secondary / 4,
        seed: 97,
    });
    let builder = SstBuilder::new()
        .register_ontology(a)
        .expect("register primary")
        .register_ontology(b)
        .expect("register secondary");
    oracle::register(builder).build()
}

/// Whether `a` and `b` agree bit-for-bit; prints the first divergence.
fn check_identical(name: &str, what: &str, a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        for (j, (va, vb)) in ra.iter().zip(rb).enumerate() {
            if va.to_bits() != vb.to_bits() {
                println!("  !! {name}: {what} diverges at [{i}][{j}]: {va} vs {vb}");
                return false;
            }
        }
    }
    true
}

/// Median wall-clock seconds of `REPEATS` runs of `f`.
fn time_median(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Row {
    name: String,
    naive_s: f64,
    prepared_s: f64,
    naive_par_s: f64,
    prepared_par_s: f64,
    bit_identical: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_s / self.prepared_s
    }

    fn speedup_par(&self) -> f64 {
        self.naive_par_s / self.prepared_par_s
    }
}

/// One built-in measure: record bit-identity across all four paths (the
/// built-in and its oracle, serial and parallel), then time them.
fn bench_measure(sst: &SstToolkit, measure: usize, timed: bool) -> Row {
    let set = ConceptSet::All;
    let info = sst.measure_info(measure).expect("measure info");
    let naive_id = oracle(measure);

    let (_, naive) = sst
        .similarity_matrix(&set, naive_id)
        .expect("oracle matrix");
    let (_, prepared) = sst
        .similarity_matrix(&set, measure)
        .expect("prepared matrix");
    let (_, prepared_par) = sst
        .similarity_matrix_parallel(&set, measure, THREADS)
        .expect("prepared parallel matrix");
    let (_, naive_par) = sst
        .similarity_matrix_parallel(&set, naive_id, THREADS)
        .expect("oracle parallel matrix");
    let bit_identical = check_identical(&info.name, "prepared vs naive", &naive, &prepared)
        & check_identical(&info.name, "prepared parallel", &naive, &prepared_par)
        & check_identical(&info.name, "naive parallel", &naive, &naive_par);

    let mut row = Row {
        name: info.name.clone(),
        naive_s: 0.0,
        prepared_s: 0.0,
        naive_par_s: 0.0,
        prepared_par_s: 0.0,
        bit_identical,
    };
    if !timed {
        return row;
    }
    row.naive_s = time_median(|| {
        std::hint::black_box(sst.similarity_matrix(&set, naive_id)).expect("oracle matrix");
    });
    row.prepared_s = time_median(|| {
        std::hint::black_box(sst.similarity_matrix(&set, measure)).expect("prepared matrix");
    });
    row.naive_par_s = time_median(|| {
        std::hint::black_box(sst.similarity_matrix_parallel(&set, naive_id, THREADS))
            .expect("oracle parallel matrix");
    });
    row.prepared_par_s = time_median(|| {
        std::hint::black_box(sst.similarity_matrix_parallel(&set, measure, THREADS))
            .expect("prepared parallel matrix");
    });
    row
}

/// One sweep entry: the parallel matrix workload of every built-in measure
/// at a fixed worker count.
struct SweepPoint {
    threads: usize,
    seconds: f64,
    workers_used: usize,
    steals: u64,
    imbalance: f64,
}

/// Times the parallel matrices of every built-in measure at each thread
/// count and captures the scheduler stats of the final run per count.
fn run_sweep(sst: &SstToolkit, thread_counts: &[usize]) -> Vec<SweepPoint> {
    let set = ConceptSet::All;
    thread_counts
        .iter()
        .map(|&threads| {
            let seconds = time_median(|| {
                for measure in 0..oracle::BUILTINS {
                    std::hint::black_box(sst.similarity_matrix_parallel(&set, measure, threads))
                        .expect("sweep matrix");
                }
            });
            let stats = sst.last_sched_stats().unwrap_or_default();
            SweepPoint {
                threads,
                seconds,
                workers_used: stats.workers.len(),
                steals: stats.steals(),
                imbalance: stats.imbalance(),
            }
        })
        .collect()
}

fn render_sched_json(stats: &SchedStats, threads: usize) -> String {
    let workers: Vec<String> = stats
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"tiles\":{},\"steals\":{},\"busy_ns\":{}}}",
                w.tiles, w.steals, w.busy_ns
            )
        })
        .collect();
    format!(
        "{{\"threads_requested\":{threads},\"workers_used\":{},\"steals\":{},\
         \"imbalance\":{:.3},\"workers\":[{}]}}",
        stats.workers.len(),
        stats.steals(),
        stats.imbalance(),
        workers.join(",")
    )
}

fn render_json(
    concepts: usize,
    rows: &[Row],
    sweep_concepts: usize,
    sweep: &[SweepPoint],
    sched: &SchedStats,
    sched_threads: usize,
) -> String {
    let total_naive: f64 = rows.iter().map(|r| r.naive_s).sum();
    let total_prepared: f64 = rows.iter().map(|r| r.prepared_s).sum();
    let total_naive_par: f64 = rows.iter().map(|r| r.naive_par_s).sum();
    let total_prepared_par: f64 = rows.iter().map(|r| r.prepared_par_s).sum();
    let measures: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"measure\":\"{}\",\"naive_seconds\":{},\"prepared_seconds\":{},\
                 \"speedup\":{:.2},\"naive_parallel_seconds\":{},\
                 \"prepared_parallel_seconds\":{},\"parallel_speedup\":{:.2},\
                 \"bit_identical\":{}}}",
                r.name,
                r.naive_s,
                r.prepared_s,
                r.speedup(),
                r.naive_par_s,
                r.prepared_par_s,
                r.speedup_par(),
                r.bit_identical
            )
        })
        .collect();
    let base_seconds = sweep.first().map(|p| p.seconds).unwrap_or(0.0);
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                "{{\"threads\":{},\"seconds\":{},\"speedup_vs_first\":{:.2},\
                 \"workers_used\":{},\"steals\":{},\"imbalance\":{:.3}}}",
                p.threads,
                p.seconds,
                if p.seconds > 0.0 {
                    base_seconds / p.seconds
                } else {
                    0.0
                },
                p.workers_used,
                p.steals,
                p.imbalance
            )
        })
        .collect();
    let cores = sst_core::default_workers();
    format!(
        "{{\"workload\":{{\"concepts\":{concepts},\"set\":\"All\",\"threads\":{THREADS},\
         \"repeats\":{REPEATS},\"available_parallelism\":{cores},\"measure_count\":{}}},\
         \"totals\":{{\"naive_seconds\":{total_naive},\"prepared_seconds\":{total_prepared},\
         \"speedup\":{:.2},\"naive_parallel_seconds\":{total_naive_par},\
         \"prepared_parallel_seconds\":{total_prepared_par},\"parallel_speedup\":{:.2}}},\
         \"scheduler\":{},\
         \"thread_sweep\":{{\"concepts\":{sweep_concepts},\"points\":[{}]}},\
         \"measures\":[{}]}}",
        rows.len(),
        total_naive / total_prepared,
        total_naive_par / total_prepared_par,
        render_sched_json(sched, sched_threads),
        sweep_json.join(","),
        measures.join(",")
    )
}

/// Parses `--threads a,b,c` from the CLI (default `1,2,4,8`).
fn sweep_threads(args: &[String]) -> Vec<usize> {
    let mut counts: Vec<usize> = Vec::new();
    for window in args.windows(2) {
        if window[0] == "--threads" {
            counts = window[1]
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect();
        }
    }
    if counts.is_empty() {
        counts = vec![1, 2, 4, 8];
    }
    counts
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (primary, secondary) = if smoke { (48, 24) } else { (140, 70) };
    let sst = build_toolkit(primary, secondary);
    let concepts = sst.tree().all_concepts().len();
    println!(
        "matrix_bench: {} measures on {} concepts ({})",
        oracle::BUILTINS,
        concepts,
        if smoke { "smoke" } else { "full" }
    );

    let mut rows = Vec::new();
    for measure in 0..oracle::BUILTINS {
        let row = bench_measure(&sst, measure, !smoke);
        if smoke {
            println!(
                "  {:<18} bit-identical {}",
                row.name,
                if row.bit_identical { "ok" } else { "FAILED" }
            );
        } else {
            println!(
                "  {:<18} oracle {:>8.4}s  table {:>8.4}s  speedup {:>5.2}x  (parallel {:>5.2}x){}",
                row.name,
                row.naive_s,
                row.prepared_s,
                row.speedup(),
                row.speedup_par(),
                if row.bit_identical {
                    ""
                } else {
                    "  BIT-MISMATCH"
                }
            );
        }
        rows.push(row);
    }

    let all_identical = rows.iter().all(|r| r.bit_identical);
    if smoke {
        if all_identical {
            println!("matrix_bench --smoke: all measures bit-identical to the oracle");
            return;
        }
        println!("matrix_bench --smoke: BIT-IDENTITY FAILURE");
        std::process::exit(1);
    }

    let total_naive: f64 = rows.iter().map(|r| r.naive_s).sum();
    let total_prepared: f64 = rows.iter().map(|r| r.prepared_s).sum();
    println!(
        "total: oracle {total_naive:.3}s table {total_prepared:.3}s speedup {:.2}x",
        total_naive / total_prepared
    );

    // Thread-scaling sweep over the built-in measures on a dedicated larger
    // corpus (O(n²) scoring must dominate the serial per-call setup for
    // scaling to be visible); scheduler introspection comes from the last
    // parallel run on that corpus, where the tile count is meaningful.
    let sweep_sst = build_toolkit(SWEEP_PRIMARY, SWEEP_SECONDARY);
    let sweep_concepts = sweep_sst.tree().all_concepts().len();
    let counts = sweep_threads(&args);
    println!(
        "sweep corpus: {sweep_concepts} concepts ({} hardware threads available — \
         counts above that timeslice one core and stay flat)",
        sst_core::default_workers()
    );
    let sweep = run_sweep(&sweep_sst, &counts);
    for p in &sweep {
        println!(
            "sweep: {} threads -> {:.3}s (workers {}, steals {}, imbalance {:.2})",
            p.threads, p.seconds, p.workers_used, p.steals, p.imbalance
        );
    }
    let sched = sweep_sst.last_sched_stats().unwrap_or_default();
    let sched_threads = counts.last().copied().unwrap_or(THREADS);

    let results = data_dir().join("../results");
    std::fs::create_dir_all(&results).expect("results dir");
    std::fs::write(
        results.join("BENCH_matrix.json"),
        render_json(
            concepts,
            &rows,
            sweep_concepts,
            &sweep,
            &sched,
            sched_threads,
        ),
    )
    .expect("write BENCH_matrix");
    println!("(written to results/BENCH_matrix.json)");
    if !all_identical {
        println!("matrix_bench: BIT-IDENTITY FAILURE");
        std::process::exit(1);
    }
}
