//! Alignment-quality harness: measures precision/recall/F1 of the greedy
//! and stable matching engines against seeded-perturbation ground truth,
//! at several blocking widths, and (full run only) writes
//! `results/BENCH_align.json`.
//!
//! Ground truth comes from `sst_bench::perturb`: the perturbed copy of a
//! seeded taxonomy keeps concept ids index-aligned with the original, so
//! a correspondence is correct iff its source and target concept ids are
//! equal. Perturbation renames, rewords, and re-parents a seeded fraction
//! of concepts, so near-duplicate names make the matching genuinely
//! ambiguous — the regime where matching discipline matters.
//!
//! Usage:
//! ```text
//! cargo run --release -p sst-bench --bin align_bench            # full run
//! cargo run --release -p sst-bench --bin align_bench -- --smoke # CI gate (prints, writes nothing)
//! ```
//!
//! Both modes enforce the subsystem's contract: blocked candidate counts
//! stay well under the full n·m rectangle, no source concept has an empty
//! candidate set, stable-mode precision holds a floor, and stable F1 is
//! at least greedy F1 at every width (strictly better in aggregate). The
//! smoke widths include 32, whose NSW probe is wider than the default, so
//! the per-call search path runs too.
//!
//! Each configuration is timed on its second run (`"timing":"warm"`): the
//! vector store keeps each source concept's default-probe neighborhood
//! once searched, so on a first run the first width would pay every
//! search and the later ones none.

use sst_bench::{data_dir, generate_taxonomy, perturb, Perturbation, TaxonomySpec};
use sst_core::{
    align_with_limits, measure_ids, AlignStats, Alignment, AlignmentConfig, Amalgamation,
    CandidateGen, MatchMode, SstBuilder, SstToolkit,
};
use sst_limits::Limits;

/// Fraction of concepts the perturbation touches.
const STRENGTH: f64 = 0.45;
/// Minimum acceptable stable-mode precision on the seeded ground truth.
const PRECISION_FLOOR: f64 = 0.55;

struct Run {
    mode: MatchMode,
    width: Option<usize>,
    precision: f64,
    recall: f64,
    f1: f64,
    stats: AlignStats,
    seconds: f64,
}

fn build_toolkit(concepts: usize) -> (SstToolkit, String, String) {
    let original = generate_taxonomy(TaxonomySpec {
        concepts,
        branching: 4,
        instances: 0,
        seed: 2026,
    });
    let perturbed = perturb(&original, Perturbation::All, STRENGTH, 77);
    let source = original.name().to_owned();
    let target = perturbed.name().to_owned();
    let sst = SstBuilder::new()
        .register_ontology(original)
        .expect("register original")
        .register_ontology(perturbed)
        .expect("register perturbed")
        .build();
    (sst, source, target)
}

/// Precision/recall/F1 of an alignment against the index-aligned truth
/// (source concept id == target concept id).
fn score_alignment(alignment: &Alignment, truth_size: usize) -> (f64, f64, f64) {
    let proposed = alignment.correspondences.len();
    let correct = alignment
        .correspondences
        .iter()
        .filter(|c| c.source.concept == c.target.concept)
        .count();
    let precision = if proposed == 0 {
        0.0
    } else {
        correct as f64 / proposed as f64
    };
    let recall = correct as f64 / truth_size as f64;
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (precision, recall, f1)
}

fn run_one(
    sst: &SstToolkit,
    source: &str,
    target: &str,
    mode: MatchMode,
    candidates: CandidateGen,
    truth_size: usize,
) -> Run {
    let config = AlignmentConfig {
        // Name + structure signal only: the perturbation's near-duplicate
        // names keep the matching ambiguous, which is the regime this
        // harness is probing. (TF-IDF over the synthetic docs is nearly a
        // perfect key and would saturate both engines.)
        measures: vec![
            measure_ids::CONCEPTUAL_SIMILARITY_MEASURE,
            measure_ids::JARO_WINKLER_MEASURE,
        ],
        strategy: Amalgamation::WeightedAverage,
        threshold: 0.35,
        mode,
        candidates,
    };
    let align = || align_with_limits(sst, source, target, &config, &Limits::default());
    align().expect("untimed run");
    let start = std::time::Instant::now();
    let alignment = align().expect("align");
    let seconds = start.elapsed().as_secs_f64();
    let (precision, recall, f1) = score_alignment(&alignment, truth_size);
    Run {
        mode,
        width: match candidates {
            CandidateGen::Blocked { width } => Some(width),
            CandidateGen::Exhaustive => None,
        },
        precision,
        recall,
        f1,
        stats: alignment.stats,
        seconds,
    }
}

fn render_json(concepts: usize, runs: &[Run]) -> String {
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"mode\":\"{}\",\"width\":{},\"precision\":{:.4},\"recall\":{:.4},\
                 \"f1\":{:.4},\"candidate_pairs\":{},\"admitted_pairs\":{},\
                 \"proposals\":{},\"matches\":{},\"seconds\":{:.4}}}",
                r.mode.name(),
                r.width
                    .map_or("\"exhaustive\"".to_owned(), |w| w.to_string()),
                r.precision,
                r.recall,
                r.f1,
                r.stats.candidate_pairs,
                r.stats.admitted_pairs,
                r.stats.proposals,
                r.stats.matches,
                r.seconds
            )
        })
        .collect();
    let mean = |m: MatchMode| {
        let sel: Vec<f64> = runs
            .iter()
            .filter(|r| r.mode == m && r.width.is_some())
            .map(|r| r.f1)
            .collect();
        sel.iter().sum::<f64>() / sel.len() as f64
    };
    let stable_f1 = mean(MatchMode::Stable);
    let greedy_f1 = mean(MatchMode::Greedy);
    format!(
        "{{\"workload\":{{\"concepts\":{concepts},\"strength\":{STRENGTH},\
         \"perturbation\":\"all\",\"mode\":\"full\",\"timing\":\"warm\"}},\
         \"runs\":[{}],\
         \"mean_greedy_f1\":{greedy_f1:.4},\"mean_stable_f1\":{stable_f1:.4},\
         \"stable_beats_greedy\":{}}}",
        rows.join(","),
        stable_f1 > greedy_f1
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (concepts, widths): (usize, &[usize]) = if smoke {
        (150, &[4, 8, 32])
    } else {
        (500, &[4, 8, 16, 32])
    };
    let (sst, source, target) = build_toolkit(concepts);
    println!(
        "align_bench: {concepts} concepts, strength {STRENGTH}, widths {widths:?} ({})",
        if smoke { "smoke" } else { "full" }
    );

    let mut runs = Vec::new();
    for &width in widths {
        for mode in [MatchMode::Greedy, MatchMode::Stable] {
            let run = run_one(
                &sst,
                &source,
                &target,
                mode,
                CandidateGen::Blocked { width },
                concepts,
            );
            println!(
                "  {:>6} width {width:>2}: P {:.4}  R {:.4}  F1 {:.4}  candidates {} ({:.1}% of n*m)  {:.3}s",
                run.mode.name(),
                run.precision,
                run.recall,
                run.f1,
                run.stats.candidate_pairs,
                100.0 * run.stats.candidate_pairs as f64 / (concepts * concepts) as f64,
                run.seconds
            );
            // The blocked generator must never materialize the rectangle,
            // and every source concept must get candidates.
            assert!(
                run.stats.candidate_pairs < concepts * concepts,
                "blocked candidate count reached n*m"
            );
            assert!(run.stats.candidate_pairs > 0, "empty candidate generation");
            assert_eq!(
                run.stats.sources_without_candidates, 0,
                "source concepts with empty candidate sets at width {width}"
            );
            runs.push(run);
        }
    }
    if !smoke {
        for mode in [MatchMode::Greedy, MatchMode::Stable] {
            let run = run_one(
                &sst,
                &source,
                &target,
                mode,
                CandidateGen::Exhaustive,
                concepts,
            );
            println!(
                "  {:>6} exhaustive: P {:.4}  R {:.4}  F1 {:.4}  {:.3}s",
                run.mode.name(),
                run.precision,
                run.recall,
                run.f1,
                run.seconds
            );
            runs.push(run);
        }
    }

    // Quality gates.
    for &width in widths {
        let f1_of = |m: MatchMode| {
            runs.iter()
                .find(|r| r.mode == m && r.width == Some(width))
                .map(|r| r.f1)
                .expect("run recorded")
        };
        assert!(
            f1_of(MatchMode::Stable) >= f1_of(MatchMode::Greedy),
            "stable F1 below greedy F1 at width {width}"
        );
    }
    let mean = |m: MatchMode| {
        let sel: Vec<f64> = runs
            .iter()
            .filter(|r| r.mode == m && r.width.is_some())
            .map(|r| r.f1)
            .collect();
        sel.iter().sum::<f64>() / sel.len() as f64
    };
    let (greedy_f1, stable_f1) = (mean(MatchMode::Greedy), mean(MatchMode::Stable));
    println!("  mean F1: greedy {greedy_f1:.4}  stable {stable_f1:.4}");
    assert!(
        stable_f1 > greedy_f1,
        "stable mean F1 {stable_f1:.4} does not beat greedy {greedy_f1:.4}"
    );
    let stable_precision = runs
        .iter()
        .filter(|r| r.mode == MatchMode::Stable && r.width.is_some())
        .map(|r| r.precision)
        .fold(f64::INFINITY, f64::min);
    assert!(
        stable_precision >= PRECISION_FLOOR,
        "stable precision {stable_precision:.4} below the {PRECISION_FLOOR} floor"
    );
    if smoke {
        println!("align_bench --smoke: blocking and matching contract holds (nothing written)");
        return;
    }

    let results = data_dir().join("../results");
    std::fs::create_dir_all(&results).expect("results dir");
    std::fs::write(
        results.join("BENCH_align.json"),
        render_json(concepts, &runs),
    )
    .expect("write BENCH_align");
    println!("(written to results/BENCH_align.json)");
}
