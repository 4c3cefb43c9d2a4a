//! ANN recall/latency self-audit: times the exact brute-force vector
//! scan (`most_similar_approx_with` at a full-corpus probe) against the
//! approximate graph path (`most_similar_approx`) on a seeded synthetic
//! corpus, measures recall@10 of the approximate ranking against the
//! exact one, and (full run only) writes `results/BENCH_ann.json`.
//!
//! Usage:
//! ```text
//! cargo run --release -p sst-bench --bin ann_bench            # full run (n≈10k, 1000 queries)
//! cargo run --release -p sst-bench --bin ann_bench -- --smoke # CI gate (small corpus, prints, writes nothing)
//! cargo run --release -p sst-bench --bin ann_bench -- --tune  # probe-width sweep (dev aid)
//! ```
//!
//! Both modes enforce the subsystem's contract: exact-store rankings
//! bit-identical to the facade's `most_similar` under the `dense_vector`
//! measure, recall@10 ≥ 0.95 at the default probe width, and (full mode
//! only, where the corpus is large enough for timing to mean anything)
//! a > 5x speedup of the approximate path over the exact scan.

use std::collections::HashSet;
use std::time::Instant;

use sst_bench::{data_dir, generate_taxonomy, SplitMix64, TaxonomySpec};
use sst_core::{measure_ids, ConceptAndSimilarity, ConceptSet, SstBuilder, SstToolkit};

/// Ranking depth audited by the recall measurement.
const K: usize = 10;
/// Timing repetitions per path; the median is reported.
const REPEATS: usize = 3;

fn build_toolkit(primary: usize, secondary: usize) -> SstToolkit {
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
    SstBuilder::new()
        .register_ontology(a)
        .expect("register primary")
        .register_ontology(b)
        .expect("register secondary")
        .build()
}

/// Seeded sample of query `(concept, ontology)` names from the store.
fn sample_queries(sst: &SstToolkit, count: usize, seed: u64) -> Vec<(String, String)> {
    let store = sst.vector_store();
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let row = rng.gen_range(0..store.len());
            let label = store.label(row).expect("sampled row exists");
            let (ontology, concept) = label.split_once(':').expect("qualified label");
            (concept.to_owned(), ontology.to_owned())
        })
        .collect()
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

fn key_set(ranked: &[ConceptAndSimilarity]) -> HashSet<(String, String)> {
    ranked
        .iter()
        .map(|r| (r.ontology.clone(), r.concept.clone()))
        .collect()
}

/// The exact top-K: the approximate path at a probe of the whole store.
fn exact(sst: &SstToolkit, concept: &str, ontology: &str) -> Vec<ConceptAndSimilarity> {
    let full = sst.vector_store().len();
    sst.most_similar_approx_with(concept, ontology, K, full)
        .expect("exact")
}

/// Recall@K of the approximate path at probe width `probe` against the exact scan.
fn recall_at_k(sst: &SstToolkit, queries: &[(String, String)], probe: usize) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for (concept, ontology) in queries {
        let exact = exact(sst, concept, ontology);
        let approx = sst
            .most_similar_approx_with(concept, ontology, K, probe)
            .expect("approx");
        let truth = key_set(&exact);
        hits += approx
            .iter()
            .filter(|r| truth.contains(&(r.ontology.clone(), r.concept.clone())))
            .count();
        total += exact.len();
    }
    hits as f64 / total as f64
}

/// Exact-store top-K must reproduce the facade's ranking bit for bit.
fn assert_exact_identity(sst: &SstToolkit, queries: &[(String, String)]) {
    for (concept, ontology) in queries {
        let naive = sst
            .most_similar(
                concept,
                ontology,
                &ConceptSet::All,
                K,
                measure_ids::DENSE_VECTOR_MEASURE,
            )
            .expect("facade rank");
        let dense = exact(sst, concept, ontology);
        assert_eq!(naive.len(), dense.len(), "{ontology}:{concept}");
        for (a, b) in naive.iter().zip(&dense) {
            assert!(
                a.concept == b.concept
                    && a.ontology == b.ontology
                    && a.similarity.to_bits() == b.similarity.to_bits(),
                "{ontology}:{concept}: exact store diverges from the facade ranking"
            );
        }
    }
}

fn render_json(
    concepts: usize,
    queries: usize,
    probe: usize,
    recall: f64,
    exact_s: f64,
    approx_s: f64,
) -> String {
    format!(
        "{{\"workload\":{{\"concepts\":{concepts},\"queries\":{queries},\"k\":{K},\
         \"probe\":{probe},\"repeats\":{REPEATS},\"mode\":\"full\"}},\
         \"recall_at_10\":{recall:.4},\
         \"exact_seconds\":{exact_s},\"approx_seconds\":{approx_s},\
         \"speedup\":{:.2},\"exact_bit_identical\":true}}",
        exact_s / approx_s
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let tune = std::env::args().any(|a| a == "--tune");
    let (primary, secondary, query_count) = if smoke {
        (700, 300, 150)
    } else {
        (7000, 3000, 1000)
    };
    let sst = build_toolkit(primary, secondary);
    let store = sst.vector_store();
    let concepts = store.len();
    let probe = store.default_probe();
    let queries = sample_queries(&sst, query_count, 0x5EED);
    println!(
        "ann_bench: {concepts} concepts, {query_count} queries, default probe {probe} ({})",
        if smoke { "smoke" } else { "full" }
    );

    if tune {
        for width in [8, 16, 24, 32, 48, 64, 96, 128, 192, 256] {
            if width >= concepts {
                break;
            }
            let recall = recall_at_k(&sst, &queries, width);
            let approx_s = time_median(|| {
                for (concept, ontology) in &queries {
                    std::hint::black_box(sst.most_similar_approx_with(concept, ontology, K, width))
                        .expect("approx");
                }
            });
            println!("  probe {width:>3}  recall@10 {recall:.4}  {approx_s:.4}s");
        }
        return;
    }

    // Audit a bounded sample here; the `ann_identity` suite owns
    // exhaustive identity coverage.
    let identity_sample = queries.len().min(50);
    assert_exact_identity(&sst, &queries[..identity_sample]);
    println!("  exact store bit-identical to the facade ranking on {identity_sample} queries");

    let recall = recall_at_k(&sst, &queries, probe);
    let exact_s = time_median(|| {
        for (concept, ontology) in &queries {
            std::hint::black_box(exact(&sst, concept, ontology));
        }
    });
    let approx_s = time_median(|| {
        for (concept, ontology) in &queries {
            std::hint::black_box(sst.most_similar_approx(concept, ontology, K)).expect("approx");
        }
    });
    let speedup = exact_s / approx_s;
    println!(
        "  recall@10 {recall:.4}  exact {exact_s:.4}s  approx {approx_s:.4}s  speedup {speedup:.2}x"
    );

    assert!(
        recall >= 0.95,
        "recall@10 {recall:.4} below the 0.95 floor at default probe {probe}"
    );
    if smoke {
        println!("ann_bench --smoke: exact identity and recall floor hold (nothing written)");
        return;
    }
    assert!(
        speedup > 5.0,
        "approximate path speedup {speedup:.2}x is not > 5x at n={concepts}"
    );

    let results = data_dir().join("../results");
    std::fs::create_dir_all(&results).expect("results dir");
    std::fs::write(
        results.join("BENCH_ann.json"),
        render_json(concepts, query_count, probe, recall, exact_s, approx_s),
    )
    .expect("write BENCH_ann");
    println!("(written to results/BENCH_ann.json)");
}
