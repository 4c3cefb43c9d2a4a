//! Identity and determinism suite for the dense-vector retrieval
//! subsystem (`VectorStore` + NSW-lite proximity graph).
//!
//! The invariants pinned here are what makes the approximate path
//! trustworthy at all:
//!
//! 1. **Exact-store == naive scan, bitwise.** A probe width of the whole
//!    corpus (the brute-force scan over the embedding matrix) must
//!    reproduce the per-pair oracle's `most_similar` under the
//!    `dense_vector` measure over `ConceptSet::All` exactly — same
//!    concepts, same order, same `f64` bits — for every query and every
//!    `k`.
//! 2. **Deterministic tie-breaking.** All k-best entry points share one
//!    comparator (score, then ascending `(ontology, concept)` name), so
//!    truncation at `k` is stable across rebuilds and paths.
//! 3. **Full-probe == exact.** The full-probe store scan equals the
//!    toolkit's `most_similar` under `measure_ids::DENSE_VECTOR_MEASURE`,
//!    bit for bit.
//! 4. **Format round-trip.** `export_vectors` → `import_vectors`
//!    reproduces the store (and its rankings) exactly; corrupted bytes,
//!    and rows that are non-finite or neither zero nor unit under a valid
//!    checksum, are structured errors, never panics.
//! 5. **Recall floor.** Default-probe recall@10 stays ≥ 0.95 on a
//!    seeded corpus (the full self-audit lives in `ann_bench`).
//! 6. **The graph algorithm is fixed.** `approx_candidates` equals the
//!    reference NSW construction and two-heap search
//!    (`sst_bench::oracle::NswOracle`) — rows, order and score bits —
//!    for every row at probes {1, 12, 96, n−1}.

use sst_bench::oracle::{self, oracle, NswOracle};
use sst_bench::sealed;
use sst_bench::{generate_taxonomy, load_corpus, SplitMix64, TaxonomySpec};
use sst_core::{
    embed_tfidf, measure_ids, ConceptAndSimilarity, ConceptSet, SstBuilder, SstError, SstToolkit,
    TreeMode, VectorStore, EMBED_DIM,
};
use sst_index::TermId;
use sst_soqa::{ConceptId, GlobalConcept};

/// Two-ontology synthetic corpus: rankings cross ontology boundaries and
/// the documentation strings give the TF-IDF embeddings real signal. The
/// oracle runners are registered after the built-in measures.
fn toolkit(primary: usize, secondary: usize, seed: u64) -> SstToolkit {
    let a = generate_taxonomy(TaxonomySpec {
        concepts: primary,
        branching: 4,
        instances: primary / 2,
        seed,
    });
    let b = generate_taxonomy(TaxonomySpec {
        concepts: secondary,
        branching: 6,
        instances: secondary / 4,
        seed: seed.wrapping_mul(31).wrapping_add(7),
    });
    let builder = SstBuilder::new()
        .register_ontology(a)
        .expect("register primary")
        .register_ontology(b)
        .expect("register secondary");
    oracle::register(builder).build()
}

/// The exact top-`k` dense ranking: the approximate path probing every
/// row of the store.
fn exact(sst: &SstToolkit, concept: &str, ontology: &str, k: usize) -> Vec<ConceptAndSimilarity> {
    let full = sst.vector_store().len();
    sst.most_similar_approx_with(concept, ontology, k, full)
        .expect("full probe")
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

fn assert_bit_identical(what: &str, a: &[ConceptAndSimilarity], b: &[ConceptAndSimilarity]) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            (&ra.concept, &ra.ontology),
            (&rb.concept, &rb.ontology),
            "{what}: concept mismatch at rank {i}"
        );
        assert_eq!(
            ra.similarity.to_bits(),
            rb.similarity.to_bits(),
            "{what}: score bits diverge at rank {i}: {} vs {}",
            ra.similarity,
            rb.similarity
        );
    }
}

#[test]
fn exact_store_matches_naive_facade_scan_bitwise() {
    let sst = toolkit(180, 90, 11);
    for (concept, ontology) in sample_queries(&sst, 24, 0xA11CE) {
        for k in [1, 5, 10, 100_000] {
            let naive = sst
                .most_similar(
                    &concept,
                    &ontology,
                    &ConceptSet::All,
                    k,
                    oracle(measure_ids::DENSE_VECTOR_MEASURE),
                )
                .expect("naive rank");
            let dense = exact(&sst, &concept, &ontology, k);
            assert_bit_identical(&format!("{ontology}:{concept} k={k}"), &naive, &dense);
            // The query itself is always rank 0 at exactly 1.0.
            assert_eq!(dense[0].concept, concept);
            assert_eq!(dense[0].similarity, 1.0);
        }
    }
}

#[test]
fn rankings_are_deterministic_across_rebuilds() {
    let a = toolkit(150, 60, 23);
    let b = toolkit(150, 60, 23);
    for (concept, ontology) in sample_queries(&a, 12, 0xBEEF) {
        let ra = exact(&a, &concept, &ontology, 25);
        let rb = exact(&b, &concept, &ontology, 25);
        assert_bit_identical("rebuild determinism", &ra, &rb);
        let aa = a.most_similar_approx(&concept, &ontology, 25).expect("a");
        let ab = b.most_similar_approx(&concept, &ontology, 25).expect("b");
        assert_bit_identical("rebuild determinism (approx)", &aa, &ab);
    }
}

#[test]
fn tie_break_orders_equal_scores_by_name() {
    // Self-similarity 1.0 is shared by every concept under the identity
    // guard only for the query; but equal scores do occur (e.g. zero
    // embeddings all score 0.0). Assert the documented order directly:
    // within any run of equal scores the results ascend by
    // (ontology, concept).
    let sst = toolkit(160, 80, 5);
    for (concept, ontology) in sample_queries(&sst, 8, 0x7E1) {
        let ranked = sst
            .most_similar(
                &concept,
                &ontology,
                &ConceptSet::All,
                100_000,
                measure_ids::DENSE_VECTOR_MEASURE,
            )
            .expect("rank");
        for pair in ranked.windows(2) {
            if pair[0].similarity == pair[1].similarity {
                let left = (&pair[0].ontology, &pair[0].concept);
                let right = (&pair[1].ontology, &pair[1].concept);
                assert!(left < right, "ties out of order: {left:?} !< {right:?}");
            }
        }
        // Dissimilar uses the same tie rule under the ascending order.
        let dis = sst
            .most_dissimilar(
                &concept,
                &ontology,
                &ConceptSet::All,
                100_000,
                measure_ids::DENSE_VECTOR_MEASURE,
            )
            .expect("dissimilar rank");
        for pair in dis.windows(2) {
            if pair[0].similarity == pair[1].similarity {
                let left = (&pair[0].ontology, &pair[0].concept);
                let right = (&pair[1].ontology, &pair[1].concept);
                assert!(left < right, "ties out of order: {left:?} !< {right:?}");
            }
        }
    }
}

#[test]
fn full_probe_approx_degenerates_to_exact() {
    let sst = toolkit(200, 100, 31);
    for (concept, ontology) in sample_queries(&sst, 12, 0xF00D) {
        let ranked = sst
            .most_similar(
                &concept,
                &ontology,
                &ConceptSet::All,
                50,
                measure_ids::DENSE_VECTOR_MEASURE,
            )
            .expect("exact rank");
        let probed = exact(&sst, &concept, &ontology, 50);
        assert_bit_identical("full probe vs exact", &ranked, &probed);
    }
}

#[test]
fn approx_contains_query_at_rank_zero() {
    let sst = toolkit(200, 100, 31);
    for (concept, ontology) in sample_queries(&sst, 16, 0xCAFE) {
        let ranked = sst
            .most_similar_approx(&concept, &ontology, 10)
            .expect("approx rank");
        assert_eq!(ranked[0].concept, concept, "query missing from own cell");
        assert_eq!(ranked[0].similarity, 1.0);
    }
}

#[test]
fn vector_file_round_trips_and_rejects_corruption() {
    let sst = toolkit(120, 40, 47);
    let bytes = sst.export_vectors();
    let limits = sst_limits::Limits::default();

    let imported = sst.import_vectors(&bytes, &limits).expect("round trip");
    let store = sst.vector_store();
    assert_eq!(imported.len(), store.len());
    assert_eq!(imported.dim(), store.dim());
    for row in 0..store.len() {
        assert_eq!(imported.label(row), store.label(row));
        let (a, b) = (imported.row(row), store.row(row));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "row {row} bits diverge");
        }
    }

    // Every single-byte flip must be caught (checksum first), and every
    // truncation must fail structured — never a panic.
    let mut rng = SplitMix64::seed_from_u64(0xC0DE);
    for _ in 0..32 {
        let mut corrupt = bytes.clone();
        let at = rng.gen_range(0..corrupt.len());
        corrupt[at] ^= 0x41;
        let err = sst.import_vectors(&corrupt, &limits).expect_err("corrupt");
        assert!(matches!(err, SstError::InvalidArgument(_)), "{err}");
    }
    for cut in [0, 1, 7, 8, 20, bytes.len() - 1] {
        let err = sst
            .import_vectors(&bytes[..cut], &limits)
            .expect_err("truncated");
        assert!(matches!(err, SstError::InvalidArgument(_)), "{err}");
    }

    // A file whose checksum is valid but whose row values are not must be
    // refused too, naming the row: a NaN component, then a row scaled by
    // 2. Both would otherwise import and score (NaN ranked above the
    // query itself).
    let row = (0..store.len())
        .find(|&r| store.row(r).iter().any(|&v| v != 0.0))
        .expect("a described concept");
    let dim = store.dim();
    let start = 8
        + 4
        + 8
        + (0..row)
            .map(|r| 4 + store.label(r).expect("label").len() + 8 * dim)
            .sum::<usize>()
        + 4
        + store.label(row).expect("label").len();
    let reseal = |edit: &dyn Fn(&mut [u8])| {
        sealed::reseal(&bytes, |body| edit(&mut body[start..start + 8 * dim]))
    };
    assert!(sst.import_vectors(&reseal(&|_| {}), &limits).is_ok());
    let nan = reseal(&|v| v[..8].copy_from_slice(&f64::NAN.to_le_bytes()));
    let doubled = reseal(&|v| {
        for c in v.chunks_mut(8) {
            let x = f64::from_le_bytes(c.try_into().expect("8 bytes"));
            c.copy_from_slice(&(2.0 * x).to_le_bytes());
        }
    });
    for (what, file) in [("NaN component", nan), ("row scaled by 2", doubled)] {
        let err = sst.import_vectors(&file, &limits).expect_err(what);
        assert!(matches!(err, SstError::InvalidArgument(_)), "{what}: {err}");
        assert!(
            err.to_string().contains(&format!("row {row} ")),
            "{what}: error does not name row {row}: {err}"
        );
    }

    // Imported stores score identically to the original.
    let mut rng = SplitMix64::seed_from_u64(0xD1CE);
    for _ in 0..6 {
        let qrow = rng.gen_range(0..store.len());
        let a = store.scores_exact(qrow);
        let b = imported.scores_exact(qrow);
        assert_eq!(a.len(), b.len());
        for ((ra, sa), (rb, sb)) in a.iter().zip(&b) {
            assert_eq!(ra, rb);
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }
}

#[test]
fn default_probe_recall_stays_high() {
    let sst = toolkit(600, 300, 3);
    let queries = sample_queries(&sst, 200, 0x5EED);
    let mut hits = 0usize;
    let mut total = 0usize;
    for (concept, ontology) in &queries {
        let exact = exact(&sst, concept, ontology, 10);
        let approx = sst
            .most_similar_approx(concept, ontology, 10)
            .expect("approx");
        let truth: std::collections::HashSet<(&str, &str)> = exact
            .iter()
            .map(|r| (r.concept.as_str(), r.ontology.as_str()))
            .collect();
        hits += approx
            .iter()
            .filter(|r| truth.contains(&(r.concept.as_str(), r.ontology.as_str())))
            .count();
        total += exact.len();
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.95, "recall@10 {recall:.3} below the 0.95 floor");
}

/// `approx_candidates` of every row at probes {1, 12, 96, n−1} equals the
/// reference graph's: same rows, same order, same score bits.
fn assert_matches_nsw_oracle(what: &str, store: &VectorStore) {
    let reference = NswOracle::build(store);
    let n = store.len();
    for probe in [1, 12, 96, n - 1] {
        for query in 0..n {
            let got = store.approx_candidates(query, probe);
            let want = reference.approx_candidates(store, query, probe);
            assert_eq!(
                got.len(),
                want.len(),
                "{what}: query {query} probe {probe}: length"
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.0, w.0, "{what}: query {query} probe {probe}: row at {i}");
                assert_eq!(
                    g.1.to_bits(),
                    w.1.to_bits(),
                    "{what}: query {query} probe {probe}: score bits at {i}: {} vs {}",
                    g.1,
                    w.1
                );
            }
        }
    }
}

#[test]
fn approx_candidates_match_the_nsw_oracle_on_the_paper_corpus() {
    for mode in [TreeMode::SuperThing, TreeMode::MergedThing] {
        let sst = load_corpus(mode, false);
        assert_matches_nsw_oracle(&format!("paper corpus {mode:?}"), sst.vector_store());
    }
}

#[test]
fn approx_candidates_match_the_nsw_oracle_with_duplicate_and_zero_rows() {
    // 1 100 seeded TF-IDF embeddings over a 300-term vocabulary. Every
    // 9th row repeats an earlier row's terms (equal dots, so only the row
    // tie-break orders them) and every 23rd row is empty (the zero
    // vector, which dots to 0 against everything).
    let mut rng = SplitMix64::seed_from_u64(0x0A11_6E0D);
    let mut docs: Vec<Vec<(TermId, f64)>> = Vec::new();
    for i in 0..1100usize {
        let doc = if i % 23 == 22 {
            Vec::new()
        } else if i % 9 == 8 {
            docs[rng.gen_range(0..i)].clone()
        } else {
            (0..1 + rng.gen_range(0..6))
                .map(|_| {
                    let term = TermId(rng.gen_range(0..300) as u32);
                    (term, 0.25 + rng.gen_range(0..100) as f64 / 40.0)
                })
                .collect()
        };
        docs.push(doc);
    }
    let rows: Vec<(GlobalConcept, String, Vec<f64>)> = docs
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            let gc = GlobalConcept {
                ontology: 0,
                concept: ConceptId(i as u32),
            };
            (gc, format!("o:c{i}"), embed_tfidf(doc, EMBED_DIM))
        })
        .collect();
    let zeros = rows
        .iter()
        .filter(|r| r.2.iter().all(|&v| v == 0.0))
        .count();
    let distinct: std::collections::HashSet<Vec<u64>> = rows
        .iter()
        .map(|r| r.2.iter().map(|v| v.to_bits()).collect())
        .collect();
    assert!(zeros >= 40, "only {zeros} zero rows");
    assert!(
        distinct.len() + 100 <= rows.len(),
        "only {} duplicate rows",
        rows.len() - distinct.len()
    );
    let store = VectorStore::from_rows(rows, EMBED_DIM);
    assert_matches_nsw_oracle("seeded store", &store);
}
