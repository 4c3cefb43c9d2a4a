//! Cross-crate tests for the observability layer and the ranking/matrix
//! fixes that ride with it: NaN-safe `total_cmp` ordering in every k-best
//! path, the halved-triangle similarity matrix, and the metrics that the
//! facade records end to end.

use sst_core::{
    align, measure_ids as m, AlignmentConfig, CachedSimilarity, ConceptSet, MeasureRunner,
    RunnerInfo, SimilarityContext, SstBuilder, SstToolkit,
};
use sst_simpack::MeasureKind;
use sst_soqa::{GlobalConcept, OntologyBuilder, OntologyMetadata};

fn tiny_ontology(name: &str) -> sst_soqa::Ontology {
    let mut b = OntologyBuilder::new(OntologyMetadata {
        name: name.into(),
        language: "Test".into(),
        ..OntologyMetadata::default()
    });
    let thing = b.concept("Thing");
    for (child, parent) in [
        ("Person", "Thing"),
        ("Student", "Person"),
        ("Professor", "Person"),
        ("Course", "Thing"),
    ] {
        let c = b.concept(child);
        let p = b.concept(parent);
        b.add_subclass(c, p);
    }
    let _ = thing;
    b.build()
}

/// A pathological user-supplied measure: NaN whenever the query pair
/// involves a `Course`, a real score otherwise. Exercises exactly the
/// failure the `partial_cmp(..).unwrap_or(Equal)` sorts had: NaN used to
/// freeze wherever the sort left it, so rankings depended on input order.
#[derive(Debug)]
struct NanRunner;

impl MeasureRunner for NanRunner {
    fn info(&self) -> RunnerInfo {
        RunnerInfo {
            name: "nan_prone".into(),
            display: "NaN-prone".into(),
            kind: MeasureKind::String,
            normalized: true,
        }
    }

    fn similarity(&self, ctx: &SimilarityContext<'_>, a: GlobalConcept, b: GlobalConcept) -> f64 {
        if ctx.name(a) == "Course" || ctx.name(b) == "Course" {
            f64::NAN
        } else {
            f64::from(ctx.name(a) == ctx.name(b))
        }
    }
}

fn nan_toolkit() -> SstToolkit {
    SstBuilder::new()
        .register_ontology(tiny_ontology("uni"))
        .unwrap()
        .register_runner(Box::new(NanRunner))
        .build()
}

#[test]
fn nan_scores_rank_deterministically() {
    let sst = nan_toolkit();
    let id = sst.measure_id("nan_prone").unwrap();
    let ranked = sst
        .most_similar("Student", "uni", &ConceptSet::All, 5, id)
        .unwrap();
    assert_eq!(ranked.len(), 5);
    // `total_cmp` orders NaN above +inf, so the NaN row ranks first, then
    // the exact match, then the 0.0 scores in name order — always.
    assert_eq!(ranked[0].concept, "Course");
    assert!(ranked[0].similarity.is_nan());
    assert_eq!(ranked[1].concept, "Student");
    assert_eq!(ranked[1].similarity, 1.0);
    let tail: Vec<&str> = ranked[2..].iter().map(|r| r.concept.as_str()).collect();
    assert_eq!(tail, ["Person", "Professor", "Thing"]);
    // Every shorter ranking is a prefix of the full one, the cut included.
    for k in 1..=4 {
        let top = sst
            .most_similar("Student", "uni", &ConceptSet::All, k, id)
            .unwrap();
        assert_same_shape(&top, &ranked[..k]);
    }
}

/// Names in order, and NaN positions (NaN != NaN, so the scores are
/// compared by bits).
fn assert_same_shape(a: &[sst_core::ConceptAndSimilarity], b: &[sst_core::ConceptAndSimilarity]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!((&x.concept, &x.ontology), (&y.concept, &y.ontology));
        assert_eq!(x.similarity.to_bits(), y.similarity.to_bits());
    }
}

#[test]
fn cached_and_direct_paths_rank_nan_identically() {
    let sst = nan_toolkit();
    let id = sst.measure_id("nan_prone").unwrap();
    for k in 1..=5 {
        let direct = sst
            .most_similar("Student", "uni", &ConceptSet::All, k, id)
            .unwrap();
        let cache = CachedSimilarity::new(&sst);
        let cached = cache
            .most_similar("Student", "uni", &ConceptSet::All, k, id)
            .unwrap();
        assert_same_shape(&cached, &direct);
        // Second cached run (memo warm) must not reshuffle either.
        let warm = cache
            .most_similar("Student", "uni", &ConceptSet::All, k, id)
            .unwrap();
        assert_same_shape(&warm, &direct);
    }
}

#[test]
fn most_dissimilar_handles_nan() {
    let sst = nan_toolkit();
    let id = sst.measure_id("nan_prone").unwrap();
    let ranked = sst
        .most_dissimilar("Student", "uni", &ConceptSet::All, 5, id)
        .unwrap();
    // Ascending total order: finite scores first, the NaN row last.
    assert_eq!(ranked.len(), 5);
    assert!(ranked[4].similarity.is_nan());
    assert_eq!(ranked[4].concept, "Course");
    for k in 1..=4 {
        let bottom = sst
            .most_dissimilar("Student", "uni", &ConceptSet::All, k, id)
            .unwrap();
        assert_same_shape(&bottom, &ranked[..k]);
        assert!(bottom.iter().all(|r| !r.similarity.is_nan()), "k {k}");
    }
}

// ---- matrix triangle + mirror ---------------------------------------------

#[test]
fn matrix_is_symmetric_and_matches_pairwise_calls() {
    let sst = SstBuilder::new()
        .register_ontology(tiny_ontology("uni"))
        .unwrap()
        .register_ontology(tiny_ontology("lib"))
        .unwrap()
        .build();
    let (labels, matrix) = sst
        .similarity_matrix(&ConceptSet::All, m::CONCEPTUAL_SIMILARITY_MEASURE)
        .unwrap();
    let n = labels.len();
    assert!(n >= 10, "two ontologies plus Super Thing, got {n}");
    for (i, row) in matrix.iter().enumerate() {
        assert_eq!(row.len(), n);
        for (j, &v) in row.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                matrix[j][i].to_bits(),
                "asymmetry at ({i}, {j})"
            );
        }
    }
    // Bit-identical to the full n² computation through the pairwise service.
    let concepts = sst.concept_set(&ConceptSet::All).unwrap();
    for (i, label_row) in matrix.iter().enumerate() {
        for (j, &v) in label_row.iter().enumerate() {
            let a = concepts[i];
            let b = concepts[j];
            let direct = sst
                .get_similarity(
                    &sst.soqa().concept(a).name,
                    sst.soqa().ontology_at(a.ontology).name(),
                    &sst.soqa().concept(b).name,
                    sst.soqa().ontology_at(b.ontology).name(),
                    m::CONCEPTUAL_SIMILARITY_MEASURE,
                )
                .unwrap();
            assert_eq!(v.to_bits(), direct.to_bits(), "cell ({i}, {j})");
        }
    }
}

#[test]
fn parallel_matrix_matches_serial_bit_for_bit() {
    let sst = SstBuilder::new()
        .register_ontology(tiny_ontology("uni"))
        .unwrap()
        .build();
    for measure in [
        m::LEVENSHTEIN_MEASURE,
        m::CONCEPTUAL_SIMILARITY_MEASURE,
        m::LIN_MEASURE,
        m::TFIDF_MEASURE,
    ] {
        let (serial_labels, serial) = sst.similarity_matrix(&ConceptSet::All, measure).unwrap();
        let (par_labels, parallel) = sst
            .similarity_matrix_parallel(&ConceptSet::All, measure, 3)
            .unwrap();
        assert_eq!(serial_labels, par_labels);
        for (srow, prow) in serial.iter().zip(&parallel) {
            for (&s, &p) in srow.iter().zip(prow) {
                assert_eq!(s.to_bits(), p.to_bits());
            }
        }
    }
}

#[test]
fn matrix_computes_only_the_upper_triangle() {
    let sst = SstBuilder::new()
        .register_ontology(tiny_ontology("uni"))
        .unwrap()
        .build();
    let (labels, _) = sst
        .similarity_matrix(&ConceptSet::All, m::LEVENSHTEIN_MEASURE)
        .unwrap();
    let n = labels.len() as u64;
    let snap = sst.metrics().snapshot();
    assert_eq!(
        snap.counter("core.matrix.pairs"),
        Some(n * (n + 1) / 2),
        "matrix should cost n(n+1)/2 runner calls, not n²"
    );
    assert_eq!(
        snap.counter("core.pair.calls.levenshtein"),
        Some(n * (n + 1) / 2)
    );
}

// ---- facade metrics end to end --------------------------------------------

#[test]
fn metrics_report_covers_measures_cache_and_index() {
    let sst = SstBuilder::new()
        .register_ontology(tiny_ontology("uni"))
        .unwrap()
        .build();
    sst.most_similar("Student", "uni", &ConceptSet::All, 3, m::LIN_MEASURE)
        .unwrap();
    sst.similarity_matrix(&ConceptSet::All, m::LIN_MEASURE)
        .unwrap();
    let cache = CachedSimilarity::new(&sst);
    for _ in 0..2 {
        cache
            .get_similarity("Student", "uni", "Person", "uni", m::LIN_MEASURE)
            .unwrap();
    }

    let snap = sst.metrics().snapshot();
    // Per-measure traffic: the ranking pass ran once, pair latency is
    // recorded per ranked pair, the matrix pass counted its pairs in bulk.
    assert_eq!(snap.counter("core.rank.calls.lin"), Some(1));
    assert_eq!(snap.histogram("core.rank.latency.lin").unwrap().count, 1);
    assert_eq!(snap.counter("core.matrix.calls.lin"), Some(1));
    let pair_latency = snap.histogram("core.pair.latency.lin").unwrap();
    assert!(pair_latency.count >= 6, "got {}", pair_latency.count);
    assert!(pair_latency.sum_seconds >= 0.0);
    // Cache traffic flows into the shared registry.
    assert_eq!(snap.counter("core.cache.misses"), Some(1));
    assert_eq!(snap.counter("core.cache.hits"), Some(1));
    // Toolkit construction indexed every concept and timed itself.
    assert_eq!(snap.counter("index.docs"), Some(5));
    assert!(snap.counter("index.tokens").unwrap_or(0) > 0);
    assert_eq!(snap.histogram("core.build.latency").unwrap().count, 1);

    // The JSON report carries the same data.
    let report = sst.metrics_report();
    assert!(report.starts_with('{') && report.ends_with('}'));
    assert!(report.contains("\"core.rank.calls.lin\":1"));
    assert!(report.contains("core.cache.hits"));
}

#[test]
fn a_snapshot_load_records_its_build_as_a_cold_build_does() {
    let cold = SstBuilder::new()
        .register_ontology(tiny_ontology("uni"))
        .unwrap()
        .register_ontology(tiny_ontology("lib"))
        .unwrap()
        .build();
    let loaded =
        SstToolkit::import_snapshot(&cold.export_snapshot(), &sst_limits::Limits::default())
            .unwrap();
    let (a, b) = (cold.metrics().snapshot(), loaded.metrics().snapshot());
    // Every counter reads the same: the index's document, vocabulary and
    // token counts, the vector store's and the concept table's sizes,
    // and the zeroed per-measure counters.
    assert_eq!(a.counters, b.counters);
    for name in [
        "index.docs",
        "index.terms",
        "index.tokens",
        "core.vector.concepts",
        "core.prepare.concepts",
    ] {
        assert!(b.counter(name).unwrap_or(0) > 0, "{name} is not recorded");
    }
    assert_eq!(b.counter("index.docs"), Some(10));
    // The same histograms, each with one build's samples.
    let counts = |s: &sst_core::MetricsSnapshot| -> Vec<(String, u64)> {
        s.histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.count))
            .collect()
    };
    assert_eq!(counts(&a), counts(&b));
    assert_eq!(b.histogram("core.build.latency").unwrap().count, 1);
    // The loaded index records its searches into the toolkit's registry.
    assert_eq!(loaded.index().search("student", 3).len(), 2);
    let after = loaded.metrics().snapshot();
    assert_eq!(after.counter("index.search.calls"), Some(1));
    assert_eq!(after.histogram("index.search.latency").unwrap().count, 1);
}

#[test]
fn soqa_ql_queries_are_timed_through_the_facade() {
    let sst = SstBuilder::new()
        .register_ontology(tiny_ontology("uni"))
        .unwrap()
        .build();
    sst.query("SELECT name FROM concepts").unwrap();
    assert!(sst.query("SELECT nonsense FROM").is_err());
    let snap = sst.metrics().snapshot();
    assert_eq!(snap.counter("soqa.ql.queries"), Some(2));
    assert_eq!(snap.counter("soqa.ql.errors"), Some(1));
    assert_eq!(snap.histogram("soqa.ql.parse.latency").unwrap().count, 2);
    assert_eq!(snap.histogram("soqa.ql.eval.latency").unwrap().count, 1);
}

#[test]
fn alignment_times_its_candidate_generation_inside_its_latency() {
    let sst = SstBuilder::new()
        .register_ontology(tiny_ontology("uni"))
        .unwrap()
        .register_ontology(tiny_ontology("lib"))
        .unwrap()
        .build();
    // (count, nanoseconds) of a histogram; the registry keeps whole
    // nanoseconds, so rounding the seconds back recovers them exactly.
    let read = |name: &str| {
        sst.metrics()
            .snapshot()
            .histogram(name)
            .map_or((0, 0), |h| (h.count, (h.sum_seconds * 1e9).round() as u64))
    };
    for _ in 0..3 {
        let (blocking_n, blocking_ns) = read("core.align.blocking.latency");
        let (align_n, align_ns) = read("core.align.latency");
        let result = align(&sst, "uni", "lib", &AlignmentConfig::default()).unwrap();
        assert!(!result.is_empty());
        let (blocking_n2, blocking_ns2) = read("core.align.blocking.latency");
        let (align_n2, align_ns2) = read("core.align.latency");
        assert_eq!(
            blocking_n2 - blocking_n,
            1,
            "one blocking observation per alignment"
        );
        assert_eq!(align_n2 - align_n, 1);
        assert!(
            blocking_ns2 - blocking_ns <= align_ns2 - align_ns,
            "candidate generation ({} ns) outlasted its alignment ({} ns)",
            blocking_ns2 - blocking_ns,
            align_ns2 - align_ns
        );
    }
}
