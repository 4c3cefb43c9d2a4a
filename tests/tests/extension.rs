//! The paper's extension points, exercised end to end: registering a
//! supplementary `MeasureRunner` (including a *combined* measure, §5's
//! future work) and plugging a new "language" in through the SOQA meta
//! model.

use sst_core::{
    measure_ids as m, ConceptSet, MeasureRunner, RunnerInfo, SimilarityContext, SstBuilder,
    SstError,
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
    let person = b.concept("Person");
    let student = b.concept("Student");
    let professor = b.concept("Professor");
    b.add_subclass(person, thing);
    b.add_subclass(student, person);
    b.add_subclass(professor, person);
    b.build()
}

/// A user-supplied measure: exact-name equality.
#[derive(Debug)]
struct NameEqualityRunner;

impl MeasureRunner for NameEqualityRunner {
    fn info(&self) -> RunnerInfo {
        RunnerInfo {
            name: "name_equality".into(),
            display: "Name Equality".into(),
            kind: MeasureKind::String,
            normalized: true,
        }
    }

    fn similarity(&self, ctx: &SimilarityContext<'_>, a: GlobalConcept, b: GlobalConcept) -> f64 {
        f64::from(ctx.name(a) == ctx.name(b))
    }
}

/// A *combined* measure amalgamating two basic ones (Ehrig et al.'s layer
/// combination, §5): average of Wu-Palmer and name equality.
#[derive(Debug)]
struct CombinedRunner;

impl MeasureRunner for CombinedRunner {
    fn info(&self) -> RunnerInfo {
        RunnerInfo {
            name: "combined".into(),
            display: "Combined (structure + name)".into(),
            kind: MeasureKind::Graph,
            normalized: true,
        }
    }

    fn similarity(&self, ctx: &SimilarityContext<'_>, a: GlobalConcept, b: GlobalConcept) -> f64 {
        let structural = sst_simpack::wu_palmer_similarity_rooted(
            ctx.tree.taxonomy(),
            ctx.tree.node(a),
            ctx.tree.node(b),
        );
        let lexical = f64::from(ctx.name(a) == ctx.name(b));
        (structural + lexical) / 2.0
    }
}

#[test]
fn custom_runner_registers_and_runs() {
    let sst = SstBuilder::new()
        .register_ontology(tiny_ontology("a"))
        .unwrap()
        .register_ontology(tiny_ontology("b"))
        .unwrap()
        .register_runner(Box::new(NameEqualityRunner))
        .build();
    let id = sst.measure_id("name_equality").expect("registered");
    assert_eq!(id, sst.measure_count() - 1);
    assert_eq!(
        sst.get_similarity("Student", "a", "Student", "b", id)
            .unwrap(),
        1.0
    );
    assert_eq!(
        sst.get_similarity("Student", "a", "Professor", "b", id)
            .unwrap(),
        0.0
    );
}

#[test]
fn combined_runner_blends_families() {
    let sst = SstBuilder::new()
        .register_ontology(tiny_ontology("a"))
        .unwrap()
        .register_ontology(tiny_ontology("b"))
        .unwrap()
        .register_runner(Box::new(CombinedRunner))
        .build();
    let combined = sst.measure_id("combined").unwrap();
    // Same name across ontologies: lexical 1, structural small → in between.
    let v = sst
        .get_similarity("Student", "a", "Student", "b", combined)
        .unwrap();
    assert!(v > 0.5 && v < 1.0, "got {v}");
    // Custom measures drive every service, not just pairwise calls.
    let top = sst
        .most_similar("Student", "a", &ConceptSet::All, 3, combined)
        .unwrap();
    assert_eq!(top[0].concept, "Student");
    assert_eq!(top[0].ontology, "a");
    assert_eq!(top[1].concept, "Student");
    assert_eq!(top[1].ontology, "b");
}

#[test]
fn default_registry_is_stable() {
    // The paper-style integer constants must keep pointing at the right
    // measures, with the same metadata — this pins the registration order
    // and every built-in's name, display name, kind and normalization.
    let sst = SstBuilder::new()
        .register_ontology(tiny_ontology("a"))
        .unwrap()
        .build();
    use MeasureKind::*;
    let expected = [
        (m::COSINE_MEASURE, "cosine", "Cosine", Vector, true),
        (
            m::JACCARD_MEASURE,
            "jaccard",
            "Extended Jaccard",
            Vector,
            true,
        ),
        (m::OVERLAP_MEASURE, "overlap", "Overlap", Vector, true),
        (m::DICE_MEASURE, "dice", "Dice", Vector, true),
        (
            m::LEVENSHTEIN_MEASURE,
            "levenshtein",
            "Levenshtein",
            Sequence,
            true,
        ),
        (m::JARO_MEASURE, "jaro", "Jaro", String, true),
        (
            m::JARO_WINKLER_MEASURE,
            "jaro_winkler",
            "Jaro-Winkler",
            String,
            true,
        ),
        (m::QGRAM_MEASURE, "qgram", "Q-Gram", String, true),
        (
            m::MONGE_ELKAN_MEASURE,
            "monge_elkan",
            "Monge-Elkan",
            String,
            true,
        ),
        (
            m::SHORTEST_PATH_MEASURE,
            "shortest_path",
            "Shortest Path",
            Graph,
            true,
        ),
        (m::EDGE_MEASURE, "edge", "Edge Counting", Graph, true),
        (
            m::CONCEPTUAL_SIMILARITY_MEASURE,
            "wu_palmer",
            "Conceptual Similarity",
            Graph,
            true,
        ),
        (
            m::RESNIK_MEASURE,
            "resnik",
            "Resnik",
            InformationTheoretic,
            false,
        ),
        (m::LIN_MEASURE, "lin", "Lin", InformationTheoretic, true),
        (
            m::JIANG_CONRATH_MEASURE,
            "jiang_conrath",
            "Jiang-Conrath",
            InformationTheoretic,
            true,
        ),
        (m::TFIDF_MEASURE, "tfidf", "TFIDF", FullText, true),
        (
            m::TREE_EDIT_MEASURE,
            "tree_edit",
            "Tree Edit Distance",
            Tree,
            true,
        ),
        (
            m::NEEDLEMAN_WUNSCH_MEASURE,
            "needleman_wunsch",
            "Needleman-Wunsch",
            Sequence,
            true,
        ),
        (
            m::SMITH_WATERMAN_MEASURE,
            "smith_waterman",
            "Smith-Waterman",
            Sequence,
            true,
        ),
        (
            m::DENSE_VECTOR_MEASURE,
            "dense_vector",
            "Dense Vector",
            Vector,
            true,
        ),
    ];
    assert_eq!(sst.measure_count(), expected.len());
    assert_eq!(sst.measures().len(), expected.len());
    for (id, (constant, name, display, kind, normalized)) in expected.into_iter().enumerate() {
        assert_eq!(constant, id, "{name}");
        let info = sst.measure_info(constant).unwrap();
        assert_eq!(
            info,
            RunnerInfo {
                name: name.into(),
                display: display.into(),
                kind,
                normalized,
            }
        );
        assert_eq!(sst.measures()[id], info);
        assert_eq!(sst.measure_id(name).unwrap(), constant);
    }
}

/// A "new ontology language" needs no SST change: anything mapped onto the
/// SOQA meta model participates in every measure (here: a fake in-memory
/// format — the same path a CYC or Ontolingua wrapper would take).
#[test]
fn new_language_via_meta_model_only() {
    let mut b = OntologyBuilder::new(OntologyMetadata {
        name: "cyc_like".into(),
        language: "CycL".into(),
        ..OntologyMetadata::default()
    });
    let thing = b.concept("Thing");
    let agent = b.concept("IntelligentAgent");
    b.add_subclass(agent, thing);
    let sst = SstBuilder::new()
        .register_ontology(b.build())
        .unwrap()
        .register_ontology(tiny_ontology("uni"))
        .unwrap()
        .build();
    let v = sst
        .get_similarity(
            "IntelligentAgent",
            "cyc_like",
            "Person",
            "uni",
            m::SHORTEST_PATH_MEASURE,
        )
        .unwrap();
    assert!(v > 0.0);
}

/// A user measure that panics on one pair, `{C3, C17}`, and scores 0.5
/// everywhere else.
#[derive(Debug)]
struct PanicsOnOnePair;

impl MeasureRunner for PanicsOnOnePair {
    fn info(&self) -> RunnerInfo {
        RunnerInfo {
            name: "panics_on_one_pair".into(),
            display: "Panics on one pair".into(),
            kind: MeasureKind::String,
            normalized: true,
        }
    }

    fn similarity(&self, ctx: &SimilarityContext<'_>, a: GlobalConcept, b: GlobalConcept) -> f64 {
        let mut pair = [ctx.name(a), ctx.name(b)];
        pair.sort_unstable();
        assert_ne!(pair, ["C17", "C3"], "the one pair this runner fails on");
        0.5
    }
}

/// The scheduler fan-out's dead-worker contract: a worker thread that
/// dies fails the parallel matrix with `SstError::Internal`, never a
/// partial matrix, and records no scheduler run; the same toolkit then
/// answers a built-in parallel matrix and a ranking normally.
#[test]
fn a_dead_scheduler_worker_fails_the_call_and_spares_the_toolkit() {
    let mut b = OntologyBuilder::new(OntologyMetadata {
        name: "wide".into(),
        language: "Test".into(),
        ..OntologyMetadata::default()
    });
    let root = b.concept("C0");
    for i in 1..20 {
        let c = b.concept(&format!("C{i}"));
        b.add_subclass(c, root);
    }
    let sst = SstBuilder::new()
        .register_ontology(b.build())
        .unwrap()
        .register_runner(Box::new(PanicsOnOnePair))
        .build();
    let panics = sst.measure_id("panics_on_one_pair").unwrap();

    // 20 concepts on 2 workers: 6 triangle tiles of edge 8, so both
    // workers are spawned threads and one of them meets the pair.
    let result = sst.similarity_matrix_parallel(&ConceptSet::All, panics, 2);
    assert!(
        matches!(result, Err(SstError::Internal(_))),
        "got {result:?}"
    );
    assert!(
        sst.last_sched_stats().is_none(),
        "a failed run must not be recorded"
    );

    let (labels, matrix) = sst
        .similarity_matrix_parallel(&ConceptSet::All, m::LEVENSHTEIN_MEASURE, 2)
        .unwrap();
    let stats = sst
        .last_sched_stats()
        .expect("the completed run is recorded");
    assert_eq!((stats.workers.len(), stats.tiles()), (2, 6));
    let (_, serial) = sst
        .similarity_matrix(&ConceptSet::All, m::LEVENSHTEIN_MEASURE)
        .unwrap();
    assert_eq!(labels.len(), 20);
    assert_eq!(matrix, serial);

    let top = sst
        .most_similar("C3", "wide", &ConceptSet::All, 3, m::LEVENSHTEIN_MEASURE)
        .unwrap();
    assert_eq!(top.len(), 3);
    assert_eq!((top[0].concept.as_str(), top[0].similarity), ("C3", 1.0));
}
