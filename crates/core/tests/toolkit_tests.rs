//! Facade-level tests of sst-core against wrapper-parsed ontologies
//! (sst-wrappers is a dev-dependency, so these stay out of the unit tests).

use sst_core::{
    measure_ids as m, ConceptRef, ConceptSet, ProbabilityModeConfig, SstBuilder, SstError,
    SstToolkit, TreeMode,
};
use sst_simpack::{Amalgamation, Combiner};
use sst_wrappers::{parse_owl, parse_powerloom};

const OWL: &str = r##"<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xml:base="http://example.org/uni">
  <owl:Class rdf:ID="Person"><rdfs:comment>A human being</rdfs:comment></owl:Class>
  <owl:Class rdf:ID="Student">
    <rdfs:comment>A person who studies</rdfs:comment>
    <rdfs:subClassOf rdf:resource="#Person"/>
  </owl:Class>
  <owl:Class rdf:ID="Professor">
    <rdfs:comment>A person who teaches and researches</rdfs:comment>
    <rdfs:subClassOf rdf:resource="#Person"/>
  </owl:Class>
  <Student rdf:ID="anna"/>
  <Student rdf:ID="ben"/>
  <Professor rdf:ID="carl"/>
</rdf:RDF>"##;

const PLOOM: &str = r#"
(defmodule "PL" :documentation "PowerLoom side")
(in-module "PL")
(defconcept PERSON :documentation "A human being.")
(defconcept STUDENT (?s PERSON) :documentation "A person who studies at the university.")
(defconcept PROFESSOR (?p PERSON) :documentation "A person who teaches at the university.")
"#;

fn toolkit(mode: TreeMode, prob: ProbabilityModeConfig) -> SstToolkit {
    let owl = parse_owl(OWL, "uni_owl", "http://example.org/uni").unwrap();
    let ploom = parse_powerloom(PLOOM, "PL").unwrap();
    SstBuilder::new()
        .register_ontology(owl)
        .unwrap()
        .register_ontology(ploom)
        .unwrap()
        .tree_mode(mode)
        .probability_mode(prob)
        .build()
}

#[test]
fn builder_configuration_flows_through() {
    let st = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::default());
    assert_eq!(st.tree().mode(), TreeMode::SuperThing);
    let merged = toolkit(TreeMode::MergedThing, ProbabilityModeConfig::default());
    assert_eq!(merged.tree().mode(), TreeMode::MergedThing);
    assert!(merged.tree().node_count() < st.tree().node_count());
}

#[test]
fn probability_mode_changes_ic_measures() {
    // OWL side has 3 instances over 2 concepts out of 4 → 50% populated, so
    // the instance corpus is used when requested; subclass mode must differ.
    let inst = toolkit(
        TreeMode::SuperThing,
        ProbabilityModeConfig::InstanceCorpusWithFallback,
    );
    let sub = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::SubclassCount);
    let q = ("Student", "uni_owl", "Professor", "uni_owl");
    let a = inst
        .get_similarity(q.0, q.1, q.2, q.3, m::RESNIK_MEASURE)
        .unwrap();
    let b = sub
        .get_similarity(q.0, q.1, q.2, q.3, m::RESNIK_MEASURE)
        .unwrap();
    assert!(a.is_finite() && b.is_finite());
    assert!(
        (a - b).abs() > 1e-6,
        "expected different IC corpora: {a} vs {b}"
    );
}

#[test]
fn combined_similarity_service() {
    let sst = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::default());
    let combiner = Combiner::uniform(Amalgamation::WeightedAverage, 2);
    let measures = [m::CONCEPTUAL_SIMILARITY_MEASURE, m::TFIDF_MEASURE];
    let combined = sst
        .combined_similarity("Student", "uni_owl", "STUDENT", "PL", &measures, &combiner)
        .unwrap();
    let parts = sst
        .get_similarities("Student", "uni_owl", "STUDENT", "PL", &measures)
        .unwrap();
    assert!((combined - (parts[0] + parts[1]) / 2.0).abs() < 1e-12);

    // Arity mismatch and unnormalized components are rejected.
    assert!(matches!(
        sst.combined_similarity(
            "Student",
            "uni_owl",
            "STUDENT",
            "PL",
            &measures[..1],
            &combiner
        ),
        Err(SstError::InvalidArgument(_))
    ));
    let with_resnik = [m::RESNIK_MEASURE, m::TFIDF_MEASURE];
    assert!(sst
        .combined_similarity(
            "Student",
            "uni_owl",
            "STUDENT",
            "PL",
            &with_resnik,
            &combiner
        )
        .is_err());
}

#[test]
fn most_similar_combined_ranks_cross_language_twins_high() {
    let sst = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::default());
    let combiner = Combiner::uniform(Amalgamation::WeightedAverage, 2);
    let top = sst
        .most_similar_combined(
            "Student",
            "uni_owl",
            &ConceptSet::All,
            3,
            &[m::CONCEPTUAL_SIMILARITY_MEASURE, m::TFIDF_MEASURE],
            &combiner,
        )
        .unwrap();
    assert_eq!(top[0].concept, "Student"); // self
                                           // The PowerLoom STUDENT should appear in the top 3.
    assert!(top
        .iter()
        .any(|r| r.concept == "STUDENT" && r.ontology == "PL"));
}

#[test]
fn chart_services_render() {
    let sst = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::default());
    let chart = sst
        .most_similar_plot(
            "Professor",
            "uni_owl",
            &ConceptSet::All,
            4,
            m::TFIDF_MEASURE,
        )
        .unwrap();
    assert_eq!(chart.bars.len(), 4);
    assert!(chart.title.contains("4 most similar"));
    let gnuplot = chart.to_gnuplot("out");
    assert!(gnuplot.data.lines().count() == 4);
    // Unnormalized measure labels the axis in bits.
    let resnik_chart = sst
        .most_similar_plot(
            "Professor",
            "uni_owl",
            &ConceptSet::All,
            2,
            m::RESNIK_MEASURE,
        )
        .unwrap();
    assert_eq!(resnik_chart.y_label, "bits");
}

#[test]
fn browser_render_helpers() {
    let sst = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::default());
    let tree = sst.render_ontology_tree("uni_owl").unwrap();
    assert!(tree.contains("Thing") && tree.contains("Student"));
    let pane = sst.render_concept("Student", "uni_owl").unwrap();
    assert!(pane.contains("uni_owl:Student"));
    assert!(pane.contains("superconcepts: Person"));
    let meta = sst.render_metadata("PL").unwrap();
    assert!(meta.contains("PowerLoom"));
    assert!(sst.render_ontology_tree("missing").is_err());
}

#[test]
fn soqaql_count_via_facade() {
    let sst = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::default());
    let t = sst
        .query("SELECT COUNT(*) FROM concepts OF 'uni_owl'")
        .unwrap();
    assert_eq!(t.rows[0][0].render(), "4"); // Thing + 3 classes
    let t = sst.query("SELECT COUNT(*) FROM instances").unwrap();
    assert_eq!(t.rows[0][0].render(), "3");
}

#[test]
fn concept_set_resolution_errors() {
    let sst = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::default());
    let bad = ConceptSet::Subtree(ConceptRef::new("Ghost", "uni_owl"));
    assert!(sst.concept_set(&bad).is_err());
    let good = ConceptSet::Subtree(ConceptRef::new("Person", "uni_owl"));
    assert_eq!(sst.concept_set(&good).unwrap().len(), 3);
}

#[test]
fn parallel_matrix_matches_sequential() {
    let sst = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::default());
    let set = ConceptSet::All;
    let (labels_a, seq) = sst
        .similarity_matrix(&set, m::CONCEPTUAL_SIMILARITY_MEASURE)
        .unwrap();
    let (labels_b, par) = sst
        .similarity_matrix_parallel(&set, m::CONCEPTUAL_SIMILARITY_MEASURE, 4)
        .unwrap();
    assert_eq!(labels_a, labels_b);
    for (ra, rb) in seq.iter().zip(&par) {
        for (a, b) in ra.iter().zip(rb) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}

#[test]
fn heatmap_service_renders() {
    let sst = toolkit(TreeMode::SuperThing, ProbabilityModeConfig::default());
    let set = ConceptSet::Subtree(ConceptRef::new("Person", "uni_owl"));
    let heatmap = sst.similarity_heatmap(&set, m::TFIDF_MEASURE).unwrap();
    assert_eq!(heatmap.labels.len(), 3);
    let ascii = heatmap.to_ascii();
    assert!(ascii.contains("uni_owl:Person"));
    assert!(ascii.contains('█')); // diagonal
    let art = heatmap.to_gnuplot("hm");
    assert!(art.script.contains("with image"));
}

/// Under `TreeMode::MergedThing` the ontology roots share the root node and
/// own no vector-store row. The vector services reject them as invalid
/// arguments naming the concept; the measure path still ranks them from
/// their own concept-table row.
#[test]
fn merged_roots_are_invalid_vector_queries() {
    let sst = toolkit(TreeMode::MergedThing, ProbabilityModeConfig::default());
    let onto = sst.soqa().ontology("uni_owl").unwrap();
    let root = onto.concept(onto.roots()[0]).name.clone();
    for result in [
        sst.most_similar_dense(&root, "uni_owl", 3),
        sst.most_similar_approx(&root, "uni_owl", 3),
    ] {
        match result {
            Err(SstError::InvalidArgument(msg)) => {
                assert!(msg.contains(&format!("uni_owl:{root}")), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }
    let ranked = sst
        .most_similar(
            &root,
            "uni_owl",
            &ConceptSet::All,
            3,
            m::DENSE_VECTOR_MEASURE,
        )
        .unwrap();
    assert_eq!(ranked.len(), 3);
}
