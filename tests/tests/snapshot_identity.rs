//! Identity suite for `SSTSNAP1` snapshot persistence (PR 10 tentpole):
//! `export_snapshot` → `import_snapshot` must reproduce the toolkit
//! *bit-identically* — every one of the registered measures scores the
//! same IEEE 754 bits on the paper corpus after a round trip — and a
//! corrupted or truncated snapshot must fail structured, never panic.
//!
//! Comparisons use `f64::to_bits` (as in `prepared_identity`), so even a
//! `-0.0` vs `0.0` or NaN-payload drift fails.

use sst_bench::{generate_taxonomy, load_corpus, names, SplitMix64, TaxonomySpec};
use sst_core::{
    ConceptRef, ConceptSet, ProbabilityModeConfig, SstBuilder, SstError, SstToolkit, TreeMode,
    SNAPSHOT_MAGIC,
};

fn corpus() -> SstToolkit {
    load_corpus(TreeMode::SuperThing, false)
}

fn round_trip(sst: &SstToolkit) -> SstToolkit {
    let bytes = sst.export_snapshot();
    SstToolkit::import_snapshot(&bytes, &sst_limits::Limits::default()).expect("round trip")
}

/// A cross-ontology concept set exercising every runner input: taxonomy
/// positions, names, feature sets, documentation (tf-idf), and subtrees.
fn mixed_set() -> ConceptSet {
    ConceptSet::List(vec![
        ConceptRef::new("Professor", names::DAML_UNIV),
        ConceptRef::new("AssistantProfessor", names::UNIV_BENCH),
        ConceptRef::new("FullProfessor", names::UNIV_BENCH),
        ConceptRef::new("Student", names::UNIV_BENCH),
        ConceptRef::new("GraduateStudent", names::UNIV_BENCH),
        ConceptRef::new("Publication", names::UNIV_BENCH),
        ConceptRef::new("EMPLOYEE", names::COURSES),
        ConceptRef::new("COURSE", names::COURSES),
        ConceptRef::new("Human", names::SUMO),
        ConceptRef::new("Mammal", names::SUMO),
        ConceptRef::new("Publication", names::SWRC),
        ConceptRef::new("PhDStudent", names::SWRC),
    ])
}

#[test]
fn snapshot_round_trip_is_bit_identical_for_every_measure() {
    let sst = corpus();
    let imported = round_trip(&sst);
    assert_eq!(imported.measure_count(), sst.measure_count());
    let set = mixed_set();
    for measure in 0..sst.measure_count() {
        let original = sst.similarity_matrix(&set, measure).unwrap();
        let reloaded = imported.similarity_matrix(&set, measure).unwrap();
        assert_eq!(
            original.0, reloaded.0,
            "labels diverge for measure {measure}"
        );
        for (i, (ra, rb)) in original.1.iter().zip(&reloaded.1).enumerate() {
            for (j, (va, vb)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "measure {measure} diverges after round trip at [{i}][{j}]: {va} vs {vb}"
                );
            }
        }
    }
}

#[test]
fn snapshot_preserves_config_and_prepared_tables() {
    // Non-default config: the merged-tree mode and subclass-count
    // probabilities must survive the round trip (they change scores, so
    // silently reverting to defaults would break bit-identity).
    let sst = SstBuilder::new()
        .tree_mode(TreeMode::MergedThing)
        .probability_mode(ProbabilityModeConfig::SubclassCount)
        .register_ontology(generate_taxonomy(TaxonomySpec {
            concepts: 80,
            branching: 3,
            instances: 20,
            seed: 99,
        }))
        .expect("register")
        .build();
    let imported = round_trip(&sst);
    assert_eq!(imported.config(), sst.config());
    // The embedded SSTVEC1 section must equal a fresh export — the
    // prepared dense-vector tables round-tripped exactly.
    assert_eq!(imported.export_vectors(), sst.export_vectors());
}

#[test]
fn snapshot_round_trips_a_synthetic_corpus() {
    // Two generated taxonomies: instances, documentation, and deep
    // hierarchies beyond the hand-built paper corpus.
    let a = generate_taxonomy(TaxonomySpec {
        concepts: 150,
        branching: 4,
        instances: 75,
        seed: 11,
    });
    let b = generate_taxonomy(TaxonomySpec {
        concepts: 60,
        branching: 6,
        instances: 15,
        seed: 353,
    });
    let sst = SstBuilder::new()
        .register_ontology(a)
        .expect("register primary")
        .register_ontology(b)
        .expect("register secondary")
        .build();
    let bytes = sst.export_snapshot();
    assert_eq!(&bytes[..8], SNAPSHOT_MAGIC, "snapshot leads with its magic");
    let imported =
        SstToolkit::import_snapshot(&bytes, &sst_limits::Limits::default()).expect("round trip");
    // A second export of the import is byte-identical: the format is a
    // fixed point, not just score-equivalent.
    assert_eq!(imported.export_snapshot(), bytes);
}

#[test]
fn snapshot_rejects_corruption_and_truncation() {
    let sst = corpus();
    let bytes = sst.export_snapshot();
    let limits = sst_limits::Limits::default();

    // Every single-byte flip must be caught (checksum verified before any
    // parsing), and every truncation must fail structured — never a panic.
    let mut rng = SplitMix64::seed_from_u64(0xC0DE);
    for _ in 0..32 {
        let mut corrupt = bytes.clone();
        let at = rng.gen_range(0..corrupt.len());
        corrupt[at] ^= 0x41;
        let err = SstToolkit::import_snapshot(&corrupt, &limits).expect_err("corrupt");
        assert!(matches!(err, SstError::InvalidArgument(_)), "{err}");
    }
    for cut in [0, 1, 7, 8, 20, bytes.len() - 1] {
        let err = SstToolkit::import_snapshot(&bytes[..cut], &limits).expect_err("truncated");
        assert!(matches!(err, SstError::InvalidArgument(_)), "{err}");
    }
}

#[test]
fn snapshot_load_is_governed_by_limits() {
    let sst = corpus();
    let bytes = sst.export_snapshot();
    let starved = sst_limits::Limits {
        max_input_bytes: 16,
        ..sst_limits::Limits::default()
    };
    let err = SstToolkit::import_snapshot(&bytes, &starved).expect_err("starved budget");
    assert!(matches!(err, SstError::InvalidArgument(_)), "{err}");
}
