//! Identity suite for `SSTSNAP2` snapshot persistence:
//! `export_snapshot` → `import_snapshot` must reproduce the toolkit
//! *bit-identically* — every registered measure scores the same IEEE 754
//! bits on the paper corpus after a round trip, and so do the parts the
//! snapshot stores instead of deriving: every ANN candidate list (the
//! NSW graph), the 20 default alignments (which block on the graph and
//! the index), and the full-text index's postings and searches, in both
//! tree modes. A corrupted, truncated or hostile snapshot must fail
//! structured, never panic: the crafted cases below are resealed with a
//! valid checksum so they reach the section validators.
//!
//! Comparisons use `f64::to_bits` (as in `prepared_identity`), so even a
//! `-0.0` vs `0.0` or NaN-payload drift fails.

use sst_bench::sealed::{fnv1a, reseal, SnapshotSections};
use sst_bench::{generate_taxonomy, load_corpus, names, SplitMix64, TaxonomySpec};
use sst_core::{
    align_with_limits, AlignmentConfig, ConceptRef, ConceptSet, ProbabilityModeConfig, SstBuilder,
    SstError, SstToolkit, TreeMode, SNAPSHOT_MAGIC,
};
use sst_limits::Limits;

/// The five ontologies of the paper corpus; their ordered pairs are the
/// 20 default alignments.
const ONTOLOGIES: [&str; 5] = [
    names::DAML_UNIV,
    names::UNIV_BENCH,
    names::COURSES,
    names::SUMO,
    names::SWRC,
];

const MODES: [TreeMode; 2] = [TreeMode::SuperThing, TreeMode::MergedThing];

fn corpus() -> SstToolkit {
    load_corpus(TreeMode::SuperThing, false)
}

fn round_trip(sst: &SstToolkit) -> SstToolkit {
    let bytes = sst.export_snapshot();
    SstToolkit::import_snapshot(&bytes, &Limits::default()).expect("round trip")
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

/// Golden digests of what the paper corpus exports, in both tree modes:
/// the length and FNV-1a of `export_vectors()` (`SSTVEC1`) and of
/// `export_snapshot()` (`SSTSNAP2`). A change that moves a digest changes
/// the bytes a writer stores, which DESIGN §5 allows only with a bump of
/// the format's magic, so that no reader meets bytes of another version
/// under its own magic. The embeddings read `ln` (the index's idf)
/// through the platform libm, so the values hold for the platform they
/// were taken on (x86-64 Linux, glibc).
#[test]
fn the_paper_corpus_exports_its_golden_bytes() {
    let golden = [
        (
            TreeMode::SuperThing,
            (523_394, 0x64eb_2ae4_ef61_0e84),
            (990_567, 0x6ec9_5e07_f631_03f7),
        ),
        (
            TreeMode::MergedThing,
            (517_018, 0x33cc_8294_1d6d_c6fc),
            (981_974, 0xcbdf_ae38_5ad5_ef47),
        ),
    ];
    for (mode, vectors, snapshot) in golden {
        let sst = load_corpus(mode, false);
        let digest = |bytes: Vec<u8>| (bytes.len(), fnv1a(&bytes));
        assert_eq!(digest(sst.export_vectors()), vectors, "{mode:?} vectors");
        assert_eq!(digest(sst.export_snapshot()), snapshot, "{mode:?} snapshot");
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
    let imported = SstToolkit::import_snapshot(&bytes, &Limits::default()).expect("round trip");
    // A second export of the import is byte-identical: the format is a
    // fixed point, not just score-equivalent.
    assert_eq!(imported.export_snapshot(), bytes);
}

#[test]
fn snapshot_rejects_corruption_and_truncation() {
    let sst = corpus();
    let bytes = sst.export_snapshot();
    let limits = Limits::default();

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

/// A cold build of the paper corpus in `mode` and the import of its
/// snapshot.
fn cold_and_loaded(mode: TreeMode) -> (SstToolkit, SstToolkit) {
    let cold = load_corpus(mode, false);
    let loaded = round_trip(&cold);
    (cold, loaded)
}

#[test]
fn a_loaded_toolkit_searches_the_graph_as_the_cold_build() {
    for mode in MODES {
        let (cold, loaded) = cold_and_loaded(mode);
        let (a, b) = (cold.vector_store(), loaded.vector_store());
        assert_eq!(a.len(), b.len(), "{mode:?}: store rows");
        let n = a.len();
        for probe in [1, 96, n] {
            for row in 0..n {
                let (x, y) = (
                    a.approx_candidates(row, probe),
                    b.approx_candidates(row, probe),
                );
                assert_eq!(x.len(), y.len(), "{mode:?} row {row} probe {probe}: length");
                for (i, ((rx, sx), (ry, sy))) in x.iter().zip(&y).enumerate() {
                    assert_eq!(
                        (rx, sx.to_bits()),
                        (ry, sy.to_bits()),
                        "{mode:?} row {row} probe {probe}: candidate {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_loaded_toolkit_aligns_as_the_cold_build() {
    let config = AlignmentConfig::default();
    for mode in MODES {
        let (cold, loaded) = cold_and_loaded(mode);
        for source in ONTOLOGIES {
            for target in ONTOLOGIES.into_iter().filter(|&t| t != source) {
                let what = format!("{mode:?} {source} -> {target}");
                let a = align_with_limits(&cold, source, target, &config, &Limits::unbounded())
                    .expect("cold alignment");
                let b = align_with_limits(&loaded, source, target, &config, &Limits::unbounded())
                    .expect("loaded alignment");
                assert_eq!(a.stats, b.stats, "{what}: stats");
                assert_eq!(a.correspondences.len(), b.correspondences.len(), "{what}");
                for (x, y) in a.correspondences.iter().zip(&b.correspondences) {
                    assert_eq!(
                        (x.source, x.target, &x.source_concept, &x.target_concept),
                        (y.source, y.target, &y.source_concept, &y.target_concept),
                        "{what}"
                    );
                    assert_eq!(x.similarity.to_bits(), y.similarity.to_bits(), "{what}");
                }
            }
        }
    }
}

#[test]
fn a_loaded_toolkit_has_the_cold_build_index_and_exports_the_same_bytes() {
    for mode in MODES {
        let cold = load_corpus(mode, false);
        let bytes = cold.export_snapshot();
        let loaded = SstToolkit::import_snapshot(&bytes, &Limits::default()).expect("round trip");
        assert_eq!(
            loaded.export_snapshot(),
            bytes,
            "{mode:?}: not a fixed point"
        );

        let (a, b) = (cold.index(), loaded.index());
        assert_eq!(a.doc_count(), b.doc_count(), "{mode:?}");
        assert_eq!(a.vocabulary(), b.vocabulary(), "{mode:?}");
        for term in a.vocabulary() {
            assert_eq!(
                a.postings(term),
                b.postings(term),
                "{mode:?}: postings of {term}"
            );
        }
        for doc in (0..a.doc_count() as u32).map(sst_index::DocId) {
            assert_eq!(a.doc_key(doc), b.doc_key(doc), "{mode:?}");
            assert_eq!(a.doc_length(doc), b.doc_length(doc), "{mode:?}");
        }
        for query in [
            "professor",
            "graduate student research assistant",
            "publication article journal",
            "course teaching employee",
            "unindexed xyzzy",
        ] {
            let (x, y) = (a.search(query, 25), b.search(query, 25));
            assert_eq!(x.len(), y.len(), "{mode:?}: {query}");
            for ((dx, sx), (dy, sy)) in x.iter().zip(&y) {
                assert_eq!((dx, sx.to_bits()), (dy, sy.to_bits()), "{mode:?}: {query}");
            }
        }
    }
}

/// A small two-ontology toolkit's snapshot and its sections: cheap to
/// craft and load.
fn small_snapshot() -> (Vec<u8>, SnapshotSections) {
    let sst = SstBuilder::new()
        .register_ontology(generate_taxonomy(TaxonomySpec {
            concepts: 60,
            branching: 3,
            instances: 20,
            seed: 41,
        }))
        .expect("register primary")
        .register_ontology(generate_taxonomy(TaxonomySpec {
            concepts: 30,
            branching: 4,
            instances: 10,
            seed: 42,
        }))
        .expect("register secondary")
        .build();
    let bytes = sst.export_snapshot();
    let sections = SnapshotSections::parse(&bytes).expect("a well-formed snapshot");
    assert_eq!(
        sections.encode(),
        bytes,
        "the test-side layout reader drifted"
    );
    (bytes, sections)
}

/// The message of the structured error `bytes` must fail with.
fn refusal(what: &str, bytes: &[u8], limits: &Limits) -> String {
    match SstToolkit::import_snapshot(bytes, limits) {
        Err(SstError::InvalidArgument(message)) => message,
        Err(other) => panic!("{what}: not an InvalidArgument: {other}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

#[test]
fn hostile_sections_reach_their_validators() {
    let (bytes, good) = small_snapshot();
    let limits = Limits::default();
    assert!(SstToolkit::import_snapshot(&good.encode(), &limits).is_ok());
    let vocabulary = good.terms.len() as u32;
    let rows = good.graph.len() as u32;
    // A document whose first two terms occurred in earlier documents
    // (term ids number first occurrences, so a swap of two new terms
    // would skip an id before it is out of order), and a graph row with
    // at least one neighbor.
    let mut seen = 0;
    let doc = good
        .docs
        .iter()
        .position(|d| {
            let old = d.len() >= 2 && d[1].0 < seen;
            seen = d.iter().map(|p| p.0 + 1).fold(seen, u32::max);
            old
        })
        .expect("a document of known terms");
    let row = good
        .graph
        .iter()
        .position(|r| !r.is_empty())
        .expect("a row");

    type Edit = Box<dyn Fn(&mut SnapshotSections)>;
    let cases: Vec<(&str, Edit, &str)> = vec![
        (
            "term id past the vocabulary",
            Box::new(move |s| s.docs[doc][0].0 = vocabulary),
            "past the vocabulary",
        ),
        (
            "unsorted terms",
            Box::new(move |s| s.docs[doc].swap(0, 1)),
            "not strictly ascending",
        ),
        (
            "duplicated term",
            Box::new(move |s| s.docs[doc][1].0 = s.docs[doc][0].0),
            "not strictly ascending",
        ),
        (
            "zero frequency",
            Box::new(move |s| s.docs[doc][0].1 = 0),
            "frequency 0",
        ),
        (
            "duplicate vocabulary entry",
            Box::new(|s| s.terms[1] = s.terms[0].clone()),
            "repeats an earlier entry",
        ),
        (
            "one document short",
            Box::new(|s| {
                s.docs.pop();
            }),
            "term lists for",
        ),
        (
            "one document extra",
            Box::new(|s| s.docs.push(vec![(0, 1)])),
            "term lists for",
        ),
        (
            "embedded SSTVEC1 trailer",
            Box::new(|s| {
                let last = s.vectors.len() - 1;
                s.vectors[last] ^= 0x01;
            }),
            "do not match the embeddings",
        ),
        (
            "embedded SSTVEC1 row value",
            Box::new(|s| {
                let before_trailer = s.vectors.len() - 9;
                s.vectors[before_trailer] ^= 0x01;
            }),
            "do not match the embeddings",
        ),
        (
            "graph id past the rows",
            Box::new(move |s| s.graph[row][0] = rows),
            "past the",
        ),
        (
            "degree 33",
            Box::new(|s| s.graph[0] = (0..33).collect()),
            "degree 33",
        ),
        (
            "one graph row short",
            Box::new(|s| {
                s.graph.pop();
            }),
            "adjacency lists for",
        ),
        (
            "one graph row extra",
            Box::new(|s| s.graph.push(Vec::new())),
            "adjacency lists for",
        ),
    ];
    for (what, edit, expect) in cases {
        let mut crafted = good.clone();
        edit(&mut crafted);
        let message = refusal(what, &crafted.encode(), &limits);
        assert!(message.contains(expect), "{what}: {message}");
    }

    // Each new count field, and each new section length, at its maximum.
    let index_at = good.head.len();
    let index_len = good.index_section().len();
    let doc_count_at = index_at + 8 + 4 + good.terms.iter().map(|t| 4 + t.len()).sum::<usize>();
    let vectors_at = index_at + 8 + index_len;
    let graph_at = vectors_at + 8 + good.vectors.len();
    let fields: [(&str, usize, usize); 7] = [
        ("index section length", index_at, 8),
        ("term count", index_at + 8, 4),
        ("document count", doc_count_at, 4),
        ("first document's pair count", doc_count_at + 4, 4),
        ("graph section length", graph_at, 8),
        ("graph row count", graph_at + 8, 4),
        ("first row's degree", graph_at + 12, 4),
    ];
    for (what, at, width) in fields {
        let crafted = reseal(&bytes, |body| body[at..at + width].fill(0xff));
        refusal(what, &crafted, &limits);
    }
}

#[test]
fn a_starved_item_budget_fails_inside_the_new_sections() {
    let (bytes, sections) = small_snapshot();
    let load = |items: u64| {
        SstToolkit::import_snapshot(&bytes, &Limits::default().with_max_items(items))
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    // The smallest item budget that loads: one item per ontology
    // component, index term, index document and graph row.
    let (mut starved, mut enough) = (0u64, 1u64 << 20);
    assert!(load(enough).is_ok());
    while enough - starved > 1 {
        let mid = (starved + enough) / 2;
        match load(mid) {
            Ok(()) => enough = mid,
            Err(_) => starved = mid,
        }
    }
    let rows = sections.graph.len() as u64;
    let docs = sections.docs.len() as u64;
    for (items, what) in [
        (enough - 1, "snapshot graph row"),
        (enough - rows - 1, "snapshot index document"),
        (enough - rows - docs - 1, "snapshot index term"),
    ] {
        let err = load(items).expect_err("starved budget");
        assert!(err.contains(what), "{items} items: {err}");
    }
}

#[test]
fn an_sstsnap1_file_is_refused_with_a_re_export_hint() {
    let (bytes, _) = small_snapshot();
    let old = reseal(&bytes, |body| body[..8].copy_from_slice(b"SSTSNAP1"));
    let message = refusal("SSTSNAP1", &old, &Limits::default());
    assert!(message.contains("SSTSNAP1"), "{message}");
    assert!(message.contains("re-export"), "{message}");
    assert!(!message.contains("checksum"), "{message}");
    assert!(!message.contains("not an SSTSNAP2"), "{message}");
    // Any other magic is a plain bad magic.
    let other = reseal(&bytes, |body| body[..8].copy_from_slice(b"SSTSNAPX"));
    let message = refusal("SSTSNAPX", &other, &Limits::default());
    assert!(message.contains("not an SSTSNAP2"), "{message}");
}

#[test]
fn snapshot_load_is_governed_by_limits() {
    let sst = corpus();
    let bytes = sst.export_snapshot();
    let starved = Limits {
        max_input_bytes: 16,
        ..Limits::default()
    };
    let err = SstToolkit::import_snapshot(&bytes, &starved).expect_err("starved budget");
    assert!(matches!(err, SstError::InvalidArgument(_)), "{err}");
}
