//! Bit-identity of the resident concept table: every service that scores
//! a built-in measure from the table must produce *exactly* the same IEEE
//! 754 bits as the per-pair reference formulas of `sst_bench::oracle`
//! (registered as user runners and scored pair by pair), for every
//! built-in measure, on the paper corpus under both tree modes.
//! Comparisons use `f64::to_bits`, so even a `-0.0` vs `0.0` or
//! NaN-payload drift fails.

use sst_bench::oracle::{self, embed_tfidf_reference, oracle};
use sst_bench::{corpus_builder, names, SplitMix64};
use sst_core::{
    embed_tfidf, CachedSimilarity, ConceptAndSimilarity, ConceptRef, ConceptSet, SstBuilder,
    SstToolkit, TreeMode,
};
use sst_index::TermId;
use sst_simpack::{Amalgamation, Combiner};
use sst_soqa::{
    Attribute, ConceptId, Method, Ontology, OntologyBuilder, OntologyMetadata, Relationship,
};

/// The paper corpus with the oracle runners registered.
fn corpus_with_oracle(mode: TreeMode) -> SstToolkit {
    oracle::register(corpus_builder(mode, false)).build()
}

fn corpus() -> SstToolkit {
    corpus_with_oracle(TreeMode::SuperThing)
}

/// The oracle's per-pair scores of `query` against each of `members`: row
/// 0 of the oracle's matrix over `[query, members…]`, whose cells are its
/// `MeasureRunner::similarity(ctx, query, member)`.
fn naive_scores(
    sst: &SstToolkit,
    query: &ConceptRef,
    members: &[ConceptRef],
    measure: usize,
) -> Vec<f64> {
    let mut list = vec![query.clone()];
    list.extend_from_slice(members);
    let (_, matrix) = sst
        .similarity_matrix(&ConceptSet::List(list), oracle(measure))
        .unwrap();
    matrix[0][1..].to_vec()
}

/// The k-best ranking of `members` by their naive `scores`, ordered like
/// every rank service: descending `total_cmp`, then the qualified name.
fn naive_ranking(members: &[ConceptRef], scores: Vec<f64>, k: usize) -> Vec<ConceptAndSimilarity> {
    let mut ranked: Vec<ConceptAndSimilarity> = members
        .iter()
        .zip(scores)
        .map(|(r, similarity)| ConceptAndSimilarity {
            concept: r.concept.clone(),
            ontology: r.ontology.clone(),
            similarity,
        })
        .collect();
    ranked.sort_by(|x, y| {
        y.similarity
            .total_cmp(&x.similarity)
            .then_with(|| (&x.ontology, &x.concept).cmp(&(&y.ontology, &y.concept)))
    });
    ranked.truncate(k);
    ranked
}

/// The k-worst ranking of `members` by their naive `scores`, ordered like
/// `most_dissimilar`: ascending `total_cmp`, then the qualified name.
fn naive_dissimilar_ranking(
    members: &[ConceptRef],
    scores: Vec<f64>,
    k: usize,
) -> Vec<ConceptAndSimilarity> {
    let mut ranked = naive_ranking(members, scores, usize::MAX);
    ranked.sort_by(|x, y| {
        x.similarity
            .total_cmp(&y.similarity)
            .then_with(|| (&x.ontology, &x.concept).cmp(&(&y.ontology, &y.concept)))
    });
    ranked.truncate(k);
    ranked
}

fn assert_rankings_bit_identical(
    a: &[ConceptAndSimilarity],
    b: &[ConceptAndSimilarity],
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (&x.concept, &x.ontology),
            (&y.concept, &y.ontology),
            "{what}"
        );
        assert_eq!(
            x.similarity.to_bits(),
            y.similarity.to_bits(),
            "{what}: {}:{} {} vs {}",
            x.ontology,
            x.concept,
            x.similarity,
            y.similarity
        );
    }
}

fn refs(set: &ConceptSet) -> &[ConceptRef] {
    match set {
        ConceptSet::List(refs) => refs,
        _ => &[],
    }
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
        // Duplicate member: the identity axiom and memo-hit semantics must
        // survive repeated concepts in a `List` set.
        ConceptRef::new("Student", names::UNIV_BENCH),
    ])
}

/// The built-in measures (the oracles follow them).
fn all_measures(sst: &SstToolkit) -> Vec<usize> {
    assert_eq!(sst.measure_count(), 2 * oracle::BUILTINS);
    (0..oracle::BUILTINS).collect()
}

fn assert_matrices_bit_identical(
    measure: usize,
    a: &(Vec<String>, Vec<Vec<f64>>),
    b: &(Vec<String>, Vec<Vec<f64>>),
    what: &str,
) {
    assert_eq!(a.0, b.0, "labels diverge for measure {measure} ({what})");
    for (i, (ra, rb)) in a.1.iter().zip(&b.1).enumerate() {
        for (j, (va, vb)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "measure {measure} {what} diverges at [{i}][{j}]: {va} vs {vb}"
            );
        }
    }
}

#[test]
fn prepared_matrix_is_bit_identical_to_naive_for_every_measure() {
    let sst = corpus();
    let set = mixed_set();
    for measure in all_measures(&sst) {
        let naive = sst.similarity_matrix(&set, oracle(measure)).unwrap();
        let prepared = sst.similarity_matrix(&set, measure).unwrap();
        assert_matrices_bit_identical(measure, &naive, &prepared, "prepared vs naive");
    }
}

#[test]
fn prepared_matrix_is_bit_identical_on_a_subtree_set() {
    let sst = corpus();
    let set = ConceptSet::Subtree(ConceptRef::new("Person", names::UNIV_BENCH));
    for measure in all_measures(&sst) {
        let naive = sst.similarity_matrix(&set, oracle(measure)).unwrap();
        let prepared = sst.similarity_matrix(&set, measure).unwrap();
        assert_matrices_bit_identical(measure, &naive, &prepared, "subtree prepared vs naive");
    }
}

#[test]
fn parallel_prepared_matrix_matches_serial_for_every_measure() {
    let sst = corpus();
    let set = mixed_set();
    for measure in all_measures(&sst) {
        let naive = sst.similarity_matrix(&set, oracle(measure)).unwrap();
        let serial = sst.similarity_matrix(&set, measure).unwrap();
        for threads in [1, 3, 8] {
            let parallel = sst
                .similarity_matrix_parallel(&set, measure, threads)
                .unwrap();
            assert_matrices_bit_identical(measure, &serial, &parallel, "parallel vs serial");
            assert_matrices_bit_identical(measure, &naive, &parallel, "parallel vs naive");
        }
        let naive_parallel = sst
            .similarity_matrix_parallel(&set, oracle(measure), 4)
            .unwrap();
        assert_matrices_bit_identical(measure, &serial, &naive_parallel, "naive-parallel");
    }
}

#[test]
fn similarity_to_set_matches_pairwise_service_for_every_measure() {
    let sst = corpus();
    let set = mixed_set();
    let (query, query_onto) = ("Professor", names::DAML_UNIV);
    let cache = CachedSimilarity::new(&sst);
    for measure in all_measures(&sst) {
        let batched = sst
            .similarity_to_set(query, query_onto, &set, measure)
            .unwrap();
        let refs = refs(&set);
        let naive = naive_scores(&sst, &ConceptRef::new(query, query_onto), refs, measure);
        assert_eq!(batched.len(), refs.len());
        for ((row, r), naive) in batched.iter().zip(refs).zip(naive) {
            assert_eq!(row.concept, r.concept);
            assert_eq!(row.ontology, r.ontology);
            let direct = sst
                .get_similarity(query, query_onto, &r.concept, &r.ontology, measure)
                .unwrap();
            assert_eq!(
                row.similarity.to_bits(),
                direct.to_bits(),
                "measure {measure} batch vs pairwise diverges on {}:{}",
                r.ontology,
                r.concept
            );
            assert_eq!(
                direct.to_bits(),
                naive.to_bits(),
                "measure {measure} pairwise vs naive diverges on {}:{}",
                r.ontology,
                r.concept
            );
            let cached = cache
                .get_similarity(query, query_onto, &r.concept, &r.ontology, measure)
                .unwrap();
            assert_eq!(
                cached.to_bits(),
                naive.to_bits(),
                "measure {measure} cached pairwise vs naive diverges on {}:{}",
                r.ontology,
                r.concept
            );
        }
    }
}

#[test]
fn most_dissimilar_matches_naive_for_every_measure() {
    let sst = corpus();
    let set = mixed_set();
    let query = ConceptRef::new("Human", names::SUMO);
    for measure in all_measures(&sst) {
        let ranked = sst
            .most_dissimilar("Human", names::SUMO, &set, 6, measure)
            .unwrap();
        let naive = naive_dissimilar_ranking(
            refs(&set),
            naive_scores(&sst, &query, refs(&set), measure),
            6,
        );
        let what = format!("measure {measure} most_dissimilar");
        assert_rankings_bit_identical(&ranked, &naive, &what);
    }
}

#[test]
fn cached_most_similar_matches_direct_for_every_measure() {
    let sst = corpus();
    let set = mixed_set();
    let cache = CachedSimilarity::new(&sst);
    let query = ConceptRef::new("Student", names::UNIV_BENCH);
    for measure in all_measures(&sst) {
        let direct = sst
            .most_similar("Student", names::UNIV_BENCH, &set, 7, measure)
            .unwrap();
        let naive = naive_ranking(
            refs(&set),
            naive_scores(&sst, &query, refs(&set), measure),
            7,
        );
        assert_rankings_bit_identical(&direct, &naive, &format!("measure {measure} direct"));
        // Run the cached path twice: cold (batch-computed misses) and warm
        // (pure memo hits) must both reproduce the direct ranking.
        for pass in ["cold", "warm"] {
            let cached = cache
                .most_similar("Student", names::UNIV_BENCH, &set, 7, measure)
                .unwrap();
            assert_eq!(cached.len(), direct.len());
            for (c, d) in cached.iter().zip(&direct) {
                assert_eq!((&c.concept, &c.ontology), (&d.concept, &d.ontology));
                assert_eq!(
                    c.similarity.to_bits(),
                    d.similarity.to_bits(),
                    "measure {measure} {pass} cached ranking diverges"
                );
            }
        }
    }
    let (hits, misses) = cache.stats();
    assert!(hits > 0 && misses > 0, "hits={hits} misses={misses}");
}

/// Every rank path over the whole corpus, the set every `/rank` without
/// a subtree scores. For every built-in measure, under both tree modes
/// and at every k from 1 past the corpus size, the rankings over
/// `ConceptSet::All` — `most_similar`, `most_dissimilar`, the cached rank
/// cold and warm, and for `dense_vector` the full-probe approximate rank —
/// equal the rankings built from one oracle pairwise call per member.
/// Graph and IC measures tie heavily, so small k cuts through ties.
#[test]
fn whole_corpus_rankings_match_the_oracle_for_every_measure() {
    for mode in [TreeMode::SuperThing, TreeMode::MergedThing] {
        let sst = corpus_with_oracle(mode);
        let soqa = sst.soqa();
        let members: Vec<ConceptRef> = sst
            .concept_set(&ConceptSet::All)
            .unwrap()
            .into_iter()
            .map(|gc| ConceptRef::new(&soqa.concept(gc).name, soqa.ontology_at(gc.ontology).name()))
            .collect();
        assert!(
            members.len() >= 256,
            "the whole-corpus rank paths are checked at corpus scale"
        );
        let n = members.len();
        assert_eq!(
            sst.vector_store().len(),
            n,
            "the store holds the tree's concepts"
        );
        let (query, query_onto) = ("Student", names::UNIV_BENCH);
        for measure in all_measures(&sst) {
            let scores: Vec<f64> = members
                .iter()
                .map(|r| {
                    sst.get_similarity(query, query_onto, &r.concept, &r.ontology, oracle(measure))
                        .unwrap()
                })
                .collect();
            for k in [1, 2, 10, n - 1, n, n + 5] {
                let what = format!("{mode:?} measure {measure} k {k} whole-corpus ranking");
                let expected = naive_ranking(&members, scores.clone(), k);
                assert_eq!(expected.len(), k.min(n));
                let direct = sst
                    .most_similar(query, query_onto, &ConceptSet::All, k, measure)
                    .unwrap();
                assert_rankings_bit_identical(&direct, &expected, &what);
                let cache = CachedSimilarity::new(&sst);
                for pass in ["cold", "warm"] {
                    let cached = cache
                        .most_similar(query, query_onto, &ConceptSet::All, k, measure)
                        .unwrap();
                    assert_rankings_bit_identical(&cached, &expected, &format!("{what} ({pass})"));
                }
                if measure == sst_core::measure_ids::DENSE_VECTOR_MEASURE {
                    let approx = sst
                        .most_similar_approx_with(query, query_onto, k, n)
                        .unwrap();
                    assert_rankings_bit_identical(
                        &approx,
                        &expected,
                        &format!("{what} (full probe)"),
                    );
                }
                let dissimilar = sst
                    .most_dissimilar(query, query_onto, &ConceptSet::All, k, measure)
                    .unwrap();
                assert_rankings_bit_identical(
                    &dissimilar,
                    &naive_dissimilar_ranking(&members, scores.clone(), k),
                    &format!("{what} (most_dissimilar)"),
                );
            }
        }
    }
}

#[test]
fn combined_ranking_matches_pairwise_combined_scores() {
    let sst = corpus();
    let set = mixed_set();
    let measures = [
        sst_core::measure_ids::CONCEPTUAL_SIMILARITY_MEASURE,
        sst_core::measure_ids::LEVENSHTEIN_MEASURE,
        sst_core::measure_ids::TFIDF_MEASURE,
    ];
    let combiner = Combiner::uniform(Amalgamation::WeightedAverage, measures.len());
    let ranked = sst
        .most_similar_combined("Student", names::UNIV_BENCH, &set, 20, &measures, &combiner)
        .unwrap();
    let query = ConceptRef::new("Student", names::UNIV_BENCH);
    let per_measure: Vec<Vec<f64>> = measures
        .iter()
        .map(|&m| naive_scores(&sst, &query, refs(&set), m))
        .collect();
    let combined: Vec<f64> = (0..refs(&set).len())
        .map(|i| {
            let scores: Vec<f64> = per_measure.iter().map(|s| s[i]).collect();
            combiner.combine(&scores)
        })
        .collect();
    let naive = naive_ranking(refs(&set), combined.clone(), 20);
    assert_rankings_bit_identical(&ranked, &naive, "combined ranking vs naive");
    // Below the set size the k best are selected before they are sorted.
    let k = refs(&set).len() / 2;
    let top = sst
        .most_similar_combined("Student", names::UNIV_BENCH, &set, k, &measures, &combiner)
        .unwrap();
    assert_eq!(top.len(), k);
    assert_rankings_bit_identical(
        &top,
        &naive_ranking(refs(&set), combined, k),
        "combined top-k vs naive",
    );
    for row in &ranked {
        let direct = sst
            .combined_similarity(
                "Student",
                names::UNIV_BENCH,
                &row.concept,
                &row.ontology,
                &measures,
                &combiner,
            )
            .unwrap();
        assert_eq!(
            row.similarity.to_bits(),
            direct.to_bits(),
            "combined ranking diverges on {}:{}",
            row.ontology,
            row.concept
        );
    }
}

#[test]
fn alignment_scores_match_pairwise_combined_scores() {
    let sst = corpus();
    let config = sst_core::AlignmentConfig::default();
    let combiner = Combiner::uniform(config.strategy, config.measures.len());
    let result = sst_core::align(&sst, names::UNIV_BENCH, names::COURSES, &config).unwrap();
    assert!(!result.is_empty());
    for corr in &result {
        let scores = sst
            .get_similarities(
                &corr.source_concept,
                names::UNIV_BENCH,
                &corr.target_concept,
                names::COURSES,
                &config.measures,
            )
            .unwrap();
        let source = ConceptRef::new(&corr.source_concept, names::UNIV_BENCH);
        let target = [ConceptRef::new(&corr.target_concept, names::COURSES)];
        let naive: Vec<f64> = config
            .measures
            .iter()
            .map(|&m| naive_scores(&sst, &source, &target, m)[0])
            .collect();
        assert_eq!(
            corr.similarity.to_bits(),
            combiner.combine(&naive).to_bits(),
            "alignment score vs naive diverges on {} -> {}",
            corr.source_concept,
            corr.target_concept
        );
        assert_eq!(
            corr.similarity.to_bits(),
            combiner.combine(&scores).to_bits(),
            "alignment score diverges on {} -> {}",
            corr.source_concept,
            corr.target_concept
        );
    }
}

/// Under `TreeMode::MergedThing` the ontology roots share the root node
/// and own no tree node of their own, yet each keeps its own table row
/// (name, features, subtree label). A set holding every collapsed root
/// must score bit-identically to the naive formulas on every service.
#[test]
fn merged_thing_services_match_naive_with_collapsed_roots() {
    let sst = corpus_with_oracle(TreeMode::MergedThing);
    let soqa = sst.soqa();
    let roots: Vec<ConceptRef> = (0..soqa.ontology_count())
        .flat_map(|i| {
            let onto = soqa.ontology_at(i);
            onto.roots()
                .iter()
                .map(|&c| ConceptRef::new(&onto.concept(c).name, onto.name()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(roots.len() >= 2, "corpus has several roots to collapse");
    let mut list = roots.clone();
    list.extend_from_slice(refs(&mixed_set()));
    let set = ConceptSet::List(list.clone());
    let cache = CachedSimilarity::new(&sst);
    for measure in all_measures(&sst) {
        let naive = sst.similarity_matrix(&set, oracle(measure)).unwrap();
        let prepared = sst.similarity_matrix(&set, measure).unwrap();
        assert_matrices_bit_identical(measure, &naive, &prepared, "merged prepared vs naive");
        let parallel = sst.similarity_matrix_parallel(&set, measure, 3).unwrap();
        assert_matrices_bit_identical(measure, &naive, &parallel, "merged parallel vs naive");

        for query in [&roots[0], &ConceptRef::new("Student", names::UNIV_BENCH)] {
            let batched = sst
                .similarity_to_set(&query.concept, &query.ontology, &set, measure)
                .unwrap();
            let expected = naive_scores(&sst, query, &list, measure);
            assert_eq!(batched.len(), expected.len());
            for (row, naive) in batched.iter().zip(expected) {
                assert_eq!(
                    row.similarity.to_bits(),
                    naive.to_bits(),
                    "measure {measure} merged set score diverges on {}:{} for {}:{}",
                    row.ontology,
                    row.concept,
                    query.ontology,
                    query.concept
                );
            }

            let direct = sst
                .most_similar(&query.concept, &query.ontology, &set, 9, measure)
                .unwrap();
            let naive = naive_ranking(&list, naive_scores(&sst, query, &list, measure), 9);
            let what = format!("measure {measure} merged ranking for {}", query.concept);
            assert_rankings_bit_identical(&direct, &naive, &what);
            for pass in ["cold", "warm"] {
                let cached = cache
                    .most_similar(&query.concept, &query.ontology, &set, 9, measure)
                    .unwrap();
                assert_rankings_bit_identical(&cached, &direct, &format!("{what} ({pass})"));
            }
        }
    }
}

/// An ontology built to trip the concept table's interning, for
/// [`a_hostile_corpus_scores_as_the_oracle`]. Both instances share their
/// concept, attribute and relationship names, so only the ontology prefix
/// tells their M₂ tokens apart. It holds:
/// - a root with an attribute (merged into node 0 under `MergedThing`);
/// - an attribute named like a concept of its ontology (`Course`);
/// - one attribute name (`name`) on several concepts, and a relationship
///   named like it;
/// - a diamond (`Assistant` under `Student` and `Employee`) that inherits
///   `Person`'s attributes through both parents, which have equal depth;
///   `parents_flipped` declares them in the other order;
/// - names that are non-ASCII, exactly 64 and 65 characters long, hold
///   digits, or are empty.
fn hostile_ontology(name: &str, parents_flipped: bool) -> Ontology {
    let mut b = OntologyBuilder::new(OntologyMetadata {
        name: name.into(),
        language: "Test".into(),
        ..OntologyMetadata::default()
    });
    let attribute = |b: &mut OntologyBuilder, concept: ConceptId, attr: &str| {
        b.add_attribute(Attribute {
            name: attr.into(),
            documentation: None,
            data_type: None,
            definition: None,
            concept,
        });
    };
    let thing = b.concept("Thing");
    attribute(&mut b, thing, "id");
    let person = b.concept("Person");
    b.add_subclass(person, thing);
    attribute(&mut b, person, "name");
    attribute(&mut b, person, "Course");
    let student = b.concept("Student");
    b.add_subclass(student, person);
    attribute(&mut b, student, "name");
    let employee = b.concept("Employee");
    b.add_subclass(employee, person);
    attribute(&mut b, employee, "salary");
    b.add_method(Method {
        name: "enroll".into(),
        documentation: None,
        definition: None,
        parameters: Vec::new(),
        return_type: None,
        concept: student,
    });
    let assistant = b.concept("Assistant");
    let parents = if parents_flipped {
        [employee, student]
    } else {
        [student, employee]
    };
    for parent in parents {
        b.add_subclass(assistant, parent);
    }
    attribute(&mut b, assistant, "name");
    let course = b.concept("Course");
    b.add_subclass(course, thing);
    let long = "interning".repeat(8);
    for (label, parent) in [
        ("Étudiant", student),
        ("Straße", thing),
        ("中文课程", course),
        ("Course101", course),
        (&long[..64], course),
        (&long[..65], course),
        ("", thing),
    ] {
        let c = b.concept(label);
        b.add_subclass(c, parent);
        b.concept_mut(c).documentation = Some(format!("{label} of {name}, a course or a person"));
    }
    b.concept_mut(student).documentation = Some("a person who studies a course".into());
    b.concept_mut(employee).documentation = Some("a person paid a salary".into());
    b.add_relationship(Relationship {
        name: "name".into(),
        documentation: None,
        definition: None,
        arity: 2,
        related_concepts: vec!["Student".into(), "Course".into()],
    });
    b.build()
}

/// Every service's scores on the hostile corpus of [`hostile_ontology`]
/// equal the oracle's, in both tree modes: the matrix of every built-in
/// measure over every registered concept (the merged roots included),
/// and every concept's rankings at a few k, most similar and most
/// dissimilar.
#[test]
fn a_hostile_corpus_scores_as_the_oracle() {
    for mode in [TreeMode::SuperThing, TreeMode::MergedThing] {
        let builder = SstBuilder::new()
            .tree_mode(mode)
            .register_ontology(hostile_ontology("left", false))
            .unwrap()
            .register_ontology(hostile_ontology("right", true))
            .unwrap();
        let sst = oracle::register(builder).build();
        let soqa = sst.soqa();
        let members: Vec<ConceptRef> = soqa
            .all_concepts()
            .into_iter()
            .map(|gc| ConceptRef::new(&soqa.concept(gc).name, soqa.ontology_at(gc.ontology).name()))
            .collect();
        let set = ConceptSet::List(members.clone());
        for measure in all_measures(&sst) {
            let naive = sst.similarity_matrix(&set, oracle(measure)).unwrap();
            let prepared = sst.similarity_matrix(&set, measure).unwrap();
            let what = format!("{mode:?} hostile corpus");
            assert_matrices_bit_identical(measure, &naive, &prepared, &what);
            for (query, scores) in members.iter().zip(naive.1) {
                for k in [1, 3, members.len()] {
                    let what = format!("{what}, measure {measure}, {query:?}, k {k}");
                    let ranked = sst
                        .most_similar(&query.concept, &query.ontology, &set, k, measure)
                        .unwrap();
                    let expected = naive_ranking(&members, scores.clone(), k);
                    assert_rankings_bit_identical(&ranked, &expected, &what);
                    let ranked = sst
                        .most_dissimilar(&query.concept, &query.ontology, &set, k, measure)
                        .unwrap();
                    let expected = naive_dissimilar_ranking(&members, scores.clone(), k);
                    assert_rankings_bit_identical(&ranked, &expected, &what);
                }
            }
        }
    }
}

/// The toolkit's embedding kernel equals the oracle's plain projection
/// bit for bit. The oracle's `dense_vector` runner embeds through that
/// reference, so the other tests here compare the kernel only through
/// scores; this pins it directly, on seeded TF-IDF vectors of 1 to 40
/// terms (some of weight zero) at widths under, at, between and over
/// multiples of one 64-bit sign word.
#[test]
fn the_embedding_kernel_matches_the_oracle_projection() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed);
    for dim in [8, 64, 100, 128] {
        for case in 0..250 {
            let mut term = 0u32;
            let tfidf: Vec<(TermId, f64)> = (0..rng.gen_range(1..41))
                .map(|_| {
                    term += 1 + rng.gen_range(0..300) as u32;
                    let weight = if rng.gen_bool(0.15) {
                        0.0
                    } else {
                        (rng.next_u64() >> 11) as f64 / (1u64 << 50) as f64
                    };
                    (TermId(term), weight)
                })
                .collect();
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(embed_tfidf(&tfidf, dim)),
                bits(embed_tfidf_reference(&tfidf, dim)),
                "dim {dim}, case {case}: {tfidf:?}"
            );
        }
    }
}
