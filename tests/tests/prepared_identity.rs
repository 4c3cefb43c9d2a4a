//! Bit-identity of the resident concept table: every service that scores
//! from the table must produce *exactly* the same IEEE 754 bits as the
//! naive per-pair `MeasureRunner::similarity` formulas (reached through
//! `BatchMode::Naive` matrices), for every registered measure, on the
//! paper corpus under both tree modes. Comparisons use `f64::to_bits`, so
//! even a `-0.0` vs `0.0` or NaN-payload drift fails.

use sst_bench::{load_corpus, names};
use sst_core::{
    BatchMode, CachedSimilarity, ConceptAndSimilarity, ConceptRef, ConceptSet, SstToolkit, TreeMode,
};
use sst_simpack::{Amalgamation, Combiner};

fn corpus() -> SstToolkit {
    load_corpus(TreeMode::SuperThing, false)
}

/// The naive per-pair scores of `query` against each of `members`: row 0
/// of the `BatchMode::Naive` matrix over `[query, members…]`, whose cells
/// are `MeasureRunner::similarity(ctx, query, member)`.
fn naive_scores(
    sst: &SstToolkit,
    query: &ConceptRef,
    members: &[ConceptRef],
    measure: usize,
) -> Vec<f64> {
    let mut list = vec![query.clone()];
    list.extend_from_slice(members);
    let (_, matrix) = sst
        .similarity_matrix_mode(&ConceptSet::List(list), measure, BatchMode::Naive)
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

fn all_measures(sst: &SstToolkit) -> Vec<usize> {
    (0..sst.measure_count()).collect()
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
        let naive = sst
            .similarity_matrix_mode(&set, measure, BatchMode::Naive)
            .unwrap();
        let prepared = sst
            .similarity_matrix_mode(&set, measure, BatchMode::Prepared)
            .unwrap();
        assert_matrices_bit_identical(measure, &naive, &prepared, "prepared vs naive");
    }
}

#[test]
fn prepared_matrix_is_bit_identical_on_a_subtree_set() {
    let sst = corpus();
    let set = ConceptSet::Subtree(ConceptRef::new("Person", names::UNIV_BENCH));
    for measure in all_measures(&sst) {
        let naive = sst
            .similarity_matrix_mode(&set, measure, BatchMode::Naive)
            .unwrap();
        let prepared = sst
            .similarity_matrix_mode(&set, measure, BatchMode::Prepared)
            .unwrap();
        assert_matrices_bit_identical(measure, &naive, &prepared, "subtree prepared vs naive");
    }
}

#[test]
fn parallel_prepared_matrix_matches_serial_for_every_measure() {
    let sst = corpus();
    let set = mixed_set();
    for measure in all_measures(&sst) {
        let naive = sst
            .similarity_matrix_mode(&set, measure, BatchMode::Naive)
            .unwrap();
        let serial = sst
            .similarity_matrix_mode(&set, measure, BatchMode::Prepared)
            .unwrap();
        for threads in [1, 3, 8] {
            let parallel = sst
                .similarity_matrix_parallel_mode(&set, measure, threads, BatchMode::Prepared)
                .unwrap();
            assert_matrices_bit_identical(measure, &serial, &parallel, "parallel vs serial");
            assert_matrices_bit_identical(measure, &naive, &parallel, "parallel vs naive");
        }
        let naive_parallel = sst
            .similarity_matrix_parallel_mode(&set, measure, 4, BatchMode::Naive)
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
        let mut naive = naive_ranking(
            refs(&set),
            naive_scores(&sst, &query, refs(&set), measure),
            usize::MAX,
        );
        naive.sort_by(|x, y| {
            x.similarity
                .total_cmp(&y.similarity)
                .then_with(|| (&x.ontology, &x.concept).cmp(&(&y.ontology, &y.concept)))
        });
        naive.truncate(6);
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

#[test]
fn most_similar_multi_matches_per_measure_rankings() {
    let sst = corpus();
    let set = mixed_set();
    let measures = all_measures(&sst);
    let multi = sst
        .most_similar_multi("Human", names::SUMO, &set, 5, &measures)
        .unwrap();
    assert_eq!(multi.len(), measures.len());
    let query = ConceptRef::new("Human", names::SUMO);
    for (&measure, ranking) in measures.iter().zip(&multi) {
        let single = sst
            .most_similar("Human", names::SUMO, &set, 5, measure)
            .unwrap();
        let naive = naive_ranking(
            refs(&set),
            naive_scores(&sst, &query, refs(&set), measure),
            5,
        );
        assert_rankings_bit_identical(ranking, &naive, &format!("measure {measure} multi"));
        assert_eq!(ranking.len(), single.len());
        for (a, b) in ranking.iter().zip(&single) {
            assert_eq!((&a.concept, &a.ontology), (&b.concept, &b.ontology));
            assert_eq!(
                a.similarity.to_bits(),
                b.similarity.to_bits(),
                "measure {measure} multi vs single ranking diverges"
            );
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
    let combined = (0..refs(&set).len())
        .map(|i| {
            let scores: Vec<f64> = per_measure.iter().map(|s| s[i]).collect();
            combiner.combine(&scores)
        })
        .collect();
    let naive = naive_ranking(refs(&set), combined, 20);
    assert_rankings_bit_identical(&ranked, &naive, "combined ranking vs naive");
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
    let sst = load_corpus(TreeMode::MergedThing, false);
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
        let naive = sst
            .similarity_matrix_mode(&set, measure, BatchMode::Naive)
            .unwrap();
        let prepared = sst
            .similarity_matrix_mode(&set, measure, BatchMode::Prepared)
            .unwrap();
        assert_matrices_bit_identical(measure, &naive, &prepared, "merged prepared vs naive");
        let parallel = sst
            .similarity_matrix_parallel_mode(&set, measure, 3, BatchMode::Prepared)
            .unwrap();
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
