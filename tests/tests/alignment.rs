//! Integration tests for the alignment engine: the stability property of
//! the deferred-acceptance matcher, the greedy-vs-stable quality
//! differential on seeded ground truth, the `POST /align` endpoint, and
//! alignments that stay bit-identical whether or not the vector store
//! already holds their sources' NSW neighborhoods.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sst_bench::{generate_taxonomy, load_corpus, names, perturb, Perturbation, TaxonomySpec};
use sst_core::{
    align_with_limits, measure_ids, Alignment, AlignmentConfig, Amalgamation, CandidateGen,
    MatchMode, SstBuilder, SstToolkit, TreeMode,
};
use sst_limits::Limits;
use sst_server::{Server, ServerConfig};
use sst_simpack::Combiner;
use sst_soqa::GlobalConcept;

fn perturbed_pair(
    concepts: usize,
    kind: Perturbation,
    strength: f64,
) -> (SstToolkit, String, String) {
    let original = generate_taxonomy(TaxonomySpec {
        concepts,
        branching: 3,
        instances: 0,
        seed: 99,
    });
    let perturbed = perturb(&original, kind, strength, 7);
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

/// The matching the stable engine emits admits no blocking pair: no
/// above-threshold (source, target) pair in which *both* sides strictly
/// prefer each other over what the matching gave them. Scores are
/// recomputed independently, pair by pair, through the public
/// `combined_similarity` path rather than trusting the engine's own
/// numbers.
#[test]
fn stable_alignment_admits_no_blocking_pair() {
    // Structure-only perturbation keeps every name unique within its
    // ontology, so by-name score lookups below are unambiguous.
    let (sst, source, target) = perturbed_pair(60, Perturbation::Structure, 0.5);
    let config = AlignmentConfig {
        threshold: 0.25,
        mode: MatchMode::Stable,
        candidates: CandidateGen::Exhaustive,
        ..AlignmentConfig::default()
    };
    let alignment =
        align_with_limits(&sst, &source, &target, &config, &Limits::default()).expect("align");
    assert!(
        !alignment.correspondences.is_empty(),
        "stable alignment found nothing to match"
    );

    let combiner = Combiner::uniform(config.strategy, config.measures.len());
    let score = |s: &str, t: &str| {
        sst.combined_similarity(s, &source, t, &target, &config.measures, &combiner)
            .expect("pairwise combined score")
    };

    // What each matched concept got, keyed by name.
    let source_got: std::collections::HashMap<&str, f64> = alignment
        .correspondences
        .iter()
        .map(|c| (c.source_concept.as_str(), c.similarity))
        .collect();
    let target_got: std::collections::HashMap<&str, f64> = alignment
        .correspondences
        .iter()
        .map(|c| (c.target_concept.as_str(), c.similarity))
        .collect();

    let names_of = |ontology: &str| -> Vec<String> {
        let ont = sst.soqa().ontology(ontology).expect("ontology");
        ont.concept_ids()
            .map(|id| ont.concept(id).name.clone())
            .collect()
    };
    let mut blocking = Vec::new();
    for s in names_of(&source) {
        for t in names_of(&target) {
            let pair = score(&s, &t);
            if pair.is_nan() || pair < config.threshold {
                continue;
            }
            let s_prefers = source_got.get(s.as_str()).is_none_or(|&got| pair > got);
            let t_prefers = target_got.get(t.as_str()).is_none_or(|&got| pair > got);
            if s_prefers && t_prefers {
                blocking.push((s.clone(), t.clone(), pair));
            }
        }
    }
    assert!(
        blocking.is_empty(),
        "stable matching admits blocking pairs: {blocking:?}"
    );
}

fn f1_against_identity(alignment: &Alignment, truth: usize) -> f64 {
    let proposed = alignment.correspondences.len();
    let correct = alignment
        .correspondences
        .iter()
        .filter(|c| c.source.concept == c.target.concept)
        .count();
    if proposed == 0 || correct == 0 {
        return 0.0;
    }
    let precision = correct as f64 / proposed as f64;
    let recall = correct as f64 / truth as f64;
    2.0 * precision * recall / (precision + recall)
}

/// Greedy-vs-stable differential: on a heavily perturbed taxonomy where
/// concept ids are the ground truth, deferred acceptance never does worse
/// than first-come local matching, and the blocked generator never
/// materializes the full rectangle.
#[test]
fn stable_matches_ground_truth_at_least_as_well_as_greedy() {
    let concepts = 150;
    let (sst, source, target) = perturbed_pair(concepts, Perturbation::All, 0.45);
    let run = |mode: MatchMode| {
        let config = AlignmentConfig {
            measures: vec![
                measure_ids::CONCEPTUAL_SIMILARITY_MEASURE,
                measure_ids::JARO_WINKLER_MEASURE,
            ],
            strategy: Amalgamation::WeightedAverage,
            threshold: 0.35,
            mode,
            candidates: CandidateGen::Blocked { width: 8 },
        };
        align_with_limits(&sst, &source, &target, &config, &Limits::default()).expect("align")
    };
    let greedy = run(MatchMode::Greedy);
    let stable = run(MatchMode::Stable);

    assert!(
        stable.stats.candidate_pairs < concepts * concepts,
        "blocked generation materialized the full rectangle"
    );
    assert_eq!(stable.stats.sources_without_candidates, 0);

    let greedy_f1 = f1_against_identity(&greedy, concepts);
    let stable_f1 = f1_against_identity(&stable, concepts);
    assert!(
        stable_f1 >= greedy_f1,
        "stable F1 {stable_f1:.4} below greedy F1 {greedy_f1:.4}"
    );
    assert!(stable_f1 > 0.8, "stable F1 {stable_f1:.4} implausibly low");
}

fn send_raw(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    stream.write_all(raw).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    send_raw(
        addr,
        format!(
            "POST {target} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

struct StopOnDrop(sst_server::ShutdownHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// `POST /align` end to end: a well-formed request aligns two registered
/// ontologies; malformed bodies and unknown names map to client errors;
/// a starved step budget maps to 422 instead of unbounded work.
#[test]
fn align_endpoint_answers_and_maps_errors() {
    let (sst, source, target) = perturbed_pair(40, Perturbation::Names, 0.3);
    let corpora = sst_server::Corpora::new("default", std::sync::Arc::new(sst));

    let serve = |limits: Limits, check: &dyn Fn(SocketAddr)| {
        let server = Server::bind(ServerConfig {
            ql_limits: limits,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run(&corpora));
            let _stop = StopOnDrop(handle.clone());
            check(addr);
            handle.shutdown();
            assert!(running.join().expect("run thread").is_ok());
        });
    };

    serve(Limits::default(), &|addr| {
        let body = format!(
            "{{\"source\":\"{source}\",\"target\":\"{target}\",\
             \"measures\":[\"jaro_winkler\"],\"mode\":\"stable\",\
             \"threshold\":0.5,\"width\":8}}"
        );
        let (status, reply) = post(addr, "/align", &body);
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"mode\":\"stable\""), "{reply}");
        assert!(reply.contains("\"correspondences\":["), "{reply}");
        assert!(reply.contains("\"stats\":"), "{reply}");

        // Greedy mode answers too, and echoes its mode.
        let greedy = body.replace("\"stable\"", "\"greedy\"");
        let (status, reply) = post(addr, "/align", &greedy);
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"mode\":\"greedy\""), "{reply}");

        // Client errors: garbage body, missing fields, bad mode, unknown
        // ontology, wrong method.
        assert_eq!(post(addr, "/align", "not json").0, 400);
        assert_eq!(post(addr, "/align", "{\"source\":\"x\"}").0, 400);
        let bad_mode = body.replace("\"stable\"", "\"chaotic\"");
        assert_eq!(post(addr, "/align", &bad_mode).0, 400);
        let ghost = format!("{{\"source\":\"{source}\",\"target\":\"ghost\"}}");
        assert_eq!(post(addr, "/align", &ghost).0, 404);
        assert_eq!(
            send_raw(addr, b"GET /align HTTP/1.1\r\nhost: test\r\n\r\n").0,
            405
        );
    });

    // A starved step budget is a 422, not a hung worker.
    serve(
        Limits {
            max_steps: 1,
            ..Limits::default()
        },
        &|addr| {
            let body = format!("{{\"source\":\"{source}\",\"target\":\"{target}\"}}");
            let (status, reply) = post(addr, "/align", &body);
            assert_eq!(status, 422, "{reply}");
        },
    );
}

/// The five paper ontologies, in registration order.
const PAPER: [&str; 5] = [
    names::DAML_UNIV,
    names::UNIV_BENCH,
    names::COURSES,
    names::SWRC,
    names::SUMO,
];

fn blocked(width: usize) -> AlignmentConfig {
    AlignmentConfig {
        candidates: CandidateGen::Blocked { width },
        ..AlignmentConfig::default()
    }
}

fn paper_align(
    sst: &SstToolkit,
    source: &str,
    target: &str,
    config: &AlignmentConfig,
) -> Alignment {
    align_with_limits(sst, source, target, config, &Limits::default())
        .unwrap_or_else(|e| panic!("align {source} -> {target}: {e}"))
}

/// Equal correspondences (identities, names and similarity bits) and
/// equal counters.
fn assert_same_alignment(got: &Alignment, want: &Alignment, what: &str) {
    assert_eq!(got.stats, want.stats, "{what}: stats");
    assert_eq!(
        got.correspondences.len(),
        want.correspondences.len(),
        "{what}: correspondence count"
    );
    for (g, w) in got.correspondences.iter().zip(&want.correspondences) {
        assert_eq!(
            (
                g.source,
                g.target,
                &g.source_concept,
                &g.target_concept,
                g.similarity.to_bits()
            ),
            (
                w.source,
                w.target,
                &w.source_concept,
                &w.target_concept,
                w.similarity.to_bits()
            ),
            "{what}"
        );
    }
}

fn searches(sst: &SstToolkit) -> u64 {
    sst.metrics()
        .snapshot()
        .counter("core.align.searches")
        .unwrap_or(0)
}

/// Every alignment among the paper ontologies at blocking widths 8 and 16
/// (which read each source's stored default-probe neighborhood), 32
/// (which searches per call) and exhaustive generation: a toolkit whose
/// store already holds every source's neighborhood must answer exactly
/// as a freshly loaded one. Each fresh answer comes from a toolkit whose
/// store held none of its source's neighborhoods, so a width-8 or -16
/// alignment ran the searches itself (checked through
/// `core.align.searches`).
fn warm_alignments_equal_fresh_ones(mode: TreeMode) {
    let targets_of = |s: &str| -> Vec<&str> { PAPER.into_iter().filter(|&t| t != s).collect() };
    let warm = load_corpus(mode, false);
    for width in [8, 16] {
        for s in PAPER {
            for t in targets_of(s) {
                paper_align(&warm, s, t, &blocked(width));
            }
        }
    }
    let before = searches(&warm);
    let mut warm_stored = Vec::new();
    for width in [8, 16] {
        for s in PAPER {
            for t in targets_of(s) {
                warm_stored.push(((width, s, t), paper_align(&warm, s, t, &blocked(width))));
            }
        }
    }
    assert_eq!(
        searches(&warm),
        before,
        "{mode:?}: a warm alignment searched"
    );

    // Round r aligns every source to its r-th target, one fresh toolkit
    // per round and cached width; the per-call configurations run first
    // on the width-16 toolkits, before anything reads their store.
    for round in 0..4 {
        for width in [8, 16] {
            let fresh = load_corpus(mode, false);
            for s in PAPER {
                let t = targets_of(s)[round];
                if width == 16 {
                    for config in [
                        blocked(32),
                        AlignmentConfig {
                            candidates: CandidateGen::Exhaustive,
                            ..AlignmentConfig::default()
                        },
                    ] {
                        let want = paper_align(&fresh, s, t, &config);
                        let got = paper_align(&warm, s, t, &config);
                        let what = format!("{mode:?} {s} -> {t} {:?}", config.candidates);
                        assert_same_alignment(&got, &want, &what);
                    }
                }
                let cold = searches(&fresh);
                let want = paper_align(&fresh, s, t, &blocked(width));
                assert!(searches(&fresh) > cold, "{mode:?} {s} -> {t}: no search");
                let (_, got) = warm_stored
                    .iter()
                    .find(|(key, _)| *key == (width, s, t))
                    .expect("warm alignment recorded");
                let what = format!("{mode:?} {s} -> {t} width {width}");
                assert_same_alignment(got, &want, &what);
            }
        }
    }
}

#[test]
fn warm_alignments_equal_fresh_ones_super_thing() {
    warm_alignments_equal_fresh_ones(TreeMode::SuperThing);
}

#[test]
fn warm_alignments_equal_fresh_ones_merged_thing() {
    warm_alignments_equal_fresh_ones(TreeMode::MergedThing);
}

/// Four threads align SUMO to the four other ontologies at once on a
/// fresh toolkit, racing to store SUMO's neighborhoods; each result
/// equals the one a serial run on another fresh toolkit gives.
#[test]
fn concurrent_alignments_from_one_source_equal_serial_ones() {
    let targets: Vec<&str> = PAPER.into_iter().filter(|&t| t != names::SUMO).collect();
    let serial_sst = load_corpus(TreeMode::SuperThing, false);
    let serial: Vec<Alignment> = targets
        .iter()
        .map(|t| paper_align(&serial_sst, names::SUMO, t, &AlignmentConfig::default()))
        .collect();
    let sst = load_corpus(TreeMode::SuperThing, false);
    let concurrent: Vec<Alignment> = std::thread::scope(|scope| {
        let running: Vec<_> = targets
            .iter()
            .map(|t| {
                let sst = &sst;
                scope.spawn(move || paper_align(sst, names::SUMO, t, &AlignmentConfig::default()))
            })
            .collect();
        running
            .into_iter()
            .map(|h| h.join().expect("alignment thread"))
            .collect()
    });
    for ((t, got), want) in targets.iter().zip(&concurrent).zip(&serial) {
        assert_same_alignment(got, want, &format!("SUMO -> {t}"));
    }
    // However the threads interleaved, each source row was searched once.
    assert_eq!(searches(&sst), searches(&serial_sst));
}

/// `core.align.searches` counts the source concepts whose neighborhood an
/// alignment searched: every vector row of a source the first time it is
/// aligned at a width up to 24, none after that, and every row on each
/// call at a wider width, which does not use the stored neighborhoods.
#[test]
fn align_searches_count_only_the_searches_that_ran() {
    let sst = load_corpus(TreeMode::SuperThing, false);
    let vector_rows = |ontology: &str| -> u64 {
        let idx = sst.soqa().ontology_index(ontology).expect("ontology");
        sst.soqa()
            .ontology_at(idx)
            .concept_ids()
            .filter(|&concept| {
                sst.vector_store()
                    .position(GlobalConcept {
                        ontology: idx,
                        concept,
                    })
                    .is_some()
            })
            .count() as u64
    };
    let added = |source: &str, target: &str, config: &AlignmentConfig| {
        let before = searches(&sst);
        paper_align(&sst, source, target, config);
        searches(&sst) - before
    };
    let default = AlignmentConfig::default();
    assert!(vector_rows(names::SUMO) > 0);
    assert_eq!(
        added(names::SUMO, names::DAML_UNIV, &default),
        vector_rows(names::SUMO)
    );
    assert_eq!(added(names::SUMO, names::COURSES, &default), 0);
    assert_eq!(
        added(names::DAML_UNIV, names::SUMO, &default),
        vector_rows(names::DAML_UNIV)
    );
    for _ in 0..2 {
        assert_eq!(
            added(names::SUMO, names::DAML_UNIV, &blocked(32)),
            vector_rows(names::SUMO)
        );
    }
}
