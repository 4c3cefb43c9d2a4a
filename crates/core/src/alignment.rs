//! Ontology alignment on top of the similarity services — the application
//! area the paper's introduction leads with ("such similarity information
//! can be useful for … ontology alignment and integration").
//!
//! [`align`] proposes a one-to-one correspondence between two registered
//! ontologies. Candidate pairs are generated per source concept through
//! *blocking* (shared name tokens, shared features, and the dense-vector
//! NSW graph as a recall channel) so the full n×m similarity matrix is
//! never materialized; preference lists are scored from the toolkit's
//! resident [`ConceptTable`](crate::runner::ConceptTable), fanned out on
//! the work-stealing tile scheduler; and the final matching is either
//! greedy first-come best-first or Gale–Shapley deferred acceptance
//! ([`MatchMode::Stable`], the default), whose output contains no blocking
//! pair: no source/target pair that both strictly prefer each other over
//! their assigned partners.

use std::collections::HashMap;

use sst_limits::{Budget, Limits};
use sst_simpack::{Amalgamation, Combiner};
use sst_soqa::GlobalConcept;

use crate::error::{Result, SstError};
use crate::facade::{PairScorer, SstToolkit};
use crate::runner::TokenId;

/// One proposed correspondence. Concepts are identified by their
/// [`GlobalConcept`] ids — display names are carried for presentation only
/// and may collide between distinct concepts.
#[derive(Debug, Clone, PartialEq)]
pub struct Correspondence {
    /// Identity of the matched source concept.
    pub source: GlobalConcept,
    /// Identity of the matched target concept.
    pub target: GlobalConcept,
    /// Display name of the source concept (not necessarily unique).
    pub source_concept: String,
    /// Display name of the target concept (not necessarily unique).
    pub target_concept: String,
    pub similarity: f64,
}

/// How admitted candidate pairs are resolved into a one-to-one matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Each source concept, in id order, claims its best still-free
    /// candidate target. Order-dependent: an early source can lock a
    /// target away from a later source that scores it higher, so the
    /// result may contain blocking pairs.
    Greedy,
    /// Proposer-optimal Gale–Shapley deferred acceptance: sources propose
    /// down their preference lists, targets hold the best proposal seen so
    /// far and trade up. The result contains no blocking pair.
    #[default]
    Stable,
}

impl MatchMode {
    /// Stable lowercase name (used in metrics and the HTTP API).
    pub fn name(self) -> &'static str {
        match self {
            MatchMode::Greedy => "greedy",
            MatchMode::Stable => "stable",
        }
    }
}

/// How candidate target concepts are generated per source concept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateGen {
    /// Every source × target pair is a candidate (small ontologies,
    /// reference runs). Materializes the full rectangle.
    Exhaustive,
    /// Blocked generation: per source concept, the union of up to `width`
    /// targets from each of three recall channels — shared lowercase name
    /// tokens, shared features (attributes/methods/relationships/types),
    /// and the dense-vector NSW proximity graph.
    Blocked { width: usize },
}

/// Default per-channel blocking width.
pub const DEFAULT_BLOCK_WIDTH: usize = 16;

impl Default for CandidateGen {
    fn default() -> Self {
        CandidateGen::Blocked {
            width: DEFAULT_BLOCK_WIDTH,
        }
    }
}

/// Parameters of an alignment run.
#[derive(Debug, Clone)]
pub struct AlignmentConfig {
    /// Measure ids whose scores are combined per pair.
    pub measures: Vec<usize>,
    /// How the per-measure scores are amalgamated.
    pub strategy: Amalgamation,
    /// Pairs below this combined similarity are not proposed.
    pub threshold: f64,
    /// Matching discipline (stable by default).
    pub mode: MatchMode,
    /// Candidate generation policy (blocked by default).
    pub candidates: CandidateGen,
}

impl Default for AlignmentConfig {
    fn default() -> Self {
        AlignmentConfig {
            measures: vec![
                crate::facade::measure_ids::CONCEPTUAL_SIMILARITY_MEASURE,
                crate::facade::measure_ids::TFIDF_MEASURE,
            ],
            strategy: Amalgamation::WeightedAverage,
            threshold: 0.25,
            mode: MatchMode::default(),
            candidates: CandidateGen::default(),
        }
    }
}

/// Size and effort counters of one alignment run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlignStats {
    /// Source / target ontology concept counts.
    pub sources: usize,
    pub targets: usize,
    /// Distinct candidate pairs generated (and scored). The blocked
    /// generator keeps this well under `sources * targets`.
    pub candidate_pairs: usize,
    /// Source concepts whose candidate set came back empty.
    pub sources_without_candidates: usize,
    /// Candidate pairs whose combined score passed the threshold.
    pub admitted_pairs: usize,
    /// Pair inspections during matching: Gale–Shapley proposals in stable
    /// mode, preference-list probes in greedy mode.
    pub proposals: u64,
    /// Correspondences in the result.
    pub matches: usize,
}

/// An alignment result: the correspondences (sorted by descending
/// similarity) plus run counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    pub correspondences: Vec<Correspondence>,
    pub stats: AlignStats,
}

/// [`align_with_limits`] without resource governance (unbounded budget).
/// Returns only the correspondences, for callers that don't need counters.
pub fn align(
    sst: &SstToolkit,
    source: &str,
    target: &str,
    config: &AlignmentConfig,
) -> Result<Vec<Correspondence>> {
    align_with_limits(sst, source, target, config, &Limits::unbounded()).map(|a| a.correspondences)
}

/// Aligns `source` to `target`: proposes at most one target concept per
/// source concept (and vice versa), dropping pairs under the threshold.
/// Scoring work is charged against a step budget derived from `limits`
/// (one step per measure evaluation), so a service can bound the cost of
/// an alignment request the same way parsers bound ingestion.
pub fn align_with_limits(
    sst: &SstToolkit,
    source: &str,
    target: &str,
    config: &AlignmentConfig,
    limits: &Limits,
) -> Result<Alignment> {
    if config.measures.is_empty() {
        return Err(SstError::InvalidArgument(
            "alignment needs at least one measure".into(),
        ));
    }
    if !(0.0..=1.0).contains(&config.threshold) {
        return Err(SstError::InvalidArgument(format!(
            "threshold must be in [0, 1], got {}",
            config.threshold
        )));
    }
    if let CandidateGen::Blocked { width: 0 } = config.candidates {
        return Err(SstError::InvalidArgument(
            "blocking width must be at least 1".into(),
        ));
    }
    sst.metrics().inc("core.align.calls");
    let _span = sst.metrics().span("core.align.latency");
    let combiner = Combiner::uniform(config.strategy, config.measures.len());
    let mut budget = Budget::new(limits);

    // Concept identities are threaded end to end: ids are taken straight
    // from the ontologies and never round-tripped through display names
    // (names may collide between distinct concepts; `resolve` by name
    // would silently alias such concepts onto one id).
    let src_idx = sst.soqa().ontology_index(source)?;
    let tgt_idx = sst.soqa().ontology_index(target)?;
    let sources: Vec<GlobalConcept> = sst
        .soqa()
        .ontology_at(src_idx)
        .concept_ids()
        .map(|id| GlobalConcept {
            ontology: src_idx,
            concept: id,
        })
        .collect();
    let targets: Vec<GlobalConcept> = sst
        .soqa()
        .ontology_at(tgt_idx)
        .concept_ids()
        .map(|id| GlobalConcept {
            ontology: tgt_idx,
            concept: id,
        })
        .collect();

    let mut stats = AlignStats {
        sources: sources.len(),
        targets: targets.len(),
        ..AlignStats::default()
    };
    if sources.is_empty() || targets.is_empty() {
        return Ok(Alignment {
            correspondences: Vec::new(),
            stats,
        });
    }

    let (src_rows, tgt_rows) = (sst.rows(&sources)?, sst.rows(&targets)?);

    // ---- Candidate generation -------------------------------------------
    let candidates: Vec<Vec<usize>> = match config.candidates {
        CandidateGen::Exhaustive => sources
            .iter()
            .map(|_| (0..targets.len()).collect())
            .collect(),
        CandidateGen::Blocked { width } => blocked_candidates(sst, &src_rows, &tgt_rows, width),
    };
    stats.sources_without_candidates = candidates.iter().filter(|c| c.is_empty()).count();
    let pair_list: Vec<(usize, usize)> = candidates
        .iter()
        .enumerate()
        .flat_map(|(si, c)| c.iter().map(move |&tj| (si, tj)))
        .collect();
    stats.candidate_pairs = pair_list.len();
    sst.metrics()
        .add("core.align.candidates", pair_list.len() as u64);

    // Charge the scoring work before fanning out: one step per measure
    // evaluation plus one per prepared concept. Deterministic, so a budget
    // rejects oversized requests identically on every run.
    budget.charge_steps(
        (sources.len().saturating_add(targets.len())) as u64,
        "align.prepare",
    )?;
    budget.charge_steps(
        (pair_list.len() as u64).saturating_mul(config.measures.len() as u64),
        "align.score",
    )?;

    // ---- Preference-list scoring from the concept table ------------------
    // Only candidate pairs are scored, fanned out over the work-stealing
    // scheduler in chunks of the flat candidate list. Per-chunk results are
    // assembled by chunk index, so scores are deterministic for any worker
    // count.
    let scorers: Vec<PairScorer<'_>> = config
        .measures
        .iter()
        .map(|&m| sst.scorer(m))
        .collect::<Result<_>>()?;

    let tiles = crate::sched::rect_tiles(1, pair_list.len().max(1), 64);
    let workers = crate::sched::default_workers().min(tiles.len());
    let measures = &config.measures;
    let scorers = &scorers;
    let pairs = &pair_list;
    let (src_rows, tgt_rows) = (&src_rows, &tgt_rows);
    let (results, sched_stats) = crate::sched::run_tiles(&tiles, workers, |_, tile| {
        let mut vals = Vec::with_capacity(tile.len());
        let mut scores = vec![0.0; measures.len()];
        tile.for_each(|_, k| {
            if let Some(&(si, tj)) = pairs.get(k) {
                let (a, b) = (src_rows[si], tgt_rows[tj]);
                for ((&m, scorer), slot) in measures.iter().zip(scorers).zip(&mut scores) {
                    *slot = sst.timed_score(m, || scorer.score(a, b));
                }
                vals.push(combiner.combine(&scores));
            }
        });
        vals
    });
    if sched_stats.panicked > 0 {
        return Err(SstError::Internal("alignment worker thread died".into()));
    }
    sst.record_sched_stats(&sched_stats);
    let mut results = results;
    results.sort_unstable_by_key(|&(idx, _)| idx);
    let mut admitted: Vec<(usize, usize, f64)> = Vec::new();
    let mut flat = pair_list.iter();
    for (_, vals) in results {
        for combined in vals {
            if let Some(&(si, tj)) = flat.next() {
                // `NaN >= t` is false, so NaN combined scores (now
                // propagated uniformly by every amalgamation strategy)
                // are dropped here.
                if combined >= config.threshold {
                    admitted.push((si, tj, combined));
                }
            }
        }
    }
    stats.admitted_pairs = admitted.len();

    // Per-source preference lists, best first; `total_cmp` plus the target
    // index keeps the order a strict total order, so matching is
    // deterministic for any worker count.
    let mut prefs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); sources.len()];
    for &(si, tj, s) in &admitted {
        if let Some(list) = prefs.get_mut(si) {
            list.push((tj, s));
        }
    }
    for list in &mut prefs {
        list.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    }

    // ---- Matching --------------------------------------------------------
    let mut proposals: u64 = 0;
    let matched: Vec<(usize, usize, f64)> = match config.mode {
        MatchMode::Greedy => {
            let mut target_taken = vec![false; targets.len()];
            let mut out = Vec::new();
            for (si, list) in prefs.iter().enumerate() {
                for &(tj, s) in list {
                    proposals = proposals.saturating_add(1);
                    if let Some(taken) = target_taken.get_mut(tj) {
                        if !*taken {
                            *taken = true;
                            out.push((si, tj, s));
                            break;
                        }
                    }
                }
            }
            out
        }
        MatchMode::Stable => {
            // Deferred acceptance. `free` is a stack of unengaged sources
            // with proposals left; `next` is each source's cursor into its
            // preference list. Targets hold the best proposal seen so far
            // (ties to the lower source index), trading up when a better
            // one arrives — the displaced source goes back on the stack.
            let mut next = vec![0usize; sources.len()];
            let mut engaged_t: Vec<Option<(usize, f64)>> = vec![None; targets.len()];
            let mut free: Vec<usize> = (0..sources.len()).rev().collect();
            while let Some(si) = free.pop() {
                let cursor = next.get(si).copied().unwrap_or(usize::MAX);
                let proposal = prefs.get(si).and_then(|list| list.get(cursor)).copied();
                let Some((tj, s)) = proposal else {
                    continue; // preference list exhausted: stays unmatched
                };
                if let Some(c) = next.get_mut(si) {
                    *c = cursor.saturating_add(1);
                }
                proposals = proposals.saturating_add(1);
                let Some(slot) = engaged_t.get_mut(tj) else {
                    continue;
                };
                match *slot {
                    None => *slot = Some((si, s)),
                    Some((held_si, held_s)) => {
                        let take = match s.total_cmp(&held_s) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Less => false,
                            std::cmp::Ordering::Equal => si < held_si,
                        };
                        if take {
                            *slot = Some((si, s));
                            free.push(held_si);
                        } else {
                            free.push(si);
                        }
                    }
                }
            }
            engaged_t
                .iter()
                .enumerate()
                .filter_map(|(tj, held)| held.map(|(si, s)| (si, tj, s)))
                .collect()
        }
    };
    stats.proposals = proposals;
    sst.metrics().add("core.align.proposals", proposals);

    // Present sorted by descending similarity (deterministic tiebreak on
    // the index pair), like every other ranking service.
    let mut matched = matched;
    matched.sort_unstable_by(|a, b| {
        b.2.total_cmp(&a.2)
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });
    let src_onto = sst.soqa().ontology_at(src_idx);
    let tgt_onto = sst.soqa().ontology_at(tgt_idx);
    let mut out = Vec::with_capacity(matched.len());
    for (si, tj, sim) in matched {
        let (Some(&sgc), Some(&tgc)) = (sources.get(si), targets.get(tj)) else {
            continue;
        };
        out.push(Correspondence {
            source: sgc,
            target: tgc,
            source_concept: src_onto.concept(sgc.concept).name.clone(),
            target_concept: tgt_onto.concept(tgc.concept).name.clone(),
            similarity: sim,
        });
    }
    stats.matches = out.len();
    sst.metrics().add("core.align.matches", out.len() as u64);
    Ok(Alignment {
        correspondences: out,
        stats,
    })
}

/// Blocked candidate generation: per source concept, the union of up to
/// `width` target indices from each recall channel. All channels are
/// deterministic (counts descending, then ascending target index; the ANN
/// channel inherits the NSW graph's lower-row tie-breaking). Concepts are
/// given as concept table rows; the token and feature channels read the
/// rows' interned name-token and feature ids.
fn blocked_candidates(
    sst: &SstToolkit,
    sources: &[usize],
    targets: &[usize],
    width: usize,
) -> Vec<Vec<usize>> {
    let table = sst.concept_table();

    // Target-side postings: lowercase name token -> target indices, and
    // feature -> target indices. Posting lists longer than `cap` are
    // skipped as non-discriminative (a token shared by most of the target
    // ontology recalls nothing specific and would push candidate
    // generation back toward O(n·m)).
    let cap = (targets.len() / 2).max(width.saturating_mul(8));
    let mut token_postings: HashMap<TokenId, Vec<usize>> = HashMap::new();
    let mut feature_postings: HashMap<TokenId, Vec<usize>> = HashMap::new();
    for (tj, &row) in targets.iter().enumerate() {
        let view = table.view(row);
        for &tok in &view.name_tokens {
            token_postings.entry(tok).or_default().push(tj);
        }
        for &feat in view.features.ids() {
            feature_postings.entry(feat).or_default().push(tj);
        }
    }
    // Shared name tokens, then shared features, each ranked by overlap
    // count.
    let channel = |postings: &HashMap<TokenId, Vec<usize>>, ids: &[TokenId]| {
        let mut overlap: HashMap<usize, u32> = HashMap::new();
        for id in ids {
            match postings.get(id) {
                Some(list) if list.len() <= cap => {
                    for &tj in list {
                        *overlap.entry(tj).or_insert(0) += 1;
                    }
                }
                _ => {}
            }
        }
        top_by_count(overlap, width)
    };

    let vectors = sst.vector_store();
    // A beam a few times wider than the per-channel width keeps ANN recall
    // high after filtering out same-ontology rows.
    let probe = width.saturating_mul(4).max(vectors.default_probe());
    let target_rows: HashMap<usize, usize> = targets
        .iter()
        .enumerate()
        .filter_map(|(tj, &row)| {
            vectors
                .position(table.view(row).concept)
                .map(|vrow| (vrow, tj))
        })
        .collect();

    let mut out = Vec::with_capacity(sources.len());
    for &row in sources {
        let view = table.view(row);
        let mut merged = channel(&token_postings, &view.name_tokens);
        merged.extend(channel(&feature_postings, view.features.ids()));

        // Dense-vector neighborhood via the NSW graph, filtered to the
        // target ontology. Catches documentation-level similarity that
        // shares no surface tokens or features.
        if let Some(vrow) = vectors.position(view.concept) {
            let mut taken = 0usize;
            for (r, _) in vectors.approx_candidates(vrow, probe) {
                if let Some(&tj) = target_rows.get(&r) {
                    merged.push(tj);
                    taken += 1;
                    if taken >= width {
                        break;
                    }
                }
            }
        }

        merged.sort_unstable();
        merged.dedup();
        out.push(merged);
    }
    out
}

/// The `width` keys with the highest counts (count descending, key
/// ascending — deterministic despite hash-map iteration order).
fn top_by_count(overlap: HashMap<usize, u32>, width: usize) -> Vec<usize> {
    let mut ranked: Vec<(usize, u32)> = overlap.into_iter().collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(width);
    ranked.into_iter().map(|(tj, _)| tj).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{measure_ids as m, SstBuilder};
    use sst_soqa::{OntologyBuilder, OntologyMetadata};

    fn ontology(name: &str, concepts: &[(&str, Option<&str>, &str)]) -> sst_soqa::Ontology {
        let mut b = OntologyBuilder::new(OntologyMetadata {
            name: name.into(),
            language: "Test".into(),
            ..OntologyMetadata::default()
        });
        for &(cname, parent, doc) in concepts {
            let id = b.concept(cname);
            b.concept_mut(id).documentation = Some(doc.to_owned());
            if let Some(p) = parent {
                let pid = b.concept(p);
                b.add_subclass(id, pid);
            }
        }
        b.build()
    }

    fn toolkit() -> SstToolkit {
        let a = ontology(
            "left",
            &[
                ("Thing", None, "top"),
                ("Person", Some("Thing"), "a human being"),
                (
                    "Student",
                    Some("Person"),
                    "a person who studies at a university",
                ),
                ("Professor", Some("Person"), "a person who teaches courses"),
                ("Course", Some("Thing"), "a unit of teaching"),
            ],
        );
        let b = ontology(
            "right",
            &[
                ("Top", None, "root"),
                ("Human", Some("Top"), "a human being"),
                (
                    "Learner",
                    Some("Human"),
                    "a human who studies at a university",
                ),
                ("Teacher", Some("Human"), "a human who teaches courses"),
                ("Module", Some("Top"), "a unit of teaching"),
            ],
        );
        SstBuilder::new()
            .register_ontology(a)
            .unwrap()
            .register_ontology(b)
            .unwrap()
            .build()
    }

    #[test]
    fn aligns_semantically_matching_concepts() {
        let sst = toolkit();
        let config = AlignmentConfig {
            measures: vec![m::TFIDF_MEASURE],
            strategy: Amalgamation::WeightedAverage,
            threshold: 0.2,
            ..AlignmentConfig::default()
        };
        let result = align(&sst, "left", "right", &config).unwrap();
        let find = |s: &str| {
            result
                .iter()
                .find(|c| c.source_concept == s)
                .map(|c| c.target_concept.as_str())
        };
        assert_eq!(find("Student"), Some("Learner"));
        assert_eq!(find("Professor"), Some("Teacher"));
        assert_eq!(find("Course"), Some("Module"));
        assert_eq!(find("Person"), Some("Human"));
    }

    #[test]
    fn matching_is_one_to_one_and_sorted() {
        let sst = toolkit();
        let result = align(&sst, "left", "right", &AlignmentConfig::default()).unwrap();
        let mut targets: Vec<&str> = result.iter().map(|c| c.target_concept.as_str()).collect();
        let before = targets.len();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), before, "duplicate targets in 1:1 alignment");
        for w in result.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn threshold_filters_weak_pairs() {
        let sst = toolkit();
        let strict = AlignmentConfig {
            threshold: 0.9,
            ..AlignmentConfig::default()
        };
        let loose = AlignmentConfig {
            threshold: 0.0,
            ..AlignmentConfig::default()
        };
        let strict_result = align(&sst, "left", "right", &strict).unwrap();
        let loose_result = align(&sst, "left", "right", &loose).unwrap();
        assert!(strict_result.len() <= loose_result.len());
        // With threshold 0 every source concept finds some partner (equal
        // sizes here).
        assert_eq!(loose_result.len(), 5);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let sst = toolkit();
        assert!(align(
            &sst,
            "left",
            "right",
            &AlignmentConfig {
                measures: vec![],
                ..AlignmentConfig::default()
            }
        )
        .is_err());
        assert!(align(
            &sst,
            "left",
            "right",
            &AlignmentConfig {
                threshold: 1.5,
                ..AlignmentConfig::default()
            }
        )
        .is_err());
        assert!(align(
            &sst,
            "left",
            "right",
            &AlignmentConfig {
                candidates: CandidateGen::Blocked { width: 0 },
                ..AlignmentConfig::default()
            }
        )
        .is_err());
        assert!(align(&sst, "left", "ghost", &AlignmentConfig::default()).is_err());
    }

    #[test]
    fn greedy_and_stable_agree_on_small_exhaustive_corpora() {
        // With symmetric scores and distinct values the stable matching is
        // unique; both disciplines must find it on this toy corpus.
        let sst = toolkit();
        let greedy = align(
            &sst,
            "left",
            "right",
            &AlignmentConfig {
                mode: MatchMode::Greedy,
                candidates: CandidateGen::Exhaustive,
                ..AlignmentConfig::default()
            },
        )
        .unwrap();
        let stable = align(
            &sst,
            "left",
            "right",
            &AlignmentConfig {
                mode: MatchMode::Stable,
                candidates: CandidateGen::Exhaustive,
                ..AlignmentConfig::default()
            },
        )
        .unwrap();
        assert!(!stable.is_empty());
        assert_eq!(greedy, stable);
    }

    #[test]
    fn duplicate_display_names_do_not_alias() {
        // Regression: the engine used to round-trip concepts through
        // display names (`concept(id).name` then `resolve(name)`), so two
        // concepts sharing a name resolved to one id and correspondences
        // collapsed or mis-attributed. Ids are now threaded end to end.
        let mut left = OntologyBuilder::new(OntologyMetadata {
            name: "dup_left".into(),
            language: "Test".into(),
            ..OntologyMetadata::default()
        });
        let gear = left.concept("Widget");
        left.concept_mut(gear).documentation =
            Some("a rotating gear mechanism with brass teeth".to_owned());
        let bird = left.concept("Gadget");
        left.concept_mut(bird).documentation =
            Some("a chirping bird automaton with tiny bellows".to_owned());
        // Rename so both concepts *display* as "Widget" while remaining
        // distinct concepts.
        left.concept_mut(bird).name = "Widget".to_owned();
        let mut right = OntologyBuilder::new(OntologyMetadata {
            name: "dup_right".into(),
            language: "Test".into(),
            ..OntologyMetadata::default()
        });
        let gear_t = right.concept("GearWork");
        right.concept_mut(gear_t).documentation =
            Some("a rotating gear mechanism with brass teeth".to_owned());
        let bird_t = right.concept("BirdBox");
        right.concept_mut(bird_t).documentation =
            Some("a chirping bird automaton with tiny bellows".to_owned());
        let sst = SstBuilder::new()
            .register_ontology(left.build())
            .unwrap()
            .register_ontology(right.build())
            .unwrap()
            .build();
        let config = AlignmentConfig {
            measures: vec![m::TFIDF_MEASURE],
            strategy: Amalgamation::WeightedAverage,
            threshold: 0.2,
            ..AlignmentConfig::default()
        };
        let result = align(&sst, "dup_left", "dup_right", &config).unwrap();
        assert_eq!(result.len(), 2, "both duplicate-named concepts matched");
        assert_ne!(
            result[0].source, result[1].source,
            "duplicate-named source concepts aliased onto one id"
        );
        let by_target = |t: &str| {
            result
                .iter()
                .find(|c| c.target_concept == t)
                .map(|c| c.source.concept)
        };
        assert_eq!(by_target("GearWork"), Some(gear));
        assert_eq!(by_target("BirdBox"), Some(bird));
        for c in &result {
            assert_eq!(c.source_concept, "Widget");
        }
    }

    #[test]
    fn blocked_candidates_and_budget_are_reported() {
        let sst = toolkit();
        let result = align_with_limits(
            &sst,
            "left",
            "right",
            &AlignmentConfig::default(),
            &Limits::unbounded(),
        )
        .unwrap();
        assert_eq!(result.stats.sources, 5);
        assert_eq!(result.stats.targets, 5);
        assert!(result.stats.candidate_pairs <= 25);
        assert!(result.stats.proposals > 0);
        assert_eq!(result.stats.matches, result.correspondences.len());
        // A starved step budget rejects the run with a limit violation.
        let tiny = sst_limits::Limits {
            max_steps: 1,
            ..sst_limits::Limits::default()
        };
        let err = align_with_limits(&sst, "left", "right", &AlignmentConfig::default(), &tiny)
            .unwrap_err();
        assert!(matches!(err, SstError::Limit(_)), "got {err:?}");
    }
}
