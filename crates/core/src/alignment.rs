//! Ontology alignment on top of the similarity services — the application
//! area the paper's introduction leads with ("such similarity information
//! can be useful for … ontology alignment and integration").
//!
//! [`align`] proposes a one-to-one correspondence between two registered
//! ontologies. Candidate pairs are generated per source concept through
//! *blocking* (shared name tokens, shared features, and the dense-vector
//! NSW graph as a recall channel) so the full n×m similarity matrix is
//! never materialized; preference lists are scored from the toolkit's
//! resident concept table, fanned out on the work-stealing tile
//! scheduler; and the final matching is either
//! greedy first-come best-first or Gale–Shapley deferred acceptance
//! ([`MatchMode::Stable`], the default), whose output contains no blocking
//! pair: no source/target pair that both strictly prefer each other over
//! their assigned partners.

use std::collections::HashMap;

use sst_limits::{Budget, Limits};
use sst_simpack::{Amalgamation, Combiner};
use sst_soqa::GlobalConcept;

use crate::error::{Result, SstError};
use crate::facade::SstToolkit;
use crate::runner::{PairScorer, TokenId};

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
    let candidates: Vec<Vec<usize>> = {
        let _span = sst.metrics().span("core.align.blocking.latency");
        match config.candidates {
            CandidateGen::Exhaustive => sources
                .iter()
                .map(|_| (0..targets.len()).collect())
                .collect(),
            CandidateGen::Blocked { width } => blocked_candidates(sst, &src_rows, &tgt_rows, width),
        }
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
    // scheduler in chunks of the flat candidate list. The chunks' results
    // come back in chunk order, so scores are deterministic for any worker
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
    let results = sst.fan_out(&tiles, workers, |tile| {
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
    })?;
    let mut admitted: Vec<(usize, usize, f64)> = Vec::new();
    for (&(si, tj), combined) in pair_list.iter().zip(results.into_iter().flatten()) {
        // `NaN >= t` is false, so NaN combined scores (now propagated
        // uniformly by every amalgamation strategy) are dropped here.
        if combined >= config.threshold {
            admitted.push((si, tj, combined));
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
    let mut overlap = Overlap {
        counts: vec![0; targets.len()],
        touched: Vec::new(),
        cap,
        width,
    };

    let vectors = sst.vector_store();
    // A beam a few times wider than the per-channel width keeps ANN recall
    // high after filtering out same-ontology rows. Up to width 24 that is
    // the default probe, whose results the store keeps per row, so each
    // source concept is searched once for every target ontology.
    let probe = width.saturating_mul(4).max(vectors.default_probe());
    // Store row -> target index.
    let mut target_of: Vec<Option<usize>> = vec![None; vectors.len()];
    for (tj, &row) in targets.iter().enumerate() {
        if let Some(slot) = vectors
            .position(table.view(row).concept)
            .and_then(|vrow| target_of.get_mut(vrow))
        {
            *slot = Some(tj);
        }
    }

    let mut searches = 0u64;
    let mut out = Vec::with_capacity(sources.len());
    for &row in sources {
        let view = table.view(row);
        // Shared name tokens, then shared features, each ranked by overlap
        // count.
        let mut merged = Vec::new();
        overlap.top(&token_postings, &view.name_tokens, &mut merged);
        overlap.top(&feature_postings, view.features.ids(), &mut merged);

        // Dense-vector neighborhood via the NSW graph, filtered to the
        // target ontology. Catches documentation-level similarity that
        // shares no surface tokens or features.
        if let Some(vrow) = vectors.position(view.concept) {
            let wide: Vec<u32>;
            let rows = if probe == vectors.default_probe() {
                let (rows, searched) = vectors.default_neighborhood(vrow);
                searches += u64::from(searched);
                rows
            } else {
                searches += 1;
                wide = vectors
                    .approx_candidates(vrow, probe)
                    .into_iter()
                    .map(|(r, _)| r as u32)
                    .collect();
                &wide
            };
            merged.extend(
                rows.iter()
                    .filter_map(|&r| target_of.get(r as usize).copied().flatten())
                    .take(width),
            );
        }

        merged.sort_unstable();
        merged.dedup();
        out.push(merged);
    }
    sst.metrics().add("core.align.searches", searches);
    out
}

/// One source concept's overlap counts over the target ontology, dense
/// by target index. Only the entries a source touched are nonzero, and
/// [`Overlap::top`] zeroes them again.
struct Overlap {
    counts: Vec<u32>,
    touched: Vec<usize>,
    /// Posting lists longer than this are skipped.
    cap: usize,
    /// Targets kept per channel.
    width: usize,
}

impl Overlap {
    /// Appends to `out` the `width` targets that share the most of `ids`
    /// through `postings` (count descending, then target index
    /// ascending).
    fn top(
        &mut self,
        postings: &HashMap<TokenId, Vec<usize>>,
        ids: &[TokenId],
        out: &mut Vec<usize>,
    ) {
        for id in ids {
            let Some(list) = postings.get(id).filter(|list| list.len() <= self.cap) else {
                continue;
            };
            for &tj in list {
                if let Some(count) = self.counts.get_mut(tj) {
                    if *count == 0 {
                        self.touched.push(tj);
                    }
                    *count += 1;
                }
            }
        }
        let counts = &mut self.counts;
        self.touched.sort_unstable_by(|&a, &b| {
            let (ca, cb) = (counts.get(a), counts.get(b));
            cb.cmp(&ca).then_with(|| a.cmp(&b))
        });
        out.extend(self.touched.iter().take(self.width));
        for &tj in &self.touched {
            if let Some(count) = counts.get_mut(tj) {
                *count = 0;
            }
        }
        self.touched.clear();
    }
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

    /// The candidate generator before the store kept each row's default
    /// neighborhood: per-source hash-map overlap counts, a hash-map target
    /// filter and one NSW search per source concept and call. The
    /// reference [`blocked_candidates`] must reproduce list for list.
    fn reference_blocked_candidates(
        sst: &SstToolkit,
        sources: &[usize],
        targets: &[usize],
        width: usize,
    ) -> Vec<Vec<usize>> {
        let table = sst.concept_table();
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
            let mut ranked: Vec<(usize, u32)> = overlap.into_iter().collect();
            ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked.truncate(width);
            ranked.into_iter().map(|(tj, _)| tj).collect::<Vec<usize>>()
        };
        let vectors = sst.vector_store();
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

    /// A seeded corpus of `ontologies` × `concepts` concepts drawn from
    /// shared vocabularies: two- or three-word names, inherited
    /// attributes and six-word documentation, so every recall channel
    /// finds cross-ontology overlap, and random parents.
    fn synthetic_toolkit(ontologies: usize, concepts: usize, seed: u64) -> SstToolkit {
        const WORDS: [&str; 24] = [
            "Course", "Student", "Person", "Event", "Place", "Unit", "Work", "Group", "Agent",
            "Process", "Object", "Time", "Module", "Teacher", "Paper", "Project", "Service",
            "Device", "Region", "Member", "Topic", "Record", "Method", "Role",
        ];
        const DOC: [&str; 32] = [
            "teaching",
            "research",
            "university",
            "lecture",
            "human",
            "organization",
            "journal",
            "software",
            "measurement",
            "location",
            "building",
            "vehicle",
            "energy",
            "market",
            "contract",
            "language",
            "planet",
            "river",
            "protein",
            "music",
            "painting",
            "law",
            "election",
            "weather",
            "kitchen",
            "garden",
            "bridge",
            "harbor",
            "library",
            "theater",
            "hospital",
            "factory",
        ];
        let mut state = seed;
        let mut next = |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut builder = SstBuilder::new();
        for o in 0..ontologies {
            let mut b = OntologyBuilder::new(OntologyMetadata {
                name: format!("synthetic{o}"),
                language: "Test".into(),
                ..OntologyMetadata::default()
            });
            let mut ids = Vec::with_capacity(concepts);
            while ids.len() < concepts {
                let words = 2 + next(2);
                let name: String = (0..words).map(|_| WORDS[next(WORDS.len())]).collect();
                if b.has_concept(&name) {
                    continue;
                }
                let id = b.concept(&name);
                let doc: Vec<&str> = (0..6).map(|_| DOC[next(DOC.len())]).collect();
                b.concept_mut(id).documentation = Some(doc.join(" "));
                if let Some(&parent) = ids.get(next(ids.len().max(1))) {
                    b.add_subclass(id, parent);
                }
                for _ in 0..next(4) {
                    b.add_attribute(sst_soqa::Attribute {
                        name: format!("has{}", WORDS[next(WORDS.len())]),
                        documentation: None,
                        data_type: None,
                        definition: None,
                        concept: id,
                    });
                }
                ids.push(id);
            }
            builder = builder.register_ontology(b.build()).unwrap();
        }
        builder.build()
    }

    fn table_rows(sst: &SstToolkit, ontology: usize) -> Vec<usize> {
        let concepts: Vec<GlobalConcept> = sst
            .soqa()
            .ontology_at(ontology)
            .concept_ids()
            .map(|concept| GlobalConcept { ontology, concept })
            .collect();
        sst.rows(&concepts).unwrap()
    }

    #[test]
    fn blocked_candidates_equal_the_hash_map_reference() {
        let sst = synthetic_toolkit(3, 160, 0x5eed);
        assert!(sst.vector_store().len() > sst.vector_store().default_probe());
        let onto: Vec<Vec<usize>> = (0..3).map(|o| table_rows(&sst, o)).collect();
        // Widths below, at and above the default probe's cut-off (24);
        // each source is asked for once per target, so the second target
        // of a source reads the stored neighborhood.
        for width in [1, 4, 16, 24, 25, 32] {
            let mut pairs = 0;
            for (a, sources) in onto.iter().enumerate() {
                for (b, targets) in onto.iter().enumerate() {
                    if a == b {
                        continue;
                    }
                    let got = blocked_candidates(&sst, sources, targets, width);
                    let want = reference_blocked_candidates(&sst, sources, targets, width);
                    assert_eq!(got, want, "{a} -> {b} at width {width}");
                    pairs += got.iter().map(Vec::len).sum::<usize>();
                }
            }
            assert!(pairs > 0, "width {width}: no candidates at all");
        }
    }
}
