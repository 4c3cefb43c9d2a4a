//! Similarity caching. Pairwise scores are deterministic for a built
//! toolkit (the tree, IC and index are frozen), so k-most-similar loops,
//! alignment, clustering — and above all the long-running query service
//! (`sst-server`) — which all re-query the same pairs, can share a memo.
//!
//! [`CachedSimilarity`] wraps a borrowed [`SstToolkit`] with a **sharded,
//! capacity-bounded LRU** keyed by `(measure, pair)`; pairs are stored in
//! canonical order since every registered measure is symmetric (a
//! contract user runners must meet, see [`crate::MeasureRunner`]). Keys are
//! hash-partitioned over independent mutex-guarded shards, so concurrent
//! writers on different keys do not serialize on one global lock. The
//! cache is `Sync`, so parallel clients share it. Lock poisoning is
//! recovered rather than propagated: the memo holds only derived scores,
//! so a panicking writer can never leave it semantically inconsistent.
//!
//! A key is one `u64` packed from the measure and the pair's two
//! concept-table rows, lower row first: `(measure·n + lo)·n + hi` over the
//! table's row count `n`. The packing is injective, and it is computed in
//! checked arithmetic, so a corpus too large to pack is an error, never a
//! collision.
//!
//! ## Bounded memory
//!
//! [`CachedSimilarity::new`] bounds the memo at
//! [`CachedSimilarity::DEFAULT_CAPACITY`] entries; when full, each shard
//! evicts its least-recently-used pair (counted in
//! [`CachedSimilarity::evictions`] and the `core.cache.evictions`
//! counter). [`CachedSimilarity::with_capacity`] picks a custom bound
//! (`usize::MAX` never evicts). Evicted pairs are simply recomputed
//! on the next query — scores are deterministic, so a bounded cache is
//! always bit-identical to an unbounded one (only hit/miss/eviction
//! traffic differs).
//!
//! ## Single-flight misses
//!
//! [`CachedSimilarity::get_similarity`] uses a reserve-slot protocol: the
//! first thread to miss a key reserves it and computes; concurrent
//! threads missing the same key wait and wake to a hit. Each resident
//! pair is therefore computed — and counted as a miss — exactly once
//! (the batch path of [`CachedSimilarity::most_similar`] may duplicate
//! work under concurrency but stays value-identical).

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sst_obs::Counter;

use crate::error::{Result, SstError};
use crate::facade::{ConceptAndSimilarity, ConceptSet, MeasureOp, RankOrder, SstToolkit};
use crate::lru::{ShardedLru, Slot};

/// The memo key of `measure` over the unordered row pair `{a, b}` of a
/// table with `rows` rows: `(measure·rows + lo)·rows + hi`. `None` when a
/// row is out of range or the key does not fit a `u64`.
fn pack_key(rows: usize, measure: usize, a: usize, b: usize) -> Option<u64> {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if hi >= rows {
        return None;
    }
    let n = u64::try_from(rows).ok()?;
    u64::try_from(measure)
        .ok()?
        .checked_mul(n)?
        .checked_add(u64::try_from(lo).ok()?)?
        .checked_mul(n)?
        .checked_add(u64::try_from(hi).ok()?)
}

/// A memoizing view over a toolkit.
///
/// Generic over *how* the toolkit is held: `T` is anything that borrows
/// an [`SstToolkit`] — a plain `&SstToolkit` for scoped use (the common
/// case; `CachedSimilarity::new(&sst)` works unchanged) or an
/// `Arc<SstToolkit>` for owning callers like the multi-tenant server,
/// whose hot-swappable corpora must outlive any one scope.
///
/// Hit/miss traffic is tracked twice on purpose: the local atomics back
/// [`CachedSimilarity::stats`] (per-cache, reset by construction), while the
/// `core.cache.hits` / `core.cache.misses` / `core.cache.evictions`
/// counters in the toolkit's metrics registry aggregate across every cache
/// built on the toolkit.
#[derive(Debug)]
pub struct CachedSimilarity<T: Borrow<SstToolkit>> {
    toolkit: T,
    memo: ShardedLru<u64, f64>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    hits_metric: Arc<Counter>,
    misses_metric: Arc<Counter>,
    evictions_metric: Arc<Counter>,
}

impl<T: Borrow<SstToolkit>> CachedSimilarity<T> {
    /// Default capacity bound of [`CachedSimilarity::new`], in cached
    /// pairs. Sized for serving workloads: large enough that interactive
    /// traffic over mid-size ontologies rarely evicts, small enough that a
    /// long-running service stays memory-bounded.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A cache bounded at [`CachedSimilarity::DEFAULT_CAPACITY`] pairs.
    pub fn new(toolkit: T) -> Self {
        Self::with_capacity(toolkit, Self::DEFAULT_CAPACITY)
    }

    /// A cache bounded at `capacity` pairs (clamped to at least one).
    /// When full, the least-recently-used pair of the key's shard is
    /// evicted to make room.
    pub fn with_capacity(toolkit: T, capacity: usize) -> Self {
        let (hits_metric, misses_metric, evictions_metric) = {
            let metrics = toolkit.borrow().metrics();
            (
                metrics.counter("core.cache.hits"),
                metrics.counter("core.cache.misses"),
                metrics.counter("core.cache.evictions"),
            )
        };
        CachedSimilarity {
            toolkit,
            memo: ShardedLru::with_capacity(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits_metric,
            misses_metric,
            evictions_metric,
        }
    }

    /// The wrapped toolkit.
    pub fn toolkit(&self) -> &SstToolkit {
        self.toolkit.borrow()
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Pairs evicted to uphold the capacity bound since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The configured capacity bound ([`usize::MAX`] when unbounded).
    pub fn capacity(&self) -> usize {
        self.memo.capacity()
    }

    /// Number of cached pairs; never exceeds [`CachedSimilarity::capacity`].
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached pair (capacity and counters are kept).
    /// Re-registering a differently-configured toolkit is impossible —
    /// toolkits are frozen once built — so `clear` exists for memory
    /// management: unbounded caches in long-running services can shed
    /// their memo wholesale, and bounded caches can drop a cold working
    /// set at once instead of evicting it pair by pair.
    pub fn clear(&self) {
        self.memo.clear();
    }

    /// The memo key of `measure` over the row pair `{a, b}`. Symmetric
    /// measures: each unordered pair is stored once.
    fn key(&self, measure: usize, a: usize, b: usize) -> Result<u64> {
        let rows = self.toolkit().concept_table().len();
        pack_key(rows, measure, a, b).ok_or_else(|| {
            SstError::Internal(format!(
                "memo key of measure {measure} over rows {a} and {b} of {rows} does not fit 64 bits"
            ))
        })
    }

    /// Records an eviction reported by the memo.
    fn note_evictions(&self, count: u64) {
        if count > 0 {
            self.evictions.fetch_add(count, Ordering::Relaxed);
            self.evictions_metric.add(count);
        }
    }

    /// Cached version of [`SstToolkit::get_similarity`].
    ///
    /// Misses are single-flight: concurrent callers of the same absent
    /// pair block until the first caller's computation lands, then return
    /// it as a hit — each resident pair is computed once and `misses`
    /// counts distinct computations, not racing threads.
    pub fn get_similarity(
        &self,
        first_concept: &str,
        first_ontology: &str,
        second_concept: &str,
        second_ontology: &str,
        measure: usize,
    ) -> Result<f64> {
        let toolkit = self.toolkit();
        let a = toolkit.soqa().resolve(first_ontology, first_concept)?;
        let b = toolkit.soqa().resolve(second_ontology, second_concept)?;
        let key = self.key(measure, toolkit.row(a)?, toolkit.row(b)?)?;
        match self.memo.get_or_reserve(&key) {
            Slot::Hit(cached) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.hits_metric.inc();
                Ok(cached)
            }
            Slot::Reserved => {
                match toolkit.pair_similarity(measure, a, b) {
                    Ok(value) => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        self.misses_metric.inc();
                        let evicted = self.memo.fulfill(key, value);
                        self.note_evictions(u64::from(evicted));
                        Ok(value)
                    }
                    Err(e) => {
                        // Hand the reservation to a waiter (or drop it);
                        // nothing was computed, so nothing is counted.
                        self.memo.abandon(&key);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Cached version of [`SstToolkit::most_similar`]: reuses any pairs
    /// already scored and stores the rest.
    ///
    /// Members are keyed and scored by concept-table row, never by display
    /// name, so concepts sharing a name keep distinct memo entries. One
    /// pass looks every member up; the missed rows are then sorted and
    /// deduplicated, so a repeated member is scored once and its repeats
    /// count as hits, and the misses are scored from the resident concept
    /// table and stored. Argument errors (unknown query, measure or set)
    /// fail before any lookup, and hit/miss counters move only after every
    /// member is scored, so a failing call leaves every counter untouched.
    pub fn most_similar(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        k: usize,
        measure: usize,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        let toolkit = self.toolkit();
        let (query, members) = toolkit.set_arguments(concept, ontology, set, &[measure])?;
        let _span = toolkit.measure_span(measure, MeasureOp::Rank);
        let qrow = toolkit.row(query)?;
        let rows = toolkit.rows(&members)?;

        let mut scores: Vec<f64> = Vec::with_capacity(rows.len());
        // (row, member position) of every member the memo misses.
        let mut missed: Vec<(usize, usize)> = Vec::new();
        for (position, &row) in rows.iter().enumerate() {
            match self.memo.get(&self.key(measure, qrow, row)?) {
                Some(cached) => scores.push(cached),
                None => {
                    scores.push(0.0);
                    missed.push((row, position));
                }
            }
        }

        // Sorted by row, repeats of a missed member are adjacent: the rank
        // scan scores each distinct row once, then the fresh scores fill
        // their members' positions and are stored.
        missed.sort_unstable();
        let mut distinct: Vec<usize> = missed.iter().map(|&(row, _)| row).collect();
        distinct.dedup();
        if !distinct.is_empty() {
            let fresh = toolkit.scan_rows(qrow, &distinct, measure)?;
            let mut fresh_rows = distinct.iter().zip(&fresh);
            let mut current = fresh_rows.next();
            for &(row, position) in &missed {
                if current.is_some_and(|(&r, _)| r != row) {
                    current = fresh_rows.next();
                }
                if let (Some((_, &value)), Some(score)) = (current, scores.get_mut(position)) {
                    *score = value;
                }
            }
            let mut evicted: u64 = 0;
            for (&row, &value) in distinct.iter().zip(&fresh) {
                if self.memo.insert(self.key(measure, qrow, row)?, value) {
                    evicted += 1;
                }
            }
            self.note_evictions(evicted);
        }

        // Every pair is scored: account for the completed work.
        let misses = distinct.len() as u64;
        let hits = rows.len() as u64 - misses;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.hits_metric.add(hits);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.misses_metric.add(misses);

        Ok(toolkit.select_k_best(members.into_iter().zip(scores), k, RankOrder::Descending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{measure_ids as m, SstBuilder};
    use sst_soqa::{OntologyBuilder, OntologyMetadata};

    fn toolkit() -> SstToolkit {
        let mut b = OntologyBuilder::new(OntologyMetadata {
            name: "uni".into(),
            ..OntologyMetadata::default()
        });
        let thing = b.concept("Thing");
        for name in ["Person", "Student", "Professor", "Course"] {
            let c = b.concept(name);
            b.add_subclass(c, thing);
        }
        SstBuilder::new()
            .register_ontology(b.build())
            .unwrap()
            .build()
    }

    #[test]
    fn caches_pairwise_scores() {
        let sst = toolkit();
        let cache = CachedSimilarity::new(&sst);
        let a = cache
            .get_similarity("Student", "uni", "Person", "uni", m::SHORTEST_PATH_MEASURE)
            .unwrap();
        let b = cache
            .get_similarity("Student", "uni", "Person", "uni", m::SHORTEST_PATH_MEASURE)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn symmetric_pairs_share_one_entry() {
        let sst = toolkit();
        let cache = CachedSimilarity::new(&sst);
        cache
            .get_similarity("Student", "uni", "Person", "uni", m::SHORTEST_PATH_MEASURE)
            .unwrap();
        let reversed = cache
            .get_similarity("Person", "uni", "Student", "uni", m::SHORTEST_PATH_MEASURE)
            .unwrap();
        assert_eq!(cache.stats(), (1, 1), "reverse order should hit");
        assert!(reversed > 0.0);
    }

    #[test]
    fn distinct_measures_are_distinct_keys() {
        let sst = toolkit();
        let cache = CachedSimilarity::new(&sst);
        cache
            .get_similarity("Student", "uni", "Person", "uni", m::SHORTEST_PATH_MEASURE)
            .unwrap();
        cache
            .get_similarity(
                "Student",
                "uni",
                "Person",
                "uni",
                m::CONCEPTUAL_SIMILARITY_MEASURE,
            )
            .unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_most_similar_matches_uncached() {
        let sst = toolkit();
        let cache = CachedSimilarity::new(&sst);
        let cached = cache
            .most_similar(
                "Student",
                "uni",
                &ConceptSet::All,
                3,
                m::SHORTEST_PATH_MEASURE,
            )
            .unwrap();
        let direct = sst
            .most_similar(
                "Student",
                "uni",
                &ConceptSet::All,
                3,
                m::SHORTEST_PATH_MEASURE,
            )
            .unwrap();
        assert_eq!(cached, direct);
        // Second call is fully cached.
        cache
            .most_similar(
                "Student",
                "uni",
                &ConceptSet::All,
                3,
                m::SHORTEST_PATH_MEASURE,
            )
            .unwrap();
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 5); // one per concept in the set
        assert!(hits >= 5);
    }

    #[test]
    fn clear_resets_memo() {
        let sst = toolkit();
        let cache = CachedSimilarity::new(&sst);
        cache
            .get_similarity("Student", "uni", "Person", "uni", m::SHORTEST_PATH_MEASURE)
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let sst = toolkit();
        let cache = CachedSimilarity::new(&sst);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for pair in [("Student", "Person"), ("Course", "Professor")] {
                        cache
                            .get_similarity(pair.0, "uni", pair.1, "uni", m::SHORTEST_PATH_MEASURE)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 2);
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 8);
    }

    /// The check-then-act race pin: many threads hammering the same small
    /// pair set must compute (and count) each distinct pair exactly once.
    #[test]
    fn concurrent_misses_are_single_flight() {
        let sst = toolkit();
        let cache = CachedSimilarity::new(&sst);
        let pairs = [
            ("Student", "Person"),
            ("Student", "Professor"),
            ("Student", "Course"),
            ("Person", "Professor"),
            ("Person", "Course"),
            ("Professor", "Course"),
        ];
        std::thread::scope(|scope| {
            for t in 0..8 {
                let pairs = &pairs;
                let cache = &cache;
                scope.spawn(move || {
                    for round in 0..20 {
                        for (i, pair) in pairs.iter().enumerate() {
                            // Stagger orders across threads to chase races.
                            let (a, b) = if (t + round + i) % 2 == 0 {
                                (pair.0, pair.1)
                            } else {
                                (pair.1, pair.0)
                            };
                            cache
                                .get_similarity(a, "uni", b, "uni", m::SHORTEST_PATH_MEASURE)
                                .unwrap();
                        }
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(
            misses,
            pairs.len() as u64,
            "each distinct pair is computed exactly once"
        );
        assert_eq!(hits + misses, 8 * 20 * pairs.len() as u64);
        assert_eq!(cache.len(), pairs.len());
        assert_eq!(cache.evictions(), 0);
    }

    /// A failing service call must not move the counters, and every rank
    /// service checks its arguments before it looks at the set: an empty
    /// list fails exactly like the whole corpus.
    #[test]
    fn errors_leave_counters_untouched() {
        let sst = toolkit();
        let cache = CachedSimilarity::new(&sst);
        // Unknown measure: most_similar fails before any per-row work.
        cache
            .most_similar("Student", "uni", &ConceptSet::All, 3, 999)
            .unwrap_err();
        // Unknown concept: pairwise fails before any computation.
        cache
            .get_similarity("Nobody", "uni", "Person", "uni", m::SHORTEST_PATH_MEASURE)
            .unwrap_err();

        let pair = sst_simpack::Combiner::uniform(sst_simpack::Amalgamation::WeightedAverage, 2);
        let (lin, jaro) = (m::LIN_MEASURE, m::JARO_MEASURE);
        let rank_calls = |sst: &SstToolkit| {
            let snap = sst.metrics().snapshot();
            sst.measures()
                .iter()
                .map(|info| snap.counter(&format!("core.rank.calls.{}", info.name)))
                .collect::<Vec<_>>()
        };
        let before = rank_calls(&sst);
        let empty = ConceptSet::List(Vec::new());
        let same_error = |all: Result<Vec<ConceptAndSimilarity>>,
                          empty: Result<Vec<ConceptAndSimilarity>>,
                          what: &str| {
            let expected = all.expect_err(what);
            assert_eq!(empty.expect_err(what), expected, "{what}");
        };
        for (concept, measure) in [("Nobody", lin), ("Student", 999)] {
            let what = format!("query {concept}, measure {measure}");
            same_error(
                cache.most_similar(concept, "uni", &ConceptSet::All, 3, measure),
                cache.most_similar(concept, "uni", &empty, 3, measure),
                &format!("cached most_similar, {what}"),
            );
            same_error(
                sst.most_similar(concept, "uni", &ConceptSet::All, 3, measure),
                sst.most_similar(concept, "uni", &empty, 3, measure),
                &format!("most_similar, {what}"),
            );
            same_error(
                sst.most_dissimilar(concept, "uni", &ConceptSet::All, 3, measure),
                sst.most_dissimilar(concept, "uni", &empty, 3, measure),
                &format!("most_dissimilar, {what}"),
            );
        }
        let combinations: [(&str, &[usize]); 3] = [
            ("Nobody", &[lin, jaro]),
            ("Student", &[lin, 999]),
            ("Student", &[lin, jaro, 999]),
        ];
        for (concept, measures) in combinations {
            same_error(
                sst.most_similar_combined(concept, "uni", &ConceptSet::All, 3, measures, &pair),
                sst.most_similar_combined(concept, "uni", &empty, 3, measures, &pair),
                &format!("most_similar_combined, query {concept}, measures {measures:?}"),
            );
        }
        assert_eq!(rank_calls(&sst), before, "failed ranks are not recorded");
        assert_eq!(cache.stats(), (0, 0), "no work happened, nothing counted");
        assert!(cache.is_empty());
    }

    /// Keys are injective and symmetric over every measure id, user runners
    /// included, up to the last row; they fill `[0, measures·n²)` exactly
    /// on the pairs they cover, and a corpus too large to pack is an error.
    #[test]
    fn packed_keys_are_injective_and_symmetric() {
        #[derive(Debug)]
        struct Constant;
        impl crate::MeasureRunner for Constant {
            fn info(&self) -> crate::RunnerInfo {
                crate::RunnerInfo {
                    name: "constant".into(),
                    display: "Constant".into(),
                    kind: sst_simpack::MeasureKind::String,
                    normalized: true,
                }
            }
            fn similarity(
                &self,
                _: &crate::SimilarityContext<'_>,
                _: sst_soqa::GlobalConcept,
                _: sst_soqa::GlobalConcept,
            ) -> f64 {
                0.5
            }
        }
        let mut b = OntologyBuilder::new(OntologyMetadata {
            name: "uni".into(),
            ..OntologyMetadata::default()
        });
        for name in ["Thing", "Person", "Student"] {
            b.concept(name);
        }
        let sst = SstBuilder::new()
            .register_ontology(b.build())
            .unwrap()
            .register_runner(Box::new(Constant))
            .register_runner(Box::new(Constant))
            .build();
        let cache = CachedSimilarity::new(&sst);
        let (measures, n) = (sst.measure_count(), sst.concept_table().len());
        assert!(measures > 20, "user runner ids follow the built-ins");
        let mut seen = std::collections::HashMap::new();
        for measure in 0..measures {
            for a in 0..n {
                for b in 0..n {
                    let key = cache.key(measure, a, b).unwrap();
                    assert_eq!(key, cache.key(measure, b, a).unwrap(), "symmetric");
                    let pair = (measure, a.min(b), a.max(b));
                    assert_eq!(*seen.entry(key).or_insert(pair), pair, "key {key} collides");
                }
            }
        }
        let (measures, n) = (measures as u64, n as u64);
        assert_eq!(seen.len() as u64, measures * n * (n + 1) / 2);
        assert_eq!(seen.keys().max(), Some(&(measures * n * n - 1)), "last row");
        // Out of range rows and unpackable corpora are errors.
        assert!(cache.key(0, 0, n as usize).is_err());
        assert_eq!(pack_key(1 << 32, 0, (1 << 32) - 1, 0), Some((1 << 32) - 1));
        assert_eq!(
            pack_key(1 << 32, 0, (1 << 32) - 1, (1 << 32) - 1),
            Some(u64::MAX)
        );
        assert_eq!(pack_key(1 << 32, 1, 0, 0), None, "overflow is no collision");
        assert_eq!(pack_key(usize::MAX, 0, 1, 1), None);
    }

    /// Cached ranks record the per-measure rank span, cold and warm, like
    /// the direct ones.
    #[test]
    fn cached_ranks_record_rank_metrics() {
        let sst = toolkit();
        let cache = CachedSimilarity::new(&sst);
        for _ in 0..3 {
            cache
                .most_similar("Student", "uni", &ConceptSet::All, 2, m::LIN_MEASURE)
                .unwrap();
        }
        let snap = sst.metrics().snapshot();
        assert_eq!(snap.counter("core.rank.calls.lin"), Some(3));
        assert_eq!(snap.histogram("core.rank.latency.lin").unwrap().count, 3);
        assert_eq!(cache.stats(), (10, 5), "one cold rank, two warm");
    }

    /// Bounded capacity: the LRU never grows past its bound, evictions are
    /// counted, and evicted pairs recompute to bit-identical scores.
    #[test]
    fn tiny_capacity_stays_bounded_and_bit_identical() {
        let sst = toolkit();
        let cache = CachedSimilarity::with_capacity(&sst, 2);
        assert_eq!(cache.capacity(), 2);
        let concepts = ["Thing", "Person", "Student", "Professor", "Course"];
        let mut direct = Vec::new();
        for a in concepts {
            for b in concepts {
                let cached = cache
                    .get_similarity(a, "uni", b, "uni", m::LIN_MEASURE)
                    .unwrap();
                let uncached = sst
                    .get_similarity(a, "uni", b, "uni", m::LIN_MEASURE)
                    .unwrap();
                assert_eq!(cached.to_bits(), uncached.to_bits(), "{a} vs {b}");
                assert!(cache.len() <= 2, "len {} exceeds capacity", cache.len());
                direct.push(uncached);
            }
        }
        assert!(cache.evictions() > 0, "churning 15 pairs through 2 slots");
        // Second sweep still bit-identical after heavy eviction.
        for (i, a) in concepts.iter().enumerate() {
            for (j, b) in concepts.iter().enumerate() {
                let again = cache
                    .get_similarity(a, "uni", b, "uni", m::LIN_MEASURE)
                    .unwrap();
                assert_eq!(again.to_bits(), direct[i * concepts.len() + j].to_bits());
            }
        }
    }

    #[test]
    fn unbounded_opt_out_never_evicts() {
        let sst = toolkit();
        let cache = CachedSimilarity::with_capacity(&sst, usize::MAX);
        assert_eq!(cache.capacity(), usize::MAX);
        let concepts = ["Thing", "Person", "Student", "Professor", "Course"];
        for a in concepts {
            for b in concepts {
                cache
                    .get_similarity(a, "uni", b, "uni", m::JARO_MEASURE)
                    .unwrap();
            }
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 15); // C(5,2) + 5 self-pairs
    }

    /// Two concepts share the display name "Widget" and a third was
    /// renamed after creation, so names do not address members: the cached
    /// ranking must key and score each member by identity, bit for bit
    /// like the direct ranking, for queries from both ontologies.
    #[test]
    fn cached_ranking_keeps_duplicate_display_names_apart() {
        let mut left = OntologyBuilder::new(OntologyMetadata {
            name: "dup_left".into(),
            ..OntologyMetadata::default()
        });
        let root = left.concept("Machine");
        for (name, doc) in [
            ("Widget", "a rotating gear mechanism with brass teeth"),
            ("Gadget", "a chirping bird automaton with tiny bellows"),
            ("Doohickey", "a spring loaded latch for cabinet doors"),
        ] {
            let c = left.concept(name);
            left.concept_mut(c).documentation = Some(doc.to_owned());
            left.add_subclass(c, root);
        }
        let gadget = left.concept("Gadget");
        left.concept_mut(gadget).name = "Widget".to_owned();
        let doohickey = left.concept("Doohickey");
        left.concept_mut(doohickey).name = "Gizmo".to_owned();
        let mut right = OntologyBuilder::new(OntologyMetadata {
            name: "dup_right".into(),
            ..OntologyMetadata::default()
        });
        let top = right.concept("Device");
        for (name, doc) in [
            ("GearWork", "a rotating gear mechanism with brass teeth"),
            ("BirdBox", "a chirping bird automaton with tiny bellows"),
        ] {
            let c = right.concept(name);
            right.concept_mut(c).documentation = Some(doc.to_owned());
            right.add_subclass(c, top);
        }
        let sst = SstBuilder::new()
            .register_ontology(left.build())
            .unwrap()
            .register_ontology(right.build())
            .unwrap()
            .build();
        let cache = CachedSimilarity::new(&sst);
        let queries = [
            ("Widget", "dup_left"),
            ("Gadget", "dup_left"),
            ("GearWork", "dup_right"),
            ("BirdBox", "dup_right"),
        ];
        for measure in 0..sst.measure_count() {
            for (concept, ontology) in queries {
                for k in [1, 2, 3, 10] {
                    let direct = sst
                        .most_similar(concept, ontology, &ConceptSet::All, k, measure)
                        .unwrap();
                    let cached = cache
                        .most_similar(concept, ontology, &ConceptSet::All, k, measure)
                        .unwrap();
                    assert_eq!(direct.len(), k.min(7));
                    assert_eq!(cached.len(), direct.len());
                    for (c, d) in cached.iter().zip(&direct) {
                        assert_eq!((&c.concept, &c.ontology), (&d.concept, &d.ontology));
                        assert_eq!(
                            c.similarity.to_bits(),
                            d.similarity.to_bits(),
                            "measure {measure}, k {k}, query {ontology}:{concept}, member {}",
                            c.concept
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eviction_counter_reaches_metrics_registry() {
        let sst = toolkit();
        let cache = CachedSimilarity::with_capacity(&sst, 1);
        for pair in [("Student", "Person"), ("Course", "Professor")] {
            cache
                .get_similarity(pair.0, "uni", pair.1, "uni", m::SHORTEST_PATH_MEASURE)
                .unwrap();
        }
        let snap = sst.metrics().snapshot();
        assert_eq!(snap.counter("core.cache.evictions"), Some(1));
        assert_eq!(snap.counter("core.cache.misses"), Some(2));
    }
}
