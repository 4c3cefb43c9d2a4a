//! Dense-vector retrieval: concept embeddings, the [`VectorStore`], and a
//! dependency-free NSW-lite approximate index.
//!
//! The paper's headline service — "rank all concepts by similarity to a
//! query" — is an O(n) scan per request on the measure paths. This module
//! is the sub-linear counterpart: every concept's TF-IDF document vector
//! (kept on its `ConceptView` as well) is projected into a
//! fixed-dimension dense embedding by a *deterministic signed random
//! projection*, the embeddings live in a row-major matrix, and top-k
//! retrieval runs either as an exact brute-force scan (the reference
//! path, bit-identical to the naive facade scan under the
//! `dense_vector` measure) or through a navigable-small-world proximity
//! graph searched with a bounded best-first beam.
//!
//! Determinism is load-bearing everywhere:
//! * the projection is seeded per term id, so the same corpus always
//!   embeds to the same bits — on the naive per-pair path, the concept
//!   table, and the store build alike;
//! * graph insertion order is a seeded shuffle and every neighbor
//!   selection ties to the lower row id, so the graph layout (and
//!   therefore every approximate result) is a pure function of the
//!   corpus;
//! * query-time beam search is seeded at the query's own row, so the
//!   query concept always appears in its own candidate set (score 1.0),
//!   exactly as on the exact scan.
//!
//! Embeddings can be exported to (and reloaded from) a small checksummed
//! binary format governed by [`sst_limits::Limits`], for the offline
//! derive-once/serve-many flow.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use sst_index::TermId;
use sst_limits::{Budget, LimitViolation, Limits};
use sst_simpack::{dense_dot, dense_is_zero, dense_normalize};
use sst_soqa::GlobalConcept;

use crate::sealed::{fnv1a_extend, unseal, Framing, FNV1A_BASIS};

/// Embedding width of the toolkit-built store. 64 dimensions keep a
/// million-concept matrix at half a gigabyte while a signed random
/// projection still preserves TF-IDF cosine order well enough for
/// recall@10 ≥ 0.95 under the default probe width (see `ann_bench`).
pub const EMBED_DIM: usize = 64;

/// Seed of the per-term sign streams of [`embed_tfidf`].
const PROJECTION_SEED: u64 = 0x5353_5456_4543_5631; // "SSTVEC1" as bytes

/// Seed of the deterministic graph-insertion shuffle.
const GRAPH_SEED: u64 = 0x4e53_575f_4c49_5445; // "NSW_LITE"

/// Edges added per inserted node (to its `GRAPH_M` nearest already
/// inserted rows, bidirectionally).
const GRAPH_M: usize = 16;

/// Adjacency cap: lists that overflow under bidirectional inserts are
/// pruned back to their `GRAPH_M_MAX` best edges.
const GRAPH_M_MAX: usize = 32;

/// Beam width of the construction-time neighbor search.
const EF_CONSTRUCTION: usize = 96;

/// Default beam width of [`VectorStore::approx_candidates`]: empirically
/// recall@10 ≥ 0.95 on TF-IDF projections while touching a
/// corpus-size-independent number of rows (see `results/BENCH_ann.json`).
const DEFAULT_EF: usize = 96;

const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 step — the same generator `sst-bench` vendors, inlined
/// here because `sst-core` must not depend on the bench crate.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Projects a sparse TF-IDF vector into a unit-norm dense embedding of
/// `dim` components by a signed random projection: every term id seeds
/// its own deterministic ±1 sign stream, and each term adds
/// `weight · sign(term, d)` to component `d`. Equal inputs produce
/// bit-equal outputs, which is what keeps the naive runner, the concept
/// table, and the [`VectorStore`] mutually bit-identical. An empty
/// input (a concept with no indexed description) embeds to the zero
/// vector, which every similarity path scores 0 against.
///
/// One SplitMix64 word signs 64 consecutive components, bit `d % 64`
/// for component `d`: a set bit adds `weight`, a clear one `-weight`,
/// selected by flipping the sign bit. `-weight` is the IEEE value of
/// `weight · -1.0`, so this is the multiply-by-sign projection bit for
/// bit (`sst_bench::oracle` keeps that form as the reference).
pub fn embed_tfidf(tfidf: &[(TermId, f64)], dim: usize) -> Vec<f64> {
    let mut acc = vec![0.0; dim];
    for &(term, weight) in tfidf {
        let mut state = u64::from(term.0).wrapping_mul(SPLITMIX_GAMMA) ^ PROJECTION_SEED;
        let weight = weight.to_bits();
        for slots in acc.chunks_mut(64) {
            let negate = !splitmix_next(&mut state);
            for (d, slot) in slots.iter_mut().enumerate() {
                *slot += f64::from_bits(weight ^ ((negate >> d) << 63));
            }
        }
    }
    dense_normalize(&mut acc);
    acc
}

/// A `(dot product, row)` pair with a strict deterministic order: higher
/// dot first, ties to the lower row id. Orders the beam and every
/// neighbor selection in the graph, so search results are a pure
/// function of the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    dot: f64,
    row: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dot
            .total_cmp(&other.dot)
            .then_with(|| other.row.cmp(&self.row))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// `dense_dot(row, query)` for `L` rows at once. Each lane sums its
/// products left to right from 0.0, exactly as `dense_dot` does, so every
/// result keeps its bits; only the independent sums overlap. Rows of
/// another width than the query fall back to `dense_dot` itself.
fn dot_lanes<const L: usize>(rows: [&[f64]; L], query: &[f64]) -> [f64; L] {
    let n = query.len();
    if rows.iter().any(|r| r.len() != n) {
        return rows.map(|r| dense_dot(r, query));
    }
    let mut sums = [0.0; L];
    for (i, &q) in query.iter().enumerate() {
        for (sum, row) in sums.iter_mut().zip(&rows) {
            *sum += row[i] * q;
        }
    }
    sums
}

/// A row-major `n × dim` matrix.
#[derive(Debug, Clone, Copy)]
struct Matrix<'a> {
    values: &'a [f64],
    dim: usize,
}

impl<'a> Matrix<'a> {
    /// Row `i` (empty when out of range).
    fn row(self, i: usize) -> &'a [f64] {
        let start = i * self.dim;
        let end = start.saturating_add(self.dim);
        self.values.get(start..end).unwrap_or(&[])
    }

    /// Appends `dense_dot(row(id), query)` for each id, in order: eight or
    /// four rows at a time through [`dot_lanes`] (a short chunk repeats
    /// its last row in the spare lanes), one or two rows alone.
    fn dots(self, ids: &[u32], query: &[f64], out: &mut Vec<f64>) {
        for chunk in ids.chunks(8) {
            match chunk.len() {
                0..=2 => out.extend(
                    chunk
                        .iter()
                        .map(|&id| dense_dot(self.row(id as usize), query)),
                ),
                3..=4 => self.dots_lanes::<4>(chunk, query, out),
                _ => self.dots_lanes::<8>(chunk, query, out),
            }
        }
    }

    fn dots_lanes<const L: usize>(self, chunk: &[u32], query: &[f64], out: &mut Vec<f64>) {
        let last = chunk.last().copied().unwrap_or(0);
        let rows =
            std::array::from_fn(|l| self.row(chunk.get(l).copied().unwrap_or(last) as usize));
        out.extend(dot_lanes::<L>(rows, query).into_iter().take(chunk.len()));
    }
}

/// One beam slot: a scored row and whether its neighbors were scored.
#[derive(Debug, Clone, Copy)]
struct Slot {
    scored: Scored,
    expanded: bool,
}

/// Search state of the NSW graph, reusable across searches over one
/// matrix: the beam, a visited stamp per row, and the unvisited
/// neighbors of the node being expanded with their dots.
#[derive(Debug)]
struct Beam {
    /// At most `ef` slots, best first.
    slots: Vec<Slot>,
    /// `visited[row] == stamp` marks a row seen by the current search.
    /// One byte per row, as a `bool` would take: a query allocates it
    /// afresh, and the build refills it once every 255 searches.
    visited: Vec<u8>,
    stamp: u8,
    fresh: Vec<u32>,
    fresh_dots: Vec<f64>,
}

impl Beam {
    fn new(n: usize) -> Beam {
        Beam {
            slots: Vec::new(),
            visited: vec![0; n],
            stamp: 0,
            fresh: Vec::new(),
            fresh_dots: Vec::new(),
        }
    }

    /// Best-first beam search: leaves the `ef` best rows reachable from
    /// `entry` in [`Beam::slots`], by descending dot (ties to the lower
    /// row). It expands the best unexpanded slot until none is left — the
    /// HNSW layer-search loop on one sorted beam. A two-heap loop (a
    /// frontier max-heap beside a results min-heap, stopping at the first
    /// popped frontier entry below the worst result) expands the same
    /// nodes in the same order: an entry the results evicted ranks below
    /// the worst result, which only rises, so such an entry can only be
    /// popped once no unexpanded result is left.
    ///
    /// An expansion marks the node's unvisited neighbors visited in
    /// adjacency order, scores them together ([`Matrix::dots`]), then
    /// admits them in adjacency order: into a beam that is not full, or
    /// above its worst slot (which then drops out).
    fn search(
        &mut self,
        neighbors: &[Vec<u32>],
        matrix: Matrix<'_>,
        query: &[f64],
        ef: usize,
        entry: u32,
    ) {
        self.slots.clear();
        if (entry as usize) >= neighbors.len() {
            return;
        }
        let ef = ef.max(1);
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.visited.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        if let Some(seen) = self.visited.get_mut(entry as usize) {
            *seen = stamp;
        }
        self.slots.push(Slot {
            scored: Scored {
                dot: dense_dot(matrix.row(entry as usize), query),
                row: entry,
            },
            expanded: false,
        });
        // Every slot before `open` is expanded.
        let mut open = 0;
        loop {
            while self.slots.get(open).is_some_and(|s| s.expanded) {
                open += 1;
            }
            let Some(slot) = self.slots.get_mut(open) else {
                break;
            };
            slot.expanded = true;
            let node = slot.scored.row as usize;

            // Branch-free gather: every neighbor is written, and the
            // length advances past the unvisited ones only.
            let adjacency = neighbors.get(node).map(Vec::as_slice).unwrap_or(&[]);
            self.fresh.resize(adjacency.len(), 0);
            let mut fresh = 0;
            for &nb in adjacency {
                if let (Some(seen), Some(slot)) =
                    (self.visited.get_mut(nb as usize), self.fresh.get_mut(fresh))
                {
                    fresh += usize::from(*seen != stamp);
                    *seen = stamp;
                    *slot = nb;
                }
            }
            self.fresh.truncate(fresh);
            self.fresh_dots.clear();
            matrix.dots(&self.fresh, query, &mut self.fresh_dots);

            for (&row, &dot) in self.fresh.iter().zip(&self.fresh_dots) {
                let cand = Scored { dot, row };
                let admit =
                    self.slots.len() < ef || self.slots.last().is_some_and(|w| cand > w.scored);
                if !admit {
                    continue;
                }
                let at = self.slots.partition_point(|s| s.scored > cand);
                self.slots.insert(
                    at,
                    Slot {
                        scored: cand,
                        expanded: false,
                    },
                );
                self.slots.truncate(ef);
                open = open.min(at);
            }
        }
    }
}

/// NSW-lite proximity graph: one navigable small-world layer, searched
/// with a bounded best-first beam. Nodes are store rows; edges connect
/// each row to its (approximately) nearest neighbors by embedding dot
/// product. Greedy beam search from a seed node converges on the query's
/// neighborhood while touching a corpus-size-independent number of rows,
/// which is what makes `most_similar_approx` sub-linear.
#[derive(Debug)]
struct NswGraph {
    /// Adjacency lists, row-aligned with the store matrix.
    neighbors: Vec<Vec<u32>>,
}

/// Builds the proximity graph over the store matrix. Rows are inserted
/// in a seeded shuffled order (taxonomy order would chain near-duplicate
/// siblings and starve long-range links); each new row is connected
/// bidirectionally to its `GRAPH_M` best already-inserted rows found by
/// a construction-width beam search from the first inserted row, and
/// adjacency lists are pruned back to the `GRAPH_M_MAX` best edges when
/// they overflow. Every choice ties to the lower row id, so the layout
/// is a pure function of the matrix. All searches share one [`Beam`].
///
/// Each edge keeps the dot the search that created it computed, for
/// both of its ends: `dense_dot(a, b)` and `dense_dot(b, a)` are equal bit
/// for bit (each product commutes, the sum runs in index order), so
/// pruning sorts stored values instead of recomputing dots. The finished
/// graph keeps the row ids only.
fn build_nsw(matrix: Matrix<'_>, n: usize) -> NswGraph {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = GRAPH_SEED;
    for i in (1..n).rev() {
        let j = (splitmix_next(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let entry = order.first().copied().unwrap_or(0);
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut edge_dots: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut beam = Beam::new(n);
    let mut edges: Vec<Scored> = Vec::new();
    for &v in order.iter().skip(1) {
        let query = matrix.row(v as usize);
        beam.search(&neighbors, matrix, query, EF_CONSTRUCTION, entry);
        for link in beam.slots.iter().take(GRAPH_M).map(|s| s.scored) {
            neighbors[v as usize].push(link.row);
            edge_dots[v as usize].push(link.dot);
            // Only the linked row can overflow: the new row gets at most
            // `GRAPH_M` edges from its own insertion.
            let (ids, dots) = (
                &mut neighbors[link.row as usize],
                &mut edge_dots[link.row as usize],
            );
            ids.push(v);
            dots.push(link.dot);
            if ids.len() > GRAPH_M_MAX {
                edges.clear();
                edges.extend(
                    ids.iter()
                        .zip(dots.iter())
                        .map(|(&row, &dot)| Scored { dot, row }),
                );
                edges.sort_unstable_by(|a, b| b.cmp(a));
                edges.truncate(GRAPH_M_MAX);
                ids.clear();
                dots.clear();
                ids.extend(edges.iter().map(|e| e.row));
                dots.extend(edges.iter().map(|e| e.dot));
            }
        }
    }
    NswGraph { neighbors }
}

/// The per-concept embedding matrix with exact and approximate top-k
/// retrieval. Rows are unit (or zero) vectors in toolkit concept order;
/// the exact scan is the reference path, bit-identical to ranking with
/// the `dense_vector` measure on the naive facade scan.
pub struct VectorStore {
    dim: usize,
    concepts: Vec<GlobalConcept>,
    /// Qualified concept names, row-aligned (the stable identity used by
    /// the binary format).
    labels: Vec<String>,
    /// Row-major `n × dim` matrix of unit/zero vectors.
    vectors: Vec<f64>,
    /// Per row: the embedding is the zero vector (no description).
    zero: Vec<bool>,
    positions: HashMap<GlobalConcept, usize>,
    graph: NswGraph,
    /// Per row, once first asked for: the row ids
    /// [`VectorStore::approx_candidates`] returns at the default probe,
    /// in its order (see [`VectorStore::default_neighborhood`]).
    neighborhoods: Vec<OnceLock<Box<[u32]>>>,
}

impl fmt::Debug for VectorStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VectorStore")
            .field("len", &self.len())
            .field("dim", &self.dim)
            .field("default_probe", &self.default_probe())
            .finish()
    }
}

impl VectorStore {
    /// Builds a store from `(concept, qualified name, embedding)` rows.
    /// Embeddings must be unit or zero vectors of width `dim` (shorter
    /// rows are zero-padded); [`embed_tfidf`] produces exactly that.
    pub fn from_rows(rows: Vec<(GlobalConcept, String, Vec<f64>)>, dim: usize) -> VectorStore {
        let mut store = VectorStore::without_graph(rows, dim);
        store.graph = build_nsw(store.matrix(), store.len());
        store
    }

    /// [`VectorStore::from_rows`] with the proximity graph given instead
    /// of built: `adjacency` holds, per row, its neighbors' row ids, as
    /// [`VectorStore::adjacency`] returns them. It must hold one list per
    /// row, of at most `GRAPH_M_MAX` ids each, every id a row of the
    /// store; anything else is refused with a message naming the row. Within
    /// those bounds a search cannot leave the store, and the graph is
    /// searched as given.
    pub(crate) fn with_graph(
        rows: Vec<(GlobalConcept, String, Vec<f64>)>,
        dim: usize,
        adjacency: Vec<Vec<u32>>,
    ) -> Result<VectorStore, String> {
        let n = rows.len();
        if adjacency.len() != n {
            return Err(format!(
                "{} adjacency lists for {n} store rows",
                adjacency.len()
            ));
        }
        for (row, ids) in adjacency.iter().enumerate() {
            if ids.len() > GRAPH_M_MAX {
                return Err(format!(
                    "row {row} has degree {}, above the bound {GRAPH_M_MAX}",
                    ids.len()
                ));
            }
            if let Some(id) = ids.iter().find(|&&id| id as usize >= n) {
                return Err(format!(
                    "row {row} links to row {id}, past the {n} store rows"
                ));
            }
        }
        let mut store = VectorStore::without_graph(rows, dim);
        store.graph = NswGraph {
            neighbors: adjacency,
        };
        Ok(store)
    }

    /// The store over `rows`, with an empty proximity graph.
    fn without_graph(rows: Vec<(GlobalConcept, String, Vec<f64>)>, dim: usize) -> VectorStore {
        let n = rows.len();
        let mut concepts = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut vectors = Vec::with_capacity(n * dim);
        let mut zero = Vec::with_capacity(n);
        let mut positions = HashMap::with_capacity(n);
        for (i, (gc, label, mut v)) in rows.into_iter().enumerate() {
            v.resize(dim, 0.0);
            zero.push(dense_is_zero(&v));
            vectors.extend_from_slice(&v);
            positions.entry(gc).or_insert(i);
            concepts.push(gc);
            labels.push(label);
        }
        VectorStore {
            dim,
            concepts,
            labels,
            vectors,
            zero,
            positions,
            graph: NswGraph {
                neighbors: Vec::new(),
            },
            neighborhoods: std::iter::repeat_with(OnceLock::new).take(n).collect(),
        }
    }

    /// Number of stored concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Default probe (beam) width of [`VectorStore::approx_candidates`].
    pub fn default_probe(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            DEFAULT_EF
        }
    }

    /// Row of `gc`, if stored.
    pub fn position(&self, gc: GlobalConcept) -> Option<usize> {
        self.positions.get(&gc).copied()
    }

    /// Concept at `row`.
    pub fn concept(&self, row: usize) -> Option<GlobalConcept> {
        self.concepts.get(row).copied()
    }

    /// Qualified name at `row`.
    pub fn label(&self, row: usize) -> Option<&str> {
        self.labels.get(row).map(String::as_str)
    }

    /// The embedding at `row` (empty slice when out of range).
    pub fn row(&self, row: usize) -> &[f64] {
        self.matrix().row(row)
    }

    fn matrix(&self) -> Matrix<'_> {
        Matrix {
            values: &self.vectors,
            dim: self.dim,
        }
    }

    /// Shifted-unit-cosine similarity of two rows, with the identity
    /// axiom: the same row scores 1.0 even when its embedding is zero —
    /// matching the `dense_vector` runner's concept-identity guard, so
    /// store scores and measure scores agree bit-for-bit.
    pub fn similarity(&self, a: usize, b: usize) -> f64 {
        self.score(a, b, || dense_dot(self.row(a), self.row(b)))
    }

    /// [`VectorStore::similarity`] of rows `a` and `b` given their dot
    /// product, which is called only when the score depends on it.
    fn score(&self, a: usize, b: usize, dot: impl FnOnce() -> f64) -> f64 {
        if a == b {
            return 1.0;
        }
        if self.zero.get(a).copied().unwrap_or(true) || self.zero.get(b).copied().unwrap_or(true) {
            return 0.0;
        }
        (0.5 * (1.0 + dot())).clamp(0.0, 1.0)
    }

    /// Exact reference path: the query row scored against every row, in
    /// row order. Sorting `(row, score)` by the facade's shared rank
    /// comparator and truncating at `k` is bit-identical to the naive
    /// facade scan under the `dense_vector` measure.
    pub fn scores_exact(&self, query: usize) -> Vec<(usize, f64)> {
        (0..self.len())
            .map(|row| (row, self.similarity(query, row)))
            .collect()
    }

    /// Approximate path: the `probe` best rows found by a beam search of
    /// the proximity graph, seeded at the query's own row — so the beam
    /// starts at the optimum and the query is always among the
    /// candidates. Per-query cost scales with `probe`, not corpus size.
    /// Pass [`VectorStore::default_probe`] for the tuned default; larger
    /// values trade latency for recall, and `probe ≥ len` degenerates to
    /// the exact scan (bit-identical scores). Each candidate is scored
    /// from the dot product the search computed for it, which is
    /// `dense_dot` of the same two rows.
    pub fn approx_candidates(&self, query: usize, probe: usize) -> Vec<(usize, f64)> {
        if query >= self.len() {
            return Vec::new();
        }
        if probe >= self.len() {
            return self.scores_exact(query);
        }
        let mut beam = Beam::new(self.len());
        beam.search(
            &self.graph.neighbors,
            self.matrix(),
            self.row(query),
            probe,
            query as u32,
        );
        let mut out: Vec<(usize, f64)> = beam
            .slots
            .iter()
            .map(|s| {
                let row = s.scored.row as usize;
                (row, self.score(query, row, || s.scored.dot))
            })
            .collect();
        if !out.iter().any(|&(row, _)| row == query) {
            out.push((query, 1.0));
        }
        out
    }

    /// The proximity graph: per row, its neighbors' row ids.
    pub(crate) fn adjacency(&self) -> &[Vec<u32>] {
        &self.graph.neighbors
    }

    /// The row ids of `approx_candidates(row, default_probe())`, in its
    /// order, and whether this call ran that search. A row is searched
    /// on its first call only and its ids are kept, since the store never
    /// changes: at most `default_probe() + 1` ids per row that was asked
    /// for. Alignment asks for every source concept of every alignment,
    /// so one search serves all the targets of a source. Rankings keep
    /// calling [`VectorStore::approx_candidates`]: one ranking runs one
    /// search. An out-of-range row has no ids.
    pub(crate) fn default_neighborhood(&self, row: usize) -> (&[u32], bool) {
        let Some(cell) = self.neighborhoods.get(row) else {
            return (&[], false);
        };
        let mut searched = false;
        let ids = cell.get_or_init(|| {
            searched = true;
            self.approx_candidates(row, self.default_probe())
                .into_iter()
                .map(|(r, _)| r as u32)
                .collect()
        });
        (ids, searched)
    }

    // ---- checksummed binary format ------------------------------------

    /// Serializes the embedding matrix (not the proximity graph: an
    /// import of this file rebuilds it, and a snapshot stores it in a
    /// section of its own): a magic/version header, the
    /// dimension and row count, label + vector per row, and a trailing
    /// FNV-1a checksum over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(|field| out.extend_from_slice(field));
        out
    }

    /// Whether `bytes` is exactly [`VectorStore::to_bytes`], checked
    /// field by field against the encoder's output as it is written,
    /// checksum trailer included, without building the file.
    pub(crate) fn encodes_to(&self, bytes: &[u8]) -> bool {
        let mut rest = Some(bytes);
        self.encode(|field| rest = rest.and_then(|r| r.strip_prefix(field)));
        rest.is_some_and(<[u8]>::is_empty)
    }

    /// The one writer of the `SSTVEC1` layout: hands every field of the
    /// file to `sink` in order, the FNV-1a trailer over all of them last.
    fn encode(&self, mut sink: impl FnMut(&[u8])) {
        let mut checksum = FNV1A_BASIS;
        let mut put = |field: &[u8]| {
            checksum = fnv1a_extend(checksum, field);
            sink(field);
        };
        put(FORMAT_MAGIC);
        put(&(self.dim as u32).to_le_bytes());
        put(&(self.len() as u64).to_le_bytes());
        for (label, row) in self.labels.iter().zip(self.vectors.chunks(self.dim.max(1))) {
            put(&(label.len() as u32).to_le_bytes());
            put(label.as_bytes());
            for v in row {
                put(&v.to_le_bytes());
            }
        }
        sink(&checksum.to_le_bytes());
    }
}

/// Magic + version prefix of the embedding file format.
pub const FORMAT_MAGIC: &[u8; 8] = b"SSTVEC1\n";

/// Upper bound on the embedding width the loader accepts; far above any
/// width the toolkit produces, low enough that `count · dim · 8` cannot
/// overflow the input-size check.
const MAX_FORMAT_DIM: usize = 4096;

/// How far a loaded row's squared norm may stray from 1: the store
/// scores rows by their plain dot product, so it requires unit (or zero)
/// rows.
const UNIT_TOLERANCE: f64 = 1e-9;

/// A parse failure of the embedding binary format.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorFormatError {
    /// The input ended before the named field.
    Truncated(&'static str),
    /// The magic/version prefix does not match [`FORMAT_MAGIC`].
    BadMagic,
    /// Dimension outside `1..=4096`.
    BadDimension(usize),
    /// A row label is not valid UTF-8.
    BadLabel(usize),
    /// A row holds a NaN or infinite component.
    NonFinite { row: usize },
    /// A row is neither all-zero nor of unit length.
    NotUnit { row: usize, squared_norm: f64 },
    /// Trailing bytes after the checksum.
    TrailingBytes(usize),
    /// The stored checksum does not match the content.
    Checksum { expected: u64, actual: u64 },
    /// A resource limit was exceeded while loading.
    Limit(LimitViolation),
}

impl fmt::Display for VectorFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VectorFormatError::Truncated(what) => {
                write!(f, "vector file truncated at {what}")
            }
            VectorFormatError::BadMagic => write!(f, "not an SSTVEC1 vector file"),
            VectorFormatError::BadDimension(d) => {
                write!(f, "vector dimension {d} outside 1..={MAX_FORMAT_DIM}")
            }
            VectorFormatError::BadLabel(row) => {
                write!(f, "row {row} label is not valid UTF-8")
            }
            VectorFormatError::NonFinite { row } => {
                write!(f, "row {row} has a non-finite component")
            }
            VectorFormatError::NotUnit { row, squared_norm } => write!(
                f,
                "row {row} is neither zero nor unit length (squared norm {squared_norm})"
            ),
            VectorFormatError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after checksum")
            }
            VectorFormatError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            VectorFormatError::Limit(v) => write!(f, "vector file over limit: {v}"),
        }
    }
}

impl std::error::Error for VectorFormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VectorFormatError::Limit(v) => Some(v),
            _ => None,
        }
    }
}

impl From<LimitViolation> for VectorFormatError {
    fn from(v: LimitViolation) -> Self {
        VectorFormatError::Limit(v)
    }
}

impl From<Framing> for VectorFormatError {
    fn from(f: Framing) -> Self {
        match f {
            Framing::Truncated(what) => VectorFormatError::Truncated(what),
            Framing::Checksum { expected, actual } => {
                VectorFormatError::Checksum { expected, actual }
            }
            Framing::TrailingBytes(n) => VectorFormatError::TrailingBytes(n),
        }
    }
}

/// A decoded embedding file: rows of `(qualified name, vector)`. The
/// facade re-resolves labels against its registered concepts when
/// importing into a [`VectorStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVectorFile {
    pub dim: usize,
    pub rows: Vec<(String, Vec<f64>)>,
}

impl DenseVectorFile {
    /// Decodes and validates an embedding file under `limits`: the whole
    /// input is bounded by `max_input_bytes`, each label by
    /// `max_literal_bytes`, and the row count by `max_items`. The
    /// checksum is verified before any row is returned, and every row
    /// must be finite and either all-zero or of unit length
    /// (`|Σv² − 1| ≤ 1e-9`), as [`VectorStore::from_rows`] requires.
    pub fn from_bytes(bytes: &[u8], limits: &Limits) -> Result<DenseVectorFile, VectorFormatError> {
        let mut budget = Budget::new(limits);
        budget.check_input(bytes.len(), "vector file")?;

        let mut cur = unseal(bytes)?;
        if cur.take(FORMAT_MAGIC.len(), "magic")? != FORMAT_MAGIC {
            return Err(VectorFormatError::BadMagic);
        }
        let dim = cur.u32("dimension")? as usize;
        if dim == 0 || dim > MAX_FORMAT_DIM {
            return Err(VectorFormatError::BadDimension(dim));
        }
        let count = cur.u64("row count")?;
        let mut rows = Vec::new();
        for i in 0..count {
            budget.item("vector row")?;
            let label_len = cur.u32("label length")? as usize;
            budget.check_literal(label_len, "vector label")?;
            let label = std::str::from_utf8(cur.take(label_len, "label")?)
                .map_err(|_| VectorFormatError::BadLabel(i as usize))?
                .to_owned();
            let mut v = Vec::with_capacity(dim);
            for _ in 0..dim {
                v.push(cur.f64("vector component")?);
            }
            let row = i as usize;
            if !v.iter().all(|c| c.is_finite()) {
                return Err(VectorFormatError::NonFinite { row });
            }
            let squared_norm = dense_dot(&v, &v);
            if !dense_is_zero(&v) && (squared_norm - 1.0).abs() > UNIT_TOLERANCE {
                return Err(VectorFormatError::NotUnit { row, squared_norm });
            }
            rows.push((label, v));
        }
        cur.finish()?;
        Ok(DenseVectorFile { dim, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sealed::fnv1a;

    fn gc(i: u32) -> GlobalConcept {
        GlobalConcept {
            ontology: 0,
            concept: sst_soqa::ConceptId(i),
        }
    }

    fn unit(components: &[f64]) -> Vec<f64> {
        let mut v = components.to_vec();
        dense_normalize(&mut v);
        v
    }

    fn tiny_store() -> VectorStore {
        let rows = vec![
            (gc(0), "o:a".to_owned(), unit(&[1.0, 0.0, 0.0, 0.0])),
            (gc(1), "o:b".to_owned(), unit(&[0.9, 0.1, 0.0, 0.0])),
            (gc(2), "o:c".to_owned(), unit(&[0.0, 1.0, 0.0, 0.0])),
            (gc(3), "o:d".to_owned(), vec![0.0; 4]),
        ];
        VectorStore::from_rows(rows, 4)
    }

    #[test]
    fn embed_is_deterministic_and_unit_norm() {
        let tfidf = vec![(TermId(3), 0.5), (TermId(17), 1.25), (TermId(90000), 0.75)];
        let a = embed_tfidf(&tfidf, EMBED_DIM);
        let b = embed_tfidf(&tfidf, EMBED_DIM);
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        assert!(dense_is_zero(&embed_tfidf(&[], EMBED_DIM)));
    }

    #[test]
    fn embed_preserves_self_similarity_structure() {
        // A vector far from another in TF-IDF space should project far
        // in embedding space more often than not; at minimum, identical
        // inputs must coincide and disjoint supports must differ.
        let x = embed_tfidf(&[(TermId(1), 1.0), (TermId(2), 1.0)], EMBED_DIM);
        let y = embed_tfidf(&[(TermId(1), 1.0), (TermId(2), 1.0)], EMBED_DIM);
        let z = embed_tfidf(&[(TermId(7), 1.0), (TermId(8), 1.0)], EMBED_DIM);
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn store_identity_and_zero_axioms() {
        let s = tiny_store();
        assert_eq!(s.similarity(0, 0), 1.0);
        assert_eq!(s.similarity(3, 3), 1.0); // identity even for zero rows
        assert_eq!(s.similarity(3, 0), 0.0);
        assert_eq!(s.similarity(0, 3), 0.0);
        let close = s.similarity(0, 1);
        let far = s.similarity(0, 2);
        assert!(close > far);
        assert!((0.0..=1.0).contains(&close) && (0.0..=1.0).contains(&far));
    }

    #[test]
    fn exact_scores_cover_every_row_in_order() {
        let s = tiny_store();
        let scores = s.scores_exact(1);
        assert_eq!(scores.len(), 4);
        assert_eq!(scores[1], (1, 1.0));
        for (i, &(row, _)) in scores.iter().enumerate() {
            assert_eq!(row, i);
        }
    }

    #[test]
    fn approx_candidates_always_include_the_query() {
        let s = tiny_store();
        for q in 0..s.len() {
            let cands = s.approx_candidates(q, 1);
            assert!(
                cands.iter().any(|&(row, score)| row == q && score == 1.0),
                "query {q} missing from its own candidates"
            );
        }
    }

    #[test]
    fn full_probe_matches_exact_scores() {
        let s = tiny_store();
        let mut exact = s.scores_exact(0);
        let mut approx = s.approx_candidates(0, s.len());
        exact.sort_by_key(|a| a.0);
        approx.sort_by_key(|a| a.0);
        // A corpus-wide probe must see every row exactly once, with
        // bit-identical scores.
        assert_eq!(exact.len(), approx.len());
        for (e, a) in exact.iter().zip(&approx) {
            assert_eq!(e.0, a.0);
            assert_eq!(e.1.to_bits(), a.1.to_bits());
        }
    }

    #[test]
    fn format_round_trips() {
        let s = tiny_store();
        let bytes = s.to_bytes();
        let file = DenseVectorFile::from_bytes(&bytes, &Limits::default()).unwrap();
        assert_eq!(file.dim, 4);
        assert_eq!(file.rows.len(), 4);
        assert_eq!(file.rows[0].0, "o:a");
        for (i, (_, v)) in file.rows.iter().enumerate() {
            assert_eq!(v, s.row(i));
        }
    }

    #[test]
    fn the_in_place_check_accepts_exactly_the_encoding() {
        let s = tiny_store();
        let good = s.to_bytes();
        assert!(s.encodes_to(&good));
        // Any one byte changed, the trailer's included, and any length off.
        for at in 0..good.len() {
            let mut changed = good.clone();
            changed[at] ^= 0x01;
            assert!(!s.encodes_to(&changed), "byte {at}");
        }
        assert!(!s.encodes_to(&good[..good.len() - 1]));
        assert!(!s.encodes_to(&[good.as_slice(), &[0]].concat()));
        assert!(!s.encodes_to(&[]));
    }

    #[test]
    fn format_rejects_corruption() {
        let s = tiny_store();
        let good = s.to_bytes();

        // Flip one payload byte: checksum error.
        let mut flipped = good.clone();
        flipped[10] ^= 0xff;
        assert!(matches!(
            DenseVectorFile::from_bytes(&flipped, &Limits::default()),
            Err(VectorFormatError::Checksum { .. })
        ));

        // Truncate: error, not a panic.
        assert!(DenseVectorFile::from_bytes(&good[..good.len() - 3], &Limits::default()).is_err());
        assert!(DenseVectorFile::from_bytes(&[], &Limits::default()).is_err());

        // Wrong magic with a recomputed checksum: BadMagic.
        let mut wrong = good[..good.len() - 8].to_vec();
        wrong[0] = b'X';
        let sum = fnv1a(&wrong);
        wrong.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            DenseVectorFile::from_bytes(&wrong, &Limits::default()),
            Err(VectorFormatError::BadMagic)
        ));

        // Row values with a recomputed checksum: a NaN component, then a
        // row scaled by 2. Row 1 ("o:b") starts after the header, row 0's
        // label and vector, and its own label.
        let at = 8 + 4 + 8 + (4 + 3 + 4 * 8) + 4 + 3;
        let reseal = |edit: &dyn Fn(&mut [u8])| {
            let mut bytes = good[..good.len() - 8].to_vec();
            edit(&mut bytes[at..at + 4 * 8]);
            let sum = fnv1a(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            DenseVectorFile::from_bytes(&bytes, &Limits::default())
        };
        assert_eq!(
            reseal(&|row| row[..8].copy_from_slice(&f64::NAN.to_le_bytes())),
            Err(VectorFormatError::NonFinite { row: 1 })
        );
        let doubled = reseal(&|row| {
            for c in row.chunks_mut(8) {
                let v = f64::from_le_bytes(c.try_into().unwrap());
                c.copy_from_slice(&(2.0 * v).to_le_bytes());
            }
        });
        assert!(
            matches!(doubled, Err(VectorFormatError::NotUnit { row: 1, squared_norm }) if (squared_norm - 4.0).abs() < 1e-9),
            "{doubled:?}"
        );
        // The zero row (row 3) stays acceptable.
        assert!(reseal(&|_| {}).is_ok());
    }

    #[test]
    fn format_is_governed_by_limits() {
        let s = tiny_store();
        let bytes = s.to_bytes();
        let tight = Limits::default().with_max_input_bytes(8);
        assert!(matches!(
            DenseVectorFile::from_bytes(&bytes, &tight),
            Err(VectorFormatError::Limit(_))
        ));
        let few_items = Limits::default().with_max_items(2);
        assert!(matches!(
            DenseVectorFile::from_bytes(&bytes, &few_items),
            Err(VectorFormatError::Limit(_))
        ));
    }

    /// 64 rows of two seeded terms each, 8 dimensions.
    fn seeded_rows() -> Vec<(GlobalConcept, String, Vec<f64>)> {
        (0..64)
            .map(|i| {
                let tfidf = vec![(TermId(i), 1.0), (TermId(i / 4), 0.5)];
                (gc(i), format!("o:c{i}"), embed_tfidf(&tfidf, 8))
            })
            .collect()
    }

    /// 20 clusters of 16 near-duplicate rows each, 16 dimensions.
    fn structured_store() -> VectorStore {
        let rows: Vec<(GlobalConcept, String, Vec<f64>)> = (0..320u32)
            .map(|i| {
                let cluster = i / 16;
                let tfidf = vec![(TermId(cluster), 4.0), (TermId(1000 + i), 0.5)];
                (gc(i), format!("o:c{i}"), embed_tfidf(&tfidf, 16))
            })
            .collect();
        VectorStore::from_rows(rows, 16)
    }

    #[test]
    fn graph_layout_is_deterministic() {
        let rows = seeded_rows();
        let a = VectorStore::from_rows(rows.clone(), 8);
        let b = VectorStore::from_rows(rows, 8);
        assert_eq!(a.default_probe(), b.default_probe());
        for q in 0..a.len() {
            assert_eq!(a.approx_candidates(q, 12), b.approx_candidates(q, 12));
        }
    }

    #[test]
    fn beam_search_finds_true_neighbors_on_a_structured_corpus() {
        // A beam of 32 must recover the query's own cluster as its top
        // candidates.
        let s = structured_store();
        for q in [0usize, 17, 155, 319] {
            let cands = s.approx_candidates(q, 32);
            let cluster = (q as u32) / 16;
            let mut top: Vec<(usize, f64)> = cands.clone();
            top.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let in_cluster = top
                .iter()
                .take(16)
                .filter(|&&(row, _)| (row as u32) / 16 == cluster)
                .count();
            assert!(
                in_cluster >= 14,
                "query {q}: only {in_cluster}/16 of the top candidates are in its cluster"
            );
        }
    }

    #[test]
    fn a_store_given_its_graph_searches_as_the_built_one() {
        for built in [structured_store(), tiny_store()] {
            let rows: Vec<_> = (0..built.len())
                .map(|r| {
                    let gc = built.concept(r).unwrap();
                    (
                        gc,
                        built.label(r).unwrap().to_owned(),
                        built.row(r).to_vec(),
                    )
                })
                .collect();
            let given =
                VectorStore::with_graph(rows, built.dim(), built.adjacency().to_vec()).unwrap();
            assert_eq!(given.adjacency(), built.adjacency());
            for probe in [1, 8, built.len()] {
                for q in 0..built.len() {
                    let (a, b) = (
                        built.approx_candidates(q, probe),
                        given.approx_candidates(q, probe),
                    );
                    assert_eq!(a.len(), b.len());
                    for ((ra, sa), (rb, sb)) in a.iter().zip(&b) {
                        assert_eq!(
                            (ra, sa.to_bits()),
                            (rb, sb.to_bits()),
                            "q {q} probe {probe}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_given_graph_is_validated() {
        let built = structured_store();
        let n = built.len();
        let rows = || -> Vec<_> {
            (0..n)
                .map(|r| (gc(r as u32), format!("o:c{r}"), built.row(r).to_vec()))
                .collect()
        };
        let refused = |adjacency: Vec<Vec<u32>>| {
            VectorStore::with_graph(rows(), built.dim(), adjacency)
                .map(|_| ())
                .unwrap_err()
        };
        let mut short = built.adjacency().to_vec();
        short.pop();
        assert!(refused(short).contains("adjacency lists"));
        let mut wide = built.adjacency().to_vec();
        wide[7] = (0..=GRAPH_M_MAX as u32).collect();
        assert!(refused(wide).contains("degree 33"));
        let mut dangling = built.adjacency().to_vec();
        dangling[5][0] = n as u32;
        assert!(refused(dangling).contains(&format!("row {n}")));
        let mut full = built.adjacency().to_vec();
        full[3] = (0..GRAPH_M_MAX as u32).collect();
        assert!(VectorStore::with_graph(rows(), built.dim(), full).is_ok());
    }

    #[test]
    fn default_neighborhood_is_the_default_probe_search_once() {
        let seeded = VectorStore::from_rows(seeded_rows(), 8);
        for s in [structured_store(), seeded, tiny_store()] {
            for row in 0..s.len() {
                let want: Vec<u32> = s
                    .approx_candidates(row, s.default_probe())
                    .into_iter()
                    .map(|(r, _)| r as u32)
                    .collect();
                let (first, searched) = s.default_neighborhood(row);
                assert!(searched, "row {row}: first call did not search");
                assert_eq!(first, &want[..], "row {row}");
                let (again, searched) = s.default_neighborhood(row);
                assert!(!searched, "row {row}: searched twice");
                assert_eq!(again, &want[..], "row {row}");
            }
            assert_eq!(s.default_neighborhood(s.len()), (&[][..], false));
        }
    }
}
