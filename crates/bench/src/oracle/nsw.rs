//! The reference NSW-lite proximity graph: the construction and the
//! two-heap beam search `VectorStore` ran before its search became one
//! sorted beam with stored edge dots, kept verbatim (constants included)
//! so `ann_identity` can pin the store's approximate path to it — same
//! rows, same order, same score bits.
//!
//! The store's search expands the same nodes in the same order: a
//! frontier entry that the results heap evicted ranks below the worst
//! result, the worst result only rises, and this loop stops as soon as
//! it pops such an entry — so the only entries it ever expands are
//! unexpanded members of the results, best first, which is exactly what
//! the one-beam loop expands.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sst_core::VectorStore;
use sst_simpack::dense_dot;

use crate::SplitMix64;

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

/// A `(dot product, row)` pair with a strict deterministic order: higher
/// dot first, ties to the lower row id.
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

/// The reference graph over one store's embedding matrix.
#[derive(Debug)]
pub struct NswOracle {
    /// Adjacency lists, row-aligned with the store matrix.
    neighbors: Vec<Vec<u32>>,
    /// Row-major copy of the store matrix.
    rows: Vec<f64>,
    dim: usize,
}

impl NswOracle {
    /// Builds the reference graph over `store`'s rows.
    pub fn build(store: &VectorStore) -> NswOracle {
        let dim = store.dim();
        let n = store.len();
        let rows: Vec<f64> = (0..n).flat_map(|i| store.row(i).to_vec()).collect();
        NswOracle {
            neighbors: build_nsw(&rows, dim, n),
            rows,
            dim,
        }
    }

    /// What `VectorStore::approx_candidates` returned with this graph:
    /// the `probe` best rows of a beam search seeded at the query's own
    /// row, each scored by `VectorStore::similarity` (one more dot
    /// product per row), plus the query at 1.0 if the beam lost it.
    pub fn approx_candidates(
        &self,
        store: &VectorStore,
        query: usize,
        probe: usize,
    ) -> Vec<(usize, f64)> {
        if query >= store.len() {
            return Vec::new();
        }
        if probe >= store.len() {
            return store.scores_exact(query);
        }
        let found = search(
            &self.neighbors,
            &self.rows,
            self.dim,
            store.row(query),
            probe,
            query as u32,
        );
        let mut out: Vec<(usize, f64)> = found
            .into_iter()
            .map(|s| {
                let row = s.row as usize;
                (row, store.similarity(query, row))
            })
            .collect();
        if !out.iter().any(|&(row, _)| row == query) {
            out.push((query, 1.0));
        }
        out
    }
}

/// Best-first beam search: returns the `ef` best rows reachable from
/// `entry`, ordered by descending dot (ties to the lower row). The beam
/// stops once the best unexpanded candidate scores below the worst of
/// `ef` results — the classic HNSW layer-search loop, here on the single
/// layer.
fn search(
    neighbors: &[Vec<u32>],
    rows: &[f64],
    dim: usize,
    query: &[f64],
    ef: usize,
    entry: u32,
) -> Vec<Scored> {
    let n = neighbors.len();
    if n == 0 || (entry as usize) >= n {
        return Vec::new();
    }
    let ef = ef.max(1);
    let row_at = |i: usize| {
        let start = i * dim;
        let end = start.saturating_add(dim);
        rows.get(start..end).unwrap_or(&[])
    };
    let mut visited = vec![false; n];
    visited[entry as usize] = true;
    let seed = Scored {
        dot: dense_dot(row_at(entry as usize), query),
        row: entry,
    };
    // Frontier: max-heap of unexpanded nodes. Results: min-heap of the
    // best `ef` seen so far (worst on top, ready to evict).
    let mut frontier = BinaryHeap::from([seed]);
    let mut results = BinaryHeap::from([Reverse(seed)]);
    while let Some(best) = frontier.pop() {
        if results.len() >= ef {
            if let Some(&Reverse(worst)) = results.peek() {
                if best < worst {
                    break;
                }
            }
        }
        for &nb in neighbors
            .get(best.row as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
        {
            let i = nb as usize;
            if visited.get(i).copied().unwrap_or(true) {
                continue;
            }
            visited[i] = true;
            let cand = Scored {
                dot: dense_dot(row_at(i), query),
                row: nb,
            };
            let admit =
                results.len() < ef || results.peek().is_some_and(|&Reverse(worst)| cand > worst);
            if admit {
                frontier.push(cand);
                results.push(Reverse(cand));
                if results.len() > ef {
                    results.pop();
                }
            }
        }
    }
    let mut out: Vec<Scored> = results.into_iter().map(|r| r.0).collect();
    out.sort_by(|a, b| b.cmp(a));
    out
}

/// Builds the proximity graph over the matrix: rows inserted in a seeded
/// shuffled order, each connected bidirectionally to its `GRAPH_M` best
/// already-inserted rows found by a construction-width beam search, and
/// adjacency lists pruned back to the `GRAPH_M_MAX` best edges (each
/// edge's dot recomputed) when they overflow. Every choice ties to the
/// lower row id. Returns the adjacency lists.
fn build_nsw(rows: &[f64], dim: usize, n: usize) -> Vec<Vec<u32>> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix64::seed_from_u64(GRAPH_SEED);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let row_at = |i: usize| {
        let start = i * dim;
        let end = start.saturating_add(dim);
        rows.get(start..end).unwrap_or(&[])
    };
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
    let entry = order.first().copied().unwrap_or(0);
    let prune = |lists: &mut Vec<Vec<u32>>, node: u32| {
        let list = &mut lists[node as usize];
        if list.len() <= GRAPH_M_MAX {
            return;
        }
        let base = row_at(node as usize);
        list.sort_by_cached_key(|&a| {
            Reverse(Scored {
                dot: dense_dot(row_at(a as usize), base),
                row: a,
            })
        });
        list.truncate(GRAPH_M_MAX);
    };
    for &v in order.iter().skip(1) {
        let found = search(
            &neighbors,
            rows,
            dim,
            row_at(v as usize),
            EF_CONSTRUCTION,
            entry,
        );
        for link in found.iter().take(GRAPH_M) {
            neighbors[v as usize].push(link.row);
            neighbors[link.row as usize].push(v);
            prune(&mut neighbors, link.row);
        }
    }
    neighbors
}
