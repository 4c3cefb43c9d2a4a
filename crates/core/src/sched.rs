//! Cache-blocked tiling and a dependency-free work-stealing scheduler for
//! the batch similarity paths.
//!
//! The similarity-matrix services traverse the upper triangle of an
//! `n × n` pair grid. Two things make the naive row loop slow at scale:
//!
//! 1. **Cache behaviour.** Scoring row `i` against columns `i..n` touches
//!    `n − i` prepared artifacts per row; by the time row `i + 1` starts,
//!    the artifacts of the early columns have been evicted. Tiling the
//!    triangle into `T × T` blocks ([`triangle_tiles`]) keeps both the row
//!    and column working sets of a tile resident while its `≤ T²` pairs
//!    are scored.
//! 2. **Load imbalance.** Round-robin row partitioning (`step_by(threads)`)
//!    hands each worker rows of wildly different suffix lengths — row 0
//!    has `n` pairs, row `n − 1` has one. Tiles are far more uniform (only
//!    diagonal tiles are triangular), and the work-stealing scheduler
//!    ([`run_tiles`]) re-balances whatever non-uniformity remains.
//!
//! ## Deque protocol
//!
//! The scheduler is dependency-free and `forbid(unsafe_code)`-clean: all
//! tiles live in one immutable slice, so a "deque" never moves data — it
//! is just an index interval `[head, tail)` into that slice, packed into a
//! single `AtomicU64` (`head` in the high 32 bits, `tail` in the low 32).
//!
//! * The **owner** pops from the front: CAS `(head, tail)` to
//!   `(head + 1, tail)` and run the tile at the old `head`.
//! * A **thief** steals from the back: CAS `(head, tail)` to
//!   `(head, tail − k)` with `k = ⌈(tail − head) / 2⌉` — steal-half — and
//!   installs the stolen interval `[tail − k, tail)` as its own deque
//!   (its own deque is empty at that point, and an empty deque admits no
//!   concurrent transitions, so a plain store is safe).
//!
//! Both transitions are single-CAS, so every tile index leaves the deque
//! system exactly once; a worker that observes every deque empty may exit
//! while a thief still runs in-flight tiles, which affects only idle time,
//! never coverage. Workers start with contiguous chunks of the tile list,
//! sized so each worker begins with locality-friendly neighbouring tiles.
//!
//! Each worker collects `(tile index, value)` pairs; [`run_tiles`] merges
//! them back into tile order, so its output is the same for every worker
//! count and steal interleaving — the scheduler determinism test pins
//! this. Inside the crate only `SstToolkit::fan_out` calls it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One rectangular block of the pair grid: rows `[row0, row1)` against
/// columns `[col0, col1)`. For triangle traversals the per-row column
/// start is additionally clamped to the diagonal (see
/// [`Tile::for_each_upper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tile {
    row0: usize,
    row1: usize,
    col0: usize,
    col1: usize,
}

impl Tile {
    /// Visits the tile's pairs restricted to the upper triangle
    /// (`j ≥ i`), rows outer, columns inner — the same pair order the
    /// untiled row loop uses within this block.
    pub(crate) fn for_each_upper(&self, mut f: impl FnMut(usize, usize)) {
        for i in self.row0..self.row1 {
            let start = self.col0.max(i);
            for j in start..self.col1 {
                f(i, j);
            }
        }
    }

    /// Visits every pair of the tile (rectangular traversals such as
    /// source × target alignment grids).
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        for i in self.row0..self.row1 {
            for j in self.col0..self.col1 {
                f(i, j);
            }
        }
    }

    /// Number of pairs [`Tile::for_each_upper`] visits.
    pub(crate) fn upper_len(&self) -> usize {
        let mut pairs = 0;
        for i in self.row0..self.row1 {
            let start = self.col0.max(i);
            pairs += self.col1.saturating_sub(start);
        }
        pairs
    }

    /// Number of pairs [`Tile::for_each`] visits.
    pub(crate) fn len(&self) -> usize {
        let rows = self.row1.saturating_sub(self.row0);
        let cols = self.col1.saturating_sub(self.col0);
        rows * cols
    }
}

/// Tiles the upper triangle (including the diagonal) of an `n × n` grid
/// into `tile × tile` blocks, row-major over block coordinates. Diagonal
/// blocks are triangular under [`Tile::for_each_upper`]; off-diagonal
/// blocks are full rectangles.
pub(crate) fn triangle_tiles(n: usize, tile: usize) -> Vec<Tile> {
    let t = tile.max(1);
    let mut tiles = Vec::new();
    let mut row0 = 0;
    while row0 < n {
        let row1 = row0.saturating_add(t).min(n);
        let mut col0 = row0;
        while col0 < n {
            let col1 = col0.saturating_add(t).min(n);
            tiles.push(Tile {
                row0,
                row1,
                col0,
                col1,
            });
            col0 = col1;
        }
        row0 = row1;
    }
    tiles
}

/// Tiles a full `rows × cols` grid into `tile × tile` blocks, row-major.
pub(crate) fn rect_tiles(rows: usize, cols: usize, tile: usize) -> Vec<Tile> {
    let t = tile.max(1);
    let mut tiles = Vec::new();
    let mut row0 = 0;
    while row0 < rows {
        let row1 = row0.saturating_add(t).min(rows);
        let mut col0 = 0;
        while col0 < cols {
            let col1 = col0.saturating_add(t).min(cols);
            tiles.push(Tile {
                row0,
                row1,
                col0,
                col1,
            });
            col0 = col1;
        }
        row0 = row1;
    }
    tiles
}

/// Picks a tile edge for an `n × n` triangle run on `workers` workers:
/// the largest cache-friendly size (≤ 64) that still yields at least
/// eight tiles per worker, so steal-half always has work to move; floors
/// at 8 so tiny tiles never dominate with per-tile overhead.
pub(crate) fn tile_size(n: usize, workers: usize) -> usize {
    let workers = workers.max(1);
    let mut t = 64usize;
    while t > 8 {
        let blocks = n.div_ceil(t);
        let tiles = blocks.saturating_mul(blocks.saturating_add(1)) / 2;
        if tiles >= workers.saturating_mul(8) {
            break;
        }
        t /= 2;
    }
    t
}

/// The scheduler's default worker count: the machine's available
/// parallelism (1 if it cannot be determined).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Per-worker execution statistics of one work-stealing scheduler run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tiles this worker executed.
    pub tiles: u64,
    /// Successful steal-half operations this worker performed.
    pub steals: u64,
    /// Wall time this worker spent inside tile closures, in nanoseconds.
    pub busy_ns: u64,
}

/// Aggregate statistics of one work-stealing scheduler run.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// One entry per worker, in worker order.
    pub workers: Vec<WorkerStats>,
    /// Workers whose thread panicked (their results are lost; callers
    /// treat any non-zero value as a failed run).
    pub panicked: usize,
}

impl SchedStats {
    /// Total tiles executed across all workers.
    pub fn tiles(&self) -> u64 {
        self.workers.iter().map(|w| w.tiles).sum()
    }

    /// Total successful steals across all workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Busy-time imbalance: max worker busy time over mean worker busy
    /// time. 1.0 is a perfectly balanced run; round-robin row suffixes
    /// routinely exceed 2.0 on triangular grids.
    pub fn imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 1.0;
        }
        let max = self.workers.iter().map(|w| w.busy_ns).max().unwrap_or(0);
        let sum: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        if sum == 0 {
            return 1.0;
        }
        let mean = sum as f64 / self.workers.len() as f64;
        max as f64 / mean
    }
}

/// An index interval `[head, tail)` packed into one `AtomicU64`.
#[derive(Debug)]
struct IntervalDeque {
    state: AtomicU64,
}

fn pack(head: u32, tail: u32) -> u64 {
    (u64::from(head) << 32) | u64::from(tail)
}

fn unpack(state: u64) -> (u32, u32) {
    ((state >> 32) as u32, state as u32)
}

impl IntervalDeque {
    fn new(start: usize, end: usize) -> IntervalDeque {
        IntervalDeque {
            state: AtomicU64::new(pack(start as u32, end as u32)),
        }
    }

    /// Owner-side front pop.
    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(cur);
            if head >= tail {
                return None;
            }
            let next = head.saturating_add(1);
            match self.state.compare_exchange_weak(
                cur,
                pack(next, tail),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head as usize),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Thief-side back steal of half the interval (at least one tile).
    /// Returns the stolen interval.
    fn steal_half(&self) -> Option<(usize, usize)> {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(cur);
            let avail = tail.saturating_sub(head);
            if avail == 0 {
                return None;
            }
            let k = avail.div_ceil(2);
            let new_tail = tail.saturating_sub(k);
            match self.state.compare_exchange_weak(
                cur,
                pack(head, new_tail),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((new_tail as usize, tail as usize)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Installs a stolen interval as this (empty) deque's new content.
    /// Safe as a plain store: an empty interval admits no concurrent
    /// transitions (pops and steals on it fail before their CAS), so no
    /// other thread can successfully CAS between the emptiness check and
    /// this store.
    fn install(&self, start: usize, end: usize) {
        self.state
            .store(pack(start as u32, end as u32), Ordering::Release);
    }
}

/// Runs `run` over every tile with `workers` work-stealing workers and
/// returns the per-tile results in tile order plus scheduling stats.
///
/// Tiles are distributed as contiguous per-worker chunks; an idle worker
/// steals the back half of the richest sibling deque. Each tile executes
/// exactly once. If `workers <= 1` or there is at most one tile, the
/// tiles run inline on the calling thread (no spawn overhead). A worker
/// that panicked is counted in [`SchedStats::panicked`] and its tiles'
/// results are missing, so the results are complete only when that
/// count is zero.
pub(crate) fn run_tiles<T, F>(tiles: &[Tile], workers: usize, run: F) -> (Vec<T>, SchedStats)
where
    T: Send,
    F: Fn(&Tile) -> T + Sync,
{
    let workers = workers.clamp(1, tiles.len().max(1));
    if workers <= 1 {
        let mut stats = WorkerStats::default();
        let start = Instant::now();
        let results: Vec<T> = tiles.iter().map(&run).collect();
        stats.tiles = tiles.len() as u64;
        stats.busy_ns = start.elapsed().as_nanos() as u64;
        return (
            results,
            SchedStats {
                workers: vec![stats],
                panicked: 0,
            },
        );
    }

    // Contiguous initial chunks: worker w owns tiles [w*per + extra, ...),
    // with the first `rem` workers taking one extra tile.
    let n = tiles.len();
    let per = n / workers;
    let rem = n % workers;
    let mut deques: Vec<IntervalDeque> = Vec::with_capacity(workers);
    let mut cursor = 0usize;
    for w in 0..workers {
        let extra = usize::from(w < rem);
        let span = per.saturating_add(extra);
        let end = cursor.saturating_add(span);
        deques.push(IntervalDeque::new(cursor, end));
        cursor = end;
    }
    let deques = &deques;
    let run = &run;

    let mut merged: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut stats = SchedStats::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, T)> = Vec::new();
                let mut ws = WorkerStats::default();
                let my = match deques.get(me) {
                    Some(d) => d,
                    None => return (out, ws),
                };
                loop {
                    if let Some(idx) = my.pop_front() {
                        if let Some(tile) = tiles.get(idx) {
                            let start = Instant::now();
                            out.push((idx, run(tile)));
                            ws.busy_ns =
                                ws.busy_ns.saturating_add(start.elapsed().as_nanos() as u64);
                            ws.tiles += 1;
                        }
                        continue;
                    }
                    // My deque is empty: scan siblings (starting past me,
                    // wrapping) for one to rob.
                    let mut stolen = false;
                    for step in 1..workers {
                        let victim_id = (me + step) % workers;
                        let victim = match deques.get(victim_id) {
                            Some(d) => d,
                            None => continue,
                        };
                        if let Some((start, end)) = victim.steal_half() {
                            my.install(start, end);
                            ws.steals += 1;
                            stolen = true;
                            break;
                        }
                    }
                    if !stolen {
                        return (out, ws);
                    }
                }
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok((out, ws)) => {
                    merged.extend(out);
                    stats.workers.push(ws);
                }
                Err(_) => {
                    stats.panicked += 1;
                    stats.workers.push(WorkerStats::default());
                }
            }
        }
    });
    merged.sort_unstable_by_key(|&(idx, _)| idx);
    (merged.into_iter().map(|(_, value)| value).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn triangle_tiles_cover_every_upper_pair_once() {
        for n in [0usize, 1, 2, 7, 8, 9, 33, 100] {
            for t in [1usize, 3, 8, 64] {
                let mut seen = BTreeSet::new();
                for tile in triangle_tiles(n, t) {
                    tile.for_each_upper(|i, j| {
                        assert!(i <= j && j < n);
                        assert!(seen.insert((i, j)), "pair ({i},{j}) seen twice");
                    });
                }
                assert_eq!(seen.len(), n * (n + 1) / 2, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn rect_tiles_cover_every_pair_once() {
        for (rows, cols) in [(0usize, 5usize), (5, 0), (1, 1), (7, 13), (16, 16)] {
            let mut seen = BTreeSet::new();
            for tile in rect_tiles(rows, cols, 4) {
                tile.for_each(|i, j| {
                    assert!(i < rows && j < cols);
                    assert!(seen.insert((i, j)));
                });
            }
            assert_eq!(seen.len(), rows * cols);
        }
    }

    #[test]
    fn upper_len_matches_for_each_upper() {
        for tile in triangle_tiles(37, 8) {
            let mut count = 0usize;
            tile.for_each_upper(|_, _| count += 1);
            assert_eq!(count, tile.upper_len());
        }
    }

    #[test]
    fn run_tiles_executes_each_tile_exactly_once_any_worker_count() {
        let tiles = triangle_tiles(50, 8);
        for workers in [1usize, 2, 3, 4, 8, 16] {
            let (results, stats) = run_tiles(&tiles, workers, |tile| *tile);
            assert_eq!(stats.panicked, 0);
            assert_eq!(stats.tiles(), tiles.len() as u64);
            // Every tile once, and in tile order whatever the steals.
            assert_eq!(results, tiles, "workers={workers}");
        }
    }

    #[test]
    fn assembled_output_is_deterministic_across_worker_counts() {
        let n = 40;
        let tiles = triangle_tiles(n, 8);
        let score = |i: usize, j: usize| ((i * 31 + j * 17) % 101) as f64 / 101.0;
        let mut reference: Option<Vec<f64>> = None;
        for workers in [1usize, 2, 5, 8] {
            let (results, _) = run_tiles(&tiles, workers, |tile| {
                let mut vals = Vec::with_capacity(tile.upper_len());
                tile.for_each_upper(|i, j| vals.push(score(i, j)));
                vals
            });
            assert_eq!(results.len(), tiles.len());
            let mut matrix = vec![0.0f64; n * n];
            for (tile, vals) in tiles.iter().zip(results) {
                let mut it = vals.into_iter();
                tile.for_each_upper(|i, j| {
                    if let Some(v) = it.next() {
                        let up = i * n + j;
                        let low = j * n + i;
                        matrix[up] = v;
                        matrix[low] = v;
                    }
                });
            }
            match &reference {
                None => reference = Some(matrix),
                Some(expected) => {
                    let same = expected
                        .iter()
                        .zip(&matrix)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "matrix bits differ at workers={workers}");
                }
            }
        }
    }

    #[test]
    fn tile_size_scales_with_workers() {
        assert_eq!(tile_size(1000, 1), 64);
        assert!(tile_size(100, 8) <= 32);
        assert!(tile_size(10, 64) >= 8);
        for n in [0usize, 1, 5, 100, 5000] {
            for w in [1usize, 2, 8, 64] {
                let t = tile_size(n, w);
                assert!((8..=64).contains(&t));
            }
        }
    }

    #[test]
    fn interval_deque_steal_half_takes_ceiling_half() {
        let d = IntervalDeque::new(0, 10);
        assert_eq!(d.steal_half(), Some((5, 10)));
        assert_eq!(d.steal_half(), Some((2, 5)));
        assert_eq!(d.pop_front(), Some(0));
        assert_eq!(d.pop_front(), Some(1));
        assert_eq!(d.pop_front(), None);
        assert_eq!(d.steal_half(), None);
    }

    #[test]
    fn stats_report_imbalance_of_one_for_empty_runs() {
        let (results, stats) = run_tiles::<(), _>(&[], 4, |_| ());
        assert!(results.is_empty());
        assert_eq!(stats.tiles(), 0);
        assert!((stats.imbalance() - 1.0).abs() < 1e-12);
    }
}
