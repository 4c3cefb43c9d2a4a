//! Bit-parallel Levenshtein distance (Myers 1999, multi-block per Hyyrö
//! 2003): the edit-distance column update collapses into a handful of
//! word-wide boolean operations, one u64 block per 64 pattern symbols.
//!
//! The core works over `u32` symbols so the same kernel serves both
//! character strings (chars cast to their scalar values) and interned
//! token sequences; it is the library's only Levenshtein kernel. The
//! distance is an exact integer — identical to the classic dynamic
//! program, which the differential tests keep as the reference — so the
//! similarity functions reproduce the classic normalization bit for bit.
//!
//! A pattern is preprocessed once ([`MyersPattern`]) into per-symbol
//! per-block bit masks (`Peq`), then streamed against any number of texts.
//! Batch scans build one pattern per concept name and amortize the
//! preprocessing across the whole matrix row.

/// Horizontal input delta at the bottom of the first block: the implicit
/// row 0 of the DP matrix (`D[0][j] = j`) increases by one per text column.
const HIN_TOP: i32 = 1;

/// Preprocessed pattern: sorted distinct symbols with one bit mask per
/// 64-row block (`Peq[s][b]` has bit `i % 64` set iff `pattern[i] == s`
/// and `i / 64 == b`).
#[derive(Debug, Clone, Default)]
pub struct MyersPattern {
    /// Sorted distinct symbols, for binary-search lookup per text column.
    symbols: Vec<u32>,
    /// `symbols.len() * blocks` masks, row-major per symbol.
    masks: Vec<u64>,
    /// Pattern length `m` (rows of the DP matrix).
    len: usize,
    /// `ceil(m / 64)` — 0 for the empty pattern.
    blocks: usize,
}

impl MyersPattern {
    /// Preprocesses a symbol sequence.
    pub fn new(pattern: &[u32]) -> MyersPattern {
        let len = pattern.len();
        let blocks = len.div_ceil(64);
        let mut symbols: Vec<u32> = pattern.to_vec();
        symbols.sort_unstable();
        symbols.dedup();
        let mut masks = vec![0u64; symbols.len() * blocks];
        for (i, &c) in pattern.iter().enumerate() {
            if let Ok(s) = symbols.binary_search(&c) {
                let block = i / 64;
                let bit = i % 64;
                let idx = s * blocks + block;
                if let Some(mask) = masks.get_mut(idx) {
                    *mask |= 1u64 << bit;
                }
            }
        }
        MyersPattern {
            symbols,
            masks,
            len,
            blocks,
        }
    }

    /// Preprocesses a character string (chars cast to `u32` symbols).
    pub fn from_chars(pattern: &[char]) -> MyersPattern {
        let ids: Vec<u32> = pattern.iter().map(|&c| c as u32).collect();
        MyersPattern::new(&ids)
    }

    /// Pattern length `m`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pattern is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `Peq` block row of one symbol (empty slice when the symbol does
    /// not occur in the pattern).
    fn peq(&self, c: u32) -> &[u64] {
        match self.symbols.binary_search(&c) {
            Ok(s) => {
                let start = s * self.blocks;
                let end = start + self.blocks;
                self.masks.get(start..end).unwrap_or(&[])
            }
            Err(_) => &[],
        }
    }

    /// Single-block `Peq` mask of one symbol (pattern length ≤ 64).
    fn peq1(&self, c: u32) -> u64 {
        match self.symbols.binary_search(&c) {
            Ok(s) => self.masks.get(s).copied().unwrap_or(0),
            Err(_) => 0,
        }
    }

    /// Exact Levenshtein distance to `text`.
    fn distance_ids(&self, text: &[u32]) -> usize {
        self.distance_iter(text.iter().copied(), text.len())
    }

    /// Exact Levenshtein distance to a character text (chars cast to
    /// symbols, matching [`MyersPattern::from_chars`]).
    pub(crate) fn distance_chars(&self, text: &[char]) -> usize {
        self.distance_iter(text.iter().map(|&c| c as u32), text.len())
    }

    /// The multi-block path keeps its vertical delta vectors in a
    /// per-thread scratch.
    #[inline]
    fn distance_iter(&self, text: impl Iterator<Item = u32>, text_len: usize) -> usize {
        if self.len == 0 {
            return text_len;
        }
        if text_len == 0 {
            return self.len;
        }
        if self.blocks == 1 {
            self.distance_single_block(text)
        } else {
            with_myers_scratch(|scratch| self.distance_multi_block(text, scratch))
        }
    }

    /// The single-word recurrence over this pattern's `Peq` masks.
    #[inline]
    fn distance_single_block(&self, text: impl Iterator<Item = u32>) -> usize {
        single_word_distance(self.len, text.map(|c| self.peq1(c)))
    }

    /// Hyyrö's multi-block extension (m > 64): blocks are processed bottom
    /// to top per column, chaining each block's horizontal output delta
    /// into the next. The score is read at bit `(m − 1) % 64` of the top
    /// block's pre-shift `Ph`/`Mh`; bits above row `m − 1` stay garbage-free
    /// because `Peq` is zero there and carries only propagate upward.
    fn distance_multi_block(
        &self,
        text: impl Iterator<Item = u32>,
        scratch: &mut MyersScratch,
    ) -> usize {
        let m = self.len;
        let blocks = self.blocks;
        let top = blocks - 1;
        let shift = (m - 1) % 64;
        let last_bit = 1u64 << shift;
        scratch.vp.clear();
        scratch.vp.resize(blocks, !0u64);
        scratch.vn.clear();
        scratch.vn.resize(blocks, 0u64);
        let mut score = m;
        for c in text {
            let peq = self.peq(c);
            let mut hin = HIN_TOP;
            for b in 0..blocks {
                let eq0 = peq.get(b).copied().unwrap_or(0);
                let pv = scratch.vp.get(b).copied().unwrap_or(!0u64);
                let mv = scratch.vn.get(b).copied().unwrap_or(0);
                let hin_is_neg = u64::from(hin < 0);
                let xv = eq0 | mv;
                let eq = eq0 | hin_is_neg;
                let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
                let ph = mv | !(xh | pv);
                let mh = pv & xh;
                if b == top {
                    if ph & last_bit != 0 {
                        score += 1;
                    } else if mh & last_bit != 0 {
                        score -= 1;
                    }
                }
                let mut hout = 0i32;
                if ph >> 63 != 0 {
                    hout += 1;
                }
                if mh >> 63 != 0 {
                    hout -= 1;
                }
                let ph = (ph << 1) | u64::from(hin > 0);
                let mh = (mh << 1) | hin_is_neg;
                if let Some(slot) = scratch.vp.get_mut(b) {
                    *slot = mh | !(xv | ph);
                }
                if let Some(slot) = scratch.vn.get_mut(b) {
                    *slot = ph & xv;
                }
                hin = hout;
            }
        }
        score
    }
}

/// Myers' original single-word algorithm for a pattern of `m` symbols
/// (1 ≤ m ≤ 64), fed one `Peq` mask per text column: bit `i` of a mask is
/// set iff pattern symbol `i` equals that column's symbol. Where the masks
/// come from is the only thing its callers vary. The `| 1` on the shifted
/// `Ph` encodes the +1 horizontal delta entering each column at row 0.
#[inline]
fn single_word_distance(m: usize, eqs: impl Iterator<Item = u64>) -> usize {
    let shift = m - 1;
    let last_bit = 1u64 << shift;
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    for eq in eqs {
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last_bit != 0 {
            score += 1;
        } else if mh & last_bit != 0 {
            score -= 1;
        }
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// Reusable vertical-delta buffers for the multi-block path, one per
/// thread.
#[derive(Debug, Clone, Default)]
struct MyersScratch {
    vp: Vec<u64>,
    vn: Vec<u64>,
}

/// Runs `f` with this thread's [`MyersScratch`] (a fresh one if the
/// thread-local is already borrowed).
fn with_myers_scratch<R>(f: impl FnOnce(&mut MyersScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<MyersScratch> =
            std::cell::RefCell::new(MyersScratch::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut MyersScratch::default()),
    })
}

/// Levenshtein similarity `1 − d / max(|a|, |b|)` of a preprocessed
/// character pattern and a text — the kernel of
/// [`crate::levenshtein_similarity`].
pub fn myers_similarity_chars_from(pattern: &MyersPattern, text: &[char]) -> f64 {
    normalized_similarity(pattern.len(), text.len(), pattern.distance_chars(text))
}

/// `1 − d / max(a, b)` for strings of `a` and `b` characters at distance
/// `d`, and 1 for two empty strings.
fn normalized_similarity(a: usize, b: usize, d: usize) -> f64 {
    let max_len = a.max(b);
    if max_len == 0 {
        return 1.0;
    }
    1.0 - d as f64 / max_len as f64
}

/// The Levenshtein similarity of every pair of `pool` strings:
/// `table[x][y]` equals `levenshtein_similarity(pool[x], pool[y])` bit for
/// bit (the distance is the same exact integer, normalized by the same
/// expression). Only the upper triangle is computed; the lower one mirrors
/// it, which is exact because the distance and the longer length are both
/// symmetric.
///
/// Each distinct character of the pool gets a dense id once, and each row
/// fills one match-mask table indexed by those ids, so the single-word
/// recurrence reads every text column's mask directly instead of searching
/// the pattern's symbols. As a pattern, a string over 64 characters takes
/// the multi-block path.
pub fn levenshtein_similarity_table(pool: &[String]) -> Vec<Vec<f64>> {
    let mut alphabet: Vec<char> = pool.iter().flat_map(|s| s.chars()).collect();
    alphabet.sort_unstable();
    alphabet.dedup();
    let texts: Vec<Vec<u32>> = pool
        .iter()
        .map(|s| {
            s.chars()
                .map(|c| alphabet.binary_search(&c).map_or(0, |id| id as u32))
                .collect()
        })
        .collect();
    let mut masks = vec![0u64; alphabet.len()];
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(pool.len());
    for (i, x) in texts.iter().enumerate() {
        let mut row = Vec::with_capacity(pool.len());
        for prev in &rows {
            // Mirror of the already-computed sim(pool[j], pool[i]).
            row.push(prev.get(i).copied().unwrap_or(0.0));
        }
        let rest = texts.iter().skip(i);
        if (1..=64).contains(&x.len()) {
            for (bit, &c) in x.iter().enumerate() {
                if let Some(mask) = masks.get_mut(c as usize) {
                    *mask |= 1u64 << bit;
                }
            }
            row.extend(rest.map(|y| {
                let eqs = y
                    .iter()
                    .map(|&c| masks.get(c as usize).copied().unwrap_or(0));
                normalized_similarity(x.len(), y.len(), single_word_distance(x.len(), eqs))
            }));
            for &c in x {
                if let Some(mask) = masks.get_mut(c as usize) {
                    *mask = 0;
                }
            }
        } else {
            // The empty pattern, and patterns over one word.
            let pattern = MyersPattern::new(x);
            row.extend(
                rest.map(|y| normalized_similarity(x.len(), y.len(), pattern.distance_ids(y))),
            );
        }
        rows.push(row);
    }
    rows
}

/// [`crate::sequence_similarity`] with [`crate::CostModel::UNIT`] on the
/// bit-parallel core. Under unit costs the weighted DP computes the exact
/// integer Levenshtein distance in f64 (small-integer arithmetic is exact),
/// and the worst case is `max(|x|, |y|)` — so feeding the Myers distance
/// through the same normalization expression is bit-identical.
pub fn myers_sequence_similarity_from(pattern: &MyersPattern, text: &[u32]) -> f64 {
    if pattern.is_empty() && text.is_empty() {
        return 1.0;
    }
    let common = pattern.len().min(text.len()) as f64;
    let leftover = if pattern.len() > text.len() {
        (pattern.len() - text.len()) as f64
    } else {
        (text.len() - pattern.len()) as f64
    };
    let worst = common + leftover;
    if worst == 0.0 {
        return 1.0;
    }
    let d = pattern.distance_ids(text) as f64;
    (1.0 - d / worst).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{sequence_similarity, xform, CostModel};

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    /// The unit-cost edit DP of [`crate::sequence`] as the distance
    /// reference.
    fn dp(a: &[char], b: &[char]) -> usize {
        xform(a, b, CostModel::UNIT) as usize
    }

    #[test]
    fn matches_classic_dp_on_classics() {
        let pairs = [
            ("kitten", "sitting"),
            ("flaw", "lawn"),
            ("", "abc"),
            ("abc", ""),
            ("same", "same"),
            ("zürich", "zurich"),
            ("a", "a"),
            ("a", "b"),
        ];
        for (a, b) in pairs {
            let (ca, cb) = (chars(a), chars(b));
            assert_eq!(
                MyersPattern::from_chars(&ca).distance_chars(&cb),
                dp(&ca, &cb),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn multi_block_boundaries() {
        // Lengths straddling the 64-symbol block boundary.
        for la in [63usize, 64, 65, 127, 128, 129, 200] {
            for lb in [1usize, 63, 64, 65, 130, 256] {
                let a: Vec<char> = (0..la)
                    .map(|i| char::from_u32('a' as u32 + (i % 7) as u32).unwrap_or('a'))
                    .collect();
                let b: Vec<char> = (0..lb)
                    .map(|i| char::from_u32('a' as u32 + (i % 5) as u32).unwrap_or('a'))
                    .collect();
                assert_eq!(
                    MyersPattern::from_chars(&a).distance_chars(&b),
                    dp(&a, &b),
                    "la={la} lb={lb}"
                );
            }
        }
    }

    #[test]
    fn similarity_wrappers_are_bit_identical() {
        let pairs = [("kitten", "sitting"), ("", ""), ("Professor", "Professors")];
        for (a, b) in pairs {
            let (ca, cb) = (chars(a), chars(b));
            let pat = MyersPattern::from_chars(&ca);
            assert_eq!(
                myers_similarity_chars_from(&pat, &cb).to_bits(),
                sequence_similarity(&ca, &cb, CostModel::UNIT).to_bits()
            );
            let xa: Vec<u32> = ca.iter().map(|&c| c as u32).collect();
            let xb: Vec<u32> = cb.iter().map(|&c| c as u32).collect();
            let pat = MyersPattern::new(&xa);
            assert_eq!(
                myers_sequence_similarity_from(&pat, &xb).to_bits(),
                sequence_similarity(&xa, &xb, CostModel::UNIT).to_bits()
            );
        }
    }
}
