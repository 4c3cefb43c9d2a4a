//! String similarity measures: character-level Levenshtein (paper §2.2) plus
//! the approximate string-matching measures the paper announces as future
//! extensions from SecondString/SimMetrics (Jaro, Jaro-Winkler, q-grams,
//! Monge-Elkan).

use std::collections::BTreeSet;

/// Character-level Levenshtein edit distance (Levenshtein 1966): minimal
/// number of insertions, deletions, and substitutions.
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_distance_chars(&a, &b)
}

/// [`levenshtein_distance`] over pre-collected character slices (its core;
/// batch scans cache the `Vec<char>` per string and call this directly).
pub fn levenshtein_distance_chars(a: &[char], b: &[char]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Two-row dynamic program; `w = [prev[j], prev[j+1]]` via `windows(2)`
    // and `curr.last()` is the cell to the left, so no subscript arithmetic.
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = Vec::with_capacity(b.len() + 1);
    for (i, &ca) in a.iter().enumerate() {
        curr.clear();
        curr.push(i + 1);
        for (&cb, w) in b.iter().zip(prev.windows(2)) {
            let cost = usize::from(ca != cb);
            let left = curr.last().copied().unwrap_or(0);
            curr.push((w[1] + 1).min(left + 1).min(w[0] + cost));
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev.last().copied().unwrap_or(0)
}

/// Reusable DP rows for [`levenshtein_distance_chars_scratch`], hoisted out
/// of the per-pair path (the classic-DP fallback used where the
/// bit-parallel core does not apply).
#[derive(Debug, Clone, Default)]
pub struct LevenshteinScratch {
    prev: Vec<usize>,
    curr: Vec<usize>,
}

impl LevenshteinScratch {
    pub fn new() -> LevenshteinScratch {
        LevenshteinScratch::default()
    }
}

/// [`levenshtein_distance_chars`] with caller-provided row buffers.
pub fn levenshtein_distance_chars_scratch(
    a: &[char],
    b: &[char],
    scratch: &mut LevenshteinScratch,
) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let LevenshteinScratch { prev, curr } = scratch;
    prev.clear();
    prev.extend(0..=b.len());
    curr.clear();
    for (i, &ca) in a.iter().enumerate() {
        curr.clear();
        curr.push(i + 1);
        for (&cb, w) in b.iter().zip(prev.windows(2)) {
            let cost = usize::from(ca != cb);
            let left = curr.last().copied().unwrap_or(0);
            curr.push((w[1] + 1).min(left + 1).min(w[0] + cost));
        }
        std::mem::swap(prev, curr);
    }
    prev.last().copied().unwrap_or(0)
}

/// Levenshtein similarity in [0, 1]: `1 − d / max(|a|, |b|)`.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_similarity_chars(&a, &b)
}

/// [`levenshtein_similarity`] over pre-collected character slices.
pub fn levenshtein_similarity_chars(a: &[char], b: &[char]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_distance_chars(a, b) as f64 / max_len as f64
}

/// Jaro similarity (matching characters within half the longer length,
/// discounted by transpositions).
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b)
}

/// [`jaro`] over pre-collected character slices (its core).
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a.push((i, j));
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    // Transpositions: matched characters out of order.
    let mut b_matches: Vec<usize> = matches_a.iter().map(|&(_, j)| j).collect();
    let mut transpositions = 0;
    let sorted = {
        let mut s = b_matches.clone();
        s.sort_unstable();
        s
    };
    for (actual, expected) in b_matches.iter().zip(&sorted) {
        if actual != expected {
            transpositions += 1;
        }
    }
    b_matches.clear();
    let t = transpositions as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Reusable buffers for the Jaro match/transposition phases, hoisted out
/// of the per-pair path: batch scans keep one per thread instead of three
/// fresh `Vec`s per pair.
#[derive(Debug, Clone, Default)]
pub struct JaroScratch {
    b_used: Vec<bool>,
    b_matches: Vec<usize>,
    sorted: Vec<usize>,
}

impl JaroScratch {
    pub fn new() -> JaroScratch {
        JaroScratch::default()
    }
}

/// One thread-local [`JaroScratch`] per thread, so `&self` batch scorers
/// reuse buffers without interior mutability in their own state.
pub fn with_jaro_scratch<R>(f: impl FnOnce(&mut JaroScratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<JaroScratch> = RefCell::new(JaroScratch::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Unreachable in practice (`f` never re-enters); a fresh scratch
        // keeps the result identical either way.
        Err(_) => f(&mut JaroScratch::new()),
    })
}

/// Shared final phase of every Jaro variant: transposition count over the
/// matched `b` positions in `a`-order vs. ascending order, then the
/// classic three-term average. Keeping one expression guarantees the fast
/// paths are bit-identical to [`jaro_chars`].
fn jaro_finish(a_len: usize, b_len: usize, b_matches: &[usize], sorted: &[usize]) -> f64 {
    let m = b_matches.len();
    if m == 0 {
        return 0.0;
    }
    let mut transpositions = 0;
    for (actual, expected) in b_matches.iter().zip(sorted) {
        if actual != expected {
            transpositions += 1;
        }
    }
    let t = transpositions as f64 / 2.0;
    let m = m as f64;
    (m / a_len as f64 + m / b_len as f64 + (m - t) / m) / 3.0
}

/// [`jaro_chars`] with caller-provided scratch buffers — the allocation-free
/// fallback for `b` longer than 64 characters.
pub fn jaro_chars_scratch(a: &[char], b: &[char], scratch: &mut JaroScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    scratch.b_used.clear();
    scratch.b_used.resize(b.len(), false);
    scratch.b_matches.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            let used = scratch.b_used.get(j).copied().unwrap_or(true);
            if !used && b.get(j) == Some(&ca) {
                if let Some(slot) = scratch.b_used.get_mut(j) {
                    *slot = true;
                }
                scratch.b_matches.push(j);
                break;
            }
        }
    }
    let JaroScratch {
        b_matches, sorted, ..
    } = scratch;
    sorted.clear();
    sorted.extend_from_slice(b_matches);
    sorted.sort_unstable();
    jaro_finish(a.len(), b.len(), b_matches, sorted)
}

/// Per-string character bitmask table for the single-word Jaro path:
/// for each distinct character of a string of length ≤ 64, a `u64` with
/// bit `j` set iff the character occurs at position `j`. Built once per
/// concept name; `None` for longer strings (they take the scratch path).
#[derive(Debug, Clone)]
pub struct JaroMask {
    /// Direct-index position masks for ASCII characters (the common case
    /// for concept names) — one load instead of a binary search.
    ascii: Box<[u64; 128]>,
    /// Sorted distinct non-ASCII characters with their position masks.
    entries: Vec<(char, u64)>,
    len: usize,
}

impl JaroMask {
    pub fn new(s: &[char]) -> Option<JaroMask> {
        if s.len() > 64 {
            return None;
        }
        let mut ascii = Box::new([0u64; 128]);
        let mut entries: Vec<(char, u64)> = Vec::new();
        for (j, &c) in s.iter().enumerate() {
            let bit = 1u64 << j;
            let code = c as usize;
            if let Some(slot) = ascii.get_mut(code) {
                *slot |= bit;
                continue;
            }
            match entries.binary_search_by_key(&c, |&(ec, _)| ec) {
                Ok(pos) => {
                    if let Some(entry) = entries.get_mut(pos) {
                        entry.1 |= bit;
                    }
                }
                Err(pos) => entries.insert(pos, (c, bit)),
            }
        }
        Some(JaroMask {
            ascii,
            entries,
            len: s.len(),
        })
    }

    fn mask(&self, c: char) -> u64 {
        if let Some(&m) = self.ascii.get(c as usize) {
            return m;
        }
        match self.entries.binary_search_by_key(&c, |&(ec, _)| ec) {
            Ok(pos) => self.entries.get(pos).map(|&(_, m)| m).unwrap_or(0),
            Err(_) => 0,
        }
    }
}

/// Bits `[0, k)` set (k ≤ 64).
fn low_bits(k: usize) -> u64 {
    if k >= 64 {
        !0u64
    } else {
        (1u64 << k) - 1
    }
}

/// [`jaro_chars`] over a precomputed [`JaroMask`] of `b` (|b| ≤ 64): the
/// inner window scan becomes one AND + trailing-zeros per `a` character.
/// The lowest set bit of `char-mask ∧ window ∧ free` is exactly the first
/// unused in-window match the reference loop would take, so the greedy
/// assignment — and hence the score — is identical bit for bit.
pub fn jaro_chars_masked(a: &[char], bmask: &JaroMask, scratch: &mut JaroScratch) -> f64 {
    let b_len = bmask.len;
    if a.is_empty() && b_len == 0 {
        return 1.0;
    }
    if a.is_empty() || b_len == 0 {
        return 0.0;
    }
    let window = (a.len().max(b_len) / 2).saturating_sub(1);
    let mut free = low_bits(b_len);
    scratch.b_matches.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b_len);
        let window_mask = low_bits(hi) & !low_bits(lo);
        let candidates = bmask.mask(ca) & window_mask & free;
        if candidates != 0 {
            let j = candidates.trailing_zeros() as usize;
            free &= !(1u64 << j);
            scratch.b_matches.push(j);
        }
    }
    // Matched positions in ascending order fall straight out of the mask —
    // no sort needed on this path.
    scratch.sorted.clear();
    let mut matched = low_bits(b_len) & !free;
    while matched != 0 {
        let j = matched.trailing_zeros() as usize;
        scratch.sorted.push(j);
        matched &= matched - 1;
    }
    jaro_finish(a.len(), b_len, &scratch.b_matches, &scratch.sorted)
}

/// Winkler prefix boost shared by [`jaro_winkler_chars`] and the fast
/// batch path.
fn winkler_boost(a: &[char], b: &[char], j: f64) -> f64 {
    if j <= JARO_WINKLER_BOOST_THRESHOLD {
        return j;
    }
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Batch-path Jaro: masked single-word kernel when a [`JaroMask`] of `b`
/// exists, scratch-buffer fallback otherwise. Bit-identical to
/// [`jaro_chars`] either way.
pub fn jaro_fast(a: &[char], b: &[char], bmask: Option<&JaroMask>, s: &mut JaroScratch) -> f64 {
    match bmask {
        Some(mask) => jaro_chars_masked(a, mask, s),
        None => jaro_chars_scratch(a, b, s),
    }
}

/// Batch-path Jaro-Winkler on the same kernels as [`jaro_fast`].
pub fn jaro_winkler_fast(
    a: &[char],
    b: &[char],
    bmask: Option<&JaroMask>,
    s: &mut JaroScratch,
) -> f64 {
    winkler_boost(a, b, jaro_fast(a, b, bmask, s))
}

/// Winkler's boost threshold: the prefix bonus only applies to pairs whose
/// Jaro similarity already exceeds this value (Winkler 1990).
const JARO_WINKLER_BOOST_THRESHOLD: f64 = 0.7;

/// Jaro-Winkler: Jaro boosted by the length of the common prefix (≤ 4),
/// with the standard scaling factor p = 0.1. Following Winkler's original
/// definition, the boost is applied only when the base Jaro similarity
/// exceeds the 0.7 boost threshold — dissimilar strings that merely share
/// a prefix keep their plain Jaro score.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_chars(&a, &b)
}

/// [`jaro_winkler`] over pre-collected character slices (its core).
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    winkler_boost(a, b, jaro_chars(a, b))
}

/// Q-gram (here trigram, padded) similarity: Dice coefficient over the sets
/// of character q-grams. A degenerate `q == 0` is treated as `q == 1`
/// (unigram Dice) instead of panicking — gram extraction needs at least one
/// character per gram, and unigrams are the smallest well-defined case.
pub fn qgram(a: &str, b: &str, q: usize) -> f64 {
    qgram_from(&QGramProfile::new(a, q), &QGramProfile::new(b, q))
}

/// Precomputed padded q-gram set of one string. Building the profile
/// dominates the cost of [`qgram`], so batch scans construct one per
/// string and compare with [`qgram_from`] — which is [`qgram`]'s own core,
/// making the two bit-identical by construction.
#[derive(Debug, Clone)]
pub struct QGramProfile {
    grams: BTreeSet<Vec<char>>,
    /// Whether the source string was empty (the grams of an empty padded
    /// string are non-empty for q ≥ 2, so this is tracked separately).
    empty: bool,
}

impl QGramProfile {
    pub fn new(s: &str, q: usize) -> Self {
        let q = q.max(1);
        let padded: Vec<char> = std::iter::repeat_n('#', q - 1)
            .chain(s.chars())
            .chain(std::iter::repeat_n('#', q - 1))
            .collect();
        QGramProfile {
            grams: padded.windows(q).map(|w| w.to_vec()).collect(),
            empty: s.is_empty(),
        }
    }
}

/// Shared final expression of every q-gram path: Dice coefficient over the
/// gram-set cardinalities, with the empty-string conventions of [`qgram`].
/// One expression for the tree-set and packed profiles keeps them
/// bit-identical.
fn qgram_dice(inter: usize, len_a: usize, len_b: usize, empty_a: bool, empty_b: bool) -> f64 {
    if empty_a && empty_b {
        return 1.0;
    }
    if empty_a || empty_b {
        return 0.0;
    }
    2.0 * inter as f64 / (len_a + len_b) as f64
}

/// Q-gram similarity of two precomputed profiles (the core of [`qgram`]).
pub fn qgram_from(a: &QGramProfile, b: &QGramProfile) -> f64 {
    qgram_dice(
        a.grams.intersection(&b.grams).count(),
        a.grams.len(),
        b.grams.len(),
        a.empty,
        b.empty,
    )
}

/// Bitset-backed q-gram profile for `q ≤ 3`: every padded gram packs
/// injectively into one `u64` (21 bits per `char` — the scalar-value space
/// tops out at `0x10FFFF < 2²¹`), so the gram *set* becomes a sorted,
/// deduplicated `Vec<u64>` and intersection a linear merge walk instead of
/// tree-set iteration. Cardinalities are identical to [`QGramProfile`]'s by
/// injectivity, hence so is the Dice value, bit for bit.
#[derive(Debug, Clone, Default)]
pub struct QGramPacked {
    grams: Vec<u64>,
    empty: bool,
}

/// Bits per packed character; three fit in a `u64` with one to spare.
const QGRAM_CHAR_BITS: u32 = 21;

impl QGramPacked {
    /// Builds the packed profile, or `None` when `q > 3` grams do not fit
    /// one word (callers fall back to [`QGramProfile`]).
    pub fn new(s: &str, q: usize) -> Option<QGramPacked> {
        let q = q.max(1);
        if q > 3 {
            return None;
        }
        let padded: Vec<char> = std::iter::repeat_n('#', q - 1)
            .chain(s.chars())
            .chain(std::iter::repeat_n('#', q - 1))
            .collect();
        let mut grams: Vec<u64> = padded
            .windows(q)
            .map(|w| {
                w.iter()
                    .fold(0u64, |acc, &c| (acc << QGRAM_CHAR_BITS) | c as u64)
            })
            .collect();
        grams.sort_unstable();
        grams.dedup();
        Some(QGramPacked {
            grams,
            empty: s.is_empty(),
        })
    }
}

/// Q-gram similarity of two packed profiles: sorted-u64 merge intersection
/// feeding the same Dice expression as [`qgram_from`].
pub fn qgram_packed_from(a: &QGramPacked, b: &QGramPacked) -> f64 {
    let mut inter = 0usize;
    let mut xs = a.grams.iter().peekable();
    let mut ys = b.grams.iter().peekable();
    while let (Some(&&x), Some(&&y)) = (xs.peek(), ys.peek()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                xs.next();
            }
            std::cmp::Ordering::Greater => {
                ys.next();
            }
            std::cmp::Ordering::Equal => {
                inter += 1;
                xs.next();
                ys.next();
            }
        }
    }
    qgram_dice(inter, a.grams.len(), b.grams.len(), a.empty, b.empty)
}

/// Monge-Elkan: average over the tokens of `a` of the best inner similarity
/// against any token of `b`. `inner` is typically [`levenshtein_similarity`]
/// or [`jaro_winkler`]. Asymmetric by construction.
pub fn monge_elkan<F>(a: &[&str], b: &[&str], inner: F) -> f64
where
    F: Fn(&str, &str) -> f64,
{
    if a.is_empty() {
        return if b.is_empty() { 1.0 } else { 0.0 };
    }
    if b.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for ta in a {
        let best = b.iter().map(|tb| inner(ta, tb)).fold(0.0_f64, f64::max);
        total += best;
    }
    total / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_classics() {
        assert_eq!(levenshtein_distance("kitten", "sitting"), 3);
        assert_eq!(levenshtein_distance("flaw", "lawn"), 2);
        assert_eq!(levenshtein_distance("", "abc"), 3);
        assert_eq!(levenshtein_distance("abc", ""), 3);
        assert_eq!(levenshtein_distance("same", "same"), 0);
    }

    #[test]
    fn levenshtein_similarity_range() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("Professor", "Professors");
        assert!(s > 0.88 && s < 1.0);
    }

    #[test]
    fn levenshtein_is_symmetric_and_unicode_safe() {
        assert_eq!(
            levenshtein_distance("zürich", "zurich"),
            levenshtein_distance("zurich", "zürich")
        );
        assert_eq!(levenshtein_distance("zürich", "zurich"), 1);
    }

    #[test]
    fn jaro_reference_values() {
        // Canonical examples from the record-linkage literature.
        assert!((jaro("MARTHA", "MARHTA") - 0.944444).abs() < 1e-4);
        assert!((jaro("DIXON", "DICKSONX") - 0.766667).abs() < 1e-4);
        assert!((jaro("DWAYNE", "DUANE") - 0.822222).abs() < 1e-4);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_common_prefixes() {
        assert!((jaro_winkler("MARTHA", "MARHTA") - 0.961111).abs() < 1e-4);
        assert!(jaro_winkler("Professor", "Professional") > jaro("Professor", "Professional"));
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn jaro_winkler_boost_needs_threshold() {
        // "AB" vs "AXYZ" shares the prefix "A" but jaro ≈ 0.583 ≤ 0.7:
        // below Winkler's boost threshold the plain Jaro score is returned.
        let j = jaro("AB", "AXYZ");
        assert!(j < 0.7, "got {j}");
        assert_eq!(jaro_winkler("AB", "AXYZ"), j);
    }

    #[test]
    fn qgram_behaviour() {
        assert_eq!(qgram("", "", 3), 1.0);
        assert_eq!(qgram("abc", "", 3), 0.0);
        assert_eq!(qgram("night", "night", 3), 1.0);
        let s = qgram("night", "nacht", 3);
        assert!(s > 0.0 && s < 0.5, "got {s}");
    }

    #[test]
    fn qgram_zero_is_treated_as_unigram() {
        assert_eq!(qgram("abc", "abc", 0), qgram("abc", "abc", 1));
        assert_eq!(qgram("abc", "cba", 0), 1.0); // same unigram set
        assert_eq!(qgram("abc", "xyz", 0), 0.0);
    }

    #[test]
    fn chars_cores_match_str_entry_points_bitwise() {
        let pairs = [
            ("kitten", "sitting"),
            ("MARTHA", "MARHTA"),
            ("zürich", "zurich"),
            ("Professor", "Professional"),
            ("", "abc"),
            ("", ""),
        ];
        for (a, b) in pairs {
            let ca: Vec<char> = a.chars().collect();
            let cb: Vec<char> = b.chars().collect();
            assert_eq!(
                levenshtein_similarity(a, b).to_bits(),
                levenshtein_similarity_chars(&ca, &cb).to_bits()
            );
            // Exact symmetry underpins mirrored similarity tables.
            assert_eq!(
                levenshtein_similarity(a, b).to_bits(),
                levenshtein_similarity(b, a).to_bits()
            );
            assert_eq!(jaro(a, b).to_bits(), jaro_chars(&ca, &cb).to_bits());
            assert_eq!(
                jaro_winkler(a, b).to_bits(),
                jaro_winkler_chars(&ca, &cb).to_bits()
            );
            assert_eq!(
                qgram(a, b, 3).to_bits(),
                qgram_from(&QGramProfile::new(a, 3), &QGramProfile::new(b, 3)).to_bits()
            );
        }
    }

    #[test]
    fn fast_jaro_paths_are_bit_identical() {
        let pairs = [
            ("MARTHA", "MARHTA"),
            ("DIXON", "DICKSONX"),
            ("DWAYNE", "DUANE"),
            ("abc", "abc"),
            ("abc", "xyz"),
            ("", ""),
            ("", "abc"),
            ("aabbccdd", "ddccbbaa"),
            ("Professor", "Professional"),
        ];
        let mut scratch = JaroScratch::new();
        for (a, b) in pairs {
            let ca: Vec<char> = a.chars().collect();
            let cb: Vec<char> = b.chars().collect();
            let reference = jaro_chars(&ca, &cb);
            assert_eq!(
                jaro_chars_scratch(&ca, &cb, &mut scratch).to_bits(),
                reference.to_bits(),
                "scratch {a:?} vs {b:?}"
            );
            let mask = JaroMask::new(&cb).expect("short string");
            assert_eq!(
                jaro_chars_masked(&ca, &mask, &mut scratch).to_bits(),
                reference.to_bits(),
                "masked {a:?} vs {b:?}"
            );
            assert_eq!(
                jaro_winkler_fast(&ca, &cb, Some(&mask), &mut scratch).to_bits(),
                jaro_winkler_chars(&ca, &cb).to_bits(),
                "winkler {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn packed_qgrams_are_bit_identical() {
        let pairs = [
            ("night", "nacht"),
            ("", ""),
            ("abc", ""),
            ("night", "night"),
            ("zürich", "zurich"),
            ("ababab", "bababa"),
        ];
        for q in [1usize, 2, 3] {
            for (a, b) in pairs {
                let packed = qgram_packed_from(
                    &QGramPacked::new(a, q).expect("q <= 3"),
                    &QGramPacked::new(b, q).expect("q <= 3"),
                );
                assert_eq!(
                    packed.to_bits(),
                    qgram(a, b, q).to_bits(),
                    "{a:?} vs {b:?} q={q}"
                );
            }
        }
        assert!(QGramPacked::new("abc", 4).is_none());
    }

    #[test]
    fn levenshtein_scratch_matches() {
        let mut scratch = LevenshteinScratch::new();
        for (a, b) in [("kitten", "sitting"), ("", "abc"), ("same", "same")] {
            let ca: Vec<char> = a.chars().collect();
            let cb: Vec<char> = b.chars().collect();
            assert_eq!(
                levenshtein_distance_chars_scratch(&ca, &cb, &mut scratch),
                levenshtein_distance_chars(&ca, &cb)
            );
        }
    }

    #[test]
    fn monge_elkan_token_sets() {
        let a = ["assistant", "professor"];
        let b = ["professor"];
        let s = monge_elkan(&a, &b, levenshtein_similarity);
        assert!((0.5..1.0).contains(&s), "got {s}");
        // Perfect when every token has an exact counterpart.
        assert_eq!(monge_elkan(&a, &a, levenshtein_similarity), 1.0);
        assert_eq!(monge_elkan(&[], &[], levenshtein_similarity), 1.0);
        assert_eq!(monge_elkan(&a, &[], levenshtein_similarity), 0.0);
    }
}
