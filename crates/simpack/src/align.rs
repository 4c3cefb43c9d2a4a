//! Alignment-based sequence similarity: Needleman-Wunsch (global) and
//! Smith-Waterman (local), over generic token sequences with a pluggable
//! per-token scorer. The original SimPack shipped both; here they extend
//! the Eq. 4 edit-distance family with gap-penalty alignment semantics.

/// Scoring scheme for alignments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentScoring {
    /// Score for two equal tokens (> 0).
    pub matched: f64,
    /// Score for two differing tokens (typically ≤ 0).
    pub mismatch: f64,
    /// Penalty per gap position (typically < 0).
    pub gap: f64,
}

impl Default for AlignmentScoring {
    fn default() -> Self {
        AlignmentScoring {
            matched: 1.0,
            mismatch: -1.0,
            gap: -0.5,
        }
    }
}

/// Reusable DP rows for the alignment kernels, one per thread: the
/// scratch carries capacity between calls, never state.
#[derive(Debug, Default)]
struct AlignScratch {
    prev: Vec<f64>,
    curr: Vec<f64>,
}

/// Runs `f` with this thread's [`AlignScratch`] (a fresh one on reentrant
/// use).
fn with_align_scratch<R>(f: impl FnOnce(&mut AlignScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<AlignScratch> =
            std::cell::RefCell::new(AlignScratch::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut AlignScratch::default()),
    })
}

/// Needleman-Wunsch global alignment score of two token sequences.
pub fn needleman_wunsch<T: PartialEq>(x: &[T], y: &[T], s: AlignmentScoring) -> f64 {
    with_align_scratch(|scratch| {
        // Two-row DP; `w = [prev[j], prev[j+1]]` via `windows(2)` and
        // `curr.last()` is the cell to the left, so no subscript arithmetic.
        let AlignScratch { prev, curr } = scratch;
        prev.clear();
        prev.extend((0..=y.len()).map(|j| j as f64 * s.gap));
        for (i, tx) in x.iter().enumerate() {
            curr.clear();
            curr.push((i + 1) as f64 * s.gap);
            for (ty, w) in y.iter().zip(prev.windows(2)) {
                let m = if tx == ty { s.matched } else { s.mismatch };
                let left = curr.last().copied().unwrap_or(0.0);
                curr.push((w[0] + m).max(w[1] + s.gap).max(left + s.gap));
            }
            std::mem::swap(prev, curr);
        }
        prev.last().copied().unwrap_or(0.0)
    })
}

/// Needleman-Wunsch normalized to [0, 1]: score divided by the best
/// possible score (`matched · min(|x|, |y|)` less the unavoidable gap run),
/// clamped at 0. Identical sequences score 1; empty-vs-empty scores 1.
pub fn needleman_wunsch_similarity<T: PartialEq>(x: &[T], y: &[T], s: AlignmentScoring) -> f64 {
    if x.is_empty() && y.is_empty() {
        return 1.0;
    }
    let common = x.len().min(y.len()) as f64;
    let overhang = (x.len().max(y.len()) - x.len().min(y.len())) as f64;
    let best = common * s.matched + overhang * s.gap;
    if best <= 0.0 {
        return 0.0;
    }
    (needleman_wunsch(x, y, s) / best).clamp(0.0, 1.0)
}

/// Smith-Waterman local alignment score: the best-scoring *subsequence*
/// alignment (never negative).
pub fn smith_waterman<T: PartialEq>(x: &[T], y: &[T], s: AlignmentScoring) -> f64 {
    with_align_scratch(|scratch| {
        let mut best = 0.0_f64;
        let AlignScratch { prev, curr } = scratch;
        prev.clear();
        prev.resize(y.len() + 1, 0.0_f64);
        for tx in x {
            curr.clear();
            curr.push(0.0);
            for (ty, w) in y.iter().zip(prev.windows(2)) {
                let m = if tx == ty { s.matched } else { s.mismatch };
                let left = curr.last().copied().unwrap_or(0.0);
                let cell = (w[0] + m).max(w[1] + s.gap).max(left + s.gap).max(0.0);
                best = best.max(cell);
                curr.push(cell);
            }
            std::mem::swap(prev, curr);
        }
        best
    })
}

/// Smith-Waterman normalized to [0, 1] by the best achievable local score
/// (`matched · min(|x|, |y|)`).
pub fn smith_waterman_similarity<T: PartialEq>(x: &[T], y: &[T], s: AlignmentScoring) -> f64 {
    if x.is_empty() && y.is_empty() {
        return 1.0;
    }
    let best = x.len().min(y.len()) as f64 * s.matched;
    if best <= 0.0 {
        return 0.0;
    }
    (smith_waterman(x, y, s) / best).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn nw_identical_sequences_score_max() {
        let x = toks("similar");
        let s = AlignmentScoring::default();
        assert_eq!(needleman_wunsch(&x, &x, s), 7.0);
        assert_eq!(needleman_wunsch_similarity(&x, &x, s), 1.0);
    }

    #[test]
    fn nw_prefers_gaps_over_mismatches_when_cheaper() {
        let s = AlignmentScoring {
            matched: 1.0,
            mismatch: -2.0,
            gap: -0.5,
        };
        // "ab" vs "axb": insert a gap (−0.5) rather than mismatch.
        let score = needleman_wunsch(&toks("ab"), &toks("axb"), s);
        assert_eq!(score, 1.0 + 1.0 - 0.5);
    }

    #[test]
    fn nw_empty_cases() {
        let s = AlignmentScoring::default();
        let empty: Vec<char> = vec![];
        assert_eq!(needleman_wunsch(&empty, &toks("abc"), s), -1.5);
        assert_eq!(needleman_wunsch_similarity(&empty, &empty, s), 1.0);
        assert_eq!(needleman_wunsch_similarity(&empty, &toks("abc"), s), 0.0);
    }

    #[test]
    fn sw_finds_local_matches_in_noise() {
        let s = AlignmentScoring::default();
        // The shared core "taxonomy" dominates unrelated flanks.
        let x = toks("xxxtaxonomyyyy");
        let y = toks("qqtaxonomyzz");
        assert_eq!(smith_waterman(&x, &y, s), 8.0); // |"taxonomy"| = 8
        let sim = smith_waterman_similarity(&x, &y, s);
        assert!(sim > 0.6 && sim <= 1.0);
    }

    #[test]
    fn sw_never_negative_and_zero_for_disjoint() {
        let s = AlignmentScoring::default();
        assert_eq!(smith_waterman(&toks("abc"), &toks("xyz"), s), 0.0);
        assert_eq!(
            smith_waterman_similarity(&toks("abc"), &toks("xyz"), s),
            0.0
        );
    }

    #[test]
    fn both_are_symmetric() {
        let s = AlignmentScoring::default();
        let x = toks("professor");
        let y = toks("professional");
        assert_eq!(needleman_wunsch(&x, &y, s), needleman_wunsch(&y, &x, s));
        assert_eq!(smith_waterman(&x, &y, s), smith_waterman(&y, &x, s));
    }

    #[test]
    fn local_beats_global_on_embedded_similarity() {
        let s = AlignmentScoring::default();
        let x = toks("aaaaacoreaaaaa");
        let y = toks("zzzzzcorezzzzz");
        assert!(smith_waterman_similarity(&x, &y, s) > needleman_wunsch_similarity(&x, &y, s));
    }

    #[test]
    fn works_on_string_tokens_too() {
        let s = AlignmentScoring::default();
        let x = ["Thing", "Person", "Professor"];
        let y = ["Thing", "Person", "Student"];
        assert_eq!(needleman_wunsch(&x, &y, s), 1.0 + 1.0 - 1.0);
        assert_eq!(smith_waterman(&x, &y, s), 2.0);
    }
}
