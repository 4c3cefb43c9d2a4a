//! Dense-vector similarity — the embedding counterpart of [`crate::vector`].
//!
//! The sparse measures in [`crate::vector`] operate on TF-IDF term
//! vectors directly; this module provides the fixed-dimension dense
//! kernels underneath the toolkit's vector-retrieval subsystem (concept
//! embeddings, exact and approximate top-k). The functions are plain
//! `&[f64]` slice math with a pinned accumulation order so that every
//! caller — the naive per-pair runner, the concept-table scorer, and the
//! vector store — produces bit-identical scores.
//!
//! Scores for ranking use the *shifted unit cosine*
//! `(1 + x·y) / 2` over L2-normalized vectors: it is a strictly
//! monotone transform of cosine (so top-k order is preserved), and it
//! maps the signed cosine range [-1, 1] into the normalized-measure
//! range [0, 1] required by the toolkit's measure invariants.

/// Dot product over the common prefix of two dense vectors, accumulated
/// left to right. Both the exact scan and the ANN probe use this exact
/// loop so their scores agree bit-for-bit.
pub fn dense_dot(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let mut sum = 0.0;
    for i in 0..n {
        sum += x[i] * y[i];
    }
    sum
}

/// Euclidean (L2) norm.
pub fn dense_norm(x: &[f64]) -> f64 {
    dense_dot(x, x).sqrt()
}

/// True when every component is exactly zero — the embedding of a
/// concept with no textual description. Zero vectors have no direction,
/// so similarity against them is defined as 0.
pub fn dense_is_zero(x: &[f64]) -> bool {
    x.iter().all(|&v| v == 0.0)
}

/// L2-normalizes in place; a zero vector is left untouched.
pub fn dense_normalize(x: &mut [f64]) {
    let norm = dense_norm(x);
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
}

/// Cosine similarity of arbitrary dense vectors, clamped to [-1, 1];
/// 0 when either vector is zero.
pub fn dense_cosine(x: &[f64], y: &[f64]) -> f64 {
    let denom = dense_norm(x) * dense_norm(y);
    if denom == 0.0 {
        0.0
    } else {
        (dense_dot(x, y) / denom).clamp(-1.0, 1.0)
    }
}

/// Ranking similarity for *unit* (pre-normalized) vectors: the shifted
/// unit cosine `(1 + x·y) / 2`, clamped to [0, 1]. Zero vectors score 0
/// against everything — "no description" must not look half-similar to
/// every concept.
pub fn dense_unit_similarity(x: &[f64], y: &[f64]) -> f64 {
    if dense_is_zero(x) || dense_is_zero(y) {
        return 0.0;
    }
    (0.5 * (1.0 + dense_dot(x, y))).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm_basics() {
        assert_eq!(dense_dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dense_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(dense_dot(&[], &[1.0]), 0.0);
    }

    #[test]
    fn normalize_produces_unit_vectors_and_skips_zero() {
        let mut v = vec![3.0, 4.0];
        dense_normalize(&mut v);
        assert!((dense_norm(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        dense_normalize(&mut z);
        assert!(dense_is_zero(&z));
    }

    #[test]
    fn unit_similarity_range_and_extremes() {
        let mut a = vec![1.0, 1.0];
        dense_normalize(&mut a);
        let mut b = vec![-1.0, -1.0];
        dense_normalize(&mut b);
        assert!((dense_unit_similarity(&a, &a) - 1.0).abs() < 1e-12);
        assert!(dense_unit_similarity(&a, &b).abs() < 1e-12);
        let mut c = vec![1.0, -1.0];
        dense_normalize(&mut c);
        let s = dense_unit_similarity(&a, &c);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_vectors_score_zero_not_half() {
        let z = vec![0.0, 0.0];
        let mut a = vec![1.0, 0.0];
        dense_normalize(&mut a);
        assert_eq!(dense_unit_similarity(&z, &a), 0.0);
        assert_eq!(dense_unit_similarity(&z, &z), 0.0);
        assert_eq!(dense_cosine(&z, &a), 0.0);
    }

    #[test]
    fn unit_similarity_is_monotone_in_cosine() {
        // Vectors at increasing angles from `a` must score strictly
        // lower — the property ANN relies on to rank by dot product.
        let a = [1.0, 0.0];
        let angles = [0.0_f64, 0.5, 1.0, 2.0, 3.0];
        let scores: Vec<f64> = angles
            .iter()
            .map(|t| dense_unit_similarity(&a, &[t.cos(), t.sin()]))
            .collect();
        for w in scores.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn unit_similarity_is_symmetric_bitwise() {
        let mut a = vec![0.3, -0.7, 0.2];
        let mut b = vec![-0.1, 0.9, 0.4];
        dense_normalize(&mut a);
        dense_normalize(&mut b);
        assert_eq!(
            dense_unit_similarity(&a, &b).to_bits(),
            dense_unit_similarity(&b, &a).to_bits()
        );
    }
}
