//! Vector-based similarity measures (paper §2.2, Eq. 1–3).
//!
//! The paper derives binary vectors from resource feature sets via the
//! trivial mapping M₁ (union the features, mark presence). Since the
//! vectors are characteristic functions of sets, the measures are provided
//! on explicit sets of features and on interned id sets. (TF-IDF term
//! vectors are scored by `sst-index`.)

use std::collections::BTreeSet;

/// A feature set: the paper's view of a resource as the set of its
/// properties. `BTreeSet` keeps iteration deterministic.
pub type FeatureSet = BTreeSet<String>;

/// Builds a feature set from anything yielding string-likes.
pub fn features<I, S>(items: I) -> FeatureSet
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    items.into_iter().map(Into::into).collect()
}

fn intersection_size(x: &FeatureSet, y: &FeatureSet) -> usize {
    x.intersection(y).count()
}

/// Every set measure depends only on `|x∩y|`, `|x|`, and `|y|`. These
/// count-based cores carry the final float expressions, shared by the
/// string-set entry points and the interned-id batch path
/// ([`InternedFeatures`]) so the two are bit-identical by construction.
pub fn cosine_from_counts(inter: usize, nx: usize, ny: usize) -> f64 {
    if nx == 0 || ny == 0 {
        return 0.0;
    }
    inter as f64 / ((nx as f64) * (ny as f64)).sqrt()
}

/// Count-based core of [`jaccard`].
pub fn jaccard_from_counts(inter: usize, nx: usize, ny: usize) -> f64 {
    if nx == 0 && ny == 0 {
        return 0.0;
    }
    let inter = inter as f64;
    inter / (nx as f64 + ny as f64 - inter)
}

/// Count-based core of [`overlap`].
pub fn overlap_from_counts(inter: usize, nx: usize, ny: usize) -> f64 {
    if nx == 0 || ny == 0 {
        return 0.0;
    }
    inter as f64 / nx.min(ny) as f64
}

/// Count-based core of [`dice`].
pub fn dice_from_counts(inter: usize, nx: usize, ny: usize) -> f64 {
    if nx == 0 && ny == 0 {
        return 0.0;
    }
    2.0 * inter as f64 / (nx + ny) as f64
}

/// Cosine similarity (Eq. 1) of the binary vectors of two feature sets:
/// `|x∩y| / sqrt(|x|·|y|)`.
pub fn cosine(x: &FeatureSet, y: &FeatureSet) -> f64 {
    cosine_from_counts(intersection_size(x, y), x.len(), y.len())
}

/// Extended Jaccard similarity (Eq. 2): `|x∩y| / (|x| + |y| − |x∩y|)`.
pub fn jaccard(x: &FeatureSet, y: &FeatureSet) -> f64 {
    jaccard_from_counts(intersection_size(x, y), x.len(), y.len())
}

/// Overlap similarity (Eq. 3): `|x∩y| / min(|x|, |y|)`.
pub fn overlap(x: &FeatureSet, y: &FeatureSet) -> f64 {
    overlap_from_counts(intersection_size(x, y), x.len(), y.len())
}

/// Dice coefficient: `2|x∩y| / (|x| + |y|)` — a standard companion of the
/// three paper measures, used by the ablation benches.
pub fn dice(x: &FeatureSet, y: &FeatureSet) -> f64 {
    dice_from_counts(intersection_size(x, y), x.len(), y.len())
}

/// A feature set interned to sorted distinct `u32` ids against a shared
/// vocabulary: `|x∩y|` becomes a linear merge over two small sorted
/// slices instead of tree-set iteration with string comparisons. Interning
/// is injective, so the counts — and through the `*_from_counts` cores the
/// measures — are identical to the string-set path.
#[derive(Debug, Clone, Default)]
pub struct InternedFeatures {
    ids: Vec<u32>,
}

impl InternedFeatures {
    /// Wraps sorted, deduplicated ids (typically produced by interning a
    /// [`FeatureSet`] in iteration order against a growing vocabulary, then
    /// sorting).
    pub fn new(mut ids: Vec<u32>) -> InternedFeatures {
        ids.sort_unstable();
        ids.dedup();
        InternedFeatures { ids }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted distinct ids.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// `|x∩y|` by sorted merge.
    pub fn intersection_size(&self, other: &InternedFeatures) -> usize {
        let mut xs = self.ids.as_slice();
        let mut ys = other.ids.as_slice();
        let mut inter = 0usize;
        while let (Some(&x), Some(&y)) = (xs.first(), ys.first()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => xs = xs.get(1..).unwrap_or(&[]),
                std::cmp::Ordering::Greater => ys = ys.get(1..).unwrap_or(&[]),
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    xs = xs.get(1..).unwrap_or(&[]);
                    ys = ys.get(1..).unwrap_or(&[]);
                }
            }
        }
        inter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx() -> FeatureSet {
        features(["type", "name"])
    }

    fn fy() -> FeatureSet {
        features(["type", "age"])
    }

    #[test]
    fn paper_example_vectors() {
        // The paper's R_x = {type, name}, R_y = {type, age}: one shared
        // feature of two each.
        assert!((cosine(&fx(), &fy()) - 0.5).abs() < 1e-12);
        assert!((jaccard(&fx(), &fy()) - 1.0 / 3.0).abs() < 1e-12);
        assert!((overlap(&fx(), &fy()) - 0.5).abs() < 1e-12);
        assert!((dice(&fx(), &fy()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_sets_score_one() {
        for f in [cosine, jaccard, overlap, dice] {
            assert!((f(&fx(), &fx()) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_sets_score_zero() {
        let a = features(["a"]);
        let b = features(["b"]);
        for f in [cosine, jaccard, overlap, dice] {
            assert_eq!(f(&a, &b), 0.0);
        }
    }

    #[test]
    fn empty_sets_are_safe() {
        let e = FeatureSet::new();
        for f in [cosine, jaccard, overlap, dice] {
            assert_eq!(f(&e, &e), 0.0);
            assert_eq!(f(&e, &fx()), 0.0);
        }
    }

    #[test]
    fn overlap_is_one_for_subsets() {
        let small = features(["type"]);
        let big = features(["type", "name", "age"]);
        assert_eq!(overlap(&small, &big), 1.0);
        assert!(jaccard(&small, &big) < 1.0);
    }

    #[test]
    fn interned_features_match_string_sets_bitwise() {
        let sets = [
            features::<_, &str>([]),
            features(["type"]),
            features(["type", "name"]),
            features(["type", "age"]),
            features(["a", "b", "c", "d"]),
            features(["b", "d", "e"]),
        ];
        // Intern against a shared vocabulary, deliberately in an order
        // that scrambles ids relative to the BTreeSet string order.
        let mut vocab: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let interned: Vec<InternedFeatures> = sets
            .iter()
            .map(|s| {
                let ids = s
                    .iter()
                    .rev()
                    .map(|f| {
                        let next = vocab.len() as u32;
                        *vocab.entry(f.as_str()).or_insert(next)
                    })
                    .collect();
                InternedFeatures::new(ids)
            })
            .collect();
        for (s, i) in sets.iter().zip(&interned) {
            assert_eq!(s.len(), i.len());
        }
        for (sx, ix) in sets.iter().zip(&interned) {
            for (sy, iy) in sets.iter().zip(&interned) {
                let inter = ix.intersection_size(iy);
                assert_eq!(inter, intersection_size(sx, sy));
                let pairs = [
                    (
                        cosine(sx, sy),
                        cosine_from_counts(inter, ix.len(), iy.len()),
                    ),
                    (
                        jaccard(sx, sy),
                        jaccard_from_counts(inter, ix.len(), iy.len()),
                    ),
                    (
                        overlap(sx, sy),
                        overlap_from_counts(inter, ix.len(), iy.len()),
                    ),
                    (dice(sx, sy), dice_from_counts(inter, ix.len(), iy.len())),
                ];
                for (reference, fast) in pairs {
                    assert_eq!(reference.to_bits(), fast.to_bits());
                }
            }
        }
    }
}
