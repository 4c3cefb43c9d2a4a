//! Information-theoretic similarity measures (paper §2.2, Eq. 7–8):
//! Resnik (1995) and Lin (1998), plus Jiang-Conrath as an extension.
//!
//! The probability `p(c)` of encountering a concept is computed over a
//! corpus: either instance counts (when extensions are populated) or —
//! the paper's proposal for sparsely populated Semantic Web ontologies —
//! subclass counts, where every concept contributes one observation to
//! itself and all its ancestors.

use crate::graph::{AncestorList, NodeId, Taxonomy};

/// How `p(c)` is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbabilityMode {
    /// Counts from concept instances (Resnik's original corpus counting).
    InstanceCorpus,
    /// Each concept counts once — the paper's subclass-based fallback.
    SubclassCount,
}

/// Precomputed information content for every node of a taxonomy.
#[derive(Debug, Clone)]
pub struct InformationContent {
    /// `p(c)` per node, in (0, 1].
    prob: Vec<f64>,
}

impl InformationContent {
    /// Computes `p(c)` from per-node observation counts: each node's count
    /// is propagated to all its ancestors, and probabilities normalize by
    /// the root's total. Zero-count nodes still contribute an epsilon
    /// observation so their IC is finite.
    pub fn from_counts(taxonomy: &Taxonomy, counts: &[f64]) -> Self {
        // lint: allow(panic) construction-time invariant; counts come from the same taxonomy's node table
        assert_eq!(counts.len(), taxonomy.node_count(), "one count per node");
        let n = taxonomy.node_count();
        let mut cumulative = vec![0.0; n];
        // Nodes in ascending order, so every slot sums its weights in node
        // order whatever order the ancestors are listed in.
        for node in 0..n as NodeId {
            let weight = counts[node as usize].max(1e-9);
            for anc in taxonomy.ancestors(node).nodes() {
                cumulative[anc as usize] += weight;
            }
        }
        let total = cumulative[taxonomy.root() as usize];
        let prob = cumulative
            .into_iter()
            .map(|c| (c / total).clamp(1e-12, 1.0))
            .collect();
        InformationContent { prob }
    }

    /// Instance-corpus probabilities from per-concept instance counts.
    pub fn from_instances(taxonomy: &Taxonomy, instance_counts: &[usize]) -> Self {
        let counts: Vec<f64> = instance_counts.iter().map(|&c| c as f64).collect();
        Self::from_counts(taxonomy, &counts)
    }

    /// Subclass-count probabilities (every concept = one observation).
    pub fn from_subclasses(taxonomy: &Taxonomy) -> Self {
        Self::from_counts(taxonomy, &vec![1.0; taxonomy.node_count()])
    }

    /// Builds with the given mode, falling back to subclass counts when the
    /// instance space is *sparsely populated* — the paper's recommendation
    /// ("when the instance space is sparsely populated (as currently in
    /// most Semantic Web ontologies) … we propose to use the probability of
    /// encountering a subclass"). "Sparse" means fewer than 10% of concepts
    /// carry any instance.
    pub fn for_mode(taxonomy: &Taxonomy, mode: ProbabilityMode, instance_counts: &[usize]) -> Self {
        match mode {
            ProbabilityMode::SubclassCount => Self::from_subclasses(taxonomy),
            ProbabilityMode::InstanceCorpus => {
                let populated = instance_counts.iter().filter(|&&c| c > 0).count();
                if populated * 10 < taxonomy.node_count() {
                    Self::from_subclasses(taxonomy)
                } else {
                    Self::from_instances(taxonomy, instance_counts)
                }
            }
        }
    }

    /// `p(c)`.
    pub fn probability(&self, node: NodeId) -> f64 {
        self.prob[node as usize]
    }

    /// Information content `−log₂ p(c)`.
    pub fn ic(&self, node: NodeId) -> f64 {
        -self.probability(node).log2()
    }
}

/// The common subsumer with maximal information content, if any: the merge
/// walk visits the common nodes in ascending id order, and an equal IC
/// keeps the smaller id.
fn best_subsumer_compact(
    ic: &InformationContent,
    a: &AncestorList,
    b: &AncestorList,
) -> Option<NodeId> {
    let mut best: Option<NodeId> = None;
    for (n, _, _) in a.common(b) {
        best = Some(match best {
            None => n,
            Some(x) => {
                let keep = ic
                    .ic(x)
                    .partial_cmp(&ic.ic(n))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(n.cmp(&x))
                    == std::cmp::Ordering::Greater;
                if keep {
                    x
                } else {
                    n
                }
            }
        });
    }
    best
}

/// [`resnik_similarity`] over precomputed ancestor lists.
pub fn resnik_similarity_compact(
    ic: &InformationContent,
    a: &AncestorList,
    b: &AncestorList,
) -> f64 {
    resnik_core(ic, best_subsumer_compact(ic, a, b))
}

/// [`lin_similarity`] over precomputed ancestor lists.
pub fn lin_similarity_compact(
    ic: &InformationContent,
    a: NodeId,
    b: NodeId,
    la: &AncestorList,
    lb: &AncestorList,
) -> f64 {
    let denom = ic.probability(a).log2() + ic.probability(b).log2();
    if denom == 0.0 {
        return if a == b { 1.0 } else { 0.0 };
    }
    lin_core(ic, best_subsumer_compact(ic, la, lb), denom)
}

/// [`jiang_conrath_similarity`] over precomputed ancestor lists.
pub fn jiang_conrath_similarity_compact(
    ic: &InformationContent,
    a: NodeId,
    b: NodeId,
    la: &AncestorList,
    lb: &AncestorList,
) -> f64 {
    jiang_conrath_core(ic, a, b, best_subsumer_compact(ic, la, lb))
}

/// Resnik similarity (Eq. 7): `max_{z ∈ S(a,b)} −log₂ p(z)`.
///
/// **Unnormalized**: the value is an information content in bits (Table 1
/// reports 12.7 for the self-comparison), not a score in [0, 1].
pub fn resnik_similarity(t: &Taxonomy, ic: &InformationContent, a: NodeId, b: NodeId) -> f64 {
    resnik_similarity_compact(ic, &t.ancestors(a), &t.ancestors(b))
}

fn resnik_core(ic: &InformationContent, best: Option<NodeId>) -> f64 {
    // `+ 0.0` canonicalizes IEEE −0.0 (from −log₂ 1) to 0.0.
    best.map(|z| ic.ic(z)).unwrap_or(0.0) + 0.0
}

/// Lin similarity (Eq. 8):
/// `2·log₂ p(mrca) / (log₂ p(a) + log₂ p(b))`, in [0, 1].
///
/// When both arguments carry zero information (p = 1, e.g. the root), the
/// value is 1 for identical concepts and 0 otherwise.
pub fn lin_similarity(t: &Taxonomy, ic: &InformationContent, a: NodeId, b: NodeId) -> f64 {
    lin_similarity_compact(ic, a, b, &t.ancestors(a), &t.ancestors(b))
}

fn lin_core(ic: &InformationContent, best: Option<NodeId>, denom: f64) -> f64 {
    let Some(z) = best else {
        return 0.0;
    };
    // `+ 0.0` canonicalizes IEEE −0.0 (zero numerator, negative denominator).
    (2.0 * ic.probability(z).log2() / denom).clamp(0.0, 1.0) + 0.0
}

/// Jiang-Conrath distance converted to a similarity:
/// `1 / (1 + IC(a) + IC(b) − 2·IC(mrca))`. An extension measure (the
/// paper's future work lists additional IC measures).
pub fn jiang_conrath_similarity(
    t: &Taxonomy,
    ic: &InformationContent,
    a: NodeId,
    b: NodeId,
) -> f64 {
    jiang_conrath_similarity_compact(ic, a, b, &t.ancestors(a), &t.ancestors(b))
}

fn jiang_conrath_core(ic: &InformationContent, a: NodeId, b: NodeId, best: Option<NodeId>) -> f64 {
    let Some(z) = best else {
        return 0.0;
    };
    let distance = (ic.ic(a) + ic.ic(b) - 2.0 * ic.ic(z)).max(0.0);
    1.0 / (1.0 + distance)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0=root, 1=Person, 2=Student, 3=Professor, 4=FullProf, 5=Animal,
    /// 6=Bird — same shape as the graph-measure tests.
    fn sample() -> Taxonomy {
        let mut t = Taxonomy::new(7, 0);
        t.add_edge(1, 0);
        t.add_edge(2, 1);
        t.add_edge(3, 1);
        t.add_edge(4, 3);
        t.add_edge(5, 0);
        t.add_edge(6, 5);
        t
    }

    #[test]
    fn subclass_probabilities_sum_at_root() {
        let t = sample();
        let ic = InformationContent::from_subclasses(&t);
        assert!((ic.probability(0) - 1.0).abs() < 1e-9);
        // Person subtree: Person, Student, Professor, FullProf = 4 of 7.
        assert!((ic.probability(1) - 4.0 / 7.0).abs() < 1e-9);
        assert!((ic.probability(6) - 1.0 / 7.0).abs() < 1e-9);
        // Monotone: ancestors are at least as probable.
        assert!(ic.probability(1) <= ic.probability(0));
        assert!(ic.probability(4) <= ic.probability(3));
    }

    #[test]
    fn root_ic_is_zero() {
        let t = sample();
        let ic = InformationContent::from_subclasses(&t);
        assert_eq!(ic.ic(0), 0.0);
        assert!(ic.ic(4) > ic.ic(3));
    }

    #[test]
    fn resnik_zero_across_root_positive_within() {
        let t = sample();
        let ic = InformationContent::from_subclasses(&t);
        // Student vs Bird subsume only at the root: IC 0.
        assert_eq!(resnik_similarity(&t, &ic, 2, 6), 0.0);
        // Student vs Professor share Person.
        let r = resnik_similarity(&t, &ic, 2, 3);
        assert!((r - (4.0f64 / 7.0).log2().abs()).abs() < 1e-9);
        // Self-similarity equals own IC (unnormalized!).
        assert!((resnik_similarity(&t, &ic, 4, 4) - ic.ic(4)).abs() < 1e-12);
        assert!(resnik_similarity(&t, &ic, 4, 4) > 1.0);
    }

    #[test]
    fn lin_bounds_and_identity() {
        let t = sample();
        let ic = InformationContent::from_subclasses(&t);
        assert_eq!(lin_similarity(&t, &ic, 4, 4), 1.0);
        assert_eq!(lin_similarity(&t, &ic, 2, 6), 0.0);
        let l = lin_similarity(&t, &ic, 2, 3);
        assert!(l > 0.0 && l < 1.0);
        assert_eq!(lin_similarity(&t, &ic, 0, 0), 1.0);
        assert_eq!(lin_similarity(&t, &ic, 0, 1), 0.0);
    }

    #[test]
    fn lin_prefers_closer_concepts() {
        let t = sample();
        let ic = InformationContent::from_subclasses(&t);
        let near = lin_similarity(&t, &ic, 3, 4); // Professor vs FullProf
        let far = lin_similarity(&t, &ic, 2, 4); // Student vs FullProf
        assert!(near > far);
    }

    #[test]
    fn instance_corpus_changes_probabilities() {
        let t = sample();
        // Heavy instance skew toward Bird.
        let ic = InformationContent::from_instances(&t, &[0, 0, 1, 1, 1, 0, 97]);
        assert!(ic.probability(6) > 0.9);
        assert!(ic.ic(6) < 0.2);
        // A rarely-instantiated concept is highly informative.
        assert!(ic.ic(2) > 5.0);
    }

    #[test]
    fn empty_instance_corpus_falls_back_to_subclasses() {
        let t = sample();
        let fallback = InformationContent::for_mode(&t, ProbabilityMode::InstanceCorpus, &[0; 7]);
        let subclass = InformationContent::from_subclasses(&t);
        for n in 0..7 {
            assert!((fallback.probability(n) - subclass.probability(n)).abs() < 1e-12);
        }
    }

    #[test]
    fn jiang_conrath_identity_and_ordering() {
        let t = sample();
        let ic = InformationContent::from_subclasses(&t);
        assert_eq!(jiang_conrath_similarity(&t, &ic, 3, 3), 1.0);
        let near = jiang_conrath_similarity(&t, &ic, 3, 4);
        let far = jiang_conrath_similarity(&t, &ic, 3, 6);
        assert!(near > far);
    }

    /// The ancestor walk of `from_counts` sums each slot in node order, as
    /// the full upward-distance tables did: the probabilities agree bit for
    /// bit, on a multi-parent taxonomy too.
    #[test]
    fn table_variants_are_bit_identical() {
        let mut diamond = sample();
        diamond.add_edge(4, 5);
        for t in [sample(), diamond] {
            let n = t.node_count();
            let counts: Vec<f64> = (0..n).map(|i| (i % 3) as f64 + 0.5).collect();
            let mut cumulative = vec![0.0; n];
            for node in 0..n as NodeId {
                for (anc, d) in t.up_distances(node).iter().enumerate() {
                    if d.is_some() {
                        cumulative[anc] += counts[node as usize];
                    }
                }
            }
            let total = cumulative[t.root() as usize];
            let ic = InformationContent::from_counts(&t, &counts);
            for (node, c) in cumulative.iter().enumerate() {
                let expected = (c / total).clamp(1e-12, 1.0);
                assert_eq!(ic.probability(node as NodeId).to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn compact_variants_are_bit_identical() {
        let t = sample();
        let ic = InformationContent::from_subclasses(&t);
        let lists: Vec<_> = (0..7).map(|n| t.ancestors(n)).collect();
        for a in 0..7 {
            for b in 0..7 {
                let (la, lb) = (&lists[a as usize], &lists[b as usize]);
                assert_eq!(
                    resnik_similarity_compact(&ic, la, lb).to_bits(),
                    resnik_similarity(&t, &ic, a, b).to_bits()
                );
                assert_eq!(
                    lin_similarity_compact(&ic, a, b, la, lb).to_bits(),
                    lin_similarity(&t, &ic, a, b).to_bits()
                );
                assert_eq!(
                    jiang_conrath_similarity_compact(&ic, a, b, la, lb).to_bits(),
                    jiang_conrath_similarity(&t, &ic, a, b).to_bits()
                );
            }
        }
    }

    #[test]
    fn measures_are_symmetric() {
        let t = sample();
        let ic = InformationContent::from_subclasses(&t);
        for (a, b) in [(2, 3), (2, 6), (0, 4)] {
            assert!(
                (resnik_similarity(&t, &ic, a, b) - resnik_similarity(&t, &ic, b, a)).abs() < 1e-12
            );
            assert!((lin_similarity(&t, &ic, a, b) - lin_similarity(&t, &ic, b, a)).abs() < 1e-12);
            assert!(
                (jiang_conrath_similarity(&t, &ic, a, b) - jiang_conrath_similarity(&t, &ic, b, a))
                    .abs()
                    < 1e-12
            );
        }
    }
}
