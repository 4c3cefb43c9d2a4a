//! The per-pair reference formulas of the built-in measures, as ordinary
//! user runners: test support for the identity suites and `matrix_bench`.
//!
//! Each runner recomputes its inputs from SOQA for every pair through the
//! [`SimilarityContext`] — the coupling of paper §3 (Fig. 4) in its most
//! direct form. The toolkit itself scores its built-in measures from the
//! resident concept table, one kernel each. [`register`] adds these
//! runners to a builder as `oracle_<name>`, at id [`oracle`]`(m)` for
//! built-in measure `m`, so a test can run any service under both ids and
//! compare the results bit for bit.
//!
//! The graph and information-content formulas walk the taxonomy with the
//! same `sst-simpack` kernels the table scorers use; those kernels are
//! checked against full-table scans in `kernel_differential`.
//!
//! [`NswOracle`] is the reference of the vector store's approximate path:
//! the NSW graph construction and the two-heap beam search as the store
//! ran them before its one-beam search. [`embed_tfidf_reference`] is the
//! reference of the toolkit's embedding kernel, `sst_core::embed_tfidf`.

use sst_core::{MeasureRunner, RunnerInfo, SimilarityContext, SstBuilder, EMBED_DIM};
use sst_index::TermId;
use sst_simpack::{
    dense_normalize, dense_unit_similarity, edge_similarity, jaro, jaro_winkler,
    jiang_conrath_similarity, levenshtein_similarity, lin_similarity, monge_elkan,
    needleman_wunsch_similarity, qgram, resnik_similarity, sequence_similarity,
    shortest_path_similarity, smith_waterman_similarity, tree_similarity,
    wu_palmer_similarity_rooted, AlignmentScoring, CostModel, CATALOG,
};
use sst_soqa::GlobalConcept;

use crate::SplitMix64;

mod nsw;

pub use nsw::NswOracle;

/// Number of built-in measures; the oracle of built-in `m` is registered
/// at `BUILTINS + m`.
pub const BUILTINS: usize = 20;

/// The measure id of the oracle of built-in measure `measure`, in a
/// toolkit built through [`register`] with no other runner before them.
pub fn oracle(measure: usize) -> usize {
    BUILTINS + measure
}

/// Registers the 20 oracle runners, in built-in id order.
pub fn register(builder: SstBuilder) -> SstBuilder {
    runners()
        .into_iter()
        .fold(builder, |b, runner| b.register_runner(runner))
}

/// Metadata of the oracle of built-in `measure`: the catalogue entry,
/// renamed `oracle_<name>`.
fn info(measure: usize) -> RunnerInfo {
    let mut info = RunnerInfo::from(&CATALOG[measure]);
    info.name = format!("oracle_{}", info.name);
    info
}

/// Gram size of the q-gram measure (padded trigrams).
const QGRAM_Q: usize = 3;

/// Seed of the per-term sign streams; the toolkit's projection uses the
/// same one.
const PROJECTION_SEED: u64 = 0x5353_5456_4543_5631; // "SSTVEC1" as bytes

/// Increment of the SplitMix64 state, which also spreads each term id
/// into its stream's seed.
const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The signed random projection of `sst_core::embed_tfidf` in its plain
/// form: each term's SplitMix64 stream, seeded from its id, is read one
/// bit per component, and the component adds `weight · ±1.0`; the sum is
/// then normalized to unit length. The toolkit's kernel must match it bit
/// for bit.
pub fn embed_tfidf_reference(tfidf: &[(TermId, f64)], dim: usize) -> Vec<f64> {
    let mut acc = vec![0.0; dim];
    for &(term, weight) in tfidf {
        let mut stream = SplitMix64::seed_from_u64(
            u64::from(term.0).wrapping_mul(SPLITMIX_GAMMA) ^ PROJECTION_SEED,
        );
        let mut bits = 0u64;
        let mut left = 0u32;
        for slot in acc.iter_mut() {
            if left == 0 {
                bits = stream.next_u64();
                left = 64;
            }
            let sign = if bits & 1 == 1 { 1.0 } else { -1.0 };
            bits >>= 1;
            left -= 1;
            *slot += weight * sign;
        }
    }
    dense_normalize(&mut acc);
    acc
}

/// The concept's dense embedding: its TF-IDF document vector under the
/// deterministic signed random projection, computed by
/// [`embed_tfidf_reference`] (the toolkit's vector stage runs its own
/// kernel at build time).
fn dense_embedding(ctx: &SimilarityContext<'_>, gc: GlobalConcept) -> Vec<f64> {
    let tfidf = ctx.doc_ids[ctx.tree.node(gc) as usize]
        .map(|d| ctx.index.tfidf_vector(d))
        .unwrap_or_default();
    embed_tfidf_reference(&tfidf, EMBED_DIM)
}

macro_rules! oracle {
    ($(#[$doc:meta])* $ty:ident, $measure:expr, |$ctx:ident, $a:ident, $b:ident| $body:expr) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy)]
        struct $ty;

        impl MeasureRunner for $ty {
            fn info(&self) -> RunnerInfo {
                info($measure)
            }

            fn similarity(
                &self,
                $ctx: &SimilarityContext<'_>,
                $a: GlobalConcept,
                $b: GlobalConcept,
            ) -> f64 {
                $body
            }
        }
    };
}

oracle!(
    /// Cosine over feature sets (Eq. 1).
    CosineRunner, 0,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::cosine(&ctx.feature_set(a), &ctx.feature_set(b))
    }
);
oracle!(
    /// Extended Jaccard over feature sets (Eq. 2).
    JaccardRunner, 1,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::jaccard(&ctx.feature_set(a), &ctx.feature_set(b))
    }
);
oracle!(
    /// Overlap over feature sets (Eq. 3).
    OverlapRunner, 2,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::overlap(&ctx.feature_set(a), &ctx.feature_set(b))
    }
);
oracle!(
    /// Dice over feature sets (extension).
    DiceRunner, 3,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::dice(&ctx.feature_set(a), &ctx.feature_set(b))
    }
);
oracle!(
    /// Normalized token-sequence edit distance over M₂ sequences (Eq. 4),
    /// on the weighted DP with unit costs.
    LevenshteinRunner, 4,
    |ctx, a, b| {
        let x = ctx.token_sequence(a);
        let y = ctx.token_sequence(b);
        sequence_similarity(&x, &y, CostModel::UNIT)
    }
);
oracle!(
    /// Jaro on concept names (SecondString extension).
    JaroRunner, 5,
    |ctx, a, b| jaro(ctx.name(a), ctx.name(b))
);
oracle!(
    /// Jaro-Winkler on concept names (SecondString extension).
    JaroWinklerRunner, 6,
    |ctx, a, b| jaro_winkler(ctx.name(a), ctx.name(b))
);
oracle!(
    /// Padded trigram Dice on concept names (SimMetrics extension), on the
    /// tree-set gram profiles.
    QGramRunner, 7,
    |ctx, a, b| qgram(ctx.name(a), ctx.name(b), QGRAM_Q)
);
oracle!(
    /// Monge-Elkan over name tokens with Levenshtein inner similarity,
    /// symmetrized by averaging both directions.
    MongeElkanRunner, 8,
    |ctx, a, b| {
        let ta = sst_index::tokenize(ctx.name(a));
        let tb = sst_index::tokenize(ctx.name(b));
        let ra: Vec<&str> = ta.iter().map(String::as_str).collect();
        let rb: Vec<&str> = tb.iter().map(String::as_str).collect();
        let ab = monge_elkan(&ra, &rb, levenshtein_similarity);
        let ba = monge_elkan(&rb, &ra, levenshtein_similarity);
        (ab + ba) / 2.0
    }
);
oracle!(
    /// `1 / (1 + len)` over the undirected shortest path in the unified
    /// tree.
    ShortestPathRunner, 9,
    |ctx, a, b| {
        shortest_path_similarity(ctx.tree.taxonomy(), ctx.tree.node(a), ctx.tree.node(b))
    }
);
oracle!(
    /// Normalized edge counting (Eq. 5).
    EdgeRunner, 10,
    |ctx, a, b| edge_similarity(ctx.tree.taxonomy(), ctx.tree.node(a), ctx.tree.node(b))
);
oracle!(
    /// Wu & Palmer conceptual similarity (Eq. 6) — the paper's "Conceptual
    /// Similarity" column. Uses the rooted (node-counted depth) convention
    /// so cross-ontology pairs keep a small nonzero score, as in Table 1.
    WuPalmerRunner, 11,
    |ctx, a, b| {
        wu_palmer_similarity_rooted(ctx.tree.taxonomy(), ctx.tree.node(a), ctx.tree.node(b))
    }
);
oracle!(
    /// Resnik information content similarity (Eq. 7) — **unnormalized**,
    /// reported in bits.
    ResnikRunner, 12,
    |ctx, a, b| {
        resnik_similarity(ctx.tree.taxonomy(), ctx.ic, ctx.tree.node(a), ctx.tree.node(b))
    }
);
oracle!(
    /// Lin similarity (Eq. 8).
    LinRunner, 13,
    |ctx, a, b| {
        lin_similarity(ctx.tree.taxonomy(), ctx.ic, ctx.tree.node(a), ctx.tree.node(b))
    }
);
oracle!(
    /// Jiang-Conrath similarity (IC extension).
    JiangConrathRunner, 14,
    |ctx, a, b| {
        jiang_conrath_similarity(ctx.tree.taxonomy(), ctx.ic, ctx.tree.node(a), ctx.tree.node(b))
    }
);
oracle!(
    /// TF-IDF cosine over the concepts' exported full-text descriptions —
    /// the paper's Lucene-backed measure.
    TfidfRunner, 15,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for undescribed concepts
        }
        let (Some(da), Some(db)) = (
            ctx.doc_ids[ctx.tree.node(a) as usize],
            ctx.doc_ids[ctx.tree.node(b) as usize],
        ) else {
            return 0.0;
        };
        ctx.index.cosine(da, db)
    }
);
oracle!(
    /// Zhang-Shasha tree edit similarity of the concepts' subtrees
    /// (depth-limited to 2) — the future-work tree measure.
    TreeEditRunner, 16,
    |ctx, a, b| tree_similarity(&ctx.subtree(a, 2), &ctx.subtree(b, 2))
);
oracle!(
    /// Needleman-Wunsch global alignment of the M₂ token sequences
    /// (SimPack's alignment-based sequence measure).
    NeedlemanWunschRunner, 17,
    |ctx, a, b| {
        let x = ctx.token_sequence(a);
        let y = ctx.token_sequence(b);
        needleman_wunsch_similarity(&x, &y, AlignmentScoring::default())
    }
);
oracle!(
    /// Smith-Waterman local alignment of the M₂ token sequences: scores the
    /// best-matching shared *subpath* (e.g. a common taxonomy fragment).
    SmithWatermanRunner, 18,
    |ctx, a, b| {
        let x = ctx.token_sequence(a);
        let y = ctx.token_sequence(b);
        smith_waterman_similarity(&x, &y, AlignmentScoring::default())
    }
);
oracle!(
    /// Shifted unit cosine over dense concept embeddings, re-embedded per
    /// pair.
    DenseVectorRunner, 19,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for undescribed concepts
        }
        dense_unit_similarity(&dense_embedding(ctx, a), &dense_embedding(ctx, b))
    }
);

/// The oracle runners, in built-in id order.
fn runners() -> Vec<Box<dyn MeasureRunner>> {
    vec![
        Box::new(CosineRunner),
        Box::new(JaccardRunner),
        Box::new(OverlapRunner),
        Box::new(DiceRunner),
        Box::new(LevenshteinRunner),
        Box::new(JaroRunner),
        Box::new(JaroWinklerRunner),
        Box::new(QGramRunner),
        Box::new(MongeElkanRunner),
        Box::new(ShortestPathRunner),
        Box::new(EdgeRunner),
        Box::new(WuPalmerRunner),
        Box::new(ResnikRunner),
        Box::new(LinRunner),
        Box::new(JiangConrathRunner),
        Box::new(TfidfRunner),
        Box::new(TreeEditRunner),
        Box::new(NeedlemanWunschRunner),
        Box::new(SmithWatermanRunner),
        Box::new(DenseVectorRunner),
    ]
}
