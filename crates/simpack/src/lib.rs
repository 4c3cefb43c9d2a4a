//! # sst-simpack — the SimPack similarity-measure library in Rust
//!
//! SimPack (Bernstein et al. 2005) is the generic similarity library the
//! SOQA-SimPack Toolkit builds on. This crate reimplements its measure
//! families over abstract inputs, so it has no dependency on SOQA — the
//! toolkit's `SOQAWrapper for SimPack` equivalent lives in `sst-core` and
//! feeds ontology data into these functions:
//!
//! * [`vector`] — cosine, extended Jaccard, overlap, Dice over feature sets
//!   (paper Eq. 1–3).
//! * [`dense`] — fixed-dimension embedding kernels (dot, norms, shifted
//!   unit cosine) shared by the toolkit's exact and approximate top-k
//!   retrieval paths.
//! * [`string`] — character-level Levenshtein plus the announced
//!   SecondString/SimMetrics extensions (Jaro, Jaro-Winkler, q-gram,
//!   Monge-Elkan).
//! * [`sequence`] — token-sequence edit distance with a validated cost
//!   model and worst-case normalization (Eq. 4).
//! * [`graph`] — shortest-path, normalized edge counting (Eq. 5), and
//!   Wu-Palmer conceptual similarity (Eq. 6) over specialization DAGs.
//! * [`ic`] — Resnik (Eq. 7), Lin (Eq. 8), and Jiang-Conrath over
//!   instance-corpus or subclass-count probabilities.
//! * [`tree`] — Zhang-Shasha tree edit distance (the paper's future-work
//!   "measures for trees").
//! * [`measure`] — the measure catalogue with normalization metadata.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod align;
pub mod combine;
pub mod dense;
pub mod graph;
pub mod ic;
pub mod measure;
pub mod myers;
pub mod sequence;
pub mod string;
pub mod tree;
pub mod vector;

pub use align::{
    needleman_wunsch, needleman_wunsch_similarity, smith_waterman, smith_waterman_similarity,
    AlignmentScoring,
};
pub use combine::{Amalgamation, Combiner};
pub use dense::{dense_dot, dense_is_zero, dense_normalize, dense_unit_similarity};
pub use graph::{
    edge_similarity, edge_similarity_compact, shortest_path_length_similarity,
    shortest_path_similarity, wu_palmer_similarity, wu_palmer_similarity_rooted,
    wu_palmer_similarity_rooted_compact, AncestorList, DepthTable, NodeId, Taxonomy,
};
pub use ic::{
    jiang_conrath_similarity, jiang_conrath_similarity_compact, lin_similarity,
    lin_similarity_compact, resnik_similarity, resnik_similarity_compact, InformationContent,
    ProbabilityMode,
};
pub use measure::{descriptor, MeasureDescriptor, MeasureKind, CATALOG};
pub use myers::{
    levenshtein_similarity_table, myers_sequence_similarity_from, myers_similarity_chars_from,
    MyersPattern,
};
pub use sequence::{sequence_similarity, xform, xform_worst_case, CostModel};
pub use string::{
    jaro, jaro_fast, jaro_winkler, jaro_winkler_fast, levenshtein_distance, levenshtein_similarity,
    monge_elkan, qgram, qgram_packed_from, JaroMask, QGramPacked,
};
pub use tree::{tree_edit_distance, tree_similarity, tree_similarity_zs, LabeledTree, ZsTree};
pub use vector::{
    cosine, cosine_from_counts, dice, dice_from_counts, features, jaccard, jaccard_from_counts,
    overlap, overlap_from_counts, FeatureSet, InternedFeatures,
};
