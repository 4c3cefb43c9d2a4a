//! # sst-core — the SOQA-SimPack Toolkit (SST)
//!
//! Rust reimplementation of the toolkit from *Detecting Similarities in
//! Ontologies with the SOQA-SimPack Toolkit* (Ziegler, Kiefer, Sturm,
//! Dittrich, Bernstein — EDBT 2006): an ontology-language-independent API
//! for generic similarity detection and visualization in ontologies.
//!
//! SST couples **SOQA** (`sst-soqa`, unified access to OWL / DAML /
//! PowerLoom / WordNet ontologies via `sst-wrappers`) with **SimPack**
//! (`sst-simpack`, the similarity-measure library): all registered
//! ontologies are incorporated into a single tree under a synthetic
//! *Super Thing* root, and `MeasureRunner`s feed SOQA data into SimPack
//! measures.
//!
//! ```
//! use sst_core::{measure_ids, ConceptSet, SstBuilder};
//! use sst_soqa::{OntologyBuilder, OntologyMetadata};
//!
//! // Normally ontologies come from sst-wrappers parsers; build one by hand:
//! let mut b = OntologyBuilder::new(OntologyMetadata {
//!     name: "uni".into(), language: "Test".into(), ..Default::default()
//! });
//! let thing = b.concept("Thing");
//! let person = b.concept("Person");
//! let student = b.concept("Student");
//! b.add_subclass(person, thing);
//! b.add_subclass(student, person);
//!
//! let sst = SstBuilder::new().register_ontology(b.build()).unwrap().build();
//! let sim = sst.get_similarity("Student", "uni", "Person", "uni",
//!                              measure_ids::CONCEPTUAL_SIMILARITY_MEASURE).unwrap();
//! assert!(sim > 0.0 && sim < 1.0);
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod alignment;
pub mod cache;
pub mod chart;
pub mod clustering;
pub mod error;
pub mod export;
pub mod facade;
pub mod heatmap;
mod lru;
pub mod runner;
pub mod sched;
pub mod snapshot;
pub mod tree;
pub mod vector;

pub use alignment::{
    align, align_with_limits, AlignStats, Alignment, AlignmentConfig, CandidateGen, Correspondence,
    MatchMode, DEFAULT_BLOCK_WIDTH,
};
pub use cache::CachedSimilarity;
pub use chart::{Bar, Chart, GnuplotArtifacts};
pub use clustering::{cluster, cluster_matrix, Dendrogram, Linkage};
pub use error::{Result, SstError};
pub use export::{
    alignment_to_csv, alignment_to_json, matrix_to_csv, ranking_to_csv, ranking_to_json,
};
pub use facade::{
    measure_ids, BatchMode, ConceptAndSimilarity, ConceptRef, ConceptSet, ProbabilityModeConfig,
    SstBuilder, SstConfig, SstToolkit,
};
pub use heatmap::Heatmap;
pub use runner::{
    ConceptTable, ConceptView, MeasureRunner, PreparedMeasure, RunnerInfo, SimilarityContext,
    TokenId,
};
pub use sched::{
    default_workers, rect_tiles, run_tiles, tile_size, triangle_tiles, SchedStats, Tile,
    WorkerStats,
};
pub use snapshot::{SnapshotFile, SnapshotFormatError, SNAPSHOT_MAGIC};
pub use sst_obs::{Metrics, MetricsSnapshot};
pub use sst_simpack::Amalgamation;
pub use tree::{TreeMode, UnifiedTree, SUPER_THING};
pub use vector::{
    embed_tfidf, DenseVectorFile, VectorFormatError, VectorStore, EMBED_DIM, FORMAT_MAGIC,
};
