//! # sst-index — full-text substrate for the TFIDF measure
//!
//! The paper indexes textual concept descriptions with Apache Lucene and
//! compares them with a TF-IDF scheme. This crate is that substrate rebuilt
//! in Rust: a tokenizer that understands ontology identifiers (CamelCase,
//! `owl:Thing`), a stopword filter, the full Porter stemmer, and an inverted
//! index with TF-IDF weighting and top-k cosine search.
//!
//! ```
//! use sst_index::IndexBuilder;
//!
//! let mut builder = IndexBuilder::new();
//! let prof = builder.add_document("Professor", "A professor teaches university courses");
//! let student = builder.add_document("Student", "A student attends university courses");
//! let index = builder.build();
//! let sim = index.cosine(prof, student);
//! assert!(sim > 0.0 && sim < 1.0);
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bm25;
pub mod index;
pub mod porter;
pub mod tokenizer;

pub use bm25::{Bm25, Bm25Params};
pub use index::{
    cosine_sparse, DocId, IndexBuilder, IndexPartsError, InvertedIndex, Posting, TermId,
};
pub use porter::stem;
pub use sst_limits::{LimitKind, LimitViolation, Limits};
pub use tokenizer::{analyze, is_stopword, tokenize, STOPWORDS};
