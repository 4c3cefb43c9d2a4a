//! # sst-bench — experiment harness for the SST reproduction
//!
//! Provides the evaluation corpus loader ([`corpus`]), the synthetic
//! workload generators ([`workload`]), the per-pair reference runners the
//! identity suites compare the toolkit against ([`oracle`]), and hosts the
//! experiment binaries
//! (`table1`, `figure5`, `figure3`, `gen_ontologies`) plus the in-repo
//! harness benches ([`harness`]). See DESIGN.md §2 for the experiment index.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod eval;
pub mod faults;
pub mod harness;
pub mod oracle;
pub mod rng;
pub mod sealed;
pub mod workload;

pub use corpus::{corpus_builder, data_dir, load_corpus, names, PAPER_CONCEPT_COUNT};
pub use eval::{evaluate_measures, perturb, render_results, EvalResult, Perturbation};
pub use faults::{
    binary_mutants, build_corpus, run_binary_suite, run_fault_suite, BinaryCase, BinaryFormat,
    FaultCase, FaultReport, Format,
};
pub use rng::SplitMix64;
pub use workload::{generate_sumo_owl, generate_taxonomy, TaxonomySpec};
