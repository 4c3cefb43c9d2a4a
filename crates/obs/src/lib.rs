//! # sst-obs — observability for the SOQA-SimPack Toolkit
//!
//! A dependency-free metrics layer: atomic counters, gauges, and
//! fixed-bucket latency histograms behind a **global-free** registry
//! ([`Metrics`]), plus lightweight RAII timing spans ([`Span`]) and text /
//! JSON exposition ([`MetricsSnapshot`]).
//!
//! The paper's evaluation (§4, Table 1) is a per-measure timing table;
//! this crate is what lets the toolkit produce that table from live
//! counters instead of ad-hoc stopwatches.
//!
//! ## Design
//!
//! * **Global-free.** There is no `static` registry. A [`Metrics`] handle
//!   is a cheap [`Arc`](std::sync::Arc) clone; every subsystem is handed
//!   one explicitly (the [`SstToolkit`-style facade] owns the root handle
//!   and threads it down). Tests get isolated registries for free.
//! * **Lock-free on the hot path.** Registration (name → handle lookup)
//!   takes a read lock once; recording is pure `AtomicU64` traffic on the
//!   returned handle. Callers on per-pair hot loops resolve their handles
//!   once and increment thereafter.
//! * **Panic-free.** No `unwrap`/`panic!` in library paths (repo lint
//!   policy); poisoned registry locks are recovered, not propagated.
//!
//! ## Naming scheme
//!
//! Metric names are dot-separated: `<crate>.<component>.<metric>` with an
//! optional trailing label segment, e.g. `core.pair.latency.lin` (the
//! pairwise latency histogram of the `lin` measure) or `core.cache.hits`.
//!
//! ```
//! use sst_obs::Metrics;
//!
//! let metrics = Metrics::new();
//! metrics.inc("rdf.turtle.documents");
//! metrics.add("rdf.turtle.triples", 42);
//! {
//!     let _span = metrics.span("rdf.turtle.parse.latency");
//!     // … work to time …
//! }
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("rdf.turtle.triples"), Some(42));
//! assert!(snap.to_json().contains("rdf.turtle.parse.latency"));
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod catalog;
mod expose;
mod histogram;
mod registry;

pub use expose::{HistogramSnapshot, MetricsSnapshot};
pub use histogram::{Histogram, DEFAULT_LATENCY_BOUNDS};
pub use registry::{Counter, Gauge, Metrics, Span};
