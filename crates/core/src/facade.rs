//! The SOQA-SimPack Toolkit Facade (paper §3, Fig. 4): the single access
//! point for ontology-language-independent similarity services.
//!
//! The paper's method signatures map as follows:
//!
//! * (S1) `getSimilarity(c1, o1, c2, o2, measure)` →
//!   [`SstToolkit::get_similarity`]
//! * (S2) `getMostSimilarConcepts(c, o, subtreeRoot, subtreeOnto, k, m)` →
//!   [`SstToolkit::most_similar`] with [`ConceptSet::Subtree`]
//! * (S3) `getSimilarityPlot(c1, o1, c2, o2, measures)` →
//!   [`SstToolkit::similarity_plot`]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sst_index::{DocId, IndexBuilder, InvertedIndex};
use sst_obs::{Counter, Histogram, Metrics};
use sst_simpack::{InformationContent, ProbabilityMode};
use sst_soqa::ql::ResultTable;
use sst_soqa::{GlobalConcept, Ontology, Soqa};

use crate::chart::Chart;
use crate::error::{Result, SstError};
use crate::runner::{
    default_runners, ConceptTable, DenseRow, MeasureRunner, PreparedMeasure, RunnerInfo,
    SimilarityContext,
};
use crate::sched;
use crate::tree::{TreeMode, UnifiedTree};
use crate::vector::{embed_tfidf, DenseVectorFile, VectorStore, EMBED_DIM};

/// Paper-style integer constants for the default measures, e.g.
/// `measure_ids::LIN_MEASURE` (the Java API's
/// `SOQASimPackToolkitFacade.LIN_MEASURE`). Values are indices into the
/// default runner registry.
pub mod measure_ids {
    pub const COSINE_MEASURE: usize = 0;
    pub const JACCARD_MEASURE: usize = 1;
    pub const OVERLAP_MEASURE: usize = 2;
    pub const DICE_MEASURE: usize = 3;
    pub const LEVENSHTEIN_MEASURE: usize = 4;
    pub const JARO_MEASURE: usize = 5;
    pub const JARO_WINKLER_MEASURE: usize = 6;
    pub const QGRAM_MEASURE: usize = 7;
    pub const MONGE_ELKAN_MEASURE: usize = 8;
    pub const SHORTEST_PATH_MEASURE: usize = 9;
    pub const EDGE_MEASURE: usize = 10;
    pub const CONCEPTUAL_SIMILARITY_MEASURE: usize = 11;
    pub const RESNIK_MEASURE: usize = 12;
    pub const LIN_MEASURE: usize = 13;
    pub const JIANG_CONRATH_MEASURE: usize = 14;
    pub const TFIDF_MEASURE: usize = 15;
    pub const TREE_EDIT_MEASURE: usize = 16;
    pub const NEEDLEMAN_WUNSCH_MEASURE: usize = 17;
    pub const SMITH_WATERMAN_MEASURE: usize = 18;
    pub const DENSE_VECTOR_MEASURE: usize = 19;
}

/// User-facing concept address: `(concept name, ontology name)` — the
/// two-string addressing the paper requires because names are not unique in
/// the single ontology tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConceptRef {
    pub concept: String,
    pub ontology: String,
}

impl ConceptRef {
    pub fn new(concept: impl Into<String>, ontology: impl Into<String>) -> Self {
        ConceptRef {
            concept: concept.into(),
            ontology: ontology.into(),
        }
    }
}

/// The concept sets SST services accept: a freely composed list, all
/// concepts of an ontology taxonomy (sub)tree, or every registered concept.
#[derive(Debug, Clone, PartialEq)]
pub enum ConceptSet {
    /// A freely composed list of concepts.
    List(Vec<ConceptRef>),
    /// All concepts in the subtree rooted at the given concept.
    Subtree(ConceptRef),
    /// Every concept of every registered ontology (the whole tree under
    /// Super Thing).
    All,
}

/// One result row of the set-based services (paper: `ConceptAndSimilarity`).
#[derive(Debug, Clone, PartialEq)]
pub struct ConceptAndSimilarity {
    pub concept: String,
    pub ontology: String,
    pub similarity: f64,
}

/// Which execution path the matrix services take.
///
/// Both paths are bit-identical on all default measures; `Naive` is kept as
/// the reference implementation for regression benchmarks and property
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Score from the toolkit's resident concept table (the default).
    #[default]
    Prepared,
    /// Per-pair path: every runner call rederives its inputs.
    Naive,
}

/// Member-set size from which the rank scan ([`SstToolkit::similarity_to_set`])
/// fans out over the work-stealing scheduler instead of scoring serially.
const RANK_PARALLEL_THRESHOLD: usize = 256;

/// One measure's pair scorer for a service call, addressed by concept
/// table row: the runner's scorer over the resident [`ConceptTable`], or
/// the per-pair runner call for runners without one.
pub(crate) enum PairScorer<'t> {
    Table(Box<dyn PreparedMeasure + 't>),
    Naive {
        runner: &'t dyn MeasureRunner,
        ctx: SimilarityContext<'t>,
        table: &'t ConceptTable,
    },
}

impl PairScorer<'_> {
    /// Similarity of the concepts at table rows `a` and `b`.
    pub(crate) fn score(&self, a: usize, b: usize) -> f64 {
        match self {
            PairScorer::Table(m) => m.similarity(a, b),
            PairScorer::Naive { runner, ctx, table } => {
                runner.similarity(ctx, table.view(a).concept, table.view(b).concept)
            }
        }
    }
}

/// The shared tiebreak of every k-best ranking: the qualified
/// `(ontology, concept)` name in ascending lexicographic order. Qualified
/// names are unique, so any comparator ending in this tiebreak is a
/// strict total order — equal-score truncation at `k` returns the same
/// entries no matter what order the scores were produced in.
fn rank_tiebreak(x: &ConceptAndSimilarity, y: &ConceptAndSimilarity) -> std::cmp::Ordering {
    (&x.ontology, &x.concept).cmp(&(&y.ontology, &y.concept))
}

/// Shared descending rank order for k-best results: IEEE 754 `total_cmp`
/// on the similarity (NaN ranks first), then [`rank_tiebreak`]. Every
/// descending rank entry point — direct, multi-measure, combined, cached,
/// and the exact/approximate vector paths — sorts with this, so a NaN
/// score from a user-registered runner ranks identically whether or not
/// the pair was memoized, and exact/approx parity is assertable entry by
/// entry.
pub(crate) fn rank_descending(
    x: &ConceptAndSimilarity,
    y: &ConceptAndSimilarity,
) -> std::cmp::Ordering {
    y.similarity
        .total_cmp(&x.similarity)
        .then_with(|| rank_tiebreak(x, y))
}

/// Shared ascending rank order — the `most_dissimilar` counterpart of
/// [`rank_descending`]. The score order flips; the name tiebreak does
/// not, so the two orders stay mirror images on distinct scores and
/// agree on tied ones.
pub(crate) fn rank_ascending(
    x: &ConceptAndSimilarity,
    y: &ConceptAndSimilarity,
) -> std::cmp::Ordering {
    x.similarity
        .total_cmp(&y.similarity)
        .then_with(|| rank_tiebreak(x, y))
}

/// Configuration knobs for toolkit construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SstConfig {
    pub tree_mode: TreeMode,
    pub probability_mode: ProbabilityModeConfig,
}

/// IC probability source selection (defaults to the paper's recommendation:
/// instance corpus with automatic fallback to subclass counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbabilityModeConfig {
    #[default]
    InstanceCorpusWithFallback,
    SubclassCount,
}

/// Builder assembling a toolkit from wrapper-produced ontologies.
#[derive(Debug, Default)]
pub struct SstBuilder {
    soqa: Soqa,
    config: SstConfig,
    extra_runners: Vec<Box<dyn MeasureRunner>>,
}

impl SstBuilder {
    pub fn new() -> Self {
        SstBuilder::default()
    }

    /// Registers an ontology (from any `sst-wrappers` parser).
    pub fn register_ontology(mut self, ontology: Ontology) -> Result<Self> {
        self.soqa.register(ontology)?;
        Ok(self)
    }

    /// Selects the tree-join mode (default: Super Thing).
    pub fn tree_mode(mut self, mode: TreeMode) -> Self {
        self.config.tree_mode = mode;
        self
    }

    /// Selects the IC probability source.
    pub fn probability_mode(mut self, mode: ProbabilityModeConfig) -> Self {
        self.config.probability_mode = mode;
        self
    }

    /// Registers an additional [`MeasureRunner`] — the paper's extension
    /// point for new or combined measures.
    pub fn register_runner(mut self, runner: Box<dyn MeasureRunner>) -> Self {
        self.extra_runners.push(runner);
        self
    }

    /// Freezes the toolkit: builds the unified tree, the information
    /// content, the full-text index, the vector store, and the resident
    /// concept table every built-in measure scores from.
    pub fn build(self) -> SstToolkit {
        let metrics = Metrics::new();
        let _build_span = metrics.span("core.build.latency");
        let tree = UnifiedTree::build(&self.soqa, self.config.tree_mode);

        // Instance counts per tree node for the IC corpus.
        let mut instance_counts = vec![0usize; tree.node_count()];
        for gc in tree.all_concepts() {
            instance_counts[tree.node(gc) as usize] = self.soqa.concept(gc).instances.len();
        }
        let mode = match self.config.probability_mode {
            ProbabilityModeConfig::InstanceCorpusWithFallback => ProbabilityMode::InstanceCorpus,
            ProbabilityModeConfig::SubclassCount => ProbabilityMode::SubclassCount,
        };
        let ic = InformationContent::for_mode(tree.taxonomy(), mode, &instance_counts);

        // Full-text index: one document per concept (paper §2.2: "we
        // exported a full-text description of all concepts … and built an
        // index over the descriptions"). The key carries the unified tree
        // node id: display names are not unique within an ontology, and
        // the builder would hand back the first document's id for a
        // colliding key, silently aliasing distinct concepts onto one
        // TF-IDF vector.
        let mut index_builder = IndexBuilder::with_metrics(metrics.clone());
        let mut doc_ids: Vec<Option<DocId>> = vec![None; tree.node_count()];
        for gc in tree.all_concepts() {
            let key = format!("{}#{}", self.soqa.qualified_name(gc), tree.node(gc));
            let text = self.soqa.concept_description(gc);
            doc_ids[tree.node(gc) as usize] = Some(index_builder.add_document(key, &text));
        }
        let index = index_builder.build();

        // Dense retrieval: embed every registered concept's TF-IDF vector
        // and build the vector store (plus its proximity graph) over the
        // concepts that own a tree node. The embeddings are the same bits
        // the `dense_vector` runner derives per pair, so exact store
        // rankings are bit-identical to the naive scan.
        let concepts = self.soqa.all_concepts();
        let (vectors, dense) = {
            let _vspan = metrics.span("core.vector.build.latency");
            let dense: Vec<DenseRow> = concepts
                .iter()
                .map(|&gc| {
                    let tfidf = doc_ids[tree.node(gc) as usize]
                        .map(|d| index.tfidf_vector(d))
                        .unwrap_or_default();
                    let embedding = embed_tfidf(&tfidf, EMBED_DIM);
                    (tfidf, embedding)
                })
                .collect();
            let rows = concepts
                .iter()
                .zip(&dense)
                .filter(|(&gc, _)| tree.concept(tree.node(gc)) == Some(gc))
                .map(|(&gc, (_, e))| (gc, self.soqa.qualified_name(gc), e.clone()))
                .collect();
            (VectorStore::from_rows(rows, EMBED_DIM), dense)
        };
        metrics.add("core.vector.concepts", vectors.len() as u64);

        // Every per-concept artifact the built-in measures read, derived
        // once here instead of per service call; the TF-IDF vectors and
        // embeddings move in from the vector stage.
        let table = {
            let _prepare_span = metrics.span("core.prepare.latency");
            let ctx = SimilarityContext {
                soqa: &self.soqa,
                tree: &tree,
                ic: &ic,
                index: &index,
                doc_ids: &doc_ids,
            };
            ConceptTable::build(ctx, dense)
        };
        metrics.add("core.prepare.concepts", table.len() as u64);

        let mut runners = default_runners();
        runners.extend(self.extra_runners);
        let measure_names = runners
            .iter()
            .enumerate()
            .map(|(i, r)| (r.info().name, i))
            .collect();
        let measure_metrics = runners
            .iter()
            .map(|r| MeasureMetrics::register(&metrics, &r.info().name))
            .collect();

        SstToolkit {
            soqa: self.soqa,
            config: self.config,
            tree,
            ic,
            index,
            doc_ids,
            vectors,
            table,
            runners,
            measure_names,
            measure_metrics,
            metrics,
            last_sched: std::sync::Mutex::new(None),
        }
    }
}

/// Pre-resolved metric handles for one registered measure, so hot loops
/// record with pure atomic traffic instead of per-call name lookups.
#[derive(Debug)]
struct MeasureMetrics {
    /// `core.pair.calls.<measure>` — pairwise runner invocations.
    pair_calls: Arc<Counter>,
    /// `core.pair.latency.<measure>` — per-invocation latency (recorded on
    /// the pairwise and ranking paths; matrix paths count pairs only).
    pair_latency: Arc<Histogram>,
    /// `core.rank.calls.<measure>` / `core.rank.latency.<measure>` —
    /// whole-operation stats of the k-best services.
    rank_calls: Arc<Counter>,
    rank_latency: Arc<Histogram>,
    /// `core.matrix.calls.<measure>` / `core.matrix.latency.<measure>` —
    /// whole-operation stats of the similarity-matrix services.
    matrix_calls: Arc<Counter>,
    matrix_latency: Arc<Histogram>,
}

/// Which whole-operation metric family a facade service records into.
#[derive(Debug, Clone, Copy)]
enum MeasureOp {
    /// The k-best services (`most_similar`, `most_dissimilar`, combined).
    Rank,
    /// The similarity-matrix services (serial and parallel).
    Matrix,
}

impl MeasureMetrics {
    fn register(metrics: &Metrics, measure: &str) -> MeasureMetrics {
        MeasureMetrics {
            pair_calls: metrics.counter(&format!("core.pair.calls.{measure}")),
            pair_latency: metrics.histogram(&format!("core.pair.latency.{measure}")),
            rank_calls: metrics.counter(&format!("core.rank.calls.{measure}")),
            rank_latency: metrics.histogram(&format!("core.rank.latency.{measure}")),
            matrix_calls: metrics.counter(&format!("core.matrix.calls.{measure}")),
            matrix_latency: metrics.histogram(&format!("core.matrix.latency.{measure}")),
        }
    }
}

/// The toolkit facade.
#[derive(Debug)]
pub struct SstToolkit {
    soqa: Soqa,
    /// The configuration the toolkit was built with, persisted into
    /// snapshots so an import rebuilds under identical settings.
    config: SstConfig,
    tree: UnifiedTree,
    ic: InformationContent,
    index: InvertedIndex,
    doc_ids: Vec<Option<DocId>>,
    vectors: VectorStore,
    /// One row of prepared artifacts per registered concept.
    table: ConceptTable,
    runners: Vec<Box<dyn MeasureRunner>>,
    measure_names: HashMap<String, usize>,
    measure_metrics: Vec<MeasureMetrics>,
    metrics: Metrics,
    /// Stats of the most recent work-stealing scheduler run (bench and
    /// diagnostics introspection; see [`SstToolkit::last_sched_stats`]).
    last_sched: std::sync::Mutex<Option<sched::SchedStats>>,
}

impl SstToolkit {
    /// The underlying SOQA facade (for browsing, SOQA-QL, metadata).
    pub fn soqa(&self) -> &Soqa {
        &self.soqa
    }

    /// The unified ontology tree.
    pub fn tree(&self) -> &UnifiedTree {
        &self.tree
    }

    /// The configuration the toolkit was built with.
    pub fn config(&self) -> SstConfig {
        self.config
    }

    /// The toolkit's metrics registry. Cloning the returned handle shares
    /// the registry (see `sst_obs::Metrics`), so services built on top of
    /// the toolkit can record into the same report.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// JSON export of every metric the toolkit has recorded: per-measure
    /// call counts and latency histograms, cache hit/miss counters, index
    /// and query-engine throughput.
    pub fn metrics_report(&self) -> String {
        self.metrics.to_json()
    }

    pub(crate) fn ctx(&self) -> SimilarityContext<'_> {
        SimilarityContext {
            soqa: &self.soqa,
            tree: &self.tree,
            ic: &self.ic,
            index: &self.index,
            doc_ids: &self.doc_ids,
        }
    }

    // ---- Measure registry ------------------------------------------------

    /// Metadata of all registered measures, in id order.
    pub fn measures(&self) -> Vec<RunnerInfo> {
        self.runners.iter().map(|r| r.info()).collect()
    }

    /// Number of registered measures.
    pub fn measure_count(&self) -> usize {
        self.runners.len()
    }

    /// Resolves a measure name (e.g. `"lin"`) to its integer id.
    pub fn measure_id(&self, name: &str) -> Result<usize> {
        self.measure_names
            .get(name)
            .copied()
            .ok_or_else(|| SstError::UnknownMeasure(name.to_owned()))
    }

    /// Metadata for one measure id.
    pub fn measure_info(&self, measure: usize) -> Result<RunnerInfo> {
        self.runners
            .get(measure)
            .map(|r| r.info())
            .ok_or_else(|| SstError::UnknownMeasure(measure.to_string()))
    }

    pub(crate) fn runner(&self, measure: usize) -> Result<&dyn MeasureRunner> {
        self.runners
            .get(measure)
            .map(AsRef::as_ref)
            .ok_or_else(|| SstError::UnknownMeasure(measure.to_string()))
    }

    /// The resident concept table the built-in measures score from.
    pub(crate) fn concept_table(&self) -> &ConceptTable {
        &self.table
    }

    /// The concept table row of `gc`.
    pub(crate) fn row(&self, gc: GlobalConcept) -> Result<usize> {
        self.table
            .row(gc)
            .ok_or_else(|| SstError::Internal(format!("{gc:?} has no concept table row")))
    }

    /// The concept table rows of `concepts`, in order.
    pub(crate) fn rows(&self, concepts: &[GlobalConcept]) -> Result<Vec<usize>> {
        concepts.iter().map(|&gc| self.row(gc)).collect()
    }

    /// The pair scorer of `measure` for one service call.
    pub(crate) fn scorer(&self, measure: usize) -> Result<PairScorer<'_>> {
        let runner = self.runner(measure)?;
        let ctx = self.ctx();
        Ok(match runner.prepare(&ctx, &self.table) {
            Some(m) => PairScorer::Table(m),
            None => PairScorer::Naive {
                runner,
                ctx,
                table: &self.table,
            },
        })
    }

    /// Similarity of two concepts under one measure, recording the
    /// per-measure call counter and latency histogram.
    pub(crate) fn pair_similarity(
        &self,
        measure: usize,
        a: GlobalConcept,
        b: GlobalConcept,
    ) -> Result<f64> {
        let scorer = self.scorer(measure)?;
        let (ra, rb) = (self.row(a)?, self.row(b)?);
        Ok(self.timed_score(measure, || scorer.score(ra, rb)))
    }

    /// Records one pair computation produced by `score` into the
    /// per-measure call counter and latency histogram.
    pub(crate) fn timed_score(&self, measure: usize, score: impl FnOnce() -> f64) -> f64 {
        let start = Instant::now();
        let value = score();
        if let Some(mm) = self.measure_metrics.get(measure) {
            mm.pair_calls.inc();
            mm.pair_latency.observe(start.elapsed());
        }
        value
    }

    /// An RAII span over a whole-operation histogram of `measure`, plus the
    /// matching call counter, selected by `op`.
    fn measure_span(&self, measure: usize, op: MeasureOp) -> Option<sst_obs::Span> {
        let mm = self.measure_metrics.get(measure)?;
        let (calls, latency) = match op {
            MeasureOp::Rank => (&mm.rank_calls, &mm.rank_latency),
            MeasureOp::Matrix => (&mm.matrix_calls, &mm.matrix_latency),
        };
        calls.inc();
        Some(sst_obs::Span::new(Arc::clone(latency)))
    }

    fn resolve(&self, r: &ConceptRef) -> Result<GlobalConcept> {
        Ok(self.soqa.resolve(&r.ontology, &r.concept)?)
    }

    pub(crate) fn to_result(&self, gc: GlobalConcept, similarity: f64) -> ConceptAndSimilarity {
        ConceptAndSimilarity {
            concept: self.soqa.concept(gc).name.clone(),
            ontology: self.soqa.ontology_at(gc.ontology).name().to_owned(),
            similarity,
        }
    }

    /// Materializes a [`ConceptSet`] into global concept handles.
    pub fn concept_set(&self, set: &ConceptSet) -> Result<Vec<GlobalConcept>> {
        match set {
            ConceptSet::List(refs) => refs.iter().map(|r| self.resolve(r)).collect(),
            ConceptSet::Subtree(root) => {
                let gc = self.resolve(root)?;
                Ok(self.tree.subtree_concepts(self.tree.node(gc)))
            }
            ConceptSet::All => Ok(self.tree.all_concepts()),
        }
    }

    // ---- (S1) pairwise services -------------------------------------------

    /// Similarity of two concepts under one measure (paper signature S1).
    pub fn get_similarity(
        &self,
        first_concept: &str,
        first_ontology: &str,
        second_concept: &str,
        second_ontology: &str,
        measure: usize,
    ) -> Result<f64> {
        let a = self.soqa.resolve(first_ontology, first_concept)?;
        let b = self.soqa.resolve(second_ontology, second_concept)?;
        self.pair_similarity(measure, a, b)
    }

    /// Similarity of two concepts under a list of measures.
    pub fn get_similarities(
        &self,
        first_concept: &str,
        first_ontology: &str,
        second_concept: &str,
        second_ontology: &str,
        measures: &[usize],
    ) -> Result<Vec<f64>> {
        let a = self.soqa.resolve(first_ontology, first_concept)?;
        let b = self.soqa.resolve(second_ontology, second_concept)?;
        measures
            .iter()
            .map(|&m| self.pair_similarity(m, a, b))
            .collect()
    }

    // ---- concept-vs-set and k-best services --------------------------------

    /// Similarity of `concept` to every member of `set` under one measure,
    /// in set order, scored from the resident concept table.
    pub fn similarity_to_set(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        measure: usize,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        let query = self.soqa.resolve(ontology, concept)?;
        let members = self.concept_set(set)?;
        if members.is_empty() {
            return Ok(Vec::new());
        }
        let scorer = self.scorer(measure)?;
        let qrow = self.row(query)?;
        let rows = self.rows(&members)?;
        let n = rows.len();
        // Large rank scans reuse the work-stealing chunk scheduler: the
        // member axis is cut into chunks and scored concurrently, then
        // assembled positionally (same scores, same order, any worker
        // count). Small sets stay serial — spawn overhead would dominate.
        let scores: Vec<f64> = if n >= RANK_PARALLEL_THRESHOLD {
            let tiles = sched::rect_tiles(1, n, 64);
            let workers = sched::default_workers().min(tiles.len());
            let (scorer, rows) = (&scorer, &rows);
            let (results, stats) = sched::run_tiles(&tiles, workers, |_, tile| {
                let mut vals = Vec::with_capacity(tile.len());
                tile.for_each(|_, i| {
                    vals.push(self.timed_score(measure, || scorer.score(qrow, rows[i])));
                });
                vals
            });
            if stats.panicked > 0 {
                return Err(SstError::Internal("rank worker thread died".into()));
            }
            self.record_sched_stats(&stats);
            let mut scores = vec![0.0; n];
            for (idx, vals) in results {
                if let Some(tile) = tiles.get(idx) {
                    let mut it = vals.into_iter();
                    tile.for_each(|_, i| {
                        if let Some(v) = it.next() {
                            scores[i] = v;
                        }
                    });
                }
            }
            scores
        } else {
            rows.iter()
                .map(|&r| self.timed_score(measure, || scorer.score(qrow, r)))
                .collect()
        };
        Ok(members
            .iter()
            .zip(scores)
            .map(|(&gc, v)| self.to_result(gc, v))
            .collect())
    }

    /// The `k` most similar concepts of `set` for the query concept (paper
    /// signature S2). Results are sorted by descending similarity; ties
    /// break on the qualified name for determinism. Ordering uses IEEE 754
    /// `total_cmp`, so NaN scores from user-registered runners rank
    /// deterministically (first) instead of freezing wherever the sort
    /// happened to leave them.
    pub fn most_similar(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        k: usize,
        measure: usize,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        let _span = self.measure_span(measure, MeasureOp::Rank);
        let mut all = self.similarity_to_set(concept, ontology, set, measure)?;
        all.sort_by(rank_descending);
        all.truncate(k);
        Ok(all)
    }

    /// The `k` most *dissimilar* concepts of `set` for the query concept.
    pub fn most_dissimilar(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        k: usize,
        measure: usize,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        let _span = self.measure_span(measure, MeasureOp::Rank);
        let mut all = self.similarity_to_set(concept, ontology, set, measure)?;
        all.sort_by(rank_ascending);
        all.truncate(k);
        Ok(all)
    }

    // ---- dense vector retrieval (sub-linear k-best) ------------------------

    /// The toolkit's per-concept embedding matrix with its approximate
    /// index (built once at [`SstBuilder::build`] time over every
    /// registered concept).
    pub fn vector_store(&self) -> &VectorStore {
        &self.vectors
    }

    /// Maps `(store row, score)` candidates to ranked results: the same
    /// shared comparator and `k`-truncation as every other rank entry
    /// point, so exact-store rankings are bit-identical to the naive scan
    /// and approximate rankings are directly comparable.
    fn rank_vector_rows(&self, scored: Vec<(usize, f64)>, k: usize) -> Vec<ConceptAndSimilarity> {
        let mut all: Vec<ConceptAndSimilarity> = scored
            .into_iter()
            .filter_map(|(row, s)| self.vectors.concept(row).map(|gc| self.to_result(gc, s)))
            .collect();
        all.sort_by(rank_descending);
        all.truncate(k);
        all
    }

    /// Resolves the query concept to its vector-store row. The store holds
    /// the concepts that own a tree node, so an ontology root merged into
    /// the shared root (`TreeMode::MergedThing`) is an invalid query.
    fn vector_row(&self, concept: &str, ontology: &str) -> Result<usize> {
        let query = self.soqa.resolve(ontology, concept)?;
        self.vectors.position(query).ok_or_else(|| {
            SstError::InvalidArgument(format!(
                "concept {ontology}:{concept} has no vector-store row: it is an \
                 ontology root merged into the shared root"
            ))
        })
    }

    /// The `k` most similar concepts under the dense `dense_vector`
    /// measure, ranked by the **exact** brute-force scan of the vector
    /// store. This is the reference path: bit-identical to
    /// [`SstToolkit::most_similar`] with
    /// [`measure_ids::DENSE_VECTOR_MEASURE`] over [`ConceptSet::All`],
    /// pinned by the `ann_identity` suite.
    pub fn most_similar_dense(
        &self,
        concept: &str,
        ontology: &str,
        k: usize,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        let _span = self.metrics.span("core.vector.exact.latency");
        self.metrics.inc("core.vector.exact.queries");
        let qrow = self.vector_row(concept, ontology)?;
        Ok(self.rank_vector_rows(self.vectors.scores_exact(qrow), k))
    }

    /// The `k` most similar concepts under the dense measure via the
    /// **approximate** NSW proximity graph: a bounded beam search seeded
    /// at the query's own row touches a corpus-size-independent number
    /// of rows, making the query sub-linear in corpus size at ≥ 0.95
    /// recall@10 under the default probe width (see
    /// `results/BENCH_ann.json`). The query concept always appears in
    /// its own results (score 1.0), as on the exact path.
    pub fn most_similar_approx(
        &self,
        concept: &str,
        ontology: &str,
        k: usize,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        self.most_similar_approx_with(concept, ontology, k, self.vectors.default_probe())
    }

    /// [`SstToolkit::most_similar_approx`] with an explicit probe width:
    /// higher `probe` (the beam width) trades latency for recall;
    /// `probe ≥` the corpus size degenerates to the exact scan.
    pub fn most_similar_approx_with(
        &self,
        concept: &str,
        ontology: &str,
        k: usize,
        probe: usize,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        let _span = self.metrics.span("core.vector.approx.latency");
        self.metrics.inc("core.vector.approx.queries");
        let qrow = self.vector_row(concept, ontology)?;
        let scored = self.vectors.approx_candidates(qrow, probe);
        self.metrics.add("core.vector.probed", scored.len() as u64);
        Ok(self.rank_vector_rows(scored, k))
    }

    /// Serializes the embedding matrix to the checksummed `SSTVEC1`
    /// binary format (see `crate::vector`), for the offline
    /// derive-once/serve-many flow.
    pub fn export_vectors(&self) -> Vec<u8> {
        self.vectors.to_bytes()
    }

    /// Decodes an `SSTVEC1` embedding file under `limits`, resolves each
    /// row's qualified name against the registered concepts, and builds a
    /// fresh [`VectorStore`] (with its proximity graph) over the imported
    /// matrix. Unknown labels and malformed input are errors, never
    /// panics.
    pub fn import_vectors(&self, bytes: &[u8], limits: &sst_limits::Limits) -> Result<VectorStore> {
        let file = DenseVectorFile::from_bytes(bytes, limits)
            .map_err(|e| SstError::InvalidArgument(format!("vector file: {e}")))?;
        let mut rows = Vec::with_capacity(file.rows.len());
        for (label, v) in file.rows {
            let Some((ontology, concept)) = label.split_once(':') else {
                return Err(SstError::InvalidArgument(format!(
                    "vector file label `{label}` is not ontology:concept"
                )));
            };
            let gc = self.soqa.resolve(ontology, concept)?;
            rows.push((gc, label, v));
        }
        Ok(VectorStore::from_rows(rows, file.dim))
    }

    /// Serializes the toolkit into an `SSTSNAP1` snapshot: the build
    /// configuration, the exact ontology arenas, and the prepared vector
    /// tables (see `crate::snapshot` for the layout). A replica that
    /// loads the snapshot reconstructs a toolkit whose scores are
    /// bit-identical on every registered measure.
    pub fn export_snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode_snapshot(self)
    }

    /// Decodes an `SSTSNAP1` snapshot under `limits` and rebuilds the
    /// toolkit from it. The checksum is verified before parsing; every
    /// arena id is validated; and the prepared vector tables rebuilt
    /// from the decoded ontologies must match the stored ones byte for
    /// byte — a mismatch means version skew between writer and reader
    /// (or silent corruption) and is an error, never a quietly different
    /// toolkit.
    pub fn import_snapshot(bytes: &[u8], limits: &sst_limits::Limits) -> Result<SstToolkit> {
        let snapshot = crate::snapshot::SnapshotFile::from_bytes(bytes, limits)
            .map_err(|e| SstError::InvalidArgument(format!("snapshot: {e}")))?;
        let mut builder = SstBuilder::new()
            .tree_mode(snapshot.config.tree_mode)
            .probability_mode(snapshot.config.probability_mode);
        for ontology in snapshot.ontologies {
            builder = builder.register_ontology(ontology)?;
        }
        let toolkit = builder.build();
        if toolkit.export_vectors() != snapshot.vectors {
            return Err(SstError::InvalidArgument(
                "snapshot: stored prepared tables do not match the rebuilt store \
                 (writer/reader version skew)"
                    .to_owned(),
            ));
        }
        Ok(toolkit)
    }

    /// Most-similar under *several* measures at once: returns one ranked
    /// list per measure, in measure order. The query and the concept set
    /// are resolved once for all measures.
    pub fn most_similar_multi(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        k: usize,
        measures: &[usize],
    ) -> Result<Vec<Vec<ConceptAndSimilarity>>> {
        let query = self.soqa.resolve(ontology, concept)?;
        let members = self.concept_set(set)?;
        if members.is_empty() {
            return Ok(measures
                .iter()
                .map(|&m| {
                    let _span = self.measure_span(m, MeasureOp::Rank);
                    Vec::new()
                })
                .collect());
        }
        let qrow = self.row(query)?;
        let rows = self.rows(&members)?;
        let mut rankings = Vec::with_capacity(measures.len());
        for &m in measures {
            let _span = self.measure_span(m, MeasureOp::Rank);
            let scorer = self.scorer(m)?;
            let mut all: Vec<ConceptAndSimilarity> = members
                .iter()
                .zip(&rows)
                .map(|(&gc, &r)| self.to_result(gc, self.timed_score(m, || scorer.score(qrow, r))))
                .collect();
            all.sort_by(rank_descending);
            all.truncate(k);
            rankings.push(all);
        }
        Ok(rankings)
    }

    /// Full pairwise similarity matrix of a concept set under one measure.
    /// Returns the set's qualified names and the row-major matrix.
    ///
    /// Every registered measure is symmetric (Monge-Elkan is explicitly
    /// symmetrized in its runner), so only the upper triangle is computed
    /// and mirrored — `n(n+1)/2` runner calls instead of `n²`.
    pub fn similarity_matrix(
        &self,
        set: &ConceptSet,
        measure: usize,
    ) -> Result<(Vec<String>, Vec<Vec<f64>>)> {
        self.similarity_matrix_mode(set, measure, BatchMode::default())
    }

    /// [`SstToolkit::similarity_matrix`] with an explicit [`BatchMode`] —
    /// `Naive` keeps the per-pair reference path for benchmarks and
    /// bit-identity tests.
    pub fn similarity_matrix_mode(
        &self,
        set: &ConceptSet,
        measure: usize,
        mode: BatchMode,
    ) -> Result<(Vec<String>, Vec<Vec<f64>>)> {
        let concepts = self.concept_set(set)?;
        let runner = self.runner(measure)?;
        let _span = self.measure_span(measure, MeasureOp::Matrix);
        let labels = concepts
            .iter()
            .map(|&gc| self.soqa.qualified_name(gc))
            .collect();
        let n = concepts.len();
        let mut matrix = vec![vec![0.0; n]; n];
        match mode {
            BatchMode::Naive => {
                let ctx = self.ctx();
                for (i, &a) in concepts.iter().enumerate() {
                    for (j, &b) in concepts.iter().enumerate().skip(i) {
                        let v = runner.similarity(&ctx, a, b);
                        matrix[i][j] = v;
                        matrix[j][i] = v;
                    }
                }
            }
            BatchMode::Prepared => {
                let rows = self.rows(&concepts)?;
                let scorer = self.scorer(measure)?;
                // Cache-blocked traversal: scoring tile-resident blocks of
                // pairs keeps the table rows of a tile's rows and columns
                // hot instead of streaming whole row suffixes.
                for tile in sched::triangle_tiles(n, sched::tile_size(n, 1)) {
                    tile.for_each_upper(|i, j| {
                        let v = scorer.score(rows[i], rows[j]);
                        matrix[i][j] = v;
                        matrix[j][i] = v;
                    });
                }
            }
        }
        self.record_matrix_pairs(measure, n);
        Ok((labels, matrix))
    }

    /// Records one work-stealing scheduler run: tiles executed, successful
    /// steals, and the busy-time imbalance (max worker busy time over mean,
    /// stored in permille so the integer gauge keeps three decimals).
    pub(crate) fn record_sched_stats(&self, stats: &sched::SchedStats) {
        self.metrics.add("core.sched.tiles", stats.tiles());
        self.metrics.add("core.sched.steals", stats.steals());
        let permille = (stats.imbalance() * 1000.0) as i64;
        self.metrics.gauge("core.sched.imbalance").set(permille);
        if let Ok(mut last) = self.last_sched.lock() {
            *last = Some(stats.clone());
        }
    }

    /// Per-worker stats of the most recent work-stealing scheduler run on
    /// this toolkit (`None` until a parallel batch service has run). The
    /// matrix bench reads this to report worker busy times and steal
    /// counts alongside its wall-clock timings.
    pub fn last_sched_stats(&self) -> Option<sched::SchedStats> {
        self.last_sched.lock().ok().and_then(|s| s.clone())
    }

    /// Bookkeeping for the matrix services: `n(n+1)/2` computed pairs into
    /// the per-measure pair counter and the global `core.matrix.pairs`.
    fn record_matrix_pairs(&self, measure: usize, n: usize) {
        let pairs = (n as u64 * (n as u64 + 1)) / 2;
        if let Some(mm) = self.measure_metrics.get(measure) {
            mm.pair_calls.add(pairs);
        }
        self.metrics.add("core.matrix.pairs", pairs);
    }

    /// Like [`SstToolkit::similarity_matrix`] but computed with `threads`
    /// worker threads over cache-blocked triangle tiles distributed by the
    /// work-stealing scheduler ([`crate::sched`]). Useful for large concept
    /// sets: the runners are stateless and the context is shared read-only,
    /// so the matrix parallelizes embarrassingly.
    ///
    /// Only upper-triangle pairs (`j ≥ i`) are scored; the lower triangle
    /// is mirrored serially during assembly, matching the serial service's
    /// halved runner-call count. Assembly is by tile index, so the matrix
    /// is bit-identical for every worker count and steal interleaving.
    pub fn similarity_matrix_parallel(
        &self,
        set: &ConceptSet,
        measure: usize,
        threads: usize,
    ) -> Result<(Vec<String>, Vec<Vec<f64>>)> {
        self.similarity_matrix_parallel_mode(set, measure, threads, BatchMode::default())
    }

    /// [`SstToolkit::similarity_matrix_parallel`] with an explicit
    /// [`BatchMode`]. In `Prepared` mode one table scorer is shared
    /// read-only by all workers.
    pub fn similarity_matrix_parallel_mode(
        &self,
        set: &ConceptSet,
        measure: usize,
        threads: usize,
        mode: BatchMode,
    ) -> Result<(Vec<String>, Vec<Vec<f64>>)> {
        let concepts = self.concept_set(set)?;
        let runner = self.runner(measure)?;
        let _span = self.measure_span(measure, MeasureOp::Matrix);
        let ctx = self.ctx();
        let labels: Vec<String> = concepts
            .iter()
            .map(|&gc| self.soqa.qualified_name(gc))
            .collect();
        let n = concepts.len();
        let threads = threads.clamp(1, n.max(1));
        let prepared = match mode {
            BatchMode::Prepared => Some((self.scorer(measure)?, self.rows(&concepts)?)),
            BatchMode::Naive => None,
        };
        let prepared = prepared.as_ref();
        let mut matrix = vec![vec![0.0; n]; n];
        let tiles = sched::triangle_tiles(n, sched::tile_size(n, threads));
        let concepts = &concepts;
        let ctx = &ctx;
        let (results, stats) = sched::run_tiles(&tiles, threads, |_, tile| {
            let mut vals = Vec::with_capacity(tile.upper_len());
            match prepared {
                Some((scorer, rows)) => {
                    tile.for_each_upper(|i, j| vals.push(scorer.score(rows[i], rows[j])));
                }
                None => tile.for_each_upper(|i, j| {
                    vals.push(runner.similarity(ctx, concepts[i], concepts[j]));
                }),
            }
            vals
        });
        if stats.panicked > 0 {
            return Err(SstError::Internal(
                "similarity-matrix worker thread died".into(),
            ));
        }
        for (idx, vals) in results {
            if let Some(tile) = tiles.get(idx) {
                let mut it = vals.into_iter();
                tile.for_each_upper(|i, j| {
                    if let Some(v) = it.next() {
                        matrix[i][j] = v;
                        matrix[j][i] = v;
                    }
                });
            }
        }
        self.record_sched_stats(&stats);
        self.record_matrix_pairs(measure, n);
        Ok((labels, matrix))
    }

    /// Renders a concept set's pairwise similarity matrix as a
    /// [`crate::heatmap::Heatmap`] (future-work visualization).
    pub fn similarity_heatmap(
        &self,
        set: &ConceptSet,
        measure: usize,
    ) -> Result<crate::heatmap::Heatmap> {
        let info = self.measure_info(measure)?;
        let (labels, matrix) = self.similarity_matrix(set, measure)?;
        Ok(crate::heatmap::Heatmap::new(
            format!("Pairwise similarity ({})", info.display),
            labels,
            matrix,
        ))
    }

    // ---- combined measures (paper §5 future work) ---------------------------

    /// Similarity under a *combined* measure: the component measures'
    /// scores folded by `combiner` (see `sst_simpack::Amalgamation`).
    ///
    /// Component count must equal `combiner.arity()`. Unnormalized
    /// components (Resnik) are rejected — combining bits with [0, 1]
    /// scores is meaningless.
    pub fn combined_similarity(
        &self,
        first_concept: &str,
        first_ontology: &str,
        second_concept: &str,
        second_ontology: &str,
        measures: &[usize],
        combiner: &sst_simpack::Combiner,
    ) -> Result<f64> {
        if measures.len() != combiner.arity() {
            return Err(SstError::InvalidArgument(format!(
                "{} measures but combiner arity {}",
                measures.len(),
                combiner.arity()
            )));
        }
        for &mid in measures {
            if !self.measure_info(mid)?.normalized {
                return Err(SstError::InvalidArgument(format!(
                    "measure `{}` is unnormalized and cannot be combined",
                    self.measure_info(mid)?.name
                )));
            }
        }
        let scores = self.get_similarities(
            first_concept,
            first_ontology,
            second_concept,
            second_ontology,
            measures,
        )?;
        Ok(combiner.combine(&scores))
    }

    /// k most similar concepts under a combined measure: one table scorer
    /// per component measure, shared across all members.
    pub fn most_similar_combined(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        k: usize,
        measures: &[usize],
        combiner: &sst_simpack::Combiner,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        let members = self.concept_set(set)?;
        if members.is_empty() {
            return Ok(Vec::new());
        }
        if measures.len() != combiner.arity() {
            return Err(SstError::InvalidArgument(format!(
                "{} measures but combiner arity {}",
                measures.len(),
                combiner.arity()
            )));
        }
        for &mid in measures {
            if !self.measure_info(mid)?.normalized {
                return Err(SstError::InvalidArgument(format!(
                    "measure `{}` is unnormalized and cannot be combined",
                    self.measure_info(mid)?.name
                )));
            }
        }
        let query = self.soqa.resolve(ontology, concept)?;
        let scorers: Vec<PairScorer<'_>> = measures
            .iter()
            .map(|&m| self.scorer(m))
            .collect::<Result<_>>()?;
        let qrow = self.row(query)?;
        let rows = self.rows(&members)?;
        let mut all: Vec<ConceptAndSimilarity> = members
            .iter()
            .zip(&rows)
            .map(|(&gc, &r)| {
                let scores: Vec<f64> = measures
                    .iter()
                    .zip(&scorers)
                    .map(|(&m, scorer)| self.timed_score(m, || scorer.score(qrow, r)))
                    .collect();
                self.to_result(gc, combiner.combine(&scores))
            })
            .collect();
        all.sort_by(rank_descending);
        all.truncate(k);
        Ok(all)
    }

    // ---- (S3) visualization services ---------------------------------------

    /// Bar chart comparing two concepts under several measures (paper
    /// signature S3 — the Java API returned an `Image`; we return the
    /// [`Chart`], which renders to ASCII or Gnuplot artifacts).
    pub fn similarity_plot(
        &self,
        first_concept: &str,
        first_ontology: &str,
        second_concept: &str,
        second_ontology: &str,
        measures: &[usize],
    ) -> Result<Chart> {
        let values = self.get_similarities(
            first_concept,
            first_ontology,
            second_concept,
            second_ontology,
            measures,
        )?;
        let mut chart = Chart::new(
            format!("{first_ontology}:{first_concept} vs {second_ontology}:{second_concept}"),
            "similarity",
        );
        for (&m, value) in measures.iter().zip(values) {
            chart.push(self.measure_info(m)?.display, value);
        }
        Ok(chart)
    }

    /// Bar chart of the `k` most similar concepts (the Figure 5 service).
    pub fn most_similar_plot(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        k: usize,
        measure: usize,
    ) -> Result<Chart> {
        let ranked = self.most_similar(concept, ontology, set, k, measure)?;
        let info = self.measure_info(measure)?;
        let mut chart = Chart::new(
            format!(
                "The {k} most similar concepts for {ontology}:{concept} ({})",
                info.display
            ),
            if info.normalized {
                "similarity".to_owned()
            } else {
                "bits".to_owned()
            },
        );
        for row in ranked {
            chart.push(format!("{}:{}", row.ontology, row.concept), row.similarity);
        }
        Ok(chart)
    }

    // ---- helper services (paper §3: browser / query shell hooks) ----------

    /// Runs a SOQA-QL query against the registered ontologies, recording
    /// per-query parse/eval timing into the toolkit's metrics registry.
    pub fn query(&self, soqaql: &str) -> Result<ResultTable> {
        Ok(sst_soqa::ql::execute_with_metrics(
            &self.soqa,
            soqaql,
            Some(&self.metrics),
        )?)
    }

    /// Like [`SstToolkit::query`], but evaluation charges its work against
    /// a step/item budget governed by `limits` and fails with a structured
    /// limit error instead of running arbitrarily long. Long-running
    /// services (`sst-server`) evaluate on this entry point so one huge
    /// query cannot hold a worker thread past its deadline.
    pub fn query_with_limits(
        &self,
        soqaql: &str,
        limits: &sst_limits::Limits,
    ) -> Result<ResultTable> {
        Ok(sst_soqa::ql::execute_budgeted(
            &self.soqa,
            soqaql,
            Some(&self.metrics),
            limits,
        )?)
    }

    /// Renders the concept-hierarchy browser pane for one ontology.
    pub fn render_ontology_tree(&self, ontology: &str) -> Result<String> {
        Ok(sst_soqa::browser::render_tree(
            self.soqa.ontology(ontology)?,
        ))
    }

    /// Renders the browser detail pane for one concept.
    pub fn render_concept(&self, concept: &str, ontology: &str) -> Result<String> {
        let gc = self.soqa.resolve(ontology, concept)?;
        Ok(sst_soqa::browser::render_concept(&self.soqa, gc))
    }

    /// Renders the metadata pane for one ontology.
    pub fn render_metadata(&self, ontology: &str) -> Result<String> {
        Ok(sst_soqa::browser::render_metadata(
            self.soqa.ontology(ontology)?,
        ))
    }
}
