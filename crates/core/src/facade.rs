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
use std::convert::Infallible;
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
    builtin_info, ConceptTable, DenseRow, MeasureRunner, PairScorer, RunnerInfo, SimilarityContext,
    BUILTIN_COUNT,
};
use crate::sched;
use crate::tree::{TreeMode, UnifiedTree};
use crate::vector::{embed_tfidf, DenseVectorFile, VectorStore, EMBED_DIM};

/// Paper-style integer constants for the built-in measures, e.g.
/// `measure_ids::LIN_MEASURE` (the Java API's
/// `SOQASimPackToolkitFacade.LIN_MEASURE`). Values are positions in
/// `sst_simpack::CATALOG`; user-registered runners follow.
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

/// Which end of the score order a k-best service keeps.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RankOrder {
    /// Highest scores first: `most_similar` and its siblings.
    Descending,
    /// Lowest scores first: `most_dissimilar`.
    Ascending,
}

/// One candidate of [`SstToolkit::select_k_best`]: its score, its
/// qualified name borrowed from SOQA, and its input position.
struct Candidate<'a> {
    score: f64,
    ontology: &'a str,
    concept: &'a str,
    position: usize,
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
    /// point for new or combined measures. Runners get the ids after the
    /// built-in measures, in registration order.
    pub fn register_runner(mut self, runner: Box<dyn MeasureRunner>) -> Self {
        self.extra_runners.push(runner);
        self
    }

    /// Freezes the toolkit: builds the unified tree, the information
    /// content, the full-text index, the vector store, and the resident
    /// concept table every built-in measure scores from.
    pub fn build(self) -> SstToolkit {
        // Full-text index: one document per concept (paper §2.2: "we
        // exported a full-text description of all concepts … and built an
        // index over the descriptions").
        let built = self.assemble(
            |soqa, concepts, keys, metrics| {
                let mut builder = IndexBuilder::with_metrics(metrics.clone());
                for (&gc, key) in concepts.iter().zip(keys) {
                    builder.add_document(key, &soqa.concept_description(gc));
                }
                Ok::<_, Infallible>(builder.build())
            },
            |rows| Ok(VectorStore::from_rows(rows, EMBED_DIM)),
        );
        match built {
            Ok(toolkit) => toolkit,
            Err(never) => match never {},
        }
    }

    /// The one assembly path of [`SstBuilder::build`] and
    /// [`SstToolkit::import_snapshot`], which differ only in where the
    /// full-text index and the vector store's proximity graph come from:
    /// `index` gets the concepts of the tree in document order with their
    /// document keys, `store` gets the store rows. Everything else is
    /// derived here: the tree, the IC, the TF-IDF vectors and embeddings
    /// (read from whichever index `index` returns), and the concept table.
    pub(crate) fn assemble<E>(
        self,
        index: impl FnOnce(
            &Soqa,
            &[GlobalConcept],
            Vec<String>,
            &Metrics,
        ) -> std::result::Result<InvertedIndex, E>,
        store: impl FnOnce(
            Vec<(GlobalConcept, String, Vec<f64>)>,
        ) -> std::result::Result<VectorStore, E>,
    ) -> std::result::Result<SstToolkit, E> {
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

        // The i-th concept of the tree is document i. Its key carries
        // its unified tree node id: display names are not unique within
        // an ontology, and the index builder would hand back the first
        // document's id for a colliding key, silently aliasing distinct
        // concepts onto one TF-IDF vector. A tree node holds at most one
        // concept, so the keys are distinct.
        let documents = tree.all_concepts();
        let keys = documents
            .iter()
            .map(|&gc| format!("{}#{}", self.soqa.qualified_name(gc), tree.node(gc)))
            .collect();
        let index = index(&self.soqa, &documents, keys, &metrics)?;
        let mut doc_ids: Vec<Option<DocId>> = vec![None; tree.node_count()];
        for (doc, &gc) in documents.iter().enumerate() {
            doc_ids[tree.node(gc) as usize] = Some(DocId(doc as u32));
        }

        // Dense retrieval: embed every registered concept's TF-IDF vector
        // and build the vector store (plus its proximity graph) over the
        // concepts that own a tree node. The concept table's
        // `dense_vector` scorer reads the same embeddings, so full-probe
        // store rankings are bit-identical to the measure's rankings.
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
            (store(rows)?, dense)
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

        let runners = self.extra_runners;
        let names: Vec<String> = measure_infos(&runners)
            .into_iter()
            .map(|info| info.name)
            .collect();
        let measure_metrics = names
            .iter()
            .map(|name| MeasureMetrics::register(&metrics, name))
            .collect();
        let measure_names = names.into_iter().enumerate().map(|(i, n)| (n, i)).collect();

        Ok(SstToolkit {
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
        })
    }
}

/// Metadata of the built-in measures followed by the user `runners`, in id
/// order.
fn measure_infos(runners: &[Box<dyn MeasureRunner>]) -> Vec<RunnerInfo> {
    (0..BUILTIN_COUNT)
        .filter_map(builtin_info)
        .chain(runners.iter().map(|r| r.info()))
        .collect()
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
pub(crate) enum MeasureOp {
    /// The single-measure k-best services (`most_similar`,
    /// `most_dissimilar`, and the cached rank).
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
    /// The user-registered runners, ids from `BUILTIN_COUNT` on.
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
        measure_infos(&self.runners)
    }

    /// Number of registered measures: the built-ins plus the user runners.
    pub fn measure_count(&self) -> usize {
        BUILTIN_COUNT + self.runners.len()
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
        match builtin_info(measure) {
            Some(info) => Ok(info),
            None => Ok(self.runner(measure)?.info()),
        }
    }

    /// The user runner registered at `measure` (an id past the built-ins).
    fn runner(&self, measure: usize) -> Result<&dyn MeasureRunner> {
        measure
            .checked_sub(BUILTIN_COUNT)
            .and_then(|i| self.runners.get(i))
            .map(AsRef::as_ref)
            .ok_or_else(|| SstError::UnknownMeasure(measure.to_string()))
    }

    /// Fails with [`SstError::UnknownMeasure`] unless `measure` is registered.
    pub(crate) fn check_measure(&self, measure: usize) -> Result<()> {
        if measure < self.measure_count() {
            Ok(())
        } else {
            Err(SstError::UnknownMeasure(measure.to_string()))
        }
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
        if let Some(scorer) =
            PairScorer::builtin(measure, &self.table, &self.ic, self.tree.taxonomy())
        {
            return Ok(scorer);
        }
        Ok(PairScorer::Runner {
            runner: self.runner(measure)?,
            ctx: self.ctx(),
            table: &self.table,
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
    pub(crate) fn measure_span(&self, measure: usize, op: MeasureOp) -> Option<sst_obs::Span> {
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

    fn to_result(&self, gc: GlobalConcept, similarity: f64) -> ConceptAndSimilarity {
        ConceptAndSimilarity {
            concept: self.soqa.concept(gc).name.clone(),
            ontology: self.soqa.ontology_at(gc.ontology).name().to_owned(),
            similarity,
        }
    }

    /// The one k-best selector behind every ranking service: the `k` best
    /// of the `scored` (concept, score) pairs, named.
    ///
    /// The order is strict and total: IEEE 754 `total_cmp` on the score
    /// (descending or ascending per `order`; NaN ranks first when
    /// descending), then the qualified `(ontology, concept)` name, then the
    /// input position. The name makes equal-score truncation at `k`
    /// independent of the order the scores were produced in, so a ranking
    /// is the same whether or not its pairs were memoized and exact/approx
    /// parity is assertable entry by entry; the position only separates
    /// equal-score concepts sharing a display name, keeping them in input
    /// order as a stable sort would. Below the input size the `k` best are
    /// selected first, and only they are sorted and named.
    pub(crate) fn select_k_best(
        &self,
        scored: impl IntoIterator<Item = (GlobalConcept, f64)>,
        k: usize,
        order: RankOrder,
    ) -> Vec<ConceptAndSimilarity> {
        if k == 0 {
            return Vec::new();
        }
        let mut candidates: Vec<Candidate<'_>> = scored
            .into_iter()
            .enumerate()
            .map(|(position, (gc, score))| Candidate {
                score,
                ontology: self.soqa.ontology_at(gc.ontology).name(),
                concept: &self.soqa.concept(gc).name,
                position,
            })
            .collect();
        let cmp = |x: &Candidate<'_>, y: &Candidate<'_>| {
            let by_score = match order {
                RankOrder::Descending => y.score.total_cmp(&x.score),
                RankOrder::Ascending => x.score.total_cmp(&y.score),
            };
            by_score.then_with(|| {
                (x.ontology, x.concept, x.position).cmp(&(y.ontology, y.concept, y.position))
            })
        };
        if k < candidates.len() {
            // In range: 0 < k < len.
            candidates.select_nth_unstable_by(k - 1, cmp);
            candidates.truncate(k);
        }
        candidates.sort_unstable_by(cmp);
        candidates
            .into_iter()
            .map(|c| ConceptAndSimilarity {
                concept: c.concept.to_owned(),
                ontology: c.ontology.to_owned(),
                similarity: c.score,
            })
            .collect()
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

    /// The argument checks every set service runs before it scores: the
    /// query concept resolves, every measure is registered, and the set
    /// resolves. An empty set therefore fails on a bad argument exactly
    /// like a full one. Returns the query and the set's members.
    pub(crate) fn set_arguments(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        measures: &[usize],
    ) -> Result<(GlobalConcept, Vec<GlobalConcept>)> {
        let query = self.soqa.resolve(ontology, concept)?;
        for &measure in measures {
            self.check_measure(measure)?;
        }
        Ok((query, self.concept_set(set)?))
    }

    /// The rank scan over concepts: [`SstToolkit::scan_rows`] on the
    /// table rows of `query` and `members`.
    fn scan(
        &self,
        query: GlobalConcept,
        members: &[GlobalConcept],
        measure: usize,
    ) -> Result<Vec<f64>> {
        self.scan_rows(self.row(query)?, &self.rows(members)?, measure)
    }

    /// The one loop that scores a query row against member rows: every
    /// ranking service (direct, combined, cached) scores through it, on
    /// the calling thread, with one [`SstToolkit::timed_score`] per pair.
    /// Returns the scores in member order.
    pub(crate) fn scan_rows(
        &self,
        qrow: usize,
        rows: &[usize],
        measure: usize,
    ) -> Result<Vec<f64>> {
        let scorer = self.scorer(measure)?;
        Ok(rows
            .iter()
            .map(|&r| self.timed_score(measure, || scorer.score(qrow, r)))
            .collect())
    }

    /// Similarity of `concept` to every member of `set` under one measure,
    /// in set order, scored from the resident concept table.
    pub fn similarity_to_set(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        measure: usize,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        let (query, members) = self.set_arguments(concept, ontology, set, &[measure])?;
        let scores = self.scan(query, &members, measure)?;
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
        self.rank(concept, ontology, set, k, measure, RankOrder::Descending)
    }

    /// The `k` most *dissimilar* concepts of `set` for the query concept:
    /// ascending similarity, the same name tiebreak.
    pub fn most_dissimilar(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        k: usize,
        measure: usize,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        self.rank(concept, ontology, set, k, measure, RankOrder::Ascending)
    }

    /// The direct k-best service: one rank scan, then the selector.
    fn rank(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        k: usize,
        measure: usize,
        order: RankOrder,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        let (query, members) = self.set_arguments(concept, ontology, set, &[measure])?;
        let _span = self.measure_span(measure, MeasureOp::Rank);
        let scores = self.scan(query, &members, measure)?;
        Ok(self.select_k_best(members.into_iter().zip(scores), k, order))
    }

    // ---- dense vector retrieval (sub-linear k-best) ------------------------

    /// The toolkit's per-concept embedding matrix with its approximate
    /// index (built once at [`SstBuilder::build`] time over every
    /// registered concept).
    pub fn vector_store(&self) -> &VectorStore {
        &self.vectors
    }

    /// The full-text index over the concept descriptions (one document
    /// per concept of the unified tree) that the `tfidf` measure and the
    /// embeddings read.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Maps `(store row, score)` candidates to ranked results through the
    /// shared selector, so full-probe rankings are bit-identical to
    /// [`SstToolkit::most_similar`] under the dense measure and
    /// approximate rankings are directly comparable.
    fn rank_vector_rows(&self, scored: Vec<(usize, f64)>, k: usize) -> Vec<ConceptAndSimilarity> {
        let scored = scored
            .into_iter()
            .filter_map(|(row, s)| self.vectors.concept(row).map(|gc| (gc, s)));
        self.select_k_best(scored, k, RankOrder::Descending)
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

    /// The `k` most similar concepts under the dense measure via the
    /// **approximate** NSW proximity graph: a bounded beam search seeded
    /// at the query's own row touches a corpus-size-independent number
    /// of rows, making the query sub-linear in corpus size at ≥ 0.95
    /// recall@10 under the default probe width (see
    /// `results/BENCH_ann.json`). The query concept always appears in
    /// its own results (score 1.0), as on the exact scan.
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
    /// `probe ≥` the corpus size degenerates to the exact scan of the
    /// store, bit-identical to [`SstToolkit::most_similar`] with
    /// [`measure_ids::DENSE_VECTOR_MEASURE`] over [`ConceptSet::All`]
    /// (pinned by the `ann_identity` suite).
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

    /// Serializes the toolkit into an `SSTSNAP2` snapshot: the build
    /// configuration, the exact ontology arenas, the full-text index's
    /// vocabulary and per-document term lists, the prepared vector
    /// tables, and the vector store's proximity graph (see
    /// `crate::snapshot` for the layout). A replica that loads the
    /// snapshot reconstructs a toolkit whose scores, rankings, ANN
    /// candidates and alignments are bit-identical.
    pub fn export_snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode_snapshot(self)
    }

    /// Decodes an `SSTSNAP2` snapshot under `limits` and assembles the
    /// toolkit from it, through the assembly path of
    /// [`SstBuilder::build`] with the full-text index and the proximity
    /// graph taken from their sections instead of analysing every
    /// description and inserting every vector row. The checksum is
    /// verified before parsing; every arena id, index term list and
    /// graph row is validated; and the embeddings re-derived from the
    /// loaded index must match the stored vector tables byte for byte,
    /// compared in place as the store's `SSTVEC1` encoding is produced —
    /// a mismatch means version skew between writer and reader (or
    /// silent corruption) and is an error, never a quietly different
    /// toolkit. An `SSTSNAP1` file is refused with an error that asks
    /// for a re-export.
    pub fn import_snapshot(bytes: &[u8], limits: &sst_limits::Limits) -> Result<SstToolkit> {
        let snapshot = crate::snapshot::SnapshotFile::from_bytes(bytes, limits)
            .map_err(|e| SstError::InvalidArgument(format!("snapshot: {e}")))?;
        let mut builder = SstBuilder::new()
            .tree_mode(snapshot.config.tree_mode)
            .probability_mode(snapshot.config.probability_mode);
        for ontology in snapshot.ontologies {
            builder = builder.register_ontology(ontology)?;
        }
        builder.assemble(
            |_, _, keys, metrics| {
                InvertedIndex::from_parts(keys, snapshot.terms, snapshot.doc_terms, metrics.clone())
                    .map_err(|e| SstError::InvalidArgument(format!("snapshot index: {e}")))
            },
            |rows| {
                let store = VectorStore::with_graph(rows, EMBED_DIM, snapshot.graph)
                    .map_err(|e| SstError::InvalidArgument(format!("snapshot graph: {e}")))?;
                if !store.encodes_to(&snapshot.vectors) {
                    return Err(SstError::InvalidArgument(
                        "snapshot: stored prepared tables do not match the embeddings of the \
                         loaded index (writer/reader version skew)"
                            .to_owned(),
                    ));
                }
                Ok(store)
            },
        )
    }

    /// Full pairwise similarity matrix of a concept set under one measure.
    /// Returns the set's qualified names and the row-major matrix: the
    /// one-worker run of [`SstToolkit::similarity_matrix_parallel`].
    ///
    /// Every registered measure is symmetric (Monge-Elkan is explicitly
    /// symmetrized; user runners must be, see [`MeasureRunner`]), so only
    /// the upper triangle is computed and mirrored — `n(n+1)/2` pair
    /// scores instead of `n²`.
    pub fn similarity_matrix(
        &self,
        set: &ConceptSet,
        measure: usize,
    ) -> Result<(Vec<String>, Vec<Vec<f64>>)> {
        self.similarity_matrix_parallel(set, measure, 1)
    }

    /// The one fan-out over the work-stealing scheduler, shared by the
    /// parallel matrix and alignment scoring: the results of `run` on
    /// every tile, in tile order. A dead worker fails the call with
    /// [`SstError::Internal`], never a partial answer. A completed run is
    /// recorded in `core.sched.{tiles,steals,imbalance}` (the busy-time
    /// imbalance in permille, so the integer gauge keeps three decimals)
    /// and [`SstToolkit::last_sched_stats`].
    pub(crate) fn fan_out<T: Send>(
        &self,
        tiles: &[sched::Tile],
        workers: usize,
        run: impl Fn(&sched::Tile) -> T + Sync,
    ) -> Result<Vec<T>> {
        let (results, stats) = sched::run_tiles(tiles, workers, run);
        if stats.panicked > 0 {
            return Err(SstError::Internal(format!(
                "{} of {} scheduler worker threads died",
                stats.panicked,
                stats.workers.len()
            )));
        }
        self.metrics.add("core.sched.tiles", stats.tiles());
        self.metrics.add("core.sched.steals", stats.steals());
        let permille = (stats.imbalance() * 1000.0) as i64;
        self.metrics.gauge("core.sched.imbalance").set(permille);
        if let Ok(mut last) = self.last_sched.lock() {
            *last = Some(stats);
        }
        Ok(results)
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
    /// work-stealing scheduler; one table scorer is shared read-only by
    /// all workers. With one thread the tiles run inline, in order. A
    /// worker thread that dies fails the call with [`SstError::Internal`].
    ///
    /// Only upper-triangle pairs (`j ≥ i`) are scored; the lower triangle
    /// is mirrored during assembly. The tiles' results come back in tile
    /// order, so the matrix is bit-identical for every worker count and
    /// steal interleaving.
    pub fn similarity_matrix_parallel(
        &self,
        set: &ConceptSet,
        measure: usize,
        threads: usize,
    ) -> Result<(Vec<String>, Vec<Vec<f64>>)> {
        let concepts = self.concept_set(set)?;
        let scorer = self.scorer(measure)?;
        let _span = self.measure_span(measure, MeasureOp::Matrix);
        let labels: Vec<String> = concepts
            .iter()
            .map(|&gc| self.soqa.qualified_name(gc))
            .collect();
        let rows = self.rows(&concepts)?;
        let n = concepts.len();
        let threads = threads.clamp(1, n.max(1));
        let mut matrix = vec![vec![0.0; n]; n];
        let tiles = sched::triangle_tiles(n, sched::tile_size(n, threads));
        let (scorer, rows) = (&scorer, &rows);
        let results = self.fan_out(&tiles, threads, |tile| {
            let mut vals = Vec::with_capacity(tile.upper_len());
            tile.for_each_upper(|i, j| vals.push(scorer.score(rows[i], rows[j])));
            vals
        })?;
        for (tile, vals) in tiles.iter().zip(results) {
            let mut it = vals.into_iter();
            tile.for_each_upper(|i, j| {
                if let Some(v) = it.next() {
                    matrix[i][j] = v;
                    matrix[j][i] = v;
                }
            });
        }
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
        self.check_combination(measures, combiner)?;
        let scores = self.get_similarities(
            first_concept,
            first_ontology,
            second_concept,
            second_ontology,
            measures,
        )?;
        Ok(combiner.combine(&scores))
    }

    /// Fails unless `measures` fit `combiner`: as many measures as its
    /// arity, each registered and normalized.
    fn check_combination(
        &self,
        measures: &[usize],
        combiner: &sst_simpack::Combiner,
    ) -> Result<()> {
        if measures.len() != combiner.arity() {
            return Err(SstError::InvalidArgument(format!(
                "{} measures but combiner arity {}",
                measures.len(),
                combiner.arity()
            )));
        }
        for &mid in measures {
            let info = self.measure_info(mid)?;
            if !info.normalized {
                return Err(SstError::InvalidArgument(format!(
                    "measure `{}` is unnormalized and cannot be combined",
                    info.name
                )));
            }
        }
        Ok(())
    }

    /// k most similar concepts under a combined measure: one rank scan
    /// per component measure, then each member's component scores folded
    /// by `combiner`.
    pub fn most_similar_combined(
        &self,
        concept: &str,
        ontology: &str,
        set: &ConceptSet,
        k: usize,
        measures: &[usize],
        combiner: &sst_simpack::Combiner,
    ) -> Result<Vec<ConceptAndSimilarity>> {
        self.check_combination(measures, combiner)?;
        let (query, members) = self.set_arguments(concept, ontology, set, measures)?;
        let (qrow, rows) = (self.row(query)?, self.rows(&members)?);
        let columns: Vec<Vec<f64>> = measures
            .iter()
            .map(|&m| self.scan_rows(qrow, &rows, m))
            .collect::<Result<_>>()?;
        let combined = members.iter().enumerate().map(|(i, &gc)| {
            let scores: Vec<f64> = columns.iter().filter_map(|c| c.get(i).copied()).collect();
            (gc, combiner.combine(&scores))
        });
        Ok(self.select_k_best(combined, k, RankOrder::Descending))
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
