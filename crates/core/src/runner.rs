//! MeasureRunners (paper §3, Fig. 4): one coupling module per SimPack
//! measure, each pulling the data it needs from SOQA through the
//! [`SimilarityContext`] and producing a pairwise similarity value.
//!
//! Adding a measure to SST = implementing [`MeasureRunner`] and registering
//! it with the facade — exactly the extension mechanism the paper
//! advertises.
//!
//! The built-in runners also score from the toolkit's [`ConceptTable`],
//! which holds every per-concept artifact they read, built once with the
//! toolkit. Their [`MeasureRunner::similarity`] stays as the per-pair
//! reference formula that the table path must reproduce bit for bit.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use sst_index::{cosine_sparse, DocId, InvertedIndex, TermId};
use sst_simpack::{
    dense_unit_similarity, edge_similarity, edge_similarity_compact, jaro, jaro_fast, jaro_winkler,
    jaro_winkler_fast, jiang_conrath_similarity, jiang_conrath_similarity_compact,
    levenshtein_similarity, lin_similarity, lin_similarity_compact, monge_elkan,
    myers_sequence_similarity_from, myers_similarity_chars_from, needleman_wunsch_similarity,
    needleman_wunsch_similarity_scratch, qgram, qgram_packed_from, resnik_similarity,
    resnik_similarity_compact, sequence_similarity, shortest_path_length_similarity,
    shortest_path_similarity, smith_waterman_similarity, smith_waterman_similarity_scratch,
    tree_similarity, tree_similarity_zs_scratch, with_align_scratch, with_jaro_scratch,
    with_myers_scratch, with_zs_scratch, wu_palmer_similarity_rooted,
    wu_palmer_similarity_rooted_compact, AlignmentScoring, AncestorList, CostModel, DepthTable,
    FeatureSet, InformationContent, InternedFeatures, JaroMask, LabeledTree, MeasureKind,
    MyersPattern, NodeId, QGramPacked, Taxonomy, ZsTree,
};
use sst_soqa::{GlobalConcept, Soqa};

use crate::tree::UnifiedTree;

/// Runtime metadata for a registered runner (dynamic counterpart of
/// `sst_simpack::MeasureDescriptor`, so user-supplied runners can carry
/// their own names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerInfo {
    pub name: String,
    pub display: String,
    pub kind: MeasureKind,
    /// True when scores are guaranteed to lie in [0, 1].
    pub normalized: bool,
}

/// Everything a runner may need: the SOQA facade, the unified tree, the
/// precomputed information content, and the full-text index (one document
/// per concept).
#[derive(Clone, Copy)]
pub struct SimilarityContext<'a> {
    pub soqa: &'a Soqa,
    pub tree: &'a UnifiedTree,
    pub ic: &'a InformationContent,
    pub index: &'a InvertedIndex,
    /// Per tree node: the concept's document in `index` (`None` for the
    /// synthetic root).
    pub doc_ids: &'a [Option<DocId>],
}

impl fmt::Debug for SimilarityContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimilarityContext")
            .field("nodes", &self.tree.node_count())
            .field("docs", &self.index.doc_count())
            .finish()
    }
}

impl SimilarityContext<'_> {
    /// The feature set of a concept (the paper's M₁ view): its declared and
    /// inherited attributes, methods, relationships, and typed super links.
    pub fn feature_set(&self, gc: GlobalConcept) -> FeatureSet {
        let mut set = FeatureSet::new();
        for a in self.soqa.attributes_with_inherited(gc) {
            set.insert(format!("attr:{}", a.name));
        }
        for m in self.soqa.methods_of(gc) {
            set.insert(format!("method:{}", m.name));
        }
        for r in self.soqa.relationships_of(gc) {
            set.insert(format!("rel:{}", r.name));
        }
        for s in self.soqa.super_concepts(gc) {
            set.insert(format!("type:{}", self.soqa.concept(s).name));
        }
        set
    }

    /// The token sequence of a concept (the paper's M₂ view): the
    /// *ontology-qualified* names on the root path through the unified
    /// tree, followed by the concept's property names. Qualification
    /// matters: concepts of different ontologies traverse different
    /// resources even when their local names coincide, so cross-ontology
    /// sequences share little — exactly the behaviour Table 1 shows for the
    /// Levenshtein column.
    pub fn token_sequence(&self, gc: GlobalConcept) -> Vec<String> {
        let prefix = self.soqa.ontology_at(gc.ontology).name();
        let mut tokens: Vec<String> = self
            .tree
            .root_path_names(self.soqa, gc)
            .into_iter()
            .enumerate()
            .map(|(i, name)| {
                // The Super-Thing root (position 0) is shared by design.
                if i == 0 {
                    name
                } else {
                    format!("{prefix}:{name}")
                }
            })
            .collect();
        for a in self.soqa.attributes_of(gc) {
            tokens.push(format!("{prefix}:{}", a.name));
        }
        for r in self.soqa.relationships_of(gc) {
            tokens.push(format!("{prefix}:{}", r.name));
        }
        tokens
    }

    /// The concept's name (for the character-level string measures).
    pub fn name(&self, gc: GlobalConcept) -> &str {
        &self.soqa.concept(gc).name
    }

    /// The concept's dense embedding: its TF-IDF document vector under
    /// the deterministic signed random projection of
    /// [`crate::vector::embed_tfidf`]. This is the exact computation the
    /// toolkit's `VectorStore` runs at build time, so per-pair scores and
    /// store scores agree bit-for-bit.
    pub fn dense_embedding(&self, gc: GlobalConcept) -> Vec<f64> {
        let tfidf = self.doc_ids[self.tree.node(gc) as usize]
            .map(|d| self.index.tfidf_vector(d))
            .unwrap_or_default();
        crate::vector::embed_tfidf(&tfidf, crate::vector::EMBED_DIM)
    }

    /// Labeled subtree of the unified tree rooted at `gc`, truncated at
    /// `depth` levels (for the tree-edit measure).
    pub fn subtree(&self, gc: GlobalConcept, depth: usize) -> LabeledTree {
        let mut tree = LabeledTree::new();
        let root_node = self.tree.node(gc);
        let root = tree.add_node(self.soqa.concept(gc).name.clone(), None);
        self.fill_subtree(root_node, root, depth, &mut tree);
        tree
    }

    fn fill_subtree(&self, node: u32, parent: usize, depth: usize, out: &mut LabeledTree) {
        if depth == 0 {
            return;
        }
        // Children sorted by name for order-invariance of the comparison.
        let mut kids: Vec<(String, u32)> = self
            .tree
            .taxonomy()
            .children(node)
            .iter()
            .filter_map(|&c| {
                self.tree
                    .concept(c)
                    .map(|gc| (self.soqa.concept(gc).name.clone(), c))
            })
            .collect();
        kids.sort();
        for (name, child) in kids {
            let id = out.add_node(name, Some(parent));
            self.fill_subtree(child, id, depth - 1, out);
        }
    }
}

/// Interned token id. Ids are assigned against the corpus-wide
/// vocabularies of the [`ConceptTable`]; equal ids ⟺ equal token strings,
/// so sequence and alignment DPs over ids are bit-identical to the DPs over
/// the strings.
pub type TokenId = u32;

/// Gram size of the registered q-gram measure (padded trigrams); the
/// profiles in the [`ConceptTable`] are built with the same size.
const QGRAM_Q: usize = 3;

/// One row of the [`ConceptTable`]: every artifact the built-in measures
/// read about one registered concept, derived once when the toolkit is
/// built instead of once per pair.
#[derive(Debug)]
pub struct ConceptView {
    /// The concept this row describes.
    pub concept: GlobalConcept,
    /// Its node in the unified tree. Under `TreeMode::MergedThing` the
    /// ontology roots all sit on the shared root node 0.
    pub node: NodeId,
    /// The concept's document in the full-text index (`None` for roots
    /// merged into the shared root, which have none).
    pub doc: Option<DocId>,
    /// M₁ feature set (attributes, methods, relationships, typed supers)
    /// interned to sorted distinct ids against the corpus-wide feature
    /// vocabulary — the set measures intersect these by sorted merge.
    pub features: InternedFeatures,
    /// M₂ token sequence, interned to [`TokenId`]s.
    pub tokens: Vec<TokenId>,
    /// Myers bit-vector pattern over `tokens` (the bit-parallel
    /// Levenshtein core of the sequence measure).
    pub token_pattern: MyersPattern,
    /// The concept's name as a character slice (Jaro family).
    pub name_chars: Vec<char>,
    /// Position bitmasks of `name_chars` for the masked Jaro kernel;
    /// `None` for names over 64 characters, which have no one-word mask
    /// and take the kernel's scratch path.
    pub jaro_mask: Option<JaroMask>,
    /// The name split into lowercase word tokens, interned against the
    /// corpus-wide name-token vocabulary (Monge-Elkan, alignment
    /// blocking).
    pub name_tokens: Vec<TokenId>,
    /// Packed (bitset-backed) padded q-gram profile of the name.
    pub qgrams: QGramPacked,
    /// Depth-2 unified-tree subtree in preprocessed Zhang-Shasha form.
    pub subtree: ZsTree,
    /// TF-IDF vector of `doc` (empty without a document).
    pub tfidf: Vec<(TermId, f64)>,
    /// Dense embedding of `tfidf` (see [`crate::vector::embed_tfidf`]).
    pub embedding: Vec<f64>,
    /// Compact sorted ancestor-or-self list of `node` (graph and
    /// information-content measures).
    pub ancestors: AncestorList,
}

/// The corpus-resident concept table: one [`ConceptView`] per registered
/// concept, in registration order, plus the shared depth table of the
/// unified tree and the Monge-Elkan inner-similarity table over the
/// corpus's distinct name tokens. `SstBuilder::build` builds it once and
/// the toolkit owns it; every built-in scorer reads it, so no service
/// rederives per-concept artifacts per call or per pair.
#[derive(Debug)]
pub struct ConceptTable {
    rows: Vec<ConceptView>,
    /// First row of each ontology, so a concept's row is
    /// `offsets[ontology] + concept id`.
    offsets: Vec<usize>,
    depths: Arc<DepthTable>,
    /// `name_sims[x][y] = levenshtein_similarity(token x, token y)` over
    /// the distinct name tokens. The lower triangle mirrors the upper,
    /// which is bitwise safe because the inner similarity is exactly
    /// symmetric (a symmetric integer distance over a symmetric max
    /// length).
    name_sims: Vec<Vec<f64>>,
}

/// A concept's TF-IDF vector and its dense embedding, as the toolkit's
/// vector stage computes them.
pub(crate) type DenseRow = (Vec<(TermId, f64)>, Vec<f64>);

/// A growing string → [`TokenId`] vocabulary.
#[derive(Default)]
struct Interner(HashMap<String, TokenId>);

impl Interner {
    fn intern(&mut self, s: String) -> TokenId {
        let next = self.0.len() as TokenId;
        *self.0.entry(s).or_insert(next)
    }

    /// The vocabulary's strings, indexed by id.
    fn into_pool(self) -> Vec<String> {
        let mut pool = vec![String::new(); self.0.len()];
        for (s, id) in self.0 {
            if let Some(slot) = pool.get_mut(id as usize) {
                *slot = s;
            }
        }
        pool
    }
}

impl ConceptTable {
    /// Builds one row per registered concept of `ctx.soqa`. `dense` holds
    /// each concept's TF-IDF vector and embedding, in registration order,
    /// as the toolkit's vector stage computed them.
    pub(crate) fn build(ctx: SimilarityContext<'_>, dense: Vec<DenseRow>) -> ConceptTable {
        let soqa = ctx.soqa;
        let taxonomy = ctx.tree.taxonomy();
        let mut offsets = Vec::with_capacity(soqa.ontology_count());
        let mut next = 0;
        for oi in 0..soqa.ontology_count() {
            offsets.push(next);
            next += soqa.ontology_at(oi).concept_count();
        }
        let mut tokens = Interner::default();
        let mut features = Interner::default();
        let mut name_tokens = Interner::default();
        let mut rows = Vec::with_capacity(next);
        for (gc, (tfidf, embedding)) in soqa.all_concepts().into_iter().zip(dense) {
            let node = ctx.tree.node(gc);
            let name = ctx.name(gc);
            let token_ids: Vec<TokenId> = ctx
                .token_sequence(gc)
                .into_iter()
                .map(|t| tokens.intern(t))
                .collect();
            let feature_ids = ctx
                .feature_set(gc)
                .into_iter()
                .map(|f| features.intern(f))
                .collect();
            let name_chars: Vec<char> = name.chars().collect();
            rows.push(ConceptView {
                concept: gc,
                node,
                doc: ctx.doc_ids.get(node as usize).copied().flatten(),
                features: InternedFeatures::new(feature_ids),
                token_pattern: MyersPattern::new(&token_ids),
                tokens: token_ids,
                jaro_mask: JaroMask::new(&name_chars),
                name_chars,
                name_tokens: sst_index::tokenize(name)
                    .into_iter()
                    .map(|t| name_tokens.intern(t))
                    .collect(),
                // Always `Some` for q ≤ 3; the default is never taken.
                qgrams: QGramPacked::new(name, QGRAM_Q).unwrap_or_default(),
                subtree: ZsTree::new(&ctx.subtree(gc, 2)),
                tfidf,
                embedding,
                ancestors: taxonomy.ancestors(node),
            });
        }
        ConceptTable {
            rows,
            offsets,
            depths: taxonomy.depths(),
            name_sims: inner_similarity_table(&name_tokens.into_pool()),
        }
    }

    /// Number of rows (registered concepts).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row of `gc` (O(1)), or `None` for a concept the corpus does not
    /// hold.
    pub fn row(&self, gc: GlobalConcept) -> Option<usize> {
        let row = self
            .offsets
            .get(gc.ontology)?
            .checked_add(gc.concept.0 as usize)?;
        (self.rows.get(row)?.concept == gc).then_some(row)
    }

    /// The view at `row` (rows come from [`ConceptTable::row`]).
    pub fn view(&self, row: usize) -> &ConceptView {
        &self.rows[row]
    }

    /// The shared depth table of the unified tree.
    pub fn depths(&self) -> &DepthTable {
        &self.depths
    }

    /// Monge-Elkan over two name-token id lists, symmetrized by averaging
    /// both directions.
    fn monge_elkan(&self, a: &[TokenId], b: &[TokenId]) -> f64 {
        let ab = monge_elkan_directed(&self.name_sims, a, b);
        let ba = monge_elkan_directed(&self.name_sims, b, a);
        (ab + ba) / 2.0
    }
}

/// `monge_elkan(a, b, levenshtein_similarity)` over name-token ids,
/// replayed on the inner-similarity table `sims`: the same inner values
/// consumed in the same fold order, so the result is bit-identical while
/// the inner DP runs once per distinct token pair of the corpus.
fn monge_elkan_directed(sims: &[Vec<f64>], a: &[TokenId], b: &[TokenId]) -> f64 {
    if a.is_empty() {
        return f64::from(u8::from(b.is_empty()));
    }
    if b.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for &x in a {
        let row = sims.get(x as usize).map_or(&[][..], Vec::as_slice);
        let best = b
            .iter()
            .map(|&y| row.get(y as usize).copied().unwrap_or(0.0))
            .fold(0.0_f64, f64::max);
        total += best;
    }
    total / a.len() as f64
}

/// Inner Levenshtein similarity of every pair of `pool` tokens, on the
/// bit-parallel Myers core: one preprocessed pattern per token and one
/// scratch for the whole table (bit-identical to
/// `levenshtein_similarity_chars`). Only the upper triangle is computed.
fn inner_similarity_table(pool: &[String]) -> Vec<Vec<f64>> {
    let chars: Vec<Vec<char>> = pool.iter().map(|t| t.chars().collect()).collect();
    let patterns: Vec<MyersPattern> = chars.iter().map(|c| MyersPattern::from_chars(c)).collect();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(pool.len());
    with_myers_scratch(|scratch| {
        for (i, x) in patterns.iter().enumerate() {
            let mut row = Vec::with_capacity(pool.len());
            for prev in &rows {
                // Mirror of the already-computed sim(pool[j], pool[i]).
                row.push(prev.get(i).copied().unwrap_or(0.0));
            }
            for y in chars.iter().skip(i) {
                row.push(myers_similarity_chars_from(x, y, scratch));
            }
            rows.push(row);
        }
    });
    rows
}

/// A measure's scorer over the resident [`ConceptTable`]: scores pairs by
/// table row. Implementations must be bit-identical to the runner's
/// [`MeasureRunner::similarity`] on the same concepts.
pub trait PreparedMeasure: Send + Sync {
    /// Similarity of the concepts at table rows `a` and `b`.
    fn similarity(&self, a: usize, b: usize) -> f64;
}

/// A coupling module for one similarity measure.
pub trait MeasureRunner: Send + Sync {
    /// Metadata shown to clients (name, normalization, …).
    fn info(&self) -> RunnerInfo;
    /// Pairwise similarity of two concepts under this measure.
    fn similarity(&self, ctx: &SimilarityContext<'_>, a: GlobalConcept, b: GlobalConcept) -> f64;
    /// Table hook: a scorer over the toolkit's resident [`ConceptTable`],
    /// or `None` to keep the per-pair path (the default, so user-registered
    /// runners keep working unchanged — the facade calls `similarity` per
    /// pair). Called once per service call, so the scorer may hold
    /// per-call state.
    fn prepare<'t>(
        &self,
        _ctx: &SimilarityContext<'t>,
        _table: &'t ConceptTable,
    ) -> Option<Box<dyn PreparedMeasure + 't>> {
        None
    }
}

impl fmt::Debug for dyn MeasureRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MeasureRunner({})", self.info().name)
    }
}

/// A stateless table scorer: `score` reads the two rows' views.
struct RowScorer<'t, F> {
    table: &'t ConceptTable,
    score: F,
}

impl<F> PreparedMeasure for RowScorer<'_, F>
where
    F: Fn(&ConceptView, &ConceptView) -> f64 + Send + Sync,
{
    fn similarity(&self, a: usize, b: usize) -> f64 {
        (self.score)(self.table.view(a), self.table.view(b))
    }
}

/// Boxes a [`RowScorer`] for a runner's [`MeasureRunner::prepare`].
fn row_scorer<'t, F>(table: &'t ConceptTable, score: F) -> Option<Box<dyn PreparedMeasure + 't>>
where
    F: Fn(&ConceptView, &ConceptView) -> f64 + Send + Sync + 't,
{
    Some(Box::new(RowScorer { table, score }))
}

/// Feature-set measures: sorted-merge intersection of the interned id
/// lists, folded through the measure's count-based core (bit-identical to
/// the set formula by construction — see `sst_simpack::vector`). Identical
/// concepts score 1 even when featureless, as on the per-pair path.
fn features(a: &ConceptView, b: &ConceptView, counts: fn(usize, usize, usize) -> f64) -> f64 {
    if a.concept == b.concept {
        return 1.0;
    }
    counts(
        a.features.intersection_size(&b.features),
        a.features.len(),
        b.features.len(),
    )
}

/// Jaro / Jaro-Winkler on the bitmask match window when the second name
/// fits one 64-bit word, on per-thread scratch buffers otherwise — both
/// bit-identical to `jaro_chars`.
fn jaro_rows(a: &ConceptView, b: &ConceptView, winkler: bool) -> f64 {
    with_jaro_scratch(|s| {
        if winkler {
            jaro_winkler_fast(&a.name_chars, &b.name_chars, b.jaro_mask.as_ref(), s)
        } else {
            jaro_fast(&a.name_chars, &b.name_chars, b.jaro_mask.as_ref(), s)
        }
    })
}

/// Shortest path needs undirected BFS, which ancestor lists cannot
/// reproduce on multi-parent DAGs, and a resident distance row per
/// concept would grow as concepts × nodes. The scorer instead runs one
/// BFS per distinct source row of its call (the first argument: a rank
/// query, a matrix row, an alignment source) on first use, and reads
/// every pair of that source from it.
struct ShortestPathScorer<'t> {
    table: &'t ConceptTable,
    taxonomy: &'t Taxonomy,
    /// Undirected BFS distances of each source row, filled on first use.
    bfs: Vec<OnceLock<Vec<Option<u32>>>>,
}

impl PreparedMeasure for ShortestPathScorer<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        let (va, vb) = (self.table.view(a), self.table.view(b));
        let dist = self.bfs[a].get_or_init(|| self.taxonomy.undirected_distances(va.node));
        shortest_path_length_similarity(dist.get(vb.node as usize).copied().flatten())
    }
}

macro_rules! runner {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $display:literal, $kind:expr,
     $normalized:literal, |$ctx:ident, $a:ident, $b:ident| $body:expr,
     prepare: |$pctx:ident, $table:ident| $pbody:expr) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy)]
        pub struct $ty;

        impl MeasureRunner for $ty {
            fn info(&self) -> RunnerInfo {
                RunnerInfo {
                    name: $name.to_owned(),
                    display: $display.to_owned(),
                    kind: $kind,
                    normalized: $normalized,
                }
            }

            fn similarity(
                &self,
                $ctx: &SimilarityContext<'_>,
                $a: GlobalConcept,
                $b: GlobalConcept,
            ) -> f64 {
                $body
            }

            fn prepare<'t>(
                &self,
                $pctx: &SimilarityContext<'t>,
                $table: &'t ConceptTable,
            ) -> Option<Box<dyn PreparedMeasure + 't>> {
                $pbody
            }
        }
    };
}

runner!(
    /// Cosine over feature sets (Eq. 1).
    CosineRunner, "cosine", "Cosine", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::cosine(&ctx.feature_set(a), &ctx.feature_set(b))
    },
    prepare: |_ctx, table| row_scorer(table, |a, b| features(a, b, sst_simpack::cosine_from_counts))
);
runner!(
    /// Extended Jaccard over feature sets (Eq. 2).
    JaccardRunner, "jaccard", "Extended Jaccard", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::jaccard(&ctx.feature_set(a), &ctx.feature_set(b))
    },
    prepare: |_ctx, table| row_scorer(table, |a, b| features(a, b, sst_simpack::jaccard_from_counts))
);
runner!(
    /// Overlap over feature sets (Eq. 3).
    OverlapRunner, "overlap", "Overlap", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::overlap(&ctx.feature_set(a), &ctx.feature_set(b))
    },
    prepare: |_ctx, table| row_scorer(table, |a, b| features(a, b, sst_simpack::overlap_from_counts))
);
runner!(
    /// Dice over feature sets (extension).
    DiceRunner, "dice", "Dice", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::dice(&ctx.feature_set(a), &ctx.feature_set(b))
    },
    prepare: |_ctx, table| row_scorer(table, |a, b| features(a, b, sst_simpack::dice_from_counts))
);
runner!(
    /// Normalized token-sequence edit distance over M₂ sequences (Eq. 4).
    /// The table path runs the bit-parallel Myers core over the first
    /// concept's preprocessed pattern (bit-identical to
    /// `sequence_similarity(…, CostModel::UNIT)`, pinned by the simpack
    /// differential tests).
    LevenshteinRunner, "levenshtein", "Levenshtein", MeasureKind::Sequence, true,
    |ctx, a, b| {
        let x = ctx.token_sequence(a);
        let y = ctx.token_sequence(b);
        sequence_similarity(&x, &y, CostModel::UNIT)
    },
    prepare: |_ctx, table| row_scorer(table, |a, b| {
        with_myers_scratch(|s| myers_sequence_similarity_from(&a.token_pattern, &b.tokens, s))
    })
);
runner!(
    /// Jaro on concept names (SecondString extension).
    JaroRunner, "jaro", "Jaro", MeasureKind::String, true,
    |ctx, a, b| jaro(ctx.name(a), ctx.name(b)),
    prepare: |_ctx, table| row_scorer(table, |a, b| jaro_rows(a, b, false))
);
runner!(
    /// Jaro-Winkler on concept names (SecondString extension).
    JaroWinklerRunner, "jaro_winkler", "Jaro-Winkler", MeasureKind::String, true,
    |ctx, a, b| jaro_winkler(ctx.name(a), ctx.name(b)),
    prepare: |_ctx, table| row_scorer(table, |a, b| jaro_rows(a, b, true))
);
runner!(
    /// Padded trigram Dice on concept names (SimMetrics extension). The
    /// table path merge-intersects packed gram profiles (bit-identical to
    /// `qgram`).
    QGramRunner, "qgram", "Q-Gram", MeasureKind::String, true,
    |ctx, a, b| qgram(ctx.name(a), ctx.name(b), QGRAM_Q),
    prepare: |_ctx, table| row_scorer(table, |a, b| qgram_packed_from(&a.qgrams, &b.qgrams))
);
runner!(
    /// Monge-Elkan over name tokens with Levenshtein inner similarity,
    /// symmetrized by averaging both directions.
    MongeElkanRunner, "monge_elkan", "Monge-Elkan", MeasureKind::String, true,
    |ctx, a, b| {
        let ta = sst_index::tokenize(ctx.name(a));
        let tb = sst_index::tokenize(ctx.name(b));
        let ra: Vec<&str> = ta.iter().map(String::as_str).collect();
        let rb: Vec<&str> = tb.iter().map(String::as_str).collect();
        let ab = monge_elkan(&ra, &rb, levenshtein_similarity);
        let ba = monge_elkan(&rb, &ra, levenshtein_similarity);
        (ab + ba) / 2.0
    },
    prepare: |_ctx, table| row_scorer(table, move |a, b| {
        table.monge_elkan(&a.name_tokens, &b.name_tokens)
    })
);
runner!(
    /// `1 / (1 + len)` over the undirected shortest path in the unified
    /// tree.
    ShortestPathRunner, "shortest_path", "Shortest Path", MeasureKind::Graph, true,
    |ctx, a, b| {
        shortest_path_similarity(ctx.tree.taxonomy(), ctx.tree.node(a), ctx.tree.node(b))
    },
    prepare: |ctx, table| Some(Box::new(ShortestPathScorer {
        table,
        taxonomy: ctx.tree.taxonomy(),
        bfs: (0..table.len()).map(|_| OnceLock::new()).collect(),
    }))
);
runner!(
    /// Normalized edge counting (Eq. 5). The table path merges compact
    /// ancestor lists, visiting candidates in the same ascending id order
    /// with the same tie-breaks (bit-identical by construction).
    EdgeRunner, "edge", "Edge Counting", MeasureKind::Graph, true,
    |ctx, a, b| edge_similarity(ctx.tree.taxonomy(), ctx.tree.node(a), ctx.tree.node(b)),
    prepare: |_ctx, table| row_scorer(table, move |a, b| {
        edge_similarity_compact(&a.ancestors, &b.ancestors, a.node == b.node, table.depths().max())
    })
);
runner!(
    /// Wu & Palmer conceptual similarity (Eq. 6) — the paper's "Conceptual
    /// Similarity" column. Uses the rooted (node-counted depth) convention
    /// so cross-ontology pairs keep a small nonzero score, as in Table 1.
    WuPalmerRunner, "wu_palmer", "Conceptual Similarity", MeasureKind::Graph, true,
    |ctx, a, b| {
        wu_palmer_similarity_rooted(ctx.tree.taxonomy(), ctx.tree.node(a), ctx.tree.node(b))
    },
    prepare: |_ctx, table| row_scorer(table, move |a, b| {
        wu_palmer_similarity_rooted_compact(&a.ancestors, &b.ancestors, table.depths())
    })
);
runner!(
    /// Resnik information content similarity (Eq. 7) — **unnormalized**,
    /// reported in bits. The table path scans the best subsumer over two
    /// merged ancestor lists, with the same candidate order and
    /// tie-breaks as the full-table scan.
    ResnikRunner, "resnik", "Resnik", MeasureKind::InformationTheoretic, false,
    |ctx, a, b| {
        resnik_similarity(ctx.tree.taxonomy(), ctx.ic, ctx.tree.node(a), ctx.tree.node(b))
    },
    prepare: |ctx, table| {
        let ic = ctx.ic;
        row_scorer(table, move |a, b| resnik_similarity_compact(ic, &a.ancestors, &b.ancestors))
    }
);
runner!(
    /// Lin similarity (Eq. 8).
    LinRunner, "lin", "Lin", MeasureKind::InformationTheoretic, true,
    |ctx, a, b| {
        lin_similarity(ctx.tree.taxonomy(), ctx.ic, ctx.tree.node(a), ctx.tree.node(b))
    },
    prepare: |ctx, table| {
        let ic = ctx.ic;
        row_scorer(table, move |a, b| {
            lin_similarity_compact(ic, a.node, b.node, &a.ancestors, &b.ancestors)
        })
    }
);
runner!(
    /// Jiang-Conrath similarity (IC extension).
    JiangConrathRunner, "jiang_conrath", "Jiang-Conrath",
    MeasureKind::InformationTheoretic, true,
    |ctx, a, b| {
        jiang_conrath_similarity(ctx.tree.taxonomy(), ctx.ic, ctx.tree.node(a), ctx.tree.node(b))
    },
    prepare: |ctx, table| {
        let ic = ctx.ic;
        row_scorer(table, move |a, b| {
            jiang_conrath_similarity_compact(ic, a.node, b.node, &a.ancestors, &b.ancestors)
        })
    }
);
runner!(
    /// TF-IDF cosine over the concepts' exported full-text descriptions —
    /// the paper's Lucene-backed measure.
    TfidfRunner, "tfidf", "TFIDF", MeasureKind::FullText, true,
    |ctx, a, b| {
        let (Some(da), Some(db)) = (
            ctx.doc_ids[ctx.tree.node(a) as usize],
            ctx.doc_ids[ctx.tree.node(b) as usize],
        ) else {
            return 0.0;
        };
        ctx.index.cosine(da, db)
    },
    prepare: |_ctx, table| row_scorer(table, |a, b| {
        if a.doc.is_some() && b.doc.is_some() {
            cosine_sparse(&a.tfidf, &b.tfidf)
        } else {
            0.0
        }
    })
);
runner!(
    /// Zhang-Shasha tree edit similarity of the concepts' subtrees
    /// (depth-limited to 2) — the future-work tree measure.
    TreeEditRunner, "tree_edit", "Tree Edit Distance", MeasureKind::Tree, true,
    |ctx, a, b| tree_similarity(&ctx.subtree(a, 2), &ctx.subtree(b, 2)),
    prepare: |_ctx, table| row_scorer(table, |a, b| {
        with_zs_scratch(|s| tree_similarity_zs_scratch(&a.subtree, &b.subtree, s))
    })
);
runner!(
    /// Needleman-Wunsch global alignment of the M₂ token sequences
    /// (SimPack's alignment-based sequence measure).
    NeedlemanWunschRunner, "needleman_wunsch", "Needleman-Wunsch",
    MeasureKind::Sequence, true,
    |ctx, a, b| {
        let x = ctx.token_sequence(a);
        let y = ctx.token_sequence(b);
        needleman_wunsch_similarity(&x, &y, AlignmentScoring::default())
    },
    prepare: |_ctx, table| row_scorer(table, |a, b| {
        with_align_scratch(|s| {
            needleman_wunsch_similarity_scratch(&a.tokens, &b.tokens, AlignmentScoring::default(), s)
        })
    })
);
runner!(
    /// Smith-Waterman local alignment of the M₂ token sequences: scores the
    /// best-matching shared *subpath* (e.g. a common taxonomy fragment).
    SmithWatermanRunner, "smith_waterman", "Smith-Waterman",
    MeasureKind::Sequence, true,
    |ctx, a, b| {
        let x = ctx.token_sequence(a);
        let y = ctx.token_sequence(b);
        smith_waterman_similarity(&x, &y, AlignmentScoring::default())
    },
    prepare: |_ctx, table| row_scorer(table, |a, b| {
        with_align_scratch(|s| {
            smith_waterman_similarity_scratch(&a.tokens, &b.tokens, AlignmentScoring::default(), s)
        })
    })
);

runner!(
    /// Shifted unit cosine over dense concept embeddings — the measure
    /// behind the toolkit's vector-retrieval subsystem. Embeddings are
    /// deterministic signed random projections of the TF-IDF document
    /// vectors (see `crate::vector`); the shifted unit cosine
    /// `(1 + x·y)/2` is a strictly monotone transform of cosine, so
    /// rankings agree with cosine order while scores stay in [0, 1].
    DenseVectorRunner, "dense_vector", "Dense Vector", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for undescribed concepts
        }
        dense_unit_similarity(&ctx.dense_embedding(a), &ctx.dense_embedding(b))
    },
    prepare: |_ctx, table| row_scorer(table, |a, b| {
        if a.concept == b.concept {
            return 1.0; // identity axiom, even for undescribed concepts
        }
        dense_unit_similarity(&a.embedding, &b.embedding)
    })
);

/// The default runner set, in registration order. The position of each
/// runner is its paper-style integer measure constant (see
/// `facade::measure_ids`).
pub fn default_runners() -> Vec<Box<dyn MeasureRunner>> {
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
