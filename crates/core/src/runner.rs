//! MeasureRunners (paper §3, Fig. 4) and the built-in measures.
//!
//! The paper couples SOQA and SimPack through one coupling module per
//! measure. Here the built-in measures score from the toolkit's resident
//! concept table, which holds every per-concept artifact they read,
//! built once with the toolkit: each built-in is one table scorer on one
//! `sst-simpack` kernel, and its metadata is the `sst_simpack::CATALOG`
//! entry at its measure id.
//!
//! Adding a measure = implementing [`MeasureRunner`] and registering it
//! with the facade — exactly the extension mechanism the paper
//! advertises. A registered runner is scored pair by pair through the
//! [`SimilarityContext`].

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use sst_index::{cosine_sparse, DocId, InvertedIndex, TermId};
use sst_simpack::{
    cosine_from_counts, dense_unit_similarity, dice_from_counts, edge_similarity_compact,
    jaccard_from_counts, jaro_fast, jaro_winkler_fast, jiang_conrath_similarity_compact,
    levenshtein_similarity_table, lin_similarity_compact, myers_sequence_similarity_from,
    needleman_wunsch_similarity, overlap_from_counts, qgram_packed_from, resnik_similarity_compact,
    shortest_path_length_similarity, smith_waterman_similarity, tree_similarity_zs,
    wu_palmer_similarity_rooted_compact, AlignmentScoring, AncestorList, DepthTable, FeatureSet,
    InformationContent, InternedFeatures, JaroMask, LabeledTree, MeasureDescriptor, MeasureKind,
    MyersPattern, NodeId, QGramPacked, Taxonomy, ZsTree, CATALOG,
};
use sst_soqa::{GlobalConcept, Ontology, Soqa};

use crate::tree::{UnifiedTree, SUPER_THING};

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

impl From<&MeasureDescriptor> for RunnerInfo {
    fn from(d: &MeasureDescriptor) -> RunnerInfo {
        RunnerInfo {
            name: d.name.to_owned(),
            display: d.display.to_owned(),
            kind: d.kind,
            normalized: d.normalized,
        }
    }
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
/// vocabularies of the [`ConceptTable`]; within each vocabulary equal ids
/// ⟺ equal strings, so sequence and alignment DPs over ids are
/// bit-identical to the DPs over the strings. The numbering itself is not
/// part of any result: every reader compares ids for equality or counts
/// shared ids (alignment blocking ranks by count, then target index), so
/// scores and alignments do not depend on which string got which id.
pub(crate) type TokenId = u32;

/// Gram size of the registered q-gram measure (padded trigrams); the
/// profiles in the [`ConceptTable`] are built with the same size.
const QGRAM_Q: usize = 3;

/// One row of the [`ConceptTable`]: every artifact the built-in measures
/// read about one registered concept, derived once when the toolkit is
/// built instead of once per pair.
#[derive(Debug)]
pub(crate) struct ConceptView {
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
    /// vocabulary — the set measures intersect these by sorted merge. Ids
    /// number the feature strings in first-use order; only equality and
    /// overlap counts are read, never the order.
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
pub(crate) struct ConceptTable {
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

/// A growing string → [`TokenId`] vocabulary, the one interning entry
/// point of the table's token, feature and name-token vocabularies.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, TokenId>,
    /// Reused by every [`Interner::intern`] call.
    buf: String,
}

impl Interner {
    /// The id of the concatenation of `parts`, written into a reused
    /// buffer and looked up by `&str`: the string is copied only when it
    /// is new.
    fn intern(&mut self, parts: &[&str]) -> TokenId {
        self.buf.clear();
        for part in parts {
            self.buf.push_str(part);
        }
        if let Some(&id) = self.ids.get(self.buf.as_str()) {
            return id;
        }
        let id = self.ids.len() as TokenId;
        self.ids.insert(self.buf.clone(), id);
        id
    }

    /// The vocabulary's strings, indexed by id.
    fn into_pool(self) -> Vec<String> {
        let mut pool = vec![String::new(); self.ids.len()];
        for (s, id) in self.ids {
            if let Some(slot) = pool.get_mut(id as usize) {
                *slot = s;
            }
        }
        pool
    }
}

/// One id per source element of one kind, filled on the element's first
/// use.
struct Memo(Vec<Option<TokenId>>);

impl Memo {
    fn new(len: usize) -> Memo {
        Memo(vec![None; len])
    }

    /// The id of element `at`: the concatenation of `parts` interned into
    /// `vocab` on first use, read back afterwards.
    fn id(&mut self, at: u32, vocab: &mut Interner, parts: &[&str]) -> TokenId {
        match self.0.get_mut(at as usize) {
            Some(Some(id)) => *id,
            Some(slot) => *slot.insert(vocab.intern(parts)),
            None => vocab.intern(parts),
        }
    }
}

/// The memoized ids of one ontology's elements: the M₂ token of each
/// attribute and relationship (`ontology:name`), and the M₁ feature of
/// each attribute (`attr:name`), method (`method:name`), relationship
/// (`rel:name`) and concept as a direct super (`type:name`).
struct OntologyIds {
    attr_tokens: Memo,
    rel_tokens: Memo,
    attr_features: Memo,
    method_features: Memo,
    rel_features: Memo,
    super_features: Memo,
}

impl OntologyIds {
    fn new(ontology: &Ontology) -> OntologyIds {
        OntologyIds {
            attr_tokens: Memo::new(ontology.attributes().len()),
            rel_tokens: Memo::new(ontology.relationships().len()),
            attr_features: Memo::new(ontology.attributes().len()),
            method_features: Memo::new(ontology.methods().len()),
            rel_features: Memo::new(ontology.relationships().len()),
            super_features: Memo::new(ontology.concept_count()),
        }
    }
}

/// The interned M₁ feature ids and M₂ token ids of every concept: each
/// source string is formatted and interned once per source element (tree
/// node, attribute, method, relationship, super), not once per occurrence
/// in a row. The ids equal those of interning
/// [`SimilarityContext::feature_set`] and
/// [`SimilarityContext::token_sequence`] string by string, up to
/// renumbering.
struct SourceIds {
    tokens: Interner,
    features: Interner,
    /// Token per tree node: `ontology:name`, or the unprefixed
    /// [`SUPER_THING`] for the root node 0.
    node_tokens: Memo,
    ontologies: Vec<OntologyIds>,
    /// The root path of the row being interned.
    path: Vec<NodeId>,
}

impl SourceIds {
    fn new(soqa: &Soqa, tree: &UnifiedTree) -> SourceIds {
        SourceIds {
            tokens: Interner::default(),
            features: Interner::default(),
            node_tokens: Memo::new(tree.node_count()),
            ontologies: (0..soqa.ontology_count())
                .map(|oi| OntologyIds::new(soqa.ontology_at(oi)))
                .collect(),
            path: Vec::new(),
        }
    }

    /// The M₂ token ids of `gc`: the tokens of its root path, then of its
    /// own attributes and relationships (see
    /// [`SimilarityContext::token_sequence`]). The path starts at the root
    /// node 0, and every node after it belongs to the concept's ontology,
    /// since the tree joins ontologies only at node 0.
    fn tokens(&mut self, soqa: &Soqa, tree: &UnifiedTree, gc: GlobalConcept) -> Vec<TokenId> {
        tree.root_path(gc, &mut self.path);
        let ontology = soqa.ontology_at(gc.ontology);
        let prefix = ontology.name();
        let concept = ontology.concept(gc.concept);
        let mut out = Vec::with_capacity(
            self.path.len() + concept.attributes.len() + concept.relationships.len(),
        );
        for &node in &self.path {
            let vocab = &mut self.tokens;
            out.push(match tree.concept(node) {
                Some(c) => {
                    let name = &soqa.concept(c).name;
                    self.node_tokens.id(node, vocab, &[prefix, ":", name])
                }
                None => self.node_tokens.id(node, vocab, &[SUPER_THING]),
            });
        }
        let Some(ids) = self.ontologies.get_mut(gc.ontology) else {
            return out;
        };
        for &a in &concept.attributes {
            let name = &ontology.attribute(a).name;
            out.push(
                ids.attr_tokens
                    .id(a.0, &mut self.tokens, &[prefix, ":", name]),
            );
        }
        for &r in &concept.relationships {
            let name = &ontology.relationship(r).name;
            out.push(
                ids.rel_tokens
                    .id(r.0, &mut self.tokens, &[prefix, ":", name]),
            );
        }
        out
    }

    /// The M₁ feature ids of `gc` (see [`SimilarityContext::feature_set`]):
    /// its declared and inherited attributes, its methods and
    /// relationships, and its direct supers.
    fn features(&mut self, soqa: &Soqa, gc: GlobalConcept) -> InternedFeatures {
        let ontology = soqa.ontology_at(gc.ontology);
        let Some(ids) = self.ontologies.get_mut(gc.ontology) else {
            return InternedFeatures::default();
        };
        let vocab = &mut self.features;
        let concept = ontology.concept(gc.concept);
        let mut out = Vec::new();
        let inherited = ontology.all_supers(gc.concept);
        let declared = std::iter::once(gc.concept).chain(inherited);
        for a in declared.flat_map(|c| ontology.concept(c).attributes.iter().copied()) {
            let name = &ontology.attribute(a).name;
            out.push(ids.attr_features.id(a.0, vocab, &["attr:", name]));
        }
        for &m in &concept.methods {
            let name = &ontology.method(m).name;
            out.push(ids.method_features.id(m.0, vocab, &["method:", name]));
        }
        for &r in &concept.relationships {
            let name = &ontology.relationship(r).name;
            out.push(ids.rel_features.id(r.0, vocab, &["rel:", name]));
        }
        for &s in &concept.super_concepts {
            let name = &ontology.concept(s).name;
            out.push(ids.super_features.id(s.0, vocab, &["type:", name]));
        }
        InternedFeatures::new(out)
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
        let mut ids = SourceIds::new(soqa, ctx.tree);
        let mut name_tokens = Interner::default();
        let mut rows = Vec::with_capacity(next);
        for (gc, (tfidf, embedding)) in soqa.all_concepts().into_iter().zip(dense) {
            let node = ctx.tree.node(gc);
            let name = ctx.name(gc);
            let token_ids = ids.tokens(soqa, ctx.tree, gc);
            let name_chars: Vec<char> = name.chars().collect();
            rows.push(ConceptView {
                concept: gc,
                node,
                doc: ctx.doc_ids.get(node as usize).copied().flatten(),
                features: ids.features(soqa, gc),
                token_pattern: MyersPattern::new(&token_ids),
                tokens: token_ids,
                jaro_mask: JaroMask::new(&name_chars),
                name_chars,
                name_tokens: sst_index::tokenize(name)
                    .iter()
                    .map(|t| name_tokens.intern(&[t]))
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
            name_sims: levenshtein_similarity_table(&name_tokens.into_pool()),
        }
    }

    /// Number of rows (registered concepts).
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The row of `gc` (O(1)), or `None` for a concept the corpus does not
    /// hold.
    pub(crate) fn row(&self, gc: GlobalConcept) -> Option<usize> {
        let row = self
            .offsets
            .get(gc.ontology)?
            .checked_add(gc.concept.0 as usize)?;
        (self.rows.get(row)?.concept == gc).then_some(row)
    }

    /// The view at `row` (rows come from [`ConceptTable::row`]).
    pub(crate) fn view(&self, row: usize) -> &ConceptView {
        &self.rows[row]
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

/// A coupling module for one user-registered similarity measure.
///
/// Every service scores a runner pair by pair through `similarity`, and
/// assumes it is **symmetric**: `similarity(ctx, a, b)` must equal
/// `similarity(ctx, b, a)` bit for bit. Matrices score only the upper
/// triangle and mirror it, and `CachedSimilarity` stores each unordered
/// pair once, so an asymmetric runner gets whichever direction a service
/// happened to compute.
pub trait MeasureRunner: Send + Sync {
    /// Metadata shown to clients (name, normalization, …).
    fn info(&self) -> RunnerInfo;
    /// Pairwise similarity of two concepts under this measure.
    fn similarity(&self, ctx: &SimilarityContext<'_>, a: GlobalConcept, b: GlobalConcept) -> f64;
}

impl fmt::Debug for dyn MeasureRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MeasureRunner({})", self.info().name)
    }
}

/// A built-in measure's score of two concept-table rows, given the table's
/// shared data and the toolkit's information content.
type RowScore = fn(&ConceptTable, &InformationContent, &ConceptView, &ConceptView) -> f64;

/// How a built-in measure scores from the [`ConceptTable`].
#[derive(Clone, Copy)]
enum Builtin {
    /// A pure function of the two rows.
    Rows(RowScore),
    /// Shortest path, which keeps per-call BFS rows (see
    /// [`PairScorer::ShortestPath`]).
    ShortestPath,
}

/// The built-in measures, in `measure_ids` order. Each one's metadata is
/// the `sst_simpack::CATALOG` entry at the same position.
const BUILTINS: [Builtin; 20] = [
    Builtin::Rows(|_, _, a, b| features(a, b, cosine_from_counts)),
    Builtin::Rows(|_, _, a, b| features(a, b, jaccard_from_counts)),
    Builtin::Rows(|_, _, a, b| features(a, b, overlap_from_counts)),
    Builtin::Rows(|_, _, a, b| features(a, b, dice_from_counts)),
    // Token-sequence edit distance (Eq. 4): the bit-parallel Myers core
    // over the first concept's preprocessed pattern.
    Builtin::Rows(|_, _, a, b| myers_sequence_similarity_from(&a.token_pattern, &b.tokens)),
    // Jaro and Jaro-Winkler on names: the bitmask kernel when the second
    // name fits one 64-bit word, the greedy scan otherwise.
    Builtin::Rows(|_, _, a, b| jaro_fast(&a.name_chars, &b.name_chars, b.jaro_mask.as_ref())),
    Builtin::Rows(|_, _, a, b| {
        jaro_winkler_fast(&a.name_chars, &b.name_chars, b.jaro_mask.as_ref())
    }),
    Builtin::Rows(|_, _, a, b| qgram_packed_from(&a.qgrams, &b.qgrams)),
    Builtin::Rows(|t, _, a, b| t.monge_elkan(&a.name_tokens, &b.name_tokens)),
    Builtin::ShortestPath,
    Builtin::Rows(|t, _, a, b| {
        edge_similarity_compact(&a.ancestors, &b.ancestors, a.node == b.node, t.depths.max())
    }),
    // Wu & Palmer in the rooted (node-counted depth) convention, so
    // cross-ontology pairs keep a small nonzero score, as in Table 1.
    Builtin::Rows(|t, _, a, b| {
        wu_palmer_similarity_rooted_compact(&a.ancestors, &b.ancestors, &t.depths)
    }),
    Builtin::Rows(|_, ic, a, b| resnik_similarity_compact(ic, &a.ancestors, &b.ancestors)),
    Builtin::Rows(|_, ic, a, b| {
        lin_similarity_compact(ic, a.node, b.node, &a.ancestors, &b.ancestors)
    }),
    Builtin::Rows(|_, ic, a, b| {
        jiang_conrath_similarity_compact(ic, a.node, b.node, &a.ancestors, &b.ancestors)
    }),
    Builtin::Rows(tfidf),
    Builtin::Rows(|_, _, a, b| tree_similarity_zs(&a.subtree, &b.subtree)),
    Builtin::Rows(|_, _, a, b| {
        needleman_wunsch_similarity(&a.tokens, &b.tokens, AlignmentScoring::default())
    }),
    Builtin::Rows(|_, _, a, b| {
        smith_waterman_similarity(&a.tokens, &b.tokens, AlignmentScoring::default())
    }),
    Builtin::Rows(dense_vector),
];

/// Number of built-in measures: ids `0..BUILTIN_COUNT`, followed by the
/// user-registered runners.
pub(crate) const BUILTIN_COUNT: usize = BUILTINS.len();

/// Metadata of built-in `measure`, or `None` past the built-ins.
pub(crate) fn builtin_info(measure: usize) -> Option<RunnerInfo> {
    BUILTINS.get(measure)?;
    CATALOG.get(measure).map(RunnerInfo::from)
}

/// Feature-set measures: sorted-merge intersection of the interned id
/// lists, folded through the measure's count-based core (bit-identical to
/// the set formula by construction — see `sst_simpack::vector`). The same
/// concept scores 1 even when featureless (identity axiom).
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

/// TF-IDF cosine of the concepts' full-text descriptions — the paper's
/// Lucene-backed measure. The same concept scores 1: the cosine of a
/// vector with itself can round to just below 1, and a root merged into
/// the shared root has no document at all.
fn tfidf(_: &ConceptTable, _: &InformationContent, a: &ConceptView, b: &ConceptView) -> f64 {
    if a.concept == b.concept {
        return 1.0;
    }
    if a.doc.is_some() && b.doc.is_some() {
        cosine_sparse(&a.tfidf, &b.tfidf)
    } else {
        0.0
    }
}

/// Shifted unit cosine `(1 + x·y)/2` of the dense embeddings (see
/// `crate::vector`); the same concept scores 1, even undescribed.
fn dense_vector(_: &ConceptTable, _: &InformationContent, a: &ConceptView, b: &ConceptView) -> f64 {
    if a.concept == b.concept {
        return 1.0;
    }
    dense_unit_similarity(&a.embedding, &b.embedding)
}

/// One measure's pair scorer for a service call, addressed by concept
/// table row.
pub(crate) enum PairScorer<'t> {
    /// A built-in measure scoring from the table.
    Rows {
        score: RowScore,
        table: &'t ConceptTable,
        ic: &'t InformationContent,
    },
    /// Shortest path needs undirected BFS, which ancestor lists cannot
    /// reproduce on multi-parent DAGs, and a resident distance row per
    /// concept would grow as concepts × nodes. The scorer instead runs one
    /// BFS per distinct source row of its call (the first argument: a rank
    /// query, a matrix row, an alignment source) on first use, and reads
    /// every pair of that source from it.
    ShortestPath {
        table: &'t ConceptTable,
        taxonomy: &'t Taxonomy,
        bfs: Vec<OnceLock<Vec<Option<u32>>>>,
    },
    /// A user-registered runner, called per pair.
    Runner {
        runner: &'t dyn MeasureRunner,
        ctx: SimilarityContext<'t>,
        table: &'t ConceptTable,
    },
}

impl<'t> PairScorer<'t> {
    /// The scorer of built-in `measure`, or `None` past the built-ins.
    pub(crate) fn builtin(
        measure: usize,
        table: &'t ConceptTable,
        ic: &'t InformationContent,
        taxonomy: &'t Taxonomy,
    ) -> Option<PairScorer<'t>> {
        Some(match *BUILTINS.get(measure)? {
            Builtin::Rows(score) => PairScorer::Rows { score, table, ic },
            Builtin::ShortestPath => PairScorer::ShortestPath {
                table,
                taxonomy,
                bfs: (0..table.len()).map(|_| OnceLock::new()).collect(),
            },
        })
    }

    /// Similarity of the concepts at table rows `a` and `b`.
    pub(crate) fn score(&self, a: usize, b: usize) -> f64 {
        match self {
            PairScorer::Rows { score, table, ic } => score(table, ic, table.view(a), table.view(b)),
            PairScorer::ShortestPath {
                table,
                taxonomy,
                bfs,
            } => {
                let (va, vb) = (table.view(a), table.view(b));
                let dist = bfs[a].get_or_init(|| taxonomy.undirected_distances(va.node));
                shortest_path_length_similarity(dist.get(vb.node as usize).copied().flatten())
            }
            PairScorer::Runner { runner, ctx, table } => {
                runner.similarity(ctx, table.view(a).concept, table.view(b).concept)
            }
        }
    }
}
