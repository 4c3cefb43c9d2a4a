//! `SSTSNAP2` — versioned binary snapshots of a built toolkit.
//!
//! A snapshot captures everything a replica needs to reconstruct an
//! [`SstToolkit`] without re-parsing ontology source documents,
//! re-analysing concept descriptions or re-inserting vector rows: the
//! build configuration, the exact component arenas of every registered
//! ontology, the full-text index's vocabulary and per-document term
//! lists, the prepared dense-vector tables (an embedded `SSTVEC1`
//! section), and the vector store's NSW proximity graph. The loader
//! assembles the toolkit through the same function as
//! `SstBuilder::build`, taking the index and the graph from their
//! sections and deriving the rest (tree, IC, TF-IDF vectors,
//! embeddings, concept table), so all 20 measures, every ANN candidate
//! list and every alignment come out *bit-identical*.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   b"SSTSNAP2"
//! tree mode        u8        0 = SuperThing, 1 = MergedThing
//! probability mode u8        0 = InstanceCorpusWithFallback, 1 = SubclassCount
//! ontology count   u32
//! per ontology     u64 len + payload (metadata, then the five arenas)
//! index section    u64 len + payload:
//!   term count     u32, then per term in term-id order: u32 len + UTF-8
//!   document count u32, then per document in doc-id order:
//!                  u32 pair count + (u32 term id, u32 tf) pairs
//! vectors section  u64 len + SSTVEC1 bytes (prepared tables)
//! graph section    u64 len + payload:
//!   row count      u32, then per store row: u32 degree + u32 row ids
//! checksum         u64       FNV-1a over everything before it
//! ```
//!
//! Not stored, because the loader derives them: the document keys (one
//! per concept of the unified tree, in tree order), the document lengths
//! (the summed term frequencies) and the postings (pushed document by
//! document, as the index builder pushes them).
//!
//! Like the `SSTVEC1` loader, the checksum is verified **before** any
//! field is parsed — a flipped byte anywhere is a checksum error, never an
//! arbitrary downstream parse error — and the whole load is governed by
//! [`sst_limits::Limits`] (input size, one item per component, term,
//! document and graph row, string and list lengths), with no capacity
//! taken from a declared count. Every cross-arena id is validated by
//! [`Ontology::from_arenas`], every term list by
//! `InvertedIndex::from_parts` and every graph row against the store
//! before the toolkit is assembled; and the embeddings derived from the
//! loaded index must equal the stored `SSTVEC1` bytes.
//!
//! The version names the derivation, not only the layout: a change to
//! the analyzer, to `embed_tfidf` or to the graph construction changes
//! what a section means, so it bumps the magic. A file of a retired
//! version (`SSTSNAP1`, which held no index or graph) is refused with
//! [`SnapshotFormatError::Retired`]: there is one load path.

use crate::facade::{ProbabilityModeConfig, SstConfig, SstToolkit};
use crate::sealed::{fnv1a, unseal, Cursor, Framing};
use crate::tree::TreeMode;
use sst_index::{DocId, InvertedIndex, TermId};
use sst_limits::{Budget, LimitViolation, Limits};
use sst_soqa::{
    Attribute, AttributeId, Concept, ConceptId, Instance, InstanceId, Method, MethodId, Ontology,
    OntologyMetadata, Parameter, Relationship, RelationshipId,
};
use std::fmt;

/// Magic + version prefix of the snapshot format.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SSTSNAP2";

/// Magic of the retired first version, which stored no index or graph.
const RETIRED_MAGIC: &[u8; 8] = b"SSTSNAP1";

/// A parse failure of the snapshot binary format.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotFormatError {
    /// The input ended before the named field.
    Truncated(&'static str),
    /// The magic/version prefix does not match [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The input is a snapshot of the named retired version, which this
    /// reader no longer reads: build the toolkit from its ontology
    /// sources and export it again.
    Retired(&'static str),
    /// A field holds a value outside its legal range.
    BadValue { field: &'static str, value: u64 },
    /// A string field is not valid UTF-8.
    BadUtf8(&'static str),
    /// Trailing bytes after the checksum, or inside a length-prefixed
    /// section after its payload.
    TrailingBytes(usize),
    /// The stored checksum does not match the content.
    Checksum { expected: u64, actual: u64 },
    /// A decoded ontology failed arena validation (dangling id,
    /// duplicate concept name).
    Ontology(String),
    /// A resource limit was exceeded while loading.
    Limit(LimitViolation),
}

impl fmt::Display for SnapshotFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotFormatError::Truncated(what) => {
                write!(f, "snapshot truncated at {what}")
            }
            SnapshotFormatError::BadMagic => write!(f, "not an SSTSNAP2 snapshot"),
            SnapshotFormatError::Retired(version) => write!(
                f,
                "{version} is a retired snapshot version: build the toolkit from its \
                 ontology sources and re-export it as SSTSNAP2"
            ),
            SnapshotFormatError::BadValue { field, value } => {
                write!(f, "snapshot field {field} holds invalid value {value}")
            }
            SnapshotFormatError::BadUtf8(what) => {
                write!(f, "snapshot field {what} is not valid UTF-8")
            }
            SnapshotFormatError::TrailingBytes(n) => {
                write!(f, "{n} unexpected trailing byte(s)")
            }
            SnapshotFormatError::Checksum { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            SnapshotFormatError::Ontology(message) => {
                write!(f, "snapshot ontology invalid: {message}")
            }
            SnapshotFormatError::Limit(v) => write!(f, "snapshot over limit: {v}"),
        }
    }
}

impl std::error::Error for SnapshotFormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotFormatError::Limit(v) => Some(v),
            _ => None,
        }
    }
}

impl From<LimitViolation> for SnapshotFormatError {
    fn from(v: LimitViolation) -> Self {
        SnapshotFormatError::Limit(v)
    }
}

impl From<Framing> for SnapshotFormatError {
    fn from(f: Framing) -> Self {
        match f {
            Framing::Truncated(what) => SnapshotFormatError::Truncated(what),
            Framing::Checksum { expected, actual } => {
                SnapshotFormatError::Checksum { expected, actual }
            }
            Framing::TrailingBytes(n) => SnapshotFormatError::TrailingBytes(n),
        }
    }
}

/// A decoded snapshot: the build configuration, the reconstructed
/// ontologies (in registration order), the full-text index's parts, the
/// raw embedded `SSTVEC1` prepared-table section and the proximity
/// graph. [`SstToolkit::import_snapshot`] assembles the toolkit from
/// these and verifies the embeddings it derives against the stored
/// tables.
#[derive(Debug)]
pub struct SnapshotFile {
    pub config: SstConfig,
    pub ontologies: Vec<Ontology>,
    /// The embedded `SSTVEC1` bytes, exactly as stored.
    pub vectors: Vec<u8>,
    /// The index vocabulary, in term-id order.
    pub(crate) terms: Vec<String>,
    /// Per document, in doc-id order: its `(term id, tf)` pairs.
    pub(crate) doc_terms: Vec<Vec<(TermId, u32)>>,
    /// Per vector-store row: its neighbors' row ids.
    pub(crate) graph: Vec<Vec<u32>>,
}

// ---- encoding ---------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[u32]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u32(out, id);
    }
}

fn encode_metadata(out: &mut Vec<u8>, m: &OntologyMetadata) {
    put_str(out, &m.name);
    put_opt(out, &m.author);
    put_opt(out, &m.last_modified);
    put_opt(out, &m.documentation);
    put_opt(out, &m.version);
    put_opt(out, &m.copyright);
    put_opt(out, &m.uri);
    put_str(out, &m.language);
}

fn encode_ontology(ontology: &Ontology) -> Vec<u8> {
    let mut out = Vec::new();
    encode_metadata(&mut out, &ontology.metadata);

    put_u32(&mut out, ontology.concept_count() as u32);
    for id in ontology.concept_ids() {
        let c = ontology.concept(id);
        put_str(&mut out, &c.name);
        put_opt(&mut out, &c.documentation);
        put_opt(&mut out, &c.definition);
        // Every link vector is stored verbatim (including the derived
        // `sub_concepts`): replaying builder calls would not reproduce
        // an ontology whose relationships were declared before all of
        // their participant concepts existed.
        let as_raw = |ids: &[ConceptId]| ids.iter().map(|i| i.0).collect::<Vec<_>>();
        put_ids(&mut out, &as_raw(&c.super_concepts));
        put_ids(&mut out, &as_raw(&c.sub_concepts));
        put_ids(&mut out, &as_raw(&c.equivalent_concepts));
        put_ids(&mut out, &as_raw(&c.antonym_concepts));
        put_ids(
            &mut out,
            &c.attributes.iter().map(|i| i.0).collect::<Vec<_>>(),
        );
        put_ids(&mut out, &c.methods.iter().map(|i| i.0).collect::<Vec<_>>());
        put_ids(
            &mut out,
            &c.relationships.iter().map(|i| i.0).collect::<Vec<_>>(),
        );
        put_ids(
            &mut out,
            &c.instances.iter().map(|i| i.0).collect::<Vec<_>>(),
        );
    }

    put_u32(&mut out, ontology.attributes().len() as u32);
    for a in ontology.attributes() {
        put_str(&mut out, &a.name);
        put_opt(&mut out, &a.documentation);
        put_opt(&mut out, &a.data_type);
        put_opt(&mut out, &a.definition);
        put_u32(&mut out, a.concept.0);
    }

    put_u32(&mut out, ontology.methods().len() as u32);
    for m in ontology.methods() {
        put_str(&mut out, &m.name);
        put_opt(&mut out, &m.documentation);
        put_opt(&mut out, &m.definition);
        put_u32(&mut out, m.parameters.len() as u32);
        for p in &m.parameters {
            put_str(&mut out, &p.name);
            put_opt(&mut out, &p.data_type);
        }
        put_opt(&mut out, &m.return_type);
        put_u32(&mut out, m.concept.0);
    }

    put_u32(&mut out, ontology.relationships().len() as u32);
    for r in ontology.relationships() {
        put_str(&mut out, &r.name);
        put_opt(&mut out, &r.documentation);
        put_opt(&mut out, &r.definition);
        put_u64(&mut out, r.arity as u64);
        put_u32(&mut out, r.related_concepts.len() as u32);
        for name in &r.related_concepts {
            put_str(&mut out, name);
        }
    }

    put_u32(&mut out, ontology.instances().len() as u32);
    for i in ontology.instances() {
        put_str(&mut out, &i.name);
        put_u32(&mut out, i.concept.0);
        put_u32(&mut out, i.attribute_values.len() as u32);
        for (k, v) in &i.attribute_values {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        put_u32(&mut out, i.relationship_values.len() as u32);
        for (k, v) in &i.relationship_values {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
    }

    out
}

fn encode_index(index: &InvertedIndex) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, index.term_count() as u32);
    for term in index.vocabulary() {
        put_str(&mut out, term);
    }
    put_u32(&mut out, index.doc_count() as u32);
    for doc in 0..index.doc_count() {
        let pairs = index.doc_terms(DocId(doc as u32));
        put_u32(&mut out, pairs.len() as u32);
        for &(term, tf) in pairs {
            put_u32(&mut out, term.0);
            put_u32(&mut out, tf);
        }
    }
    out
}

fn encode_graph(adjacency: &[Vec<u32>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, adjacency.len() as u32);
    for ids in adjacency {
        put_ids(&mut out, ids);
    }
    out
}

fn put_section(out: &mut Vec<u8>, section: &[u8]) {
    put_u64(out, section.len() as u64);
    out.extend_from_slice(section);
}

/// Serializes a built toolkit into an `SSTSNAP2` snapshot.
pub fn encode_snapshot(toolkit: &SstToolkit) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.push(match toolkit.config().tree_mode {
        TreeMode::SuperThing => 0,
        TreeMode::MergedThing => 1,
    });
    out.push(match toolkit.config().probability_mode {
        ProbabilityModeConfig::InstanceCorpusWithFallback => 0,
        ProbabilityModeConfig::SubclassCount => 1,
    });
    let soqa = toolkit.soqa();
    put_u32(&mut out, soqa.ontology_count() as u32);
    for idx in 0..soqa.ontology_count() {
        put_section(&mut out, &encode_ontology(soqa.ontology_at(idx)));
    }
    put_section(&mut out, &encode_index(toolkit.index()));
    put_section(&mut out, &toolkit.export_vectors());
    put_section(&mut out, &encode_graph(toolkit.vector_store().adjacency()));
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

// ---- decoding ---------------------------------------------------------

/// The snapshot's composite fields, read as length-prefixed UTF-8
/// strings, optional strings, id lists and sections under the load's
/// budget.
impl<'a> Cursor<'a> {
    fn string(
        &mut self,
        budget: &mut Budget,
        what: &'static str,
    ) -> Result<String, SnapshotFormatError> {
        let len = self.u32(what)? as usize;
        budget.check_literal(len, what)?;
        std::str::from_utf8(self.take(len, what)?)
            .map(str::to_owned)
            .map_err(|_| SnapshotFormatError::BadUtf8(what))
    }

    fn opt_string(
        &mut self,
        budget: &mut Budget,
        what: &'static str,
    ) -> Result<Option<String>, SnapshotFormatError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.string(budget, what)?)),
            v => Err(SnapshotFormatError::BadValue {
                field: what,
                value: u64::from(v),
            }),
        }
    }

    fn ids<T>(
        &mut self,
        budget: &mut Budget,
        what: &'static str,
        wrap: fn(u32) -> T,
    ) -> Result<Vec<T>, SnapshotFormatError> {
        let count = self.u32(what)? as usize;
        // Each id is 4 bytes of remaining input, so a hostile count is
        // caught by `take` before any large allocation.
        budget.check_literal(count.saturating_mul(4), what)?;
        let mut out = Vec::new();
        for _ in 0..count {
            out.push(wrap(self.u32(what)?));
        }
        Ok(out)
    }

    /// A `u64`-length-prefixed section.
    fn section(&mut self, what: &'static str) -> Result<&'a [u8], SnapshotFormatError> {
        let len = self.u64(what)?;
        let len = usize::try_from(len).map_err(|_| SnapshotFormatError::BadValue {
            field: what,
            value: len,
        })?;
        Ok(self.take(len, what)?)
    }
}

/// The index section: the vocabulary and the per-document term lists.
/// Their consistency is checked by `InvertedIndex::from_parts`.
type IndexParts = (Vec<String>, Vec<Vec<(TermId, u32)>>);

fn decode_index(section: &[u8], budget: &mut Budget) -> Result<IndexParts, SnapshotFormatError> {
    let mut cur = Cursor::new(section);
    let term_count = cur.u32("index term count")?;
    let mut terms = Vec::new();
    for _ in 0..term_count {
        budget.item("snapshot index term")?;
        terms.push(cur.string(budget, "index term")?);
    }
    let doc_count = cur.u32("index document count")?;
    let mut doc_terms = Vec::new();
    for _ in 0..doc_count {
        budget.item("snapshot index document")?;
        let pair_count = cur.u32("document term count")? as usize;
        budget.check_literal(pair_count.saturating_mul(8), "document term list")?;
        let mut pairs = Vec::new();
        for _ in 0..pair_count {
            let term = TermId(cur.u32("document term id")?);
            pairs.push((term, cur.u32("document term frequency")?));
        }
        doc_terms.push(pairs);
    }
    cur.finish()?;
    Ok((terms, doc_terms))
}

/// The graph section: one adjacency list per store row. The store
/// checks the lists against its rows (`VectorStore::with_graph`).
fn decode_graph(section: &[u8], budget: &mut Budget) -> Result<Vec<Vec<u32>>, SnapshotFormatError> {
    let mut cur = Cursor::new(section);
    let row_count = cur.u32("graph row count")?;
    let mut graph = Vec::new();
    for _ in 0..row_count {
        budget.item("snapshot graph row")?;
        graph.push(cur.ids(budget, "graph adjacency", |id| id)?);
    }
    cur.finish()?;
    Ok(graph)
}

fn decode_metadata(
    cur: &mut Cursor<'_>,
    budget: &mut Budget,
) -> Result<OntologyMetadata, SnapshotFormatError> {
    Ok(OntologyMetadata {
        name: cur.string(budget, "metadata name")?,
        author: cur.opt_string(budget, "metadata author")?,
        last_modified: cur.opt_string(budget, "metadata last_modified")?,
        documentation: cur.opt_string(budget, "metadata documentation")?,
        version: cur.opt_string(budget, "metadata version")?,
        copyright: cur.opt_string(budget, "metadata copyright")?,
        uri: cur.opt_string(budget, "metadata uri")?,
        language: cur.string(budget, "metadata language")?,
    })
}

fn decode_ontology(section: &[u8], budget: &mut Budget) -> Result<Ontology, SnapshotFormatError> {
    let mut cur = Cursor::new(section);
    let metadata = decode_metadata(&mut cur, budget)?;

    let concept_count = cur.u32("concept count")?;
    let mut concepts = Vec::new();
    for _ in 0..concept_count {
        budget.item("snapshot concept")?;
        concepts.push(Concept {
            name: cur.string(budget, "concept name")?,
            documentation: cur.opt_string(budget, "concept documentation")?,
            definition: cur.opt_string(budget, "concept definition")?,
            super_concepts: cur.ids(budget, "super concepts", ConceptId)?,
            sub_concepts: cur.ids(budget, "sub concepts", ConceptId)?,
            equivalent_concepts: cur.ids(budget, "equivalent concepts", ConceptId)?,
            antonym_concepts: cur.ids(budget, "antonym concepts", ConceptId)?,
            attributes: cur.ids(budget, "concept attributes", AttributeId)?,
            methods: cur.ids(budget, "concept methods", MethodId)?,
            relationships: cur.ids(budget, "concept relationships", RelationshipId)?,
            instances: cur.ids(budget, "concept instances", InstanceId)?,
        });
    }

    let attribute_count = cur.u32("attribute count")?;
    let mut attributes = Vec::new();
    for _ in 0..attribute_count {
        budget.item("snapshot attribute")?;
        attributes.push(Attribute {
            name: cur.string(budget, "attribute name")?,
            documentation: cur.opt_string(budget, "attribute documentation")?,
            data_type: cur.opt_string(budget, "attribute data type")?,
            definition: cur.opt_string(budget, "attribute definition")?,
            concept: ConceptId(cur.u32("attribute concept")?),
        });
    }

    let method_count = cur.u32("method count")?;
    let mut methods = Vec::new();
    for _ in 0..method_count {
        budget.item("snapshot method")?;
        let name = cur.string(budget, "method name")?;
        let documentation = cur.opt_string(budget, "method documentation")?;
        let definition = cur.opt_string(budget, "method definition")?;
        let parameter_count = cur.u32("parameter count")?;
        let mut parameters = Vec::new();
        for _ in 0..parameter_count {
            budget.item("snapshot parameter")?;
            parameters.push(Parameter {
                name: cur.string(budget, "parameter name")?,
                data_type: cur.opt_string(budget, "parameter data type")?,
            });
        }
        methods.push(Method {
            name,
            documentation,
            definition,
            parameters,
            return_type: cur.opt_string(budget, "method return type")?,
            concept: ConceptId(cur.u32("method concept")?),
        });
    }

    let relationship_count = cur.u32("relationship count")?;
    let mut relationships = Vec::new();
    for _ in 0..relationship_count {
        budget.item("snapshot relationship")?;
        let name = cur.string(budget, "relationship name")?;
        let documentation = cur.opt_string(budget, "relationship documentation")?;
        let definition = cur.opt_string(budget, "relationship definition")?;
        let arity = cur.u64("relationship arity")?;
        let arity = usize::try_from(arity).map_err(|_| SnapshotFormatError::BadValue {
            field: "relationship arity",
            value: arity,
        })?;
        let related_count = cur.u32("related concept count")?;
        let mut related_concepts = Vec::new();
        for _ in 0..related_count {
            budget.item("snapshot related concept")?;
            related_concepts.push(cur.string(budget, "related concept name")?);
        }
        relationships.push(Relationship {
            name,
            documentation,
            definition,
            arity,
            related_concepts,
        });
    }

    let instance_count = cur.u32("instance count")?;
    let mut instances = Vec::new();
    for _ in 0..instance_count {
        budget.item("snapshot instance")?;
        let name = cur.string(budget, "instance name")?;
        let concept = ConceptId(cur.u32("instance concept")?);
        let attribute_value_count = cur.u32("attribute value count")?;
        let mut attribute_values = Vec::new();
        for _ in 0..attribute_value_count {
            budget.item("snapshot attribute value")?;
            let k = cur.string(budget, "attribute value name")?;
            let v = cur.string(budget, "attribute value")?;
            attribute_values.push((k, v));
        }
        let relationship_value_count = cur.u32("relationship value count")?;
        let mut relationship_values = Vec::new();
        for _ in 0..relationship_value_count {
            budget.item("snapshot relationship value")?;
            let k = cur.string(budget, "relationship value name")?;
            let v = cur.string(budget, "relationship value")?;
            relationship_values.push((k, v));
        }
        instances.push(Instance {
            name,
            concept,
            attribute_values,
            relationship_values,
        });
    }

    cur.finish()?;

    Ontology::from_arenas(
        metadata,
        concepts,
        attributes,
        methods,
        relationships,
        instances,
    )
    .map_err(|e| SnapshotFormatError::Ontology(e.to_string()))
}

impl SnapshotFile {
    /// Decodes and validates a snapshot under `limits`: the whole input
    /// is bounded by `max_input_bytes`, every component, index term,
    /// index document and graph row by `max_items`, and every string and
    /// per-document or per-row list by `max_literal_bytes`. The checksum
    /// is verified before any field is parsed, so a flipped byte anywhere
    /// surfaces as [`SnapshotFormatError::Checksum`]; an intact `SSTSNAP1`
    /// file as [`SnapshotFormatError::Retired`].
    pub fn from_bytes(bytes: &[u8], limits: &Limits) -> Result<SnapshotFile, SnapshotFormatError> {
        let mut budget = Budget::new(limits);
        budget.check_input(bytes.len(), "snapshot")?;

        let mut cur = unseal(bytes)?;
        match cur.take(SNAPSHOT_MAGIC.len(), "magic")? {
            magic if magic == SNAPSHOT_MAGIC => {}
            magic if magic == RETIRED_MAGIC => {
                return Err(SnapshotFormatError::Retired("SSTSNAP1"))
            }
            _ => return Err(SnapshotFormatError::BadMagic),
        }
        let tree_mode = match cur.u8("tree mode")? {
            0 => TreeMode::SuperThing,
            1 => TreeMode::MergedThing,
            v => {
                return Err(SnapshotFormatError::BadValue {
                    field: "tree mode",
                    value: u64::from(v),
                })
            }
        };
        let probability_mode = match cur.u8("probability mode")? {
            0 => ProbabilityModeConfig::InstanceCorpusWithFallback,
            1 => ProbabilityModeConfig::SubclassCount,
            v => {
                return Err(SnapshotFormatError::BadValue {
                    field: "probability mode",
                    value: u64::from(v),
                })
            }
        };

        let ontology_count = cur.u32("ontology count")?;
        let mut ontologies = Vec::new();
        for _ in 0..ontology_count {
            budget.item("snapshot ontology")?;
            let section = cur.section("ontology section")?;
            ontologies.push(decode_ontology(section, &mut budget)?);
        }
        let (terms, doc_terms) = decode_index(cur.section("index section")?, &mut budget)?;
        let vectors = cur.section("vectors section")?.to_vec();
        let graph = decode_graph(cur.section("graph section")?, &mut budget)?;
        cur.finish()?;

        Ok(SnapshotFile {
            config: SstConfig {
                tree_mode,
                probability_mode,
            },
            ontologies,
            vectors,
            terms,
            doc_terms,
            graph,
        })
    }
}
