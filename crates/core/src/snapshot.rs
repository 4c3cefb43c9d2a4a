//! `SSTSNAP1` — versioned binary snapshots of a built toolkit.
//!
//! A snapshot captures everything a replica needs to reconstruct an
//! [`SstToolkit`] without re-parsing ontology source documents: the
//! build configuration, the exact component arenas of every
//! registered ontology, and the prepared dense-vector tables (an embedded
//! `SSTVEC1` section). Because `SstBuilder::build` is a pure function of
//! the registered ontologies and the configuration, serializing the arenas
//! verbatim is sufficient for *bit-identical* round trips — all 20
//! measures score exactly the same on an imported toolkit.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   b"SSTSNAP1"
//! tree mode        u8        0 = SuperThing, 1 = MergedThing
//! probability mode u8        0 = InstanceCorpusWithFallback, 1 = SubclassCount
//! ontology count   u32
//! per ontology     u64 len + payload (metadata, then the five arenas)
//! vectors section  u64 len + SSTVEC1 bytes (prepared tables)
//! checksum         u64       FNV-1a over everything before it
//! ```
//!
//! Like the `SSTVEC1` loader, the checksum is verified **before** any
//! field is parsed — a flipped byte anywhere is a checksum error, never an
//! arbitrary downstream parse error — and the whole load is governed by
//! [`sst_limits::Limits`] (input size, per-component item budget, string
//! literal lengths). Every cross-arena id is validated by
//! [`Ontology::from_arenas`] before an ontology is handed to the builder.

use crate::facade::{ProbabilityModeConfig, SstConfig, SstToolkit};
use crate::sealed::{fnv1a, unseal, Cursor, Framing};
use crate::tree::TreeMode;
use sst_limits::{Budget, LimitViolation, Limits};
use sst_soqa::{
    Attribute, AttributeId, Concept, ConceptId, Instance, InstanceId, Method, MethodId, Ontology,
    OntologyMetadata, Parameter, Relationship, RelationshipId,
};
use std::fmt;

/// Magic + version prefix of the snapshot format.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SSTSNAP1";

/// A parse failure of the snapshot binary format.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotFormatError {
    /// The input ended before the named field.
    Truncated(&'static str),
    /// The magic/version prefix does not match [`SNAPSHOT_MAGIC`].
    BadMagic,
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
            SnapshotFormatError::BadMagic => write!(f, "not an SSTSNAP1 snapshot"),
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
/// ontologies (in registration order), and the raw embedded `SSTVEC1`
/// prepared-table section. [`SstToolkit::import_snapshot`] rebuilds the
/// toolkit from these and verifies the rebuilt prepared tables against
/// the stored ones.
#[derive(Debug)]
pub struct SnapshotFile {
    pub config: SstConfig,
    pub ontologies: Vec<Ontology>,
    /// The embedded `SSTVEC1` bytes, exactly as stored.
    pub vectors: Vec<u8>,
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

/// Serializes a built toolkit into an `SSTSNAP1` snapshot.
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
        let section = encode_ontology(soqa.ontology_at(idx));
        put_u64(&mut out, section.len() as u64);
        out.extend_from_slice(&section);
    }
    let vectors = toolkit.export_vectors();
    put_u64(&mut out, vectors.len() as u64);
    out.extend_from_slice(&vectors);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

// ---- decoding ---------------------------------------------------------

/// The snapshot's composite fields, read as length-prefixed UTF-8
/// strings, optional strings and id lists under the load's budget.
impl Cursor<'_> {
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
    /// is bounded by `max_input_bytes`, every component by `max_items`,
    /// and every string by `max_literal_bytes`. The checksum is verified
    /// before any field is parsed, so a flipped byte anywhere surfaces
    /// as [`SnapshotFormatError::Checksum`].
    pub fn from_bytes(bytes: &[u8], limits: &Limits) -> Result<SnapshotFile, SnapshotFormatError> {
        let mut budget = Budget::new(limits);
        budget.check_input(bytes.len(), "snapshot")?;

        let mut cur = unseal(bytes)?;
        if cur.take(SNAPSHOT_MAGIC.len(), "magic")? != SNAPSHOT_MAGIC {
            return Err(SnapshotFormatError::BadMagic);
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
            let len = cur.u64("ontology section length")?;
            let len = usize::try_from(len).map_err(|_| SnapshotFormatError::BadValue {
                field: "ontology section length",
                value: len,
            })?;
            let section = cur.take(len, "ontology section")?;
            ontologies.push(decode_ontology(section, &mut budget)?);
        }

        let vectors_len = cur.u64("vectors section length")?;
        let vectors_len =
            usize::try_from(vectors_len).map_err(|_| SnapshotFormatError::BadValue {
                field: "vectors section length",
                value: vectors_len,
            })?;
        let vectors = cur.take(vectors_len, "vectors section")?.to_vec();

        cur.finish()?;

        Ok(SnapshotFile {
            config: SstConfig {
                tree_mode,
                probability_mode,
            },
            ontologies,
            vectors,
        })
    }
}
