//! Test-side tools for the toolkit's two sealed binary formats,
//! `SSTSNAP2` snapshots and `SSTVEC1` vector files: the FNV-1a trailer,
//! resealing an edited body, the snapshot split at its sections with the
//! index and graph sections decoded (so a test can craft a hostile
//! section that still passes the checksum), and a field walker that
//! lists where each field of a file starts (so a mutator can truncate at
//! a field or overwrite one).
//!
//! These readers follow the layouts documented in `sst_core::snapshot`
//! and `sst_core::vector` independently of the loaders they are used to
//! test. They expect a well-formed file and return `None` otherwise.

/// 64-bit FNV-1a over `bytes`: the checksum that closes both formats.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Appends the FNV-1a trailer to `body`.
pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// The body of the sealed file `sealed` after `edit`, sealed with a
/// valid trailer again, so the edit reaches the field decoders instead
/// of failing at the checksum.
pub fn reseal(sealed: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut body = sealed[..sealed.len().saturating_sub(8)].to_vec();
    edit(&mut body);
    seal(body)
}

/// One field of a file body: its offset and width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    pub offset: usize,
    pub width: usize,
}

/// A bounds-checked little-endian reader that records every field it
/// reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    fields: Vec<Field>,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            fields: Vec::new(),
        }
    }

    fn take(&mut self, width: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(width)?)?;
        self.fields.push(Field {
            offset: self.pos,
            width,
        });
        self.pos += width;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A `u32` count followed by that many length-prefixed strings.
    fn strings(&mut self) -> Option<Vec<String>> {
        let count = self.u32()?;
        let mut out = Vec::new();
        for _ in 0..count {
            let len = self.u32()? as usize;
            out.push(String::from_utf8(self.take(len)?.to_vec()).ok()?);
        }
        Some(out)
    }

    /// The fields of an embedded `SSTVEC1` file of `len` bytes.
    fn vectors(&mut self, len: usize) -> Option<&'a [u8]> {
        let start = self.pos;
        self.take(8)?; // magic
        let dim = self.u32()? as usize;
        let count = self.u64()?;
        for _ in 0..count {
            let label = self.u32()? as usize;
            self.take(label)?;
            for _ in 0..dim {
                self.take(8)?;
            }
        }
        self.take(8)?; // its own checksum
        (self.pos - start == len).then(|| &self.bytes[start..self.pos])
    }
}

/// An `SSTSNAP2` snapshot split at its sections, with the index and
/// graph sections decoded. [`SnapshotSections::encode`] writes it back,
/// sealed, so a test can change one section and still pass the checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSections {
    /// Everything before the index section: the magic, the mode bytes,
    /// the ontology count and the ontology sections.
    pub head: Vec<u8>,
    /// The index vocabulary, in term-id order.
    pub terms: Vec<String>,
    /// Per document: its `(term id, tf)` pairs.
    pub docs: Vec<Vec<(u32, u32)>>,
    /// The embedded `SSTVEC1` file.
    pub vectors: Vec<u8>,
    /// Per store row: its neighbors' row ids.
    pub graph: Vec<Vec<u32>>,
}

impl SnapshotSections {
    /// Splits a well-formed sealed snapshot.
    pub fn parse(snapshot: &[u8]) -> Option<SnapshotSections> {
        walk_snapshot(snapshot).map(|(sections, _)| sections)
    }

    /// The index section's body.
    pub fn index_section(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.terms.len() as u32);
        for term in &self.terms {
            put_u32(&mut out, term.len() as u32);
            out.extend_from_slice(term.as_bytes());
        }
        put_u32(&mut out, self.docs.len() as u32);
        for pairs in &self.docs {
            put_u32(&mut out, pairs.len() as u32);
            for &(term, tf) in pairs {
                put_u32(&mut out, term);
                put_u32(&mut out, tf);
            }
        }
        out
    }

    /// The graph section's body.
    fn graph_section(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.graph.len() as u32);
        for ids in &self.graph {
            put_u32(&mut out, ids.len() as u32);
            for &id in ids {
                put_u32(&mut out, id);
            }
        }
        out
    }

    /// The sealed snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = self.head.clone();
        for section in [
            self.index_section(),
            self.vectors.clone(),
            self.graph_section(),
        ] {
            body.extend_from_slice(&(section.len() as u64).to_le_bytes());
            body.extend_from_slice(&section);
        }
        seal(body)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Walks a sealed snapshot: its sections and the fields of its body.
/// An ontology section is one opaque field after its length.
fn walk_snapshot(snapshot: &[u8]) -> Option<(SnapshotSections, Vec<Field>)> {
    let body = snapshot.get(..snapshot.len().checked_sub(8)?)?;
    let mut r = Reader::new(body);
    r.take(8)?; // magic
    r.take(1)?; // tree mode
    r.take(1)?; // probability mode
    for _ in 0..r.u32()? {
        let len = r.u64()? as usize;
        r.take(len)?;
    }
    let head = body[..r.pos].to_vec();

    let index_end = (r.u64()? as usize).checked_add(r.pos)?;
    let terms = r.strings()?;
    let mut docs = Vec::new();
    for _ in 0..r.u32()? {
        let mut pairs = Vec::new();
        for _ in 0..r.u32()? {
            pairs.push((r.u32()?, r.u32()?));
        }
        docs.push(pairs);
    }
    if r.pos != index_end {
        return None;
    }

    let vectors_len = r.u64()? as usize;
    let vectors = r.vectors(vectors_len)?.to_vec();

    let graph_end = (r.u64()? as usize).checked_add(r.pos)?;
    let mut graph = Vec::new();
    for _ in 0..r.u32()? {
        let mut ids = Vec::new();
        for _ in 0..r.u32()? {
            ids.push(r.u32()?);
        }
        graph.push(ids);
    }
    if r.pos != graph_end || r.pos != body.len() {
        return None;
    }
    let sections = SnapshotSections {
        head,
        terms,
        docs,
        vectors,
        graph,
    };
    Some((sections, r.fields))
}

/// The fields of a well-formed sealed snapshot's body, in file order:
/// header, section lengths, counts, strings, term ids and frequencies,
/// vector components and adjacency ids.
pub fn snapshot_fields(snapshot: &[u8]) -> Option<Vec<Field>> {
    walk_snapshot(snapshot).map(|(_, fields)| fields)
}

/// The fields of a well-formed sealed `SSTVEC1` file's body, in file
/// order.
pub fn vector_fields(file: &[u8]) -> Option<Vec<Field>> {
    let mut r = Reader::new(file);
    r.vectors(file.len())?;
    let mut fields = r.fields;
    fields.pop(); // the trailer is not part of the body
    Some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_taxonomy, TaxonomySpec};

    fn snapshot() -> Vec<u8> {
        sst_core::SstBuilder::new()
            .register_ontology(generate_taxonomy(TaxonomySpec {
                concepts: 30,
                branching: 3,
                instances: 8,
                seed: 5,
            }))
            .unwrap()
            .build()
            .export_snapshot()
    }

    #[test]
    fn sections_encode_back_to_the_snapshot() {
        let bytes = snapshot();
        let sections = SnapshotSections::parse(&bytes).unwrap();
        assert_eq!(&sections.head[..8], sst_core::SNAPSHOT_MAGIC);
        assert!(!sections.terms.is_empty() && !sections.docs.is_empty());
        assert_eq!(sections.graph.len(), 30);
        assert_eq!(sections.encode(), bytes);
    }

    #[test]
    fn fields_tile_the_body() {
        let bytes = snapshot();
        let fields = snapshot_fields(&bytes).unwrap();
        let mut end = 0;
        for f in &fields {
            assert_eq!(f.offset, end, "fields leave a gap or overlap");
            end += f.width;
        }
        assert_eq!(end, bytes.len() - 8);
        let sections = SnapshotSections::parse(&bytes).unwrap();
        let vector_body = vector_fields(&sections.vectors).unwrap();
        let covered: usize = vector_body.iter().map(|f| f.width).sum();
        assert_eq!(covered, sections.vectors.len() - 8);
    }

    #[test]
    fn reseal_recomputes_the_trailer() {
        let bytes = snapshot();
        assert_eq!(reseal(&bytes, |_| {}), bytes);
        let edited = reseal(&bytes, |body| body[8] ^= 1);
        assert_eq!(edited.len(), bytes.len());
        let (body, trailer) = edited.split_at(edited.len() - 8);
        assert_eq!(trailer, fnv1a(body).to_le_bytes());
    }
}
