//! The inverted index: the Lucene stand-in behind the TFIDF measure.

use std::collections::HashMap;
use std::fmt;

use sst_limits::{Budget, LimitViolation, Limits};
use sst_obs::Metrics;

use crate::tokenizer::analyze;

/// Identifier of an indexed document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// Interned term identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// One posting: a document and the term's frequency in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    pub doc: DocId,
    pub tf: u32,
}

#[derive(Debug)]
struct DocEntry {
    key: String,
    /// Total number of tokens after analysis.
    length: u32,
}

/// An immutable inverted index over a set of documents.
///
/// Build one with [`IndexBuilder`]; query term statistics, TF-IDF vectors,
/// and top-k cosine matches through the accessors here.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    docs: Vec<DocEntry>,
    keys: HashMap<String, DocId>,
    terms: Vec<String>,
    term_ids: HashMap<String, TermId>,
    postings: Vec<Vec<Posting>>,
    /// Per-document term vectors (term id → tf), sorted by term id.
    doc_terms: Vec<Vec<(TermId, u32)>>,
    /// Registry the search path records into (see [`IndexBuilder::with_metrics`]).
    metrics: Option<Metrics>,
}

impl InvertedIndex {
    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// The document's key (as supplied at add time).
    pub fn doc_key(&self, doc: DocId) -> &str {
        &self.docs[doc.0 as usize].key
    }

    /// Token count of the document after analysis.
    pub fn doc_length(&self, doc: DocId) -> u32 {
        self.docs[doc.0 as usize].length
    }

    /// Looks up a document by key.
    pub fn doc_by_key(&self, key: &str) -> Option<DocId> {
        self.keys.get(key).copied()
    }

    /// The vocabulary, in term-id order.
    pub fn vocabulary(&self) -> &[String] {
        &self.terms
    }

    /// The document's `(term id, tf)` pairs, sorted by term id (empty for
    /// an unknown document).
    pub fn doc_terms(&self, doc: DocId) -> &[(TermId, u32)] {
        self.doc_terms
            .get(doc.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Reassembles an index from the parts [`InvertedIndex::vocabulary`]
    /// and [`InvertedIndex::doc_terms`] expose, plus the document keys
    /// in doc-id order, without analysing any text. Lengths are the sums
    /// of the term frequencies and postings are pushed document by
    /// document, as [`IndexBuilder`] pushes them, so an index rebuilt
    /// from a built index's parts equals it.
    ///
    /// The parts are validated first: one term list per key, distinct
    /// keys, a duplicate-free vocabulary, term ids below the vocabulary
    /// size and strictly ascending within a document, every frequency at
    /// least 1, and term ids numbered in order of first occurrence with
    /// every vocabulary entry used, as the builder numbers them.
    ///
    /// The index records into `metrics` like a builder made by
    /// [`IndexBuilder::with_metrics`]: `index.docs`, `index.terms` and
    /// `index.tokens` grow by the document count, the vocabulary size
    /// and the summed lengths, and searches record `index.search.*`.
    pub fn from_parts(
        keys: Vec<String>,
        terms: Vec<String>,
        doc_terms: Vec<Vec<(TermId, u32)>>,
        metrics: Metrics,
    ) -> Result<InvertedIndex, IndexPartsError> {
        if keys.len() != doc_terms.len() {
            return Err(IndexPartsError::DocCount {
                keys: keys.len(),
                docs: doc_terms.len(),
            });
        }
        let mut term_ids = HashMap::with_capacity(terms.len());
        for (i, term) in terms.iter().enumerate() {
            let id = TermId(i as u32);
            if term_ids.insert(term.clone(), id).is_some() {
                return Err(IndexPartsError::DuplicateTerm { term: id.0 });
            }
        }
        let mut postings: Vec<Vec<Posting>> = vec![Vec::new(); terms.len()];
        let mut docs = Vec::with_capacity(keys.len());
        let mut by_key = HashMap::with_capacity(keys.len());
        // The id the next term seen for the first time must carry.
        let mut next_new = 0u32;
        let mut tokens = 0u64;
        for (i, (key, pairs)) in keys.into_iter().zip(&doc_terms).enumerate() {
            let doc = DocId(i as u32);
            let mut length = 0u32;
            let mut previous: Option<TermId> = None;
            for &(term, tf) in pairs {
                let Some(list) = postings.get_mut(term.0 as usize) else {
                    return Err(IndexPartsError::TermOutOfRange {
                        doc: doc.0,
                        term: term.0,
                    });
                };
                if previous.is_some_and(|p| p >= term) {
                    return Err(IndexPartsError::UnsortedTerms { doc: doc.0 });
                }
                if tf == 0 {
                    return Err(IndexPartsError::ZeroFrequency {
                        doc: doc.0,
                        term: term.0,
                    });
                }
                if term.0 > next_new {
                    return Err(IndexPartsError::TermNumbering { term: next_new });
                }
                if term.0 == next_new {
                    next_new += 1;
                }
                length = length
                    .checked_add(tf)
                    .ok_or(IndexPartsError::LengthOverflow { doc: doc.0 })?;
                list.push(Posting { doc, tf });
                previous = Some(term);
            }
            if by_key.insert(key.clone(), doc).is_some() {
                return Err(IndexPartsError::DuplicateKey { doc: doc.0 });
            }
            tokens += u64::from(length);
            docs.push(DocEntry { key, length });
        }
        if (next_new as usize) < terms.len() {
            return Err(IndexPartsError::TermNumbering { term: next_new });
        }
        metrics.add("index.docs", docs.len() as u64);
        metrics.add("index.terms", terms.len() as u64);
        metrics.add("index.tokens", tokens);
        Ok(InvertedIndex {
            docs,
            keys: by_key,
            terms,
            term_ids,
            postings,
            doc_terms,
            metrics: Some(metrics),
        })
    }

    /// Document frequency of a term (0 for unknown terms).
    pub fn doc_freq(&self, term: &str) -> usize {
        self.term_ids
            .get(term)
            .map(|&t| self.postings[t.0 as usize].len())
            .unwrap_or(0)
    }

    /// Postings list for a term.
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.term_ids
            .get(term)
            .map(|&t| self.postings[t.0 as usize].as_slice())
            .unwrap_or(&[])
    }

    /// Smoothed inverse document frequency: `ln(1 + N / df)`.
    pub fn idf(&self, term_id: TermId) -> f64 {
        let df = self.postings[term_id.0 as usize].len() as f64;
        let n = self.docs.len() as f64;
        (1.0 + n / df).ln()
    }

    /// The TF-IDF weighted term vector of a document, sorted by term id,
    /// using `(1 + ln tf) * idf` weighting.
    pub fn tfidf_vector(&self, doc: DocId) -> Vec<(TermId, f64)> {
        self.doc_terms[doc.0 as usize]
            .iter()
            .map(|&(t, tf)| (t, (1.0 + (tf as f64).ln()) * self.idf(t)))
            .collect()
    }

    /// Cosine similarity of the TF-IDF vectors of two documents, in [0, 1].
    pub fn cosine(&self, a: DocId, b: DocId) -> f64 {
        let va = self.tfidf_vector(a);
        let vb = self.tfidf_vector(b);
        cosine_sparse(&va, &vb)
    }

    /// Analyzes `query` and returns the `k` best documents by TF-IDF cosine,
    /// best first. Ties break on ascending document id for determinism.
    pub fn search(&self, query: &str, k: usize) -> Vec<(DocId, f64)> {
        let _span = self.metrics.as_ref().map(|m| {
            m.inc("index.search.calls");
            m.span("index.search.latency")
        });
        let tokens = analyze(query);
        let mut tf: HashMap<TermId, u32> = HashMap::new();
        for token in tokens {
            if let Some(&t) = self.term_ids.get(&token) {
                *tf.entry(t).or_insert(0) += 1;
            }
        }
        let mut qvec: Vec<(TermId, f64)> = tf
            .into_iter()
            .map(|(t, f)| (t, (1.0 + (f as f64).ln()) * self.idf(t)))
            .collect();
        qvec.sort_by_key(|&(t, _)| t);

        // Score candidate documents through the postings lists.
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for &(t, qw) in &qvec {
            for &Posting { doc, tf } in &self.postings[t.0 as usize] {
                let dw = (1.0 + (tf as f64).ln()) * self.idf(t);
                *scores.entry(doc).or_insert(0.0) += qw * dw;
            }
        }
        let qnorm = norm(&qvec);
        let mut results: Vec<(DocId, f64)> = scores
            .into_iter()
            .map(|(doc, dot)| {
                let dnorm = norm(&self.tfidf_vector(doc));
                let denom = qnorm * dnorm;
                (doc, if denom > 0.0 { dot / denom } else { 0.0 })
            })
            .collect();
        results.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        results.truncate(k);
        results
    }
}

/// Why [`InvertedIndex::from_parts`] refused its parts. Documents and
/// terms are named by their ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexPartsError {
    /// The key count and the term-list count differ.
    DocCount { keys: usize, docs: usize },
    /// The document's key was already taken by an earlier document.
    DuplicateKey { doc: u32 },
    /// The vocabulary entry repeats an earlier one.
    DuplicateTerm { term: u32 },
    /// The document names a term id past the vocabulary.
    TermOutOfRange { doc: u32, term: u32 },
    /// The document's term ids are not strictly ascending.
    UnsortedTerms { doc: u32 },
    /// The document lists a term with frequency 0.
    ZeroFrequency { doc: u32, term: u32 },
    /// Term ids are not numbered in order of first occurrence: `term`
    /// is the id that should have occurred next, and was skipped or is
    /// never used.
    TermNumbering { term: u32 },
    /// The document's summed frequencies overflow a `u32` length.
    LengthOverflow { doc: u32 },
}

impl fmt::Display for IndexPartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexPartsError::DocCount { keys, docs } => {
                write!(f, "{docs} document term lists for {keys} documents")
            }
            IndexPartsError::DuplicateKey { doc } => {
                write!(f, "document {doc} repeats an earlier document's key")
            }
            IndexPartsError::DuplicateTerm { term } => {
                write!(f, "vocabulary entry {term} repeats an earlier entry")
            }
            IndexPartsError::TermOutOfRange { doc, term } => {
                write!(f, "document {doc} names term {term}, past the vocabulary")
            }
            IndexPartsError::UnsortedTerms { doc } => {
                write!(f, "document {doc} term ids are not strictly ascending")
            }
            IndexPartsError::ZeroFrequency { doc, term } => {
                write!(f, "document {doc} lists term {term} with frequency 0")
            }
            IndexPartsError::TermNumbering { term } => write!(
                f,
                "term ids are not numbered in order of first occurrence (term {term})"
            ),
            IndexPartsError::LengthOverflow { doc } => {
                write!(f, "document {doc} length overflows")
            }
        }
    }
}

impl std::error::Error for IndexPartsError {}

/// Cosine similarity of two sparse vectors sorted by term id.
pub fn cosine_sparse(a: &[(TermId, f64)], b: &[(TermId, f64)]) -> f64 {
    let denom = norm(a) * norm(b);
    if denom == 0.0 {
        return 0.0;
    }
    (dot(a, b) / denom).clamp(0.0, 1.0)
}

fn dot(a: &[(TermId, f64)], b: &[(TermId, f64)]) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut sum = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

fn norm(v: &[(TermId, f64)]) -> f64 {
    v.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
}

/// Builder accumulating documents before freezing them into an
/// [`InvertedIndex`].
#[derive(Debug)]
pub struct IndexBuilder {
    index: InvertedIndex,
    budget: Budget,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder::new()
    }
}

impl IndexBuilder {
    /// An unbounded builder: index contents come from documents the caller
    /// already parsed under its own limits, so `new()` applies none.
    pub fn new() -> Self {
        IndexBuilder {
            index: InvertedIndex::default(),
            budget: Budget::new(&Limits::unbounded()),
        }
    }

    /// A builder that enforces a resource [`Limits`] policy while indexing:
    /// the item cap bounds documents plus distinct terms, the step budget
    /// bounds total analyzed bytes, and the literal cap bounds any single
    /// document. Exceeding a limit makes [`IndexBuilder::try_add_document`]
    /// return the violation.
    pub fn with_limits(limits: &Limits) -> Self {
        IndexBuilder {
            index: InvertedIndex::default(),
            budget: Budget::new(limits),
        }
    }

    /// Like [`IndexBuilder::new`], but the builder and the built index
    /// record throughput into `metrics`: `index.docs`, `index.terms` and
    /// `index.tokens` counters while indexing, plus `index.search.calls` /
    /// `index.search.latency` on the query path.
    pub fn with_metrics(metrics: Metrics) -> Self {
        IndexBuilder {
            index: InvertedIndex {
                metrics: Some(metrics),
                ..InvertedIndex::default()
            },
            budget: Budget::new(&Limits::unbounded()),
        }
    }

    /// Analyzes `text` and adds it under `key`. Re-adding an existing key
    /// replaces nothing — it returns the existing id (documents are
    /// immutable once added).
    pub fn add_document(&mut self, key: impl Into<String>, text: &str) -> DocId {
        // new()/with_metrics() builders are unbounded; limited builders are
        // only built via with_limits(), whose callers use try_add_document.
        // lint: allow(panic) unreachable on the unbounded builders this method documents
        self.try_add_document(key, text).expect("unbounded builder")
    }

    /// Like [`IndexBuilder::add_document`], but charges the builder's
    /// resource budget and reports the violation instead of indexing when
    /// a limit is exceeded. On an unbounded builder this never fails.
    ///
    /// On failure no document is added; terms interned before the
    /// violation stay in the vocabulary (with empty postings), which only
    /// costs memory already accounted to the item budget.
    pub fn try_add_document(
        &mut self,
        key: impl Into<String>,
        text: &str,
    ) -> Result<DocId, LimitViolation> {
        let key = key.into();
        if let Some(&existing) = self.index.keys.get(&key) {
            return Ok(existing);
        }
        self.budget.item("index documents")?;
        self.budget.check_literal(text.len(), "index document")?;
        self.budget.charge_steps(text.len() as u64, "index bytes")?;
        // lint: allow(panic) id space (2^32 documents) exceeds any real corpus
        let doc = DocId(u32::try_from(self.index.docs.len()).expect("too many documents"));
        let tokens = analyze(text);
        let mut tf: HashMap<TermId, u32> = HashMap::new();
        let mut new_terms = 0u64;
        for token in &tokens {
            let term_id = match self.index.term_ids.get(token) {
                Some(&t) => t,
                None => {
                    self.budget.item("index terms")?;
                    let next_term = u32::try_from(self.index.terms.len()).expect("too many terms"); // lint: allow(panic) id space (2^32 terms) exceeds any real vocabulary
                    let t = TermId(next_term);
                    self.index.terms.push(token.clone());
                    self.index.term_ids.insert(token.clone(), t);
                    self.index.postings.push(Vec::new());
                    new_terms += 1;
                    t
                }
            };
            *tf.entry(term_id).or_insert(0) += 1;
        }
        let mut doc_vec: Vec<(TermId, u32)> = tf.into_iter().collect();
        doc_vec.sort_by_key(|&(t, _)| t);
        for &(t, f) in &doc_vec {
            self.index.postings[t.0 as usize].push(Posting { doc, tf: f });
        }
        if let Some(m) = &self.index.metrics {
            m.inc("index.docs");
            m.add("index.tokens", tokens.len() as u64);
            m.add("index.terms", new_terms);
        }
        self.index.docs.push(DocEntry {
            key: key.clone(),
            length: tokens.len() as u32,
        });
        self.index.keys.insert(key, doc);
        self.index.doc_terms.push(doc_vec);
        Ok(doc)
    }

    /// Freezes the builder.
    pub fn build(self) -> InvertedIndex {
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document("prof", "Professor teaching university courses and research");
        b.add_document("student", "Student attending university courses");
        b.add_document("bird", "Blackbird singing in trees feathers wings");
        b.build()
    }

    #[test]
    fn doc_and_term_counts() {
        let idx = sample();
        assert_eq!(idx.doc_count(), 3);
        assert!(idx.term_count() >= 10);
        assert_eq!(idx.doc_freq("univers"), 2);
        assert_eq!(idx.doc_freq("blackbird"), 1);
        assert_eq!(idx.doc_freq("unseen"), 0);
    }

    #[test]
    fn cosine_reflects_shared_vocabulary() {
        let idx = sample();
        let prof = idx.doc_by_key("prof").unwrap();
        let student = idx.doc_by_key("student").unwrap();
        let bird = idx.doc_by_key("bird").unwrap();
        let ps = idx.cosine(prof, student);
        let pb = idx.cosine(prof, bird);
        assert!(ps > pb, "prof~student ({ps}) should beat prof~bird ({pb})");
        assert!(pb == 0.0, "no shared terms: {pb}");
        assert!((idx.cosine(prof, prof) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_is_symmetric() {
        let idx = sample();
        let a = idx.doc_by_key("prof").unwrap();
        let b = idx.doc_by_key("student").unwrap();
        assert!((idx.cosine(a, b) - idx.cosine(b, a)).abs() < 1e-12);
    }

    #[test]
    fn search_ranks_by_relevance() {
        let idx = sample();
        let hits = idx.search("university courses", 10);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].1 >= hits[1].1);
        let keys: Vec<&str> = hits.iter().map(|&(d, _)| idx.doc_key(d)).collect();
        assert!(keys.contains(&"prof") && keys.contains(&"student"));
    }

    #[test]
    fn search_unknown_terms_returns_empty() {
        let idx = sample();
        assert!(idx.search("xylophone", 5).is_empty());
        assert!(idx.search("", 5).is_empty());
    }

    #[test]
    fn search_k_truncates() {
        let idx = sample();
        let hits = idx.search("university courses trees", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn duplicate_keys_return_same_doc() {
        let mut b = IndexBuilder::new();
        let a = b.add_document("k", "one two");
        let c = b.add_document("k", "three four");
        assert_eq!(a, c);
        assert_eq!(b.build().doc_count(), 1);
    }

    #[test]
    fn limited_builder_reports_violations() {
        let limits = Limits::default().with_max_items(2);
        let mut b = IndexBuilder::with_limits(&limits);
        // One document plus one distinct term fit the budget of 2...
        assert!(b.try_add_document("a", "alpha").is_ok());
        // ...but the second document is item #3.
        let violation = b.try_add_document("b", "alpha").unwrap_err();
        assert_eq!(violation.kind, sst_limits::LimitKind::Items);
        // Re-adding an existing key costs nothing even on an empty budget.
        assert!(b.try_add_document("a", "alpha").is_ok());
        assert_eq!(b.build().doc_count(), 1);
    }

    #[test]
    fn unbounded_builder_never_fails() {
        let mut b = IndexBuilder::with_limits(&Limits::unbounded());
        for i in 0..100 {
            assert!(b.try_add_document(format!("d{i}"), "text here").is_ok());
        }
        assert_eq!(b.build().doc_count(), 100);
    }

    /// The keys, vocabulary and term lists of `index`, as `from_parts`
    /// takes them.
    type Parts = (Vec<String>, Vec<String>, Vec<Vec<(TermId, u32)>>);

    fn parts(index: &InvertedIndex) -> Parts {
        let docs = (0..index.doc_count() as u32).map(DocId);
        (
            docs.clone().map(|d| index.doc_key(d).to_owned()).collect(),
            index.vocabulary().to_vec(),
            docs.map(|d| index.doc_terms(d).to_vec()).collect(),
        )
    }

    fn rebuild(parts: Parts) -> Result<InvertedIndex, IndexPartsError> {
        InvertedIndex::from_parts(parts.0, parts.1, parts.2, Metrics::new())
    }

    #[test]
    fn from_parts_equals_the_built_index() {
        let built = sample();
        let metrics = Metrics::new();
        let (keys, terms, doc_terms) = parts(&built);
        let loaded = InvertedIndex::from_parts(keys, terms, doc_terms, metrics.clone()).unwrap();
        assert_eq!(loaded.doc_count(), built.doc_count());
        assert_eq!(loaded.vocabulary(), built.vocabulary());
        for d in (0..built.doc_count() as u32).map(DocId) {
            assert_eq!(loaded.doc_key(d), built.doc_key(d));
            assert_eq!(loaded.doc_by_key(built.doc_key(d)), Some(d));
            assert_eq!(loaded.doc_length(d), built.doc_length(d));
            assert_eq!(loaded.tfidf_vector(d), built.tfidf_vector(d));
        }
        for term in built.vocabulary() {
            assert_eq!(loaded.postings(term), built.postings(term), "{term}");
        }
        for query in ["university courses", "trees", "professor research wings"] {
            assert_eq!(loaded.search(query, 10), built.search(query, 10), "{query}");
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("index.docs"), Some(3));
        assert_eq!(snap.counter("index.terms"), Some(built.term_count() as u64));
        let tokens: u32 = (0..3).map(|d| built.doc_length(DocId(d))).sum();
        assert_eq!(snap.counter("index.tokens"), Some(u64::from(tokens)));
        assert_eq!(snap.counter("index.search.calls"), Some(3));
    }

    #[test]
    fn from_parts_refuses_inconsistent_parts() {
        let good = parts(&sample());
        assert!(rebuild(good.clone()).is_ok());
        let broken = |edit: &dyn Fn(&mut Parts)| {
            let mut p = good.clone();
            edit(&mut p);
            rebuild(p).map(|_| ()).unwrap_err()
        };
        let vocabulary = good.1.len() as u32;
        assert_eq!(
            broken(&|p| p.0.push("extra".to_owned())),
            IndexPartsError::DocCount { keys: 4, docs: 3 }
        );
        assert_eq!(
            broken(&|p| p.0[2] = p.0[0].clone()),
            IndexPartsError::DuplicateKey { doc: 2 }
        );
        assert_eq!(
            broken(&|p| p.1[1] = p.1[0].clone()),
            IndexPartsError::DuplicateTerm { term: 1 }
        );
        assert_eq!(
            broken(&|p| p.2[1][0].0 = TermId(vocabulary)),
            IndexPartsError::TermOutOfRange {
                doc: 1,
                term: vocabulary
            }
        );
        // Document 1 opens with terms document 0 introduced.
        assert_eq!(
            broken(&|p| p.2[1].swap(0, 1)),
            IndexPartsError::UnsortedTerms { doc: 1 }
        );
        assert_eq!(
            broken(&|p| p.2[1][1].0 = p.2[1][0].0),
            IndexPartsError::UnsortedTerms { doc: 1 }
        );
        assert_eq!(
            broken(&|p| p.2[0][0].1 = 0),
            IndexPartsError::ZeroFrequency { doc: 0, term: 0 }
        );
        // Document 0 introduces terms 0, 1, …: dropping its first term
        // skips id 0; dropping the last document leaves its new terms
        // unused.
        assert_eq!(
            broken(&|p| {
                p.2[0].remove(0);
            }),
            IndexPartsError::TermNumbering { term: 0 }
        );
        assert!(matches!(
            broken(&|p| {
                p.0.pop();
                p.2.pop();
            }),
            IndexPartsError::TermNumbering { .. }
        ));
        assert_eq!(
            broken(&|p| p.2[2][0].1 = u32::MAX),
            IndexPartsError::LengthOverflow { doc: 2 }
        );
    }

    #[test]
    fn stemming_unifies_variants_across_documents() {
        let mut b = IndexBuilder::new();
        b.add_document("a", "universities");
        b.add_document("b", "university");
        let idx = b.build();
        let a = idx.doc_by_key("a").unwrap();
        let bb = idx.doc_by_key("b").unwrap();
        assert!((idx.cosine(a, bb) - 1.0).abs() < 1e-12);
    }
}
