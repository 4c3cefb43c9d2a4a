//! Deterministic fault-injection harness for the ingestion layer.
//!
//! Takes seed fixtures (the real ontology files under `data/` plus small
//! inline documents), derives hostile mutants from them with the vendored
//! [`SplitMix64`] stream — truncations, byte flips, splices — and adds
//! synthetic attacks the mutators cannot reach from well-formed seeds:
//! pathologically deep nesting and oversized literals. Every case is fed
//! to the matching governed parser under [`Limits`]; the only acceptable
//! outcomes are `Ok` or a structured `Err`. A panic, stack overflow, or
//! runaway allocation fails the suite (the process dies), which is
//! exactly the regression the resource-governance layer exists to
//! prevent. Limit violations are counted into `sst-obs` under
//! `<area>.limit.<kind>` and summarized in the [`FaultReport`].
//!
//! The two sealed binary formats (`SSTSNAP2` snapshots and `SSTVEC1`
//! vector files) get their own mutators ([`binary_mutants`]), which
//! reseal every mutant with a valid checksum so it reaches the field
//! decoders, under the same contract ([`run_binary_suite`]).
//!
//! All randomness is seeded, so a failing case can be reproduced from its
//! label alone.

use sst_core::SstToolkit;
use sst_limits::Limits;
use sst_obs::Metrics;

use crate::rng::SplitMix64;
use crate::sealed::{seal, Field};

/// The parser a fault case targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Turtle,
    NTriples,
    RdfXml,
    Sexpr,
    WordNet,
}

impl Format {
    pub fn name(self) -> &'static str {
        match self {
            Format::Turtle => "turtle",
            Format::NTriples => "ntriples",
            Format::RdfXml => "rdfxml",
            Format::Sexpr => "sexpr",
            Format::WordNet => "wordnet",
        }
    }
}

/// One hostile input: a labelled document plus the parser to aim it at.
#[derive(Debug, Clone)]
pub struct FaultCase {
    pub label: String,
    pub format: Format,
    pub input: String,
}

/// Outcome tally of a fault run.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Total cases executed.
    pub cases: usize,
    /// Cases the parser still accepted (mutation left the document valid).
    pub accepted: usize,
    /// Cases rejected with a structured error.
    pub rejected: usize,
    /// `<area>.limit.<kind>` counters observed during the run.
    pub limit_counters: Vec<(String, u64)>,
}

/// Truncates `src` at a seeded byte offset (re-validated as UTF-8).
pub fn truncate(rng: &mut SplitMix64, src: &str) -> String {
    let cut = rng.gen_range(0..src.len().max(1));
    String::from_utf8_lossy(&src.as_bytes()[..cut]).into_owned()
}

/// Flips `n` seeded bytes of `src` to seeded values.
pub fn flip_bytes(rng: &mut SplitMix64, src: &str, n: usize) -> String {
    let mut bytes = src.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    for _ in 0..n {
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = (rng.next_u64() & 0xff) as u8;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Copies a seeded chunk of `src` over a seeded position — models a
/// corrupted transfer duplicating a block mid-file.
pub fn splice(rng: &mut SplitMix64, src: &str) -> String {
    if src.len() < 2 {
        return src.to_owned();
    }
    let from = rng.gen_range(0..src.len());
    let len = rng
        .gen_range(1..(src.len() - from).max(2))
        .min(src.len() - from);
    let to = rng.gen_range(0..src.len());
    let mut bytes = src.as_bytes().to_vec();
    let chunk: Vec<u8> = bytes[from..from + len].to_vec();
    let end = (to + len).min(bytes.len());
    bytes.splice(to..end, chunk);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A document nested `depth` levels deep in the format's recursive
/// construct — the stack-overflow attack the depth limit guards against.
pub fn deep_nesting(format: Format, depth: usize) -> String {
    match format {
        Format::Sexpr => {
            let mut s = "(".repeat(depth);
            s.push('x');
            s.push_str(&")".repeat(depth));
            s
        }
        Format::Turtle => {
            // Nested blank node property lists as the object of one triple.
            let mut s = String::from("<http://e/s> <http://e/p> ");
            s.push_str(&"[ <http://e/q> ".repeat(depth));
            s.push_str("<http://e/o>");
            s.push_str(&" ]".repeat(depth));
            s.push_str(" .\n");
            s
        }
        Format::RdfXml => {
            let mut s = String::from(
                "<rdf:RDF xmlns:rdf=\"http://www.w3.org/1999/02/22-rdf-syntax-ns#\" \
                 xmlns:e=\"http://e/\">",
            );
            s.push_str(&"<e:D>".repeat(depth));
            s.push_str(&"</e:D>".repeat(depth));
            s.push_str("</rdf:RDF>");
            s
        }
        // Line-oriented formats have no recursive construct; stress the
        // tokenizer with a pathological run instead.
        Format::NTriples => format!("<http://e/s> <http://e/p> \"{}\" .\n", "a".repeat(depth)),
        Format::WordNet => format!("00000001 03 n 01 {} 0 000 | deep\n", "x_".repeat(depth)),
    }
}

/// A document holding one literal of `len` bytes — the allocation attack
/// the literal limit guards against.
pub fn long_literal(format: Format, len: usize) -> String {
    let payload = "A".repeat(len);
    match format {
        Format::Turtle => format!("<http://e/s> <http://e/p> \"{payload}\" .\n"),
        Format::NTriples => format!("<http://e/s> <http://e/p> \"{payload}\" .\n"),
        Format::RdfXml => format!(
            "<rdf:RDF xmlns:rdf=\"http://www.w3.org/1999/02/22-rdf-syntax-ns#\" \
             xmlns:e=\"http://e/\"><rdf:Description rdf:about=\"http://e/s\">\
             <e:p>{payload}</e:p></rdf:Description></rdf:RDF>"
        ),
        Format::Sexpr => format!("(doc \"{payload}\")"),
        Format::WordNet => format!("00000001 03 n 01 entity 0 000 | {payload}\n"),
    }
}

/// Derives `per_seed` mutants from each seed fixture (cycling through
/// truncation, byte flips, and splices) and appends the synthetic
/// deep-nesting and long-literal attacks for every format.
pub fn build_corpus(seeds: &[(Format, String)], per_seed: usize, seed: u64) -> Vec<FaultCase> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut cases = Vec::new();
    for (idx, (format, src)) in seeds.iter().enumerate() {
        for round in 0..per_seed {
            let (label, input) = match round % 3 {
                0 => ("truncate", truncate(&mut rng, src)),
                1 => ("flip", flip_bytes(&mut rng, src, 1 + round / 3)),
                _ => ("splice", splice(&mut rng, src)),
            };
            cases.push(FaultCase {
                label: format!("{}/{label}#{round}@seed{idx}", format.name()),
                format: *format,
                input,
            });
        }
    }
    for format in [
        Format::Turtle,
        Format::NTriples,
        Format::RdfXml,
        Format::Sexpr,
        Format::WordNet,
    ] {
        cases.push(FaultCase {
            label: format!("{}/deep-nesting", format.name()),
            format,
            input: deep_nesting(format, 200_000),
        });
        cases.push(FaultCase {
            label: format!("{}/long-literal", format.name()),
            format,
            input: long_literal(format, (4 << 20) + 17),
        });
    }
    cases
}

/// Parses one case under `limits`. `Ok(true)` means the parser accepted
/// the document; `Ok(false)` means it returned a structured error. A
/// panic propagates and fails the whole suite by design.
fn run_case(case: &FaultCase, limits: &Limits, metrics: &Metrics) -> bool {
    const BASE: &str = "http://fault.example/";
    match case.format {
        Format::Turtle => {
            sst_rdf::parse_turtle_with_limits(&case.input, BASE, limits, Some(metrics)).is_ok()
        }
        Format::NTriples => sst_rdf::parse_ntriples_with_limits(&case.input, limits).is_ok(),
        Format::RdfXml => {
            sst_rdf::parse_rdfxml_with_limits(&case.input, BASE, limits, Some(metrics)).is_ok()
        }
        Format::Sexpr => {
            sst_sexpr::parse_all_with_limits(&case.input, limits, Some(metrics)).is_ok()
        }
        Format::WordNet => {
            sst_wrappers::parse_wordnet_with_limits(&case.input, "fault", limits).is_ok()
        }
    }
}

/// Runs every case through its governed parser and tallies the outcomes.
///
/// The contract under test: *no input, however corrupted, may panic,
/// overflow the stack, or allocate past the limits* — parsers must return
/// `Ok` or a structured `Err`. Limit-violation counters recorded by the
/// parsers land in `metrics` and are echoed into the report.
pub fn run_fault_suite(cases: &[FaultCase], limits: &Limits, metrics: &Metrics) -> FaultReport {
    let mut report = FaultReport::default();
    for case in cases {
        report.cases += 1;
        if run_case(case, limits, metrics) {
            report.accepted += 1;
        } else {
            report.rejected += 1;
        }
    }
    let snapshot = metrics.snapshot();
    report.limit_counters = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.contains(".limit."))
        .cloned()
        .collect();
    report
}

/// The sealed binary format a [`BinaryCase`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryFormat {
    /// An `SSTSNAP2` snapshot, loaded by `SstToolkit::import_snapshot`.
    Snapshot,
    /// An `SSTVEC1` vector file, loaded by `SstToolkit::import_vectors`.
    Vectors,
}

impl BinaryFormat {
    pub fn name(self) -> &'static str {
        match self {
            BinaryFormat::Snapshot => "SSTSNAP2",
            BinaryFormat::Vectors => "SSTVEC1",
        }
    }
}

/// One hostile binary input: a labelled, validly sealed mutant.
#[derive(Debug, Clone)]
pub struct BinaryCase {
    pub label: String,
    pub format: BinaryFormat,
    pub input: Vec<u8>,
}

/// Derives `count` mutants of the sealed file `sealed`, whose body has
/// the fields `fields` and whose store holds `rows` rows, cycling through
/// four mutators: flip one byte, truncate at a field (at its start or
/// inside it), splice a chunk over another position, and overwrite a
/// `u32` field with 0, 1, `u32::MAX` or `rows + 1`. Every mutant is
/// sealed with a valid trailer, so it reaches the field decoders instead
/// of failing at the checksum.
pub fn binary_mutants(
    rng: &mut SplitMix64,
    format: BinaryFormat,
    sealed: &[u8],
    fields: &[Field],
    rows: usize,
    count: usize,
) -> Vec<BinaryCase> {
    let body = &sealed[..sealed.len().saturating_sub(8)];
    let words: Vec<&Field> = fields.iter().filter(|f| f.width == 4).collect();
    let values = [0, 1, u32::MAX, rows as u32 + 1];
    let mut cases = Vec::new();
    for round in 0..count {
        let mut bytes = body.to_vec();
        let label = match round % 4 {
            0 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 + (rng.next_u64() % 255) as u8;
                format!("flip@{at}")
            }
            1 => {
                let field = fields[rng.gen_range(0..fields.len())];
                let cut = field.offset + rng.gen_range(0..field.width.max(1));
                bytes.truncate(cut);
                format!("truncate@{cut}")
            }
            2 => {
                let from = rng.gen_range(0..bytes.len());
                let len = rng
                    .gen_range(1..(bytes.len() - from).max(2))
                    .min(bytes.len() - from);
                let to = rng.gen_range(0..bytes.len());
                let chunk = bytes[from..from + len].to_vec();
                let end = (to + len).min(bytes.len());
                bytes.splice(to..end, chunk);
                format!("splice{from}+{len}@{to}")
            }
            _ => {
                let field = words[rng.gen_range(0..words.len())];
                let value = values[rng.gen_range(0..values.len())];
                bytes[field.offset..field.offset + 4].copy_from_slice(&value.to_le_bytes());
                format!("u32@{}={value}", field.offset)
            }
        };
        cases.push(BinaryCase {
            label: format!("{}/{label}#{round}", format.name()),
            format,
            input: seal(bytes),
        });
    }
    cases
}

/// Loads every case under `limits` — a snapshot through
/// [`SstToolkit::import_snapshot`], a vector file through `toolkit`'s
/// [`SstToolkit::import_vectors`] — and tallies the outcomes. Both
/// loaders return `Ok` or a structured `SstError`; a panic propagates
/// and fails the whole suite by design.
pub fn run_binary_suite(
    toolkit: &SstToolkit,
    cases: &[BinaryCase],
    limits: &Limits,
) -> FaultReport {
    let mut report = FaultReport::default();
    for case in cases {
        report.cases += 1;
        let accepted = match case.format {
            BinaryFormat::Snapshot => SstToolkit::import_snapshot(&case.input, limits).is_ok(),
            BinaryFormat::Vectors => toolkit.import_vectors(&case.input, limits).is_ok(),
        };
        if accepted {
            report.accepted += 1;
        } else {
            report.rejected += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> Vec<(Format, String)> {
        vec![
            (
                Format::Turtle,
                "@prefix e: <http://e/> .\ne:s e:p \"v\" ; e:q e:o .\n".to_owned(),
            ),
            (
                Format::Sexpr,
                "(defconcept STUDENT (?s PERSON) :documentation \"doc\")".to_owned(),
            ),
        ]
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = build_corpus(&seeds(), 6, 42);
        let b = build_corpus(&seeds(), 6, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.input, y.input);
        }
    }

    #[test]
    fn suite_survives_without_panicking() {
        let cases = build_corpus(&seeds(), 9, 7);
        let metrics = Metrics::new();
        let report = run_fault_suite(&cases, &Limits::default(), &metrics);
        assert_eq!(report.cases, cases.len());
        assert_eq!(report.accepted + report.rejected, report.cases);
        // The synthetic attacks must be rejected, and rejected *because of
        // a limit*, not by luck of the syntax error path alone.
        assert!(report.rejected >= 10, "attack cases: {report:?}");
        assert!(
            !report.limit_counters.is_empty(),
            "expected limit-violation counters: {report:?}"
        );
    }
}
