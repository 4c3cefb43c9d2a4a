//! Fault-injection gate: mutates the seed ontology fixtures under
//! `data/` into hostile inputs and drives every governed parser over
//! them, asserting the ingestion layer's robustness contract — any
//! input yields `Ok` or a structured `Err`; never a panic, stack
//! overflow, or runaway allocation. The same contract holds for the two
//! sealed binary formats: mutants of an `SSTSNAP2` snapshot and of an
//! `SSTVEC1` vector file of a small generated toolkit, each resealed
//! with a valid checksum so it reaches the field decoders, are loaded
//! through `import_snapshot` and `import_vectors`.
//!
//! Usage:
//! ```text
//! cargo run --release -p sst-bench --bin fault_smoke             # full run
//! cargo run --release -p sst-bench --bin fault_smoke -- --smoke  # CI gate
//! ```
//!
//! `--smoke` derives fewer mutants per fixture and per binary format so
//! the gate stays fast; both modes run the synthetic deep-nesting and
//! long-literal attacks. The fault corpus is seeded, so any failure
//! reproduces exactly.

use std::time::Instant;

use sst_bench::sealed::{snapshot_fields, vector_fields};
use sst_bench::{
    binary_mutants, build_corpus, data_dir, generate_taxonomy, run_binary_suite, run_fault_suite,
    BinaryFormat, Format, SplitMix64, TaxonomySpec,
};
use sst_core::{SstBuilder, SstToolkit};
use sst_limits::Limits;
use sst_obs::Metrics;

/// Mutants derived per seed fixture (cycling truncate/flip/splice).
const FULL_MUTANTS: usize = 120;
const SMOKE_MUTANTS: usize = 18;
/// Mutants derived per sealed binary format (cycling flip, truncate at a
/// field, splice, overwrite a `u32` field).
const FULL_BINARY_MUTANTS: usize = 2000;
const SMOKE_BINARY_MUTANTS: usize = 240;
/// The corpus stream seed; bump to explore a fresh mutation stream.
const SEED: u64 = 0x5357_4F51_4121;

fn read_fixture(rel: &str) -> String {
    let path = data_dir().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Two generated ontologies: small enough that a load takes about a
/// millisecond, with instances, documentation and cross-ontology names.
fn binary_toolkit() -> SstToolkit {
    let mut builder = SstBuilder::new();
    for (concepts, branching, seed) in [(48, 3, 21), (24, 5, 22)] {
        builder = builder
            .register_ontology(generate_taxonomy(TaxonomySpec {
                concepts,
                branching,
                instances: concepts / 3,
                seed,
            }))
            .expect("register a generated ontology");
    }
    builder.build()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let per_seed = if smoke { SMOKE_MUTANTS } else { FULL_MUTANTS };
    let per_format = if smoke {
        SMOKE_BINARY_MUTANTS
    } else {
        FULL_BINARY_MUTANTS
    };

    // Seed fixtures: the real corpus files, plus inline Turtle/N-Triples
    // seeds (the checked-in ontologies are RDF/XML, PowerLoom, WordNet).
    let mut seeds = vec![
        (Format::RdfXml, read_fixture("ontologies/univ-bench.owl")),
        (Format::RdfXml, read_fixture("ontologies/swrc.owl")),
        (Format::RdfXml, read_fixture("ontologies/univ1.0.daml")),
        (Format::Sexpr, read_fixture("ontologies/course.ploom")),
        (Format::WordNet, read_fixture("wordnet/data.noun")),
        (Format::WordNet, read_fixture("wordnet/index.noun")),
        (
            Format::Turtle,
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             @prefix : <http://e/#> .\n\
             :A a owl:Class ; rdfs:comment \"root \\u00e9class\" .\n\
             :B a owl:Class ; rdfs:subClassOf :A ; :rel ( :A [ :p :A ] ) .\n"
                .to_owned(),
        ),
        (
            Format::NTriples,
            "<http://e/s> <http://e/p> \"v\" .\n\
             <http://e/s> <http://e/q> _:b0 .\n\
             _:b0 <http://e/r> \"\\u0041 tail\"@en .\n"
                .to_owned(),
        ),
    ];
    // The generated SUMO fixture is optional (produced by gen_ontologies).
    let sumo = data_dir().join("ontologies/sumo.owl");
    if sumo.exists() {
        seeds.push((Format::RdfXml, read_fixture("ontologies/sumo.owl")));
    }

    let cases = build_corpus(&seeds, per_seed, SEED);
    let metrics = Metrics::new();
    let report = run_fault_suite(&cases, &Limits::default(), &metrics);

    println!(
        "fault corpus: {} cases from {} seeds ({} mutants each + synthetic attacks)",
        report.cases,
        seeds.len(),
        per_seed
    );
    println!(
        "  accepted: {:>5}  (mutation left the document parseable)",
        report.accepted
    );
    println!(
        "  rejected: {:>5}  (structured error returned)",
        report.rejected
    );
    println!("  limit violations by counter:");
    if report.limit_counters.is_empty() {
        println!("    (none)");
    } else {
        for (name, value) in &report.limit_counters {
            println!("    {name:<32} {value}");
        }
    }

    // Gate conditions. Reaching this line at all means no parser panicked
    // or overflowed the stack; beyond that, the synthetic attacks must
    // have tripped the limits rather than slipped through.
    assert_eq!(report.accepted + report.rejected, report.cases);
    assert!(
        !report.limit_counters.is_empty(),
        "synthetic attacks failed to trip any resource limit"
    );

    let toolkit = binary_toolkit();
    let rows = toolkit.vector_store().len();
    let mut rng = SplitMix64::seed_from_u64(SEED);
    for format in [BinaryFormat::Snapshot, BinaryFormat::Vectors] {
        let (sealed, fields) = match format {
            BinaryFormat::Snapshot => {
                let bytes = toolkit.export_snapshot();
                let fields = snapshot_fields(&bytes);
                (bytes, fields)
            }
            BinaryFormat::Vectors => {
                let bytes = toolkit.export_vectors();
                let fields = vector_fields(&bytes);
                (bytes, fields)
            }
        };
        let fields = fields.expect("the toolkit writes a well-formed file");
        let cases = binary_mutants(&mut rng, format, &sealed, &fields, rows, per_format);
        let started = Instant::now();
        let report = run_binary_suite(&toolkit, &cases, &Limits::default());
        println!(
            "binary corpus {}: {} resealed mutants of a {}-byte file ({} fields) in {:.2}s",
            format.name(),
            report.cases,
            sealed.len(),
            fields.len(),
            started.elapsed().as_secs_f64()
        );
        println!(
            "  accepted: {:>5}  (the mutant still decodes and validates)",
            report.accepted
        );
        println!(
            "  rejected: {:>5}  (structured error returned)",
            report.rejected
        );
        assert_eq!(report.accepted + report.rejected, report.cases);
        assert!(
            report.rejected > 0,
            "no {} mutant was rejected: the mutators reach no validator",
            format.name()
        );
    }
    println!("fault smoke: OK");
}
