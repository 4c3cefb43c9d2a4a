//! Snapshot persistence self-audit: times a cold corpus build (OWL/RDF
//! parse + toolkit preparation) against an `SSTSNAP1` snapshot load,
//! verifies that the loaded toolkit scores *bit-identically* to the cold
//! one on every registered measure, and writes
//! `results/BENCH_snapshot.json` with an honest `identity` flag.
//!
//! Usage:
//! ```text
//! cargo run --release -p sst-bench --bin snapshot_bench                   # full run (archives JSON)
//! cargo run --release -p sst-bench --bin snapshot_bench -- --smoke        # CI gate (asserts, no JSON)
//! cargo run --release -p sst-bench --bin snapshot_bench -- --build PATH   # write a snapshot file
//! cargo run --release -p sst-bench --bin snapshot_bench -- --load PATH    # load + verify a snapshot file
//! ```
//!
//! Both bench modes enforce the subsystem's contract: round-trip
//! bit-identity on every measure over a cross-ontology concept set, and
//! a snapshot load faster than the cold parse (the whole point of
//! persisting the prepared store).

use std::time::Instant;

use sst_bench::{data_dir, load_corpus, names};
use sst_core::{BatchMode, ConceptRef, ConceptSet, SstToolkit, TreeMode};

/// Timing repetitions per path; the median is reported.
const REPEATS: usize = 5;

fn cold_build() -> SstToolkit {
    load_corpus(TreeMode::SuperThing, false)
}

/// The cross-ontology probe set from the identity suites: taxonomy
/// positions, names, feature sets, documentation, and instances.
fn mixed_set() -> ConceptSet {
    ConceptSet::List(vec![
        ConceptRef::new("Professor", names::DAML_UNIV),
        ConceptRef::new("AssistantProfessor", names::UNIV_BENCH),
        ConceptRef::new("FullProfessor", names::UNIV_BENCH),
        ConceptRef::new("Student", names::UNIV_BENCH),
        ConceptRef::new("GraduateStudent", names::UNIV_BENCH),
        ConceptRef::new("Publication", names::UNIV_BENCH),
        ConceptRef::new("EMPLOYEE", names::COURSES),
        ConceptRef::new("COURSE", names::COURSES),
        ConceptRef::new("Human", names::SUMO),
        ConceptRef::new("Mammal", names::SUMO),
        ConceptRef::new("Publication", names::SWRC),
        ConceptRef::new("PhDStudent", names::SWRC),
    ])
}

/// True iff both toolkits score identical IEEE 754 bits on every measure
/// over the probe set.
fn bit_identical(a: &SstToolkit, b: &SstToolkit) -> bool {
    if a.measure_count() != b.measure_count() {
        return false;
    }
    let set = mixed_set();
    for measure in 0..a.measure_count() {
        let (la, ma) = match a.similarity_matrix_mode(&set, measure, BatchMode::Prepared) {
            Ok(m) => m,
            Err(_) => return false,
        };
        let (lb, mb) = match b.similarity_matrix_mode(&set, measure, BatchMode::Prepared) {
            Ok(m) => m,
            Err(_) => return false,
        };
        if la != lb {
            return false;
        }
        for (ra, rb) in ma.iter().zip(&mb) {
            for (va, vb) in ra.iter().zip(rb) {
                if va.to_bits() != vb.to_bits() {
                    return false;
                }
            }
        }
    }
    true
}

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|x, y| x.total_cmp(y));
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Subcommands for `cargo xtask snapshot build|load`.
    if let Some(i) = args.iter().position(|a| a == "--build") {
        let path = args.get(i + 1).expect("--build requires a PATH");
        let sst = cold_build();
        let bytes = sst.export_snapshot();
        std::fs::write(path, &bytes).expect("write snapshot");
        println!(
            "snapshot_bench --build: wrote {} bytes ({} measures) to {path}",
            bytes.len(),
            sst.measure_count()
        );
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--load") {
        let path = args.get(i + 1).expect("--load requires a PATH");
        let bytes = std::fs::read(path).expect("read snapshot");
        let started = Instant::now();
        let sst = SstToolkit::import_snapshot(&bytes, &sst_limits::Limits::default())
            .expect("import snapshot");
        let elapsed = started.elapsed().as_secs_f64();
        assert!(
            bit_identical(&sst, &cold_build()),
            "loaded snapshot must score bit-identically to a cold build"
        );
        println!(
            "snapshot_bench --load: {} bytes -> {} measures in {elapsed:.3}s, \
             bit-identical to cold build",
            bytes.len(),
            sst.measure_count()
        );
        return;
    }

    // The smoke gate times as many repeats as the full run (with two, the
    // "median" is the slower sample), and cold builds alternate with
    // loads, so a slow stretch of the host hits both paths alike instead
    // of flipping the load-beats-parse check.
    let smoke = args.iter().any(|a| a == "--smoke");
    let limits = sst_limits::Limits::default();
    let bytes = cold_build().export_snapshot();
    let mut cold_samples = Vec::with_capacity(REPEATS);
    let mut load_samples = Vec::with_capacity(REPEATS);
    let mut cold = None;
    let mut loaded = None;
    for _ in 0..REPEATS {
        // Cold path: full OWL/RDF parse + toolkit build.
        let started = Instant::now();
        let sst = cold_build();
        cold_samples.push(started.elapsed().as_secs_f64());
        cold = Some(sst);
        // Snapshot path: decode + rebuild from the persisted arenas.
        let started = Instant::now();
        let sst = SstToolkit::import_snapshot(&bytes, &limits).expect("import snapshot");
        load_samples.push(started.elapsed().as_secs_f64());
        loaded = Some(sst);
    }
    let cold_sst = cold.expect("at least one cold build");
    let loaded_sst = loaded.expect("at least one snapshot load");
    let cold_s = median_secs(cold_samples);
    let load_s = median_secs(load_samples);

    let identity = bit_identical(&cold_sst, &loaded_sst);
    let speedup = cold_s / load_s.max(1e-9);

    println!(
        "snapshot_bench: cold parse {cold_s:.3}s, snapshot load {load_s:.3}s \
         ({speedup:.1}x), {} bytes, identity={identity}",
        bytes.len()
    );

    assert!(
        identity,
        "snapshot round trip must be bit-identical on every measure"
    );
    assert!(
        load_s < cold_s,
        "snapshot load ({load_s:.3}s) must beat the cold parse ({cold_s:.3}s)"
    );

    if smoke {
        println!("snapshot_bench --smoke: persistence contract holds");
        return;
    }

    let results = data_dir().join("../results");
    std::fs::create_dir_all(&results).expect("results dir");
    let json = format!(
        "{{\n  \"snapshot_bytes\": {},\n  \"measures\": {},\n  \
         \"cold_parse_s\": {cold_s:.4},\n  \"snapshot_load_s\": {load_s:.4},\n  \
         \"speedup\": {speedup:.2},\n  \"identity\": {identity}\n}}\n",
        bytes.len(),
        cold_sst.measure_count(),
    );
    std::fs::write(results.join("BENCH_snapshot.json"), json).expect("write BENCH_snapshot");
    println!("(written to results/BENCH_snapshot.json)");
}
