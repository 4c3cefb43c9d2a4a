//! The evaluation corpus: the five ontologies of the paper's running
//! example (943 concepts total), loaded from `data/ontologies/` into one
//! [`SstToolkit`].

use std::path::{Path, PathBuf};

use sst_core::{SstBuilder, SstToolkit, TreeMode};
use sst_wrappers::{parse_daml, parse_owl, parse_powerloom, parse_wordnet};

/// Registered ontology names, matching the paper's Table 1 notation.
pub mod names {
    pub const UNIV_BENCH: &str = "univ-bench_owl";
    pub const COURSES: &str = "COURSES";
    pub const DAML_UNIV: &str = "base1_0_daml";
    pub const SWRC: &str = "swrc_owl";
    pub const SUMO: &str = "SUMO_owl_txt";
    pub const WORDNET: &str = "wordnet";
}

/// Locates the repository's `data/` directory from the crate manifest.
pub fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Loads the five paper ontologies (plus optionally WordNet) into a
/// toolkit. `sumo.owl` must exist — run `cargo run -p sst-bench --bin
/// gen_ontologies` once to produce it.
pub fn load_corpus(mode: TreeMode, with_wordnet: bool) -> SstToolkit {
    corpus_builder(mode, with_wordnet).build()
}

/// [`load_corpus`] before `build()`, for callers that register runners
/// (e.g. [`crate::oracle::register`]).
pub fn corpus_builder(mode: TreeMode, with_wordnet: bool) -> SstBuilder {
    let dir = data_dir().join("ontologies");
    let mut builder = SstBuilder::new().tree_mode(mode);

    let univ = parse_owl(
        &read(&dir.join("univ-bench.owl")),
        names::UNIV_BENCH,
        "http://www.lehigh.edu/univ-bench.owl",
    )
    .expect("univ-bench.owl");
    let swrc = parse_owl(
        &read(&dir.join("swrc.owl")),
        names::SWRC,
        "http://swrc.ontoware.org/ontology",
    )
    .expect("swrc.owl");
    let daml = parse_daml(
        &read(&dir.join("univ1.0.daml")),
        names::DAML_UNIV,
        "http://www.cs.umd.edu/projects/plus/DAML/onts/univ1.0.daml",
    )
    .expect("univ1.0.daml");
    let courses =
        parse_powerloom(&read(&dir.join("course.ploom")), names::COURSES).expect("course.ploom");
    let sumo_path = dir.join("sumo.owl");
    assert!(
        sumo_path.exists(),
        "data/ontologies/sumo.owl missing — run `cargo run -p sst-bench --bin gen_ontologies`"
    );
    let sumo = parse_owl(
        &read(&sumo_path),
        names::SUMO,
        "http://reliant.teknowledge.com/DAML/SUMO.owl",
    )
    .expect("sumo.owl");

    builder = builder
        .register_ontology(daml)
        .expect("register daml")
        .register_ontology(univ)
        .expect("register univ-bench")
        .register_ontology(courses)
        .expect("register courses")
        .register_ontology(swrc)
        .expect("register swrc")
        .register_ontology(sumo)
        .expect("register sumo");
    if with_wordnet {
        let wn = parse_wordnet(&read(&data_dir().join("wordnet/data.noun")), names::WORDNET)
            .expect("data.noun");
        builder = builder.register_ontology(wn).expect("register wordnet");
    }
    builder
}

/// Total concept count the paper states for the five-ontology scenario.
pub const PAPER_CONCEPT_COUNT: usize = 943;
