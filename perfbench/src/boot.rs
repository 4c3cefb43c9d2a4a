//! Booting the toolkit the way a user's process does: from the five
//! source files of the paper's scenario, or from an SSTSNAP1 snapshot.
//! The corpus is registered exactly as `sst_bench::load_corpus` does.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sst_bench::names;
use sst_core::vector::{embed_tfidf, VectorStore, EMBED_DIM};
use sst_core::{SnapshotFile, SstBuilder, SstToolkit, TreeMode, UnifiedTree};
use sst_index::IndexBuilder;
use sst_limits::Limits;
use sst_obs::Metrics;
use sst_simpack::{InformationContent, ProbabilityMode};
use sst_soqa::Ontology;

use crate::trace::Tracer;

/// Where runs leave their reports, traces and the serve_cold snapshot.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone, Copy)]
enum Format {
    Owl,
    Daml,
    PowerLoom,
}

/// One of the scenario's source files.
#[derive(Debug, Clone, Copy)]
struct Source {
    file: &'static str,
    format: Format,
    name: &'static str,
    uri: &'static str,
}

/// The five ontologies in `load_corpus`'s parse order.
const SOURCES: [Source; 5] = [
    Source {
        file: "univ-bench.owl",
        format: Format::Owl,
        name: names::UNIV_BENCH,
        uri: "http://www.lehigh.edu/univ-bench.owl",
    },
    Source {
        file: "swrc.owl",
        format: Format::Owl,
        name: names::SWRC,
        uri: "http://swrc.ontoware.org/ontology",
    },
    Source {
        file: "univ1.0.daml",
        format: Format::Daml,
        name: names::DAML_UNIV,
        uri: "http://www.cs.umd.edu/projects/plus/DAML/onts/univ1.0.daml",
    },
    Source {
        file: "course.ploom",
        format: Format::PowerLoom,
        name: names::COURSES,
        uri: "",
    },
    Source {
        file: "sumo.owl",
        format: Format::Owl,
        name: names::SUMO,
        uri: "http://reliant.teknowledge.com/DAML/SUMO.owl",
    },
];

/// `load_corpus` registers the parsed ontologies in this order (indices
/// into [`SOURCES`]): daml, univ-bench, courses, swrc, sumo.
const REGISTER_ORDER: [usize; 5] = [2, 0, 3, 1, 4];

/// Names of the five ontologies.
pub fn ontology_names() -> Vec<&'static str> {
    REGISTER_ORDER.iter().map(|&i| SOURCES[i].name).collect()
}

/// Reads, parses and builds the corpus, recording spans under `parent`.
pub fn from_sources(t: &mut Tracer, parent: Option<usize>) -> Result<SstToolkit, String> {
    let dir = sst_bench::data_dir().join("ontologies");
    let mut parsed: Vec<Option<Ontology>> = vec![None, None, None, None, None];
    for (slot, src) in parsed.iter_mut().zip(SOURCES.iter()) {
        let path = dir.join(src.file);
        let text = t
            .time("io.read", parent, 0, || std::fs::read_to_string(&path))
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let ontology = t
            .time("wrappers.parse", parent, 0, || match src.format {
                Format::Owl => sst_wrappers::parse_owl(&text, src.name, src.uri),
                Format::Daml => sst_wrappers::parse_daml(&text, src.name, src.uri),
                Format::PowerLoom => sst_wrappers::parse_powerloom(&text, src.name),
            })
            .map_err(|e| format!("cannot parse {}: {e}", src.file))?;
        *slot = Some(ontology);
    }
    let builder = t.time("soqa.register", parent, 0, || {
        let mut builder = SstBuilder::new().tree_mode(TreeMode::SuperThing);
        for i in REGISTER_ORDER {
            let ontology = parsed[i].take().ok_or("ontology parsed twice")?;
            builder = builder
                .register_ontology(ontology)
                .map_err(|e| format!("cannot register {}: {e}", SOURCES[i].name))?;
        }
        Ok::<_, String>(builder)
    })?;
    Ok(t.time("core.build", parent, 0, || builder.build()))
}

/// Reads an SSTSNAP1 file and imports it, recording spans under `parent`.
pub fn from_snapshot(
    path: &Path,
    t: &mut Tracer,
    parent: Option<usize>,
) -> Result<SstToolkit, String> {
    let bytes = t
        .time("io.read", parent, 0, || std::fs::read(path))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    t.time("core.snapshot.import", parent, 0, || {
        SstToolkit::import_snapshot(&bytes, &Limits::default())
    })
    .map_err(|e| format!("cannot import snapshot: {e}"))
}

/// Runs `workload`'s setup once in a fresh child process (`--boot`) and
/// returns its seconds, as the child measured them. A child's memory
/// leaves this process's peak RSS untouched.
pub fn in_child(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--boot", workload])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a setup child: {e}"))?;
    if !out.status.success() {
        return Err(format!("setup child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("setup child printed `{}`", text.trim()))
}

/// Writes the corpus snapshot that serve_cold boots from.
pub fn write_snapshot(path: &Path) -> Result<(), String> {
    let toolkit = from_sources(&mut Tracer::new(false), None)?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, toolkit.export_snapshot())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Seconds taken by each stage of `SstBuilder::build`, measured by calling
/// the stage functions on the built toolkit's own inputs.
#[derive(Debug, Clone, Default)]
pub struct BuildStages {
    pub tree_s: f64,
    pub ic_s: f64,
    pub index_s: f64,
    pub vectors_s: f64,
}

pub fn build_stages(toolkit: &SstToolkit, t: &mut Tracer, parent: Option<usize>) -> BuildStages {
    let soqa = toolkit.soqa();
    let secs = |start: Instant| start.elapsed().as_secs_f64();

    let start = Instant::now();
    let tree = t.time("core.build.tree", parent, 0, || {
        UnifiedTree::build(soqa, toolkit.config().tree_mode)
    });
    let tree_s = secs(start);

    let start = Instant::now();
    t.time("core.build.ic", parent, 0, || {
        let mut counts = vec![0usize; tree.node_count()];
        for gc in tree.all_concepts() {
            counts[tree.node(gc) as usize] = soqa.concept(gc).instances.len();
        }
        InformationContent::for_mode(tree.taxonomy(), ProbabilityMode::InstanceCorpus, &counts)
    });
    let ic_s = secs(start);

    let start = Instant::now();
    let (index, doc_ids) = t.time("core.build.index", parent, 0, || {
        let mut builder = IndexBuilder::with_metrics(Metrics::new());
        let mut doc_ids = vec![None; tree.node_count()];
        for gc in tree.all_concepts() {
            let key = format!("{}#{}", soqa.qualified_name(gc), tree.node(gc));
            let text = soqa.concept_description(gc);
            doc_ids[tree.node(gc) as usize] = Some(builder.add_document(key, &text));
        }
        (builder.build(), doc_ids)
    });
    let index_s = secs(start);

    let start = Instant::now();
    let store = t.time("core.build.vectors", parent, 0, || {
        let rows = tree
            .all_concepts()
            .into_iter()
            .map(|gc| {
                let tfidf = doc_ids[tree.node(gc) as usize]
                    .map(|d| index.tfidf_vector(d))
                    .unwrap_or_default();
                (gc, soqa.qualified_name(gc), embed_tfidf(&tfidf, EMBED_DIM))
            })
            .collect();
        VectorStore::from_rows(rows, EMBED_DIM)
    });
    let vectors_s = secs(start);
    std::hint::black_box(store.len());

    BuildStages {
        tree_s,
        ic_s,
        index_s,
        vectors_s,
    }
}

/// Seconds taken by the parts of `SstToolkit::import_snapshot`.
#[derive(Debug, Clone, Default)]
pub struct SnapshotStages {
    pub bytes: usize,
    pub decode_s: f64,
    pub import_s: f64,
    pub crosscheck_s: f64,
}

/// Times the snapshot decode, the whole import, and the vector
/// cross-check the import performs, on the same bytes.
pub fn snapshot_stages(
    bytes: &[u8],
    t: &mut Tracer,
    parent: Option<usize>,
) -> Result<SnapshotStages, String> {
    let limits = Limits::default();
    let start = Instant::now();
    let file = t
        .time("core.snapshot.decode", parent, 0, || {
            SnapshotFile::from_bytes(bytes, &limits)
        })
        .map_err(|e| format!("snapshot decode: {e}"))?;
    let decode_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let toolkit = t
        .time("core.snapshot.import", parent, 0, || {
            SstToolkit::import_snapshot(bytes, &limits)
        })
        .map_err(|e| format!("snapshot import: {e}"))?;
    let import_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let same = t.time("core.snapshot.crosscheck", parent, 0, || {
        toolkit.export_vectors() == file.vectors
    });
    let crosscheck_s = start.elapsed().as_secs_f64();
    if !same {
        return Err("snapshot cross-check failed".to_owned());
    }
    Ok(SnapshotStages {
        bytes: bytes.len(),
        decode_s,
        import_s,
        crosscheck_s,
    })
}
