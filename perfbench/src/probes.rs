//! Measurements the traced run takes by calling one layer's public
//! functions directly: boot stages, the memo hit path, and the cost of
//! the program's own instrumentation.

use std::time::{Duration, Instant};

use sst_core::{CachedSimilarity, ConceptSet, SstToolkit};
use sst_obs::{Histogram, Metrics};

use crate::boot;
use crate::layers::{ratio, Values};
use crate::stats;
use crate::trace::Tracer;

/// Boots from the sources and times every build stage, then exports the
/// result and times each part of a snapshot import. Every traced run
/// makes both probes, so each workload reports every boot layer; the
/// workload's own boot is the `boot` span.
pub fn boot_layers(tracer: &mut Tracer, values: &mut Values) -> Result<(), String> {
    let root = tracer.open("probe.boot", None, 0);
    let toolkit = boot::from_sources(tracer, Some(root))?;
    tracer.close(root);
    let spans = tracer.spans();
    let sum = |name: &str| {
        spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .sum::<f64>()
    };
    let parse_s = sum("wrappers.parse");
    let build_s = sum("core.build");
    values.set("wrappers.parse_s", parse_s);
    values.set("build.total_s", build_s);

    let stages_root = tracer.open("probe.build_stages", None, 0);
    let st = boot::build_stages(&toolkit, tracer, Some(stages_root));
    tracer.close(stages_root);
    values.set("build.tree_s", st.tree_s);
    values.set("build.ic_s", st.ic_s);
    values.set("build.index_s", st.index_s);
    values.set("build.vectors_s", st.vectors_s);
    values.set(
        "build.stage_share",
        ratio(st.tree_s + st.ic_s + st.index_s + st.vectors_s, build_s),
    );

    let bytes = toolkit.export_snapshot();
    drop(toolkit);
    let snap_root = tracer.open("probe.snapshot", None, 0);
    let sn = boot::snapshot_stages(&bytes, tracer, Some(snap_root))?;
    tracer.close(snap_root);
    values.set("snapshot.bytes", sn.bytes as f64);
    values.set("snapshot.decode_s", sn.decode_s);
    values.set("snapshot.import_s", sn.import_s);
    values.set("snapshot.crosscheck_s", sn.crosscheck_s);
    values.set(
        "snapshot.rebuild_s",
        (sn.import_s - sn.decode_s - sn.crosscheck_s).max(0.0),
    );
    Ok(())
}

/// Median time of `CachedSimilarity::most_similar` when every pair is
/// already in the memo, over a private cache on `toolkit`.
pub fn cache_hit_rank(toolkit: &SstToolkit, query: &(String, String), values: &mut Values) {
    let cache = CachedSimilarity::new(toolkit);
    let rank = || cache.most_similar(&query.0, &query.1, &ConceptSet::All, 10, 13);
    let _ = rank();
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(rank().ok());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.set("cache.hit_rank_us", stats::median(&times));
}

/// The cost of one `Histogram::observe` on a private histogram, and of
/// rendering the registry `/metrics` serves.
pub fn obs(metrics: &Metrics, values: &mut Values) {
    const N: u32 = 1_000_000;
    let h = Histogram::latency();
    let start = Instant::now();
    for i in 0..N {
        h.observe(std::hint::black_box(Duration::from_nanos(
            u64::from(i % 4096) * 37,
        )));
    }
    values.set(
        "obs.observe_ns",
        start.elapsed().as_secs_f64() * 1e9 / f64::from(N),
    );
    std::hint::black_box(h.count());
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(metrics.render_text().len());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.set("obs.metrics_render_us", stats::median(&times));
}
