//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit. `BENCHMARK.json` lists the same names.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every run without tracing.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The registered measures, in id order.
pub const MEASURES: [&str; 20] = [
    "cosine",
    "jaccard",
    "overlap",
    "dice",
    "levenshtein",
    "jaro",
    "jaro_winkler",
    "qgram",
    "monge_elkan",
    "shortest_path",
    "edge",
    "wu_palmer",
    "resnik",
    "lin",
    "jiang_conrath",
    "tfidf",
    "tree_edit",
    "needleman_wunsch",
    "smith_waterman",
    "dense_vector",
];

/// Per-layer metrics (before the per-measure kernel rows), printed by
/// every traced run. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("wrappers.parse_s", "s"),
    ("build.total_s", "s"),
    ("build.tree_s", "s"),
    ("build.ic_s", "s"),
    ("build.index_s", "s"),
    ("build.vectors_s", "s"),
    ("build.stage_share", "ratio"),
    ("snapshot.decode_s", "s"),
    ("snapshot.import_s", "s"),
    ("snapshot.crosscheck_s", "s"),
    ("snapshot.rebuild_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("http.connects_per_request", "ratio"),
    ("http.connect_us", "us"),
    ("http.read_us", "us"),
    ("http.write_us", "us"),
    ("http.close_us", "us"),
    ("http.outside_handle_us", "us"),
    ("client.write_us", "us"),
    ("client.read_us", "us"),
    ("router.handle_us", "us"),
    ("router.self_us", "us"),
    ("router.similarity_us", "us"),
    ("router.rank_us", "us"),
    ("router.approx_us", "us"),
    ("router.align_us", "us"),
    ("router.ql_us", "us"),
    ("router.metrics_us", "us"),
    ("router.healthz_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_request", "ratio"),
    ("cache.hit_rank_us", "us"),
    ("prepare.us_per_request", "us"),
    ("prepare.concepts_per_request", "count"),
    ("prepare.share", "ratio"),
    ("sched.tiles", "count"),
    ("sched.steals", "count"),
    ("sched.imbalance", "ratio"),
    ("sched.idle_share", "ratio"),
    ("vector.approx_us", "us"),
    ("vector.probed_per_query", "count"),
    ("align.ms", "ms"),
    ("align.candidates_per_alignment", "count"),
    ("align.proposals_per_alignment", "count"),
    ("ql.us", "us"),
    ("obs.pair_timings_per_request", "count"),
    ("obs.observe_ns", "ns"),
    ("obs.metrics_render_us", "us"),
    ("gen.lateness_p99_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.max_ms", "ms"),
    ("client.samples", "count"),
    ("client.tail_pct", "%"),
    ("client.tail_ms", "ms"),
    ("failed_share", "ratio"),
    ("trace.request_share", "ratio"),
    ("trace.request_min_share", "ratio"),
    ("trace.requests_under_90pct", "count"),
    ("trace.boot_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.other_us", "us"),
    ("trace.requests", "count"),
    ("load.rank_share", "ratio"),
    ("load.distinct_queries", "count"),
    ("load.working_set_share", "ratio"),
];

/// The name of a measure's kernel metric.
pub fn kernel_metric(measure: &str) -> String {
    format!("kernel.{measure}.ns_per_pair")
}

/// Every per-layer metric with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    all.extend(MEASURES.iter().map(|m| (kernel_metric(m), "ns")));
    all
}

/// Values collected for one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(pub BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `numerator / denominator`, or 0 when nothing was measured.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}
