//! Request dispatch: maps parsed HTTP requests onto toolkit services.
//!
//! Handlers are pure with respect to the connection: they take a
//! [`Request`] and return status + body; all socket I/O stays in the
//! worker loop. Each endpoint records a request counter and a latency
//! histogram in the server's metrics registry
//! (`server.requests.<endpoint>` / `server.latency.<endpoint>`), so
//! `GET /metrics` exposes the server's own traffic next to the measure
//! and cache metrics.
//!
//! ## Corpus routing
//!
//! The router serves from a [`Corpora`] registry. The `ontology` query
//! parameter selects the corpus:
//!
//! - `/similarity`, `/align`, `/ql`: `?ontology=<corpus>` routes to that
//!   corpus (404 for an unknown name); absent, the default corpus
//!   serves — existing single-corpus clients are unaffected.
//! - `/rank`: `ontology` has always named the query concept's ontology,
//!   so it does double duty — a value naming a registered corpus routes
//!   there (corpora are conventionally named after the ontology they
//!   serve, and the value is resolved as an ontology name *inside* that
//!   corpus); any other value falls back to the default corpus with the
//!   value as an in-corpus ontology name, preserving compatibility.
//!   A corpus name therefore shadows a same-named default-corpus
//!   ontology on `/rank`.
//!
//! Handlers clone the resolved tenant's `Arc` before doing work, so a
//! concurrent hot swap ([`Corpora::insert`]) never disturbs an in-flight
//! request — it finishes on the corpus it resolved.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sst_core::export::{json_number, json_string};
use sst_core::{
    align_with_limits, measure_ids, AlignmentConfig, Amalgamation, CandidateGen,
    ConceptAndSimilarity, ConceptSet, MatchMode, SstError, SstToolkit,
};
use sst_limits::Limits;
use sst_obs::{Counter, Histogram, Metrics};
use sst_soqa::ql::Cell;
use sst_soqa::SoqaError;

use crate::http::{
    Request, Status, BAD_REQUEST, INTERNAL_ERROR, METHOD_NOT_ALLOWED, NOT_FOUND, OK,
    SERVICE_UNAVAILABLE, UNPROCESSABLE,
};
use crate::json::{self, Json};
use crate::tenancy::{Corpora, Tenant};

/// One endpoint's pre-resolved metric handles.
#[derive(Debug)]
struct EndpointMetrics {
    requests: Arc<Counter>,
    latency: Arc<Histogram>,
}

impl EndpointMetrics {
    fn register(metrics: &Metrics, endpoint: &str) -> Self {
        EndpointMetrics {
            requests: metrics.counter(&format!("server.requests.{endpoint}")),
            latency: metrics.histogram(&format!("server.latency.{endpoint}")),
        }
    }
}

/// Shared per-server state: the corpus registry, the SOQA-QL evaluation
/// budget, the drain flag, and metric handles.
#[derive(Debug)]
pub struct Router<'a> {
    corpora: &'a Corpora,
    ql_limits: Limits,
    /// Set once shutdown is requested; `/healthz` turns 503 so a load
    /// balancer stops routing to a draining replica.
    draining: Arc<AtomicBool>,
    ql: EndpointMetrics,
    similarity: EndpointMetrics,
    rank: EndpointMetrics,
    align: EndpointMetrics,
    metrics_ep: EndpointMetrics,
    healthz: EndpointMetrics,
    other: EndpointMetrics,
    align_correspondences: Arc<Counter>,
    rank_approx_requests: Arc<Counter>,
    rank_approx_latency: Arc<Histogram>,
    responses_2xx: Arc<Counter>,
    responses_4xx: Arc<Counter>,
    responses_5xx: Arc<Counter>,
    /// `server.tenant.default` — requests served by the default corpus.
    tenant_default: Arc<Counter>,
    /// `server.tenant.named` — requests routed to a named corpus.
    tenant_named: Arc<Counter>,
    /// `server.tenant.unknown` — corpus selectors that 404ed.
    tenant_unknown: Arc<Counter>,
}

/// A handler's answer, ready for the HTTP layer.
#[derive(Debug)]
pub struct Answer {
    pub status: Status,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Answer {
    fn json(status: Status, body: String) -> Answer {
        Answer {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    fn text(status: Status, body: String) -> Answer {
        Answer {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    fn error(status: Status, message: &str) -> Answer {
        Answer::json(status, format!("{{\"error\":{}}}", json_string(message)))
    }
}

impl<'a> Router<'a> {
    pub fn new(corpora: &'a Corpora, ql_limits: Limits, draining: Arc<AtomicBool>) -> Self {
        let metrics = corpora.metrics();
        Router {
            corpora,
            ql_limits,
            draining,
            ql: EndpointMetrics::register(metrics, "ql"),
            similarity: EndpointMetrics::register(metrics, "similarity"),
            rank: EndpointMetrics::register(metrics, "rank"),
            align: EndpointMetrics::register(metrics, "align"),
            metrics_ep: EndpointMetrics::register(metrics, "metrics"),
            healthz: EndpointMetrics::register(metrics, "healthz"),
            other: EndpointMetrics::register(metrics, "other"),
            align_correspondences: metrics.counter("server.align.correspondences"),
            rank_approx_requests: metrics.counter("server.rank.approx.requests"),
            rank_approx_latency: metrics.histogram("server.rank.approx.latency"),
            responses_2xx: metrics.counter("server.responses.2xx"),
            responses_4xx: metrics.counter("server.responses.4xx"),
            responses_5xx: metrics.counter("server.responses.5xx"),
            tenant_default: metrics.counter("server.tenant.default"),
            tenant_named: metrics.counter("server.tenant.named"),
            tenant_unknown: metrics.counter("server.tenant.unknown"),
        }
    }

    /// The corpus registry the router serves from.
    pub fn corpora(&self) -> &Corpora {
        self.corpora
    }

    /// Resolves the corpus a request addresses via its `ontology` query
    /// parameter: absent → default corpus, known name → that corpus,
    /// unknown name → 404. Used by the endpoints where `ontology` is
    /// purely a corpus selector (`/similarity`, `/align`, `/ql`).
    fn corpus_for(&self, request: &Request) -> Result<Arc<Tenant>, Answer> {
        match request.param("ontology") {
            None => {
                self.tenant_default.inc();
                Ok(self.corpora.default_tenant())
            }
            Some(name) => match self.corpora.get(name) {
                Some(tenant) => {
                    self.tenant_named.inc();
                    Ok(tenant)
                }
                None => {
                    self.tenant_unknown.inc();
                    Err(Answer::error(
                        NOT_FOUND,
                        &format!("unknown corpus `{name}`"),
                    ))
                }
            },
        }
    }

    /// Dispatches one parsed request, recording the endpoint's request
    /// counter and latency histogram and the response-class counter.
    pub fn handle_timed(&self, request: &Request) -> Answer {
        let start = Instant::now();
        let (endpoint, answer) = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/ql") => (&self.ql, self.handle_ql(request)),
            ("GET", "/similarity") => (&self.similarity, self.handle_similarity(request)),
            ("GET", "/rank") => (&self.rank, self.handle_rank(request)),
            ("POST", "/align") => (&self.align, self.handle_align(request)),
            ("GET", "/metrics") => (&self.metrics_ep, self.handle_metrics()),
            ("GET", "/healthz") => (&self.healthz, self.handle_healthz()),
            (_, "/ql" | "/similarity" | "/rank" | "/align" | "/metrics" | "/healthz") => (
                &self.other,
                Answer::error(METHOD_NOT_ALLOWED, "method not allowed"),
            ),
            _ => (&self.other, Answer::error(NOT_FOUND, "no such endpoint")),
        };
        endpoint.requests.inc();
        match answer.status.0 {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
        endpoint.latency.observe(start.elapsed());
        answer
    }

    /// `GET /healthz` — `200 ok` while serving. Once shutdown has been
    /// requested the replica is draining: already-accepted requests are
    /// still answered, but health turns `503` so a balancer routes new
    /// traffic elsewhere instead of into a closing listener.
    fn handle_healthz(&self) -> Answer {
        if self.draining.load(Ordering::SeqCst) {
            Answer::text(SERVICE_UNAVAILABLE, "draining\n".to_owned())
        } else {
            Answer::text(OK, "ok\n".to_owned())
        }
    }

    /// `POST /ql` — body is the SOQA-QL query text; evaluation is
    /// budget-governed so a pathological query fails structured instead of
    /// holding the worker. `?ontology=` selects the corpus to query.
    fn handle_ql(&self, request: &Request) -> Answer {
        let tenant = match self.corpus_for(request) {
            Ok(t) => t,
            Err(answer) => return answer,
        };
        let query = request.body_text();
        if query.trim().is_empty() {
            return Answer::error(BAD_REQUEST, "empty SOQA-QL query body");
        }
        match tenant.toolkit().query_with_limits(&query, &self.ql_limits) {
            Ok(table) => {
                let columns: Vec<String> = table.columns.iter().map(|c| json_string(c)).collect();
                let rows: Vec<String> = table
                    .rows
                    .iter()
                    .map(|row| {
                        let cells: Vec<String> = row.iter().map(cell_to_json).collect();
                        format!("[{}]", cells.join(","))
                    })
                    .collect();
                Answer::json(
                    OK,
                    format!(
                        "{{\"columns\":[{}],\"rows\":[{}]}}",
                        columns.join(","),
                        rows.join(",")
                    ),
                )
            }
            Err(e) => error_answer(&e),
        }
    }

    /// `GET /similarity?first=&first_ontology=&second=&second_ontology=&measure=`
    /// (`?ontology=` selects the corpus).
    fn handle_similarity(&self, request: &Request) -> Answer {
        let tenant = match self.corpus_for(request) {
            Ok(t) => t,
            Err(answer) => return answer,
        };
        let (first, first_onto, second, second_onto) = match (
            request.param("first"),
            request.param("first_ontology"),
            request.param("second"),
            request.param("second_ontology"),
        ) {
            (Some(a), Some(ao), Some(b), Some(bo)) => (a, ao, b, bo),
            _ => {
                return Answer::error(
                    BAD_REQUEST,
                    "required: first, first_ontology, second, second_ontology",
                )
            }
        };
        let measure = match resolve_measure(tenant.toolkit(), request) {
            Ok(m) => m,
            Err(answer) => return answer,
        };
        match tenant
            .cache()
            .get_similarity(first, first_onto, second, second_onto, measure)
        {
            Ok(value) => Answer::json(
                OK,
                format!(
                    "{{\"similarity\":{},\"measure\":{}}}",
                    json_number(value),
                    measure
                ),
            ),
            Err(e) => error_answer(&e),
        }
    }

    /// `GET /rank?concept=&ontology=&k=&measure=&approx=` — k most
    /// similar concepts over every registered concept.
    ///
    /// `ontology` does corpus double duty (see module docs): a value
    /// naming a registered corpus routes there; anything else serves
    /// from the default corpus with the value as an in-corpus ontology
    /// name.
    ///
    /// Parameter audit: `k=0` and malformed or out-of-range numerics are
    /// 400, `k` larger than the concept set truncates to the full set
    /// (200), and `approx` accepts only `true`/`1`/`false`/`0`. The
    /// approximate path serves the dense-vector measure from the NSW
    /// proximity graph and bypasses the similarity cache (it never computes
    /// pairwise scores that would be worth caching); combining
    /// `approx=true` with any other `measure` is a 400, since no other
    /// measure has an embedding-space equivalent.
    fn handle_rank(&self, request: &Request) -> Answer {
        let (concept, ontology) = match (request.param("concept"), request.param("ontology")) {
            (Some(c), Some(o)) => (c, o),
            _ => return Answer::error(BAD_REQUEST, "required: concept, ontology"),
        };
        let tenant = match self.corpora.get(ontology) {
            Some(tenant) => {
                self.tenant_named.inc();
                tenant
            }
            None => {
                self.tenant_default.inc();
                self.corpora.default_tenant()
            }
        };
        let k = match request.param("k").unwrap_or("5").parse::<usize>() {
            Ok(k) if k > 0 => k,
            _ => return Answer::error(BAD_REQUEST, "k must be a positive integer"),
        };
        let approx = match request.param("approx") {
            None | Some("false") | Some("0") => false,
            Some("true") | Some("1") => true,
            Some(_) => return Answer::error(BAD_REQUEST, "approx must be true or false"),
        };
        let measure = match resolve_measure(tenant.toolkit(), request) {
            Ok(m) => m,
            Err(answer) => return answer,
        };
        if approx {
            if request.param("measure").is_some() && measure != measure_ids::DENSE_VECTOR_MEASURE {
                return Answer::error(
                    BAD_REQUEST,
                    "approx=true serves only the dense_vector measure",
                );
            }
            self.rank_approx_requests.inc();
            let start = Instant::now();
            let result = tenant.toolkit().most_similar_approx(concept, ontology, k);
            self.rank_approx_latency.observe(start.elapsed());
            return match result {
                Ok(ranked) => ranked_json(&ranked),
                Err(e) => error_answer(&e),
            };
        }
        match tenant
            .cache()
            .most_similar(concept, ontology, &ConceptSet::All, k, measure)
        {
            Ok(ranked) => ranked_json(&ranked),
            Err(e) => error_answer(&e),
        }
    }

    /// `POST /align` — one-to-one ontology alignment (`?ontology=`
    /// selects the corpus). JSON body:
    ///
    /// ```json
    /// {"source": "...", "target": "...",
    ///  "measures": ["tfidf", 3], "strategy": "weighted_average",
    ///  "threshold": 0.25, "mode": "stable", "width": 16}
    /// ```
    ///
    /// Only `source` and `target` are required; the rest default to
    /// [`AlignmentConfig::default`]. `width` selects blocked candidate
    /// generation with that per-channel width; `"width": "exhaustive"`
    /// scores every pair. Scoring work is charged against the server's
    /// step budget (422 when exceeded), and the request deadline applies
    /// as on every endpoint.
    fn handle_align(&self, request: &Request) -> Answer {
        let tenant = match self.corpus_for(request) {
            Ok(t) => t,
            Err(answer) => return answer,
        };
        let toolkit = tenant.toolkit();
        let body = match json::parse(&request.body_text()) {
            Ok(v) => v,
            Err(e) => return Answer::error(BAD_REQUEST, &format!("invalid JSON body: {e}")),
        };
        let (Some(source), Some(target)) = (
            body.get("source").and_then(Json::as_str),
            body.get("target").and_then(Json::as_str),
        ) else {
            return Answer::error(
                BAD_REQUEST,
                "body must name `source` and `target` ontologies",
            );
        };
        let mut config = AlignmentConfig::default();
        if let Some(measures) = body.get("measures") {
            let Some(items) = measures.as_array() else {
                return Answer::error(BAD_REQUEST, "`measures` must be an array");
            };
            let mut ids = Vec::with_capacity(items.len());
            for item in items {
                let resolved = match item {
                    Json::Num(_) => item.as_usize(),
                    Json::Str(name) => toolkit.measure_id(name).ok(),
                    _ => None,
                };
                let Some(id) = resolved else {
                    return Answer::error(
                        BAD_REQUEST,
                        "`measures` entries must be measure names or ids",
                    );
                };
                ids.push(id);
            }
            config.measures = ids;
        }
        if let Some(strategy) = body.get("strategy") {
            config.strategy = match strategy.as_str() {
                Some("weighted_average") => Amalgamation::WeightedAverage,
                Some("max") => Amalgamation::Max,
                Some("min") => Amalgamation::Min,
                Some("harmonic_mean") => Amalgamation::HarmonicMean,
                _ => {
                    return Answer::error(
                        BAD_REQUEST,
                        "`strategy` must be weighted_average|max|min|harmonic_mean",
                    )
                }
            };
        }
        if let Some(threshold) = body.get("threshold") {
            let Some(t) = threshold.as_f64() else {
                return Answer::error(BAD_REQUEST, "`threshold` must be a number");
            };
            config.threshold = t;
        }
        if let Some(mode) = body.get("mode") {
            config.mode = match mode.as_str() {
                Some("greedy") => MatchMode::Greedy,
                Some("stable") => MatchMode::Stable,
                _ => return Answer::error(BAD_REQUEST, "`mode` must be greedy|stable"),
            };
        }
        if let Some(width) = body.get("width") {
            config.candidates = match (width.as_usize(), width.as_str()) {
                (Some(w), _) if w > 0 => CandidateGen::Blocked { width: w },
                (_, Some("exhaustive")) => CandidateGen::Exhaustive,
                _ => {
                    return Answer::error(
                        BAD_REQUEST,
                        "`width` must be a positive integer or \"exhaustive\"",
                    )
                }
            };
        }
        self.corpora
            .metrics()
            .inc(&format!("server.align.mode.{}", config.mode.name()));
        match align_with_limits(toolkit, source, target, &config, &self.ql_limits) {
            Ok(alignment) => {
                self.align_correspondences
                    .add(alignment.correspondences.len() as u64);
                let items: Vec<String> = alignment
                    .correspondences
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"source\":{},\"target\":{},\"similarity\":{}}}",
                            json_string(&c.source_concept),
                            json_string(&c.target_concept),
                            json_number(c.similarity)
                        )
                    })
                    .collect();
                let s = &alignment.stats;
                Answer::json(
                    OK,
                    format!(
                        "{{\"mode\":\"{}\",\"correspondences\":[{}],\"stats\":{{\
                         \"sources\":{},\"targets\":{},\"candidate_pairs\":{},\
                         \"sources_without_candidates\":{},\"admitted_pairs\":{},\
                         \"proposals\":{},\"matches\":{}}}}}",
                        config.mode.name(),
                        items.join(","),
                        s.sources,
                        s.targets,
                        s.candidate_pairs,
                        s.sources_without_candidates,
                        s.admitted_pairs,
                        s.proposals,
                        s.matches
                    ),
                )
            }
            Err(e) => error_answer(&e),
        }
    }

    /// `GET /metrics` — the sst-obs text exposition of the server-wide
    /// registry (the default tenant's; named tenants keep their own
    /// `core.*` registries).
    fn handle_metrics(&self) -> Answer {
        Answer::text(OK, self.corpora.metrics().render_text())
    }
}

/// The `measure` parameter: a numeric id or a registered name; defaults
/// to measure 0 when absent. Resolved against the addressed corpus.
fn resolve_measure(toolkit: &SstToolkit, request: &Request) -> Result<usize, Answer> {
    let Some(raw) = request.param("measure") else {
        return Ok(0);
    };
    let id = match raw.parse::<usize>() {
        Ok(id) => id,
        Err(_) => toolkit.measure_id(raw).map_err(|e| error_answer(&e))?,
    };
    // Validate numeric ids so unknown measures 404 uniformly.
    toolkit
        .measure_info(id)
        .map(|_| id)
        .map_err(|e| error_answer(&e))
}

/// Renders a ranking as the `/rank` response body.
fn ranked_json(ranked: &[ConceptAndSimilarity]) -> Answer {
    let rows: Vec<String> = ranked
        .iter()
        .map(|r| {
            format!(
                "{{\"concept\":{},\"ontology\":{},\"similarity\":{}}}",
                json_string(&r.concept),
                json_string(&r.ontology),
                json_number(r.similarity)
            )
        })
        .collect();
    Answer::json(OK, format!("{{\"results\":[{}]}}", rows.join(",")))
}

fn cell_to_json(cell: &Cell) -> String {
    match cell {
        Cell::Str(s) => json_string(s),
        Cell::Num(n) => json_number(*n),
        Cell::Null => "null".to_owned(),
    }
}

/// Maps a toolkit error onto an HTTP status: unknown names are 404,
/// malformed queries/arguments 400, blown evaluation budgets 422, and
/// internal failures 500.
fn error_answer(e: &SstError) -> Answer {
    let status = match e {
        SstError::Soqa(SoqaError::UnknownOntology(_) | SoqaError::UnknownConcept { .. }) => {
            NOT_FOUND
        }
        SstError::Soqa(SoqaError::Limit(_)) | SstError::Limit(_) => UNPROCESSABLE,
        SstError::Soqa(_) => BAD_REQUEST,
        SstError::UnknownMeasure(_) => NOT_FOUND,
        SstError::InvalidArgument(_) => BAD_REQUEST,
        SstError::Internal(_) => INTERNAL_ERROR,
    };
    Answer::error(status, &e.to_string())
}
