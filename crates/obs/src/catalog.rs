//! The declared metrics catalog: every metric name the workspace may
//! emit, with its kind and meaning.
//!
//! This module is the single source of truth for the `/metrics` surface.
//! `cargo xtask lint` (rule **metrics-catalog**) statically extracts
//! every metric-name literal passed to a registry call workspace-wide
//! and checks it against [`CATALOG`]: an undeclared name (typo, drift),
//! a kind mismatch, overlapping declarations, or a declaration nothing
//! emits all fail the gate. Keep this list sorted by name.
//!
//! Name grammar: dotted lowercase segments; a `*` segment stands for
//! exactly one dynamic segment (e.g. `server.requests.*` covers
//! `server.requests.ql`, `server.requests.rank`, …).

/// What a declared metric counts or measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count (`inc` / `add` / `counter`).
    Counter,
    /// Point-in-time level (`gauge`).
    Gauge,
    /// Value distribution, typically latency in ns (`histogram` / `span`).
    Histogram,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    /// Dotted name; `*` segments are dynamic (exactly one segment each).
    pub name: &'static str,
    pub kind: MetricKind,
    /// One-line meaning, for dashboards and code review.
    pub help: &'static str,
}

impl MetricDecl {
    /// True when `name` (a concrete emitted name) falls under this
    /// declaration: equal segment count, literal segments equal, `*`
    /// segments match anything.
    pub fn matches(&self, name: &str) -> bool {
        let mut decl = self.name.split('.');
        let mut given = name.split('.');
        loop {
            match (decl.next(), given.next()) {
                (None, None) => return true,
                (Some(d), Some(g)) => {
                    if d != "*" && d != g {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }
}

/// Looks up the declaration covering a concrete metric name.
pub fn find(name: &str) -> Option<&'static MetricDecl> {
    CATALOG.iter().find(|d| d.matches(name))
}

/// Every metric the workspace emits. Sorted by name.
pub const CATALOG: &[MetricDecl] = &[
    MetricDecl {
        name: "core.align.calls",
        kind: MetricKind::Counter,
        help: "ontology alignment runs",
    },
    MetricDecl {
        name: "core.align.candidates",
        kind: MetricKind::Counter,
        help: "alignment candidate pairs generated (and scored)",
    },
    MetricDecl {
        name: "core.align.latency",
        kind: MetricKind::Histogram,
        help: "alignment wall time (ns)",
    },
    MetricDecl {
        name: "core.align.matches",
        kind: MetricKind::Counter,
        help: "alignment correspondences proposed",
    },
    MetricDecl {
        name: "core.align.proposals",
        kind: MetricKind::Counter,
        help: "alignment matching-phase pair inspections",
    },
    MetricDecl {
        name: "core.build.latency",
        kind: MetricKind::Histogram,
        help: "ontology build/ingest wall time (ns)",
    },
    MetricDecl {
        name: "core.cache.evictions",
        kind: MetricKind::Counter,
        help: "similarity-cache entries evicted",
    },
    MetricDecl {
        name: "core.cache.hits",
        kind: MetricKind::Counter,
        help: "similarity-cache hits",
    },
    MetricDecl {
        name: "core.cache.misses",
        kind: MetricKind::Counter,
        help: "similarity-cache misses",
    },
    MetricDecl {
        name: "core.cluster.calls",
        kind: MetricKind::Counter,
        help: "concept clustering runs",
    },
    MetricDecl {
        name: "core.cluster.latency",
        kind: MetricKind::Histogram,
        help: "clustering wall time (ns)",
    },
    MetricDecl {
        name: "core.matrix.calls.*",
        kind: MetricKind::Counter,
        help: "similarity-matrix runs, per measure",
    },
    MetricDecl {
        name: "core.matrix.latency.*",
        kind: MetricKind::Histogram,
        help: "similarity-matrix wall time per measure (ns)",
    },
    MetricDecl {
        name: "core.matrix.pairs",
        kind: MetricKind::Counter,
        help: "concept pairs scored in matrix runs",
    },
    MetricDecl {
        name: "core.pair.calls.*",
        kind: MetricKind::Counter,
        help: "pairwise similarity calls, per measure",
    },
    MetricDecl {
        name: "core.pair.latency.*",
        kind: MetricKind::Histogram,
        help: "pairwise similarity wall time per measure (ns)",
    },
    MetricDecl {
        name: "core.prepare.concepts",
        kind: MetricKind::Counter,
        help: "rows of the resident concept table, recorded once per toolkit build",
    },
    MetricDecl {
        name: "core.prepare.latency",
        kind: MetricKind::Histogram,
        help: "resident concept-table build wall time, once per toolkit build (ns)",
    },
    MetricDecl {
        name: "core.rank.calls.*",
        kind: MetricKind::Counter,
        help: "rank-query runs, per measure",
    },
    MetricDecl {
        name: "core.rank.latency.*",
        kind: MetricKind::Histogram,
        help: "rank-query wall time per measure (ns)",
    },
    MetricDecl {
        name: "core.sched.imbalance",
        kind: MetricKind::Gauge,
        help: "last scheduler run's max/mean worker busy time (permille)",
    },
    MetricDecl {
        name: "core.sched.steals",
        kind: MetricKind::Counter,
        help: "successful work-stealing deque steals",
    },
    MetricDecl {
        name: "core.sched.tiles",
        kind: MetricKind::Counter,
        help: "tiles executed by the work-stealing scheduler",
    },
    MetricDecl {
        name: "core.vector.approx.latency",
        kind: MetricKind::Histogram,
        help: "approximate (graph) vector rank wall time (ns)",
    },
    MetricDecl {
        name: "core.vector.approx.queries",
        kind: MetricKind::Counter,
        help: "approximate (graph) vector rank queries",
    },
    MetricDecl {
        name: "core.vector.build.latency",
        kind: MetricKind::Histogram,
        help: "embedding + proximity-graph build wall time (ns)",
    },
    MetricDecl {
        name: "core.vector.concepts",
        kind: MetricKind::Counter,
        help: "concepts embedded into the vector store",
    },
    MetricDecl {
        name: "core.vector.exact.latency",
        kind: MetricKind::Histogram,
        help: "exact vector-store rank wall time (ns)",
    },
    MetricDecl {
        name: "core.vector.exact.queries",
        kind: MetricKind::Counter,
        help: "exact vector-store rank queries",
    },
    MetricDecl {
        name: "core.vector.probed",
        kind: MetricKind::Counter,
        help: "candidate rows scanned by approximate vector queries",
    },
    MetricDecl {
        name: "index.docs",
        kind: MetricKind::Counter,
        help: "documents added to the token index",
    },
    MetricDecl {
        name: "index.search.calls",
        kind: MetricKind::Counter,
        help: "index searches",
    },
    MetricDecl {
        name: "index.search.latency",
        kind: MetricKind::Histogram,
        help: "index search wall time (ns)",
    },
    MetricDecl {
        name: "index.terms",
        kind: MetricKind::Counter,
        help: "distinct terms in the index",
    },
    MetricDecl {
        name: "index.tokens",
        kind: MetricKind::Counter,
        help: "tokens ingested by the index",
    },
    MetricDecl {
        name: "rdf.rdfxml.bytes",
        kind: MetricKind::Counter,
        help: "RDF/XML bytes parsed",
    },
    MetricDecl {
        name: "rdf.rdfxml.documents",
        kind: MetricKind::Counter,
        help: "RDF/XML documents parsed",
    },
    MetricDecl {
        name: "rdf.rdfxml.limit.*",
        kind: MetricKind::Counter,
        help: "RDF/XML parses rejected, per limit kind",
    },
    MetricDecl {
        name: "rdf.rdfxml.parse.latency",
        kind: MetricKind::Histogram,
        help: "RDF/XML parse wall time (ns)",
    },
    MetricDecl {
        name: "rdf.rdfxml.triples",
        kind: MetricKind::Counter,
        help: "triples produced by the RDF/XML parser",
    },
    MetricDecl {
        name: "rdf.turtle.bytes",
        kind: MetricKind::Counter,
        help: "Turtle bytes parsed",
    },
    MetricDecl {
        name: "rdf.turtle.documents",
        kind: MetricKind::Counter,
        help: "Turtle documents parsed",
    },
    MetricDecl {
        name: "rdf.turtle.limit.*",
        kind: MetricKind::Counter,
        help: "Turtle parses rejected, per limit kind",
    },
    MetricDecl {
        name: "rdf.turtle.parse.latency",
        kind: MetricKind::Histogram,
        help: "Turtle parse wall time (ns)",
    },
    MetricDecl {
        name: "rdf.turtle.triples",
        kind: MetricKind::Counter,
        help: "triples produced by the Turtle parser",
    },
    MetricDecl {
        name: "server.accepted",
        kind: MetricKind::Counter,
        help: "TCP connections accepted",
    },
    MetricDecl {
        name: "server.align.correspondences",
        kind: MetricKind::Counter,
        help: "correspondences returned by /align",
    },
    MetricDecl {
        name: "server.align.mode.*",
        kind: MetricKind::Counter,
        help: "/align requests per matching mode (greedy|stable)",
    },
    MetricDecl {
        name: "server.deadline_hits",
        kind: MetricKind::Counter,
        help: "requests cut off at the per-request deadline",
    },
    MetricDecl {
        name: "server.http.write_failures",
        kind: MetricKind::Counter,
        help: "HTTP responses the peer never received (write error)",
    },
    MetricDecl {
        name: "server.latency.*",
        kind: MetricKind::Histogram,
        help: "request wall time per endpoint (ns)",
    },
    MetricDecl {
        name: "server.rank.approx.latency",
        kind: MetricKind::Histogram,
        help: "approximate /rank request wall time (ns)",
    },
    MetricDecl {
        name: "server.rank.approx.requests",
        kind: MetricKind::Counter,
        help: "/rank requests served by the approximate vector path",
    },
    MetricDecl {
        name: "server.requests.*",
        kind: MetricKind::Counter,
        help: "requests routed, per endpoint",
    },
    MetricDecl {
        name: "server.responses.2xx",
        kind: MetricKind::Counter,
        help: "successful responses",
    },
    MetricDecl {
        name: "server.responses.4xx",
        kind: MetricKind::Counter,
        help: "client-error responses",
    },
    MetricDecl {
        name: "server.responses.5xx",
        kind: MetricKind::Counter,
        help: "server-error responses",
    },
    MetricDecl {
        name: "server.shed",
        kind: MetricKind::Counter,
        help: "connections shed under overload",
    },
    MetricDecl {
        name: "server.tenant.corpora",
        kind: MetricKind::Gauge,
        help: "corpora registered in the tenancy registry",
    },
    MetricDecl {
        name: "server.tenant.default",
        kind: MetricKind::Counter,
        help: "requests served by the default corpus",
    },
    MetricDecl {
        name: "server.tenant.named",
        kind: MetricKind::Counter,
        help: "requests routed to a named corpus",
    },
    MetricDecl {
        name: "server.tenant.swaps",
        kind: MetricKind::Counter,
        help: "hot swaps of a live corpus name",
    },
    MetricDecl {
        name: "server.tenant.unknown",
        kind: MetricKind::Counter,
        help: "corpus selectors naming no registered corpus (404)",
    },
    MetricDecl {
        name: "sexpr.bytes",
        kind: MetricKind::Counter,
        help: "s-expression bytes parsed",
    },
    MetricDecl {
        name: "sexpr.documents",
        kind: MetricKind::Counter,
        help: "s-expression documents parsed",
    },
    MetricDecl {
        name: "sexpr.forms",
        kind: MetricKind::Counter,
        help: "forms produced by the s-expression parser",
    },
    MetricDecl {
        name: "sexpr.limit.*",
        kind: MetricKind::Counter,
        help: "s-expression parses rejected, per limit kind",
    },
    MetricDecl {
        name: "sexpr.parse.latency",
        kind: MetricKind::Histogram,
        help: "s-expression parse wall time (ns)",
    },
    MetricDecl {
        name: "soqa.ql.errors",
        kind: MetricKind::Counter,
        help: "SOQA-QL queries that returned an error",
    },
    MetricDecl {
        name: "soqa.ql.eval.latency",
        kind: MetricKind::Histogram,
        help: "SOQA-QL evaluation wall time (ns)",
    },
    MetricDecl {
        name: "soqa.ql.limit.*",
        kind: MetricKind::Counter,
        help: "SOQA-QL evaluations rejected, per limit kind",
    },
    MetricDecl {
        name: "soqa.ql.parse.latency",
        kind: MetricKind::Histogram,
        help: "SOQA-QL parse wall time (ns)",
    },
    MetricDecl {
        name: "soqa.ql.queries",
        kind: MetricKind::Counter,
        help: "SOQA-QL queries evaluated",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_names_resolve() {
        let decl = find("server.accepted").expect("declared");
        assert_eq!(decl.kind, MetricKind::Counter);
        assert!(find("server.acepted").is_none());
    }

    #[test]
    fn wildcard_covers_exactly_one_segment() {
        assert!(find("server.requests.ql").is_some());
        assert!(find("server.requests.a.b").is_none());
        assert!(find("server.requests").is_none());
        let latency = find("core.pair.latency.levenshtein").expect("declared");
        assert_eq!(latency.kind, MetricKind::Histogram);
    }

    #[test]
    fn catalog_is_sorted_and_collision_free() {
        for pair in CATALOG.windows(2) {
            if let [a, b] = pair {
                assert!(a.name < b.name, "{} !< {}", a.name, b.name);
                // Same-length patterns whose segments all unify would let
                // one emission match two declarations.
                let collide = a.name.split('.').count() == b.name.split('.').count()
                    && a.name
                        .split('.')
                        .zip(b.name.split('.'))
                        .all(|(x, y)| x == "*" || y == "*" || x == y);
                assert!(!collide, "{} overlaps {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn names_are_lowercase_dotted() {
        for decl in CATALOG {
            assert!(decl.name.contains('.'), "{}", decl.name);
            assert!(
                decl.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._*".contains(c)),
                "{}",
                decl.name
            );
            assert!(!decl.help.is_empty(), "{}", decl.name);
        }
    }
}
