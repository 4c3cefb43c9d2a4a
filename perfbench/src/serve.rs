//! The two server workloads. Both boot the toolkit, start `sst-server`
//! with one worker per available thread, and drive it over HTTP from one
//! process with at most one connection per available thread: open loop at
//! the workload's nominal rate for latency, alternating with closed-loop
//! bursts for throughput.
//!
//! * `serve_hot` is interactive browsing: a small Zipf-popular set of
//!   query concepts under three measures, so after warm-up the memo
//!   working set fits the per-tenant LRU and every lookup hits. HTTP
//!   framing, routing, memo lookups and JSON dominate.
//! * `serve_cold` is analytical: `/rank` for concepts and measures drawn
//!   from the whole corpus plus a few `/align` requests. The distinct
//!   pairs swamp the LRU, so nearly every request prepares its concepts
//!   and runs kernels.
//!
//! The seed draws the request sequence. The distribution it draws from is
//! fixed, so every seed asks for the same kind and amount of work:
//! `serve_hot`'s popular set and measures do not depend on the seed, and
//! `serve_cold` draws concepts, measures and ontology pairs in shuffled
//! rounds that cover each value once per round.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sst_core::{align_with_limits, AlignmentConfig, ConceptSet, SstToolkit};
use sst_server::http::{read_request, write_response, ReadOutcome};
use sst_server::json::{self, Json};
use sst_server::router::Router;
use sst_server::{Corpora, Server, ServerConfig};
use sst_soqa::ql::Cell;

use crate::client::{self, Client, PhaseRun, Planned, Schedule};
use crate::delta::Delta;
use crate::jsonw::J;
use crate::layers::{kernel_metric, ratio, Values, MEASURES};
use crate::stats::{self, Failure, Tally};
use crate::trace::Tracer;
use crate::{boot, env, probes, seeded, Args, Outcome};
use sst_bench::SplitMix64;

/// One server workload's fixed parameters.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Where the served toolkit boots from.
    boot: Boot,
    /// Requests per second of the timed phase.
    nominal_rps: f64,
    /// Open-loop warm-up at the nominal rate before timing.
    warmup_s: f64,
    /// Draws `n` requests of the workload's mix.
    draw: fn(&Catalog, &mut SplitMix64, usize) -> Vec<Call>,
    /// Requests sent at fixed intervals besides the drawn ones.
    probes: &'static [Probe],
    /// Requests sent once before the warm-up, to fill the memo with the
    /// workload's working set.
    warm: fn(&Catalog) -> Vec<Call>,
}

#[derive(Debug, Clone, Copy)]
enum Boot {
    /// Parse the five source files and build.
    Sources,
    /// Import an SSTSNAP1 snapshot written before setup.
    Snapshot,
}

/// A request sent every `every_ms`, first at `offset_ms`.
#[derive(Debug)]
struct Probe {
    every_ms: u64,
    offset_ms: u64,
    call: Call,
}

pub const HOT: Spec = Spec {
    name: "serve_hot",
    boot: Boot::Sources,
    nominal_rps: 400.0,
    warmup_s: 1.0,
    draw: draw_hot,
    probes: &[
        Probe {
            every_ms: 200,
            offset_ms: 50,
            call: Call::Healthz,
        },
        Probe {
            every_ms: 1000,
            offset_ms: 500,
            call: Call::Metrics,
        },
    ],
    warm: warm_hot,
};

pub const COLD: Spec = Spec {
    name: "serve_cold",
    boot: Boot::Snapshot,
    nominal_rps: 25.0,
    warmup_s: 2.0,
    draw: draw_cold,
    probes: &[],
    warm: no_warm,
};

/// Name the corpus is registered under in the server's registry.
const CORPUS: &str = "scenario";
/// serve_hot's measures: IC-based, string and text.
const HOT_MEASURES: [usize; 3] = [13, 6, 15];
/// Size of serve_hot's popular query set.
const POPULAR: usize = 12;
/// Seed of serve_hot's popular set; fixed, so every run seed draws from
/// the same working set.
const POPULAR_SEED: u64 = 0;
const K: usize = 10;
const QL_QUERY: &str = "SELECT name, language, concept_count FROM ontology ORDER BY name";
/// serve_cold sends one `/align` per this many requests.
const ALIGN_EVERY: usize = 20;
/// The LRU capacity each tenant's memo has by default.
const LRU_CAPACITY: f64 = 65_536.0;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// One output check per this many timed requests.
const CHECK_STRIDE: usize = 61;
/// Share of `--seconds` spent open loop at the nominal rate; the rest goes
/// to closed-loop throughput bursts.
const NOMINAL_SHARE: f64 = 0.7;
/// The timed run alternates this many slices of the nominal phase with
/// as many closed-loop bursts, so a slow stretch of a shared machine
/// lasting a few seconds touches few slices and few bursts.
const CYCLES: usize = 10;
/// Requests the closed loop cycles through. Small beside the corpus, so
/// the table does not weigh on `peak_rss_mb`; in `serve_cold` a query
/// comes round again only long after the LRU evicted it.
const CLOSED_TABLE: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Similarity,
    Rank,
    Approx,
    Ql,
    Align,
    Healthz,
    Metrics,
}

const KINDS: [Kind; 7] = [
    Kind::Similarity,
    Kind::Rank,
    Kind::Approx,
    Kind::Ql,
    Kind::Align,
    Kind::Healthz,
    Kind::Metrics,
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Similarity => "similarity",
            Kind::Rank => "rank",
            Kind::Approx => "approx",
            Kind::Ql => "ql",
            Kind::Align => "align",
            Kind::Healthz => "healthz",
            Kind::Metrics => "metrics",
        }
    }

    /// The server histogram timing this endpoint's router work.
    fn latency_hist(self) -> &'static str {
        match self {
            Kind::Similarity => "server.latency.similarity",
            Kind::Rank => "server.latency.rank",
            Kind::Approx => "server.rank.approx.latency",
            Kind::Ql => "server.latency.ql",
            Kind::Align => "server.latency.align",
            Kind::Healthz => "server.latency.healthz",
            Kind::Metrics => "server.latency.metrics",
        }
    }
}

/// One generated request; concepts and ontologies are catalogue indices.
#[derive(Debug, Clone, Copy)]
enum Call {
    Similarity { a: usize, b: usize, m: usize },
    Rank { q: usize, m: usize },
    Approx { q: usize },
    Ql,
    Align { s: usize, t: usize },
    Healthz,
    Metrics,
}

impl Call {
    fn kind(self) -> Kind {
        match self {
            Call::Similarity { .. } => Kind::Similarity,
            Call::Rank { .. } => Kind::Rank,
            Call::Approx { .. } => Kind::Approx,
            Call::Ql => Kind::Ql,
            Call::Align { .. } => Kind::Align,
            Call::Healthz => Kind::Healthz,
            Call::Metrics => Kind::Metrics,
        }
    }

    fn render(self, cat: &Catalog) -> Vec<u8> {
        let e = client::encode;
        match self {
            Call::Similarity { a, b, m } => {
                let (an, ao) = &cat.concepts[a];
                let (bn, bo) = &cat.concepts[b];
                client::get(&format!(
                    "/similarity?first={}&first_ontology={}&second={}&second_ontology={}&measure={m}",
                    e(an),
                    e(ao),
                    e(bn),
                    e(bo)
                ))
            }
            Call::Rank { q, m } => {
                let (n, o) = &cat.concepts[q];
                client::get(&format!(
                    "/rank?concept={}&ontology={}&k={K}&measure={m}",
                    e(n),
                    e(o)
                ))
            }
            Call::Approx { q } => {
                let (n, o) = &cat.concepts[q];
                client::get(&format!(
                    "/rank?concept={}&ontology={}&k={K}&approx=true",
                    e(n),
                    e(o)
                ))
            }
            Call::Ql => client::post("/ql", "text/plain", QL_QUERY),
            Call::Align { s, t } => client::post(
                "/align",
                "application/json",
                &format!(
                    "{{\"source\":\"{}\",\"target\":\"{}\"}}",
                    cat.ontologies[s], cat.ontologies[t]
                ),
            ),
            Call::Healthz => client::get("/healthz"),
            Call::Metrics => client::get("/metrics"),
        }
    }
}

/// Every concept of the corpus as (name, ontology), in tree order.
#[derive(Debug)]
struct Catalog {
    concepts: Vec<(String, String)>,
    ontologies: Vec<&'static str>,
}

impl Catalog {
    fn of(toolkit: &SstToolkit) -> Catalog {
        let soqa = toolkit.soqa();
        let concepts = toolkit
            .tree()
            .all_concepts()
            .into_iter()
            .map(|gc| {
                (
                    soqa.concept(gc).name.clone(),
                    soqa.ontology_at(gc.ontology).name().to_owned(),
                )
            })
            .collect();
        Catalog {
            concepts,
            ontologies: boot::ontology_names(),
        }
    }
}

/// Draws `0..n` in shuffled rounds, each value once per round.
#[derive(Debug)]
struct Rounds {
    n: usize,
    bag: Vec<usize>,
}

impl Rounds {
    fn new(n: usize) -> Rounds {
        Rounds { n, bag: Vec::new() }
    }

    fn next(&mut self, rng: &mut SplitMix64) -> usize {
        if self.bag.is_empty() {
            self.bag = (0..self.n).collect();
            rng.shuffle(&mut self.bag);
        }
        self.bag.pop().unwrap_or(0)
    }
}

/// serve_hot's popular query concepts, most popular first.
fn popular(cat: &Catalog) -> Vec<usize> {
    let mut all: Vec<usize> = (0..cat.concepts.len()).collect();
    seeded(POPULAR_SEED, 1).shuffle(&mut all);
    all.truncate(POPULAR);
    all
}

/// serve_hot's mix: 55% `/similarity` between popular pairs, 20% `/rank`,
/// 15% `/rank?approx=true`, 10% `/ql`; query concepts by Zipf(1)
/// popularity, measures uniform. The shares put the median inside the
/// cheap class (`/similarity`, `/ql`) and p90 inside the `/rank` class,
/// not on a boundary between classes, where a small shift would jump from
/// one class to the next.
fn draw_hot(cat: &Catalog, rng: &mut SplitMix64, n: usize) -> Vec<Call> {
    let popular = popular(cat);
    let total: f64 = (1..=POPULAR).map(|r| 1.0 / r as f64).sum();
    let cdf: Vec<f64> = (1..=POPULAR)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64 / total;
            Some(*acc)
        })
        .collect();
    let pick = |rng: &mut SplitMix64| {
        let u = rng.gen_range(0..1 << 30) as f64 / f64::from(1 << 30);
        popular[cdf.iter().position(|&c| u < c).unwrap_or(POPULAR - 1)]
    };
    (0..n)
        .map(|_| {
            let r = rng.gen_range(0..100);
            let m = HOT_MEASURES[rng.gen_range(0..HOT_MEASURES.len())];
            if r < 55 {
                Call::Similarity {
                    a: pick(rng),
                    b: pick(rng),
                    m,
                }
            } else if r < 75 {
                Call::Rank { q: pick(rng), m }
            } else if r < 90 {
                Call::Approx { q: pick(rng) }
            } else {
                Call::Ql
            }
        })
        .collect()
}

/// Every popular query under every measure, so the memo holds serve_hot's
/// whole working set before timing.
fn warm_hot(cat: &Catalog) -> Vec<Call> {
    let popular = popular(cat);
    let mut warm: Vec<Call> = popular
        .iter()
        .flat_map(|&q| HOT_MEASURES.iter().map(move |&m| Call::Rank { q, m }))
        .collect();
    warm.extend([Call::Approx { q: popular[0] }, Call::Ql]);
    warm
}

fn no_warm(_: &Catalog) -> Vec<Call> {
    Vec::new()
}

/// serve_cold's mix, in blocks of 20 slots: one `/align` in the middle
/// slot, between ordered ontology pairs drawn in shuffled rounds of all
/// 20, and a `/rank` in each other slot. Query concepts come in shuffled
/// rounds of all 943 and measures in shuffled rounds of all 20, so the
/// shares are exact in every phase and alignments never bunch up.
fn draw_cold(cat: &Catalog, rng: &mut SplitMix64, n: usize) -> Vec<Call> {
    let o = cat.ontologies.len();
    let pairs: Vec<(usize, usize)> = (0..o)
        .flat_map(|s| (0..o).filter(move |&t| t != s).map(move |t| (s, t)))
        .collect();
    let mut pair_rounds = Rounds::new(pairs.len());
    let mut concepts = Rounds::new(cat.concepts.len());
    let mut measures = Rounds::new(MEASURES.len());
    (0..n)
        .map(|i| {
            if i % ALIGN_EVERY == ALIGN_EVERY / 2 {
                let (s, t) = pairs[pair_rounds.next(rng)];
                Call::Align { s, t }
            } else {
                Call::Rank {
                    q: concepts.next(rng),
                    m: measures.next(rng),
                }
            }
        })
        .collect()
}

/// Requests ready to send: the calls, rendered, with their schedule.
#[derive(Debug)]
struct Phase {
    calls: Vec<Call>,
    bytes: Vec<Vec<u8>>,
    plan: Vec<Planned>,
}

impl Phase {
    /// The open-loop phase `stream` of `seed` at `rate` for `secs`: the
    /// drawn requests at fixed intervals, merged with the probes.
    fn open(spec: &Spec, cat: &Catalog, seed: u64, stream: u64, rate: f64, secs: f64) -> Phase {
        let n = (rate * secs).round().max(1.0) as usize;
        let gap = 1e9 / rate;
        let drawn = (spec.draw)(cat, &mut seeded(seed, 1000 + stream), n);
        let mut timed: Vec<(u64, Call)> = drawn
            .into_iter()
            .enumerate()
            .map(|(i, call)| ((i as f64 * gap) as u64, call))
            .collect();
        let end = (secs * 1e9) as u64;
        for p in spec.probes {
            timed.extend(
                (0..)
                    .map(|k| (p.offset_ms + k * p.every_ms) * 1_000_000)
                    .take_while(|&due| due < end)
                    .map(|due| (due, p.call)),
            );
        }
        timed.sort_by_key(|&(due, _)| due);
        let plan = timed
            .iter()
            .enumerate()
            .map(|(req, &(due_ns, _))| Planned { due_ns, req })
            .collect();
        let calls: Vec<Call> = timed.into_iter().map(|(_, c)| c).collect();
        let bytes = calls.iter().map(|c| c.render(cat)).collect();
        Phase { calls, bytes, plan }
    }

    /// Sends the scheduled requests `range` open loop, with due times
    /// counted from `from_ns` into the schedule.
    fn send(
        &self,
        addr: SocketAddr,
        range: Range<usize>,
        from_ns: u64,
        keep: &(dyn Fn(usize) -> bool + Sync),
    ) -> Result<PhaseRun, String> {
        let plan: Vec<Planned> = self.plan[range]
            .iter()
            .map(|p| Planned {
                due_ns: p.due_ns.saturating_sub(from_ns),
                req: p.req,
            })
            .collect();
        client::run(
            addr,
            &self.bytes,
            Schedule::Open(&plan),
            env::parallelism(),
            CLIENT_TIMEOUT,
            keep,
        )
    }
}

/// Where serve_cold's snapshot is written before setup.
fn snapshot_path(spec: &Spec) -> PathBuf {
    boot::out_dir().join(format!("{}.sstsnap", spec.name))
}

/// A booted server, not yet running.
type Served = (Corpora, Server);

/// Boots the toolkit as `spec` says, registers it and binds the server:
/// the workload's setup. Records spans under a `boot` root and returns
/// the root's id and the setup's seconds with the server.
fn boot_server(spec: &Spec, tracer: &mut Tracer) -> Result<(Served, usize, f64), String> {
    let config = ServerConfig {
        workers: env::parallelism(),
        ..ServerConfig::default()
    };
    let root = tracer.open("boot", None, 0);
    let parent = Some(root);
    let start = Instant::now();
    let toolkit = match spec.boot {
        Boot::Sources => boot::from_sources(tracer, parent)?,
        Boot::Snapshot => boot::from_snapshot(&snapshot_path(spec), tracer, parent)?,
    };
    let corpora = tracer.time("server.corpora", parent, 0, || {
        Corpora::new(CORPUS, Arc::new(toolkit))
    });
    let server = tracer
        .time("server.bind", parent, 0, || Server::bind(config))
        .map_err(|e| format!("cannot bind the server: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    tracer.close(root);
    Ok(((corpora, server), root, secs))
}

/// The setup of `spec`, once, for a child process of a timed run.
pub fn boot_once(spec: &Spec) -> Result<f64, String> {
    boot_server(spec, &mut Tracer::new(false)).map(|(_, _, secs)| secs)
}

/// Runs one server workload.
pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    if let Boot::Snapshot = spec.boot {
        write_snapshot_untimed(&snapshot_path(spec))?;
    }
    let mut tracer = Tracer::new(args.trace);
    let mut values = Values::default();
    let ((corpora, server), boot_root, served_boot_s) = boot_server(spec, &mut tracer)?;
    if args.trace {
        values.set(
            "trace.boot_share",
            tracer.analysis().attributed_share(boot_root),
        );
        probes::boot_layers(&mut tracer, &mut values)?;
    }

    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let (outcome, served) = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(&corpora));
        let outcome = drive(spec, args, addr, &corpora, &mut tracer, &mut values);
        handle.shutdown();
        (outcome, runner.join())
    });
    match served {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("server failed: {e}")),
        Err(_) => return Err("server thread panicked".to_owned()),
    }
    let (tally, correct, mut details) = outcome?;
    details.push(("served_boot_seconds".to_owned(), J::Num(served_boot_s)));
    Ok(Outcome {
        correct,
        tally,
        values,
        details,
        tracer: args.trace.then_some(tracer),
    })
}

/// Writes serve_cold's snapshot from a child process, so neither its time
/// nor its memory counts against the process that serves.
fn write_snapshot_untimed(path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("--write-snapshot")
        .arg(path)
        .status()
        .map_err(|e| format!("cannot start the snapshot writer: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("snapshot writer failed: {status}"))
    }
}

type Drive = (Tally, bool, Vec<(String, J)>);
type Interleaved = (PhaseRun, PhaseRun, Vec<f64>, Vec<f64>);

/// Counts every sample of a phase as an attempted operation.
fn tally_samples(tally: &mut Tally, run: &PhaseRun) {
    for s in &run.samples {
        match s.outcome {
            Ok(()) => tally.ok(),
            Err(f) => tally.fail(f),
        }
    }
}

/// Everything after boot, while the server runs: warm-up, the timed phase
/// at the nominal rate, interleaved with closed-loop bursts (timed run) or
/// followed by the in-process replay (traced run), and the output checks.
fn drive(
    spec: &Spec,
    args: &Args,
    addr: SocketAddr,
    corpora: &Corpora,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<Drive, String> {
    let tenant = corpora.default_tenant();
    let toolkit = tenant.toolkit();
    let cat = Catalog::of(toolkit);
    let metrics = corpora.metrics();
    let secs = args.seconds as f64;

    // Warm-up: fill the memo with the working set, then run at the
    // nominal rate for a while before timing.
    let mut c = Client::new(addr, CLIENT_TIMEOUT);
    for call in (spec.warm)(&cat) {
        match c.send(&call.render(&cat)) {
            Ok(r) if r.status == 200 => {}
            other => return Err(format!("warm-up {call:?} failed: {other:?}")),
        }
    }
    let warmup = Phase::open(spec, &cat, args.seed, 0, spec.nominal_rps, spec.warmup_s);
    warmup.send(addr, 0..warmup.plan.len(), 0, &|_| false)?;

    // The timed phase at the nominal rate.
    let phase = Phase::open(
        spec,
        &cat,
        args.seed,
        1,
        spec.nominal_rps,
        secs * NOMINAL_SHARE,
    );
    let keep = |req: usize| {
        req.is_multiple_of(CHECK_STRIDE) || matches!(phase.calls[req], Call::Align { .. })
    };
    let mut tally = Tally::default();
    let mut details = Vec::new();
    let before = metrics.snapshot();
    let nominal = if args.trace {
        phase.send(addr, 0..phase.plan.len(), 0, &keep)?
    } else {
        let (nominal, closed, rates, boots) = interleaved(spec, args, addr, &cat, &phase, &keep)?;
        tally_samples(&mut tally, &closed);
        values.set("setup_s", stats::median(&boots));
        details.push((
            "child_boot_seconds".to_owned(),
            J::Arr(boots.iter().map(|&s| J::Num(s)).collect()),
        ));
        values.set("throughput_per_s", stats::median(&rates));
        values.set("peak_rss_mb", env::peak_rss_mb()?);
        let mut lat: Vec<f64> = closed
            .samples
            .iter()
            .map(client::Sample::latency_ms)
            .collect();
        lat.sort_by(f64::total_cmp);
        details.push((
            "closed_loop".to_owned(),
            J::obj([
                ("threads", J::Int(env::parallelism() as u64)),
                ("requests", J::Int(closed.samples.len() as u64)),
                ("connects", J::Int(closed.connects)),
                (
                    "burst_rates_per_s",
                    J::Arr(rates.iter().map(|&r| J::Num(r)).collect()),
                ),
                ("p50_ms", J::Num(stats::quantile(&lat, 0.5))),
                ("p90_ms", J::Num(stats::quantile(&lat, 0.9))),
            ]),
        ));
        nominal
    };
    let after = metrics.snapshot();
    tally_samples(&mut tally, &nominal);
    nominal_layers(
        &phase,
        &nominal,
        Delta::new(&before, &after),
        values,
        &mut details,
    );
    details.push((
        "workload".to_owned(),
        realized(spec, &phase, &cat, Delta::new(&before, &after), values),
    ));

    if args.trace {
        replay_layers(&phase, corpora, tracer, values)?;
        probes::cache_hit_rank(toolkit, &cat.concepts[popular(&cat)[0]], values);
        probes::obs(metrics, values);
    } else {
        // Pooled over the whole phase, whose mix is exact (serve_cold) or
        // drawn from a fixed distribution (serve_hot), so the percentiles
        // sit at the same place in the mix in every run.
        let mut lat: Vec<f64> = nominal
            .samples
            .iter()
            .map(client::Sample::latency_ms)
            .collect();
        lat.sort_by(f64::total_cmp);
        values.set("p50_ms", stats::quantile(&lat, 0.5));
        values.set("p90_ms", stats::quantile(&lat, 0.9));
    }

    // Output checks, untimed, against an independently loaded toolkit.
    let reference = boot::from_sources(&mut Tracer::new(false), None)?;
    let mut checked = 0u64;
    for s in &nominal.samples {
        let Some(body) = &s.body else { continue };
        checked += 1;
        if !answer_matches(phase.calls[s.req], body, &reference, &cat) {
            tally.mark(Failure::Wrong);
        }
    }
    details.push(("checked".to_owned(), J::Int(checked)));
    values.set("failed_share", tally.failed_share());
    let correct = tally.wrong == 0 && checked > 0;
    Ok((tally, correct, details))
}

/// The timed run's measurement: `CYCLES` cycles, each a slice of the
/// nominal phase, open loop, then a closed-loop burst in which every
/// generator thread sends the workload's mix back to back. The generator
/// holds at most one request per thread in flight, so no open-loop rate
/// above a burst's completion rate can be sustained without a growing
/// backlog: `throughput_per_s`, the median burst rate, is the workload's
/// highest sustainable rate. Each cycle ends with one setup in a fresh
/// child process; `setup_s` is their median, so a slow stretch of the
/// machine touches few of them. Returns the nominal samples in due order,
/// the burst samples, each burst's rate and each child's setup seconds.
fn interleaved(
    spec: &Spec,
    args: &Args,
    addr: SocketAddr,
    cat: &Catalog,
    phase: &Phase,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Result<Interleaved, String> {
    let secs = args.seconds as f64;
    let slice_ns = secs * NOMINAL_SHARE * 1e9 / CYCLES as f64;
    let burst = Duration::from_secs_f64(secs * (1.0 - NOMINAL_SHARE) / CYCLES as f64);
    let burst_ns = u64::try_from(burst.as_nanos()).unwrap_or(u64::MAX);
    let table: Vec<Vec<u8>> = (spec.draw)(cat, &mut seeded(args.seed, 2000), CLOSED_TABLE)
        .iter()
        .map(|c| c.render(cat))
        .collect();
    let (mut nominal, mut closed) = (PhaseRun::default(), PhaseRun::default());
    let mut rates = Vec::with_capacity(CYCLES);
    let mut boots = Vec::with_capacity(CYCLES);
    let mut next = 0;
    for k in 0..CYCLES {
        let from_ns = (k as f64 * slice_ns) as u64;
        let end_ns = ((k + 1) as f64 * slice_ns) as u64;
        let stop = if k + 1 == CYCLES {
            phase.plan.len()
        } else {
            phase.plan.partition_point(|p| p.due_ns < end_ns)
        };
        nominal.append(phase.send(addr, next..stop, from_ns, keep)?);
        next = stop;
        let run = client::run(
            addr,
            &table,
            Schedule::Closed {
                length: burst,
                from: closed.samples.len(),
            },
            env::parallelism(),
            CLIENT_TIMEOUT,
            &|_| false,
        )?;
        let ends: Vec<u64> = run
            .samples
            .iter()
            .filter(|s| s.outcome.is_ok())
            .map(|s| s.end_ns)
            .collect();
        rates.push(stats::completion_rate(&ends, burst_ns));
        closed.append(run);
        boots.push(boot::in_child(spec.name)?);
    }
    Ok((nominal, closed, rates, boots))
}

/// Layer values the open-loop timed phase gives: the load generator's
/// view, connection reuse, time outside the router, and the memo. They
/// are printed from the traced run, where `d` covers the nominal phase
/// alone; in the timed run it also covers the closed-loop bursts.
fn nominal_layers(
    phase: &Phase,
    run: &PhaseRun,
    d: Delta<'_>,
    values: &mut Values,
    details: &mut Vec<(String, J)>,
) {
    let n = run.samples.len() as f64;
    let mut lat: Vec<f64> = run.samples.iter().map(client::Sample::latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    let mut lateness: Vec<f64> = run
        .samples
        .iter()
        .map(client::Sample::lateness_ms)
        .collect();
    lateness.sort_by(f64::total_cmp);
    values.set("gen.lateness_p99_ms", stats::quantile(&lateness, 0.99));
    values.set("client.p99_ms", stats::quantile(&lat, 0.99));
    values.set("client.max_ms", lat.last().copied().unwrap_or(0.0));
    values.set("client.samples", n);
    if let Some(tail) = stats::highest_tail(&lat) {
        values.set("client.tail_pct", tail.percentile);
        values.set("client.tail_ms", tail.value);
    }
    values.set("http.connects_per_request", ratio(run.connects as f64, n));
    let exchange_us: Vec<f64> = run
        .samples
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
        .collect();
    let (handled, handle_s) = d.hist_prefix("server.latency.");
    values.set(
        "http.outside_handle_us",
        stats::mean(&exchange_us) - ratio(handle_s * 1e6, handled as f64),
    );
    let (hits, misses) = (d.counter("core.cache.hits"), d.counter("core.cache.misses"));
    values.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    values.set(
        "cache.evictions_per_request",
        ratio(d.counter("core.cache.evictions") as f64, handled as f64),
    );
    details.push((
        "nominal".to_owned(),
        J::obj([
            ("requests", J::Int(phase.plan.len() as u64)),
            ("sent", J::Int(run.samples.len() as u64)),
            ("wall_s", J::Num(run.wall_s)),
            ("connects", J::Int(run.connects)),
            ("cache_hits", J::Int(hits)),
            ("cache_misses", J::Int(misses)),
            ("cache_evictions", J::Int(d.counter("core.cache.evictions"))),
            ("lateness_p99_ms", J::Num(stats::quantile(&lateness, 0.99))),
            ("latency_ms", latency_breakdown(phase, run)),
        ]),
    ));
}

/// Median and p90 latency of each endpoint, and of `/rank` per measure.
fn latency_breakdown(phase: &Phase, run: &PhaseRun) -> J {
    let summary = |keep: &dyn Fn(Call) -> bool| {
        let mut v: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| keep(phase.calls[s.req]))
            .map(client::Sample::latency_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        J::obj([
            ("n", J::Int(v.len() as u64)),
            ("p50", J::Num(stats::quantile(&v, 0.5))),
            ("p90", J::Num(stats::quantile(&v, 0.9))),
        ])
    };
    let mut out: Vec<(String, J)> = KINDS
        .iter()
        .map(|&k| (k.name().to_owned(), summary(&|c: Call| c.kind() == k)))
        .collect();
    for (m, name) in MEASURES.iter().enumerate() {
        let j = summary(&|c: Call| matches!(c, Call::Rank { m: cm, .. } if cm == m));
        out.push((format!("rank.{name}"), j));
    }
    J::Obj(out)
}

/// The realized workload: each endpoint's share, the distinct rank
/// queries, and the memo working set against the LRU capacity.
fn realized(spec: &Spec, phase: &Phase, cat: &Catalog, d: Delta<'_>, values: &mut Values) -> J {
    let n = phase.calls.len() as f64;
    let shares = KINDS
        .iter()
        .map(|&k| {
            let c = phase.calls.iter().filter(|c| c.kind() == k).count();
            (k.name(), J::Num(c as f64 / n))
        })
        .collect::<Vec<_>>();
    let mut queries: HashSet<(usize, usize)> = HashSet::new();
    let mut concepts: HashSet<usize> = HashSet::new();
    let mut keys: HashSet<(usize, usize, usize)> = HashSet::new();
    for call in &phase.calls {
        match *call {
            Call::Rank { q, m } => {
                concepts.insert(q);
                if queries.insert((q, m)) {
                    keys.extend((0..cat.concepts.len()).map(|x| (m, q.min(x), q.max(x))));
                }
            }
            Call::Similarity { a, b, m } => {
                concepts.extend([a, b]);
                keys.insert((m, a.min(b), a.max(b)));
            }
            Call::Approx { q } => {
                concepts.insert(q);
            }
            _ => {}
        }
    }
    let (hits, misses) = (d.counter("core.cache.hits"), d.counter("core.cache.misses"));
    let ranks = phase
        .calls
        .iter()
        .filter(|c| c.kind() == Kind::Rank)
        .count();
    values.set("load.rank_share", ranks as f64 / n);
    values.set("load.distinct_queries", queries.len() as f64);
    values.set("load.working_set_share", keys.len() as f64 / LRU_CAPACITY);
    J::obj([
        ("name", J::str(spec.name)),
        ("nominal_rps", J::Num(spec.nominal_rps)),
        ("endpoint_share", J::obj(shares)),
        ("distinct_query_concepts", J::Int(concepts.len() as u64)),
        ("distinct_rank_queries", J::Int(queries.len() as u64)),
        ("memo_working_set_pairs", J::Int(keys.len() as u64)),
        ("lru_capacity_pairs", J::Num(LRU_CAPACITY)),
        (
            "working_set_share_of_lru",
            J::Num(keys.len() as f64 / LRU_CAPACITY),
        ),
        (
            "hit_ratio",
            J::Num(ratio(hits as f64, (hits + misses) as f64)),
        ),
    ])
}

/// Per-request times of one in-process replay pass.
#[derive(Debug, Default)]
struct Pass {
    /// Request span ids (traced pass only).
    roots: Vec<usize>,
    /// Each request's time from connect to its last response byte, ns.
    request_ns: Vec<u64>,
    /// Router time per request, ns.
    handle_ns: Vec<u64>,
}

/// Replays `phase`'s requests in process, one at a time and on one
/// thread, doing per request what the server and a client do: connect
/// and accept (with the server's socket timeouts), the client's request
/// write, `http::read_request`, `Router::handle_timed` over the served
/// corpora, `http::write_response`, the server's close, and the client's
/// read. Every response fits the loopback socket buffers, so the write
/// completes before the read starts. Like the load generator, the client
/// resets the connection the server closed.
///
/// With the tracer on, each request gets a span tree: one span per layer
/// call, each with its own start and end. The benchmark's own work
/// between the calls (the client's socket options, its bookkeeping) lies
/// outside every span and counts as `other`. The time below the router is
/// attributed from per-request deltas of the program's own counters and
/// histogram sums; with one request in flight, each delta belongs to that
/// request alone.
fn replay(phase: &Phase, corpora: &Corpora, tracer: &mut Tracer) -> Result<Pass, String> {
    let io = |e: std::io::Error| format!("replay i/o: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let config = ServerConfig::default();
    let router = Router::new(corpora, config.ql_limits, Arc::new(AtomicBool::new(false)));
    let metrics = corpora.metrics();
    let mut pass = Pass::default();
    let mut before = tracer.is_on().then(|| metrics.snapshot());
    let mut calls: Vec<(&'static str, Instant, Instant)> = Vec::with_capacity(7);
    for (i, call) in phase.calls.iter().enumerate() {
        calls.clear();
        let start = Instant::now();
        let (mut conn, mut server_side) = layer(&mut calls, "http.connect", || {
            let conn = TcpStream::connect(addr)?;
            let (server_side, _) = listener.accept()?;
            server_side.set_read_timeout(Some(config.request_deadline))?;
            server_side.set_write_timeout(Some(config.request_deadline))?;
            Ok((conn, server_side))
        })
        .map_err(io)?;
        conn.set_nodelay(true).map_err(io)?;
        conn.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(io)?;
        layer(&mut calls, "client.write", || {
            std::io::Write::write_all(&mut conn, &phase.bytes[i])
        })
        .map_err(io)?;
        let request = match layer(&mut calls, "http.read_request", || {
            read_request(&mut server_side, config.max_request_bytes)
        }) {
            ReadOutcome::Ok(r) => r,
            other => return Err(format!("replay could not read request {i}: {other:?}")),
        };
        let answer = layer(&mut calls, "router.handle", || {
            router.handle_timed(&request)
        });
        layer(&mut calls, "http.write_response", || {
            write_response(
                &mut server_side,
                answer.status,
                answer.content_type,
                &answer.body,
                &[],
            )
        })
        .map_err(io)?;
        layer(&mut calls, "http.close", move || drop(server_side));
        let response = layer(&mut calls, "client.read", || {
            client::read_one(&mut conn, CLIENT_TIMEOUT)
        });
        let end = Instant::now();
        match response {
            Ok(r) if r.status == 200 => {}
            other => return Err(format!("replayed {call:?} failed: {other:?}")),
        }
        client::reset_on_close(&conn).map_err(io)?;
        let (_, handle_start, handle_end) = calls[3];
        pass.request_ns.push((end - start).as_nanos() as u64);
        pass.handle_ns
            .push((handle_end - handle_start).as_nanos() as u64);
        let Some(prev) = before.take() else { continue };
        let after = metrics.snapshot();
        let d = Delta::new(&prev, &after);
        let req = i as u64;
        let root = tracer.record("request", tracer.at(start), tracer.at(end), None, req);
        let mut handle = root;
        for &(name, a, b) in &calls {
            let id = tracer.record(name, tracer.at(a), tracer.at(b), Some(root), req);
            if name == "router.handle" {
                handle = id;
            }
        }
        let ns = |secs: f64| (secs * 1e9) as u64;
        let below: Vec<(&'static str, u64)> = if call.kind() == Kind::Align {
            vec![("core.alignment", ns(d.secs("core.align.latency")))]
        } else {
            vec![
                ("core.prepare", ns(d.secs("core.prepare.latency"))),
                ("simpack.kernel", ns(d.hist_prefix("core.pair.latency.").1)),
                ("core.vector", ns(d.secs("core.vector.approx.latency"))),
                (
                    "soqa.ql",
                    ns(d.secs("soqa.ql.parse.latency") + d.secs("soqa.ql.eval.latency")),
                ),
            ]
        };
        // Positions inside the router span are nominal; the durations are
        // the program's own measurements for this request.
        let (mut cursor, router_end) = (tracer.at(handle_start), tracer.at(handle_end));
        for (name, dur) in below.into_iter().filter(|&(_, d)| d > 0) {
            let end = (cursor + dur).min(router_end);
            tracer.record(name, cursor, end, Some(handle), req);
            cursor = end;
        }
        pass.roots.push(root);
        before = Some(after);
    }
    Ok(pass)
}

/// Runs one layer call of the replay and notes its start and end.
fn layer<T>(
    calls: &mut Vec<(&'static str, Instant, Instant)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    calls.push((name, start, Instant::now()));
    out
}

/// The traced run's per-request layer values: replays the timed phase
/// without spans, with spans (the pass attributed), then once more each
/// way for the overhead estimate.
fn replay_layers(
    phase: &Phase,
    corpora: &Corpora,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    let metrics = corpora.metrics();
    let off = replay(phase, corpora, &mut Tracer::new(false))?;
    let before = metrics.snapshot();
    let traced = replay(phase, corpora, tracer)?;
    let after = metrics.snapshot();
    // A second pair of passes, spans off then on, halves the weight of a
    // slow stretch of the shared machine in the overhead estimate.
    let off2 = replay(phase, corpora, &mut Tracer::new(false))?;
    let on2 = replay(phase, corpora, &mut Tracer::new(true))?;
    let d = Delta::new(&before, &after);
    let n = traced.request_ns.len() as f64;
    let mean_ns = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    values.set("trace.requests", n);
    values.set(
        "trace.overhead_share",
        ratio(
            mean_ns(&traced.request_ns) + mean_ns(&on2.request_ns),
            mean_ns(&off.request_ns) + mean_ns(&off2.request_ns),
        ) - 1.0,
    );

    let a = tracer.analysis();
    let shares: Vec<f64> = traced
        .roots
        .iter()
        .map(|&r| a.attributed_share(r))
        .collect();
    let table = a.layer_table(&traced.roots);
    let layer_us = |name: &str| {
        table
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, ns)| *ns as f64 / 1e3 / n)
    };
    let total_us = mean_ns(&traced.request_ns) / 1e3;
    values.set(
        "trace.request_share",
        1.0 - ratio(layer_us("other"), total_us),
    );
    values.set(
        "trace.request_min_share",
        shares.iter().copied().fold(1.0, f64::min),
    );
    values.set(
        "trace.requests_under_90pct",
        shares.iter().filter(|&&s| s < 0.9).count() as f64,
    );
    values.set("trace.other_us", layer_us("other"));
    values.set("http.connect_us", layer_us("http.connect"));
    values.set("http.read_us", layer_us("http.read_request"));
    values.set("http.write_us", layer_us("http.write_response"));
    values.set("http.close_us", layer_us("http.close"));
    values.set("client.write_us", layer_us("client.write"));
    values.set("client.read_us", layer_us("client.read"));
    values.set("router.handle_us", mean_ns(&traced.handle_ns) / 1e3);
    values.set("router.self_us", layer_us("router.handle"));
    for kind in KINDS {
        let (c, s) = d.hist(kind.latency_hist());
        values.set(
            format!("router.{}_us", kind.name()),
            ratio(s * 1e6, c as f64),
        );
    }
    layer_values(
        d,
        n,
        traced.handle_ns.iter().sum::<u64>() as f64 / 1e9,
        phase,
        values,
    );
    Ok(())
}

/// Layer values read from the program's counters over a traced pass of
/// `n` requests whose router time totals `handle_s`.
fn layer_values(d: Delta<'_>, n: f64, handle_s: f64, phase: &Phase, values: &mut Values) {
    let prepare_s = d.secs("core.prepare.latency");
    values.set("prepare.us_per_request", ratio(prepare_s * 1e6, n));
    values.set(
        "prepare.concepts_per_request",
        ratio(d.counter("core.prepare.concepts") as f64, n),
    );
    values.set("prepare.share", ratio(prepare_s, handle_s));
    for m in MEASURES {
        let (c, s) = d.hist(&format!("core.pair.latency.{m}"));
        values.set(kernel_metric(m), ratio(s * 1e9, c as f64));
    }
    let ranks = phase
        .calls
        .iter()
        .filter(|c| c.kind() == Kind::Rank)
        .count() as f64;
    values.set(
        "obs.pair_timings_per_request",
        ratio(d.hist_prefix("core.pair.latency.").0 as f64, ranks),
    );
    values.set(
        "sched.tiles",
        ratio(d.counter("core.sched.tiles") as f64, n),
    );
    values.set(
        "sched.steals",
        ratio(d.counter("core.sched.steals") as f64, n),
    );
    if d.counter("core.sched.tiles") > 0 {
        let permille = d.after.gauge("core.sched.imbalance").unwrap_or(0);
        values.set("sched.imbalance", permille as f64 / 1000.0);
    }
    let (vc, vs) = d.hist("core.vector.approx.latency");
    values.set("vector.approx_us", ratio(vs * 1e6, vc as f64));
    values.set(
        "vector.probed_per_query",
        ratio(
            d.counter("core.vector.probed") as f64,
            d.counter("core.vector.approx.queries") as f64,
        ),
    );
    let calls = d.counter("core.align.calls") as f64;
    values.set("align.ms", ratio(d.secs("core.align.latency") * 1e3, calls));
    values.set(
        "align.candidates_per_alignment",
        ratio(d.counter("core.align.candidates") as f64, calls),
    );
    values.set(
        "align.proposals_per_alignment",
        ratio(d.counter("core.align.proposals") as f64, calls),
    );
    let ql_s = d.secs("soqa.ql.parse.latency") + d.secs("soqa.ql.eval.latency");
    values.set(
        "ql.us",
        ratio(ql_s * 1e6, d.counter("soqa.ql.queries") as f64),
    );
}

/// Does a response body equal what an independently loaded toolkit
/// answers, bit for bit on every similarity?
fn answer_matches(call: Call, body: &[u8], reference: &SstToolkit, cat: &Catalog) -> bool {
    let text = String::from_utf8_lossy(body);
    let parsed = || json::parse(&text).ok();
    let name = |i: usize| (cat.concepts[i].0.as_str(), cat.concepts[i].1.as_str());
    match call {
        Call::Healthz => text == "ok\n",
        Call::Metrics => text.contains("server.requests.healthz"),
        Call::Similarity { a, b, m } => {
            let ((an, ao), (bn, bo)) = (name(a), name(b));
            let expected = reference.get_similarity(an, ao, bn, bo, m);
            let got = parsed().and_then(|j| j.get("similarity").and_then(Json::as_f64));
            matches!((expected, got), (Ok(e), Some(g)) if e.to_bits() == g.to_bits())
        }
        Call::Rank { q, m } => {
            let (n, o) = name(q);
            ranking_matches(
                parsed(),
                reference.most_similar(n, o, &ConceptSet::All, K, m).ok(),
            )
        }
        Call::Approx { q } => {
            let (n, o) = name(q);
            ranking_matches(parsed(), reference.most_similar_approx(n, o, K).ok())
        }
        Call::Ql => {
            let (Some(j), Ok(table)) = (parsed(), reference.query(QL_QUERY)) else {
                return false;
            };
            let columns: Option<Vec<&str>> = j
                .get("columns")
                .and_then(Json::as_array)
                .map(|c| c.iter().filter_map(Json::as_str).collect());
            let rows = j.get("rows").and_then(Json::as_array).unwrap_or(&[]);
            columns == Some(table.columns.iter().map(String::as_str).collect())
                && rows.len() == table.rows.len()
                && rows.iter().zip(&table.rows).all(|(got, want)| {
                    let got = got.as_array().unwrap_or(&[]);
                    got.len() == want.len()
                        && got.iter().zip(want).all(|(g, w)| match (g, w) {
                            (Json::Str(g), Cell::Str(w)) => g == w,
                            (Json::Num(g), Cell::Num(w)) => g.to_bits() == w.to_bits(),
                            (Json::Null, Cell::Null) => true,
                            _ => false,
                        })
                })
        }
        Call::Align { s, t } => {
            let expected = align_with_limits(
                reference,
                cat.ontologies[s],
                cat.ontologies[t],
                &AlignmentConfig::default(),
                &ServerConfig::default().ql_limits,
            );
            let (Some(j), Ok(expected)) = (parsed(), expected) else {
                return false;
            };
            let got = j
                .get("correspondences")
                .and_then(Json::as_array)
                .unwrap_or(&[]);
            got.len() == expected.correspondences.len()
                && got.iter().zip(&expected.correspondences).all(|(g, e)| {
                    g.get("source").and_then(Json::as_str) == Some(e.source_concept.as_str())
                        && g.get("target").and_then(Json::as_str) == Some(e.target_concept.as_str())
                        && g.get("similarity").and_then(Json::as_f64).map(f64::to_bits)
                            == Some(e.similarity.to_bits())
                })
        }
    }
}

fn ranking_matches(
    got: Option<Json>,
    expected: Option<Vec<sst_core::ConceptAndSimilarity>>,
) -> bool {
    let (Some(got), Some(expected)) = (got, expected) else {
        return false;
    };
    let rows = got.get("results").and_then(Json::as_array).unwrap_or(&[]);
    rows.len() == expected.len()
        && rows.iter().zip(&expected).all(|(g, e)| {
            g.get("concept").and_then(Json::as_str) == Some(e.concept.as_str())
                && g.get("ontology").and_then(Json::as_str) == Some(e.ontology.as_str())
                && g.get("similarity").and_then(Json::as_f64).map(f64::to_bits)
                    == Some(e.similarity.to_bits())
        })
}
