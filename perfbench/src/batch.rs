//! The `batch_matrix` workload: offline similarity analysis in process,
//! without the server. Each round computes the 20 full similarity
//! matrices over all concepts with `similarity_matrix_parallel` on every
//! available thread, then the 20 ordered alignments among the five
//! ontologies with `align_with_limits`. One prepare serves ~445k pairs,
//! so the job is bound by kernels and the scheduler.

use std::time::Instant;

use sst_core::{align_with_limits, Alignment, AlignmentConfig, ConceptSet, SchedStats, SstToolkit};
use sst_limits::Limits;

use crate::delta::Delta;
use crate::jsonw::J;
use crate::layers::{kernel_metric, ratio, Values, MEASURES};
use crate::stats::{self, Failure, Tally};
use crate::trace::Tracer;
use crate::{boot, env, probes, seeded, Args, Outcome};

/// Matrix cells checked per matrix.
const CELLS: usize = 40;

/// What one round of the job measured.
#[derive(Debug, Default)]
struct Round {
    matrix_s: Vec<f64>,
    prepare_s: Vec<f64>,
    prepare_concepts: u64,
    pair_timings: u64,
    sched: Vec<SchedStats>,
    align_s: Vec<f64>,
    alignments: Vec<Alignment>,
    /// Sampled cells: (measure, row, column, m[row][col], m[col][row]).
    cells: Vec<(usize, usize, usize, f64, f64)>,
    wall_s: f64,
}

fn ordered_pairs() -> Vec<(&'static str, &'static str)> {
    let names = boot::ontology_names();
    let mut pairs = Vec::new();
    for &s in &names {
        for &t in &names {
            if s != t {
                pairs.push((s, t));
            }
        }
    }
    pairs
}

fn round(
    toolkit: &SstToolkit,
    threads: usize,
    cells: &[(usize, usize)],
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let metrics = toolkit.metrics();
    let mut r = Round::default();
    let start = Instant::now();
    let job = tracer.open("job", None, 0);
    for (m, _) in MEASURES.iter().enumerate() {
        let before = metrics.snapshot();
        let t0 = Instant::now();
        let (_, matrix) = toolkit
            .similarity_matrix_parallel(&ConceptSet::All, m, threads)
            .map_err(|e| format!("matrix {m}: {e}"))?;
        let t1 = Instant::now();
        let after = metrics.snapshot();
        let d = Delta::new(&before, &after);
        let prepare_s = d.secs("core.prepare.latency");
        let stats = toolkit.last_sched_stats().unwrap_or_default();
        r.prepare_concepts += d.counter("core.prepare.concepts");
        r.pair_timings += d.hist_prefix("core.pair.latency.").0;
        if tracer.is_on() {
            let (s0, s1) = (tracer.at(t0), tracer.at(t1));
            let span = tracer.record("core.matrix", s0, s1, Some(job), m as u64);
            // Nominal positions, measured durations: prepare runs before
            // the scheduler, whose busiest worker bounds the scoring.
            let p = s0 + (prepare_s * 1e9) as u64;
            tracer.record("core.prepare", s0, p.min(s1), Some(span), m as u64);
            let busiest = stats.workers.iter().map(|w| w.busy_ns).max().unwrap_or(0);
            tracer.record(
                "simpack.kernel",
                p.min(s1),
                (p + busiest).min(s1),
                Some(span),
                m as u64,
            );
        }
        r.matrix_s.push((t1 - t0).as_secs_f64());
        r.prepare_s.push(prepare_s);
        r.sched.push(stats);
        for &(i, j) in cells {
            r.cells.push((m, i, j, matrix[i][j], matrix[j][i]));
        }
    }
    for (k, (s, t)) in ordered_pairs().into_iter().enumerate() {
        let t0 = Instant::now();
        let alignment = align_with_limits(
            toolkit,
            s,
            t,
            &AlignmentConfig::default(),
            &Limits::default(),
        )
        .map_err(|e| format!("align {s} -> {t}: {e}"))?;
        let t1 = Instant::now();
        if tracer.is_on() {
            let (s0, s1) = (tracer.at(t0), tracer.at(t1));
            tracer.record("core.alignment", s0, s1, Some(job), k as u64);
        }
        r.align_s.push((t1 - t0).as_secs_f64());
        r.alignments.push(alignment);
    }
    tracer.close(job);
    r.wall_s = start.elapsed().as_secs_f64();
    Ok(r)
}

/// Each ordered alignment's median latency over the rounds, in ms, in
/// `ordered_pairs` order. The alignments take from a few ms to ~80 ms, so
/// pooled samples cluster by pair and a pooled percentile falls in the
/// tail of some pair's samples, where one slow round moves it. A
/// percentile over the per-pair medians rests on every round instead.
fn pair_medians_ms(rounds: &[Round]) -> Vec<f64> {
    (0..ordered_pairs().len())
        .map(|k| {
            let ms: Vec<f64> = rounds.iter().map(|r| r.align_s[k] * 1e3).collect();
            stats::median(&ms)
        })
        .collect()
}

fn pairs_per_s(r: &Round, n: usize) -> f64 {
    let pairs = (n * (n + 1) / 2 * r.matrix_s.len()) as f64;
    ratio(pairs, r.matrix_s.iter().sum())
}

/// The workload's setup, once, for a child process of a timed run.
pub fn boot_once() -> Result<f64, String> {
    let start = Instant::now();
    let toolkit = boot::from_sources(&mut Tracer::new(false), None)?;
    let secs = start.elapsed().as_secs_f64();
    drop(toolkit);
    Ok(secs)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut values = Values::default();
    let boot_root = tracer.open("boot", None, 0);
    let start = Instant::now();
    let toolkit = boot::from_sources(&mut tracer, Some(boot_root))?;
    let served_boot_s = start.elapsed().as_secs_f64();
    tracer.close(boot_root);
    // Timed runs also set up once in a fresh child process after each
    // round; `setup_s` is their median, so a slow stretch of the machine
    // touches few of them.
    let mut boot_secs = Vec::new();
    if args.trace {
        values.set(
            "trace.boot_share",
            tracer.analysis().attributed_share(boot_root),
        );
        probes::boot_layers(&mut tracer, &mut values)?;
    }

    let threads = env::parallelism();
    let soqa = toolkit.soqa();
    let concepts = toolkit.tree().all_concepts();
    let n = concepts.len();
    // Sample only concepts their name resolves back to, so the reference
    // can address them by name.
    let addressable: Vec<usize> = concepts
        .iter()
        .enumerate()
        .filter(|&(_, &gc)| {
            let c = soqa.concept(gc);
            soqa.resolve(soqa.ontology_at(gc.ontology).name(), &c.name)
                .ok()
                == Some(gc)
        })
        .map(|(i, _)| i)
        .collect();
    let mut rng = seeded(args.seed, 7);
    let cells: Vec<(usize, usize)> = (0..CELLS)
        .map(|_| {
            (
                addressable[rng.gen_range(0..addressable.len())],
                addressable[rng.gen_range(0..addressable.len())],
            )
        })
        .collect();

    let mut tally = Tally::default();
    let mut details = Vec::new();
    let last = if args.trace {
        // One round to warm caches, then the same round without and with
        // spans, twice, so a slow stretch of the shared machine weighs less
        // in the overhead estimate.
        round(&toolkit, threads, &cells, &mut Tracer::new(false))?;
        let off = round(&toolkit, threads, &cells, &mut Tracer::new(false))?;
        let on = round(&toolkit, threads, &cells, &mut tracer)?;
        let off2 = round(&toolkit, threads, &cells, &mut Tracer::new(false))?;
        let on2 = round(&toolkit, threads, &cells, &mut Tracer::new(true))?;
        values.set(
            "trace.overhead_share",
            ratio(on.wall_s + on2.wall_s, off.wall_s + off2.wall_s) - 1.0,
        );
        trace_layers(&on, n, &tracer, threads, &mut values);
        probes::cache_hit_rank(
            &toolkit,
            &(
                soqa.concept(concepts[0]).name.clone(),
                soqa.ontology_at(concepts[0].ontology).name().to_owned(),
            ),
            &mut values,
        );
        probes::obs(toolkit.metrics(), &mut values);
        tally.attempted += (on.matrix_s.len() + on.align_s.len()) as u64;
        on
    } else {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds as f64 {
            rounds.push(round(&toolkit, threads, &cells, &mut Tracer::new(false))?);
            boot_secs.push(boot::in_child("batch_matrix")?);
        }
        let mut sorted: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.align_s.iter().map(|s| s * 1e3))
            .collect();
        sorted.sort_by(f64::total_cmp);
        let by_pair = pair_medians_ms(&rounds);
        let mut typical = by_pair.clone();
        typical.sort_by(f64::total_cmp);
        let rates: Vec<f64> = rounds.iter().map(|r| pairs_per_s(r, n)).collect();
        values.set("setup_s", stats::median(&boot_secs));
        values.set("p50_ms", stats::quantile(&typical, 0.5));
        values.set("p90_ms", stats::quantile(&typical, 0.9));
        values.set("throughput_per_s", stats::median(&rates));
        values.set("peak_rss_mb", env::peak_rss_mb()?);
        tally.attempted += rounds
            .iter()
            .map(|r| (r.matrix_s.len() + r.align_s.len()) as u64)
            .sum::<u64>();
        details.push((
            "rounds".to_owned(),
            J::Arr(
                rounds
                    .iter()
                    .map(|r| {
                        J::obj([
                            ("wall_s", J::Num(r.wall_s)),
                            ("matrix_s", J::Num(r.matrix_s.iter().sum())),
                            ("prepare_s", J::Num(r.prepare_s.iter().sum())),
                            ("align_s", J::Num(r.align_s.iter().sum())),
                            ("matrix_pairs_per_s", J::Num(pairs_per_s(r, n))),
                            (
                                "alignments_per_s",
                                J::Num(ratio(r.align_s.len() as f64, r.align_s.iter().sum())),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        details.push((
            "alignment_ms_by_pair".to_owned(),
            J::Obj(
                ordered_pairs()
                    .into_iter()
                    .zip(&by_pair)
                    .map(|((s, t), &ms)| (format!("{s}->{t}"), J::Num(ms)))
                    .collect(),
            ),
        ));
        details.push(("alignment_tail".to_owned(), tail_json(&sorted)));
        rounds.pop().ok_or("no round")?
    };

    // Output checks, untimed, against an independently loaded toolkit.
    let reference = boot::from_sources(&mut Tracer::new(false), None)?;
    let mut checked = 0u64;
    for &(m, i, j, vij, vji) in &last.cells {
        checked += 1;
        let (a, b) = (concepts[i], concepts[j]);
        let expected = reference.get_similarity(
            &soqa.concept(a).name,
            soqa.ontology_at(a.ontology).name(),
            &soqa.concept(b).name,
            soqa.ontology_at(b.ontology).name(),
            m,
        );
        let ok = matches!(expected, Ok(e) if e.to_bits() == vij.to_bits())
            && vij.to_bits() == vji.to_bits();
        if !ok {
            tally.mark(Failure::Wrong);
        }
    }
    for ((s, t), got) in ordered_pairs().into_iter().zip(&last.alignments) {
        checked += 1;
        let expected = align_with_limits(
            &reference,
            s,
            t,
            &AlignmentConfig::default(),
            &Limits::default(),
        );
        let same = expected.is_ok_and(|e| {
            e.correspondences.len() == got.correspondences.len()
                && e.correspondences
                    .iter()
                    .zip(&got.correspondences)
                    .all(|(x, y)| {
                        x.source_concept == y.source_concept
                            && x.target_concept == y.target_concept
                            && x.similarity.to_bits() == y.similarity.to_bits()
                    })
        });
        if !same {
            tally.mark(Failure::Wrong);
        }
    }
    values.set("failed_share", tally.failed_share());
    details.push((
        "workload".to_owned(),
        J::obj([
            ("name", J::str("batch_matrix")),
            ("concepts", J::Int(n as u64)),
            ("measures", J::Int(MEASURES.len() as u64)),
            ("pairs_per_matrix", J::Int((n * (n + 1) / 2) as u64)),
            ("alignments_per_round", J::Int(ordered_pairs().len() as u64)),
            ("threads", J::Int(threads as u64)),
        ]),
    ));
    details.push(("checked".to_owned(), J::Int(checked)));
    details.push(("served_boot_seconds".to_owned(), J::Num(served_boot_s)));
    details.push((
        "child_boot_seconds".to_owned(),
        J::Arr(boot_secs.iter().map(|&s| J::Num(s)).collect()),
    ));
    let correct = tally.wrong == 0 && checked > 0;
    Ok(Outcome {
        correct,
        tally,
        values,
        details,
        tracer: args.trace.then_some(tracer),
    })
}

fn tail_json(sorted: &[f64]) -> J {
    match stats::highest_tail(sorted) {
        Some(t) => J::obj([
            ("percentile", J::Num(t.percentile)),
            ("ms", J::Num(t.value)),
            ("samples", J::Int(t.samples as u64)),
        ]),
        None => J::Null,
    }
}

/// Per-layer values of the traced round `on`.
fn trace_layers(on: &Round, n: usize, tracer: &Tracer, threads: usize, values: &mut Values) {
    let matrices = on.matrix_s.len() as f64;
    let ops = matrices + on.align_s.len() as f64;
    let matrix_s: f64 = on.matrix_s.iter().sum();
    let prepare_s: f64 = on.prepare_s.iter().sum();
    values.set("trace.requests", ops);
    let a = tracer.analysis();
    let job = tracer
        .spans()
        .iter()
        .position(|s| s.name == "job")
        .unwrap_or(0);
    let share = a.attributed_share(job);
    values.set("trace.request_share", share);
    values.set("trace.request_min_share", share);
    values.set(
        "trace.requests_under_90pct",
        f64::from(u8::from(share < 0.9)),
    );
    values.set("trace.other_us", a.self_time(job) as f64 / 1e3 / ops);

    values.set("prepare.us_per_request", ratio(prepare_s * 1e6, matrices));
    values.set(
        "prepare.concepts_per_request",
        ratio(on.prepare_concepts as f64, matrices),
    );
    values.set("prepare.share", ratio(prepare_s, matrix_s));
    let pairs = (n * (n + 1) / 2) as f64;
    for (m, name) in MEASURES.iter().enumerate() {
        let busy: u64 = on.sched[m].workers.iter().map(|w| w.busy_ns).sum();
        values.set(kernel_metric(name), ratio(busy as f64, pairs));
    }
    let busy_s: f64 = on
        .sched
        .iter()
        .flat_map(|s| s.workers.iter().map(|w| w.busy_ns as f64 / 1e9))
        .sum();
    values.set(
        "sched.tiles",
        ratio(
            on.sched.iter().map(SchedStats::tiles).sum::<u64>() as f64,
            matrices,
        ),
    );
    values.set(
        "sched.steals",
        ratio(
            on.sched.iter().map(SchedStats::steals).sum::<u64>() as f64,
            matrices,
        ),
    );
    values.set(
        "sched.imbalance",
        stats::mean(
            &on.sched
                .iter()
                .map(SchedStats::imbalance)
                .collect::<Vec<_>>(),
        ),
    );
    values.set(
        "sched.idle_share",
        1.0 - ratio(busy_s, threads as f64 * (matrix_s - prepare_s)),
    );
    values.set(
        "obs.pair_timings_per_request",
        ratio(on.pair_timings as f64, ops),
    );

    let aligns = on.alignments.len() as f64;
    values.set(
        "align.ms",
        ratio(on.align_s.iter().sum::<f64>() * 1e3, aligns),
    );
    values.set(
        "align.candidates_per_alignment",
        ratio(
            on.alignments
                .iter()
                .map(|a| a.stats.candidate_pairs as f64)
                .sum(),
            aligns,
        ),
    );
    values.set(
        "align.proposals_per_alignment",
        ratio(
            on.alignments.iter().map(|a| a.stats.proposals as f64).sum(),
            aligns,
        ),
    );
    let mut op_ms: Vec<f64> = on
        .matrix_s
        .iter()
        .chain(&on.align_s)
        .map(|s| s * 1e3)
        .collect();
    op_ms.sort_by(f64::total_cmp);
    values.set("client.p99_ms", stats::quantile(&op_ms, 0.99));
    values.set("client.max_ms", op_ms.last().copied().unwrap_or(0.0));
    values.set("client.samples", ops);
    if let Some(t) = stats::highest_tail(&op_ms) {
        values.set("client.tail_pct", t.percentile);
        values.set("client.tail_ms", t.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_percentiles_rest_on_per_pair_medians() {
        // Pair k costs k+1 ms in every round, except one slow round of
        // the pair at the median rank.
        let rounds: Vec<Round> = (0..5)
            .map(|r| Round {
                align_s: (0..20)
                    .map(|k| {
                        let ms = (k + 1) as f64 + if r == 2 && k == 9 { 40.0 } else { 0.0 };
                        ms / 1e3
                    })
                    .collect(),
                ..Round::default()
            })
            .collect();
        let mut typical = pair_medians_ms(&rounds);
        assert!((typical[9] - 10.0).abs() < 1e-9);
        typical.sort_by(f64::total_cmp);
        assert!((stats::quantile(&typical, 0.5) - 10.0).abs() < 1e-9);
        assert!((stats::quantile(&typical, 0.9) - 18.0).abs() < 1e-9);
        // Pooled, the one slow round moves the median to the next pair.
        let mut pooled: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.align_s.iter().map(|s| s * 1e3))
            .collect();
        pooled.sort_by(f64::total_cmp);
        assert!((stats::quantile(&pooled, 0.5) - 11.0).abs() < 1e-9);
    }
}
