//! `paper_table1`: the paper's batch workload, in process — the
//! Figure 1 pure-strategy sweep, `E(p)`/`Γ(p)` estimation, Algorithm 1
//! for n = 2, 3, and the empirical Table 1 evaluation, all through one
//! `EvalEngine`.

use crate::layers::{self, LayerInputs};
use crate::serving::{mix, synthetic_csv};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Report};
use poisongame::core::paper::paper_game;
use poisongame::core::{Algorithm1, Algorithm1Result, PoisonGame};
use poisongame::data::ContentHash;
use poisongame::exec::WorkerPool;
use poisongame::serve::protocol::CellRequest;
use poisongame::sim::engine::EvalEngine;
use poisongame::sim::estimate::{default_placements, default_strengths};
use poisongame::sim::fig1::Fig1Config;
use poisongame::sim::pipeline::{DataSource, ExperimentConfig};
use poisongame::sim::scenario::{LearnerSpec, Scenario};
use poisongame::sim::timing;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Spambase scale.
const ROWS: usize = 4601;
/// SVM epochs: the paper's 5000 take over a minute per pipeline on a
/// 2-core host; this keeps one pipeline to a couple of seconds with
/// the same work per epoch.
const EPOCHS: usize = 40;
/// Support sizes of the paper's Table 1.
const SUPPORT_SIZES: [usize; 2] = [2, 3];
/// Timed paper-game Algorithm 1 solves after each pipeline stage.
const SOLVE_REPEATS: usize = 20;
/// Pipelines per window, at least, however long they take.
const MIN_PIPELINES: usize = 2;

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed: mix(seed, 0x7ab1e1),
        source: DataSource::SyntheticSpambase { rows: ROWS },
        epochs: EPOCHS,
        ..ExperimentConfig::paper()
    }
}

/// Stage times of one pipeline, in ms.
struct Stages {
    fig1: f64,
    estimate: f64,
    solve: Vec<f64>,
    total: f64,
}

fn in_unit(x: f64) -> bool {
    (0.0..=1.0).contains(&x)
}

fn sums_to_one(p: &[f64]) -> bool {
    (p.iter().sum::<f64>() - 1.0).abs() <= 1e-9
}

/// Run `f` as a span when tracing; returns its value and wall time in
/// ms.
fn stage<T>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<u64>,
    rep: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = match tracer {
        Some(tracer) => tracer.span(name, parent, rep, |_| f()),
        None => f(),
    };
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// One full pipeline; returns its stage times and an output digest.
/// Violations of the output invariants are returned as errors.
fn pipeline(
    engine: &EvalEngine,
    config: &ExperimentConfig,
    paper: &PoisonGame,
    tracer: Option<&Tracer>,
    rep: u64,
) -> Result<(Stages, u64), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    // The estimated game's Algorithm 1 iteration count depends on the
    // data (hence the seed) by orders of magnitude, so solve latency is
    // timed on the paper-calibrated game — the model-level half of
    // Table 1 — after every stage, so the samples spread over the run.
    let solvers: Vec<Algorithm1> = SUPPORT_SIZES
        .iter()
        .map(|&n| Algorithm1::new(config.algorithm1_config(n)))
        .collect();
    let mut solve = Vec::new();
    // One sample solves every support size, as Table 1 does: timed
    // apart, the n = 2 and n = 3 solves form two clusters, and the
    // median of an even mix falls in the gap between them.
    let time_solves = |solve: &mut Vec<f64>| -> Result<f64, String> {
        let t0 = Instant::now();
        for _ in 0..SOLVE_REPEATS {
            let t = Instant::now();
            for solver in &solvers {
                std::hint::black_box(solver.solve(paper).map_err(|e| err(&e))?);
            }
            solve.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(t0.elapsed().as_secs_f64() * 1e3)
    };
    let t0 = Instant::now();
    let (fig1, fig1_ms) = stage(tracer, "sim.run_fig1", None, rep, || {
        engine.run_fig1(config, &Fig1Config::default())
    });
    let fig1 = fig1.map_err(|e| err(&e))?;
    let mut solving_ms = time_solves(&mut solve)?;
    let (curves, estimate_ms) = stage(tracer, "sim.estimate_curves", None, rep, || {
        engine.estimate_curves(config, &default_placements(), &default_strengths())
    });
    let curves = curves.map_err(|e| err(&e))?;
    solving_ms += time_solves(&mut solve)?;
    let game = curves.game().map_err(|e| err(&e))?;
    let mut solved: Vec<Algorithm1Result> = Vec::new();
    for solver in &solvers {
        let (result, _) = stage(tracer, "core.algorithm1", None, rep, || solver.solve(&game));
        solved.push(result.map_err(|e| err(&e))?);
    }
    let best_pure = fig1.best_pure().accuracy_under_attack;
    let (table1, _) = stage(tracer, "sim.run_table1", None, rep, || {
        engine.run_table1(config, &curves, &SUPPORT_SIZES, best_pure)
    });
    let table1 = table1.map_err(|e| err(&e))?;
    solving_ms += time_solves(&mut solve)?;
    let total = t0.elapsed().as_secs_f64() * 1e3 - solving_ms;

    let mut digest = ContentHash::new().str(&curves.to_json().render());
    for row in &fig1.rows {
        if ![
            row.accuracy_under_attack,
            row.accuracy_clean,
            row.poison_recall,
        ]
        .into_iter()
        .all(in_unit)
        {
            return Err(format!("Figure 1 row out of [0,1]: {row:?}"));
        }
        digest = digest
            .f64(row.removed_fraction)
            .f64(row.accuracy_under_attack)
            .f64(row.accuracy_clean)
            .f64(row.poison_recall);
    }
    if !in_unit(table1.best_pure_accuracy) || !in_unit(table1.baseline_accuracy) {
        return Err("Table 1 reference accuracies out of [0,1]".to_string());
    }
    for (row, alone) in table1.rows.iter().zip(&solved) {
        if !sums_to_one(&row.probabilities) || !sums_to_one(alone.strategy.probabilities()) {
            return Err(format!(
                "n = {}: probabilities do not sum to 1",
                row.n_radii
            ));
        }
        if !in_unit(row.empirical_accuracy) {
            return Err(format!(
                "n = {}: empirical accuracy out of [0,1]",
                row.n_radii
            ));
        }
        if row.support != alone.strategy.support()
            || row.probabilities != alone.strategy.probabilities()
        {
            return Err(format!(
                "n = {}: Table 1 strategy differs from Algorithm 1 run alone",
                row.n_radii
            ));
        }
        for v in row.support.iter().chain(&row.probabilities) {
            digest = digest.f64(*v);
        }
        digest = digest
            .f64(row.predicted_accuracy)
            .f64(row.empirical_accuracy)
            .f64(row.attacker_placement);
    }
    if table1.rows.len() != SUPPORT_SIZES.len() {
        return Err("Table 1 is missing rows".to_string());
    }
    Ok((
        Stages {
            fig1: fig1_ms,
            estimate: estimate_ms,
            solve,
            total,
        },
        digest.finish(),
    ))
}

/// Run pipelines for `seconds` (and at least [`MIN_PIPELINES`]): a
/// pipeline is started only while the slowest one so far would still
/// end in time.
fn window(
    engine: &EvalEngine,
    config: &ExperimentConfig,
    seconds: f64,
    tracer: Option<&Tracer>,
    report: &mut Report,
    digests: &mut Vec<u64>,
) -> (Vec<Stages>, f64) {
    let paper = paper_game().expect("the paper-calibrated game is valid");
    let t0 = Instant::now();
    let mut stages = Vec::new();
    let mut slowest = 0.0f64;
    while stages.len() < MIN_PIPELINES || t0.elapsed().as_secs_f64() + slowest <= seconds {
        let started = Instant::now();
        report.attempted += 1;
        match pipeline(engine, config, &paper, tracer, report.attempted) {
            Ok((s, digest)) => {
                stages.push(s);
                digests.push(digest);
                slowest = slowest.max(started.elapsed().as_secs_f64());
            }
            Err(e) => {
                report.failed += 1;
                report.problem(format!("pipeline {}: {e}", report.attempted));
                break;
            }
        }
    }
    (stages, t0.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let config = config(args.seed);
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut engine = None;
    for _ in 0..setups {
        let t = Instant::now();
        WorkerPool::global();
        let fresh = EvalEngine::new();
        fresh.prepare(&config).map_err(|e| e.to_string())?;
        setup_times.push(t.elapsed().as_secs_f64());
        engine = Some(fresh);
    }
    let engine = engine.expect("at least one set-up");

    let seconds = args.seconds as f64;
    let tracer = Tracer::new();
    let mut digests = Vec::new();
    if args.trace {
        let (untraced, _) = window(
            &engine,
            &config,
            seconds / 2.0,
            None,
            &mut report,
            &mut digests,
        );
        let (t_before, p_before, c_before) = (
            timing::snapshot(),
            WorkerPool::global().stats(),
            engine.cache_stats(),
        );
        let (traced, _) = window(
            &engine,
            &config,
            seconds / 2.0,
            Some(&tracer),
            &mut report,
            &mut digests,
        );
        let t = timing::snapshot().since(&t_before);
        let p = WorkerPool::global().stats().since(&p_before);
        let c = engine.cache_stats();
        let total = |s: &[Stages]| median(&s.iter().map(|s| s.total).collect::<Vec<_>>());
        report.metric(
            "trace.overhead_frac",
            total(&traced) / total(&untraced) - 1.0,
            "ratio",
        );
        // The engine's cache is unbounded: it never evicts.
        layers::phase_metrics(
            &t,
            (c.hits - c_before.hits, c.misses - c_before.misses, 0),
            &p,
            &mut report,
        );
        // No server, gateway or file source in this workload.
        for (name, unit) in [
            ("serve.busy_frac", "ratio"),
            ("serve.shard_skew", "ratio"),
            ("serve.queue_wait_p99_ms", "ms"),
            ("serve.shed", "count"),
            ("serve.failed", "count"),
            ("gateway.hop_us", "us"),
            ("io.mb_per_s", "MB/s"),
            ("io.rows_total", "count"),
            ("io.chunks_total", "count"),
            ("io.fallback_total", "count"),
            ("io.checksum_mismatch_total", "count"),
        ] {
            report.metric(name, 0.0, unit);
        }
        let probe = |scenario: Scenario| CellRequest {
            config: config.clone(),
            scenario,
            ..CellRequest::default()
        };
        let probes = [
            probe(Scenario::paper()),
            // The kNN filter is left out: at this scale it costs
            // ~0.7 s per call and the paper's pipeline never runs it.
            probe(Scenario::builder().learner(LearnerSpec::LogReg).build()),
        ];
        let inputs = LayerInputs {
            csv: synthetic_csv(ROWS, config.seed),
            game: paper_game().expect("the paper-calibrated game is valid"),
        };
        layers::measure(&probes, &inputs, &tracer, &mut report)?;
        report.spans = Some(tracer);
    } else {
        let (stages, elapsed) = window(&engine, &config, seconds, None, &mut report, &mut digests);
        report.metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        let column = |f: &dyn Fn(&Stages) -> f64| stages.iter().map(f).collect::<Vec<f64>>();
        report.metric("throughput_rps", stages.len() as f64 / elapsed, "1/s");
        let fig1 = column(&|s| s.fig1);
        let estimate = column(&|s| s.estimate);
        // A handful of pipelines supports no percentile above the
        // median.
        report.latencies("cell_p50_ms", None, &fig1);
        report.latencies("estimate_p50_ms", None, &estimate);
        let solves: Vec<f64> = stages
            .iter()
            .flat_map(|s| s.solve.iter().copied())
            .collect();
        report.latencies("solve_p50_ms", None, &solves);
        report.metric("setup_s", median(&setup_times), "s");
        report.note(format!(
            "table1 pipeline: {} runs, median {:.1} ms",
            stages.len(),
            median(&column(&|s| s.total))
        ));
    }
    digests.dedup();
    if digests.len() > 1 {
        report.failed += 1;
        report.problem("pipeline outputs differ between repetitions".to_string());
    }
    if let Some(d) = digests.first() {
        report.note(format!("table1 output digest {d:016x}"));
    }
    Ok(report)
}
