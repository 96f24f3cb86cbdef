//! Per-layer timings taken from the benchmark's own calls into each
//! layer's public functions, under spans.
//!
//! The traced replay rebuilds a sampled cell from the public
//! `attack` → `defense` → `ml` calls and must reproduce
//! `sim::pipeline::run_cell` bit for bit, so the split it measures is a
//! split of the same program the workloads run.

use crate::stats::median;
use crate::trace::Tracer;
use crate::Report;
use poisongame::core::bridge::discretized_game;
use poisongame::core::{Algorithm1, PoisonGame, SolverKind};
use poisongame::data::csv::parse_csv;
use poisongame::data::PoisonedView;
use poisongame::defense::FilterStrength;
use poisongame::exec::PoolStats;
use poisongame::io::{parse_chunk, ChunkReader, IngestLimits};
use poisongame::linalg::Xoshiro256StarStar;
use poisongame::ml::batch::batched_accuracy;
use poisongame::serve::protocol::CellRequest;
use poisongame::sim::pipeline::{hugging_placement, prepare, run_cell, EvalOutcome, Prepared};
use poisongame::sim::scenario::{run_matrix_with, DefenseSpec, LearnerSpec};
use poisongame::sim::timing::TimingSnapshot;
use poisongame::sim::ExecPolicy;
use rand::SeedableRng;
use std::time::Instant;

/// Replays per probe; the first also warms the caches.
const REPLAYS: usize = 3;
/// Rows per chunk for the chunked-grammar timing.
const CHUNK_ROWS: usize = 256;
/// Minimum time spent per parser timing.
const PARSE_BUDGET_S: f64 = 0.2;

/// The workload's own inputs for the parser and solver timings.
pub struct LayerInputs {
    /// CSV text the workload's data comes from.
    pub csv: String,
    /// The game the workload solves.
    pub game: PoisonGame,
}

struct ReplayTimes {
    attack_ns: u64,
    filter_ns: u64,
    fit_ns: u64,
    /// SGD steps of the fit: epochs × kept rows.
    steps: u64,
}

fn outcome_bits(o: &EvalOutcome) -> (u64, u64, String) {
    (
        o.accuracy.to_bits(),
        o.removed_fraction.to_bits(),
        o.to_json().render(),
    )
}

/// Replay one cell (its file source, if any, already resolved) under
/// spans and check it against `run_cell` and the 1×1×1 matrix the
/// server evaluates.
fn replay(probe: &CellRequest, tracer: &Tracer, request: u64) -> Result<ReplayTimes, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let matrix = probe.as_matrix();
    let served = tracer
        .span("sim.run_matrix", None, request, |_| {
            run_matrix_with(&probe.config, &matrix, &ExecPolicy::sequential())
        })
        .map_err(|e| err(&e))?;
    let cell_seed = served.cells[0].cell_seed;
    let prepared: Prepared = prepare(&probe.config).map_err(|e| err(&e))?;
    let placement = hugging_placement(&prepared, probe.strength, probe.placement_slack);
    let strength = FilterStrength::RemoveFraction(probe.strength);
    let golden = tracer
        .span("sim.run_cell", None, request, |_| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(cell_seed);
            run_cell(
                &prepared,
                &probe.scenario,
                placement,
                strength,
                &probe.config,
                &mut rng,
            )
        })
        .map_err(|e| err(&e))?;

    let filter_name = match probe.scenario.defense {
        DefenseSpec::Radius => "defense.radius_filter",
        DefenseSpec::Knn { .. } => "defense.knn_filter",
        DefenseSpec::Slab => "defense.slab_filter",
    };
    let fit_name = match probe.scenario.learner {
        LearnerSpec::Svm => "ml.fit.svm",
        LearnerSpec::LogReg => "ml.fit.logreg",
        LearnerSpec::Perceptron => "ml.fit.perceptron",
    };
    let (rebuilt, times) = tracer.span("replay.cell", None, request, |root| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(cell_seed);
        let n_poison = prepared.n_poison;
        let t = Instant::now();
        let poison = tracer.span("attack.generate", Some(root), request, |_| {
            let attack = probe
                .scenario
                .attack
                .build(placement, n_poison)
                .map_err(|e| err(&e))?;
            attack
                .generate(prepared.train(), n_poison, &mut rng)
                .map_err(|e| err(&e))
        })?;
        let attack_ns = t.elapsed().as_nanos() as u64;
        let poisoned = PoisonedView::new(prepared.train(), poison).map_err(|e| err(&e))?;
        let injected: Vec<usize> = poisoned.appended_indices().collect();
        let t = Instant::now();
        let split = tracer.span(filter_name, Some(root), request, |_| {
            probe
                .scenario
                .defense
                .build(strength, probe.config.centroid)
                .map_err(|e| err(&e))?
                .split(&poisoned)
                .map_err(|e| err(&e))
        })?;
        let filter_ns = t.elapsed().as_nanos() as u64;
        let kept = split.kept_dataset(&poisoned);
        let mut model = probe.scenario.learner.build(probe.config.train_config());
        let t = Instant::now();
        tracer
            .span(fit_name, Some(root), request, |_| model.fit(&kept))
            .map_err(|e| err(&e))?;
        let fit_ns = t.elapsed().as_nanos() as u64;
        let test = prepared.test();
        let accuracy = tracer.span("ml.eval", Some(root), request, |_| {
            match model.linear_state() {
                Some(state) => batched_accuracy(test.features(), test.labels(), &[state])
                    .map(|a| a[0])
                    .map_err(|e| err(&e)),
                None => Ok(model.accuracy_on(test)),
            }
        })?;
        let outcome = EvalOutcome {
            accuracy,
            accounting: split.account(&injected),
            removed_fraction: split.removed_fraction(&poisoned),
        };
        let times = ReplayTimes {
            attack_ns,
            filter_ns,
            fit_ns,
            steps: (probe.config.epochs * kept.len()) as u64,
        };
        Ok::<_, String>((outcome, times))
    })?;
    let want = outcome_bits(&served.cells[0].outcome);
    if outcome_bits(&golden) != want || outcome_bits(&rebuilt) != want {
        return Err(format!(
            "replay of {} diverged from run_cell: served {:?}, run_cell {:?}, rebuilt {:?}",
            probe.scenario.label(),
            want,
            outcome_bits(&golden),
            outcome_bits(&rebuilt)
        ));
    }
    Ok(times)
}

/// Throughput of `parse` over `bytes`, repeated for at least
/// [`PARSE_BUDGET_S`], in MB/s.
fn parse_rate(
    bytes: usize,
    mut parse: impl FnMut() -> Result<usize, String>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut passes = 0usize;
    while passes < 2 || t0.elapsed().as_secs_f64() < PARSE_BUDGET_S {
        std::hint::black_box(parse()?);
        passes += 1;
    }
    Ok((bytes * passes) as f64 / 1e6 / t0.elapsed().as_secs_f64())
}

/// Median wall time of `f` over `reps` calls, in seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// The `sim` and `exec` metrics from counter deltas over the traced
/// window: phase times, preparation-cache traffic, pool counters.
pub fn phase_metrics(
    t: &TimingSnapshot,
    cache: (u64, u64, u64),
    pool: &PoolStats,
    report: &mut Report,
) {
    let phase_total = (t.prep_micros + t.fit_micros + t.eval_micros).max(1) as f64;
    report.metric("sim.prep_ms", t.prep_micros as f64 / 1e3, "ms");
    report.metric("sim.fit_ms", t.fit_micros as f64 / 1e3, "ms");
    report.metric("sim.eval_ms", t.eval_micros as f64 / 1e3, "ms");
    report.metric("sim.fit_share", t.fit_micros as f64 / phase_total, "ratio");
    let (hits, misses, evictions) = cache;
    report.metric(
        "sim.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric("sim.cache_evictions", evictions as f64, "count");
    report.metric("exec.tasks", pool.tasks as f64, "count");
    report.metric("exec.inline", pool.inline as f64, "count");
    report.metric("exec.steals", pool.steals as f64, "count");
    report.metric("exec.parks", pool.parks as f64, "count");
    report.metric("exec.batches", pool.batches as f64, "count");
}

/// Replay the probes and time the parser and solver layers on the
/// workload's inputs. Runs after the program's counters were read: the
/// calls here move those counters too.
pub fn measure(
    probes: &[CellRequest],
    inputs: &LayerInputs,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (mut attack, mut radius, mut knn, mut svm, mut logreg) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, probe) in probes.iter().enumerate() {
        for rep in 0..REPLAYS {
            let times = replay(probe, tracer, (i * REPLAYS + rep) as u64)?;
            attack.push(times.attack_ns as f64 / 1e6);
            match probe.scenario.defense {
                DefenseSpec::Radius => radius.push(times.filter_ns as f64 / 1e6),
                DefenseSpec::Knn { .. } => knn.push(times.filter_ns as f64 / 1e6),
                DefenseSpec::Slab => {}
            }
            let per_step = times.fit_ns as f64 / times.steps.max(1) as f64;
            match probe.scenario.learner {
                LearnerSpec::Svm => svm.push(per_step),
                LearnerSpec::LogReg => logreg.push(per_step),
                LearnerSpec::Perceptron => {}
            }
        }
    }
    report.note(format!(
        "traced replay: {} cells rebuilt from attack/defense/ml calls, bit-identical to run_cell",
        probes.len() * REPLAYS
    ));
    report.metric("attack.generate_ms", median(&attack), "ms");
    report.metric("defense.radius_filter_ms", median(&radius), "ms");
    report.metric("defense.knn_filter_ms", median(&knn), "ms");
    report.metric("ml.svm_ns_per_step", median(&svm), "ns");
    report.metric("ml.logreg_ns_per_step", median(&logreg), "ns");

    let csv = &inputs.csv;
    let text_rate = parse_rate(csv.len(), || {
        parse_csv(csv).map(|d| d.len()).map_err(|e| e.to_string())
    })?;
    let chunk_rate = parse_rate(csv.len(), || {
        let mut reader = ChunkReader::new(csv.as_bytes(), CHUNK_ROWS, IngestLimits::default())
            .map_err(|e| e.to_string())?;
        let (mut rows, mut cols) = (0, None);
        while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
            let parsed = parse_chunk(&chunk, cols).map_err(|e| e.to_string())?;
            cols = Some(parsed.cols);
            rows += parsed.rows();
        }
        Ok(rows)
    })?;
    report.metric("data.csv_text_mb_per_s", text_rate, "MB/s");
    report.metric("io.chunk_parse_mb_per_s", chunk_rate, "MB/s");

    let algorithm1 = time_median(5, || {
        for n in [2, 3] {
            Algorithm1::with_support_size(n)
                .solve(&inputs.game)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    report.metric("core.algorithm1_ms", algorithm1 * 1e3, "ms");
    let (_, matrix_game) = discretized_game(&inputs.game, 40);
    let solve = time_median(21, || {
        SolverKind::Auto
            .instantiate(&matrix_game)
            .solve(&matrix_game)
            .map_err(|e| e.to_string())
    })?;
    report.metric("theory.solve_us", solve * 1e6, "us");
    Ok(())
}
