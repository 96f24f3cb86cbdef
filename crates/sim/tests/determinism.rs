//! Determinism regression: the parallel engine at 1, 2 and 8 threads
//! produces byte-identical serialized reports for the same master
//! seed. This is the contract that makes fan-out safe to enable by
//! default — the schedule may only change wall-clock time, never
//! results.

use poisongame_core::ne::equalizing_strategy;
use poisongame_core::{CostCurve, EffectCurve, PoisonGame, SolverKind};
use poisongame_defense::CentroidEstimator;
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::estimate::estimate_curves;
use poisongame_sim::exec::ExecPolicy;
use poisongame_sim::fig1::{run_fig1_with, Fig1Config};
use poisongame_sim::monte_carlo::simulate_repeated_game_parallel;
use poisongame_sim::pipeline::{DataSource, ExperimentConfig};
use poisongame_sim::report::{fig1_csv, fig1_table, matrix_csv, table1_table};
use poisongame_sim::scenario::{run_matrix_with, Scenario, ScenarioMatrix};
use poisongame_sim::table1::run_table1_with;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        seed: 0xD37E_2214,
        source: DataSource::SyntheticSpambase { rows: 400 },
        test_fraction: 0.3,
        budget_fraction: 0.2,
        epochs: 25,
        centroid: CentroidEstimator::CoordinateMedian,
        solver: SolverKind::Auto,
        warm_start: false,
        scenario: Scenario::default(),
    }
}

#[test]
fn fig1_reports_are_byte_identical_across_thread_counts() {
    let config = tiny_config();
    let sweep = Fig1Config {
        strengths: vec![0.0, 0.08, 0.20],
        placement_slack: 0.01,
    };
    let reports: Vec<(String, String)> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let r = run_fig1_with(&config, &sweep, &ExecPolicy::with_threads(threads))
                .expect("sweep runs");
            (fig1_csv(&r), fig1_table(&r))
        })
        .collect();
    for (threads, (csv, table)) in THREAD_COUNTS.iter().zip(&reports).skip(1) {
        assert_eq!(
            csv.as_bytes(),
            reports[0].0.as_bytes(),
            "fig1 CSV diverged at {threads} threads"
        );
        assert_eq!(
            table.as_bytes(),
            reports[0].1.as_bytes(),
            "fig1 table diverged at {threads} threads"
        );
    }
}

#[test]
fn table1_reports_are_byte_identical_across_thread_counts() {
    let config = tiny_config();
    let curves = estimate_curves(&config, &[0.02, 0.20], &[0.0, 0.15]).expect("curves estimate");
    let reports: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let t = run_table1_with(
                &config,
                &curves,
                &[2],
                0.8,
                &ExecPolicy::with_threads(threads),
            )
            .expect("table1 runs");
            table1_table(&t)
        })
        .collect();
    for (threads, report) in THREAD_COUNTS.iter().zip(&reports).skip(1) {
        assert_eq!(
            report.as_bytes(),
            reports[0].as_bytes(),
            "table1 report diverged at {threads} threads"
        );
    }
}

/// The cached engine must be a pure wall-clock optimization: for the
/// same seed, the warm (cache-hitting) run's serialized report is
/// byte-identical to the cold per-cell evaluation, at every thread
/// count — caching removes redundant identical computation only.
#[test]
fn cached_engine_is_byte_identical_to_cold_evaluation() {
    let config = tiny_config();
    let matrix = ScenarioMatrix {
        attacks: vec![
            poisongame_sim::scenario::AttackSpec::Boundary,
            poisongame_sim::scenario::AttackSpec::LabelFlip,
        ],
        defenses: vec![
            poisongame_sim::scenario::DefenseSpec::Radius,
            poisongame_sim::scenario::DefenseSpec::Slab,
        ],
        learners: vec![poisongame_sim::scenario::LearnerSpec::Svm],
        strength: 0.15,
        placement_slack: 0.01,
    };
    let sweep = Fig1Config {
        strengths: vec![0.0, 0.08, 0.20],
        placement_slack: 0.01,
    };

    // Cold references (no engine, fresh preparation per call).
    let cold_matrix = run_matrix_with(&config, &matrix, &ExecPolicy::sequential()).unwrap();
    let cold_fig1 = run_fig1_with(&config, &sweep, &ExecPolicy::sequential()).unwrap();

    for &threads in &THREAD_COUNTS {
        let engine = EvalEngine::with_policy(ExecPolicy::with_threads(threads));
        // Warm the store, then measure the hitting run.
        let first = engine.run_matrix(&config, &matrix).unwrap();
        let second = engine.run_matrix(&config, &matrix).unwrap();
        assert!(engine.cache_stats().hits >= 1, "second run must hit");
        assert_eq!(
            matrix_csv(&second).as_bytes(),
            matrix_csv(&cold_matrix).as_bytes(),
            "cached matrix diverged from cold at {threads} threads"
        );
        assert_eq!(first, second);

        let cached_fig1 = engine.run_fig1(&config, &sweep).unwrap();
        assert_eq!(
            fig1_csv(&cached_fig1).as_bytes(),
            fig1_csv(&cold_fig1).as_bytes(),
            "cached fig1 diverged from cold at {threads} threads"
        );
    }
}

/// Online play is a sequential loop over a payoff grid materialized
/// in parallel: the trace (regrets, exploitability, averaged
/// strategies — all floats) must be byte-identical at any worker
/// count, on both the batch and the lazy engine-backed routes.
#[test]
fn online_traces_are_byte_identical_across_worker_counts() {
    use poisongame_online::{run_online, run_online_engine, LearnerKind, OnlineSpec};

    let config = tiny_config();
    let spec = OnlineSpec {
        rounds: 500,
        attacker: LearnerKind::Hedge,
        defender: LearnerKind::RegretMatching,
        placements: vec![0.02, 0.15, 0.30],
        strengths: vec![0.0, 0.10, 0.25],
        ..OnlineSpec::default()
    };

    let reports: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let engine = EvalEngine::new();
            let outcome = run_online(&engine, &config, &spec, &ExecPolicy::with_threads(threads))
                .expect("online run");
            outcome.trace.to_json_string()
        })
        .collect();
    for (threads, report) in THREAD_COUNTS.iter().zip(&reports).skip(1) {
        assert_eq!(
            report.as_bytes(),
            reports[0].as_bytes(),
            "online trace diverged at {threads} threads"
        );
    }

    // The lazy engine-backed schedule produces the same bytes too.
    let engine = EvalEngine::new();
    let lazy = run_online_engine(&engine, &config, &spec).expect("lazy online run");
    assert_eq!(
        lazy.trace.to_json_string().as_bytes(),
        reports[0].as_bytes(),
        "lazy route diverged from the parallel route"
    );
}

#[test]
fn monte_carlo_results_are_byte_identical_across_thread_counts() {
    let effect = EffectCurve::from_samples(&[
        (0.0, 2.0e-4),
        (0.10, 9.0e-5),
        (0.20, 4.0e-5),
        (0.40, 2.0e-6),
    ])
    .unwrap();
    let cost = CostCurve::from_samples(&[(0.0, 0.0), (0.20, 0.022), (0.40, 0.065)]).unwrap();
    let game = PoisonGame::new(effect, cost, 644).unwrap();
    let strategy = equalizing_strategy(&[0.05, 0.15, 0.30], game.effect()).unwrap();

    let reports: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mc = simulate_repeated_game_parallel(
                &game,
                &strategy,
                10_000,
                16,
                0xCAFE,
                &ExecPolicy::with_threads(threads),
            )
            .expect("simulation runs");
            // Debug formatting prints full float precision — any bit
            // difference in any field shows up here.
            format!("{mc:?}")
        })
        .collect();
    for (threads, report) in THREAD_COUNTS.iter().zip(&reports).skip(1) {
        assert_eq!(
            report.as_bytes(),
            reports[0].as_bytes(),
            "monte carlo diverged at {threads} threads"
        );
    }
}
