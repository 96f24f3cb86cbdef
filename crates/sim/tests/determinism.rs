//! Determinism regression: the parallel engine at 1, 2 and 8 threads
//! produces byte-identical serialized reports for the same master
//! seed. This is the contract that makes fan-out safe to enable by
//! default — the schedule may only change wall-clock time, never
//! results.

use poisongame_core::ne::equalizing_strategy;
use poisongame_core::{CostCurve, EffectCurve, PoisonGame, SolverKind};
use poisongame_defense::CentroidEstimator;
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::estimate::estimate_curves_prepared;
use poisongame_sim::exec::ExecPolicy;
use poisongame_sim::fig1::{run_fig1_prepared, Fig1Config};
use poisongame_sim::monte_carlo::simulate_repeated_game;
use poisongame_sim::pipeline::{prepare, DataSource, ExperimentConfig};
use poisongame_sim::report::{fig1_csv, fig1_table, matrix_csv, table1_table};
use poisongame_sim::scenario::{run_matrix_prepared, Scenario, ScenarioMatrix};
use poisongame_sim::table1::run_table1_prepared;

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
            let engine = EvalEngine::with_policy(ExecPolicy::with_threads(threads));
            let r = engine.run_fig1(&config, &sweep).expect("sweep runs");
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
    let reports: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let engine = EvalEngine::with_policy(ExecPolicy::with_threads(threads));
            let curves = engine
                .estimate_curves(&config, &[0.02, 0.20], &[0.0, 0.15])
                .expect("curves estimate");
            let t = engine
                .run_table1(&config, &curves, &[2], 0.8)
                .expect("table1 runs");
            format!("{}{}", curves.to_json_string(), table1_table(&t))
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
/// same seed, every engine method's warm (cache-hitting) serialized
/// report is byte-identical to a cold `prepare` followed by the same
/// experiment's `_prepared` phase, at every thread count — caching
/// removes redundant identical computation only.
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

    let (placements, strengths) = ([0.02, 0.20], [0.0, 0.15]);

    // Cold references: no engine, one fresh preparation.
    let sequential = ExecPolicy::sequential();
    let cold = prepare(&config).unwrap();
    let cold_matrix = run_matrix_prepared(&cold, &config, &matrix, &sequential).unwrap();
    let cold_fig1 = run_fig1_prepared(&cold, &config, &sweep, &sequential).unwrap();
    let cold_curves = estimate_curves_prepared(&cold, &config, &placements, &strengths).unwrap();
    let cold_table1 =
        run_table1_prepared(&cold, &config, &cold_curves, &[2], 0.8, &sequential).unwrap();

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

        let cached_curves = engine
            .estimate_curves(&config, &placements, &strengths)
            .unwrap();
        assert_eq!(
            cached_curves.to_json_string().as_bytes(),
            cold_curves.to_json_string().as_bytes(),
            "cached curve estimate diverged from cold at {threads} threads"
        );

        let cached_table1 = engine
            .run_table1(&config, &cached_curves, &[2], 0.8)
            .unwrap();
        assert_eq!(
            format!("{cached_table1:?}").as_bytes(),
            format!("{cold_table1:?}").as_bytes(),
            "cached table1 diverged from cold at {threads} threads"
        );
        // Only the first matrix run prepared; every later method hit.
        assert_eq!(engine.cache_stats().misses, 1);
    }
}

/// Online play is a sequential loop over a payoff grid materialized
/// in parallel: the trace (regrets, exploitability, averaged
/// strategies — all floats) must be byte-identical at any worker
/// count, and the served route (a cold `prepare` plus
/// `run_online_prepared`) must match the engine route.
#[test]
fn online_traces_are_byte_identical_across_worker_counts() {
    use poisongame_online::{run_online, run_online_prepared, LearnerKind, OnlineSpec};

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
            let engine = EvalEngine::with_policy(ExecPolicy::with_threads(threads));
            let outcome = run_online(&engine, &config, &spec).expect("online run");
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

    // The serving identity: what the server computes after its own
    // preparation is what the engine route returns.
    let prepared = prepare(&config).unwrap();
    let served = run_online_prepared(&prepared, &config, &spec, &ExecPolicy::sequential())
        .expect("served online run");
    assert_eq!(
        served.to_json_string().as_bytes(),
        reports[0].as_bytes(),
        "served route diverged from the engine route"
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
            let mc = simulate_repeated_game(
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
