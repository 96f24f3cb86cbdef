//! Cross-crate integration tests: the full pipeline from synthetic
//! data through attack, defense, curve estimation and Algorithm 1.

use poisongame::core::ne::diagnose;
use poisongame::core::SolverKind;
use poisongame::core::{Algorithm1, Algorithm1Config, DefenderMixedStrategy};
use poisongame::defense::CentroidEstimator;
use poisongame::sim::fig1::Fig1Config;
use poisongame::sim::pipeline::{DataSource, ExperimentConfig};
use poisongame::sim::scenario::Scenario;
use poisongame::sim::EvalEngine;

fn quick_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        source: DataSource::SyntheticSpambase { rows: 700 },
        test_fraction: 0.3,
        budget_fraction: 0.2,
        epochs: 60,
        centroid: CentroidEstimator::CoordinateMedian,
        solver: SolverKind::Auto,
        warm_start: false,
        scenario: Scenario::default(),
    }
}

#[test]
fn fig1_reproduces_paper_shape() {
    let engine = EvalEngine::new();
    let sweep = Fig1Config {
        strengths: vec![0.0, 0.05, 0.10, 0.20, 0.30],
        placement_slack: 0.01,
    };
    let r = engine.run_fig1(&quick_config(11), &sweep).unwrap();

    // Shape check 1: the unfiltered attack does real damage.
    let at_zero = r.rows[0].accuracy_under_attack;
    assert!(
        at_zero < r.baseline_accuracy - 0.05,
        "attack too weak: {} vs baseline {}",
        at_zero,
        r.baseline_accuracy
    );
    // Shape check 2: some positive filter strength beats no filter
    // under attack (filtering helps even though the attacker adapts).
    let best = r.best_pure();
    assert!(best.removed_fraction > 0.0);
    assert!(best.accuracy_under_attack > at_zero + 0.01);
    // Shape check 3: the clean series never collapses (the filter's
    // cost is bounded) and stays above the attacked series at 0.
    for row in &r.rows {
        assert!(row.accuracy_clean > at_zero);
    }
}

#[test]
fn curves_feed_algorithm1_and_satisfy_ne_conditions() {
    let engine = EvalEngine::new();
    let config = quick_config(23);
    let curves = engine
        .estimate_curves(&config, &[0.02, 0.10, 0.20, 0.35], &[0.0, 0.05, 0.15, 0.30])
        .unwrap();
    let game = curves.game().unwrap();
    let result = Algorithm1::with_support_size(2).solve(&game).unwrap();

    // NE structure from §4.2 must hold on *estimated* curves too.
    let d = diagnose(&result.strategy, game.effect(), 1e-6);
    assert!(d.satisfies_ne_conditions(), "{d:?}");

    // The mixed loss is no worse than any pure strategy's loss.
    for k in 0..=10 {
        let theta = 0.05 * k as f64;
        if theta >= 0.5 {
            break;
        }
        let pure = DefenderMixedStrategy::pure(theta).unwrap();
        let pure_loss = pure.defender_loss(game.effect(), game.cost(), game.n_points());
        assert!(
            result.defender_loss <= pure_loss + 1e-9,
            "pure θ={theta} beats mixed: {pure_loss} < {}",
            result.defender_loss
        );
    }
}

#[test]
fn solver_is_swappable_via_experiment_config() {
    let engine = EvalEngine::new();
    // The acceptance bar for the solver refactor: every solver is
    // selectable purely through configuration, and the experiment
    // output stays a valid mixed defense regardless of the choice.
    let mut config = quick_config(53);
    config.epochs = 30;
    config.source = DataSource::SyntheticSpambase { rows: 500 };
    // Opt into the warm start so the solver choice reaches Algorithm 1.
    config.warm_start = true;
    let curves = engine
        .estimate_curves(&config, &[0.02, 0.15, 0.35], &[0.0, 0.1, 0.3])
        .unwrap();
    let game = curves.game().unwrap();

    for solver in [
        SolverKind::Auto,
        SolverKind::Simplex,
        SolverKind::FictitiousPlay,
        SolverKind::MultiplicativeWeights,
    ] {
        config.solver = solver;
        let t = engine.run_table1(&config, &curves, &[2], 0.8).unwrap();
        let row = &t.rows[0];
        assert_eq!(row.support.len(), 2, "{solver:?}");
        assert!(
            (row.probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "{solver:?}"
        );
        assert!((0.0..=1.0).contains(&row.empirical_accuracy), "{solver:?}");

        // The same choice drives Algorithm 1's warm start directly.
        let warm = Algorithm1::new(Algorithm1Config {
            n_radii: 2,
            solver,
            warm_start: true,
            ..Algorithm1Config::default()
        })
        .solve(&game)
        .unwrap();
        assert_eq!(warm.strategy.support().len(), 2, "{solver:?}");
    }
}

#[test]
fn table1_mixed_defense_close_to_or_above_best_pure() {
    let engine = EvalEngine::new();
    let config = quick_config(37);
    let sweep = Fig1Config {
        strengths: vec![0.0, 0.05, 0.15, 0.30],
        placement_slack: 0.01,
    };
    let fig1 = engine.run_fig1(&config, &sweep).unwrap();
    let curves = engine
        .estimate_curves(&config, &[0.02, 0.10, 0.20, 0.35], &[0.0, 0.05, 0.15, 0.30])
        .unwrap();
    let t = engine
        .run_table1(
            &config,
            &curves,
            &[2],
            fig1.best_pure().accuracy_under_attack,
        )
        .unwrap();
    let row = &t.rows[0];
    // The pure sweep's best point benefits from evaluation noise (a max
    // over noisy measurements), so allow a small tolerance — at paper
    // scale the mixed defense clears the bar outright (EXPERIMENTS.md).
    assert!(
        row.empirical_accuracy >= t.best_pure_accuracy - 0.05,
        "mixed {} far below best pure {}",
        row.empirical_accuracy,
        t.best_pure_accuracy
    );
    // And it must clearly beat the undefended posture.
    let undefended = fig1.rows[0].accuracy_under_attack;
    assert!(
        row.empirical_accuracy > undefended,
        "mixed {} vs undefended {}",
        row.empirical_accuracy,
        undefended
    );
}
