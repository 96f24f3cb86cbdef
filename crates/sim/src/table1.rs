//! Table 1: the mixed-strategy defense under the optimal attack.
//!
//! For each support size `n` the experiment (1) runs Algorithm 1 on
//! the estimated curves, (2) evaluates the resulting mixed defense
//! *empirically*: the attacker best-responds by testing every support
//! position (§4.2 shows the best response lies on the support) and the
//! defense's accuracy is the probability-weighted accuracy over its
//! filter strengths at the attacker's chosen placement.

use crate::error::SimError;
use crate::estimate::CurveEstimate;
use crate::exec::{try_parallel_map, ExecPolicy};
use crate::pipeline::{run_cell, ExperimentConfig, Prepared};
use poisongame_core::{Algorithm1, DefenderMixedStrategy};
use poisongame_defense::FilterStrength;
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Support size `n` (the algorithm input).
    pub n_radii: usize,
    /// Support percentiles (the paper's "Radius" row).
    pub support: Vec<f64>,
    /// Mixing probabilities (the paper's "Probability" row).
    pub probabilities: Vec<f64>,
    /// Accuracy predicted by the game model
    /// (`baseline − defender loss`).
    pub predicted_accuracy: f64,
    /// Accuracy measured by running the actual attack/filter/train
    /// pipeline against the best-responding attacker.
    pub empirical_accuracy: f64,
    /// The attacker's chosen placement in the empirical evaluation.
    pub attacker_placement: f64,
}

/// The full Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Results {
    /// One row per requested support size.
    pub rows: Vec<Table1Row>,
    /// The best pure-strategy accuracy under attack (from the Figure 1
    /// sweep) — the bar the mixed defense must clear.
    pub best_pure_accuracy: f64,
    /// Clean unfiltered baseline.
    pub baseline_accuracy: f64,
}

/// Empirically evaluate a mixed defense against its best-responding
/// attacker on an already-prepared dataset: the attacker tries every
/// support position (plus slack) and keeps the one minimizing the
/// defender's expected accuracy.
///
/// The candidate placements fan out across the worker pool.
/// Per-candidate RNGs derive from the master seed alone, and the worst
/// candidate is chosen by an ordered scan, so the result is
/// bit-identical at any thread count.
///
/// Returns `(expected accuracy, attacker placement)`.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_mixed_defense_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    strategy: &DefenderMixedStrategy,
    placement_slack: f64,
    policy: &ExecPolicy,
) -> Result<(f64, f64), SimError> {
    let expected_per_candidate = try_parallel_map(
        policy,
        strategy.support(),
        |_, &candidate| -> Result<f64, SimError> {
            let placement =
                crate::pipeline::hugging_placement(prepared, candidate, placement_slack);
            let mut expected = 0.0;
            for (&theta, &q) in strategy.support().iter().zip(strategy.probabilities()) {
                if q == 0.0 {
                    continue;
                }
                let mut rng = Xoshiro256StarStar::seed_from_u64(
                    config.seed ^ candidate.to_bits() ^ theta.to_bits().rotate_left(13),
                );
                let out = run_cell(
                    prepared,
                    &config.scenario,
                    placement,
                    FilterStrength::RemoveFraction(theta),
                    config,
                    &mut rng,
                )?;
                expected += q * out.accuracy;
            }
            Ok(expected)
        },
    )?;

    let mut worst = (f64::INFINITY, 0.0);
    for (&candidate, &expected) in strategy.support().iter().zip(&expected_per_candidate) {
        if expected < worst.0 {
            worst = (expected, candidate);
        }
    }
    Ok(worst)
}

/// Reject an empty support-size list.
pub(crate) fn validate_support_sizes(support_sizes: &[usize]) -> Result<(), SimError> {
    if support_sizes.is_empty() {
        return Err(SimError::BadParameter {
            what: "support_sizes",
            value: 0.0,
        });
    }
    Ok(())
}

/// Run Table 1 against an already-prepared dataset — the evaluate
/// phase of [`crate::engine::EvalEngine::run_table1`].
///
/// `best_pure_accuracy` comes from the Figure 1 sweep (pass
/// `Fig1Results::best_pure().accuracy_under_attack`). Each support
/// size is an independent cell (Algorithm 1 solve + empirical
/// best-response evaluation), fanned out across the worker pool; the
/// empirical evaluation inside each cell runs sequentially to keep the
/// pool simple. Results are bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty size list and
/// propagates solver/pipeline failures.
pub fn run_table1_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    curves: &CurveEstimate,
    support_sizes: &[usize],
    best_pure_accuracy: f64,
    policy: &ExecPolicy,
) -> Result<Table1Results, SimError> {
    validate_support_sizes(support_sizes)?;
    let game = curves.game()?;
    let rows = try_parallel_map(
        policy,
        support_sizes,
        |_, &n| -> Result<Table1Row, SimError> {
            // The experiment's solver / warm-start knobs take effect
            // here (see `ExperimentConfig::algorithm1_config`).
            let solver = Algorithm1::new(config.algorithm1_config(n));
            let result = solver.solve(&game)?;
            let predicted = (curves.baseline_accuracy - result.defender_loss).clamp(0.0, 1.0);
            let (empirical, placement) = evaluate_mixed_defense_prepared(
                prepared,
                config,
                &result.strategy,
                0.01,
                &ExecPolicy::sequential(),
            )?;
            Ok(Table1Row {
                n_radii: n,
                support: result.strategy.support().to_vec(),
                probabilities: result.strategy.probabilities().to_vec(),
                predicted_accuracy: predicted,
                empirical_accuracy: empirical,
                attacker_placement: placement,
            })
        },
    )?;
    Ok(Table1Results {
        rows,
        best_pure_accuracy,
        baseline_accuracy: curves.baseline_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalEngine;
    use crate::pipeline::DataSource;
    use crate::scenario::Scenario;
    use poisongame_core::SolverKind;
    use poisongame_defense::CentroidEstimator;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 4242,
            source: DataSource::SyntheticSpambase { rows: 600 },
            test_fraction: 0.3,
            budget_fraction: 0.2,
            epochs: 40,
            centroid: CentroidEstimator::CoordinateMedian,
            solver: SolverKind::Auto,
            warm_start: false,
            scenario: Scenario::default(),
        }
    }

    #[test]
    fn table1_rows_have_valid_strategies() {
        let config = quick_config();
        let engine = EvalEngine::new();
        let curves = engine
            .estimate_curves(&config, &[0.02, 0.1, 0.25, 0.4], &[0.0, 0.05, 0.15, 0.3])
            .unwrap();
        let t = engine.run_table1(&config, &curves, &[2], 0.8).unwrap();
        assert_eq!(t.rows.len(), 1);
        let row = &t.rows[0];
        assert_eq!(row.support.len(), 2);
        assert!((row.probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(row.support.windows(2).all(|w| w[0] < w[1]));
        assert!((0.0..=1.0).contains(&row.empirical_accuracy));
        assert!((0.0..=1.0).contains(&row.predicted_accuracy));
    }

    #[test]
    fn empty_sizes_rejected() {
        let config = quick_config();
        let engine = EvalEngine::new();
        let curves = engine
            .estimate_curves(&config, &[0.05, 0.2], &[0.0, 0.2])
            .unwrap();
        let before = engine.cache_stats();
        assert!(matches!(
            engine.run_table1(&config, &curves, &[], 0.8),
            Err(SimError::BadParameter {
                what: "support_sizes",
                ..
            })
        ));
        assert_eq!(
            engine.cache_stats(),
            before,
            "an empty list must not prepare"
        );
    }

    #[test]
    fn mixed_defense_evaluation_is_thread_count_invariant() {
        let config = quick_config();
        let prepared = crate::pipeline::prepare(&config).unwrap();
        let strategy = DefenderMixedStrategy::new(vec![0.05, 0.2], vec![0.6, 0.4]).unwrap();
        let reference = evaluate_mixed_defense_prepared(
            &prepared,
            &config,
            &strategy,
            0.01,
            &ExecPolicy::sequential(),
        )
        .unwrap();
        // The attacker picks one of the support positions.
        assert!(strategy.support().contains(&reference.1));
        assert!((0.0..=1.0).contains(&reference.0));
        for threads in [2, 8] {
            let parallel = evaluate_mixed_defense_prepared(
                &prepared,
                &config,
                &strategy,
                0.01,
                &ExecPolicy::with_threads(threads),
            )
            .unwrap();
            assert_eq!(reference.0.to_bits(), parallel.0.to_bits());
            assert_eq!(reference.1.to_bits(), parallel.1.to_bits());
        }
    }
}
