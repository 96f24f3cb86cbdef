//! Figure 1: pure-strategy defense under the optimal attack.
//!
//! For each filter strength `θ` on the sweep grid the experiment
//! measures (a) held-out accuracy when the attacker places its whole
//! budget just inside the filter boundary (the optimal pure attack
//! against a known `θ`), and (b) accuracy with no attack — the two
//! series of the paper's Figure 1.

use crate::error::SimError;
use crate::exec::{try_parallel_map, ExecPolicy};
use crate::pipeline::{filter_train_eval, hugging_placement, run_cell, ExperimentConfig, Prepared};
use poisongame_defense::FilterStrength;
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Config {
    /// Filter strengths to sweep (fractions removed).
    pub strengths: Vec<f64>,
    /// Extra placement depth added to the attacker's position so the
    /// poison sits strictly inside the matching filter despite the
    /// filter re-estimating its radius on poisoned data.
    pub placement_slack: f64,
}

impl Default for Fig1Config {
    /// The paper sweeps 0–40 % removal; 13 points cover it densely
    /// enough to recover the curve shapes.
    fn default() -> Self {
        Self {
            strengths: vec![
                0.0, 0.02, 0.05, 0.08, 0.10, 0.13, 0.16, 0.20, 0.25, 0.30, 0.35, 0.40,
            ],
            placement_slack: 0.01,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig1Row {
    /// Filter strength (fraction of each class removed).
    pub removed_fraction: f64,
    /// Accuracy under the optimal pure attack hugging this filter.
    pub accuracy_under_attack: f64,
    /// Accuracy with no attack at the same filter strength.
    pub accuracy_clean: f64,
    /// Fraction of the injected poison the filter removed (ground
    /// truth, attack run only).
    pub poison_recall: f64,
}

/// The full Figure 1 dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Results {
    /// One row per sweep strength, ascending.
    pub rows: Vec<Fig1Row>,
    /// Clean accuracy with no filter and no attack (the benchmark the
    /// paper compares against).
    pub baseline_accuracy: f64,
    /// Poison budget used.
    pub n_poison: usize,
}

impl Fig1Results {
    /// The best (highest-accuracy-under-attack) pure strength.
    pub fn best_pure(&self) -> &Fig1Row {
        self.rows
            .iter()
            .max_by(|a, b| {
                a.accuracy_under_attack
                    .partial_cmp(&b.accuracy_under_attack)
                    .expect("finite accuracies")
            })
            .expect("non-empty sweep")
    }
}

/// Reject an empty or out-of-range strength grid.
pub(crate) fn validate_strengths(strengths: &[f64]) -> Result<(), SimError> {
    if strengths.is_empty() {
        return Err(SimError::BadParameter {
            what: "strengths",
            value: 0.0,
        });
    }
    for &s in strengths {
        if !(0.0..1.0).contains(&s) || s.is_nan() {
            return Err(SimError::BadParameter {
                what: "strength",
                value: s,
            });
        }
    }
    Ok(())
}

/// Per-point attack RNG, derived from the master seed alone so sweep
/// points are reproducible in isolation and independent of workers.
fn point_rng(config: &ExperimentConfig, theta: f64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(config.seed ^ (theta.to_bits().rotate_left(17)))
}

/// Run the Figure 1 sweep against an already-prepared dataset — the
/// evaluate phase of [`crate::engine::EvalEngine::run_fig1`].
///
/// Every sweep point derives its attack RNG from the master seed
/// alone, so the results are bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty or out-of-range
/// strength grid and propagates pipeline failures.
pub fn run_fig1_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    sweep: &Fig1Config,
    policy: &ExecPolicy,
) -> Result<Fig1Results, SimError> {
    validate_strengths(&sweep.strengths)?;
    let baseline = filter_train_eval(
        prepared.train(),
        &[],
        prepared.test(),
        FilterStrength::RemoveFraction(0.0),
        &config.scenario,
        config,
    )?;

    let rows = try_parallel_map(
        policy,
        &sweep.strengths,
        |_, &theta| -> Result<Fig1Row, SimError> {
            let mut rng = point_rng(config, theta);
            let placement = hugging_placement(prepared, theta, sweep.placement_slack);
            let attacked = run_cell(
                prepared,
                &config.scenario,
                placement,
                FilterStrength::RemoveFraction(theta),
                config,
                &mut rng,
            )?;
            let clean = filter_train_eval(
                prepared.train(),
                &[],
                prepared.test(),
                FilterStrength::RemoveFraction(theta),
                &config.scenario,
                config,
            )?;
            Ok(Fig1Row {
                removed_fraction: theta,
                accuracy_under_attack: attacked.accuracy,
                accuracy_clean: clean.accuracy,
                poison_recall: attacked.accounting.poison_recall(),
            })
        },
    )?;

    Ok(Fig1Results {
        rows,
        baseline_accuracy: baseline.accuracy,
        n_poison: prepared.n_poison,
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
            seed: 99,
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

    fn quick_sweep() -> Fig1Config {
        Fig1Config {
            strengths: vec![0.0, 0.05, 0.15, 0.30],
            placement_slack: 0.01,
        }
    }

    #[test]
    fn sweep_produces_one_row_per_strength() {
        let r = EvalEngine::new()
            .run_fig1(&quick_config(), &quick_sweep())
            .unwrap();
        assert_eq!(r.rows.len(), 4);
        assert!(r.baseline_accuracy > 0.75);
        assert!(r.n_poison > 0);
    }

    #[test]
    fn unfiltered_attack_is_worst_point() {
        let r = EvalEngine::new()
            .run_fig1(&quick_config(), &quick_sweep())
            .unwrap();
        let at_zero = &r.rows[0];
        // With no filter the full budget survives: accuracy under
        // attack must be clearly below the clean baseline.
        assert!(
            at_zero.accuracy_under_attack < r.baseline_accuracy - 0.02,
            "no-filter attack did nothing: {} vs baseline {}",
            at_zero.accuracy_under_attack,
            r.baseline_accuracy
        );
        // And some intermediate filter strength must do better than no
        // filter — the paper's core observation.
        let best = r.best_pure();
        assert!(best.removed_fraction > 0.0);
        assert!(best.accuracy_under_attack > at_zero.accuracy_under_attack);
    }

    #[test]
    fn clean_accuracy_degrades_with_filter_strength() {
        let r = EvalEngine::new()
            .run_fig1(&quick_config(), &quick_sweep())
            .unwrap();
        // "applying the filter reduces the accuracy of the ML model,
        // regardless of the presence of the attack" — allow small noise
        // but the strongest filter must cost accuracy vs no filter.
        let first = r.rows.first().unwrap().accuracy_clean;
        let last = r.rows.last().unwrap().accuracy_clean;
        assert!(last <= first + 0.01, "clean curve rose: {first} → {last}");
    }

    #[test]
    fn parameter_validation() {
        let engine = EvalEngine::new();
        for strengths in [vec![], vec![1.2], vec![0.1, f64::NAN]] {
            let bad = Fig1Config {
                strengths,
                placement_slack: 0.01,
            };
            assert!(matches!(
                engine.run_fig1(&quick_config(), &bad),
                Err(SimError::BadParameter { .. })
            ));
        }
        assert_eq!(
            engine.cache_stats().misses,
            0,
            "a bad grid must not prepare"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = EvalEngine::new()
            .run_fig1(&quick_config(), &quick_sweep())
            .unwrap();
        let b = EvalEngine::new()
            .run_fig1(&quick_config(), &quick_sweep())
            .unwrap();
        assert_eq!(a, b);
    }
}
