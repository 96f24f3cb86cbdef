//! The §5 scaling claims: accuracy plateaus for `n ≥ 3` while the
//! computation cost of Algorithm 1 grows with `n`.

use crate::error::SimError;
use crate::estimate::CurveEstimate;
use crate::exec::{try_parallel_map, ExecPolicy};
use poisongame_core::{Algorithm1, Algorithm1Config};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One scaling measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Support size.
    pub n_radii: usize,
    /// Defender loss at the solved strategy.
    pub defender_loss: f64,
    /// Model-predicted accuracy (`baseline − loss`).
    pub predicted_accuracy: f64,
    /// Gradient iterations used.
    pub iterations: usize,
    /// Wall-clock solve time in microseconds.
    pub solve_micros: u128,
}

/// The full scaling experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingResults {
    /// One row per support size, ascending.
    pub rows: Vec<ScalingRow>,
}

impl ScalingResults {
    /// Accuracy gain from the largest support vs `n = plateau_n`
    /// (the paper: "roughly the same after n = 3").
    pub fn plateau_gain(&self, plateau_n: usize) -> Option<f64> {
        let at = self
            .rows
            .iter()
            .find(|r| r.n_radii == plateau_n)?
            .predicted_accuracy;
        let best = self
            .rows
            .iter()
            .map(|r| r.predicted_accuracy)
            .fold(f64::NEG_INFINITY, f64::max);
        Some(best - at)
    }
}

/// Solve Algorithm 1 for each support size and record quality + cost.
///
/// `base` is the Algorithm 1 template (its `n_radii` is overridden per
/// cell — pass `ExperimentConfig::algorithm1_config(0)` to inherit an
/// experiment's solver / warm-start knobs). Support sizes fan out
/// across `policy`'s worker pool; all fields except the wall-clock
/// `solve_micros` are bit-identical at any thread count. This
/// experiment's point is the per-cell timing, and concurrent cells
/// contend for cores and distort it, so pass
/// [`ExecPolicy::sequential`] when the timings are the measurement.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty size list and
/// propagates solver failures.
pub fn run_scaling(
    curves: &CurveEstimate,
    support_sizes: &[usize],
    base: &Algorithm1Config,
    policy: &ExecPolicy,
) -> Result<ScalingResults, SimError> {
    if support_sizes.is_empty() {
        return Err(SimError::BadParameter {
            what: "support_sizes",
            value: 0.0,
        });
    }
    let game = curves.game()?;
    let rows = try_parallel_map(
        policy,
        support_sizes,
        |_, &n| -> Result<ScalingRow, SimError> {
            let solver = Algorithm1::new(Algorithm1Config {
                n_radii: n,
                ..base.clone()
            });
            let start = Instant::now();
            let result = solver.solve(&game)?;
            let elapsed = start.elapsed().as_micros();
            Ok(ScalingRow {
                n_radii: n,
                defender_loss: result.defender_loss,
                predicted_accuracy: (curves.baseline_accuracy - result.defender_loss)
                    .clamp(0.0, 1.0),
                iterations: result.iterations,
                solve_micros: elapsed,
            })
        },
    )?;
    Ok(ScalingResults { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_core::{CostCurve, EffectCurve};

    fn synthetic_estimate() -> CurveEstimate {
        let effect = EffectCurve::from_samples(&[
            (0.0, 2.0e-4),
            (0.05, 1.4e-4),
            (0.10, 9.0e-5),
            (0.20, 4.0e-5),
            (0.30, 1.5e-5),
            (0.40, 2.0e-6),
            (0.45, -1.0e-6),
        ])
        .unwrap();
        let cost = CostCurve::from_samples(&[
            (0.0, 0.0),
            (0.05, 0.004),
            (0.10, 0.009),
            (0.20, 0.022),
            (0.30, 0.040),
            (0.40, 0.065),
        ])
        .unwrap();
        CurveEstimate {
            effect_samples: vec![],
            cost_samples: vec![],
            effect,
            cost,
            baseline_accuracy: 0.92,
            n_poison: 644,
        }
    }

    /// The paper's scaling run: default Algorithm 1, one cell at a
    /// time so the timings are undisturbed.
    fn sequential(sizes: &[usize]) -> Result<ScalingResults, SimError> {
        run_scaling(
            &synthetic_estimate(),
            sizes,
            &Algorithm1Config::default(),
            &ExecPolicy::sequential(),
        )
    }

    #[test]
    fn losses_weakly_improve_with_support_size() {
        let r = sequential(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(r.rows.len(), 5);
        for w in r.rows.windows(2) {
            assert!(
                w[1].defender_loss <= w[0].defender_loss + 1e-4,
                "loss rose from n={} to n={}",
                w[0].n_radii,
                w[1].n_radii
            );
        }
    }

    #[test]
    fn accuracy_plateaus_after_three() {
        let r = sequential(&[1, 2, 3, 4, 5]).unwrap();
        let gain = r.plateau_gain(3).unwrap();
        assert!(gain < 0.01, "accuracy still improving after n=3 by {gain}");
        assert!(r.plateau_gain(99).is_none());
    }

    #[test]
    fn empty_sizes_rejected() {
        assert!(sequential(&[]).is_err());
    }

    #[test]
    fn parallel_policy_changes_only_the_timings() {
        let reference = sequential(&[1, 2, 3, 4]).unwrap();
        let parallel = run_scaling(
            &synthetic_estimate(),
            &[1, 2, 3, 4],
            &Algorithm1Config::default(),
            &ExecPolicy::with_threads(4),
        )
        .unwrap();
        let untimed = |r: &ScalingResults| -> Vec<(usize, u64, u64, usize)> {
            r.rows
                .iter()
                .map(|row| {
                    (
                        row.n_radii,
                        row.defender_loss.to_bits(),
                        row.predicted_accuracy.to_bits(),
                        row.iterations,
                    )
                })
                .collect()
        };
        assert_eq!(untimed(&reference), untimed(&parallel));
    }

    #[test]
    fn rows_record_time_and_iterations() {
        let r = sequential(&[2]).unwrap();
        assert!(r.rows[0].iterations > 0);
        // Wall-clock is platform-dependent; just require it recorded.
        assert!(r.rows[0].solve_micros > 0);
    }
}
