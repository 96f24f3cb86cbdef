//! Estimate the game curves `E(p)` and `Γ(p)` from experiments.
//!
//! The paper: "The input of the algorithm, `E(p)` and `Γ(p)`, are
//! approximated using the results in Fig. 1." Concretely:
//!
//! * `Γ(p)` — the clean-data series of Figure 1 gives the accuracy
//!   cost of filtering at strength `p`.
//! * `E(p)` — an unfiltered placement sweep: inject the budget at
//!   position `p` with no filter and divide the accuracy drop by the
//!   budget to get per-point damage.

use crate::error::SimError;
use crate::fig1::Fig1Results;
use crate::jsonio::{self, Json};
use crate::pipeline::{filter_train_eval, prepare, run_cell, ExperimentConfig, Prepared};
use poisongame_core::{CostCurve, EffectCurve, PoisonGame};
use poisongame_defense::FilterStrength;
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Curves estimated from experiments, plus the raw samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveEstimate {
    /// Fitted per-point damage curve.
    pub effect: EffectCurve,
    /// Fitted genuine-removal cost curve.
    pub cost: CostCurve,
    /// Raw `(placement, per-point damage)` samples.
    pub effect_samples: Vec<(f64, f64)>,
    /// Raw `(strength, accuracy loss)` samples.
    pub cost_samples: Vec<(f64, f64)>,
    /// Clean, unfiltered baseline accuracy.
    pub baseline_accuracy: f64,
    /// Poison budget the effect sweep used.
    pub n_poison: usize,
}

impl CurveEstimate {
    /// Assemble the poisoning game from the estimated curves.
    ///
    /// # Errors
    ///
    /// Propagates game-construction failures (zero budget).
    pub fn game(&self) -> Result<PoisonGame, SimError> {
        Ok(PoisonGame::new(
            self.effect.clone(),
            self.cost.clone(),
            self.n_poison,
        )?)
    }

    /// JSON form: the raw samples plus the shared context. The fitted
    /// curves are *not* shipped — fitting is a deterministic function
    /// of the samples, so [`CurveEstimate::from_json`] refits them and
    /// the round trip is exact.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "effect_samples",
                jsonio::num_pairs_to_json(&self.effect_samples),
            ),
            (
                "cost_samples",
                jsonio::num_pairs_to_json(&self.cost_samples),
            ),
            ("baseline_accuracy", Json::Num(self.baseline_accuracy)),
            ("n_poison", Json::Num(self.n_poison as f64)),
        ])
    }

    /// Render as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse the JSON form produced by [`CurveEstimate::to_json`],
    /// refitting both curves from the shipped samples.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on missing or wrongly-typed fields
    /// and propagates curve-fitting failures.
    pub fn from_json(value: &Json) -> Result<Self, SimError> {
        jsonio::check_keys(
            value,
            "curve estimate",
            &[
                "effect_samples",
                "cost_samples",
                "baseline_accuracy",
                "n_poison",
            ],
        )?;
        let field = |key: &str| -> Result<&Json, SimError> {
            value
                .get(key)
                .ok_or_else(|| SimError::Spec(format!("curve estimate needs `{key}`")))
        };
        let pairs = |key: &str| jsonio::num_pairs(field(key)?, key);
        let effect_samples = pairs("effect_samples")?;
        let cost_samples = pairs("cost_samples")?;
        Ok(Self {
            effect: EffectCurve::from_samples(&effect_samples)?,
            cost: CostCurve::from_samples(&cost_samples)?,
            effect_samples,
            cost_samples,
            baseline_accuracy: jsonio::require_num(
                field("baseline_accuracy")?,
                "baseline_accuracy",
            )?,
            n_poison: jsonio::require_u64(field("n_poison")?, "n_poison")? as usize,
        })
    }
}

/// Fit `Γ(p)` from an existing Figure 1 sweep (its clean series).
///
/// # Errors
///
/// Propagates curve-fitting failures.
pub fn cost_curve_from_fig1(fig1: &Fig1Results) -> Result<CostCurve, SimError> {
    let base = fig1
        .rows
        .iter()
        .find(|r| r.removed_fraction == 0.0)
        .map(|r| r.accuracy_clean)
        .unwrap_or(fig1.baseline_accuracy);
    let samples: Vec<(f64, f64)> = fig1
        .rows
        .iter()
        .map(|r| (r.removed_fraction, (base - r.accuracy_clean).max(0.0)))
        .collect();
    Ok(CostCurve::from_samples(&samples)?)
}

/// Run the placement sweep and fit both curves on a fresh preparation.
///
/// `placements` are attack positions for the `E(p)` sweep;
/// `strengths` are filter strengths for the `Γ(p)` sweep. This is the
/// cold form of [`crate::engine::EvalEngine::estimate_curves`], kept
/// as the in-process reference the benchmark compares served
/// estimates against.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty or out-of-range
/// grid and propagates pipeline failures.
pub fn estimate_curves(
    config: &ExperimentConfig,
    placements: &[f64],
    strengths: &[f64],
) -> Result<CurveEstimate, SimError> {
    // Reject a bad grid before paying for dataset preparation.
    validate_grids(placements, strengths)?;
    let prepared = prepare(config)?;
    estimate_curves_prepared(&prepared, config, placements, strengths)
}

/// Reject an empty grid, then an out-of-range placement, then an
/// out-of-range strength — all before any preparation or fit.
pub(crate) fn validate_grids(placements: &[f64], strengths: &[f64]) -> Result<(), SimError> {
    if placements.is_empty() || strengths.is_empty() {
        return Err(SimError::BadParameter {
            what: "grids",
            value: 0.0,
        });
    }
    let axes = [("placement", placements), ("strength", strengths)];
    for (what, grid) in axes {
        if let Some(&value) = grid.iter().find(|v| !(0.0..1.0).contains(*v)) {
            return Err(SimError::BadParameter { what, value });
        }
    }
    Ok(())
}

/// [`estimate_curves`] against an already-prepared dataset — the
/// evaluate phase of [`crate::engine::EvalEngine::estimate_curves`]
/// and of the served `estimate` request.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty or out-of-range
/// grid and propagates pipeline failures.
pub fn estimate_curves_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    placements: &[f64],
    strengths: &[f64],
) -> Result<CurveEstimate, SimError> {
    validate_grids(placements, strengths)?;
    let baseline = filter_train_eval(
        prepared.train(),
        &[],
        prepared.test(),
        FilterStrength::RemoveFraction(0.0),
        &config.scenario,
        config,
    )?;

    // E(p): unfiltered damage per poison point at each placement.
    let mut effect_samples = Vec::with_capacity(placements.len());
    for &p in placements {
        let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed ^ p.to_bits().rotate_left(29));
        let attacked = run_cell(
            prepared,
            &config.scenario,
            p,
            FilterStrength::RemoveFraction(0.0),
            config,
            &mut rng,
        )?;
        let damage = (baseline.accuracy - attacked.accuracy) / prepared.n_poison as f64;
        effect_samples.push((p, damage));
    }

    // Γ(p): clean accuracy loss at each strength.
    let mut cost_samples = Vec::with_capacity(strengths.len());
    for &s in strengths {
        let clean = filter_train_eval(
            prepared.train(),
            &[],
            prepared.test(),
            FilterStrength::RemoveFraction(s),
            &config.scenario,
            config,
        )?;
        cost_samples.push((s, (baseline.accuracy - clean.accuracy).max(0.0)));
    }

    let effect = EffectCurve::from_samples(&effect_samples)?;
    let cost = CostCurve::from_samples(&cost_samples)?;
    Ok(CurveEstimate {
        effect,
        cost,
        effect_samples,
        cost_samples,
        baseline_accuracy: baseline.accuracy,
        n_poison: prepared.n_poison,
    })
}

/// Default placement grid for the effect sweep.
pub fn default_placements() -> Vec<f64> {
    vec![0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40]
}

/// Default strength grid for the cost sweep (matches Figure 1).
pub fn default_strengths() -> Vec<f64> {
    vec![0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DataSource;
    use crate::scenario::Scenario;
    use poisongame_core::SolverKind;
    use poisongame_defense::CentroidEstimator;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 42,
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
    fn curves_have_expected_shape() {
        let est = estimate_curves(&quick_config(), &[0.02, 0.15, 0.35], &[0.0, 0.1, 0.3]).unwrap();
        // Effect: boundary placement damages at least as much as deep.
        assert!(est.effect.eval(0.02) >= est.effect.eval(0.35));
        // Boundary placement on separable blobs must do real damage.
        assert!(
            est.effect.eval(0.02) > 0.0,
            "no measurable damage: {:?}",
            est.effect_samples
        );
        // Cost: anchored at zero, non-decreasing.
        assert_eq!(est.cost.eval(0.0), 0.0);
        assert!(est.cost.eval(0.3) >= est.cost.eval(0.1) - 1e-12);
        assert!(est.baseline_accuracy > 0.75);
    }

    #[test]
    fn game_assembles() {
        let est = estimate_curves(&quick_config(), &[0.05, 0.2], &[0.0, 0.2]).unwrap();
        let game = est.game().unwrap();
        assert_eq!(game.n_points(), est.n_poison);
    }

    #[test]
    fn estimate_json_round_trips_exactly() {
        let est = estimate_curves(&quick_config(), &[0.05, 0.2], &[0.0, 0.2]).unwrap();
        let wire = est.to_json_string();
        let back = CurveEstimate::from_json(&Json::parse(&wire).unwrap()).unwrap();
        // Refitting from the shipped samples reproduces the curves
        // exactly (fitting is deterministic), so equality is full.
        assert_eq!(back, est);
        assert_eq!(
            back.effect.eval(0.1).to_bits(),
            est.effect.eval(0.1).to_bits()
        );
        assert!(CurveEstimate::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(CurveEstimate::from_json(
            &Json::parse(r#"{"effect_samples":[[0,1,2]],"cost_samples":[],"baseline_accuracy":1,"n_poison":1}"#)
                .unwrap()
        )
        .is_err());
    }

    #[test]
    fn empty_grids_rejected() {
        assert!(estimate_curves(&quick_config(), &[], &[0.1]).is_err());
        assert!(estimate_curves(&quick_config(), &[0.1], &[]).is_err());
        assert!(estimate_curves(&quick_config(), &[1.5], &[0.1]).is_err());
    }

    /// Range checks run before any cell: a strength out of range is
    /// reported even when the scenario's attack would fail first in
    /// the placement sweep, and no preparation is paid for.
    #[test]
    fn out_of_range_grid_is_rejected_before_any_cell() {
        use crate::engine::EvalEngine;
        use crate::scenario::AttackSpec;
        let config = ExperimentConfig {
            scenario: Scenario {
                attack: AttackSpec::MixedRadius {
                    offsets: vec![0.0, 0.1],
                    weights: vec![1.0],
                },
                ..Scenario::default()
            },
            ..quick_config()
        };
        let expect_strength = |result: Result<CurveEstimate, SimError>| match result {
            Err(SimError::BadParameter { what, value }) => {
                assert_eq!((what, value), ("strength", 1.5));
            }
            other => panic!("expected the strength range error, got {other:?}"),
        };
        let engine = EvalEngine::new();
        expect_strength(engine.estimate_curves(&config, &[0.05, 0.2], &[0.0, 1.5]));
        assert_eq!(
            engine.cache_stats().misses,
            0,
            "a bad grid must not prepare"
        );
        let prepared = prepare(&config).unwrap();
        expect_strength(estimate_curves_prepared(
            &prepared,
            &config,
            &[0.05, 0.2],
            &[0.0, 1.5],
        ));
        // Placements are checked before strengths.
        assert!(matches!(
            estimate_curves(&config, &[f64::NAN], &[1.5]),
            Err(SimError::BadParameter {
                what: "placement",
                ..
            })
        ));
    }

    #[test]
    fn cost_curve_from_fig1_uses_clean_series() {
        use crate::fig1::{Fig1Results, Fig1Row};
        let fig1 = Fig1Results {
            rows: vec![
                Fig1Row {
                    removed_fraction: 0.0,
                    accuracy_under_attack: 0.80,
                    accuracy_clean: 0.92,
                    poison_recall: 0.0,
                },
                Fig1Row {
                    removed_fraction: 0.2,
                    accuracy_under_attack: 0.85,
                    accuracy_clean: 0.89,
                    poison_recall: 1.0,
                },
            ],
            baseline_accuracy: 0.92,
            n_poison: 100,
        };
        let cost = cost_curve_from_fig1(&fig1).unwrap();
        assert_eq!(cost.eval(0.0), 0.0);
        assert!((cost.eval(0.2) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn default_grids_are_valid() {
        assert!(!default_placements().is_empty());
        assert!(!default_strengths().is_empty());
        assert!(default_strengths().contains(&0.0));
    }
}
