//! L2-regularized logistic regression trained by SGD.
//!
//! Used as an ablation baseline for the victim model: the game-theoretic
//! defense does not depend on the SVM specifically, only on the induced
//! accuracy curves.

use crate::error::MlError;
use crate::loss;
use crate::model::{Classifier, LinearState, TrainConfig};
use crate::sgd;
use poisongame_data::DataView;
use poisongame_linalg::vector;
use serde::{Deserialize, Serialize};

/// Binary logistic regression with L2 regularization.
///
/// # Example
///
/// ```
/// use poisongame_data::synth::gaussian_blobs;
/// use poisongame_linalg::Xoshiro256StarStar;
/// use poisongame_ml::{logreg::LogisticRegression, Classifier, TrainConfig};
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(3);
/// let data = gaussian_blobs(80, 2, 3.0, 0.5, &mut rng);
/// let mut model = LogisticRegression::new(TrainConfig { epochs: 60, ..TrainConfig::default() });
/// model.fit(&data).unwrap();
/// assert!(model.accuracy_on(&data) > 0.95);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    config: TrainConfig,
    weights: Option<Vec<f64>>,
    bias: f64,
}

impl LogisticRegression {
    /// Unfitted model with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            weights: None,
            bias: 0.0,
        }
    }

    /// Unfitted model with defaults.
    pub fn with_defaults() -> Self {
        Self::new(TrainConfig::default())
    }

    /// Fitted weights, if trained.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Fitted intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Predicted probability of the positive class.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::decision_function`].
    pub fn predict_proba(&self, x: &[f64]) -> Result<f64, MlError> {
        Ok(loss::sigmoid(self.decision_function(x)?))
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &dyn DataView) -> Result<(), MlError> {
        // dL/dw = logistic_grad(margin) * y * x + lambda * w; every row
        // steps.
        let (w, b) = sgd::fit(&self.config, data, |margin, y, eta| {
            let g = loss::logistic_grad(margin) * y;
            Some(-eta * g)
        })?;
        self.weights = Some(w);
        self.bias = b;
        Ok(())
    }

    fn linear_state(&self) -> Option<LinearState> {
        self.weights.as_ref().map(|w| LinearState {
            weights: w.clone(),
            bias: self.bias,
        })
    }

    fn decision_function(&self, x: &[f64]) -> Result<f64, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() != w.len() {
            return Err(MlError::DimensionMismatch {
                expected: w.len(),
                found: x.len(),
            });
        }
        Ok(vector::dot(w, x) + self.bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_data::synth::gaussian_blobs;
    use poisongame_data::Dataset;
    use poisongame_linalg::Xoshiro256StarStar;
    use rand::SeedableRng;

    fn blobs(seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        gaussian_blobs(100, 3, 3.0, 0.6, &mut rng)
    }

    #[test]
    fn learns_separable_data() {
        let data = blobs(21);
        let mut m = LogisticRegression::new(TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        });
        m.fit(&data).unwrap();
        assert!(m.accuracy_on(&data) > 0.97);
    }

    #[test]
    fn probabilities_are_calibrated_to_side() {
        let data = blobs(22);
        let mut m = LogisticRegression::new(TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        });
        m.fit(&data).unwrap();
        for (x, y) in data.iter().take(30) {
            let p = m.predict_proba(x).unwrap();
            assert!((0.0..=1.0).contains(&p));
            if y == poisongame_data::Label::Positive && m.predict(x).unwrap() == y {
                assert!(p > 0.5);
            }
        }
    }

    #[test]
    fn unfitted_errors() {
        let m = LogisticRegression::with_defaults();
        assert!(matches!(
            m.predict_proba(&[1.0]).unwrap_err(),
            MlError::NotFitted
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let data = blobs(23);
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };
        let mut a = LogisticRegression::new(cfg.clone());
        let mut b = LogisticRegression::new(cfg);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn rejects_untrainable_sets() {
        let mut m = LogisticRegression::with_defaults();
        assert!(m.fit(&Dataset::empty(2)).is_err());
    }

    #[test]
    fn rejects_bad_hyperparameters() {
        let data = blobs(24);
        let mut m = LogisticRegression::new(TrainConfig {
            lambda: f64::NAN,
            ..TrainConfig::default()
        });
        assert!(matches!(
            m.fit(&data).unwrap_err(),
            MlError::BadHyperparameter { what: "lambda", .. }
        ));
        assert!(m.weights().is_none(), "a rejected fit leaves no model");
    }

    #[test]
    fn dimension_mismatch_detected() {
        let data = blobs(25);
        let mut m = LogisticRegression::new(TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        });
        m.fit(&data).unwrap();
        assert!(matches!(
            m.predict_proba(&[1.0]).unwrap_err(),
            MlError::DimensionMismatch {
                expected: 3,
                found: 1
            }
        ));
    }

    #[test]
    fn no_bias_stays_zero() {
        let data = blobs(26);
        let mut m = LogisticRegression::new(TrainConfig {
            epochs: 10,
            fit_bias: false,
            ..TrainConfig::default()
        });
        m.fit(&data).unwrap();
        assert_eq!(m.bias(), 0.0);
        assert!(m.accuracy_on(&data) > 0.9);
    }
}
