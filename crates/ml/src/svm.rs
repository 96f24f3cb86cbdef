//! Linear support vector machine trained by hinge-loss SGD.
//!
//! This is the victim model of the paper's experiments ("We used
//! Support Vector Machine (SVM) with hinge loss as our ML model and
//! trained it for 5000 epoch"). The optimizer is plain stochastic
//! subgradient descent on
//! `λ/2·‖w‖² + (1/n)·Σ max(0, 1 − y(w·x+b))`
//! with a configurable learning-rate schedule (inverse scaling
//! `0.5 / t^0.6` by default, see [`crate::schedule::Schedule`]) and
//! deterministic per-epoch shuffling.

use crate::error::MlError;
use crate::loss;
use crate::model::{Classifier, LinearState, TrainConfig};
use crate::sgd;
use poisongame_data::{DataView, Dataset};
use poisongame_linalg::vector;
use serde::{Deserialize, Serialize};

/// Linear SVM with hinge loss and L2 regularization.
///
/// # Example
///
/// ```
/// use poisongame_data::synth::gaussian_blobs;
/// use poisongame_linalg::Xoshiro256StarStar;
/// use poisongame_ml::{svm::LinearSvm, Classifier, TrainConfig};
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(2);
/// let data = gaussian_blobs(80, 3, 3.0, 0.6, &mut rng);
/// let mut svm = LinearSvm::new(TrainConfig { epochs: 60, ..TrainConfig::default() });
/// svm.fit(&data).unwrap();
/// assert!(svm.accuracy_on(&data) > 0.95);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    config: TrainConfig,
    weights: Option<Vec<f64>>,
    bias: f64,
}

impl LinearSvm {
    /// Unfitted SVM with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            weights: None,
            bias: 0.0,
        }
    }

    /// Unfitted SVM with [`TrainConfig::default`].
    pub fn with_defaults() -> Self {
        Self::new(TrainConfig::default())
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Fitted weight vector, if trained.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Fitted intercept (0.0 before fitting or with `fit_bias = false`).
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Mean hinge objective (regularizer + loss) on a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before fitting and
    /// [`MlError::DimensionMismatch`] when the dataset's width differs
    /// from the fitted weights'.
    pub fn objective(&self, data: &Dataset) -> Result<f64, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        if data.dim() != w.len() {
            return Err(MlError::DimensionMismatch {
                expected: w.len(),
                found: data.dim(),
            });
        }
        let margins = data
            .iter()
            .map(|(x, y)| y.to_signed() * (vector::dot(w, x) + self.bias));
        let loss = loss::mean_loss(margins, loss::hinge);
        let reg = 0.5 * self.config.lambda * vector::dot(w, w);
        Ok(reg + loss)
    }
}

impl Default for LinearSvm {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, data: &dyn DataView) -> Result<(), MlError> {
        // The hinge subgradient only acts inside the margin.
        let (w, b) = sgd::fit(&self.config, data, |margin, y, eta| {
            (margin < 1.0).then_some(eta * y)
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
    use crate::schedule::Schedule;
    use poisongame_data::synth::gaussian_blobs;
    use poisongame_data::Label;
    use poisongame_linalg::Xoshiro256StarStar;
    use rand::SeedableRng;

    fn blobs(seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        gaussian_blobs(100, 4, 3.0, 0.6, &mut rng)
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn separable_data_is_learned() {
        let data = blobs(1);
        let mut svm = LinearSvm::new(quick_config());
        svm.fit(&data).unwrap();
        assert!(
            svm.accuracy_on(&data) > 0.97,
            "accuracy {}",
            svm.accuracy_on(&data)
        );
    }

    #[test]
    fn unfitted_model_errors() {
        let svm = LinearSvm::with_defaults();
        assert!(matches!(
            svm.decision_function(&[1.0]).unwrap_err(),
            MlError::NotFitted
        ));
        assert!(matches!(
            svm.predict(&[1.0]).unwrap_err(),
            MlError::NotFitted
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let data = blobs(2);
        let mut svm = LinearSvm::new(quick_config());
        svm.fit(&data).unwrap();
        assert!(matches!(
            svm.decision_function(&[1.0]).unwrap_err(),
            MlError::DimensionMismatch {
                expected: 4,
                found: 1
            }
        ));
    }

    #[test]
    fn training_is_deterministic() {
        let data = blobs(3);
        let mut a = LinearSvm::new(quick_config());
        let mut b = LinearSvm::new(quick_config());
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    fn different_seed_different_path_same_quality() {
        let data = blobs(4);
        let mut a = LinearSvm::new(quick_config());
        let mut b = LinearSvm::new(TrainConfig {
            seed: 999,
            ..quick_config()
        });
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert!(a.accuracy_on(&data) > 0.95);
        assert!(b.accuracy_on(&data) > 0.95);
    }

    #[test]
    fn rejects_empty_and_single_class() {
        let mut svm = LinearSvm::new(quick_config());
        assert!(matches!(
            svm.fit(&Dataset::empty(2)).unwrap_err(),
            MlError::EmptyTrainingSet
        ));
        let single = Dataset::from_rows(
            vec![vec![1.0, 2.0], vec![2.0, 3.0]],
            vec![Label::Positive, Label::Positive],
        )
        .unwrap();
        assert!(matches!(
            svm.fit(&single).unwrap_err(),
            MlError::SingleClass
        ));
    }

    #[test]
    fn objective_decreases_with_more_epochs() {
        let data = blobs(5);
        let mut short = LinearSvm::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        });
        let mut long = LinearSvm::new(TrainConfig {
            epochs: 80,
            ..TrainConfig::default()
        });
        short.fit(&data).unwrap();
        long.fit(&data).unwrap();
        assert!(long.objective(&data).unwrap() <= short.objective(&data).unwrap() + 1e-6);
    }

    #[test]
    fn objective_rejects_width_mismatch() {
        let data = blobs(14);
        let mut svm = LinearSvm::new(quick_config());
        svm.fit(&data).unwrap();
        let narrow = Dataset::from_rows(vec![vec![1.0, 2.0]], vec![Label::Positive]).unwrap();
        assert!(matches!(
            svm.objective(&narrow).unwrap_err(),
            MlError::DimensionMismatch {
                expected: 4,
                found: 2
            }
        ));
    }

    #[test]
    fn decision_sign_matches_prediction() {
        let data = blobs(6);
        let mut svm = LinearSvm::new(quick_config());
        svm.fit(&data).unwrap();
        for (x, _) in data.iter().take(20) {
            let d = svm.decision_function(x).unwrap();
            let p = svm.predict(x).unwrap();
            assert_eq!(p, Label::from_signed(d));
        }
    }

    #[test]
    fn constant_schedule_also_learns() {
        let data = blobs(7);
        let mut svm = LinearSvm::new(TrainConfig {
            schedule: Schedule::Constant { eta0: 0.01 },
            epochs: 60,
            ..TrainConfig::default()
        });
        svm.fit(&data).unwrap();
        assert!(svm.accuracy_on(&data) > 0.95);
    }

    #[test]
    fn no_bias_stays_zero() {
        let data = blobs(8);
        let mut svm = LinearSvm::new(TrainConfig {
            fit_bias: false,
            ..quick_config()
        });
        svm.fit(&data).unwrap();
        assert_eq!(svm.bias(), 0.0);
    }

    #[test]
    fn refit_replaces_previous_model() {
        let d1 = blobs(9);
        let d2 = blobs(10);
        let mut svm = LinearSvm::new(quick_config());
        svm.fit(&d1).unwrap();
        let w1 = svm.weights().unwrap().to_vec();
        svm.fit(&d2).unwrap();
        assert_ne!(svm.weights().unwrap(), w1.as_slice());
    }
}
