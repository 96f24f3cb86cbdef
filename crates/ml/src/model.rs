//! The [`Classifier`] trait and shared training configuration.

use crate::error::MlError;
use crate::schedule::Schedule;
use poisongame_data::{DataView, Label};
use serde::{Deserialize, Serialize};

/// Shared configuration for the SGD-trained linear models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training data. The paper trains for
    /// 5000 epochs; experiments expose this knob so tests can run fast.
    pub epochs: usize,
    /// L2 regularization strength.
    pub lambda: f64,
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// Seed for the per-epoch shuffling (training is deterministic
    /// given this seed).
    pub seed: u64,
    /// Whether to fit an intercept term.
    pub fit_bias: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            lambda: 1e-4,
            schedule: Schedule::default(),
            seed: 0x5eed,
            fit_bias: true,
        }
    }
}

impl TrainConfig {
    /// The paper's configuration: 5000 epochs of hinge-loss SGD.
    pub fn paper() -> Self {
        Self {
            epochs: 5000,
            ..Self::default()
        }
    }

    /// Validate hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::BadHyperparameter`] on any invalid field.
    pub fn validate(&self) -> Result<(), MlError> {
        if self.epochs == 0 {
            return Err(MlError::BadHyperparameter {
                what: "epochs",
                value: 0.0,
            });
        }
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(MlError::BadHyperparameter {
                what: "lambda",
                value: self.lambda,
            });
        }
        if !self.schedule.is_valid() {
            return Err(MlError::BadHyperparameter {
                what: "schedule",
                value: f64::NAN,
            });
        }
        Ok(())
    }
}

/// The linear state `(w, b)` of a fitted linear model: what
/// [`crate::batch::batched_accuracy`] scores on held-out data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearState {
    /// Weight vector.
    pub weights: Vec<f64>,
    /// Intercept.
    pub bias: f64,
}

/// A binary classifier over dense feature vectors.
///
/// Training reads its data through [`DataView`], so an owned
/// [`poisongame_data::Dataset`] and a copy-on-write
/// [`poisongame_data::PoisonedView`] are interchangeable inputs.
///
/// Implementations must be deterministic given their configuration
/// (including the training seed).
pub trait Classifier {
    /// Fit on labelled data, replacing any previous fit.
    ///
    /// # Errors
    ///
    /// Implementations return [`MlError::EmptyTrainingSet`],
    /// [`MlError::SingleClass`], [`MlError::BadHyperparameter`] or
    /// [`MlError::Diverged`] as applicable.
    fn fit(&mut self, data: &dyn DataView) -> Result<(), MlError>;

    /// The fitted linear state, if this model exposes one (`None` for
    /// unfitted or non-linear models).
    fn linear_state(&self) -> Option<LinearState> {
        None
    }

    /// Signed decision value for one point (positive ⇒ positive class).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before [`Classifier::fit`] and
    /// [`MlError::DimensionMismatch`] on width mismatch.
    fn decision_function(&self, x: &[f64]) -> Result<f64, MlError>;

    /// Predicted label for one point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::decision_function`].
    fn predict(&self, x: &[f64]) -> Result<Label, MlError> {
        Ok(Label::from_signed(self.decision_function(x)?))
    }

    /// Predicted labels for every point in a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the model is unfitted or widths mismatch (callers
    /// evaluating a fitted model on the split it came from cannot hit
    /// either condition).
    fn predict_batch(&self, data: &dyn DataView) -> Vec<Label> {
        (0..data.len())
            .map(|i| {
                self.predict(data.point(i))
                    .expect("model fitted and widths match")
            })
            .collect()
    }

    /// Fraction of `data` classified correctly.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Classifier::predict_batch`].
    fn accuracy_on(&self, data: &dyn DataView) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = (0..data.len())
            .filter(|&i| self.predict(data.point(i)).expect("model fitted") == data.label(i))
            .count();
        correct as f64 / data.len() as f64
    }
}

/// Validate a dataset before fitting a discriminative model.
///
/// # Errors
///
/// Returns [`MlError::EmptyTrainingSet`] or [`MlError::SingleClass`].
pub fn check_trainable(data: &dyn DataView) -> Result<(), MlError> {
    if data.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    if data.class_count(Label::Positive) == 0 || data.class_count(Label::Negative) == 0 {
        return Err(MlError::SingleClass);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_data::Dataset;

    #[test]
    fn default_config_is_valid() {
        TrainConfig::default().validate().unwrap();
        TrainConfig::paper().validate().unwrap();
        assert_eq!(TrainConfig::paper().epochs, 5000);
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        let c = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TrainConfig {
            lambda: -1.0,
            ..TrainConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TrainConfig {
            schedule: Schedule::Constant { eta0: -0.5 },
            ..TrainConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_validation_names_the_bad_field() {
        let what = |c: TrainConfig| match c.validate() {
            Err(MlError::BadHyperparameter { what, .. }) => what,
            other => panic!("expected BadHyperparameter, got {other:?}"),
        };
        let base = TrainConfig::default;
        assert_eq!(
            what(TrainConfig {
                epochs: 0,
                ..base()
            }),
            "epochs"
        );
        for lambda in [-1e-9, f64::NAN, f64::INFINITY] {
            assert_eq!(what(TrainConfig { lambda, ..base() }), "lambda");
        }
        let schedule = Schedule::Constant { eta0: 0.0 };
        assert_eq!(what(TrainConfig { schedule, ..base() }), "schedule");
        // λ = 0 (no regularization) is allowed.
        TrainConfig {
            lambda: 0.0,
            ..base()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn check_trainable_conditions() {
        let empty = Dataset::empty(2);
        assert!(matches!(
            check_trainable(&empty).unwrap_err(),
            MlError::EmptyTrainingSet
        ));
        let single = Dataset::from_rows(vec![vec![1.0]], vec![Label::Positive]).unwrap();
        assert!(matches!(
            check_trainable(&single).unwrap_err(),
            MlError::SingleClass
        ));
        let both = Dataset::from_rows(
            vec![vec![1.0], vec![2.0]],
            vec![Label::Positive, Label::Negative],
        )
        .unwrap();
        assert!(check_trainable(&both).is_ok());
    }
}
