//! Linear classifiers, losses, metrics and validation utilities.
//!
//! The paper's victim model is a linear SVM trained with hinge loss for
//! 5000 epochs; [`svm::LinearSvm`] reproduces it. Logistic regression
//! and an averaged perceptron are included as ablation baselines, all
//! behind the common [`Classifier`] trait.
//!
//! # Example
//!
//! ```
//! use poisongame_data::synth::gaussian_blobs;
//! use poisongame_linalg::Xoshiro256StarStar;
//! use poisongame_ml::{metrics::accuracy, svm::LinearSvm, Classifier, TrainConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(5);
//! let data = gaussian_blobs(100, 2, 3.0, 0.5, &mut rng);
//! let mut model = LinearSvm::new(TrainConfig { epochs: 50, ..TrainConfig::default() });
//! model.fit(&data).unwrap();
//! let preds = model.predict_batch(&data);
//! assert!(poisongame_ml::metrics::accuracy(data.labels(), &preds) > 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod error;
pub mod logreg;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod perceptron;
pub mod schedule;
mod sgd;
pub mod svm;
pub mod validate;

pub use error::MlError;
pub use model::{Classifier, LinearState, TrainConfig};
