//! Held-out evaluation of fitted linear states through one blocked
//! product.
//!
//! Every experiment cell scores its fitted `(w, b)` here. The weight
//! vectors are stacked into one right-hand-side panel and every
//! state's decision values come from one [`gemm::gemm_nt`] call, which
//! streams the test matrix once however many states are passed. The
//! kernel accumulates in [`poisongame_linalg::vector::dot`] order, so
//! each returned accuracy is bit-identical to
//! [`Classifier::accuracy_on`](crate::Classifier::accuracy_on) on the
//! same state.

use crate::error::MlError;
use crate::model::LinearState;
use poisongame_data::Label;
use poisongame_linalg::gemm::{self, RowSource};
use poisongame_linalg::Matrix;

/// Accuracy of each linear state on `(features, labels)`, all computed
/// through one blocked multi-RHS product. Returns one accuracy per
/// state, in order; an empty evaluation set yields `0.0` per state
/// (matching `accuracy_on`).
///
/// Large products fan out across the shared worker pool inside
/// [`gemm::gemm_nt`] (hence the `Sync` bound on `features`); that
/// nesting is safe even when this call itself runs on a pool worker —
/// e.g. inside a `parallel_map` cell — because submitters participate
/// in their own batches. Results stay bit-identical either way.
///
/// # Errors
///
/// Returns [`MlError::DimensionMismatch`] if `labels.len()` differs
/// from the feature row count or any state's width differs from the
/// feature column count.
pub fn batched_accuracy(
    features: &(impl RowSource + Sync),
    labels: &[Label],
    states: &[LinearState],
) -> Result<Vec<f64>, MlError> {
    if labels.len() != features.rows() {
        return Err(MlError::DimensionMismatch {
            expected: features.rows(),
            found: labels.len(),
        });
    }
    for state in states {
        if state.weights.len() != features.cols() {
            return Err(MlError::DimensionMismatch {
                expected: features.cols(),
                found: state.weights.len(),
            });
        }
    }
    let n = features.rows();
    let k = states.len();
    if n == 0 || k == 0 {
        return Ok(vec![0.0; k]);
    }

    // Stack the weight vectors as rows: decisions = X Wᵀ, no transpose
    // ever materialized.
    let mut stacked = Matrix::zeros(k, features.cols());
    for (j, state) in states.iter().enumerate() {
        stacked.row_mut(j).copy_from_slice(&state.weights);
    }
    let decisions =
        gemm::gemm_nt(features, &stacked).expect("state widths validated against features");

    let mut accuracies = Vec::with_capacity(k);
    for (j, state) in states.iter().enumerate() {
        let correct = (0..n)
            .filter(|&i| Label::from_signed(decisions.get(i, j) + state.bias) == labels[i])
            .count();
        accuracies.push(correct as f64 / n as f64);
    }
    Ok(accuracies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Classifier, TrainConfig};
    use crate::svm::LinearSvm;
    use poisongame_data::synth::gaussian_blobs;
    use poisongame_data::Dataset;
    use poisongame_linalg::Xoshiro256StarStar;
    use rand::SeedableRng;

    fn blobs(seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        gaussian_blobs(60, 3, 3.0, 0.7, &mut rng)
    }

    #[test]
    fn batched_accuracy_is_bit_identical_to_accuracy_on() {
        let train = blobs(41);
        let test = blobs(42);
        // Several distinct states: different epochs/seeds.
        let mut states = Vec::new();
        let mut singles = Vec::new();
        for (epochs, seed) in [(5usize, 1u64), (20, 2), (40, 3)] {
            let mut svm = LinearSvm::new(TrainConfig {
                epochs,
                seed,
                ..TrainConfig::default()
            });
            svm.fit(&train).unwrap();
            singles.push(svm.accuracy_on(&test));
            states.push(svm.linear_state().unwrap());
        }
        let batched = batched_accuracy(test.features(), test.labels(), &states).unwrap();
        assert_eq!(batched.len(), singles.len());
        for (b, s) in batched.iter().zip(&singles) {
            assert_eq!(b.to_bits(), s.to_bits(), "batched accuracy diverged");
        }
    }

    #[test]
    fn empty_inputs_and_mismatches() {
        let data = blobs(43);
        let state = LinearState {
            weights: vec![0.0; 3],
            bias: 0.0,
        };
        // No states: empty result.
        assert!(batched_accuracy(data.features(), data.labels(), &[])
            .unwrap()
            .is_empty());
        // Empty evaluation set: 0.0 per state, like accuracy_on.
        let empty = Dataset::empty(3);
        assert_eq!(
            batched_accuracy(
                empty.features(),
                empty.labels(),
                std::slice::from_ref(&state)
            )
            .unwrap(),
            vec![0.0]
        );
        // Label-count and width mismatches error.
        assert!(batched_accuracy(data.features(), &[], &[state]).is_err());
        let skinny = LinearState {
            weights: vec![1.0],
            bias: 0.0,
        };
        assert!(batched_accuracy(data.features(), data.labels(), &[skinny]).is_err());
    }
}
