//! The row-at-a-time SGD loop shared by the linear SVM and logistic
//! regression.
//!
//! Both learners minimize `λ/2·‖w‖² + (1/n)·Σ loss(y(w·x+b))` by plain
//! stochastic (sub)gradient descent and differ only in the per-row
//! loss step, so [`fit`] takes that step as a generic closure: each
//! learner gets its own monomorphic copy of the loop, with no dynamic
//! dispatch per row.

use crate::error::MlError;
use crate::model::{check_trainable, TrainConfig};
use poisongame_data::DataView;
use poisongame_linalg::rng::{shuffled_indices, Xoshiro256StarStar};
use poisongame_linalg::vector;
use rand::SeedableRng;

/// Train `(w, b)` from the origin on `data`.
///
/// Each epoch visits the rows in a fresh shuffle drawn from
/// `config.seed`. Each row is one step at rate `η = schedule.rate(t)`:
/// the margin `m = y(w·x+b)` is taken first, then `w` shrinks by the
/// L2 factor `1 − ηλ` (skipped when that factor is not positive), and
/// then, if `step(m, y, η)` returns `Some(c)`, `w += c·x` and `b += c`.
/// `None` skips the move: adding a zero step instead could turn a
/// `-0.0` weight into `+0.0`. The bias stays 0 with `fit_bias` off.
///
/// # Errors
///
/// Returns [`MlError::BadHyperparameter`], [`MlError::EmptyTrainingSet`]
/// or [`MlError::SingleClass`] before training, and
/// [`MlError::Diverged`] when an epoch ends with a non-finite state.
pub(crate) fn fit(
    config: &TrainConfig,
    data: &dyn DataView,
    step: impl Fn(f64, f64, f64) -> Option<f64>,
) -> Result<(Vec<f64>, f64), MlError> {
    config.validate()?;
    check_trainable(data)?;

    let mut w = vec![0.0; data.dim()];
    let mut b = 0.0;
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
    let mut t: u64 = 0;
    for epoch in 0..config.epochs {
        for i in shuffled_indices(data.len(), &mut rng) {
            t += 1;
            let eta = config.schedule.rate(t);
            let x = data.point(i);
            let y = data.label(i).to_signed();
            let margin = y * (vector::dot(&w, x) + b);
            let shrink = 1.0 - eta * config.lambda;
            if shrink > 0.0 {
                vector::scale(shrink, &mut w);
            }
            if let Some(c) = step(margin, y, eta) {
                vector::axpy(c, x, &mut w);
                if config.fit_bias {
                    b += c;
                }
            }
        }
        if !vector::all_finite(&w) || !b.is_finite() {
            return Err(MlError::Diverged { epoch });
        }
    }
    Ok((w, if config.fit_bias { b } else { 0.0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use poisongame_data::synth::gaussian_blobs;
    use poisongame_data::{Dataset, Label};
    use std::cell::{Cell, RefCell};

    fn blobs(seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        gaussian_blobs(30, 3, 2.0, 0.8, &mut rng)
    }

    fn epochs(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            ..TrainConfig::default()
        }
    }

    fn bits(w: &[f64]) -> Vec<u64> {
        w.iter().map(|v| v.to_bits()).collect()
    }

    fn hinge(margin: f64, y: f64, eta: f64) -> Option<f64> {
        (margin < 1.0).then_some(eta * y)
    }

    #[test]
    fn hinge_step_matches_a_written_out_loop_bitwise() {
        let data = blobs(1);
        let config = epochs(7);
        let (w, b) = fit(&config, &data, hinge).unwrap();

        let mut rw = vec![0.0; data.dim()];
        let mut rb = 0.0;
        let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
        let mut t = 0;
        for _ in 0..config.epochs {
            for i in shuffled_indices(data.len(), &mut rng) {
                t += 1;
                let eta = config.schedule.rate(t);
                let x = data.point(i);
                let y = data.label(i).to_signed();
                let margin = y * (vector::dot(&rw, x) + rb);
                for v in rw.iter_mut() {
                    *v *= 1.0 - eta * config.lambda;
                }
                if margin < 1.0 {
                    for (v, xj) in rw.iter_mut().zip(x) {
                        *v += eta * y * xj;
                    }
                    rb += eta * y;
                }
            }
        }
        assert_eq!(bits(&w), bits(&rw));
        assert_eq!(b.to_bits(), rb.to_bits());
    }

    #[test]
    fn skipped_steps_leave_the_model_at_the_origin() {
        let data = blobs(2);
        let (w, b) = fit(&epochs(3), &data, |_, _, _| None).unwrap();
        assert_eq!(bits(&w), vec![0.0f64.to_bits(); data.dim()]);
        assert_eq!(b.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn non_positive_shrink_skips_the_l2_step() {
        // η·λ = 1, so the shrink factor is 0: applying it would wipe
        // `w` every row. Skipped, `w` is the plain sum of y·x in visit
        // order.
        let data = blobs(3);
        let config = TrainConfig {
            epochs: 2,
            lambda: 1.0,
            schedule: Schedule::Constant { eta0: 1.0 },
            ..TrainConfig::default()
        };
        let (w, b) = fit(&config, &data, |_, y, eta| Some(eta * y)).unwrap();

        let mut rw = vec![0.0; data.dim()];
        let mut rb = 0.0;
        let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
        for _ in 0..config.epochs {
            for i in shuffled_indices(data.len(), &mut rng) {
                let y = data.label(i).to_signed();
                vector::axpy(y, data.point(i), &mut rw);
                rb += y;
            }
        }
        assert_eq!(bits(&w), bits(&rw));
        assert_eq!(b.to_bits(), rb.to_bits());
    }

    #[test]
    fn intercept_moves_only_with_fit_bias() {
        let data = blobs(4);
        let with = fit(&epochs(3), &data, |_, y, eta| Some(eta * y)).unwrap();
        let without = TrainConfig {
            fit_bias: false,
            ..epochs(3)
        };
        let without = fit(&without, &data, |_, y, eta| Some(eta * y)).unwrap();
        assert_ne!(with.1, 0.0);
        assert_eq!(without.1.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn non_finite_state_reports_the_epoch_it_appeared_in() {
        let data = blobs(5);
        let rows = data.len();
        let calls = Cell::new(0usize);
        let err = fit(&epochs(4), &data, |_, y, eta| {
            calls.set(calls.get() + 1);
            Some(if calls.get() > 2 * rows {
                f64::NAN
            } else {
                eta * y
            })
        })
        .unwrap_err();
        assert!(matches!(err, MlError::Diverged { epoch: 2 }), "{err:?}");
        assert_eq!(calls.get(), 3 * rows, "training stops after the bad epoch");
    }

    #[test]
    fn config_is_checked_before_the_data() {
        let calls = Cell::new(0usize);
        let count = |_: f64, _: f64, _: f64| {
            calls.set(calls.get() + 1);
            None
        };
        let err = fit(&epochs(0), &Dataset::empty(2), count).unwrap_err();
        assert!(
            matches!(err, MlError::BadHyperparameter { what: "epochs", .. }),
            "{err:?}"
        );
        let err = fit(&epochs(1), &Dataset::empty(2), count).unwrap_err();
        assert!(matches!(err, MlError::EmptyTrainingSet), "{err:?}");
        let single = Dataset::from_rows(vec![vec![1.0]], vec![Label::Negative]).unwrap();
        let err = fit(&epochs(1), &single, count).unwrap_err();
        assert!(matches!(err, MlError::SingleClass), "{err:?}");
        assert_eq!(calls.get(), 0);
    }

    #[test]
    fn step_sees_each_row_label_and_the_scheduled_rate() {
        let data = blobs(6);
        let config = epochs(3);
        let seen = RefCell::new(Vec::new());
        fit(&config, &data, |margin, y, eta| {
            seen.borrow_mut().push((margin, y, eta));
            None
        })
        .unwrap();
        let seen = seen.into_inner();
        assert_eq!(seen.len(), config.epochs * data.len());
        let positives = (0..data.len())
            .filter(|&i| data.label(i) == Label::Positive)
            .count();
        for (epoch, rows) in seen.chunks(data.len()).enumerate() {
            let up = rows.iter().filter(|&&(_, y, _)| y == 1.0).count();
            assert_eq!(up, positives, "epoch {epoch} visits every row once");
        }
        for (k, &(margin, y, eta)) in seen.iter().enumerate() {
            // The model never moves, so every margin is taken at the
            // origin.
            assert_eq!(margin, 0.0);
            assert!(y == 1.0 || y == -1.0);
            assert_eq!(eta.to_bits(), config.schedule.rate(k as u64 + 1).to_bits());
        }
    }
}
