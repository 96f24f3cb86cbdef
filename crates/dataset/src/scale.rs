//! Feature scaling fitted on training data and applied to any split.
//!
//! Scaling matters for the poisoning game: the sphere filter operates
//! on Euclidean distances, and the raw Spambase columns span four
//! orders of magnitude (word frequencies in `[0,100]` vs capital-run
//! totals in the thousands). All experiments scale features before
//! filtering and training, like the anomaly-detection defense in
//! Paudice et al.

use crate::dataset::Dataset;
use crate::error::DataError;
use serde::{Deserialize, Serialize};

/// Min-max scaler mapping each column to `[0, 1]` (constant columns map
/// to `0`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>,
}

impl MinMaxScaler {
    /// Fit column minima/ranges on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] on an empty dataset, and
    /// [`DataError::NonFiniteStatistic`] when a column's mean or
    /// standard deviation overflows (finite values near `±f64::MAX`),
    /// which would otherwise scale the column to NaN.
    pub fn fit(data: &Dataset) -> Result<Self, DataError> {
        if data.is_empty() {
            return Err(DataError::Empty);
        }
        let summary = data.column_summary();
        for (column, s) in summary.iter().enumerate() {
            for (what, value) in [("mean", s.mean), ("std", s.std_dev)] {
                if !value.is_finite() {
                    return Err(DataError::NonFiniteStatistic {
                        column,
                        what,
                        value,
                    });
                }
            }
        }
        Ok(Self {
            mins: summary.iter().map(|s| s.min).collect(),
            ranges: summary.iter().map(|s| s.max - s.min).collect(),
        })
    }

    /// Apply to a dataset with the same feature width.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LabelCountMismatch`] — reused to signal a
    /// width mismatch between scaler and data.
    pub fn transform(&self, data: &Dataset) -> Result<Dataset, DataError> {
        transform_with(data, self.mins.len(), |c, v| {
            if self.ranges[c] > 0.0 {
                (v - self.mins[c]) / self.ranges[c]
            } else {
                0.0
            }
        })
    }

    /// Apply to a single point in place.
    ///
    /// # Panics
    ///
    /// Panics if the point width differs from the fitted width.
    pub fn transform_point(&self, point: &mut [f64]) {
        assert_eq!(point.len(), self.mins.len(), "scaler width mismatch");
        for (c, v) in point.iter_mut().enumerate() {
            *v = if self.ranges[c] > 0.0 {
                (*v - self.mins[c]) / self.ranges[c]
            } else {
                0.0
            };
        }
    }

    /// Undo the scaling for a single point in place.
    ///
    /// # Panics
    ///
    /// Panics if the point width differs from the fitted width.
    pub fn inverse_point(&self, point: &mut [f64]) {
        assert_eq!(point.len(), self.mins.len(), "scaler width mismatch");
        for (c, v) in point.iter_mut().enumerate() {
            *v = *v * self.ranges[c] + self.mins[c];
        }
    }

    /// Convenience: fit on `data` and return the transformed copy plus
    /// the fitted scaler.
    ///
    /// # Errors
    ///
    /// Same as [`MinMaxScaler::fit`].
    pub fn fit_transform(data: &Dataset) -> Result<(Dataset, Self), DataError> {
        let scaler = Self::fit(data)?;
        let out = scaler.transform(data)?;
        Ok((out, scaler))
    }
}

/// Z-score scaler (`(x - mean) / std`; constant columns map to `0`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit column means/standard deviations on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] on an empty dataset, and
    /// [`DataError::NonFiniteStatistic`] when a column's mean or
    /// standard deviation overflows (finite values near `±f64::MAX`),
    /// which would otherwise scale the column to NaN.
    pub fn fit(data: &Dataset) -> Result<Self, DataError> {
        if data.is_empty() {
            return Err(DataError::Empty);
        }
        let summary = data.column_summary();
        for (column, s) in summary.iter().enumerate() {
            for (what, value) in [("mean", s.mean), ("std", s.std_dev)] {
                if !value.is_finite() {
                    return Err(DataError::NonFiniteStatistic {
                        column,
                        what,
                        value,
                    });
                }
            }
        }
        Ok(Self {
            means: summary.iter().map(|s| s.mean).collect(),
            stds: summary.iter().map(|s| s.std_dev).collect(),
        })
    }

    /// Apply to a dataset with the same feature width.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LabelCountMismatch`] on width mismatch.
    pub fn transform(&self, data: &Dataset) -> Result<Dataset, DataError> {
        transform_with(data, self.means.len(), |c, v| {
            if self.stds[c] > 0.0 {
                (v - self.means[c]) / self.stds[c]
            } else {
                0.0
            }
        })
    }

    /// Apply to a dataset in place — the same per-element arithmetic
    /// as [`StandardScaler::transform`] (bit-identical results)
    /// without materializing a second copy, for out-of-core callers
    /// that built the matrix row by row.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LabelCountMismatch`] on width mismatch.
    pub fn transform_in_place(&self, data: &mut Dataset) -> Result<(), DataError> {
        if data.dim() != self.means.len() {
            return Err(DataError::LabelCountMismatch {
                rows: data.dim(),
                labels: self.means.len(),
            });
        }
        let rows = data.len();
        let features = data.features_mut();
        for r in 0..rows {
            for (c, v) in features.row_mut(r).iter_mut().enumerate() {
                *v = if self.stds[c] > 0.0 {
                    (*v - self.means[c]) / self.stds[c]
                } else {
                    0.0
                };
            }
        }
        Ok(())
    }

    /// Convenience: fit + transform.
    ///
    /// # Errors
    ///
    /// Same as [`StandardScaler::fit`].
    pub fn fit_transform(data: &Dataset) -> Result<(Dataset, Self), DataError> {
        let scaler = Self::fit(data)?;
        let out = scaler.transform(data)?;
        Ok((out, scaler))
    }
}

fn transform_with<F>(data: &Dataset, width: usize, f: F) -> Result<Dataset, DataError>
where
    F: Fn(usize, f64) -> f64,
{
    if data.dim() != width {
        return Err(DataError::LabelCountMismatch {
            rows: data.dim(),
            labels: width,
        });
    }
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(data.len());
    for (x, _) in data.iter() {
        rows.push(x.iter().enumerate().map(|(c, &v)| f(c, v)).collect());
    }
    Dataset::from_rows(rows, data.labels().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;

    fn toy() -> Dataset {
        Dataset::from_rows(
            vec![
                vec![0.0, 10.0, 5.0],
                vec![10.0, 10.0, 15.0],
                vec![5.0, 10.0, 25.0],
            ],
            vec![Label::Negative, Label::Positive, Label::Negative],
        )
        .unwrap()
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let (scaled, _) = MinMaxScaler::fit_transform(&toy()).unwrap();
        for (x, _) in scaled.iter() {
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        assert_eq!(scaled.point(0), &[0.0, 0.0, 0.0]);
        assert_eq!(scaled.point(1), &[1.0, 0.0, 0.5]);
    }

    #[test]
    fn minmax_constant_column_is_zero() {
        let (scaled, _) = MinMaxScaler::fit_transform(&toy()).unwrap();
        assert!(scaled.iter().all(|(x, _)| x[1] == 0.0));
    }

    #[test]
    fn minmax_point_round_trip() {
        let (_, scaler) = MinMaxScaler::fit_transform(&toy()).unwrap();
        let mut p = vec![2.0, 10.0, 20.0];
        let orig = p.clone();
        scaler.transform_point(&mut p);
        scaler.inverse_point(&mut p);
        // Column 1 is constant so its inverse maps to the fitted min.
        assert!((p[0] - orig[0]).abs() < 1e-12);
        assert!((p[2] - orig[2]).abs() < 1e-12);
        assert_eq!(p[1], 10.0);
    }

    #[test]
    fn minmax_transform_applies_train_statistics() {
        let train = toy();
        let scaler = MinMaxScaler::fit(&train).unwrap();
        let test = Dataset::from_rows(vec![vec![20.0, 10.0, 5.0]], vec![Label::Positive]).unwrap();
        let scaled = scaler.transform(&test).unwrap();
        // 20 is outside the fitted range — scaling extrapolates past 1.
        assert_eq!(scaled.point(0)[0], 2.0);
    }

    #[test]
    fn standard_scaler_rejects_overflowing_statistics() {
        // Finite values whose sum overflows (mean) and whose squared
        // deviations overflow (std): scaling would yield NaN features.
        for (column, what, huge) in [
            (1, "mean", vec![1e308, 1e308, 1e308]),
            (1, "std", vec![1e308, -1e308, 1e308]),
        ] {
            let rows = huge.iter().map(|&v| vec![1.0, v]).collect();
            let data = Dataset::from_rows(
                rows,
                vec![Label::Negative, Label::Positive, Label::Negative],
            )
            .unwrap();
            match StandardScaler::fit(&data).unwrap_err() {
                DataError::NonFiniteStatistic {
                    column: c, what: w, ..
                } => assert_eq!((c, w), (column, what)),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn standard_scaler_zero_mean_unit_std() {
        let (scaled, _) = StandardScaler::fit_transform(&toy()).unwrap();
        let sum0 = scaled.features().column_iter(0).sum::<f64>();
        assert!(sum0.abs() < 1e-12);
        let s = scaled.column_summary();
        assert!((s[0].std_dev - 1.0).abs() < 1e-12);
        assert_eq!(s[1].std_dev, 0.0);
    }

    #[test]
    fn scalers_reject_empty_and_mismatch() {
        assert!(MinMaxScaler::fit(&Dataset::empty(3)).is_err());
        assert!(StandardScaler::fit(&Dataset::empty(3)).is_err());
        let scaler = MinMaxScaler::fit(&toy()).unwrap();
        let wrong = Dataset::from_rows(vec![vec![1.0]], vec![Label::Negative]).unwrap();
        assert!(scaler.transform(&wrong).is_err());
    }

    #[test]
    fn labels_survive_scaling() {
        let (scaled, _) = StandardScaler::fit_transform(&toy()).unwrap();
        assert_eq!(scaled.labels(), toy().labels());
    }

    #[test]
    fn in_place_transform_is_bit_identical_to_copying() {
        let scaler = StandardScaler::fit(&toy()).unwrap();
        let copied = scaler.transform(&toy()).unwrap();
        let mut in_place = toy();
        scaler.transform_in_place(&mut in_place).unwrap();
        for (a, b) in copied
            .features()
            .as_slice()
            .iter()
            .zip(in_place.features().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let scaler_wide = StandardScaler::fit(&toy()).unwrap();
        let mut wrong = Dataset::from_rows(vec![vec![1.0]], vec![Label::Negative]).unwrap();
        assert!(scaler_wide.transform_in_place(&mut wrong).is_err());
    }
}
