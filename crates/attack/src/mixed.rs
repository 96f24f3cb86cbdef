//! The paper's full attacker strategy `S_a = {[r_1,n_1],…,[r_m,n_m]}`:
//! a mixture of boundary placements at several radii.

use crate::boundary::{BoundaryAttack, RadiusSpec};
use crate::error::AttackError;
use crate::AttackStrategy;
use poisongame_data::Dataset;
use poisongame_linalg::Xoshiro256StarStar;
use serde::{Deserialize, Serialize};

/// One `[r_i, n_i]` element of the attacker strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadiusAllocation {
    /// Placement radius.
    pub spec: RadiusSpec,
    /// Number of points placed there.
    pub count: usize,
}

/// A multi-radius attack. The counts must sum to the budget passed to
/// [`AttackStrategy::generate`].
///
/// # Example
///
/// ```
/// use poisongame_attack::{AttackStrategy, MixedRadiusAttack, RadiusAllocation, RadiusSpec};
/// use poisongame_data::synth::gaussian_blobs;
/// use poisongame_linalg::Xoshiro256StarStar;
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let clean = gaussian_blobs(60, 2, 3.0, 0.5, &mut rng);
/// let attack = MixedRadiusAttack::new(vec![
///     RadiusAllocation { spec: RadiusSpec::Percentile(0.05), count: 6 },
///     RadiusAllocation { spec: RadiusSpec::Percentile(0.15), count: 4 },
/// ]);
/// let poison = attack.generate(&clean, 10, &mut rng).unwrap();
/// assert_eq!(poison.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedRadiusAttack {
    allocations: Vec<RadiusAllocation>,
}

impl MixedRadiusAttack {
    /// New attack from explicit allocations.
    pub fn new(allocations: Vec<RadiusAllocation>) -> Self {
        Self { allocations }
    }

    /// Build an attack that splits a budget of `n` points across
    /// `specs` proportionally to `weights` (largest-remainder
    /// apportionment, so the counts sum exactly to `n`).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadParameter`] if weights are empty,
    /// negative, non-finite or all zero, or if lengths mismatch.
    pub fn proportional(
        specs: &[RadiusSpec],
        weights: &[f64],
        n: usize,
    ) -> Result<Self, AttackError> {
        if specs.is_empty() || specs.len() != weights.len() {
            return Err(AttackError::BadParameter {
                what: "weights",
                value: weights.len() as f64,
            });
        }
        let total: f64 = weights.iter().sum();
        if !(total.is_finite() && total > 0.0) || weights.iter().any(|w| *w < 0.0 || !w.is_finite())
        {
            return Err(AttackError::BadParameter {
                what: "weights",
                value: total,
            });
        }
        // Largest remainder method.
        let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut leftover = n - counts.iter().sum::<usize>();
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = exact[a] - exact[a].floor();
            let rb = exact[b] - exact[b].floor();
            rb.partial_cmp(&ra).expect("finite remainders")
        });
        for &i in &order {
            if leftover == 0 {
                break;
            }
            counts[i] += 1;
            leftover -= 1;
        }
        Ok(Self::new(
            specs
                .iter()
                .zip(counts)
                .map(|(&spec, count)| RadiusAllocation { spec, count })
                .collect(),
        ))
    }

    /// The allocations.
    pub fn allocations(&self) -> &[RadiusAllocation] {
        &self.allocations
    }

    /// Total points across all allocations.
    pub fn total_count(&self) -> usize {
        self.allocations.iter().map(|a| a.count).sum()
    }
}

impl AttackStrategy for MixedRadiusAttack {
    fn generate(
        &self,
        clean: &Dataset,
        n_points: usize,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<Dataset, AttackError> {
        let allocated = self.total_count();
        if allocated != n_points {
            return Err(AttackError::BudgetMismatch {
                requested: n_points,
                allocated,
            });
        }
        let mut poison = Dataset::empty(clean.dim());
        if n_points == 0 {
            return Ok(poison);
        }
        // Every allocation is a default-policy boundary placement and
        // the centroids do not depend on the radius: resolve them once
        // and place every allocation on them.
        let geometry = BoundaryAttack::new(self.allocations[0].spec).geometry(clean)?;
        for alloc in &self.allocations {
            BoundaryAttack::new(alloc.spec).place(
                &geometry,
                clean,
                alloc.count,
                rng,
                &mut poison,
            )?;
        }
        Ok(poison)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_data::synth::gaussian_blobs;
    use poisongame_data::Label;
    use poisongame_linalg::vector;
    use rand::SeedableRng;

    fn clean(seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        gaussian_blobs(80, 3, 4.0, 0.7, &mut rng)
    }

    #[test]
    fn budget_must_match() {
        let attack = MixedRadiusAttack::new(vec![RadiusAllocation {
            spec: RadiusSpec::Percentile(0.1),
            count: 5,
        }]);
        let data = clean(1);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        assert!(matches!(
            attack.generate(&data, 7, &mut rng).unwrap_err(),
            AttackError::BudgetMismatch {
                requested: 7,
                allocated: 5
            }
        ));
    }

    #[test]
    fn two_radii_place_at_two_distances() {
        let data = clean(3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let attack = MixedRadiusAttack::new(vec![
            RadiusAllocation {
                spec: RadiusSpec::Absolute(6.0),
                count: 4,
            },
            RadiusAllocation {
                spec: RadiusSpec::Absolute(2.0),
                count: 4,
            },
        ]);
        let poison = attack.generate(&data, 8, &mut rng).unwrap();
        let c = crate::boundary::global_centroid(
            &data,
            crate::boundary::CentroidKind::CoordinateMedian,
        )
        .unwrap();
        let mut distances: Vec<f64> = poison
            .iter()
            .map(|(x, _)| vector::euclidean_distance(x, &c))
            .collect();
        distances.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((distances[0] - 2.0 * (1.0 - 1e-3)).abs() < 1e-9);
        assert!((distances[7] - 6.0 * (1.0 - 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn proportional_apportionment_sums_exactly() {
        let specs = [
            RadiusSpec::Percentile(0.05),
            RadiusSpec::Percentile(0.1),
            RadiusSpec::Percentile(0.2),
        ];
        let attack = MixedRadiusAttack::proportional(&specs, &[0.512, 0.488, 0.0], 101).unwrap();
        assert_eq!(attack.total_count(), 101);
        assert_eq!(attack.allocations()[2].count, 0);
        // 0.512 * 101 = 51.7 → 52 after largest remainder.
        assert_eq!(attack.allocations()[0].count, 52);
        assert_eq!(attack.allocations()[1].count, 49);
    }

    #[test]
    fn proportional_validates_weights() {
        let specs = [RadiusSpec::Percentile(0.1)];
        assert!(MixedRadiusAttack::proportional(&specs, &[], 5).is_err());
        assert!(MixedRadiusAttack::proportional(&specs, &[0.0], 5).is_err());
        assert!(MixedRadiusAttack::proportional(&specs, &[-1.0], 5).is_err());
        assert!(MixedRadiusAttack::proportional(&[], &[], 5).is_err());
    }

    #[test]
    fn zero_count_allocations_are_skipped() {
        let data = clean(5);
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let attack = MixedRadiusAttack::new(vec![
            RadiusAllocation {
                spec: RadiusSpec::Percentile(0.1),
                count: 0,
            },
            RadiusAllocation {
                spec: RadiusSpec::Percentile(0.2),
                count: 6,
            },
        ]);
        let poison = attack.generate(&data, 6, &mut rng).unwrap();
        assert_eq!(poison.len(), 6);
        assert_eq!(poison.class_count(Label::Positive), 6);
    }
}
