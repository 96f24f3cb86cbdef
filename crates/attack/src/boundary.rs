//! Boundary attack: optimal single-radius poison placement.
//!
//! The attacker crafts points that carry a *claimed* label `c` but sit
//! as far from class `c`'s centroid as the chosen radius allows, pushed
//! along the direction of the opposite class. Training on such points
//! drags the decision boundary toward the opposite class — the standard
//! optimal poisoning geometry against linear models under distance
//! filtering (cf. Steinhardt et al. 2017). The paper's observation that
//! "we can expect their locations to be near the boundary of the
//! hypersphere with radius `r_i`" is realized exactly: every generated
//! point lies at the target radius (just inside, by a small margin).
//!
//! # Cost
//!
//! Everything that does not change from point to point is resolved once
//! per call: the anchor centroid (`O(d·n log n)` for the coordinate
//! median, `O(n·d)` for the mean), the two class means (`O(n·d)`), and
//! per claimed label the radius (`O(n·d + n log n)`: distances plus a
//! sorted quantile) and the unit push direction (`O(d)`). Each poison
//! point then costs `O(d)`: its jitter draws and one scaled add.
//! [`MixedRadiusAttack`](crate::MixedRadiusAttack) shares the centroids
//! across its allocations and resolves only a radius per allocation.

use crate::error::AttackError;
use crate::AttackStrategy;
use poisongame_data::{Dataset, Label};
use poisongame_linalg::rng::standard_normal;
use poisongame_linalg::{stats, vector, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};

/// How the placement radius is specified.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RadiusSpec {
    /// As a *removal percentile* `p ∈ [0, 1)`: the radius below which a
    /// filter removing fraction `p` of the class would just keep the
    /// point. `p = 0` places at the farthest genuine point's radius
    /// (boundary `B` of the paper); larger `p` places deeper inside.
    /// This is the same axis as the paper's Figure 1.
    Percentile(f64),
    /// As an absolute Euclidean distance from the class centroid.
    Absolute(f64),
}

impl RadiusSpec {
    /// Resolve into an absolute radius for the given class of `clean`.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadParameter`] for out-of-range
    /// percentiles or negative radii, and
    /// [`AttackError::DegenerateCleanData`] when the class is empty.
    pub fn resolve(
        &self,
        clean: &Dataset,
        label: Label,
        center: &[f64],
    ) -> Result<f64, AttackError> {
        match *self {
            RadiusSpec::Absolute(r) => {
                if r < 0.0 || !r.is_finite() {
                    return Err(AttackError::BadParameter {
                        what: "radius",
                        value: r,
                    });
                }
                Ok(r)
            }
            RadiusSpec::Percentile(p) => {
                if !(0.0..1.0).contains(&p) || p.is_nan() {
                    return Err(AttackError::BadParameter {
                        what: "percentile",
                        value: p,
                    });
                }
                let distances = clean.class_distances(label, center);
                if distances.is_empty() {
                    return Err(AttackError::DegenerateCleanData);
                }
                stats::quantile(&distances, 1.0 - p).map_err(|_| AttackError::DegenerateCleanData)
            }
        }
    }

    /// Resolve against the distance distribution of the *whole*
    /// dataset from a global centroid (the paper's geometry).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RadiusSpec::resolve`].
    pub fn resolve_global(&self, clean: &Dataset, center: &[f64]) -> Result<f64, AttackError> {
        match *self {
            RadiusSpec::Absolute(_) => self.resolve(clean, Label::Positive, center),
            RadiusSpec::Percentile(p) => {
                if !(0.0..1.0).contains(&p) || p.is_nan() {
                    return Err(AttackError::BadParameter {
                        what: "percentile",
                        value: p,
                    });
                }
                let distances = clean.distances(center);
                if distances.is_empty() {
                    return Err(AttackError::DegenerateCleanData);
                }
                stats::quantile(&distances, 1.0 - p).map_err(|_| AttackError::DegenerateCleanData)
            }
        }
    }
}

/// Which centroid the attacker anchors radii on.
///
/// The paper's attacker has full knowledge of the defense, so the
/// default matches the defense's robust (coordinate-median) centroid:
/// a percentile placement then lands at the intended rank of the
/// defender's own distance ordering. The mean variant exists for
/// ablating a less-informed attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CentroidKind {
    /// Coordinate-wise median (matches the default defense).
    CoordinateMedian,
    /// Arithmetic mean.
    Mean,
}

/// Compute the centroid of the whole dataset under the given policy.
///
/// # Errors
///
/// Returns [`AttackError::DegenerateCleanData`] if the dataset is
/// empty.
pub fn global_centroid(data: &Dataset, kind: CentroidKind) -> Result<Vec<f64>, AttackError> {
    if data.is_empty() {
        return Err(AttackError::DegenerateCleanData);
    }
    match kind {
        CentroidKind::Mean => Ok(data.features().column_means().expect("non-empty dataset")),
        CentroidKind::CoordinateMedian => {
            let mut center = Vec::with_capacity(data.dim());
            let mut column = Vec::with_capacity(data.len());
            for c in 0..data.dim() {
                column.clear();
                column.extend((0..data.len()).map(|i| data.point(i)[c]));
                center.push(stats::median(&column));
            }
            Ok(center)
        }
    }
}

/// Compute a class centroid under the given policy.
///
/// # Errors
///
/// Returns [`AttackError::DegenerateCleanData`] if the class is empty.
pub fn class_centroid(
    data: &Dataset,
    label: Label,
    kind: CentroidKind,
) -> Result<Vec<f64>, AttackError> {
    let idx = data.class_indices(label);
    if idx.is_empty() {
        return Err(AttackError::DegenerateCleanData);
    }
    match kind {
        CentroidKind::Mean => Ok(data.class_mean(label)?),
        CentroidKind::CoordinateMedian => {
            let mut center = Vec::with_capacity(data.dim());
            let mut column = Vec::with_capacity(idx.len());
            for c in 0..data.dim() {
                column.clear();
                column.extend(idx.iter().map(|&i| data.point(i)[c]));
                center.push(stats::median(&column));
            }
            Ok(center)
        }
    }
}

/// Which point set anchors the placement radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnchorScope {
    /// One centroid over the whole training set — matches the paper's
    /// game model and the defense's default global sphere. The default.
    Global,
    /// The claimed class's own centroid (the Paudice et al. per-class
    /// geometry) — kept for ablations.
    PerClass,
}

/// Which label the poison points claim.
///
/// Opposite-label drags on a symmetric dataset cancel each other, so
/// the optimal attack concentrates on one class; `Alternate` is kept
/// for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetClass {
    /// All poison claims the positive class (pushes the boundary into
    /// negative territory) — the default.
    Positive,
    /// All poison claims the negative class.
    Negative,
    /// Alternate claimed labels point by point.
    Alternate,
}

/// Optimal placement of poison points at one radius.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundaryAttack {
    spec: RadiusSpec,
    /// Relative inset from the exact radius, keeping points strictly
    /// inside the matching filter (default `1e-3`).
    inset: f64,
    /// Relative magnitude of the orthogonal jitter that spreads the
    /// poison cloud on the sphere (default `0.05`).
    jitter: f64,
    /// Claimed-label policy (default [`TargetClass::Positive`]).
    target: TargetClass,
    /// Centroid policy (default [`CentroidKind::CoordinateMedian`],
    /// matching the defense).
    centroid: CentroidKind,
    /// Radius anchor (default [`AnchorScope::Global`], matching the
    /// defense).
    anchor: AnchorScope,
}

impl BoundaryAttack {
    /// New attack at the given radius with default inset and jitter.
    pub fn new(spec: RadiusSpec) -> Self {
        Self {
            spec,
            inset: 1e-3,
            jitter: 0.05,
            target: TargetClass::Positive,
            centroid: CentroidKind::CoordinateMedian,
            anchor: AnchorScope::Global,
        }
    }

    /// Override the radius anchor scope.
    pub fn with_anchor(mut self, anchor: AnchorScope) -> Self {
        self.anchor = anchor;
        self
    }

    /// Override the claimed-label policy.
    pub fn with_target(mut self, target: TargetClass) -> Self {
        self.target = target;
        self
    }

    /// Override the centroid policy.
    pub fn with_centroid(mut self, centroid: CentroidKind) -> Self {
        self.centroid = centroid;
        self
    }

    /// Override the relative inset.
    pub fn with_inset(mut self, inset: f64) -> Self {
        self.inset = inset;
        self
    }

    /// Override the relative jitter.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// The radius specification.
    pub fn spec(&self) -> RadiusSpec {
        self.spec
    }
}

/// The centroids a placement needs, independent of the radius: built
/// once per call and shared by every point (and, in
/// [`MixedRadiusAttack`](crate::MixedRadiusAttack), by every allocation).
#[derive(Debug)]
pub(crate) struct Geometry {
    /// Radius anchors under the configured centroid policy and scope.
    anchors: Anchors,
    /// Class means `[negative, positive]`: they set the push direction,
    /// which carries the discriminative geometry even when the robust
    /// centroids of the two classes nearly coincide (sparse data).
    means: [Vec<f64>; 2],
}

#[derive(Debug)]
enum Anchors {
    /// One centroid over the whole training set.
    Global(Vec<f64>),
    /// Each class's own centroid, `[negative, positive]`.
    PerClass([Vec<f64>; 2]),
}

/// Index of a label in the `[negative, positive]` arrays above.
fn slot(label: Label) -> usize {
    usize::from(label == Label::Positive)
}

impl BoundaryAttack {
    /// Resolve the centroids of `clean` under this attack's centroid
    /// policy and anchor scope (the spec, inset and jitter play no part).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::DegenerateCleanData`] when a class is
    /// missing.
    pub(crate) fn geometry(&self, clean: &Dataset) -> Result<Geometry, AttackError> {
        if clean.class_count(Label::Positive) == 0 || clean.class_count(Label::Negative) == 0 {
            return Err(AttackError::DegenerateCleanData);
        }
        // Radius anchors use the configured (defense-matching) centroid
        // and scope so a percentile placement lands at the intended
        // rank of the defender's distance ordering.
        let anchors = match self.anchor {
            AnchorScope::Global => Anchors::Global(global_centroid(clean, self.centroid)?),
            AnchorScope::PerClass => Anchors::PerClass([
                class_centroid(clean, Label::Negative, self.centroid)?,
                class_centroid(clean, Label::Positive, self.centroid)?,
            ]),
        };
        let means = [
            class_centroid(clean, Label::Negative, CentroidKind::Mean)?,
            class_centroid(clean, Label::Positive, CentroidKind::Mean)?,
        ];
        Ok(Geometry { anchors, means })
    }

    /// The label the `k`-th poison point claims.
    fn claimed(&self, k: usize) -> Label {
        match self.target {
            TargetClass::Positive => Label::Positive,
            TargetClass::Negative => Label::Negative,
            TargetClass::Alternate => {
                if k % 2 == 0 {
                    Label::Positive
                } else {
                    Label::Negative
                }
            }
        }
    }

    /// Place `n_points` poison points on `geometry` and append them to
    /// `poison`.
    ///
    /// The inset radius and the unit push direction of a claimed label
    /// are resolved on that label's first point and reused after, so an
    /// invalid spec fails at the same point, after the same RNG draws,
    /// as resolving them per point would, and `n_points == 0` never
    /// resolves them at all.
    ///
    /// # Errors
    ///
    /// Propagates radius-resolution errors (see [`RadiusSpec::resolve`]).
    pub(crate) fn place(
        &self,
        geometry: &Geometry,
        clean: &Dataset,
        n_points: usize,
        rng: &mut Xoshiro256StarStar,
        poison: &mut Dataset,
    ) -> Result<(), AttackError> {
        let dim = clean.dim();
        // Per claimed label: (inset radius, unit push direction or
        // `None` when the class means coincide).
        let mut resolved: [Option<(f64, Option<Vec<f64>>)>; 2] = [None, None];
        let mut dir = Vec::with_capacity(dim);
        let mut noise = Vec::with_capacity(dim);
        let mut point = Vec::with_capacity(dim);
        for k in 0..n_points {
            let claimed = self.claimed(k);
            let own = match &geometry.anchors {
                Anchors::Global(center) => center,
                Anchors::PerClass(centers) => &centers[slot(claimed)],
            };
            if resolved[slot(claimed)].is_none() {
                let radius = match geometry.anchors {
                    Anchors::Global(_) => self.spec.resolve_global(clean, own)?,
                    Anchors::PerClass(_) => self.spec.resolve(clean, claimed, own)?,
                };
                // Base direction: toward the other class (mean geometry).
                let mut base = vector::sub(
                    &geometry.means[slot(claimed.flipped())],
                    &geometry.means[slot(claimed)],
                );
                let base = vector::normalize(&mut base).is_ok().then_some(base);
                resolved[slot(claimed)] = Some((radius * (1.0 - self.inset).max(0.0), base));
            }
            let (r, base) = resolved[slot(claimed)].as_ref().expect("resolved above");

            dir.clear();
            match base {
                Some(base) => dir.extend_from_slice(base),
                None => {
                    // Coincident centroids: any direction works.
                    dir.resize(dim, 0.0);
                    dir[k % dim] = 1.0;
                }
            }
            // Orthogonalized jitter spreads points on the sphere cap.
            if self.jitter > 0.0 {
                noise.clear();
                noise.extend((0..dim).map(|_| standard_normal(rng)));
                let along = vector::dot(&noise, &dir);
                vector::axpy(-along, &dir, &mut noise);
                let noise_norm = vector::norm2(&noise);
                if noise_norm > 0.0 {
                    vector::axpy(self.jitter / noise_norm, &noise, &mut dir);
                    let _ = vector::normalize(&mut dir);
                }
            }
            point.clear();
            point.extend_from_slice(own);
            vector::axpy(*r, &dir, &mut point);
            poison.push(&point, claimed)?;
        }
        Ok(())
    }
}

impl AttackStrategy for BoundaryAttack {
    fn generate(
        &self,
        clean: &Dataset,
        n_points: usize,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<Dataset, AttackError> {
        let geometry = self.geometry(clean)?;
        let mut poison = Dataset::empty(clean.dim());
        self.place(&geometry, clean, n_points, rng, &mut poison)?;
        Ok(poison)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_data::synth::gaussian_blobs;
    use rand::SeedableRng;

    fn clean(seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        gaussian_blobs(100, 3, 4.0, 0.7, &mut rng)
    }

    #[test]
    fn points_land_at_requested_absolute_radius() {
        let data = clean(1);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let attack = BoundaryAttack::new(RadiusSpec::Absolute(5.0));
        let poison = attack.generate(&data, 20, &mut rng).unwrap();
        for (x, _) in poison.iter() {
            let center = global_centroid(&data, CentroidKind::CoordinateMedian).unwrap();
            let d = vector::euclidean_distance(x, &center);
            assert!((d - 5.0 * (1.0 - 1e-3)).abs() < 1e-9, "distance {d}");
        }
    }

    #[test]
    fn percentile_radius_respects_distance_distribution() {
        let data = clean(3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        // p = 0 → at the farthest genuine point's radius.
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.0));
        let poison = attack.generate(&data, 10, &mut rng).unwrap();
        for (x, _) in poison.iter() {
            let center = global_centroid(&data, CentroidKind::CoordinateMedian).unwrap();
            let dists = data.distances(&center);
            let max_genuine = dists.iter().copied().fold(0.0f64, f64::max);
            let d = vector::euclidean_distance(x, &center);
            assert!(d <= max_genuine + 1e-9);
            assert!(
                d > 0.5 * max_genuine,
                "poison too shallow: {d} vs {max_genuine}"
            );
        }
    }

    #[test]
    fn deeper_percentile_means_smaller_radius() {
        let data = clean(5);
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let shallow = BoundaryAttack::new(RadiusSpec::Percentile(0.05))
            .generate(&data, 4, &mut rng)
            .unwrap();
        let deep = BoundaryAttack::new(RadiusSpec::Percentile(0.4))
            .generate(&data, 4, &mut rng)
            .unwrap();
        let center = global_centroid(&data, CentroidKind::CoordinateMedian).unwrap();
        let d_shallow = vector::euclidean_distance(shallow.point(0), &center);
        let d_deep = vector::euclidean_distance(deep.point(0), &center);
        assert!(d_deep < d_shallow);
    }

    #[test]
    fn default_target_is_all_positive() {
        let data = clean(7);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let poison = BoundaryAttack::new(RadiusSpec::Percentile(0.1))
            .generate(&data, 10, &mut rng)
            .unwrap();
        assert_eq!(poison.class_count(Label::Positive), 10);
    }

    #[test]
    fn alternate_target_splits_labels() {
        let data = clean(7);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let poison = BoundaryAttack::new(RadiusSpec::Percentile(0.1))
            .with_target(TargetClass::Alternate)
            .generate(&data, 10, &mut rng)
            .unwrap();
        assert_eq!(poison.class_count(Label::Positive), 5);
        assert_eq!(poison.class_count(Label::Negative), 5);
        let neg_only = BoundaryAttack::new(RadiusSpec::Percentile(0.1))
            .with_target(TargetClass::Negative)
            .generate(&data, 4, &mut rng)
            .unwrap();
        assert_eq!(neg_only.class_count(Label::Negative), 4);
    }

    #[test]
    fn poison_points_toward_other_class() {
        let data = clean(9);
        let mut rng = Xoshiro256StarStar::seed_from_u64(10);
        let poison = BoundaryAttack::new(RadiusSpec::Percentile(0.05))
            .generate(&data, 6, &mut rng)
            .unwrap();
        for (x, y) in poison.iter() {
            let own = class_centroid(&data, y, CentroidKind::CoordinateMedian).unwrap();
            let other = class_centroid(&data, y.flipped(), CentroidKind::CoordinateMedian).unwrap();
            // The poison must be closer to the opposite centroid than
            // its own class centroid is.
            let own_to_other = vector::euclidean_distance(&own, &other);
            let poison_to_other = vector::euclidean_distance(x, &other);
            assert!(poison_to_other < own_to_other);
        }
    }

    #[test]
    fn parameter_validation() {
        let data = clean(11);
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        for bad in [
            RadiusSpec::Percentile(-0.1),
            RadiusSpec::Percentile(1.0),
            RadiusSpec::Absolute(-2.0),
            RadiusSpec::Absolute(f64::NAN),
        ] {
            let attack = BoundaryAttack::new(bad);
            assert!(
                attack.generate(&data, 2, &mut rng).is_err(),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn degenerate_clean_data_rejected() {
        let single = Dataset::from_rows(
            vec![vec![1.0, 1.0], vec![2.0, 2.0]],
            vec![Label::Positive, Label::Positive],
        )
        .unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.1));
        assert!(matches!(
            attack.generate(&single, 2, &mut rng).unwrap_err(),
            AttackError::DegenerateCleanData
        ));
    }

    #[test]
    fn poison_helper_appends_and_tracks_indices() {
        let data = clean(14);
        let mut rng = Xoshiro256StarStar::seed_from_u64(15);
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.1));
        let (combined, injected) = attack.poison(&data, 12, &mut rng).unwrap();
        assert_eq!(combined.len(), data.len() + 12);
        assert_eq!(injected.len(), 12);
        assert_eq!(injected[0], data.len());
        // Injected rows match a fresh generation? (Different rng state,
        // so just check the prefix is the clean data.)
        assert_eq!(combined.point(0), data.point(0));
    }

    #[test]
    fn zero_points_is_empty_dataset() {
        let data = clean(16);
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.1));
        let poison = attack.generate(&data, 0, &mut rng).unwrap();
        assert!(poison.is_empty());
    }
}
