//! Golden digest of the radius-placement attacks.
//!
//! Every other attack test compares two paths of the current code, so
//! a change that moved every poison coordinate would pass them all.
//! This test pins one FNV-1a digest, recorded before the boundary
//! attack's geometry was hoisted out of its per-point loop, over:
//!
//! - `to_bits` of every poison coordinate and every claimed label,
//! - the `Debug` form of every error returned,
//! - `rng.next_raw()` after each call, so the number and order of RNG
//!   draws are pinned too (error paths included).
//!
//! The grid is radius spec × target × anchor × centroid × budget
//! `n ∈ {0, 1, 20 %}` on three datasets (Gaussian blobs, a sparse
//! Spambase-schema sample, and a set whose class means coincide so
//! the fallback push direction runs), plus inset/jitter overrides,
//! single-class data and [`MixedRadiusAttack`] with 2 and 3
//! allocations. Any change to these outputs must be deliberate: it
//! changes every Boundary/MixedRadius result downstream.

use poisongame_attack::{
    AnchorScope, AttackError, AttackStrategy, BoundaryAttack, CentroidKind, MixedRadiusAttack,
    RadiusAllocation, RadiusSpec, TargetClass,
};
use poisongame_data::synth::{gaussian_blobs, spambase_like, SpambaseConfig};
use poisongame_data::{Dataset, Label};
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;

/// Digest of the full grid below, recorded on the per-point-resolve
/// implementation.
const GOLDEN: u64 = 0xad3b_4ea1_a77d_58dd;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn outcome(&mut self, outcome: &Result<Dataset, AttackError>, rng: &mut Xoshiro256StarStar) {
        match outcome {
            Ok(poison) => {
                self.u64(0);
                self.u64(poison.len() as u64);
                self.u64(poison.dim() as u64);
                for (x, y) in poison.iter() {
                    for v in x {
                        self.u64(v.to_bits());
                    }
                    self.u64(u64::from(y == Label::Positive));
                }
            }
            Err(e) => {
                self.u64(1);
                self.bytes(format!("{e:?}").as_bytes());
            }
        }
        self.u64(rng.next_raw());
    }
}

fn datasets() -> Vec<Dataset> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed);
    let blobs = gaussian_blobs(60, 4, 3.0, 0.8, &mut rng);
    let spam = spambase_like(&SpambaseConfig::small(150), &mut rng);
    // Both class means sit at the origin, so the push direction cannot
    // be normalized and the per-point fallback axis is used.
    let coincident = Dataset::from_rows(
        vec![
            vec![1.0, 0.0, 0.5],
            vec![-1.0, 0.0, -0.5],
            vec![0.0, 2.0, 0.0],
            vec![0.0, -2.0, 0.0],
            vec![3.0, 1.0, 0.0],
            vec![-3.0, -1.0, 0.0],
        ],
        vec![
            Label::Positive,
            Label::Positive,
            Label::Negative,
            Label::Negative,
            Label::Positive,
            Label::Positive,
        ],
    )
    .unwrap();
    vec![blobs, spam, coincident]
}

const SPECS: [RadiusSpec; 6] = [
    RadiusSpec::Percentile(0.0),
    RadiusSpec::Percentile(0.1),
    RadiusSpec::Percentile(0.45),
    RadiusSpec::Absolute(1.5),
    RadiusSpec::Percentile(1.0),
    RadiusSpec::Absolute(f64::NAN),
];

const TARGETS: [TargetClass; 3] = [
    TargetClass::Positive,
    TargetClass::Negative,
    TargetClass::Alternate,
];

const ANCHORS: [AnchorScope; 2] = [AnchorScope::Global, AnchorScope::PerClass];

const CENTROIDS: [CentroidKind; 2] = [CentroidKind::CoordinateMedian, CentroidKind::Mean];

fn budgets(data: &Dataset) -> [usize; 3] {
    // 20 % of the clean set, and at least a few points past `dim` so
    // the fallback axis wraps on the small coincident set.
    [0, 1, (data.len() / 5).max(data.dim() + 2)]
}

fn grid_digest() -> (u64, usize, usize) {
    let mut h = Fnv::new();
    let mut cases = 0usize;
    let mut errors = 0usize;
    let mut seed = 1u64;
    let mut record = |h: &mut Fnv, attack: &dyn AttackStrategy, data: &Dataset, n: usize| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        seed += 1;
        let outcome = attack.generate(data, n, &mut rng);
        cases += 1;
        errors += usize::from(outcome.is_err());
        h.outcome(&outcome, &mut rng);
    };

    for data in datasets() {
        for spec in SPECS {
            for target in TARGETS {
                for anchor in ANCHORS {
                    for centroid in CENTROIDS {
                        for n in budgets(&data) {
                            let attack = BoundaryAttack::new(spec)
                                .with_target(target)
                                .with_anchor(anchor)
                                .with_centroid(centroid);
                            record(&mut h, &attack, &data, n);
                        }
                    }
                }
            }
        }
        // Inset and jitter overrides, including jitter off (no draws).
        for (inset, jitter) in [(0.0, 0.0), (0.05, 0.0), (0.0, 0.3), (2.0, 0.05)] {
            for anchor in ANCHORS {
                let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.2))
                    .with_target(TargetClass::Alternate)
                    .with_anchor(anchor)
                    .with_inset(inset)
                    .with_jitter(jitter);
                record(&mut h, &attack, &data, budgets(&data)[2]);
            }
        }
        // Mixed attacks: 2 and 3 allocations, a zero-count allocation,
        // an invalid spec mid-list, and a budget mismatch.
        let mixes: [Vec<(RadiusSpec, usize)>; 4] = [
            vec![
                (RadiusSpec::Percentile(0.05), 7),
                (RadiusSpec::Percentile(0.3), 5),
            ],
            vec![
                (RadiusSpec::Percentile(0.0), 4),
                (RadiusSpec::Absolute(2.5), 0),
                (RadiusSpec::Percentile(0.2), 9),
            ],
            vec![
                (RadiusSpec::Percentile(0.1), 3),
                (RadiusSpec::Percentile(-0.5), 2),
                (RadiusSpec::Absolute(1.0), 4),
            ],
            vec![
                (RadiusSpec::Absolute(3.0), 6),
                (RadiusSpec::Percentile(0.4), 6),
            ],
        ];
        for mix in &mixes {
            let allocations: Vec<RadiusAllocation> = mix
                .iter()
                .map(|&(spec, count)| RadiusAllocation { spec, count })
                .collect();
            let attack = MixedRadiusAttack::new(allocations);
            record(&mut h, &attack, &data, attack.total_count());
        }
        let mismatch = MixedRadiusAttack::new(vec![RadiusAllocation {
            spec: RadiusSpec::Percentile(0.1),
            count: 3,
        }]);
        record(&mut h, &mismatch, &data, 4);
    }

    // A clean set missing a class.
    let single = Dataset::from_rows(
        vec![vec![1.0, 1.0], vec![2.0, 2.0]],
        vec![Label::Positive, Label::Positive],
    )
    .unwrap();
    for n in [0, 2] {
        record(
            &mut h,
            &BoundaryAttack::new(RadiusSpec::Percentile(0.1)),
            &single,
            n,
        );
        let mixed = MixedRadiusAttack::new(vec![RadiusAllocation {
            spec: RadiusSpec::Percentile(0.1),
            count: n,
        }]);
        record(&mut h, &mixed, &single, n);
    }
    (h.0, cases, errors)
}

#[test]
fn radius_attacks_match_recorded_digest() {
    let (digest, cases, errors) = grid_digest();
    assert_eq!(cases, 3 * (6 * 3 * 2 * 2 * 3 + 8 + 5) + 4);
    // Two invalid specs × 3 targets × 2 anchors × 2 centroids × the two
    // non-zero budgets, per dataset; one invalid mix and one mismatch
    // per dataset; and on the single-class set, both Boundary calls
    // (classes are checked before the budget) and the mix with n = 2.
    assert_eq!(errors, 3 * (2 * 3 * 2 * 2 * 2 + 2) + 3);
    assert_eq!(
        digest, GOLDEN,
        "radius-attack digest drifted: {digest:#018x}"
    );
}
