//! Golden digest of training and of the experiments built on it.
//!
//! Every other fit test compares two paths of the current code or
//! checks an accuracy bar, so a change that moved every weight by one
//! ulp would pass them all. This test pins one FNV-1a digest, recorded
//! before the learners' training loops were consolidated, over:
//!
//! - `to_bits` of the weights and bias of every cold `fit` of the three
//!   learners (SVM, logistic regression, averaged perceptron), across
//!   the `Constant`, `InverseScaling` and `Pegasos` schedules, with
//!   `fit_bias` on and off, at λ ∈ {0, 1e-4, 4} (λ = 4 makes the L2
//!   shrink factor non-positive, so the shrink step is skipped), on an
//!   owned dataset and on a copy-on-write poisoned view;
//! - the `Debug` form of every fit error: an empty set, a single-class
//!   set, zero epochs and a bad λ;
//! - the `EvalEngine` experiments `run_fig1`, `estimate_curves`,
//!   `run_table1` and a 4 attacks × 3 filters × 3 learners
//!   `run_matrix` at quick scale (400 rows,
//!   30 epochs).
//!
//! Any change to these outputs must be deliberate: it changes every
//! recorded experiment downstream.

use poisongame_data::synth::{gaussian_blobs, spambase_like, SpambaseConfig};
use poisongame_data::{DataView, Dataset, Label, PoisonedView};
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_ml::logreg::LogisticRegression;
use poisongame_ml::perceptron::AveragedPerceptron;
use poisongame_ml::schedule::Schedule;
use poisongame_ml::svm::LinearSvm;
use poisongame_ml::{Classifier, MlError, TrainConfig};
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::fig1::Fig1Config;
use poisongame_sim::pipeline::{DataSource, EvalOutcome, ExperimentConfig};
use poisongame_sim::scenario::{AttackSpec, DefenseSpec, LearnerSpec, ScenarioMatrix};
use rand::SeedableRng;

/// Digest of the fit grid below, recorded on the per-learner loops.
const GOLDEN_FIT: u64 = 0x3651_f5eb_b41f_2712;

/// Digest of the experiment outputs below, recorded on the same code.
const GOLDEN_EXPERIMENTS: u64 = 0x5ac8_32ba_b557_9f24;

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

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn fit(&mut self, model: &dyn Classifier, outcome: Result<(), MlError>) {
        match outcome {
            Ok(()) => {
                let state = model.linear_state().expect("fitted linear model");
                self.u64(0);
                self.u64(state.weights.len() as u64);
                for &w in &state.weights {
                    self.f64(w);
                }
                self.f64(state.bias);
            }
            Err(e) => {
                self.u64(1);
                self.bytes(format!("{e:?}").as_bytes());
            }
        }
    }

    fn outcome(&mut self, o: &EvalOutcome) {
        self.f64(o.accuracy);
        self.f64(o.removed_fraction);
        let a = &o.accounting;
        for count in [
            a.poison_removed,
            a.poison_kept,
            a.genuine_removed,
            a.genuine_kept,
        ] {
            self.u64(count as u64);
        }
    }
}

fn learners(config: &TrainConfig) -> [Box<dyn Classifier>; 3] {
    [
        Box::new(LinearSvm::new(config.clone())),
        Box::new(LogisticRegression::new(config.clone())),
        Box::new(AveragedPerceptron::new(config.clone())),
    ]
}

/// Training sets: separable blobs, a sparse Spambase-schema sample,
/// and the blobs seen through a poisoned view (borrowed base plus an
/// owned tail of flipped copies).
fn train_sets() -> (Dataset, Dataset, Dataset) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xf17);
    let blobs = gaussian_blobs(40, 5, 2.0, 0.9, &mut rng);
    let spam = spambase_like(&SpambaseConfig::small(120), &mut rng);
    let tail_rows: Vec<Vec<f64>> = (0..12).map(|i| blobs.point(i).to_vec()).collect();
    let tail_labels: Vec<Label> = (0..12)
        .map(|i| match blobs.label(i) {
            Label::Positive => Label::Negative,
            Label::Negative => Label::Positive,
        })
        .collect();
    let tail = Dataset::from_rows(tail_rows, tail_labels).unwrap();
    (blobs, spam, tail)
}

const SCHEDULES: [Schedule; 3] = [
    Schedule::Constant { eta0: 0.05 },
    Schedule::InverseScaling {
        eta0: 0.5,
        power: 0.6,
    },
    Schedule::Pegasos { lambda: 0.01 },
];

fn fit_digest() -> (u64, usize, usize) {
    let (blobs, spam, tail) = train_sets();
    let poisoned = PoisonedView::new(&blobs, tail).unwrap();
    let views: [&dyn DataView; 3] = [&blobs, &spam, &poisoned];
    let mut h = Fnv::new();
    let mut cases = 0usize;
    let mut errors = 0usize;
    let mut record = |h: &mut Fnv, config: &TrainConfig, data: &dyn DataView| {
        for mut model in learners(config) {
            let outcome = model.fit(data);
            cases += 1;
            errors += usize::from(outcome.is_err());
            h.fit(model.as_ref(), outcome);
        }
    };

    for data in views {
        for schedule in SCHEDULES {
            for fit_bias in [true, false] {
                for lambda in [0.0, 1e-4, 4.0] {
                    let config = TrainConfig {
                        epochs: 6,
                        lambda,
                        schedule,
                        seed: 0x5eed ^ lambda.to_bits(),
                        fit_bias,
                    };
                    record(&mut h, &config, data);
                }
            }
        }
    }

    // Error paths. The perceptron ignores λ, so a bad λ fits for it.
    let single = Dataset::from_rows(
        vec![vec![1.0, 2.0], vec![2.0, 3.0]],
        vec![Label::Positive, Label::Positive],
    )
    .unwrap();
    let quick = TrainConfig {
        epochs: 4,
        ..TrainConfig::default()
    };
    record(&mut h, &quick, &Dataset::empty(3));
    record(&mut h, &quick, &single);
    let zero_epochs = TrainConfig {
        epochs: 0,
        ..quick.clone()
    };
    record(&mut h, &zero_epochs, &blobs);
    for lambda in [-1.0, f64::NAN, f64::INFINITY] {
        let bad_lambda = TrainConfig {
            lambda,
            ..quick.clone()
        };
        record(&mut h, &bad_lambda, &blobs);
    }
    (h.0, cases, errors)
}

fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        seed: 0x60_1d,
        source: DataSource::SyntheticSpambase { rows: 400 },
        epochs: 30,
        ..ExperimentConfig::paper()
    }
}

fn experiments_digest() -> u64 {
    let config = quick_config();
    let engine = EvalEngine::new();
    let mut h = Fnv::new();

    let fig1 = engine
        .run_fig1(
            &config,
            &Fig1Config {
                strengths: vec![0.0, 0.05, 0.15, 0.30],
                placement_slack: 0.01,
            },
        )
        .unwrap();
    h.f64(fig1.baseline_accuracy);
    h.u64(fig1.n_poison as u64);
    for row in &fig1.rows {
        h.f64(row.removed_fraction);
        h.f64(row.accuracy_under_attack);
        h.f64(row.accuracy_clean);
        h.f64(row.poison_recall);
    }

    let curves = engine
        .estimate_curves(&config, &[0.02, 0.10, 0.25], &[0.0, 0.10, 0.25])
        .unwrap();
    h.f64(curves.baseline_accuracy);
    for &(x, y) in curves.effect_samples.iter().chain(&curves.cost_samples) {
        h.f64(x);
        h.f64(y);
    }

    let best_pure = fig1.best_pure().accuracy_under_attack;
    let table1 = engine
        .run_table1(&config, &curves, &[1, 2, 3], best_pure)
        .unwrap();
    h.f64(table1.baseline_accuracy);
    h.f64(table1.best_pure_accuracy);
    for row in &table1.rows {
        h.u64(row.n_radii as u64);
        for &v in row.support.iter().chain(&row.probabilities) {
            h.f64(v);
        }
        h.f64(row.predicted_accuracy);
        h.f64(row.empirical_accuracy);
        h.f64(row.attacker_placement);
    }

    let matrix = ScenarioMatrix {
        attacks: vec![
            AttackSpec::Boundary,
            AttackSpec::MixedRadius {
                offsets: vec![0.0, 0.1],
                weights: vec![0.6, 0.4],
            },
            AttackSpec::LabelFlip,
            AttackSpec::RandomNoise,
        ],
        defenses: vec![
            DefenseSpec::Radius,
            DefenseSpec::Knn { k: 5 },
            DefenseSpec::Slab,
        ],
        learners: vec![
            LearnerSpec::Svm,
            LearnerSpec::LogReg,
            LearnerSpec::Perceptron,
        ],
        strength: 0.15,
        placement_slack: 0.01,
    };
    let results = engine.run_matrix(&config, &matrix).unwrap();
    assert_eq!(results.cells.len(), 36);
    h.f64(results.baseline_accuracy);
    h.u64(results.n_poison as u64);
    for cell in &results.cells {
        h.u64(cell.cell_seed);
        h.outcome(&cell.outcome);
    }
    h.0
}

#[test]
fn fits_match_recorded_digest() {
    let (digest, cases, errors) = fit_digest();
    // 3 views × 3 schedules × 2 bias settings × 3 λ, three learners
    // each, plus six error probes per learner.
    assert_eq!(cases, 3 * (3 * 3 * 2 * 3 + 6));
    // Empty, single-class and zero-epoch fail for all three; each bad
    // λ fails for the SVM and logistic regression only.
    assert_eq!(errors, 3 * 3 + 3 * 2);
    assert_eq!(digest, GOLDEN_FIT, "fit digest drifted: {digest:#018x}");
}

#[test]
fn experiments_match_recorded_digest() {
    let digest = experiments_digest();
    assert_eq!(
        digest, GOLDEN_EXPERIMENTS,
        "experiment digest drifted: {digest:#018x}"
    );
}
