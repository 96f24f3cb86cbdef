//! Golden-path regression: the default [`Scenario`] through the new
//! spec-dispatch path must produce **bit-identical** `EvalOutcome`
//! metrics to the pre-redesign hardcoded pipeline (boundary attack →
//! radius filter → linear SVM) at the same seed. The old pipeline is
//! replicated inline here, frozen at its PR-1 form, so any drift in
//! the dispatch layer fails this file rather than silently changing
//! the paper reproduction.

use poisongame_attack::{AttackStrategy, BoundaryAttack, RadiusSpec};
use poisongame_defense::{Filter, FilterStrength, RadiusFilter};
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_ml::svm::LinearSvm;
use poisongame_ml::Classifier;
use poisongame_sim::pipeline::{
    filter_train_eval, hugging_placement, prepare, run_cell, DataSource, EvalOutcome,
    ExperimentConfig, Prepared,
};
use poisongame_sim::scenario::Scenario;
use rand::SeedableRng;

fn config() -> ExperimentConfig {
    ExperimentConfig {
        seed: 0x60_1DE4, // golden
        source: DataSource::SyntheticSpambase { rows: 500 },
        epochs: 35,
        ..ExperimentConfig::paper()
    }
}

/// The hardcoded filter → train → evaluate loop exactly as it stood
/// before the scenario redesign (`pipeline.rs:220-237` at PR 1).
fn old_filter_train_eval(
    train: &poisongame_data::Dataset,
    poison_indices: &[usize],
    test: &poisongame_data::Dataset,
    strength: FilterStrength,
    config: &ExperimentConfig,
) -> EvalOutcome {
    let filter = RadiusFilter::new(strength, config.centroid);
    let outcome = filter.split(train).expect("filter runs");
    let kept = outcome.kept_dataset(train);
    let mut svm = LinearSvm::new(config.train_config());
    svm.fit(&kept).expect("svm trains");
    EvalOutcome {
        accuracy: svm.accuracy_on(test),
        accounting: outcome.account(poison_indices),
        removed_fraction: outcome.removed_fraction(train),
    }
}

/// The hardcoded attack → filter → train → evaluate loop exactly as it
/// stood before the redesign (`pipeline.rs:258-268` at PR 1).
fn old_attack_filter_train_eval(
    prepared: &Prepared,
    placement: f64,
    strength: FilterStrength,
    config: &ExperimentConfig,
    rng: &mut Xoshiro256StarStar,
) -> EvalOutcome {
    let attack = BoundaryAttack::new(RadiusSpec::Percentile(placement));
    let (poisoned, injected) = attack
        .poison(prepared.train(), prepared.n_poison, rng)
        .expect("attack runs");
    old_filter_train_eval(&poisoned, &injected, prepared.test(), strength, config)
}

fn assert_bit_identical(new: &EvalOutcome, old: &EvalOutcome, context: &str) {
    assert_eq!(
        new.accuracy.to_bits(),
        old.accuracy.to_bits(),
        "{context}: accuracy diverged ({} vs {})",
        new.accuracy,
        old.accuracy
    );
    assert_eq!(
        new.removed_fraction.to_bits(),
        old.removed_fraction.to_bits(),
        "{context}: removed fraction diverged"
    );
    assert_eq!(
        new.accounting, old.accounting,
        "{context}: accounting diverged"
    );
}

#[test]
fn default_scenario_clean_path_matches_hardcoded_pipeline() {
    let config = config();
    assert_eq!(config.scenario, Scenario::paper());
    let prepared = prepare(&config).unwrap();
    for theta in [0.0, 0.08, 0.25] {
        let strength = FilterStrength::RemoveFraction(theta);
        let new = filter_train_eval(
            prepared.train(),
            &[],
            prepared.test(),
            strength,
            &config.scenario,
            &config,
        )
        .expect("dispatch path runs");
        let old = old_filter_train_eval(prepared.train(), &[], prepared.test(), strength, &config);
        assert_bit_identical(&new, &old, &format!("clean θ={theta}"));
    }
}

#[test]
fn default_scenario_attack_path_matches_hardcoded_pipeline() {
    let config = config();
    let prepared = prepare(&config).unwrap();
    for (seed, theta) in [(11u64, 0.05), (13, 0.15), (17, 0.30)] {
        let placement = hugging_placement(&prepared, theta, 0.01);
        let strength = FilterStrength::RemoveFraction(theta);

        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let new = run_cell(
            &prepared,
            &config.scenario,
            placement,
            strength,
            &config,
            &mut rng,
        )
        .expect("dispatch path runs");

        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let old = old_attack_filter_train_eval(&prepared, placement, strength, &config, &mut rng);

        assert_bit_identical(&new, &old, &format!("attacked θ={theta} seed={seed}"));
    }
}

/// The engine's cached preparation + copy-on-write poisoned views
/// must reproduce the pre-engine clone-based hardcoded pipeline bit
/// for bit — preparing via the store and reading the training set
/// through a `PoisonedView` are pure plumbing changes.
#[test]
fn engine_cells_match_pre_engine_hardcoded_pipeline() {
    let config = config();
    let engine = poisongame_sim::engine::EvalEngine::new();
    // Two prepares: one miss, one hit — both must be the same data the
    // cold `prepare` builds.
    let prepared = engine.prepare(&config).unwrap();
    let again = engine.prepare(&config).unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&prepared.data, &again.data),
        "prepare must share one Arc"
    );
    let cold = prepare(&config).unwrap();
    assert_eq!(*prepared.data, *cold.data, "cached prep differs from cold");
    assert_eq!(prepared.n_poison, cold.n_poison);

    for (seed, theta) in [(11u64, 0.05), (13, 0.15), (17, 0.30)] {
        let placement = hugging_placement(&prepared, theta, 0.01);
        let strength = FilterStrength::RemoveFraction(theta);

        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let new = run_cell(
            &prepared,
            &Scenario::default(),
            placement,
            strength,
            &config,
            &mut rng,
        )
        .expect("engine-prepared cell runs");

        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let old = old_attack_filter_train_eval(&cold, placement, strength, &config, &mut rng);

        assert_bit_identical(&new, &old, &format!("engine cell θ={theta} seed={seed}"));
    }
}

#[test]
fn poison_budget_unchanged_by_threat_model_refactor() {
    // `prepare` validates the budget once via `ThreatModel::new`; the
    // derived count must match the direct `budget_points` query (the
    // numbers the deprecated-and-removed `poison_count` produced).
    let config = config();
    let prepared = prepare(&config).unwrap();
    assert_eq!(
        prepared.n_poison,
        config.threat_model().budget_points(prepared.train().len())
    );
    assert_eq!(
        prepared.n_poison,
        (prepared.train().len() as f64 * 0.2).round() as usize
    );
}
