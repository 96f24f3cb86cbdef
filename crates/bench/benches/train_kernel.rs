//! Bench: the training loop. Two measurements:
//!
//! * **fit** — one 100-epoch `fit` of the linear SVM and of logistic
//!   regression on synthetic Spambase at several dataset sizes. Both
//!   learners run the same row-at-a-time SGD loop, each with its own
//!   loss step.
//! * **matrix24** — the 24-cell scenario grid end to end through
//!   [`EvalEngine`]: per cell, attack → filter → fit → held-out
//!   evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poisongame_bench::{bench_dataset, bench_experiment_config};
use poisongame_ml::logreg::LogisticRegression;
use poisongame_ml::svm::LinearSvm;
use poisongame_ml::{Classifier, TrainConfig};
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::scenario::ScenarioMatrix;
use std::hint::black_box;

/// 4 attacks × 2 defenses × 3 learners = 24 cells — the same grid the
/// `prep_cache` bench uses, so engine-level numbers are comparable.
const SPEC: &str = r#"{
    "attacks": [
        {"type": "boundary"},
        {"type": "mixed_radius", "offsets": [0.0, 0.1], "weights": [0.6, 0.4]},
        {"type": "label_flip"},
        {"type": "random_noise"}
    ],
    "defenses": [
        {"type": "radius"},
        {"type": "slab"}
    ],
    "learners": [
        {"type": "svm"},
        {"type": "logreg"},
        {"type": "perceptron"}
    ],
    "strength": 0.15,
    "placement_slack": 0.01
}"#;

fn fit_config() -> TrainConfig {
    TrainConfig {
        epochs: 100,
        ..TrainConfig::default()
    }
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_kernel/fit");
    group.sample_size(10);

    for rows in [300usize, 1200, 4800] {
        let data = bench_dataset(rows);
        group.bench_with_input(BenchmarkId::new("row_sgd", rows), &data, |b, data| {
            b.iter(|| {
                let mut svm = LinearSvm::new(fit_config());
                svm.fit(black_box(data)).expect("training succeeds");
                black_box(svm.bias())
            })
        });
        group.bench_with_input(BenchmarkId::new("logreg", rows), &data, |b, data| {
            b.iter(|| {
                let mut model = LogisticRegression::new(fit_config());
                model.fit(black_box(data)).expect("training succeeds");
                black_box(model.bias())
            })
        });
    }
    group.finish();
}

fn bench_matrix24(c: &mut Criterion) {
    let config = bench_experiment_config();
    let matrix = ScenarioMatrix::from_json_str(SPEC).expect("spec parses");
    assert_eq!(matrix.len(), 24);

    let mut group = c.benchmark_group("train_kernel/matrix24");
    group.sample_size(10);
    group.bench_function("row_sgd", |b| {
        b.iter(|| {
            let results = EvalEngine::new()
                .run_matrix(&config, &matrix)
                .expect("grid runs");
            black_box(
                results
                    .cells
                    .iter()
                    .map(|c| c.outcome.accuracy)
                    .sum::<f64>(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fit, bench_matrix24);
criterion_main!(benches);
