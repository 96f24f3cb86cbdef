//! Bench: regenerating Figure 1 (pure-strategy sweep).
//!
//! Measures one sweep point (attack + filter + train + eval) and the
//! full reduced sweep, at bench scale.

use criterion::{criterion_group, criterion_main, Criterion};
use poisongame_bench::bench_experiment_config;
use poisongame_defense::FilterStrength;
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::fig1::Fig1Config;
use poisongame_sim::pipeline::{prepare, run_cell};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fig1(c: &mut Criterion) {
    let config = bench_experiment_config();
    let prepared = prepare(&config).expect("pipeline prepares");

    let mut group = c.benchmark_group("fig1");
    group.sample_size(10);

    group.bench_function("single_sweep_point", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(7);
            let out = run_cell(
                &prepared,
                &config.scenario,
                black_box(0.12),
                FilterStrength::RemoveFraction(0.10),
                &config,
                &mut rng,
            )
            .expect("sweep point runs");
            black_box(out.accuracy)
        })
    });

    group.bench_function("reduced_full_sweep", |b| {
        let sweep = Fig1Config {
            strengths: vec![0.0, 0.10, 0.25],
            placement_slack: 0.01,
        };
        // A fresh engine per iteration: every sweep pays for its own
        // preparation, like a cold run.
        b.iter(|| {
            let r = EvalEngine::new()
                .run_fig1(&config, &sweep)
                .expect("sweep runs");
            black_box(r.baseline_accuracy)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
