//! Ablation bench: poison-synthesis throughput for each attack family.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use poisongame_attack::{
    AttackStrategy, BoundaryAttack, LabelFlipAttack, MixedRadiusAttack, RadiusSpec,
    RandomNoiseAttack,
};
use poisongame_bench::bench_dataset;
use poisongame_data::synth::SPAMBASE_ROWS;
use poisongame_data::Dataset;
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;
use std::hint::black_box;

/// The boundary attack and a three-radius mix over `data`, named with
/// `suffix`.
fn bench_radius_attacks(
    group: &mut BenchmarkGroup<'_>,
    suffix: &str,
    data: &Dataset,
    n_poison: usize,
) {
    group.bench_function(&format!("boundary{suffix}"), |b| {
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.05));
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(1);
            let poison = attack
                .generate(black_box(data), n_poison, &mut rng)
                .expect("attack generates");
            black_box(poison.len())
        })
    });

    group.bench_function(&format!("mixed_radius_3{suffix}"), |b| {
        let specs = [
            RadiusSpec::Percentile(0.05),
            RadiusSpec::Percentile(0.10),
            RadiusSpec::Percentile(0.20),
        ];
        let attack =
            MixedRadiusAttack::proportional(&specs, &[1.0; 3], n_poison).expect("valid weights");
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(2);
            let poison = attack
                .generate(black_box(data), n_poison, &mut rng)
                .expect("attack generates");
            black_box(poison.len())
        })
    });
}

fn bench_attacks(c: &mut Criterion) {
    let data = bench_dataset(1200);
    let n_poison = 240; // the 20 % budget at this scale
    let mut group = c.benchmark_group("attack_generation");

    bench_radius_attacks(&mut group, "", &data, n_poison);
    // Full Spambase scale with its 20 % budget: the scale the Table 1
    // pipeline runs at, where resolving the radius per point cost
    // ~0.3 s a call.
    let spambase = bench_dataset(SPAMBASE_ROWS);
    bench_radius_attacks(&mut group, "_4601", &spambase, SPAMBASE_ROWS / 5);

    group.bench_function("label_flip", |b| {
        let attack = LabelFlipAttack::new();
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(3);
            let poison = attack
                .generate(black_box(&data), n_poison, &mut rng)
                .expect("attack generates");
            black_box(poison.len())
        })
    });

    group.bench_function("random_noise", |b| {
        let attack = RandomNoiseAttack::new();
        b.iter(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(4);
            let poison = attack
                .generate(black_box(&data), n_poison, &mut rng)
                .expect("attack generates");
            black_box(poison.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_attacks);
criterion_main!(benches);
