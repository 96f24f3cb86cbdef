//! Bench: what does the telemetry layer cost?
//!
//! Two questions, two groups:
//!
//! * **record** — the hot-path primitives in isolation: one histogram
//!   `record`, one counter `inc`, one full request-style record (two
//!   histograms + a counter). These run on every served request, so
//!   their budget is tens of nanoseconds, not microseconds.
//! * **grid24** — the canonical 24-cell evaluation grid (4 attacks ×
//!   3 defenses × 2 learners) through the instrumented pipeline. Run
//!   this bench
//!   twice — `cargo bench --bench obs_overhead` and the same with
//!   `--features obs-noop` (which compiles every obs recording call to
//!   a no-op workspace-wide) — and compare: the instrumented grid must
//!   stay within low single-digit percent of the no-op build. The
//!   grid's accuracy checksum is asserted every iteration, so both
//!   builds provably compute the same work.
//!
//! With `--test` both groups run one sample each, which is the CI
//! smoke: instrumentation compiling, recording, and not panicking.

use criterion::{criterion_group, criterion_main, Criterion};
use poisongame_obs::{EventLog, Registry};
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::pipeline::{DataSource, ExperimentConfig};
use poisongame_sim::scenario::ScenarioMatrix;
use std::hint::black_box;

fn bench_record(c: &mut Criterion) {
    let registry = Registry::new();
    let hist = registry.histogram(
        "bench_lat_nanos",
        "isolated record cost",
        &[("kind", "cell")],
    );
    let queue = registry.histogram(
        "bench_queue_nanos",
        "isolated record cost",
        &[("kind", "cell")],
    );
    let counter = registry.counter("bench_total", "isolated inc cost", &[("kind", "cell")]);

    let mut group = c.benchmark_group("obs_record");
    let mut value = 1u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(value >> 32));
        })
    });
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    // The per-request shape: duration + queue wait + completion count,
    // i.e. what `execute()` adds to every served evaluation.
    group.bench_function("request_record", |b| {
        b.iter(|| {
            value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(value >> 32));
            queue.record(black_box(value >> 40));
            counter.inc();
        })
    });
    group.finish();

    // Keep the registry (and its counts) observable so the work above
    // cannot be optimized away wholesale.
    let snapshot = registry.snapshot();
    black_box(snapshot.counter_total("bench_total"));
}

/// The canonical 24-cell grid (same shape as
/// `examples/scenario_matrix.rs`): all four attacks, all three
/// defenses, two learners — instrumented end to end; the
/// pipeline-phase counters are the live part of the recording here.
const GRID_SPEC: &str = r#"{
    "attacks": [
        {"type": "boundary"},
        {"type": "mixed_radius", "offsets": [0.0, 0.1], "weights": [0.6, 0.4]},
        {"type": "label_flip"},
        {"type": "random_noise"}
    ],
    "defenses": [
        {"type": "radius"},
        {"type": "knn", "k": 5},
        {"type": "slab"}
    ],
    "learners": [
        {"type": "svm"},
        {"type": "logreg"}
    ],
    "strength": 0.15,
    "placement_slack": 0.01
}"#;

fn grid24(seed: u64) -> f64 {
    let config = ExperimentConfig {
        seed,
        source: DataSource::SyntheticSpambase { rows: 300 },
        epochs: 20,
        ..ExperimentConfig::paper()
    };
    let matrix = ScenarioMatrix::from_json_str(GRID_SPEC).expect("grid spec parses");
    let results = EvalEngine::new()
        .run_matrix(&config, &matrix)
        .expect("grid runs");
    assert_eq!(
        results.cells.len(),
        24,
        "4 attacks x 3 defenses x 2 learners"
    );
    results.cells.iter().map(|cell| cell.outcome.accuracy).sum()
}

fn bench_grid(c: &mut Criterion) {
    // Pin the checksum across both builds: instrumentation must never
    // change a result, only (slightly) the wall-clock.
    let reference = grid24(3).to_bits();
    let again = grid24(3).to_bits();
    assert_eq!(again, reference, "grid must be deterministic per seed");

    let mut group = c.benchmark_group("obs_grid24");
    group.sample_size(10);
    group.bench_function(
        if cfg!(feature = "obs-noop") {
            "noop_build"
        } else {
            "instrumented"
        },
        |b| {
            b.iter(|| {
                let total = grid24(3);
                assert_eq!(total.to_bits(), reference, "telemetry changed a result");
                black_box(total)
            })
        },
    );
    group.finish();

    // The instrumented build must actually have recorded phase time;
    // the noop build must not. This pins the `noop` feature's contract
    // from the consuming side.
    let phase_total = Registry::global()
        .snapshot()
        .counter_total("poisongame_phase_micros_total");
    if cfg!(feature = "obs-noop") {
        assert_eq!(phase_total, 0, "noop build must record nothing");
    } else {
        assert!(phase_total > 0, "instrumented build must record phase time");
    }
    // Events survive too (or are compiled out) without panicking.
    let replay = EventLog::global().since(0);
    black_box(replay.last_seq);
}

criterion_group!(benches, bench_record, bench_grid);
criterion_main!(benches);
