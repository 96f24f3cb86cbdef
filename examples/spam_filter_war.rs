//! Domain scenario: a spam-filter operator under an adaptive poisoning
//! campaign — the workload the paper's introduction motivates.
//!
//! Compares four defensive postures against an attacker who always
//! best-responds:
//!
//! 1. no sanitization,
//! 2. a fixed (pure) filter published in the operator's runbook,
//! 3. the same filter with the attacker unaware (security through
//!    obscurity — what the pure-strategy literature assumes),
//! 4. the mixed-strategy equilibrium defense from Algorithm 1.
//!
//! ```sh
//! cargo run --release --example spam_filter_war
//! ```

use poisongame::core::{Algorithm1, Algorithm1Config};
use poisongame::defense::FilterStrength;
use poisongame::linalg::Xoshiro256StarStar;
use poisongame::sim::estimate::{default_placements, default_strengths};
use poisongame::sim::pipeline::{filter_train_eval, hugging_placement, run_cell, ExperimentConfig};
use poisongame::sim::table1::evaluate_mixed_defense_prepared;
use poisongame::sim::EvalEngine;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ExperimentConfig::paper().quick();
    // One engine prepares the corpus once; every posture below reuses it.
    let engine = EvalEngine::new();
    let prepared = engine.prepare(&config)?;
    println!("== the spam-filter war ==");
    println!(
        "mail corpus: {} train / {} test, attacker forges {} messages (20%)\n",
        prepared.train().len(),
        prepared.test().len(),
        prepared.n_poison
    );

    // Posture 1 — no sanitization: the attacker parks poison at the
    // very edge of the data.
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed ^ 1);
    let no_defense = run_cell(
        &prepared,
        &config.scenario,
        0.01,
        FilterStrength::RemoveFraction(0.0),
        &config,
        &mut rng,
    )?;
    let clean = filter_train_eval(
        prepared.train(),
        &[],
        prepared.test(),
        FilterStrength::RemoveFraction(0.0),
        &config.scenario,
        &config,
    )?;
    println!(
        "clean accuracy (no attack):            {:.4}",
        clean.accuracy
    );
    println!(
        "1. no sanitization, attacked:          {:.4}",
        no_defense.accuracy
    );

    // Posture 2 — fixed filter, attacker reads the runbook and hugs it.
    let theta = 0.15;
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed ^ 2);
    let hugged = run_cell(
        &prepared,
        &config.scenario,
        hugging_placement(&prepared, theta, 0.01),
        FilterStrength::RemoveFraction(theta),
        &config,
        &mut rng,
    )?;
    println!(
        "2. fixed 15% filter, attacker aware:   {:.4} (poison caught: {:.0}%)",
        hugged.accuracy,
        hugged.accounting.poison_recall() * 100.0
    );

    // Posture 3 — same filter, oblivious attacker (places at the edge).
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed ^ 3);
    let oblivious = run_cell(
        &prepared,
        &config.scenario,
        0.01,
        FilterStrength::RemoveFraction(theta),
        &config,
        &mut rng,
    )?;
    println!(
        "3. fixed 15% filter, attacker unaware: {:.4} (poison caught: {:.0}%)",
        oblivious.accuracy,
        oblivious.accounting.poison_recall() * 100.0
    );

    // Posture 4 — the equilibrium mixed defense.
    println!("\nderiving the mixed-strategy equilibrium defense...");
    let curves = engine.estimate_curves(&config, &default_placements(), &default_strengths())?;
    let result = Algorithm1::new(Algorithm1Config {
        n_radii: 3,
        ..Default::default()
    })
    .solve(&curves.game()?)?;
    let (mixed_acc, placement) = evaluate_mixed_defense_prepared(
        &prepared,
        &config,
        &result.strategy,
        0.01,
        engine.policy(),
    )?;
    println!("   strategy: {}", result.strategy);
    println!(
        "4. mixed equilibrium defense:          {:.4} (attacker best-responds at {:.1}%)",
        mixed_acc,
        placement * 100.0
    );

    println!("\nThe gap between (3) and (2) is what the pure-strategy literature");
    println!("overstates: a published filter gets hugged. The mixed defense (4)");
    println!("denies the attacker that certainty — the paper's contribution.");
    Ok(())
}
