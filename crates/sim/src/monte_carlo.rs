//! Monte-Carlo validation of the equilibrium indifference property.
//!
//! At the defender's NE every support placement yields the attacker
//! the same expected gain (§4.2). This module plays the game
//! repeatedly — sampling the defender's filter strength each round —
//! and checks that the *empirical* per-placement payoffs converge to a
//! common value, closing the loop between the analytic strategy and
//! the stochastic game it is meant to secure.

use crate::error::SimError;
use crate::exec::{parallel_map, ExecPolicy};
use poisongame_core::{DefenderMixedStrategy, PoisonGame};
use poisongame_linalg::rng::SplitMix64;
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Result of a repeated-game simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloResults {
    /// `(placement, empirical mean attacker payoff)` per candidate.
    pub candidate_payoffs: Vec<(f64, f64)>,
    /// Relative spread `(max − min)/|max|` of the payoffs.
    pub payoff_spread: f64,
    /// Empirical mean of the defender's total loss (damage + Γ).
    pub mean_defender_loss: f64,
    /// Rounds simulated.
    pub rounds: usize,
}

/// Per-candidate payoff sums and the defender-loss sum over a block of
/// rounds — the mergeable unit of the Monte-Carlo simulation.
struct Partial {
    sums: Vec<f64>,
    loss_sum: f64,
}

fn play_rounds(
    game: &PoisonGame,
    strategy: &DefenderMixedStrategy,
    candidates: &[f64],
    rounds: usize,
    rng: &mut Xoshiro256StarStar,
) -> Partial {
    let n = game.n_points() as f64;
    let mut sums = vec![0.0; candidates.len()];
    let mut loss_sum = 0.0;

    for _ in 0..rounds {
        let theta = strategy.sample(rng);
        let mut best_payoff: f64 = 0.0;
        for (k, &p) in candidates.iter().enumerate() {
            let survives = theta <= p + 1e-12;
            let payoff = if survives {
                n * game.effect().eval(p)
            } else {
                0.0
            };
            sums[k] += payoff;
            best_payoff = best_payoff.max(payoff);
        }
        // Defender pays the best response damage plus the filter cost.
        loss_sum += best_payoff + game.cost().eval(theta);
    }
    Partial { sums, loss_sum }
}

fn finish(
    candidates: &[f64],
    partial: Partial,
    rounds: usize,
) -> Result<MonteCarloResults, SimError> {
    let candidate_payoffs: Vec<(f64, f64)> = candidates
        .iter()
        .zip(&partial.sums)
        .map(|(&p, &s)| (p, s / rounds as f64))
        .collect();
    let max = candidate_payoffs
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    let min = candidate_payoffs
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::INFINITY, f64::min);
    let payoff_spread = if max.abs() < 1e-300 {
        0.0
    } else {
        (max - min) / max.abs()
    };

    Ok(MonteCarloResults {
        candidate_payoffs,
        payoff_spread,
        mean_defender_loss: partial.loss_sum / rounds as f64,
        rounds,
    })
}

/// Simulate `rounds_per_replicate × replicates` plays of the game:
/// each round the defender samples a strength from `strategy`, and
/// every candidate placement's payoff (`N·E(p)` if it survives, else
/// 0) is recorded.
///
/// The rounds run as `replicates` independent blocks, each with its
/// own RNG derived from `master_seed` via SplitMix64, fanned out
/// across the worker pool and merged in replicate order. Bit-identical
/// at any thread count (including [`ExecPolicy::sequential`]).
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] if `rounds_per_replicate` or
/// `replicates` is zero.
pub fn simulate_repeated_game(
    game: &PoisonGame,
    strategy: &DefenderMixedStrategy,
    rounds_per_replicate: usize,
    replicates: usize,
    master_seed: u64,
    policy: &ExecPolicy,
) -> Result<MonteCarloResults, SimError> {
    if rounds_per_replicate == 0 {
        return Err(SimError::BadParameter {
            what: "rounds_per_replicate",
            value: 0.0,
        });
    }
    if replicates == 0 {
        return Err(SimError::BadParameter {
            what: "replicates",
            value: 0.0,
        });
    }
    let candidates: Vec<f64> = strategy.support().to_vec();

    // Pre-derive one seed per replicate from the master seed, so a
    // replicate's stream depends only on its index.
    let mut mix = SplitMix64::new(master_seed);
    let seeds: Vec<u64> = (0..replicates).map(|_| mix.next()).collect();

    let partials = parallel_map(policy, &seeds, |_, &seed| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        play_rounds(game, strategy, &candidates, rounds_per_replicate, &mut rng)
    });

    // Merge in replicate order: float accumulation order is fixed, so
    // the totals are independent of scheduling.
    let mut merged = Partial {
        sums: vec![0.0; candidates.len()],
        loss_sum: 0.0,
    };
    for partial in partials {
        for (total, s) in merged.sums.iter_mut().zip(&partial.sums) {
            *total += s;
        }
        merged.loss_sum += partial.loss_sum;
    }
    finish(&candidates, merged, rounds_per_replicate * replicates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_core::ne::equalizing_strategy;
    use poisongame_core::{CostCurve, EffectCurve};

    fn game() -> PoisonGame {
        let effect = EffectCurve::from_samples(&[
            (0.0, 2.0e-4),
            (0.10, 9.0e-5),
            (0.20, 4.0e-5),
            (0.40, 2.0e-6),
        ])
        .unwrap();
        let cost = CostCurve::from_samples(&[(0.0, 0.0), (0.20, 0.022), (0.40, 0.065)]).unwrap();
        PoisonGame::new(effect, cost, 644).unwrap()
    }

    #[test]
    fn equalizing_strategy_is_empirically_indifferent() {
        let g = game();
        let strategy = equalizing_strategy(&[0.05, 0.15, 0.30], g.effect()).unwrap();
        let mc =
            simulate_repeated_game(&g, &strategy, 25_000, 8, 31, &ExecPolicy::default()).unwrap();
        assert!(
            mc.payoff_spread < 0.02,
            "payoffs not indifferent: {:?} (spread {})",
            mc.candidate_payoffs,
            mc.payoff_spread
        );
    }

    #[test]
    fn non_equalizing_strategy_shows_spread() {
        let g = game();
        // Uniform probabilities are not equalizing for this curve.
        let strategy = DefenderMixedStrategy::new(vec![0.05, 0.30], vec![0.5, 0.5]).unwrap();
        let mc =
            simulate_repeated_game(&g, &strategy, 12_500, 8, 32, &ExecPolicy::default()).unwrap();
        assert!(
            mc.payoff_spread > 0.1,
            "expected visible spread, got {}",
            mc.payoff_spread
        );
    }

    #[test]
    fn empirical_matches_analytic_payoff() {
        let g = game();
        let strategy = equalizing_strategy(&[0.05, 0.25], g.effect()).unwrap();
        let mc =
            simulate_repeated_game(&g, &strategy, 37_500, 8, 33, &ExecPolicy::default()).unwrap();
        let analytic = g.n_points() as f64 * strategy.attacker_gain(g.effect());
        for &(p, emp) in &mc.candidate_payoffs {
            assert!(
                (emp - analytic).abs() / analytic < 0.02,
                "placement {p}: empirical {emp} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn one_replicate_is_one_block_on_the_first_derived_seed() {
        let g = game();
        let strategy = equalizing_strategy(&[0.05, 0.15, 0.30], g.effect()).unwrap();
        let mc =
            simulate_repeated_game(&g, &strategy, 1_000, 1, 77, &ExecPolicy::sequential()).unwrap();
        let seed = SplitMix64::new(77).next();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let candidates = strategy.support().to_vec();
        let block = play_rounds(&g, &strategy, &candidates, 1_000, &mut rng);
        let expected = finish(&candidates, block, 1_000).unwrap();
        assert_eq!(format!("{mc:?}"), format!("{expected:?}"));
    }

    #[test]
    fn replicates_are_thread_count_invariant() {
        let g = game();
        let strategy = equalizing_strategy(&[0.05, 0.15, 0.30], g.effect()).unwrap();
        let reference =
            simulate_repeated_game(&g, &strategy, 5_000, 8, 91, &ExecPolicy::sequential()).unwrap();
        for threads in [2, 8] {
            let parallel = simulate_repeated_game(
                &g,
                &strategy,
                5_000,
                8,
                91,
                &ExecPolicy::with_threads(threads),
            )
            .unwrap();
            assert_eq!(reference, parallel, "{threads} threads diverged");
        }
        // And the statistics still make sense.
        assert!(reference.payoff_spread < 0.05);
        assert_eq!(reference.rounds, 40_000);
    }

    #[test]
    fn zero_rounds_rejected() {
        let g = game();
        let strategy = DefenderMixedStrategy::pure(0.1).unwrap();
        let policy = ExecPolicy::default();
        for (rounds, replicates, what) in [(0, 4, "rounds_per_replicate"), (10, 0, "replicates")] {
            assert!(matches!(
                simulate_repeated_game(&g, &strategy, rounds, replicates, 1, &policy),
                Err(SimError::BadParameter { what: w, .. }) if w == what
            ));
        }
    }
}
