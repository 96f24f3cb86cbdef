//! Per-round payoff providers: how a pure `(attack level, defense)`
//! action pair is scored.
//!
//! Full-information no-regret play needs the payoff of every action
//! pair sooner or later, so a provider's job is *how* (and how fast)
//! entries materialize, not whether:
//!
//! * [`MatrixPayoff`] — a precomputed [`MatrixGame`] (the paper's
//!   discretized game, or anything else): every round is pure
//!   matrix-vector work, so horizons of `T ≥ 10k` rounds run at solver
//!   speed. This is the memoized payoff-matrix mode.
//! * [`EnginePayoff`] — scores entry `(i, j)` by **actually running**
//!   the configured attack × defense × learner cell: poison the
//!   training batch at placement `placements[i]`, sanitize at strength
//!   `strengths[j]`, train, evaluate. Every query goes through the
//!   [`EvalEngine`], so repeated queries for the same dataset hit the
//!   `PrepCache` instead of re-preparing data, and each computed entry
//!   is memoized locally — after the matrix fills once, play runs at
//!   matrix speed.
//!
//! The attacker's payoff for a cell is the **accuracy drop** against
//! the clean unfiltered baseline — exactly the paper's
//! `U = damage + Γ`: poison that survives the filter keeps the drop
//! large, and an aggressive filter pays its own genuine-removal cost
//! even when the poison dies.
//!
//! Determinism: entry `(i, j)` derives its RNG from the experiment's
//! master seed and the cell index alone (the same SplitMix64 scheme as
//! the scenario matrix), so entries are identical whether they are
//! filled lazily one round at a time, prefetched in parallel, or
//! recomputed on another machine.

use crate::error::OnlineError;
use poisongame_linalg::rng::SplitMix64;
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::pipeline::{filter_train_eval, run_cell, ExperimentConfig, Prepared};
use poisongame_sim::SimError;
use poisongame_theory::MatrixGame;
use rand::SeedableRng;

use poisongame_defense::FilterStrength;

/// Scores one round of repeated play: the attacker payoff of every
/// pure `(attack level, defense)` action pair.
pub trait RoundPayoff {
    /// `(attacker actions, defender actions)`.
    fn shape(&self) -> (usize, usize);

    /// Attacker payoff of the pure pair `(i, j)` (the defender loses
    /// the same amount — the game is zero-sum). Implementations
    /// memoize: repeated queries are cheap.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (empirical providers only).
    fn entry(&mut self, i: usize, j: usize) -> Result<f64, OnlineError>;

    /// Materialize every entry into a [`MatrixGame`] — the memoized
    /// payoff matrix the play loop and the reference-NE solve run on.
    ///
    /// # Errors
    ///
    /// Propagates entry failures and matrix validation.
    fn matrix(&mut self) -> Result<MatrixGame, OnlineError> {
        let (m, n) = self.shape();
        let mut rows = Vec::with_capacity(m);
        for i in 0..m {
            let mut row = Vec::with_capacity(n);
            for j in 0..n {
                row.push(self.entry(i, j)?);
            }
            rows.push(row);
        }
        Ok(MatrixGame::from_rows(&rows)?)
    }
}

/// A precomputed payoff matrix — the memoized mode, and the adapter
/// for the paper's discretized game
/// ([`poisongame_core::bridge::discretized_game`]).
#[derive(Debug, Clone)]
pub struct MatrixPayoff {
    game: MatrixGame,
}

impl MatrixPayoff {
    /// Wrap a precomputed game.
    pub fn new(game: MatrixGame) -> Self {
        Self { game }
    }

    /// Borrow the wrapped game.
    pub fn game(&self) -> &MatrixGame {
        &self.game
    }
}

impl RoundPayoff for MatrixPayoff {
    fn shape(&self) -> (usize, usize) {
        self.game.shape()
    }

    fn entry(&mut self, i: usize, j: usize) -> Result<f64, OnlineError> {
        Ok(self.game.payoff(i, j))
    }

    fn matrix(&mut self) -> Result<MatrixGame, OnlineError> {
        Ok(self.game.clone())
    }
}

/// The per-cell seeds of an empirical payoff grid, derived from the
/// experiment's master seed in row-major cell order — the same
/// index-only scheme the scenario matrix uses, so any single cell can
/// be reproduced in isolation.
pub fn cell_seeds(config: &ExperimentConfig, n_cells: usize) -> Vec<u64> {
    let mut mix = SplitMix64::new(config.seed ^ 0x6f6e_6c69); // "onli"
    (0..n_cells).map(|_| mix.next()).collect()
}

/// The clean, unfiltered baseline accuracy an empirical grid scores
/// against.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn empirical_baseline(prepared: &Prepared, config: &ExperimentConfig) -> Result<f64, SimError> {
    Ok(filter_train_eval(
        prepared.train(),
        &[],
        prepared.test(),
        FilterStrength::RemoveFraction(0.0),
        config,
    )?
    .accuracy)
}

/// Score one empirical cell: poison at `placement`, filter at
/// `strength`, train, evaluate — through the scenario configured on
/// `config` — and return the attacker payoff
/// `baseline − accuracy`.
///
/// # Errors
///
/// Propagates attack/filter/training failures.
pub fn empirical_entry(
    prepared: &Prepared,
    config: &ExperimentConfig,
    baseline: f64,
    placement: f64,
    strength: f64,
    cell_seed: u64,
) -> Result<f64, SimError> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(cell_seed);
    let outcome = run_cell(
        prepared,
        &config.scenario,
        placement,
        FilterStrength::RemoveFraction(strength),
        config,
        &mut rng,
    )?;
    Ok(baseline - outcome.accuracy)
}

/// Validate an empirical action grid: non-empty, every value finite
/// and in `[0, 1)`.
pub(crate) fn validate_grid(what: &'static str, grid: &[f64]) -> Result<(), OnlineError> {
    if grid.is_empty() {
        return Err(OnlineError::BadParameter { what, value: 0.0 });
    }
    for &v in grid {
        if !(0.0..1.0).contains(&v) || v.is_nan() {
            return Err(OnlineError::BadParameter { what, value: v });
        }
    }
    Ok(())
}

/// The [`EvalEngine`]-backed empirical provider: every entry query
/// prepares the dataset through the engine (a `PrepCache` hit after
/// the first), runs the cell, and memoizes the result locally. Long
/// runs therefore pay `m × n` evaluations once and matrix lookups
/// forever after.
pub struct EnginePayoff<'a> {
    engine: &'a EvalEngine,
    config: &'a ExperimentConfig,
    placements: Vec<f64>,
    strengths: Vec<f64>,
    seeds: Vec<u64>,
    baseline: Option<f64>,
    memo: Vec<Option<f64>>,
}

impl<'a> EnginePayoff<'a> {
    /// An empirical grid over `placements × strengths` scored through
    /// `engine` with `config`'s scenario and budget.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::BadParameter`] for an empty or
    /// out-of-range grid.
    pub fn new(
        engine: &'a EvalEngine,
        config: &'a ExperimentConfig,
        placements: &[f64],
        strengths: &[f64],
    ) -> Result<Self, OnlineError> {
        validate_grid("placements", placements)?;
        validate_grid("strengths", strengths)?;
        let n_cells = placements.len() * strengths.len();
        Ok(Self {
            engine,
            config,
            placements: placements.to_vec(),
            strengths: strengths.to_vec(),
            seeds: cell_seeds(config, n_cells),
            baseline: None,
            memo: vec![None; n_cells],
        })
    }

    /// Entries computed so far (diagnostic).
    pub fn filled(&self) -> usize {
        self.memo.iter().filter(|e| e.is_some()).count()
    }
}

impl RoundPayoff for EnginePayoff<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.placements.len(), self.strengths.len())
    }

    fn entry(&mut self, i: usize, j: usize) -> Result<f64, OnlineError> {
        let idx = i * self.strengths.len() + j;
        if let Some(value) = self.memo[idx] {
            return Ok(value);
        }
        // Every query routes through the engine: the first prepares the
        // dataset, the rest answer from the PrepCache.
        let prepared = self.engine.prepare(self.config)?;
        let baseline = match self.baseline {
            Some(b) => b,
            None => {
                let b = empirical_baseline(&prepared, self.config)?;
                self.baseline = Some(b);
                b
            }
        };
        let value = empirical_entry(
            &prepared,
            self.config,
            baseline,
            self.placements[i],
            self.strengths[j],
            self.seeds[idx],
        )?;
        self.memo[idx] = Some(value);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_sim::pipeline::DataSource;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 9,
            source: DataSource::SyntheticSpambase { rows: 300 },
            epochs: 15,
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn matrix_payoff_round_trips_the_game() {
        let game = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let mut payoff = MatrixPayoff::new(game.clone());
        assert_eq!(payoff.shape(), (2, 2));
        assert_eq!(payoff.entry(0, 1).unwrap(), -1.0);
        assert_eq!(payoff.matrix().unwrap(), game);
        assert_eq!(payoff.game().shape(), (2, 2));
    }

    #[test]
    fn default_matrix_assembly_walks_every_entry() {
        struct Counting(usize);
        impl RoundPayoff for Counting {
            fn shape(&self) -> (usize, usize) {
                (2, 3)
            }
            fn entry(&mut self, i: usize, j: usize) -> Result<f64, OnlineError> {
                self.0 += 1;
                Ok((i * 10 + j) as f64)
            }
        }
        let mut p = Counting(0);
        let game = p.matrix().unwrap();
        assert_eq!(p.0, 6);
        assert_eq!(game.payoff(1, 2), 12.0);
    }

    #[test]
    fn cell_seeds_depend_only_on_master_seed_and_index() {
        let a = cell_seeds(&quick_config(), 6);
        let b = cell_seeds(&quick_config(), 4);
        assert_eq!(&a[..4], &b[..]);
        let other = cell_seeds(
            &ExperimentConfig {
                seed: 10,
                ..quick_config()
            },
            4,
        );
        assert_ne!(&a[..4], &other[..]);
    }

    #[test]
    fn grid_validation_rejects_bad_axes() {
        assert!(validate_grid("placements", &[]).is_err());
        assert!(validate_grid("placements", &[0.5, 1.0]).is_err());
        assert!(validate_grid("placements", &[-0.1]).is_err());
        assert!(validate_grid("placements", &[f64::NAN]).is_err());
        assert!(validate_grid("placements", &[0.0, 0.3]).is_ok());
    }

    #[test]
    fn engine_payoff_memoizes_and_hits_the_prep_cache() {
        let engine = EvalEngine::new();
        let config = quick_config();
        let mut payoff = EnginePayoff::new(&engine, &config, &[0.02, 0.2], &[0.0, 0.2]).unwrap();
        assert_eq!(payoff.shape(), (2, 2));
        assert_eq!(payoff.filled(), 0);

        let first = payoff.entry(0, 1).unwrap();
        assert_eq!(payoff.filled(), 1);
        // Second query is a memo lookup — no new engine traffic.
        let stats = engine.cache_stats();
        assert_eq!(payoff.entry(0, 1).unwrap(), first);
        assert_eq!(engine.cache_stats(), stats);

        // Filling the rest leaves the cache with more hits than misses.
        let game = payoff.matrix().unwrap();
        assert_eq!(game.shape(), (2, 2));
        assert_eq!(payoff.filled(), 4);
        let stats = engine.cache_stats();
        assert!(
            stats.hits > stats.misses,
            "repeated queries must hit the prep cache: {stats:?}"
        );

        // A shallow attack against no filter must hurt: positive payoff.
        assert!(game.payoff(0, 0) > 0.0, "boundary poison did no damage");

        // Entries are a pure function of (config, grids): a fresh
        // provider reproduces them bit-for-bit.
        let engine2 = EvalEngine::new();
        let mut again = EnginePayoff::new(&engine2, &config, &[0.02, 0.2], &[0.0, 0.2]).unwrap();
        assert_eq!(again.matrix().unwrap(), game);
    }

    #[test]
    fn engine_payoff_rejects_bad_grids() {
        let engine = EvalEngine::new();
        let config = quick_config();
        assert!(EnginePayoff::new(&engine, &config, &[], &[0.1]).is_err());
        assert!(EnginePayoff::new(&engine, &config, &[0.1], &[1.2]).is_err());
    }
}
