//! The shared-preparation evaluation engine.
//!
//! Every experiment in this crate starts with the same expensive
//! stage — generate → split → scale the dataset — and the scenario
//! matrix, Figure 1, Table 1 and the curve estimator all re-derive it
//! from scratch per run even when they share a configuration.
//! [`EvalEngine`] threads one immutable, `Arc`-shared preparation
//! through all of them:
//!
//! * **Phase 1 (prepare):** [`EvalEngine::prepare`] keys the
//!   generate/split/scale product by a content hash of
//!   `(DataSource, seed, test_fraction)` ([`prep_key`]) and memoizes
//!   it in a [`PrepCache`], so all experiments sharing a source
//!   prepare exactly once. [`EvalEngine::prepare_shared`] does the
//!   same by key, for schedulers that dedupe preparations across
//!   requests.
//! * **Phase 2 (evaluate):** one `*_prepared` function per experiment
//!   ([`run_matrix_prepared`], [`run_fig1_prepared`],
//!   [`estimate_curves_prepared`], [`run_table1_prepared`]) fans cells
//!   out across the worker pool against the shared context.
//!
//! Each experiment has one engine method — [`EvalEngine::run_matrix`],
//! [`EvalEngine::run_fig1`], [`EvalEngine::estimate_curves`],
//! [`EvalEngine::run_table1`] — which rejects bad parameters, prepares
//! through the store and evaluates on the engine's policy. Callers that
//! prepare themselves (the server, tests) call the phase-2 function.
//!
//! Determinism: per-cell SplitMix64 seed derivation is untouched, and
//! a cached preparation is the *same pure function output* a cold run
//! computes — caching removes redundant identical computation only, so
//! engine results are bit-identical to a cold `pipeline::prepare`
//! followed by the phase-2 function (pinned by `tests/determinism.rs`
//! and `tests/scenario_compat.rs`).
//!
//! # Example
//!
//! ```no_run
//! use poisongame_sim::engine::EvalEngine;
//! use poisongame_sim::pipeline::ExperimentConfig;
//! use poisongame_sim::scenario::ScenarioMatrix;
//!
//! let engine = EvalEngine::new();
//! let config = ExperimentConfig::paper().quick();
//! // First run prepares the dataset; the second answers from the store.
//! let a = engine.run_matrix(&config, &ScenarioMatrix::default()).unwrap();
//! let b = engine.run_matrix(&config, &ScenarioMatrix::default()).unwrap();
//! assert_eq!(a, b);
//! assert_eq!(engine.cache_stats().hits, 1);
//! ```

use crate::error::SimError;
use crate::estimate::{estimate_curves_prepared, validate_grids, CurveEstimate};
use crate::exec::ExecPolicy;
use crate::fig1::{run_fig1_prepared, validate_strengths, Fig1Config, Fig1Results};
use crate::pipeline::{prepare_data, DataSource, ExperimentConfig, Prepared, PreparedData};
use crate::scenario::{
    run_matrix_prepared, validate_matrix, EngineStats, MatrixResults, ScenarioMatrix,
};
use crate::table1::{run_table1_prepared, validate_support_sizes, Table1Results};
use poisongame_data::{CacheStats, ContentHash, PrepCache};
use std::sync::Arc;
use std::time::Instant;

/// Key of one dataset preparation: everything [`prepare_data`] reads,
/// nothing it ignores. Configs that differ only in budget, epochs or
/// scenario share a key — and therefore a cached preparation.
///
/// The key carries the full inputs *and* a precomputed content hash:
/// `Hash` feeds the map the cheap 64-bit digest (computed once, at
/// construction), while `Eq` compares the actual fields (floats by
/// bit pattern), so a digest collision costs at most a rebuild —
/// never a wrong cache hit.
#[derive(Debug, Clone)]
pub struct PrepKey {
    hash: u64,
    source: DataSource,
    seed: u64,
    test_fraction: f64,
}

impl PrepKey {
    /// Build the key (and its content hash) for one preparation.
    pub fn new(source: &DataSource, seed: u64, test_fraction: f64) -> Self {
        let h = ContentHash::new().u64(seed).f64(test_fraction);
        let hash = match source {
            DataSource::SyntheticSpambase { rows } => h.str("synthetic_spambase").u64(*rows as u64),
            DataSource::Blobs {
                per_class,
                dim,
                offset,
                sigma,
            } => h
                .str("blobs")
                .u64(*per_class as u64)
                .u64(*dim as u64)
                .f64(*offset)
                .f64(*sigma),
            DataSource::CsvText { text } => h.str("csv_text").str(text),
            // `chunk_rows` / `max_inflight_chunks` are execution
            // knobs, not content: chunked and whole-file preparation
            // are bit-identical (pinned by `tests/ingest.rs`), so they
            // share a key.
            //
            // Caveat: with `checksum: None` the key sees only
            // (path, format) — the cache cannot observe the file's
            // bytes, so a file rewritten in place keeps serving the
            // stale cached preparation for that path until the engine
            // is rebuilt. Pin a checksum for any long-lived engine or
            // server (the README's checksum rule).
            DataSource::File {
                path,
                checksum,
                format,
                ..
            } => {
                let h = h.str("file").str(path).str(format);
                match checksum {
                    Some(c) => h.u64(1).u64(*c),
                    None => h.u64(0),
                }
            }
        }
        .finish();
        Self {
            hash,
            source: source.clone(),
            seed,
            test_fraction,
        }
    }

    /// The precomputed 64-bit content digest (diagnostic — equality is
    /// decided by the full fields).
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Run the preparation this key describes.
    fn prepare(&self) -> Result<PreparedData, SimError> {
        prepare_data(&self.source, self.seed, self.test_fraction)
    }
}

/// Float fields compare by exact bit pattern: cache identity must be
/// total and reflexive even for values `prepare_data` would reject.
fn source_bits_eq(a: &DataSource, b: &DataSource) -> bool {
    match (a, b) {
        (
            DataSource::SyntheticSpambase { rows: ra },
            DataSource::SyntheticSpambase { rows: rb },
        ) => ra == rb,
        (
            DataSource::Blobs {
                per_class: pa,
                dim: da,
                offset: oa,
                sigma: sa,
            },
            DataSource::Blobs {
                per_class: pb,
                dim: db,
                offset: ob,
                sigma: sb,
            },
        ) => pa == pb && da == db && oa.to_bits() == ob.to_bits() && sa.to_bits() == sb.to_bits(),
        (DataSource::CsvText { text: ta }, DataSource::CsvText { text: tb }) => ta == tb,
        (
            DataSource::File {
                path: pa,
                checksum: ca,
                format: fa,
                ..
            },
            DataSource::File {
                path: pb,
                checksum: cb,
                format: fb,
                ..
            },
        ) => {
            // Chunking knobs are excluded here exactly as they are
            // from the hash above: they don't change the prepared
            // bytes, so differently-chunked configs share the cache
            // entry.
            pa == pb && ca == cb && fa == fb
        }
        _ => false,
    }
}

impl PartialEq for PrepKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.seed == other.seed
            && self.test_fraction.to_bits() == other.test_fraction.to_bits()
            && source_bits_eq(&self.source, &other.source)
    }
}

impl Eq for PrepKey {}

impl std::hash::Hash for PrepKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// [`PrepKey`] for a standalone `(source, seed, test_fraction)` triple.
pub fn prep_key(source: &DataSource, seed: u64, test_fraction: f64) -> PrepKey {
    PrepKey::new(source, seed, test_fraction)
}

/// [`PrepKey`] of a whole experiment config.
pub fn config_prep_key(config: &ExperimentConfig) -> PrepKey {
    PrepKey::new(&config.source, config.seed, config.test_fraction)
}

/// The shared-preparation evaluation engine: an execution policy plus
/// a keyed preparation store, threading one immutable context through
/// every experiment routed through it.
#[derive(Debug, Default)]
pub struct EvalEngine {
    policy: ExecPolicy,
    store: PrepCache<PrepKey, PreparedData>,
}

impl EvalEngine {
    /// Engine on the default (fully parallel) execution policy and a
    /// cold store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit execution policy.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Bound the preparation store at `capacity` resident entries with
    /// least-recently-used eviction (see
    /// [`poisongame_data::cache::PrepCache::bounded`]). The default is
    /// unbounded — right for batch sweeps over a handful of sources,
    /// a leak for a long-lived server seeing an open-ended stream of
    /// configurations. Replaces the store, so call it at construction
    /// time.
    pub fn bound_cache(mut self, capacity: usize) -> Self {
        self.store = PrepCache::bounded(capacity);
        self
    }

    /// The preparation store's bound (`None` = unbounded).
    pub fn cache_capacity(&self) -> Option<usize> {
        self.store.capacity()
    }

    /// The engine's execution policy.
    pub fn policy(&self) -> &ExecPolicy {
        &self.policy
    }

    /// Preparation-store hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Number of distinct preparations currently cached.
    pub fn cached_preparations(&self) -> usize {
        self.store.len()
    }

    /// Phase 1 for one config: the cached generate → split → scale
    /// product, shared by `Arc`, plus the config's own poison budget.
    ///
    /// # Errors
    ///
    /// Propagates preparation and budget-validation failures.
    pub fn prepare(&self, config: &ExperimentConfig) -> Result<Prepared, SimError> {
        let key = config_prep_key(config);
        let data = self
            .store
            .get_or_try_insert_with(key.clone(), || key.prepare())?;
        Prepared::from_shared(data, config)
    }

    /// Phase 1 by explicit key: the cached generate → split → scale
    /// product for `key`, shared by `Arc`. This is the hook external
    /// schedulers (the serving dispatcher's
    /// [`crate::exec::prepare_then_map`] graph) use to dedupe
    /// preparations across concurrent requests without going through a
    /// full config.
    ///
    /// # Errors
    ///
    /// Propagates preparation failures.
    pub fn prepare_shared(&self, key: &PrepKey) -> Result<Arc<PreparedData>, SimError> {
        self.store
            .get_or_try_insert_with(key.clone(), || key.prepare())
    }

    /// Run a scenario matrix through the two-phase graph: cached
    /// prepare, then the parallel cell fan-out. Results are
    /// bit-identical to [`run_matrix_prepared`] on a cold preparation;
    /// the returned [`EngineStats`] additionally reports cache traffic
    /// and throughput (ignored by equality).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_matrix_prepared`]; a bad matrix is
    /// rejected before preparation.
    pub fn run_matrix(
        &self,
        config: &ExperimentConfig,
        matrix: &ScenarioMatrix,
    ) -> Result<MatrixResults, SimError> {
        validate_matrix(matrix)?;
        let before = self.store.stats();
        let start = Instant::now();
        let prepared = self.prepare(config)?;
        let mut results = run_matrix_prepared(&prepared, config, matrix, &self.policy)?;
        let after = self.store.stats();
        results.engine = Some(EngineStats {
            prep_hits: after.hits - before.hits,
            prep_misses: after.misses - before.misses,
            cells: results.cells.len(),
            elapsed_micros: start.elapsed().as_micros(),
        });
        Ok(results)
    }

    /// Run the Figure 1 sweep with cached preparation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_fig1_prepared`]; a bad strength grid
    /// is rejected before preparation.
    pub fn run_fig1(
        &self,
        config: &ExperimentConfig,
        sweep: &Fig1Config,
    ) -> Result<Fig1Results, SimError> {
        validate_strengths(&sweep.strengths)?;
        let prepared = self.prepare(config)?;
        run_fig1_prepared(&prepared, config, sweep, &self.policy)
    }

    /// Run Table 1 with cached preparation. `best_pure_accuracy`
    /// comes from the Figure 1 sweep (pass
    /// `Fig1Results::best_pure().accuracy_under_attack`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_table1_prepared`]; an empty size list
    /// is rejected before preparation.
    pub fn run_table1(
        &self,
        config: &ExperimentConfig,
        curves: &CurveEstimate,
        support_sizes: &[usize],
        best_pure_accuracy: f64,
    ) -> Result<Table1Results, SimError> {
        validate_support_sizes(support_sizes)?;
        let prepared = self.prepare(config)?;
        run_table1_prepared(
            &prepared,
            config,
            curves,
            support_sizes,
            best_pure_accuracy,
            &self.policy,
        )
    }

    /// Estimate the game curves with cached preparation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`estimate_curves_prepared`]; a bad grid is
    /// rejected before preparation.
    pub fn estimate_curves(
        &self,
        config: &ExperimentConfig,
        placements: &[f64],
        strengths: &[f64],
    ) -> Result<CurveEstimate, SimError> {
        validate_grids(placements, strengths)?;
        let prepared = self.prepare(config)?;
        estimate_curves_prepared(&prepared, config, placements, strengths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_matrix_with;

    fn quick_config(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            source: DataSource::SyntheticSpambase { rows: 400 },
            epochs: 25,
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn prep_key_covers_exactly_the_prepared_inputs() {
        let base = quick_config(1);
        let same_key = ExperimentConfig {
            budget_fraction: 0.05,
            epochs: 9,
            ..base.clone()
        };
        // Budget/epochs/scenario do not feed `prepare_data`.
        assert_eq!(config_prep_key(&base), config_prep_key(&same_key));
        // Everything `prepare_data` reads does.
        assert_ne!(
            config_prep_key(&base),
            config_prep_key(&ExperimentConfig {
                seed: 2,
                ..base.clone()
            })
        );
        assert_ne!(
            config_prep_key(&base),
            config_prep_key(&ExperimentConfig {
                test_fraction: 0.31,
                ..base.clone()
            })
        );
        assert_ne!(
            config_prep_key(&base),
            config_prep_key(&ExperimentConfig {
                source: DataSource::SyntheticSpambase { rows: 401 },
                ..base
            })
        );
    }

    #[test]
    fn digest_collision_cannot_alias_keys() {
        let a = prep_key(&DataSource::SyntheticSpambase { rows: 1 }, 1, 0.3);
        let mut b = prep_key(&DataSource::SyntheticSpambase { rows: 2 }, 1, 0.3);
        // Forge a digest collision: equality must still see through it
        // (the map hashes the digest but compares the full fields).
        b.hash = a.hash;
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a, b, "full-field equality must beat the digest");
    }

    #[test]
    fn prepare_hits_cache_and_shares_data() {
        let engine = EvalEngine::new();
        let config = quick_config(3);
        let a = engine.prepare(&config).unwrap();
        let b = engine.prepare(&config).unwrap();
        assert!(Arc::ptr_eq(&a.data, &b.data), "second prepare must share");
        assert_eq!(
            engine.cache_stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(engine.cached_preparations(), 1);
        // Same data key, different budget: shared data, new budget.
        let half = ExperimentConfig {
            budget_fraction: 0.1,
            ..config
        };
        let c = engine.prepare(&half).unwrap();
        assert!(Arc::ptr_eq(&a.data, &c.data));
        assert_eq!(c.n_poison, (a.train().len() as f64 * 0.1).round() as usize);
        assert_eq!(engine.cache_stats().hits, 2);
    }

    #[test]
    fn engine_matrix_matches_cold_path_and_reports_stats() {
        let config = quick_config(7);
        let matrix = ScenarioMatrix::default();
        let cold = run_matrix_with(&config, &matrix, &ExecPolicy::default()).unwrap();
        let engine = EvalEngine::new();
        let first = engine.run_matrix(&config, &matrix).unwrap();
        let second = engine.run_matrix(&config, &matrix).unwrap();
        // Equality ignores the stats block; cells must be identical.
        assert_eq!(cold, first);
        assert_eq!(first, second);
        let s1 = first.engine.expect("engine run carries stats");
        let s2 = second.engine.expect("engine run carries stats");
        assert_eq!((s1.prep_hits, s1.prep_misses), (0, 1), "first run is cold");
        assert_eq!((s2.prep_hits, s2.prep_misses), (1, 0), "second run hits");
        assert_eq!(s1.cells, 1);
        assert!(cold.engine.is_none());
    }

    #[test]
    fn paper_chain_shares_one_preparation() {
        // Fig. 1 → E/Γ estimate → Table 1 on one engine: the dataset is
        // prepared by the first call and answered from the store after.
        let engine = EvalEngine::with_policy(ExecPolicy::sequential());
        let config = quick_config(13);
        let sweep = Fig1Config {
            strengths: vec![0.0, 0.2],
            placement_slack: 0.01,
        };
        let fig1 = engine.run_fig1(&config, &sweep).unwrap();
        let curves = engine
            .estimate_curves(&config, &[0.05, 0.2], &[0.0, 0.2])
            .unwrap();
        let best_pure = fig1.best_pure().accuracy_under_attack;
        let table1 = engine
            .run_table1(&config, &curves, &[2], best_pure)
            .unwrap();
        assert_eq!(table1.rows.len(), 1);
        assert_eq!(table1.best_pure_accuracy, best_pure);
        assert_eq!(
            engine.cache_stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0
            }
        );
        // Every experiment measures the same clean baseline.
        assert_eq!(
            fig1.baseline_accuracy.to_bits(),
            curves.baseline_accuracy.to_bits()
        );
    }

    #[test]
    fn engine_fig1_is_bit_identical_to_cold_path() {
        let config = quick_config(9);
        let sweep = Fig1Config {
            strengths: vec![0.0, 0.1, 0.2],
            placement_slack: 0.01,
        };
        let prepared = crate::pipeline::prepare(&config).unwrap();
        let cold = run_fig1_prepared(&prepared, &config, &sweep, &ExecPolicy::default()).unwrap();
        let engine = EvalEngine::new();
        let cached = engine.run_fig1(&config, &sweep).unwrap();
        assert_eq!(cold, cached, "cache must not change results");
    }

    #[test]
    fn bounded_engine_evicts_and_reprepares() {
        // Three distinct keys through a 2-entry store: the oldest is
        // evicted, and preparing it again is a miss — never an error,
        // never a changed result.
        let engine = EvalEngine::new().bound_cache(2);
        assert_eq!(engine.cache_capacity(), Some(2));
        let a = engine.prepare(&quick_config(1)).unwrap();
        engine.prepare(&quick_config(2)).unwrap();
        engine.prepare(&quick_config(3)).unwrap();
        assert_eq!(engine.cached_preparations(), 2);
        assert_eq!(engine.cache_stats().evictions, 1);
        let again = engine.prepare(&quick_config(1)).unwrap();
        assert_eq!(engine.cache_stats().misses, 4, "evicted key re-prepares");
        assert_eq!(*a.data, *again.data, "rebuild is bit-identical");
        // The unbounded default reports no bound.
        assert_eq!(EvalEngine::new().cache_capacity(), None);
    }

    #[test]
    fn prepare_shared_matches_config_prepare() {
        let engine = EvalEngine::new();
        let config = quick_config(21);
        let by_key = engine.prepare_shared(&config_prep_key(&config)).unwrap();
        let by_config = engine.prepare(&config).unwrap();
        assert!(Arc::ptr_eq(&by_key, &by_config.data));
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 1);
    }
}
