//! The scenario-spec API: pluggable attack × defense × learner
//! experiments behind one serializable surface.
//!
//! The paper's evaluation is one fixed triple — boundary attack, radius
//! filter, linear SVM — but its game model is defined over arbitrary
//! strategy spaces. This module makes every strategy the workspace
//! ships reachable from a plain data description:
//!
//! * [`AttackSpec`] / [`DefenseSpec`] / [`LearnerSpec`] — serializable
//!   enums covering each shipped attack, filter and classifier, each
//!   with a `build()` returning the boxed trait object the pipeline
//!   dispatches through.
//! * [`Scenario`] — one (attack, defense, learner) triple; its
//!   [`Default`] is the paper's triple, so every existing config and
//!   experiment is unchanged until a scenario is opted into.
//! * [`ScenarioBuilder`] — ergonomic construction.
//! * [`ScenarioMatrix`] + [`crate::engine::EvalEngine::run_matrix`] —
//!   the attack×defense×learner
//!   cross-product, fanned out through the [`crate::exec`] worker pool
//!   with per-cell derived seeds and collected into a long-format
//!   result table (one row per cell).
//!
//! Specs serialize to JSON through [`crate::jsonio`] (the `serde`
//! dependency is an offline marker shim, so the wire format lives
//! here): see [`Scenario::from_json_str`] and
//! [`ScenarioMatrix::from_json_str`] for the schema.
//!
//! # Example
//!
//! ```
//! use poisongame_sim::scenario::{AttackSpec, DefenseSpec, LearnerSpec, Scenario};
//!
//! let scenario = Scenario::builder()
//!     .attack(AttackSpec::LabelFlip)
//!     .defense(DefenseSpec::Knn { k: 5 })
//!     .learner(LearnerSpec::LogReg)
//!     .build();
//! let json = scenario.to_json_string();
//! assert_eq!(Scenario::from_json_str(&json).unwrap(), scenario);
//! assert_eq!(Scenario::from_json_str("{}").unwrap(), Scenario::default());
//! ```

use crate::error::SimError;
use crate::exec::{try_parallel_map, ExecPolicy};
use crate::jsonio::{self, Json};
use crate::pipeline::{
    filter_train_eval, hugging_placement, prepare, run_cell, EvalOutcome, ExperimentConfig,
    Prepared,
};
use poisongame_attack::{
    AttackStrategy, BoundaryAttack, LabelFlipAttack, MixedRadiusAttack, RadiusSpec,
    RandomNoiseAttack,
};
use poisongame_defense::{
    CentroidEstimator, Filter, FilterStrength, KnnDistanceFilter, RadiusFilter, SlabFilter,
};
use poisongame_linalg::rng::SplitMix64;
use poisongame_ml::logreg::LogisticRegression;
use poisongame_ml::perceptron::AveragedPerceptron;
use poisongame_ml::svm::LinearSvm;
use poisongame_ml::{Classifier, TrainConfig};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which poisoning attack a scenario runs.
///
/// Attacks are built per experiment cell: the pipeline hands `build`
/// the cell's placement (the removal-percentile axis shared with the
/// defense sweep) and the poison budget, so one spec serves every
/// sweep point.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum AttackSpec {
    /// The paper's optimal single-radius boundary attack at the cell's
    /// placement — the default.
    #[default]
    Boundary,
    /// The paper's full strategy `S_a = {[r_1,n_1],…}`: the budget is
    /// split across several placements proportionally to `weights`.
    /// Each element of `offsets` is added to the cell's base placement
    /// (clamped to `[0, 0.95]`), so the mixture tracks the sweep the
    /// same way the boundary attack does.
    MixedRadius {
        /// Placement offsets relative to the cell's base placement.
        offsets: Vec<f64>,
        /// Budget share per offset (normalized; largest-remainder
        /// apportionment makes counts sum exactly to the budget).
        weights: Vec<f64>,
    },
    /// Label-flip baseline: in-distribution copies with inverted
    /// labels (ignores the placement axis).
    LabelFlip,
    /// Random-noise baseline: uniform points in the data's bounding
    /// box with random labels (ignores the placement axis).
    RandomNoise,
}

impl AttackSpec {
    /// Short stable name used in report tables and JSON (`"type"`).
    pub fn name(&self) -> &'static str {
        match self {
            AttackSpec::Boundary => "boundary",
            AttackSpec::MixedRadius { .. } => "mixed_radius",
            AttackSpec::LabelFlip => "label_flip",
            AttackSpec::RandomNoise => "random_noise",
        }
    }

    /// Build the attack for one experiment cell.
    ///
    /// `placement` is the cell's position on the removal-percentile
    /// axis (what [`hugging_placement`] computes for the boundary
    /// attack); `n_poison` is the budget the strategy must allocate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Attack`] for invalid mixture weights.
    pub fn build(
        &self,
        placement: f64,
        n_poison: usize,
    ) -> Result<Box<dyn AttackStrategy>, SimError> {
        Ok(match self {
            AttackSpec::Boundary => {
                Box::new(BoundaryAttack::new(RadiusSpec::Percentile(placement)))
            }
            AttackSpec::MixedRadius { offsets, weights } => {
                let specs: Vec<RadiusSpec> = offsets
                    .iter()
                    .map(|&o| RadiusSpec::Percentile((placement + o).clamp(0.0, 0.95)))
                    .collect();
                Box::new(MixedRadiusAttack::proportional(&specs, weights, n_poison)?)
            }
            AttackSpec::LabelFlip => Box::new(LabelFlipAttack::new()),
            AttackSpec::RandomNoise => Box::new(RandomNoiseAttack::new()),
        })
    }

    fn to_json(&self) -> Json {
        match self {
            AttackSpec::MixedRadius { offsets, weights } => Json::obj(vec![
                ("type", Json::str(self.name())),
                ("offsets", Json::nums(offsets)),
                ("weights", Json::nums(weights)),
            ]),
            _ => Json::obj(vec![("type", Json::str(self.name()))]),
        }
    }

    fn from_json(value: &Json) -> Result<Self, SimError> {
        let kind = jsonio::spec_type(value, "attack")?;
        let allowed: &[&str] = if kind == "mixed_radius" {
            &["type", "offsets", "weights"]
        } else {
            &["type"]
        };
        jsonio::check_keys(value, "attack", allowed)?;
        match kind {
            "boundary" => Ok(AttackSpec::Boundary),
            "mixed_radius" => Ok(AttackSpec::MixedRadius {
                offsets: jsonio::num_array(value, "offsets")?,
                weights: jsonio::num_array(value, "weights")?,
            }),
            "label_flip" => Ok(AttackSpec::LabelFlip),
            "random_noise" => Ok(AttackSpec::RandomNoise),
            other => Err(SimError::Spec(format!("unknown attack type `{other}`"))),
        }
    }
}

/// Which training-data sanitizer a scenario runs.
///
/// Filters are built per cell from the sweep's [`FilterStrength`] and
/// the experiment's centroid estimator, so one spec serves a whole
/// strength sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DefenseSpec {
    /// The paper's sphere (radius) filter around a robust centroid —
    /// the default.
    #[default]
    Radius,
    /// k-NN distance filter baseline (density-based). Only supports
    /// fraction strengths.
    Knn {
        /// Neighbour count (must be positive).
        k: usize,
    },
    /// Slab filter baseline (projection onto the inter-centroid
    /// axis). Only supports fraction strengths.
    Slab,
}

impl DefenseSpec {
    /// Short stable name used in report tables and JSON (`"type"`).
    pub fn name(&self) -> &'static str {
        match self {
            DefenseSpec::Radius => "radius",
            DefenseSpec::Knn { .. } => "knn",
            DefenseSpec::Slab => "slab",
        }
    }

    /// Human-readable label including parameters (for report rows).
    pub fn label(&self) -> String {
        match self {
            DefenseSpec::Knn { k } => format!("knn(k={k})"),
            _ => self.name().to_string(),
        }
    }

    /// Build the filter for one experiment cell at the given strength.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] for `k = 0` or an
    /// [`FilterStrength::AbsoluteRadius`] strength on the baselines
    /// (only the radius filter is radius-parameterized).
    pub fn build(
        &self,
        strength: FilterStrength,
        centroid: CentroidEstimator,
    ) -> Result<Box<dyn Filter>, SimError> {
        let fraction_of = |strength: FilterStrength| match strength {
            FilterStrength::RemoveFraction(f) => Ok(f),
            FilterStrength::AbsoluteRadius(r) => Err(SimError::BadParameter {
                what: "strength (baseline filters need a fraction)",
                value: r,
            }),
        };
        Ok(match *self {
            DefenseSpec::Radius => Box::new(RadiusFilter::new(strength, centroid)),
            DefenseSpec::Knn { k } => {
                if k == 0 {
                    return Err(SimError::BadParameter {
                        what: "k",
                        value: 0.0,
                    });
                }
                Box::new(KnnDistanceFilter::new(k, fraction_of(strength)?))
            }
            DefenseSpec::Slab => Box::new(SlabFilter::new(fraction_of(strength)?, centroid)),
        })
    }

    fn to_json(self) -> Json {
        match self {
            DefenseSpec::Knn { k } => Json::obj(vec![
                ("type", Json::str(self.name())),
                ("k", Json::Num(k as f64)),
            ]),
            _ => Json::obj(vec![("type", Json::str(self.name()))]),
        }
    }

    fn from_json(value: &Json) -> Result<Self, SimError> {
        let kind = jsonio::spec_type(value, "defense")?;
        let allowed: &[&str] = if kind == "knn" {
            &["type", "k"]
        } else {
            &["type"]
        };
        jsonio::check_keys(value, "defense", allowed)?;
        match kind {
            "radius" => Ok(DefenseSpec::Radius),
            "knn" => {
                let k = value
                    .get("k")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| SimError::Spec("knn defense needs integer `k`".into()))?;
                Ok(DefenseSpec::Knn { k: k as usize })
            }
            "slab" => Ok(DefenseSpec::Slab),
            other => Err(SimError::Spec(format!("unknown defense type `{other}`"))),
        }
    }
}

/// Which victim model a scenario trains on the filtered data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LearnerSpec {
    /// The paper's hinge-loss linear SVM — the default.
    #[default]
    Svm,
    /// Averaged perceptron baseline.
    Perceptron,
    /// L2-regularized logistic regression baseline.
    LogReg,
}

impl LearnerSpec {
    /// Short stable name used in report tables and JSON (`"type"`).
    pub fn name(&self) -> &'static str {
        match self {
            LearnerSpec::Svm => "svm",
            LearnerSpec::Perceptron => "perceptron",
            LearnerSpec::LogReg => "logreg",
        }
    }

    /// Build an unfitted classifier with the experiment's training
    /// configuration.
    pub fn build(&self, config: TrainConfig) -> Box<dyn Classifier> {
        match self {
            LearnerSpec::Svm => Box::new(LinearSvm::new(config)),
            LearnerSpec::Perceptron => Box::new(AveragedPerceptron::new(config)),
            LearnerSpec::LogReg => Box::new(LogisticRegression::new(config)),
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![("type", Json::str(self.name()))])
    }

    fn from_json(value: &Json) -> Result<Self, SimError> {
        jsonio::check_keys(value, "learner", &["type"])?;
        match jsonio::spec_type(value, "learner")? {
            "svm" => Ok(LearnerSpec::Svm),
            "perceptron" => Ok(LearnerSpec::Perceptron),
            "logreg" => Ok(LearnerSpec::LogReg),
            other => Err(SimError::Spec(format!("unknown learner type `{other}`"))),
        }
    }
}

/// One attack × defense × learner triple — the unit every experiment
/// cell dispatches through.
///
/// [`Scenario::default`] is the paper's triple (boundary attack,
/// radius filter, linear SVM), and [`ExperimentConfig`] embeds a
/// scenario with `#[serde(default)]`, so configs that never mention a
/// scenario reproduce the paper's pipeline bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Scenario {
    /// Poison generator.
    #[serde(default)]
    pub attack: AttackSpec,
    /// Training-data sanitizer.
    #[serde(default)]
    pub defense: DefenseSpec,
    /// Victim model.
    #[serde(default)]
    pub learner: LearnerSpec,
}

impl Scenario {
    /// The paper's triple (same as [`Scenario::default`], spelled out).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Start building a scenario from the paper's defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// `attack × defense × learner` label for report rows.
    pub fn label(&self) -> String {
        format!(
            "{} × {} × {}",
            self.attack.name(),
            self.defense.label(),
            self.learner.name()
        )
    }

    /// The JSON form: `{"attack": {...}, "defense": {...},
    /// "learner": {...}}`. See [`Scenario::from_json_str`] for the
    /// accepted spec shapes.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("attack", self.attack.to_json()),
            ("defense", self.defense.to_json()),
            ("learner", self.learner.to_json()),
        ])
    }

    /// Render as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse from a JSON value. Absent fields take the paper's
    /// defaults (`{}` is the paper triple).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on unknown types or malformed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, SimError> {
        if !matches!(value, Json::Obj(_)) {
            return Err(SimError::Spec("scenario must be a JSON object".into()));
        }
        // With every axis optional, a typo'd key would silently run
        // the paper triple — reject unknown keys instead.
        jsonio::check_keys(value, "scenario", &["attack", "defense", "learner"])?;
        Ok(Self {
            attack: value
                .get("attack")
                .map(AttackSpec::from_json)
                .transpose()?
                .unwrap_or_default(),
            defense: value
                .get("defense")
                .map(DefenseSpec::from_json)
                .transpose()?
                .unwrap_or_default(),
            learner: value
                .get("learner")
                .map(LearnerSpec::from_json)
                .transpose()?
                .unwrap_or_default(),
        })
    }

    /// Parse from a JSON string.
    ///
    /// Accepted spec shapes (each field optional, defaulting to the
    /// paper triple):
    ///
    /// ```json
    /// {
    ///   "attack":  {"type": "boundary"
    ///               | "mixed_radius", "offsets": [..], "weights": [..]
    ///               | "label_flip" | "random_noise"},
    ///   "defense": {"type": "radius" | "knn", "k": 5 | "slab"},
    ///   "learner": {"type": "svm" | "perceptron" | "logreg"}
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on syntax errors, unknown types or
    /// malformed fields.
    pub fn from_json_str(text: &str) -> Result<Self, SimError> {
        let value = Json::parse(text).map_err(|e| SimError::Spec(e.to_string()))?;
        Self::from_json(&value)
    }
}

/// Ergonomic [`Scenario`] construction; every field defaults to the
/// paper triple.
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    attack: AttackSpec,
    defense: DefenseSpec,
    learner: LearnerSpec,
}

impl ScenarioBuilder {
    /// Set the attack.
    pub fn attack(mut self, attack: AttackSpec) -> Self {
        self.attack = attack;
        self
    }

    /// Set the defense.
    pub fn defense(mut self, defense: DefenseSpec) -> Self {
        self.defense = defense;
        self
    }

    /// Set the learner.
    pub fn learner(mut self, learner: LearnerSpec) -> Self {
        self.learner = learner;
        self
    }

    /// Finish.
    pub fn build(self) -> Scenario {
        Scenario {
            attack: self.attack,
            defense: self.defense,
            learner: self.learner,
        }
    }
}

/// An attack × defense × learner cross-product plus the shared cell
/// parameters — the front door for multi-scenario workloads.
///
/// Every cell runs the same protocol as the paper's Figure 1 at one
/// filter strength: poison the training set (placement hugging the
/// filter from inside), sanitize, train, evaluate held-out accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMatrix {
    /// Attack axis.
    pub attacks: Vec<AttackSpec>,
    /// Defense axis.
    pub defenses: Vec<DefenseSpec>,
    /// Learner axis.
    pub learners: Vec<LearnerSpec>,
    /// Filter strength (fraction removed) applied in every cell.
    pub strength: f64,
    /// Extra placement depth for the attacker (see
    /// [`crate::fig1::Fig1Config::placement_slack`]).
    pub placement_slack: f64,
}

impl Default for ScenarioMatrix {
    /// The paper triple as a 1×1×1 grid at a 15 % filter.
    fn default() -> Self {
        Self {
            attacks: vec![AttackSpec::default()],
            defenses: vec![DefenseSpec::default()],
            learners: vec![LearnerSpec::default()],
            strength: 0.15,
            placement_slack: 0.01,
        }
    }
}

impl ScenarioMatrix {
    /// Number of cells in the cross-product.
    pub fn len(&self) -> usize {
        self.attacks.len() * self.defenses.len() * self.learners.len()
    }

    /// Whether any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the cross-product in grid order: attacks outermost,
    /// then defenses, learners innermost.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for attack in &self.attacks {
            for defense in &self.defenses {
                for learner in &self.learners {
                    out.push(Scenario {
                        attack: attack.clone(),
                        defense: *defense,
                        learner: *learner,
                    });
                }
            }
        }
        out
    }

    /// JSON form: `{"attacks": [...], "defenses": [...],
    /// "learners": [...], "strength": 0.15, "placement_slack": 0.01}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "attacks",
                Json::Arr(self.attacks.iter().map(AttackSpec::to_json).collect()),
            ),
            (
                "defenses",
                Json::Arr(self.defenses.iter().map(|d| d.to_json()).collect()),
            ),
            (
                "learners",
                Json::Arr(self.learners.iter().map(|l| l.to_json()).collect()),
            ),
            ("strength", Json::Num(self.strength)),
            ("placement_slack", Json::Num(self.placement_slack)),
        ])
    }

    /// Render as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse from a JSON string. `strength` and `placement_slack` are
    /// optional (defaults 0.15 / 0.01); the three axes are required.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on syntax errors or malformed specs.
    pub fn from_json_str(text: &str) -> Result<Self, SimError> {
        let value = Json::parse(text).map_err(|e| SimError::Spec(e.to_string()))?;
        Self::from_json(&value)
    }

    /// Parse from a JSON value (see [`ScenarioMatrix::from_json_str`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on malformed specs.
    pub fn from_json(value: &Json) -> Result<Self, SimError> {
        if !matches!(value, Json::Obj(_)) {
            return Err(SimError::Spec("matrix must be a JSON object".into()));
        }
        // A typo'd key would silently run at a default parameter —
        // reject unknown keys instead.
        jsonio::check_keys(
            value,
            "matrix",
            &[
                "attacks",
                "defenses",
                "learners",
                "strength",
                "placement_slack",
            ],
        )?;
        let axis = |key: &str| -> Result<&[Json], SimError> {
            value
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| SimError::Spec(format!("matrix needs an array `{key}`")))
        };
        // Optional cell parameters must be numbers when present — a
        // wrongly-typed value is an error, not the default.
        let cell_param = |key: &str, default: f64| -> Result<f64, SimError> {
            match value.get(key) {
                None => Ok(default),
                Some(v) => jsonio::require_num(v, key),
            }
        };
        let defaults = ScenarioMatrix::default();
        Ok(Self {
            attacks: axis("attacks")?
                .iter()
                .map(AttackSpec::from_json)
                .collect::<Result<_, _>>()?,
            defenses: axis("defenses")?
                .iter()
                .map(DefenseSpec::from_json)
                .collect::<Result<_, _>>()?,
            learners: axis("learners")?
                .iter()
                .map(LearnerSpec::from_json)
                .collect::<Result<_, _>>()?,
            strength: cell_param("strength", defaults.strength)?,
            placement_slack: cell_param("placement_slack", defaults.placement_slack)?,
        })
    }
}

/// One completed matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// The cell's triple.
    pub scenario: Scenario,
    /// The cell's derived seed (reproduces the cell in isolation).
    pub cell_seed: u64,
    /// Attack → filter → train → evaluate metrics.
    pub outcome: EvalOutcome,
}

/// Engine-side measurements of one matrix run: preparation cache
/// traffic and evaluation throughput. Only populated when the run
/// went through [`crate::engine::EvalEngine`]; wall-clock fields are
/// inherently nondeterministic, so [`MatrixResults`]'s equality
/// ignores this block entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Dataset preparations answered from the shared store.
    pub prep_hits: u64,
    /// Dataset preparations computed fresh.
    pub prep_misses: u64,
    /// Cells evaluated.
    pub cells: usize,
    /// Wall-clock of the whole prepare → evaluate run.
    pub elapsed_micros: u128,
}

impl EngineStats {
    /// Evaluated cells per second (`0.0` for a zero-duration run).
    pub fn cells_per_sec(&self) -> f64 {
        if self.elapsed_micros == 0 {
            0.0
        } else {
            self.cells as f64 / (self.elapsed_micros as f64 / 1e6)
        }
    }

    /// JSON form. `elapsed_micros` is clamped into `u64` on the wire
    /// (584 thousand years — nothing real overflows it).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("prep_hits", jsonio::big_u64_to_json(self.prep_hits)),
            ("prep_misses", jsonio::big_u64_to_json(self.prep_misses)),
            ("cells", Json::Num(self.cells as f64)),
            (
                "elapsed_micros",
                jsonio::big_u64_to_json(self.elapsed_micros.min(u128::from(u64::MAX)) as u64),
            ),
        ])
    }

    /// Parse the JSON form produced by [`EngineStats::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on missing or wrongly-typed fields.
    pub fn from_json(value: &Json) -> Result<Self, SimError> {
        jsonio::check_keys(
            value,
            "engine stats",
            &["prep_hits", "prep_misses", "cells", "elapsed_micros"],
        )?;
        let field = |key: &str| -> Result<u64, SimError> {
            let v = value
                .get(key)
                .ok_or_else(|| SimError::Spec(format!("engine stats need `{key}`")))?;
            jsonio::big_u64(v, key)
        };
        Ok(Self {
            prep_hits: field("prep_hits")?,
            prep_misses: field("prep_misses")?,
            cells: field("cells")? as usize,
            elapsed_micros: u128::from(field("elapsed_micros")?),
        })
    }
}

impl MatrixCell {
    /// JSON form: the scenario triple, the derived cell seed (decimal
    /// string beyond 2^53 — cell seeds span the full 64-bit range) and
    /// the evaluation outcome.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scenario", self.scenario.to_json()),
            ("cell_seed", jsonio::big_u64_to_json(self.cell_seed)),
            ("outcome", self.outcome.to_json()),
        ])
    }

    /// Parse the JSON form produced by [`MatrixCell::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on missing or wrongly-typed fields.
    pub fn from_json(value: &Json) -> Result<Self, SimError> {
        jsonio::check_keys(value, "cell", &["scenario", "cell_seed", "outcome"])?;
        let field = |key: &str| -> Result<&Json, SimError> {
            value
                .get(key)
                .ok_or_else(|| SimError::Spec(format!("cell needs `{key}`")))
        };
        Ok(Self {
            scenario: Scenario::from_json(field("scenario")?)?,
            cell_seed: jsonio::big_u64(field("cell_seed")?, "cell_seed")?,
            outcome: EvalOutcome::from_json(field("outcome")?)?,
        })
    }
}

/// All matrix cells in grid order, plus shared context.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixResults {
    /// One row per scenario cell, in [`ScenarioMatrix::scenarios`]
    /// order.
    pub cells: Vec<MatrixCell>,
    /// Clean accuracy of the config's own scenario with no filter and
    /// no attack — the shared reference bar.
    pub baseline_accuracy: f64,
    /// Poison budget every cell used.
    pub n_poison: usize,
    /// Filter strength every cell used.
    pub strength: f64,
    /// Cache/throughput measurements when run through the engine
    /// (`None` on the [`run_matrix_prepared`] and [`run_matrix_with`]
    /// paths).
    pub engine: Option<EngineStats>,
}

/// Equality compares the *results* only — the `engine` measurement
/// block carries wall-clock and cache-state values that legitimately
/// differ between bit-identical runs.
impl PartialEq for MatrixResults {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
            && self.baseline_accuracy == other.baseline_accuracy
            && self.n_poison == other.n_poison
            && self.strength == other.strength
    }
}

impl MatrixResults {
    /// JSON form: cells in grid order plus the shared context — the
    /// wire shape the serving protocol returns for `cell` and `matrix`
    /// requests. The optional `engine` stats block is included when
    /// present (remember equality ignores it).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "cells",
                Json::Arr(self.cells.iter().map(MatrixCell::to_json).collect()),
            ),
            ("baseline_accuracy", Json::Num(self.baseline_accuracy)),
            ("n_poison", Json::Num(self.n_poison as f64)),
            ("strength", Json::Num(self.strength)),
        ];
        if let Some(stats) = &self.engine {
            fields.push(("engine", stats.to_json()));
        }
        Json::obj(fields)
    }

    /// Render as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse the JSON form produced by [`MatrixResults::to_json`] (an
    /// absent `engine` block parses to `None`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on missing or wrongly-typed fields.
    pub fn from_json(value: &Json) -> Result<Self, SimError> {
        jsonio::check_keys(
            value,
            "matrix results",
            &[
                "cells",
                "baseline_accuracy",
                "n_poison",
                "strength",
                "engine",
            ],
        )?;
        let field = |key: &str| -> Result<&Json, SimError> {
            value
                .get(key)
                .ok_or_else(|| SimError::Spec(format!("matrix results need `{key}`")))
        };
        let cells = field("cells")?
            .as_array()
            .ok_or_else(|| SimError::Spec("`cells` must be an array".into()))?
            .iter()
            .map(MatrixCell::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            cells,
            baseline_accuracy: jsonio::require_num(
                field("baseline_accuracy")?,
                "baseline_accuracy",
            )?,
            n_poison: jsonio::require_u64(field("n_poison")?, "n_poison")? as usize,
            strength: jsonio::require_num(field("strength")?, "strength")?,
            engine: value
                .get("engine")
                .map(EngineStats::from_json)
                .transpose()?,
        })
    }

    /// Cells ranked by accuracy under attack, best first (ties keep
    /// grid order).
    pub fn ranked(&self) -> Vec<&MatrixCell> {
        let mut cells: Vec<&MatrixCell> = self.cells.iter().collect();
        cells.sort_by(|a, b| {
            b.outcome
                .accuracy
                .partial_cmp(&a.outcome.accuracy)
                .expect("finite accuracies")
        });
        cells
    }
}

/// Run every cell of the attack×defense×learner cross-product through
/// the worker pool on a fresh preparation — the cold form of
/// [`crate::engine::EvalEngine::run_matrix`], kept as the in-process
/// reference the benchmark compares served cells against.
///
/// The dataset is prepared once; each cell derives its own RNG from
/// the master seed and its grid index via SplitMix64, so results are
/// bit-identical at any thread count and any single cell can be
/// reproduced in isolation from `(config.seed, cell index)`.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty axis or an
/// out-of-range strength, and propagates per-cell pipeline failures
/// (lowest grid index first).
pub fn run_matrix_with(
    config: &ExperimentConfig,
    matrix: &ScenarioMatrix,
    policy: &ExecPolicy,
) -> Result<MatrixResults, SimError> {
    // Reject a bad matrix before paying for dataset preparation.
    validate_matrix(matrix)?;
    let prepared = prepare(config)?;
    run_matrix_prepared(&prepared, config, matrix, policy)
}

/// Reject an empty axis or an out-of-range strength.
pub(crate) fn validate_matrix(matrix: &ScenarioMatrix) -> Result<(), SimError> {
    if matrix.is_empty() {
        return Err(SimError::BadParameter {
            what: "matrix axes",
            value: matrix.len() as f64,
        });
    }
    if !(0.0..1.0).contains(&matrix.strength) || matrix.strength.is_nan() {
        return Err(SimError::BadParameter {
            what: "strength",
            value: matrix.strength,
        });
    }
    Ok(())
}

/// [`run_matrix_with`] against an already-prepared dataset — the
/// evaluate phase of [`crate::engine::EvalEngine::run_matrix`] and of
/// the served `cell` and `matrix` requests.
///
/// # Errors
///
/// Same conditions as [`run_matrix_with`].
pub fn run_matrix_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    matrix: &ScenarioMatrix,
    policy: &ExecPolicy,
) -> Result<MatrixResults, SimError> {
    validate_matrix(matrix)?;

    let baseline = filter_train_eval(
        prepared.train(),
        &[],
        prepared.test(),
        FilterStrength::RemoveFraction(0.0),
        &config.scenario,
        config,
    )?;
    let placement = hugging_placement(prepared, matrix.strength, matrix.placement_slack);

    // Pre-derive one seed per cell from the master seed, in grid
    // order, exactly like the Monte-Carlo replicates: a cell's stream
    // depends only on its index.
    let scenarios = matrix.scenarios();
    let mut mix = SplitMix64::new(config.seed ^ 0x5cea_a710); // "scenario"
    let cells: Vec<(Scenario, u64)> = scenarios.into_iter().map(|s| (s, mix.next())).collect();

    let done = try_parallel_map(
        policy,
        &cells,
        |_, (scenario, cell_seed)| -> Result<MatrixCell, SimError> {
            let mut rng = poisongame_linalg::Xoshiro256StarStar::seed_from_u64(*cell_seed);
            let outcome = run_cell(
                prepared,
                scenario,
                placement,
                FilterStrength::RemoveFraction(matrix.strength),
                config,
                &mut rng,
            )?;
            Ok(MatrixCell {
                scenario: scenario.clone(),
                cell_seed: *cell_seed,
                outcome,
            })
        },
    )?;

    Ok(MatrixResults {
        cells: done,
        baseline_accuracy: baseline.accuracy,
        n_poison: prepared.n_poison,
        strength: matrix.strength,
        engine: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalEngine;
    use crate::pipeline::DataSource;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            epochs: 30,
            source: DataSource::SyntheticSpambase { rows: 400 },
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn default_scenario_is_the_paper_triple() {
        let s = Scenario::default();
        assert_eq!(s.attack, AttackSpec::Boundary);
        assert_eq!(s.defense, DefenseSpec::Radius);
        assert_eq!(s.learner, LearnerSpec::Svm);
        assert_eq!(s, Scenario::paper());
        assert_eq!(s.label(), "boundary × radius × svm");
    }

    #[test]
    fn builder_overrides_fields() {
        let s = Scenario::builder()
            .attack(AttackSpec::RandomNoise)
            .defense(DefenseSpec::Slab)
            .learner(LearnerSpec::Perceptron)
            .build();
        assert_eq!(s.attack, AttackSpec::RandomNoise);
        assert_eq!(s.defense, DefenseSpec::Slab);
        assert_eq!(s.learner, LearnerSpec::Perceptron);
        assert_eq!(Scenario::builder().build(), Scenario::default());
    }

    #[test]
    fn every_attack_spec_builds_and_generates() {
        let config = quick_config();
        let prepared = prepare(&config).unwrap();
        let specs = [
            AttackSpec::Boundary,
            AttackSpec::MixedRadius {
                offsets: vec![0.0, 0.1],
                weights: vec![0.7, 0.3],
            },
            AttackSpec::LabelFlip,
            AttackSpec::RandomNoise,
        ];
        for spec in specs {
            let attack = spec.build(0.05, prepared.n_poison).unwrap();
            let mut rng = poisongame_linalg::Xoshiro256StarStar::seed_from_u64(1);
            let poison = attack
                .generate(prepared.train(), prepared.n_poison, &mut rng)
                .unwrap();
            assert_eq!(poison.len(), prepared.n_poison, "{}", spec.name());
        }
    }

    #[test]
    fn every_defense_spec_builds_and_filters() {
        let config = quick_config();
        let prepared = prepare(&config).unwrap();
        for spec in [
            DefenseSpec::Radius,
            DefenseSpec::Knn { k: 3 },
            DefenseSpec::Slab,
        ] {
            let filter = spec
                .build(FilterStrength::RemoveFraction(0.1), config.centroid)
                .unwrap();
            let outcome = filter.split(prepared.train()).unwrap();
            assert!(
                !outcome.kept_indices.is_empty(),
                "{} kept nothing",
                spec.name()
            );
        }
    }

    #[test]
    fn every_learner_spec_builds_and_fits() {
        let config = quick_config();
        let prepared = prepare(&config).unwrap();
        for spec in [
            LearnerSpec::Svm,
            LearnerSpec::Perceptron,
            LearnerSpec::LogReg,
        ] {
            let mut model = spec.build(config.train_config());
            model.fit(prepared.train()).unwrap();
            assert!(
                model.accuracy_on(prepared.test()) > 0.6,
                "{} failed to learn",
                spec.name()
            );
        }
    }

    #[test]
    fn baseline_defenses_reject_absolute_radius() {
        let strength = FilterStrength::AbsoluteRadius(2.0);
        let c = CentroidEstimator::default();
        assert!(DefenseSpec::Radius.build(strength, c).is_ok());
        assert!(DefenseSpec::Knn { k: 3 }.build(strength, c).is_err());
        assert!(DefenseSpec::Slab.build(strength, c).is_err());
        assert!(DefenseSpec::Knn { k: 0 }
            .build(FilterStrength::RemoveFraction(0.1), c)
            .is_err());
    }

    #[test]
    fn matrix_cross_product_order_is_learner_minor() {
        let matrix = ScenarioMatrix {
            attacks: vec![AttackSpec::Boundary, AttackSpec::LabelFlip],
            defenses: vec![DefenseSpec::Radius],
            learners: vec![LearnerSpec::Svm, LearnerSpec::LogReg],
            ..ScenarioMatrix::default()
        };
        let cells = matrix.scenarios();
        assert_eq!(matrix.len(), 4);
        assert_eq!(cells[0].label(), "boundary × radius × svm");
        assert_eq!(cells[1].label(), "boundary × radius × logreg");
        assert_eq!(cells[2].label(), "label_flip × radius × svm");
        assert_eq!(cells[3].label(), "label_flip × radius × logreg");
    }

    #[test]
    fn matrix_runs_and_is_thread_count_invariant() {
        let config = quick_config();
        let matrix = ScenarioMatrix {
            attacks: vec![AttackSpec::Boundary, AttackSpec::LabelFlip],
            defenses: vec![DefenseSpec::Radius, DefenseSpec::Slab],
            learners: vec![LearnerSpec::Svm],
            strength: 0.15,
            placement_slack: 0.01,
        };
        let sequential = run_matrix_with(&config, &matrix, &ExecPolicy::sequential()).unwrap();
        assert_eq!(sequential.cells.len(), 4);
        for cell in &sequential.cells {
            assert!((0.0..=1.0).contains(&cell.outcome.accuracy));
        }
        let parallel = run_matrix_with(&config, &matrix, &ExecPolicy::with_threads(4)).unwrap();
        assert_eq!(sequential, parallel);
        // Ranked view is a permutation of the cells, best first.
        let ranked = sequential.ranked();
        assert_eq!(ranked.len(), 4);
        for pair in ranked.windows(2) {
            assert!(pair[0].outcome.accuracy >= pair[1].outcome.accuracy);
        }
    }

    #[test]
    fn matrix_results_json_round_trips_bit_exactly() {
        let config = quick_config();
        let matrix = ScenarioMatrix {
            attacks: vec![AttackSpec::Boundary, AttackSpec::LabelFlip],
            defenses: vec![DefenseSpec::Knn { k: 5 }],
            learners: vec![LearnerSpec::Svm],
            ..ScenarioMatrix::default()
        };
        let mut results = EvalEngine::new().run_matrix(&config, &matrix).unwrap();
        results.engine = Some(EngineStats {
            prep_hits: 1,
            prep_misses: 2,
            cells: 2,
            elapsed_micros: 123_456,
        });
        let wire = results.to_json_string();
        let back = MatrixResults::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, results);
        assert_eq!(back.engine, results.engine);
        for (a, b) in back.cells.iter().zip(&results.cells) {
            assert_eq!(
                a.outcome.accuracy.to_bits(),
                b.outcome.accuracy.to_bits(),
                "accuracies must survive the wire bit-exactly"
            );
            assert_eq!(a.cell_seed, b.cell_seed);
        }
        // Without an engine block the field is absent, and parses back
        // to None.
        results.engine = None;
        let wire = results.to_json_string();
        assert!(!wire.contains("engine"));
        assert!(MatrixResults::from_json(&Json::parse(&wire).unwrap())
            .unwrap()
            .engine
            .is_none());
    }

    #[test]
    fn matrix_validates_axes_and_strength() {
        let config = quick_config();
        let empty = ScenarioMatrix {
            attacks: vec![],
            ..ScenarioMatrix::default()
        };
        assert!(empty.is_empty());
        let engine = EvalEngine::new();
        assert!(engine.run_matrix(&config, &empty).is_err());
        let bad = ScenarioMatrix {
            strength: 1.5,
            ..ScenarioMatrix::default()
        };
        assert!(engine.run_matrix(&config, &bad).is_err());
        assert_eq!(
            engine.cache_stats().misses,
            0,
            "a bad matrix must not prepare"
        );
    }
}
