//! Batched, parallel electro-thermal sweeps over scenario grids.
//!
//! The paper's pitch is that one concurrent estimate costs microseconds;
//! the production question is throughput over *many* estimates — supply
//! corners × activity levels × ambient temperatures × technology nodes
//! for one floorplan. Two structural facts make that cheap:
//!
//! 1. the thermal influence operator is fixed per floorplan — the
//!    [`ThermalOperator`] is computed **once** and shared read-only by
//!    every scenario (and every thread),
//! 2. each scenario solve is independent — worker threads pull scenario
//!    indices from one shared cursor, and
//! 3. the per-iteration work is **batchable** — [`SweepEngine::sweep`]
//!    advances up to [`SweepEngine::batch_lanes`] scenarios per Picard
//!    step through the GEMM-batched [`BatchedSolver`], refilling lanes
//!    as scenarios resolve, with the power law's exponentials evaluated
//!    in batch ([`ScaledTechPower`]'s vectorized adapter).
//!
//! [`SweepEngine`] packages all three. Batched outcomes match the
//! per-scenario oracle ([`SweepEngine::run_per_scenario`], the exact
//! [`ElectroThermalSolver::solve_with_ambient`] path) within the ULP
//! contract documented in [`crate::cosim::batch`] and
//! `docs/PERFORMANCE.md` — same outcome kinds, same iteration counts,
//! temperatures to ~1e-9 K — asserted by this module's tests, the
//! workspace property suite and the `sweep` benchmark. Results never
//! depend on the thread count or batch width.
//!
//! # Example: a Vdd × activity grid on the paper floorplan
//!
//! ```
//! use ptherm_core::cosim::sweep::{RunOptions, ScenarioGrid, SweepEngine};
//! use ptherm_floorplan::Floorplan;
//! use ptherm_tech::Technology;
//!
//! let engine = SweepEngine::new(Floorplan::paper_three_blocks());
//! let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()])
//!     .vdd_scales(vec![0.9, 1.0, 1.1])
//!     .activities(vec![0.5, 1.0])
//!     .ambients_k(vec![300.0, 350.0]);
//! let model = engine.uniform_tech_power(0.25, 0.02);
//! let report = engine.sweep(&grid, &model, RunOptions::new());
//! assert_eq!(report.len(), 12);
//! assert!(report.converged_count() > 0);
//! ```

use crate::cosim::batch::{BatchPowerModel, BatchWorkspace, BatchedSolver, LaneStart};
use crate::cosim::spectral::{
    infer_grid, spectral_operator_fingerprint, SpectralBatchedSolver, SpectralGridError,
    SpectralOperator, SpectralScratch, DEFAULT_REFINEMENT_TOLERANCE,
};
use crate::cosim::transient::{
    TransientBatchedSolver, TransientConfig, TransientError, TransientLane, TransientOperator,
    TransientOutcome, TransientReport, TransientRk4Reference, TransientWorkspace,
};
use crate::cosim::{CosimError, ElectroThermalSolver, ThermalOperator, Workspace};
use crate::thermal::capacitance::silicon_block_capacitances;
use crate::thermal::map::{map_operator_fingerprint, MapOperator, MapWorkspace};
use ptherm_floorplan::Floorplan;
use ptherm_math::{expv, MultiVec};
use ptherm_par::CancelToken;
use ptherm_tech::{Polarity, Technology};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One point of a sweep: the knobs the paper's models expose per run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Supply scale relative to the technology's nominal `V_DD`.
    pub vdd_scale: f64,
    /// Switching-activity multiplier on the baseline dynamic power.
    pub activity: f64,
    /// Ambient (heat-sink) temperature, K.
    pub ambient_k: f64,
    /// Index into the grid's technology list.
    pub tech_index: usize,
}

/// Cartesian scenario grid: Vdd scales × activities × ambients × nodes.
///
/// Scenarios enumerate in row-major order with the technology axis
/// outermost and the Vdd axis innermost.
///
/// Degenerate axes are legal: a builder handed an **empty** axis yields
/// an empty grid — zero scenarios, an empty iterator and a clean empty
/// [`SweepReport`] — never a mixed-radix decode panic. (An *unset*
/// ambient axis is different: it means "one point at the engine's
/// default ambient", see [`Self::ambients_k`].)
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    technologies: Vec<Technology>,
    vdd_scales: Vec<f64>,
    activities: Vec<f64>,
    /// `None` = axis not set (single point at the default ambient);
    /// `Some(vec![])` = explicitly empty axis (empty grid).
    ambients_k: Option<Vec<f64>>,
}

impl ScenarioGrid {
    /// Grid over `technologies` with every other axis at its neutral
    /// single point: scale 1, activity 1, and — until
    /// [`Self::ambients_k`] is called — the ambient the floorplan itself
    /// declares (its sink temperature), so an engine sweep with no
    /// ambient axis matches one-shot solves on the same floorplan.
    ///
    /// An empty technology list is allowed and produces an empty grid.
    pub fn new(technologies: Vec<Technology>) -> Self {
        ScenarioGrid {
            technologies,
            vdd_scales: vec![1.0],
            activities: vec![1.0],
            ambients_k: None,
        }
    }

    /// Replaces the supply-scale axis (empty ⇒ empty grid).
    #[must_use]
    pub fn vdd_scales(mut self, scales: Vec<f64>) -> Self {
        self.vdd_scales = scales;
        self
    }

    /// Replaces the activity axis (empty ⇒ empty grid).
    #[must_use]
    pub fn activities(mut self, activities: Vec<f64>) -> Self {
        self.activities = activities;
        self
    }

    /// Replaces the ambient-temperature axis. Setting an explicitly
    /// empty axis empties the grid; *not* calling this leaves a single
    /// implicit point at the sweep's default ambient.
    #[must_use]
    pub fn ambients_k(mut self, ambients: Vec<f64>) -> Self {
        self.ambients_k = Some(ambients);
        self
    }

    /// The technology list scenarios index into.
    pub fn technologies(&self) -> &[Technology] {
        &self.technologies
    }

    /// The supply-scale axis values.
    pub fn vdd_scale_values(&self) -> &[f64] {
        &self.vdd_scales
    }

    /// The activity axis values.
    pub fn activity_values(&self) -> &[f64] {
        &self.activities
    }

    /// The ambient axis values, or `None` when the axis was never set
    /// (one implicit point at the sweep's default ambient).
    pub fn ambient_values(&self) -> Option<&[f64]> {
        self.ambients_k.as_deref()
    }

    /// Width of the ambient axis as enumerated (1 for the unset axis).
    fn ambient_axis_len(&self) -> usize {
        self.ambients_k.as_ref().map_or(1, Vec::len)
    }

    /// Number of scenarios in the grid.
    pub fn len(&self) -> usize {
        self.technologies.len()
            * self.vdd_scales.len()
            * self.activities.len()
            * self.ambient_axis_len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scenario at position `index` of the enumeration order —
    /// random access by mixed-radix decode, no materialization.
    /// `default_ambient_k` fills the ambient axis when none was set —
    /// [`SweepEngine::sweep`] passes the floorplan's sink temperature.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` — in particular for **any** index
    /// into a grid with an empty axis, before any radix arithmetic runs.
    pub fn scenario(&self, index: usize, default_ambient_k: f64) -> Scenario {
        assert!(index < self.len(), "scenario index out of range");
        let nv = self.vdd_scales.len();
        let na = self.activities.len();
        let namb = self.ambient_axis_len();
        let vdd_scale = self.vdd_scales[index % nv];
        let rest = index / nv;
        let activity = self.activities[rest % na];
        let rest = rest / na;
        let ambient_k = match &self.ambients_k {
            Some(ambients) => ambients[rest % namb],
            None => default_ambient_k,
        };
        Scenario {
            vdd_scale,
            activity,
            ambient_k,
            tech_index: rest / namb,
        }
    }

    /// Lazily enumerates every scenario in order — the allocation-free
    /// form the sweep engine shards from. See [`Self::scenario`] for the
    /// `default_ambient_k` semantics.
    pub fn iter_scenarios(
        &self,
        default_ambient_k: f64,
    ) -> impl ExactSizeIterator<Item = Scenario> + '_ {
        (0..self.len()).map(move |i| self.scenario(i, default_ambient_k))
    }

    /// Materializes every scenario in enumeration order (a collected
    /// [`Self::iter_scenarios`]).
    pub fn scenarios(&self, default_ambient_k: f64) -> Vec<Scenario> {
        self.iter_scenarios(default_ambient_k).collect()
    }
}

/// Per-block power as a function of scenario and temperature — the model
/// the engine evaluates inside each Picard iteration.
pub trait ScenarioPowerModel: Sync {
    /// Power of `block` at junction temperature `temperature_k` under
    /// `scenario`, W. `tech` is the scenario's resolved technology kit.
    fn block_power(
        &self,
        scenario: &Scenario,
        tech: &Technology,
        block: usize,
        temperature_k: f64,
    ) -> f64;

    /// Builds the batched form of this model for one sweep worker:
    /// scenario ids map into `grid` (see [`ScenarioGrid::scenario`]) and
    /// `lanes` is the worker's starting batch width, an upper bound on
    /// every panel the model is handed: the panel narrows as the batch
    /// drains (see [`BatchPowerModel::fill_powers`]).
    ///
    /// The default wraps [`Self::block_power`] scalar calls — correct for
    /// every model, making the same power evaluations as the
    /// per-scenario path (the only remaining batched-vs-oracle
    /// difference is the GEMM tier's fused multiply-adds). Models whose
    /// hot loop vectorizes (like [`ScaledTechPower`], which batches its
    /// Eq. 13 exponentials through [`ptherm_math::expv`]) override this;
    /// such overrides may differ from the scalar calls at the documented
    /// ULP level.
    fn batched<'a>(
        &'a self,
        grid: &'a ScenarioGrid,
        default_ambient_k: f64,
        lanes: usize,
    ) -> Box<dyn BatchPowerModel + 'a>
    where
        Self: Sized,
    {
        Box::new(ScalarScenarioBatch {
            model: self,
            grid,
            default_ambient_k,
            lane_scenarios: vec![None; lanes],
        })
    }
}

/// Default [`BatchPowerModel`] adapter: per-lane scalar
/// [`ScenarioPowerModel::block_power`] calls, exactly the evaluations
/// the per-scenario path makes.
struct ScalarScenarioBatch<'a, M: ?Sized> {
    model: &'a M,
    grid: &'a ScenarioGrid,
    default_ambient_k: f64,
    lane_scenarios: Vec<Option<Scenario>>,
}

impl<M: ScenarioPowerModel + ?Sized> BatchPowerModel for ScalarScenarioBatch<'_, M> {
    fn begin_lane(&mut self, lane: usize, id: usize) {
        self.lane_scenarios[lane] = Some(self.grid.scenario(id, self.default_ambient_k));
    }

    fn fill_powers(&mut self, temps: &MultiVec, powers: &mut MultiVec) {
        let techs = self.grid.technologies();
        for i in 0..temps.rows() {
            for (j, s) in self.lane_scenarios.iter().take(temps.lanes()).enumerate() {
                if let Some(s) = s {
                    let p = self
                        .model
                        .block_power(s, &techs[s.tech_index], i, temps.get(i, j));
                    powers.set(i, j, p);
                }
            }
        }
    }

    fn lane_power(&self, lane: usize, block: usize, t: f64) -> Option<f64> {
        let s = self.lane_scenarios.get(lane)?.as_ref()?;
        Some(
            self.model
                .block_power(s, &self.grid.technologies()[s.tech_index], block, t),
        )
    }
}

impl<F> ScenarioPowerModel for F
where
    F: Fn(&Scenario, &Technology, usize, f64) -> f64 + Sync,
{
    fn block_power(
        &self,
        scenario: &Scenario,
        tech: &Technology,
        block: usize,
        temperature_k: f64,
    ) -> f64 {
        self(scenario, tech, block, temperature_k)
    }
}

/// The default physical model: per-block dynamic and reference leakage
/// budgets scaled by the scenario knobs and the technology's own
/// OFF-current temperature law (the Eq. 13 exponential family).
///
/// * dynamic: `activity · vdd_scale² · P_dyn[i]` (the `α f C V²` law),
/// * static: `vdd_scale · P_leak[i] · I_off(T) / I_off(T_ref)`, where
///   `I_off` is [`Technology::nominal_off_current`] — carrying the
///   paper's exponential temperature dependence into the feedback loop.
#[derive(Debug, Clone)]
pub struct ScaledTechPower {
    /// Per-block dynamic power at activity 1 and nominal Vdd, W.
    pub dynamic_w: Vec<f64>,
    /// Per-block leakage power at `T_ref` and nominal Vdd, W.
    pub leakage_ref_w: Vec<f64>,
    /// Reference OFF currents `I_off(T_ref)` per grid technology (keyed
    /// by the parameters the computation reads, so a cache prepared for
    /// one grid cannot be silently misapplied to another), hoisted out
    /// of the Picard hot loop by [`Self::prepared_for`]; empty =
    /// compute on the fly.
    i_ref_per_tech: Vec<(IRefKey, f64)>,
}

/// The exact inputs [`Technology::nominal_off_current`] reads for the
/// reference OFF current — a cache entry is valid only for a bitwise
/// match, whatever the technology is named.
#[derive(Debug, Clone, PartialEq)]
struct IRefKey {
    w_min: f64,
    l: f64,
    i0: f64,
    n: f64,
    vt0: f64,
    k_t: f64,
    t_ref: f64,
    vdd: f64,
}

impl IRefKey {
    fn of(tech: &Technology) -> Self {
        IRefKey {
            w_min: tech.nmos.w_min,
            l: tech.nmos.l,
            i0: tech.nmos.i0,
            n: tech.nmos.n,
            vt0: tech.nmos.vt0,
            k_t: tech.nmos.k_t,
            t_ref: tech.t_ref,
            vdd: tech.vdd,
        }
    }
}

impl ScaledTechPower {
    /// Budgets proportional to block areas: the floorplan's total dynamic
    /// and leakage budgets spread by area share — the natural default when
    /// per-block netlists are not available.
    pub fn area_weighted(
        floorplan: &Floorplan,
        total_dynamic_w: f64,
        total_leakage_w: f64,
    ) -> Self {
        let total_area: f64 = floorplan.blocks().iter().map(|b| b.area()).sum();
        let share = |area: f64| {
            if total_area > 0.0 {
                area / total_area
            } else {
                0.0
            }
        };
        ScaledTechPower {
            dynamic_w: floorplan
                .blocks()
                .iter()
                .map(|b| total_dynamic_w * share(b.area()))
                .collect(),
            leakage_ref_w: floorplan
                .blocks()
                .iter()
                .map(|b| total_leakage_w * share(b.area()))
                .collect(),
            i_ref_per_tech: Vec::new(),
        }
    }

    /// Precomputes the per-technology reference OFF currents for `grid`,
    /// removing the only scenario-invariant evaluation from the Picard
    /// hot loop. Unprepared models stay correct — they just recompute
    /// `I_off(T_ref)` per call — and a cache entry is only used when the
    /// scenario technology's parameters match the ones it was computed
    /// from, so running a model prepared for one grid against another
    /// falls back to the per-call computation instead of scaling by the
    /// wrong reference.
    #[must_use]
    pub fn prepared_for(mut self, grid: &ScenarioGrid) -> Self {
        self.i_ref_per_tech = grid
            .technologies()
            .iter()
            .map(|t| {
                (
                    IRefKey::of(t),
                    t.nominal_off_current(Polarity::Nmos, t.nmos.w_min, t.t_ref),
                )
            })
            .collect();
        self
    }

    /// `I_off(T_ref)` for `scenario`'s technology: the prepared cache
    /// entry when its key matches bitwise, the fresh computation
    /// otherwise. Shared by the scalar and batched evaluation paths, so
    /// both resolve exactly the same reference current.
    pub(crate) fn reference_off_current(&self, scenario: &Scenario, tech: &Technology) -> f64 {
        match self.i_ref_per_tech.get(scenario.tech_index) {
            Some((key, i_ref)) if *key == IRefKey::of(tech) => *i_ref,
            _ => tech.nominal_off_current(Polarity::Nmos, tech.nmos.w_min, tech.t_ref),
        }
    }
}

impl ScenarioPowerModel for ScaledTechPower {
    fn block_power(
        &self,
        scenario: &Scenario,
        tech: &Technology,
        block: usize,
        temperature_k: f64,
    ) -> f64 {
        let dynamic =
            scenario.activity * scenario.vdd_scale * scenario.vdd_scale * self.dynamic_w[block];
        let i_ref = self.reference_off_current(scenario, tech);
        let i_t = tech.nominal_off_current(Polarity::Nmos, tech.nmos.w_min, temperature_k);
        let stat = scenario.vdd_scale * self.leakage_ref_w[block] * (i_t / i_ref);
        dynamic + stat
    }

    fn batched<'a>(
        &'a self,
        grid: &'a ScenarioGrid,
        default_ambient_k: f64,
        lanes: usize,
    ) -> Box<dyn BatchPowerModel + 'a> {
        Box::new(ScaledTechBatch::new(self, grid, default_ambient_k, lanes))
    }
}

/// Vectorized batch form of [`ScaledTechPower`].
///
/// Per lane, everything scenario-dependent but temperature-independent is
/// folded into constants when the lane is (re)loaded, so one Picard step
/// evaluates, per element,
///
/// ```text
/// P = s_dyn·P_dyn[i] + s_leak·P_leak[i] · (pre·T²·c_sq·e^{x1}·(1−e^{x2}))·c_ref
/// x1 = c_1·(V_t0 − k_T·(T − T_ref))·(1/T)        x2 = c_2·(1/T)
/// ```
///
/// with a single division (`1/T`) and both exponentials batched through
/// [`ptherm_math::expv::exp_into`]. Algebraically this is exactly the
/// Eq. 13 law [`ScaledTechPower::block_power`] evaluates; numerically it
/// departs from the scalar path in two documented ways: the constant
/// folding reassociates a handful of multiplications/divisions (≈2e-16
/// relative each) and `expv` carries ≤5e-13 relative error — together
/// ≤ ~1e-12 relative on the leakage term, the contract
/// `docs/PERFORMANCE.md` and the batch-oracle tests assert.
pub(crate) struct ScaledTechBatch<'a> {
    model: &'a ScaledTechPower,
    grid: &'a ScenarioGrid,
    default_ambient_k: f64,
    /// Scenario loaded in each lane (for the scalar refresh calls).
    lane_scenarios: Vec<Option<Scenario>>,
    /// `activity·vdd_scale²` per lane.
    s_dyn: Vec<f64>,
    /// `vdd_scale` per lane.
    s_leak: Vec<f64>,
    /// `(w_min/L)·I0` per lane.
    pre: Vec<f64>,
    /// `V_t0`, `k_T`, `T_ref` of the lane's technology.
    vt0: Vec<f64>,
    k_t: Vec<f64>,
    t_ref: Vec<f64>,
    /// `−q/(n·k_B)` per lane (folds the thermal-voltage and `n` divisions
    /// out of the exponent).
    c_1: Vec<f64>,
    /// `−V_DD·q/k_B` per lane.
    c_2: Vec<f64>,
    /// `1/T_ref²` per lane.
    c_sq: Vec<f64>,
    /// `1/I_off(T_ref)` per lane.
    c_ref: Vec<f64>,
    /// Exponent/exponential panels shaped like the last power panel:
    /// batching the two `exp` sweeps into one [`expv::exp_into`] call
    /// each per Picard step amortizes the kernel's per-call overhead
    /// across the whole batch.
    x1: MultiVec,
    x2: MultiVec,
    ex1: MultiVec,
    ex2: MultiVec,
    /// Block-length scratch for the per-lane refresh.
    refresh_x: Vec<f64>,
    refresh_e: Vec<f64>,
}

/// Reshapes scratch panels to `rows × lanes` when the power panel
/// changed shape (a narrowed batch), so each `expv` sweep covers exactly
/// the panel's lanes.
pub(crate) fn fit_panels<const K: usize>(rows: usize, lanes: usize, panels: [&mut MultiVec; K]) {
    for panel in panels {
        if (panel.rows(), panel.lanes()) != (rows, lanes) {
            panel.reset(rows, lanes);
        }
    }
}

/// `q/k_B`, the kelvin-per-volt slope the thermal voltage folds to.
fn charge_over_boltzmann() -> f64 {
    use ptherm_tech::constants::{BOLTZMANN, ELEMENTARY_CHARGE};
    ELEMENTARY_CHARGE / BOLTZMANN
}

impl<'a> ScaledTechBatch<'a> {
    pub(crate) fn new(
        model: &'a ScaledTechPower,
        grid: &'a ScenarioGrid,
        default_ambient_k: f64,
        lanes: usize,
    ) -> Self {
        let n = model.dynamic_w.len();
        ScaledTechBatch {
            model,
            grid,
            default_ambient_k,
            lane_scenarios: vec![None; lanes],
            s_dyn: vec![0.0; lanes],
            s_leak: vec![0.0; lanes],
            pre: vec![0.0; lanes],
            vt0: vec![0.0; lanes],
            k_t: vec![0.0; lanes],
            t_ref: vec![0.0; lanes],
            c_1: vec![0.0; lanes],
            c_2: vec![0.0; lanes],
            c_sq: vec![0.0; lanes],
            c_ref: vec![0.0; lanes],
            x1: MultiVec::default(),
            x2: MultiVec::default(),
            ex1: MultiVec::default(),
            ex2: MultiVec::default(),
            refresh_x: vec![0.0; n],
            refresh_e: vec![0.0; n],
        }
    }
}

impl BatchPowerModel for ScaledTechBatch<'_> {
    fn begin_lane(&mut self, lane: usize, id: usize) {
        let s = self.grid.scenario(id, self.default_ambient_k);
        let tech = &self.grid.technologies()[s.tech_index];
        let p = &tech.nmos;
        let q_over_k = charge_over_boltzmann();
        self.s_dyn[lane] = s.activity * s.vdd_scale * s.vdd_scale;
        self.s_leak[lane] = s.vdd_scale;
        self.pre[lane] = (p.w_min / p.l) * p.i0;
        self.vt0[lane] = p.vt0;
        self.k_t[lane] = p.k_t;
        self.t_ref[lane] = tech.t_ref;
        self.c_1[lane] = -(q_over_k / p.n);
        self.c_2[lane] = -(tech.vdd * q_over_k);
        self.c_sq[lane] = 1.0 / (tech.t_ref * tech.t_ref);
        self.c_ref[lane] = 1.0 / self.model.reference_off_current(&s, tech);
        self.lane_scenarios[lane] = Some(s);
    }

    fn fill_powers(&mut self, temps: &MultiVec, powers: &mut MultiVec) {
        let n = temps.rows();
        let lanes = temps.lanes();
        debug_assert_eq!(n, self.model.dynamic_w.len());
        fit_panels(
            n,
            lanes,
            [&mut self.x1, &mut self.x2, &mut self.ex1, &mut self.ex2],
        );
        // Fixed-length slice bindings hoist every bounds check out of the
        // per-element loops so they vectorize cleanly.
        let vt0 = &self.vt0[..lanes];
        let k_t = &self.k_t[..lanes];
        let t_ref = &self.t_ref[..lanes];
        let c_1 = &self.c_1[..lanes];
        let c_2 = &self.c_2[..lanes];
        // Pass 1: the Eq. 13 exponents with the divisions folded to one
        // `1/T` per element.
        for i in 0..n {
            let trow = &temps.component(i)[..lanes];
            let x1 = &mut self.x1.component_mut(i)[..lanes];
            let x2 = &mut self.x2.component_mut(i)[..lanes];
            for j in 0..lanes {
                let t = trow[j];
                let inv_t = 1.0 / t;
                let vth = vt0[j] - k_t[j] * (t - t_ref[j]);
                x1[j] = c_1[j] * vth * inv_t;
                x2[j] = c_2[j] * inv_t;
            }
        }
        // Pass 2: both exponential sweeps over the whole panel at once.
        expv::exp_into(self.x1.as_slice(), self.ex1.as_mut_slice());
        expv::exp_into(self.x2.as_slice(), self.ex2.as_mut_slice());
        // Pass 3: assemble dynamic + leakage power.
        let pre = &self.pre[..lanes];
        let c_sq = &self.c_sq[..lanes];
        let c_ref = &self.c_ref[..lanes];
        let s_dyn = &self.s_dyn[..lanes];
        let s_leak = &self.s_leak[..lanes];
        for i in 0..n {
            let trow = &temps.component(i)[..lanes];
            let e1 = &self.ex1.component(i)[..lanes];
            let e2 = &self.ex2.component(i)[..lanes];
            let dw = self.model.dynamic_w[i];
            let lw = self.model.leakage_ref_w[i];
            let prow = &mut powers.component_mut(i)[..lanes];
            for j in 0..lanes {
                let t = trow[j];
                let i_t = pre[j] * ((t * t) * c_sq[j]) * e1[j] * (1.0 - e2[j]);
                prow[j] = s_dyn[j] * dw + (s_leak[j] * lw) * (i_t * c_ref[j]);
            }
        }
    }

    fn lane_power(&self, lane: usize, block: usize, t: f64) -> Option<f64> {
        let s = self.lane_scenarios.get(lane)?.as_ref()?;
        Some(
            self.model
                .block_power(s, &self.grid.technologies()[s.tech_index], block, t),
        )
    }

    fn refresh_lane(&mut self, lane: usize, temps: &[f64], powers: &mut [f64]) {
        // Same folded arithmetic as `fill_powers`, vectorized across the
        // blocks of this one lane; `powers` doubles as the e^{x2} scratch.
        let n = temps.len();
        {
            let x = &mut self.refresh_x[..n];
            for (x, &t) in x.iter_mut().zip(temps) {
                let vth = self.vt0[lane] - self.k_t[lane] * (t - self.t_ref[lane]);
                *x = self.c_1[lane] * vth * (1.0 / t);
            }
            expv::exp_into(x, &mut self.refresh_e[..n]);
        }
        {
            let x = &mut self.refresh_x[..n];
            for (x, &t) in x.iter_mut().zip(temps) {
                *x = self.c_2[lane] * (1.0 / t);
            }
            expv::exp_into(x, powers);
        }
        for b in 0..n {
            let t = temps[b];
            let e2v = powers[b];
            let i_t =
                self.pre[lane] * ((t * t) * self.c_sq[lane]) * self.refresh_e[b] * (1.0 - e2v);
            powers[b] = self.s_dyn[lane] * self.model.dynamic_w[b]
                + (self.s_leak[lane] * self.model.leakage_ref_w[b]) * (i_t * self.c_ref[lane]);
        }
    }
}

/// Outcome of one scenario solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepOutcome {
    /// The fixed point was found.
    Converged {
        /// Block temperatures at the operating point, K.
        block_temperatures: Vec<f64>,
        /// Block powers at the operating point, W.
        block_powers: Vec<f64>,
        /// Picard iterations used.
        iterations: usize,
    },
    /// No stable operating point exists (thermal runaway).
    Runaway {
        /// Iteration at which the ceiling was crossed.
        iteration: usize,
        /// Hottest block temperature reached, K.
        temperature: f64,
    },
    /// Iteration budget exhausted.
    NotConverged {
        /// Last max block-temperature change, K.
        last_delta: f64,
    },
    /// The power model returned a non-finite or negative value.
    BadPower {
        /// Offending block.
        block: usize,
        /// Offending value.
        power: f64,
    },
    /// The solve was cancelled cooperatively (deadline or explicit
    /// [`CancelToken`]) before this scenario
    /// resolved.
    Cancelled {
        /// Picard iterations completed before cancellation (0 for
        /// scenarios never started).
        iterations: usize,
    },
}

impl SweepOutcome {
    /// True for [`SweepOutcome::Converged`].
    pub fn is_converged(&self) -> bool {
        matches!(self, SweepOutcome::Converged { .. })
    }

    /// Peak block temperature for converged points, K.
    pub fn peak_temperature(&self) -> Option<f64> {
        match self {
            SweepOutcome::Converged {
                block_temperatures, ..
            } => crate::cosim::operator::max_temperature(block_temperatures),
            _ => None,
        }
    }

    /// Total power for converged points, W.
    pub fn total_power(&self) -> Option<f64> {
        match self {
            SweepOutcome::Converged { block_powers, .. } => Some(block_powers.iter().sum()),
            _ => None,
        }
    }

    pub(crate) fn from_error(err: CosimError) -> Self {
        match err {
            CosimError::ThermalRunaway {
                iteration,
                temperature,
            } => SweepOutcome::Runaway {
                iteration,
                temperature,
            },
            CosimError::NotConverged { last_delta } => SweepOutcome::NotConverged { last_delta },
            CosimError::BadPower { block, power } => SweepOutcome::BadPower { block, power },
        }
    }
}

impl fmt::Display for SweepOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Failure arms delegate to CosimError so the wording lives once.
        match self {
            SweepOutcome::Converged { iterations, .. } => write!(
                f,
                "converged in {iterations} iterations (peak {:.2} K, {:.3} W)",
                self.peak_temperature().unwrap_or(f64::NAN),
                self.total_power().unwrap_or(f64::NAN)
            ),
            SweepOutcome::Runaway {
                iteration,
                temperature,
            } => CosimError::ThermalRunaway {
                iteration: *iteration,
                temperature: *temperature,
            }
            .fmt(f),
            SweepOutcome::NotConverged { last_delta } => CosimError::NotConverged {
                last_delta: *last_delta,
            }
            .fmt(f),
            SweepOutcome::BadPower { block, power } => CosimError::BadPower {
                block: *block,
                power: *power,
            }
            .fmt(f),
            SweepOutcome::Cancelled { iterations } => {
                write!(f, "cancelled after {iterations} iterations")
            }
        }
    }
}

/// Results of one sweep, in scenario enumeration order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One outcome per scenario.
    pub outcomes: Vec<SweepOutcome>,
}

impl SweepReport {
    /// Number of scenarios swept.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True for an empty sweep.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Scenarios that reached a fixed point.
    pub fn converged_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_converged()).count()
    }

    /// Scenarios that ran away thermally.
    pub fn runaway_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, SweepOutcome::Runaway { .. }))
            .count()
    }

    /// Total Picard iterations spent on converged scenarios.
    pub fn total_iterations(&self) -> usize {
        self.outcomes
            .iter()
            .map(|o| match o {
                SweepOutcome::Converged { iterations, .. } => *iterations,
                _ => 0,
            })
            .sum()
    }

    /// Hottest converged operating point across the sweep, K.
    pub fn max_peak_temperature(&self) -> Option<f64> {
        self.outcomes
            .iter()
            .filter_map(SweepOutcome::peak_temperature)
            .reduce(f64::max)
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scenarios: {} converged, {} runaway, {} other",
            self.len(),
            self.converged_count(),
            self.runaway_count(),
            self.len() - self.converged_count() - self.runaway_count()
        )
    }
}

/// One scenario of a spatial map sweep: the block-level Picard outcome
/// plus, for converged scenarios, the rendered high-resolution map.
#[derive(Debug, Clone)]
pub struct MapOutcome {
    /// Block-level fixed-point outcome (identical to what
    /// [`SweepEngine::sweep`] would report for this scenario).
    pub outcome: SweepOutcome,
    /// Absolute tile temperatures (row-major `nx × ny`, K); present
    /// exactly when the scenario converged.
    pub map_k: Option<Vec<f64>>,
}

/// Results of one spatial map sweep, in scenario enumeration order.
#[derive(Debug, Clone)]
pub struct MapReport {
    /// Map grid width in tiles.
    pub nx: usize,
    /// Map grid height in tiles.
    pub ny: usize,
    /// One outcome per scenario.
    pub outcomes: Vec<MapOutcome>,
}

impl MapReport {
    /// Number of scenarios swept.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True for an empty sweep.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Scenarios that reached a fixed point (and therefore have a map).
    pub fn converged_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome.is_converged())
            .count()
    }

    /// The map of scenario `index`, if it converged.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn map(&self, index: usize) -> Option<&[f64]> {
        self.outcomes[index].map_k.as_deref()
    }

    /// Hottest tile across every converged scenario's map, K.
    pub fn max_map_temperature(&self) -> Option<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.map_k.as_deref())
            .filter_map(crate::cosim::operator::max_temperature)
            .reduce(f64::max)
    }
}

impl fmt::Display for MapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scenarios on a {}x{} map grid: {} converged",
            self.len(),
            self.nx,
            self.ny,
            self.converged_count()
        )
    }
}

/// Batched, parallel sweep driver for one floorplan.
///
/// Construction precomputes the [`ThermalOperator`]; [`SweepEngine::sweep`]
/// then shards the scenario stream across worker threads, each advancing
/// a [`BatchedSolver`] batch of up to [`Self::batch_lanes`] scenarios
/// per Picard step and refilling lanes from a shared cursor as scenarios
/// resolve. See the [module docs](self) for the full picture and
/// [`Self::run_per_scenario`] for the one-at-a-time oracle path.
#[derive(Debug)]
pub struct SweepEngine {
    solver: ElectroThermalSolver,
    /// Lazily built, shared so a fleet-level cache can hand one factored
    /// operator to many engines (and many worker threads) without
    /// copying it. Lazy because a spectral-backend sweep never reads it
    /// — an engine serving a 4096-block floorplan spectrally must not
    /// pay the `O(n²·images)` dense assembly.
    operator: OnceLock<Arc<ThermalOperator>>,
    /// Lazily built spectral twin (see [`SpectralOperator`]).
    spectral: OnceLock<Arc<SpectralOperator>>,
    backend: SweepBackend,
    spectral_tolerance: f64,
    threads: usize,
    batch_lanes: usize,
}

/// Default batch width: wide enough to amortize every influence-matrix
/// load across several SIMD register tiles, small enough that the batch
/// panels of a mid-size floorplan stay cache-resident per worker (the
/// `sweep` bench sweeps this knob; 64 wins on AVX-512 and AVX2 alike).
const DEFAULT_BATCH_LANES: usize = 64;

/// Block count at which [`SweepBackend::Auto`] switches from the dense
/// GEMM path to the spectral apply (provided the floorplan is
/// grid-coincident, see [`infer_grid`]). Below this the dense operator
/// is cheap to build and its per-step GEMM beats the FFT's constant
/// factor; above it the `O(n²·images)` build alone dominates whole
/// sweeps (the `spectral` bench quantifies the crossover).
pub const SPECTRAL_AUTO_THRESHOLD: usize = 512;

/// Which influence-operator backend a [`SweepEngine`] advances its
/// batched Picard iterations through. Both backends share one Picard
/// skeleton (`crate::cosim::batch::drive_picard`), so guard order and
/// outcome classification are identical by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepBackend {
    /// Pick per floorplan: spectral for grid-coincident floorplans of at
    /// least [`SPECTRAL_AUTO_THRESHOLD`] blocks, dense otherwise. The
    /// default.
    Auto,
    /// The `n × n` influence-matrix GEMM path — the small-`n` default
    /// and the correctness oracle.
    Dense,
    /// The `O(N log N)` scatter → FFT → sample path. Requires a
    /// grid-coincident floorplan; [`SweepEngine::sweep`] panics otherwise
    /// (the fleet layer pre-validates and reports the typed
    /// [`SpectralGridError`] instead).
    Spectral,
}

impl SweepBackend {
    /// Stable lower-case name (`"auto"` / `"dense"` / `"spectral"`) —
    /// what fleet result lines report and job specs parse.
    pub fn name(self) -> &'static str {
        match self {
            SweepBackend::Auto => "auto",
            SweepBackend::Dense => "dense",
            SweepBackend::Spectral => "spectral",
        }
    }

    /// The backend this choice runs `floorplan` on, decided before any
    /// operator is built: `Auto` resolves to spectral for
    /// grid-coincident floorplans of at least [`SPECTRAL_AUTO_THRESHOLD`]
    /// blocks, dense otherwise; explicit choices pass through.
    pub fn resolve(self, floorplan: &Floorplan) -> SweepBackend {
        match self {
            SweepBackend::Auto
                if floorplan.blocks().len() >= SPECTRAL_AUTO_THRESHOLD
                    && infer_grid(floorplan).is_ok() =>
            {
                SweepBackend::Spectral
            }
            SweepBackend::Auto => SweepBackend::Dense,
            explicit => explicit,
        }
    }
}

impl fmt::Display for SweepBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-call options for the [`SweepEngine`] entry points
/// ([`SweepEngine::sweep`], [`SweepEngine::sweep_seeded`],
/// [`SweepEngine::map`], [`SweepEngine::transient`] and
/// [`SweepEngine::map_envelope`]): one entry point per workload, with
/// cancellation and an already-built operator (the cache-amortized
/// path) both optional and composable.
///
/// `Op` is the workload's operator type: [`Arc<ThermalOperator>`] for
/// steady sweeps, [`TransientOperator`] for transients,
/// [`MapOperator`] for map renders.
///
/// # Example
///
/// ```no_run
/// # use ptherm_core::cosim::{RunOptions, SweepEngine, ScenarioGrid};
/// # use ptherm_par::CancelToken;
/// # fn demo(engine: &SweepEngine, grid: &ScenarioGrid) {
/// let power = engine.uniform_tech_power(40.0, 8.0);
/// let token = CancelToken::new();
/// let report = engine.sweep(grid, &power, RunOptions::new().cancel(&token));
/// # let _ = report;
/// # }
/// ```
pub struct RunOptions<'a, Op> {
    /// Cooperative cancellation token, checkpointed at the workload's
    /// natural granularity (per Picard iteration / time step / render).
    /// `None` runs to completion.
    pub cancel: Option<&'a CancelToken>,
    /// An **already built** operator to replay instead of building one
    /// — the cache-amortized path. Must match what this engine would
    /// build (fingerprint-checked; a mismatch panics as a cache-keying
    /// bug). `None` builds (or reuses the engine's lazily built)
    /// operator.
    pub operator: Option<&'a Op>,
}

impl<Op> Default for RunOptions<'_, Op> {
    fn default() -> Self {
        RunOptions {
            cancel: None,
            operator: None,
        }
    }
}

// Manual impls: a derive would demand `Op: Clone/Copy`, but the struct
// only holds references to `Op`.
impl<Op> Clone for RunOptions<'_, Op> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<Op> Copy for RunOptions<'_, Op> {}

impl<Op> fmt::Debug for RunOptions<'_, Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions")
            .field("cancel", &self.cancel.is_some())
            .field("operator", &self.operator.is_some())
            .finish()
    }
}

impl<'a, Op> RunOptions<'a, Op> {
    /// All-defaults options: no cancellation, self-built operator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a cooperative [`CancelToken`].
    #[must_use]
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Replays an already-built operator (see [`RunOptions::operator`]).
    #[must_use]
    pub fn operator(mut self, op: &'a Op) -> Self {
        self.operator = Some(op);
        self
    }
}

impl SweepEngine {
    /// Engine with the default solver configuration and one worker per
    /// available CPU.
    pub fn new(floorplan: Floorplan) -> Self {
        Self::with_solver(ElectroThermalSolver::new(floorplan))
    }

    /// Engine around a configured solver (damping, tolerances, image
    /// orders); operators are built lazily on first use, so a
    /// spectral-only engine never assembles the dense matrix.
    pub fn with_solver(solver: ElectroThermalSolver) -> Self {
        SweepEngine {
            solver,
            operator: OnceLock::new(),
            spectral: OnceLock::new(),
            backend: SweepBackend::Auto,
            spectral_tolerance: DEFAULT_REFINEMENT_TOLERANCE,
            threads: ptherm_par::default_threads(),
            batch_lanes: DEFAULT_BATCH_LANES,
        }
    }

    /// Engine around a configured solver and an **already built**
    /// operator — the cache-amortized construction path: a fleet-level
    /// [`ThermalOperator`] cache builds (or recalls) the operator once
    /// per floorplan fingerprint and hands it to every job's engine,
    /// skipping the dominant cold cost of [`Self::with_solver`].
    ///
    /// The operator must have been built at the solver's floorplan and
    /// image orders; results are then bit-identical to an engine that
    /// built its own (the build is deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the operator's block count or fingerprint does not
    /// match what the solver would build, so a cache bug surfaces here
    /// rather than as silently wrong temperatures.
    pub fn with_operator(solver: ElectroThermalSolver, operator: Arc<ThermalOperator>) -> Self {
        assert_eq!(
            operator.fingerprint(),
            crate::cosim::operator_fingerprint(
                solver.floorplan(),
                solver.lateral_order,
                solver.z_order
            ),
            "operator/solver fingerprint mismatch"
        );
        let engine = Self::with_solver(solver);
        let _ = engine.operator.set(operator);
        engine
    }

    /// Engine around a configured solver and an **already built**
    /// spectral operator — the cache-amortized spectral construction
    /// path, mirroring [`Self::with_operator`]. The backend is pinned to
    /// [`SweepBackend::Spectral`] and the engine adopts the operator's
    /// refinement tolerance.
    ///
    /// # Panics
    ///
    /// Panics if the operator's fingerprint does not match what the
    /// solver would build at the operator's grid and tolerance, so a
    /// cache bug surfaces here rather than as silently wrong
    /// temperatures.
    pub fn with_spectral_operator(
        solver: ElectroThermalSolver,
        operator: Arc<SpectralOperator>,
    ) -> Self {
        assert_eq!(
            operator.fingerprint(),
            spectral_operator_fingerprint(
                solver.floorplan(),
                solver.lateral_order,
                solver.z_order,
                operator.nx(),
                operator.ny(),
                operator.tolerance(),
            ),
            "spectral operator/solver fingerprint mismatch"
        );
        let mut engine = Self::with_solver(solver);
        engine.backend = SweepBackend::Spectral;
        engine.spectral_tolerance = operator.tolerance();
        let _ = engine.spectral.set(operator);
        engine
    }

    /// Sets the worker-thread count (1 = run inline, still batched).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Selects the influence-operator backend (default
    /// [`SweepBackend::Auto`]). On coincident-grid floorplans the
    /// backends agree to ≤ 1e-6 K with identical outcome kinds
    /// (`tests/spectral_validation.rs` pins this), so `Auto` is a pure
    /// performance decision.
    #[must_use]
    pub fn backend(mut self, backend: SweepBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the spectral backend's near-field rasterization tolerance
    /// (K per W; see [`SpectralOperator`]). Takes effect on the next
    /// spectral-operator build — a no-op once one is built or injected.
    #[must_use]
    pub fn spectral_tolerance(mut self, tolerance: f64) -> Self {
        self.spectral_tolerance = tolerance;
        self
    }

    /// Sets the upper bound on the scenarios-per-batch width of the
    /// GEMM-batched hot path (1 = scalar-shaped batches, still through
    /// the batched solver). Each worker starts at this width or at its
    /// share of the work, `⌈scenarios / threads⌉`, whichever is
    /// smaller, and a Picard batch narrows further as it drains (see
    /// [`crate::cosim::batch`]), so a small sweep never pays for lanes
    /// it cannot fill.
    /// Results are bitwise identical across widths: every lane runs the
    /// same per-lane operation sequence whatever its batch neighbours.
    #[must_use]
    pub fn batch_lanes(mut self, lanes: usize) -> Self {
        self.batch_lanes = lanes.max(1);
        self
    }

    /// Reconfigures the solver, discarding any built operators (image
    /// orders may have changed; they rebuild lazily on next use).
    #[must_use]
    pub fn configure(mut self, f: impl FnOnce(&mut ElectroThermalSolver)) -> Self {
        f(&mut self.solver);
        self.operator = OnceLock::new();
        self.spectral = OnceLock::new();
        self
    }

    /// The engine's solver configuration.
    pub fn solver(&self) -> &ElectroThermalSolver {
        &self.solver
    }

    /// The dense influence operator, building it on first call.
    pub fn operator(&self) -> &ThermalOperator {
        self.dense_operator()
    }

    /// The dense operator as a shareable handle (what a fleet cache
    /// stores), building it on first call.
    pub fn shared_operator(&self) -> Arc<ThermalOperator> {
        Arc::clone(self.dense_operator())
    }

    fn dense_operator(&self) -> &Arc<ThermalOperator> {
        self.operator
            .get_or_init(|| Arc::new(self.solver.operator()))
    }

    /// The spectral influence operator, building it on first call.
    ///
    /// # Errors
    ///
    /// [`SpectralGridError`] when the floorplan's block centres sit on
    /// no uniform tile grid (see [`infer_grid`]).
    pub fn spectral_operator(&self) -> Result<&Arc<SpectralOperator>, SpectralGridError> {
        if let Some(op) = self.spectral.get() {
            return Ok(op);
        }
        let built = Arc::new(SpectralOperator::with_image_orders_threaded(
            self.solver.floorplan(),
            self.solver.lateral_order,
            self.solver.z_order,
            self.spectral_tolerance,
            self.threads,
        )?);
        // A concurrent initializer winning the race is fine: same
        // inputs, bit-identical build — ours is simply dropped.
        Ok(self.spectral.get_or_init(|| built))
    }

    /// The backend [`Self::sweep`] will actually use
    /// ([`SweepBackend::resolve`] on this engine's floorplan).
    pub fn resolved_backend(&self) -> SweepBackend {
        let plan = self.solver.floorplan();
        match self.backend {
            // A built spectral operator already proves the grid.
            SweepBackend::Auto
                if self.spectral.get().is_some()
                    && plan.blocks().len() >= SPECTRAL_AUTO_THRESHOLD =>
            {
                SweepBackend::Spectral
            }
            backend => backend.resolve(plan),
        }
    }

    /// A ready-made [`ScaledTechPower`] spreading chip-level dynamic and
    /// leakage budgets over this engine's floorplan by block area.
    pub fn uniform_tech_power(
        &self,
        total_dynamic_w: f64,
        total_leakage_w: f64,
    ) -> ScaledTechPower {
        ScaledTechPower::area_weighted(self.solver.floorplan(), total_dynamic_w, total_leakage_w)
    }

    /// Sweeps a scenario grid under a power model through the
    /// GEMM-batched hot path — the unified steady entry point.
    ///
    /// A grid without an explicit ambient axis inherits this engine's
    /// floorplan sink temperature, matching one-shot solves. Workers
    /// pull scenario indices from one shared cursor (dynamic sharding),
    /// refilling their batch lanes as scenarios resolve, so outcomes
    /// are independent of the thread count and batch width. Results
    /// agree with [`Self::run_per_scenario`] to the ULP-level contract
    /// documented in [`crate::cosim::batch`].
    ///
    /// [`RunOptions`] composes the per-call knobs:
    ///
    /// * `cancel` — cooperative token checkpointed once per Picard
    ///   iteration. When it fires, in-flight scenarios retire as
    ///   [`SweepOutcome::Cancelled`] with their iteration counts and
    ///   never-started scenarios as `Cancelled` with zero iterations;
    ///   the engine, its cached operators and all workspaces stay
    ///   fully reusable. A token that never fires leaves results
    ///   bitwise identical to an uncancelled run.
    /// * `operator` — an already-built dense [`ThermalOperator`]
    ///   handle to replay (the cache-amortized path; fingerprint
    ///   checked). Ignored when the resolved backend is spectral.
    ///
    /// Every scenario starts cold at its ambient; [`Self::sweep_seeded`]
    /// starts them from explicit seeds instead.
    ///
    /// # Panics
    ///
    /// Panics on an operator fingerprint mismatch, or when the backend
    /// is explicitly [`SweepBackend::Spectral`] on a
    /// non-grid-coincident floorplan. Callers that need a typed failure
    /// (the fleet) pre-validate with [`infer_grid`].
    pub fn sweep<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        opts: RunOptions<'_, Arc<ThermalOperator>>,
    ) -> SweepReport {
        self.sweep_seeded(grid, model, &|_| None, opts)
    }

    /// [`Self::sweep`] with per-scenario initial-temperature seeds — the
    /// incremental re-solve entry point (the fleet's `delta` jobs ride
    /// it, seeding each scenario from a cached base result's fixed
    /// point).
    ///
    /// `seed_of` maps a scenario index to an optional seed vector
    /// (block temperatures, floorplan order). `None` — and any seed of
    /// the wrong length — starts that scenario cold at its ambient, so
    /// a caller with no usable seeds degrades to exactly
    /// [`Self::sweep`]'s cold behaviour, bitwise. Seeds are clamped to
    /// the scenario ambient per block (see
    /// [`LaneStart`]); callers whose
    /// seeds lie at or below the true fixed point therefore converge to
    /// the same fixed points as a cold run, in no more iterations.
    ///
    /// Seeding is per scenario index — independent of thread count and
    /// batch width — so results carry the same bitwise-invariance
    /// contract as [`Self::sweep`].
    ///
    /// # Panics
    ///
    /// As [`Self::sweep`].
    pub fn sweep_seeded<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        seed_of: &(dyn Fn(usize) -> Option<Vec<f64>> + Sync),
        opts: RunOptions<'_, Arc<ThermalOperator>>,
    ) -> SweepReport {
        if let Some(op) = opts.operator {
            assert_eq!(
                op.fingerprint(),
                crate::cosim::operator_fingerprint(
                    self.solver.floorplan(),
                    self.solver.lateral_order,
                    self.solver.z_order
                ),
                "operator/solver fingerprint mismatch"
            );
        }
        // The floorplan's sink, not the operator's (same value by the
        // fingerprint contract): reading it must not force a dense
        // build under the spectral backend.
        let sink_k = self.solver.floorplan().geometry().sink_temperature;
        self.run_batched(
            grid.len(),
            |id| grid.scenario(id, sink_k).ambient_k,
            |lanes| model.batched(grid, sink_k, lanes),
            opts.cancel,
            opts.operator,
            Some(seed_of),
        )
    }

    /// The generic batched entry point: sweeps arbitrary scenario values
    /// with caller-supplied ambient and power functions. Outcomes
    /// preserve input order.
    pub fn run_scenarios<S, A, P>(&self, scenarios: &[S], ambient_k: A, power: P) -> SweepReport
    where
        S: Sync,
        A: Fn(&S) -> f64 + Sync,
        P: Fn(&S, usize, f64) -> f64 + Sync,
    {
        self.run_batched(
            scenarios.len(),
            |id| ambient_k(&scenarios[id]),
            |_| {
                Box::new(crate::cosim::batch::FnBatchPower::new(
                    |id: usize, block: usize, t: f64| power(&scenarios[id], block, t),
                ))
            },
            None,
            None,
            None,
        )
    }

    /// Builds the spatial [`MapOperator`] this engine's floorplan and
    /// image orders imply for an `nx × ny` tile grid — the kernel
    /// assembly [`Self::map`] would perform internally, exposed so a
    /// fleet-level cache can build it once per
    /// [`map_operator_fingerprint`] and replay it through
    /// [`RunOptions::operator`].
    pub fn map_operator(&self, nx: usize, ny: usize) -> MapOperator {
        MapOperator::with_image_orders_threaded(
            self.solver.floorplan(),
            nx,
            ny,
            self.solver.lateral_order,
            self.solver.z_order,
            self.threads,
        )
    }

    /// Sweeps a scenario grid and renders a high-resolution `nx × ny`
    /// temperature map per converged scenario — the unified map entry
    /// point.
    ///
    /// Leakage feedback is closed through the **existing** batched
    /// Picard loop ([`Self::sweep`]: up to `Self::batch_lanes` scenarios
    /// per GEMM step on the `MultiVec` path); the converged block power
    /// vectors are then rasterized and convolved through the FFT map
    /// operator, one render per scenario, sharded over
    /// `Self::threads` workers with a reusable [`MapWorkspace`] each.
    /// Results are bitwise independent of thread count and batch width
    /// (the Picard contract plus a deterministic serial render per
    /// scenario).
    ///
    /// [`RunOptions`] composes the per-call knobs:
    ///
    /// * `cancel` — checkpointed once per Picard iteration during the
    ///   sweep and once per scenario during the FFT render pass.
    ///   Scenarios cancelled mid-sweep carry
    ///   [`SweepOutcome::Cancelled`]; converged scenarios whose render
    ///   was skipped by a late cancellation keep their sweep outcome
    ///   with `map_k: None`. A token that never fires leaves results
    ///   bitwise identical to an uncancelled run.
    /// * `operator` — an already-built [`MapOperator`] to replay (see
    ///   [`Self::map_operator`]); its grid must be `nx × ny`. Results
    ///   are bit-identical to the self-building path for an operator
    ///   built from the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if the supplied operator's grid is not `nx × ny`, or if
    /// it was built for a different floorplan geometry or image orders
    /// than this engine would build (fingerprint mismatch) — a
    /// cache-keying bug, caught here rather than rendering the wrong
    /// chip.
    pub fn map<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        nx: usize,
        ny: usize,
        opts: RunOptions<'_, MapOperator>,
    ) -> MapReport {
        match opts.operator {
            Some(map_op) => {
                assert_eq!(
                    (map_op.nx(), map_op.ny()),
                    (nx, ny),
                    "map operator grid mismatch"
                );
                self.map_inner(grid, model, map_op, opts.cancel)
            }
            None => self.map_inner(grid, model, &self.map_operator(nx, ny), opts.cancel),
        }
    }

    /// Shared map driver behind [`Self::map`]: fingerprint-checks the
    /// operator, runs the Picard sweep, then renders converged
    /// scenarios through the FFT operator.
    fn map_inner<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        map_op: &MapOperator,
        cancel: Option<&CancelToken>,
    ) -> MapReport {
        assert_eq!(
            map_op.fingerprint(),
            map_operator_fingerprint(
                self.solver.floorplan(),
                self.solver.lateral_order,
                self.solver.z_order,
                map_op.nx(),
                map_op.ny(),
            ),
            "map operator/solver fingerprint mismatch"
        );
        let sweep = self.sweep(
            grid,
            model,
            RunOptions {
                cancel,
                operator: None,
            },
        );
        let sink_k = self.solver.floorplan().geometry().sink_temperature;
        let outcomes = ptherm_par::par_map_with(
            self.threads,
            &sweep.outcomes,
            MapWorkspace::new,
            |ws, id, outcome| {
                // Render-pass checkpoint: one poll per scenario. A late
                // cancellation skips the remaining renders but keeps
                // each scenario's sweep outcome.
                if cancel.is_some_and(|token| token.is_cancelled()) {
                    return MapOutcome {
                        outcome: outcome.clone(),
                        map_k: None,
                    };
                }
                let map_k = match outcome {
                    SweepOutcome::Converged { block_powers, .. } => {
                        let mut map = vec![0.0; map_op.tiles()];
                        map_op.temperature_map_into(
                            block_powers,
                            grid.scenario(id, sink_k).ambient_k,
                            ws,
                            &mut map,
                        );
                        Some(map)
                    }
                    _ => None,
                };
                MapOutcome {
                    outcome: outcome.clone(),
                    map_k,
                }
            },
        );
        MapReport {
            nx: map_op.nx(),
            ny: map_op.ny(),
            outcomes,
        }
    }

    /// Each worker's starting batch width for `total` work items: its
    /// share of the work, `⌈total / threads⌉`, capped by
    /// [`Self::batch_lanes`] (and at least 1).
    fn worker_lanes(&self, total: usize) -> usize {
        self.batch_lanes.min(total.div_ceil(self.threads)).max(1)
    }

    /// Shared batched driver: `total` scenario ids, an ambient lookup and
    /// a per-worker batched-model factory, called with the worker's
    /// width ([`Self::worker_lanes`]). Dispatches to the resolved
    /// backend (honouring a pre-built dense operator from
    /// [`RunOptions`]); both paths run the same Picard skeleton. Each
    /// lane starts cold at its ambient, or from `seed_of(id)` when
    /// `seed_of` is given and yields a seed.
    ///
    /// # Panics
    ///
    /// Panics when the backend is explicitly [`SweepBackend::Spectral`]
    /// and the floorplan is not grid-coincident. Callers that need a
    /// typed failure (the fleet) pre-validate with [`infer_grid`].
    pub(crate) fn run_batched<'m>(
        &self,
        total: usize,
        ambient_of: impl Fn(usize) -> f64 + Sync,
        make_model: impl Fn(usize) -> Box<dyn BatchPowerModel + 'm> + Sync,
        cancel: Option<&CancelToken>,
        dense_override: Option<&Arc<ThermalOperator>>,
        seed_of: Option<&(dyn Fn(usize) -> Option<Vec<f64>> + Sync)>,
    ) -> SweepReport {
        let spectral = match self.resolved_backend() {
            SweepBackend::Spectral => Some(match self.spectral_operator() {
                Ok(op) => Arc::clone(op),
                // lint:allow(panic-freedom) — documented `# Panics` contract; callers needing a typed failure (the fleet) pre-validate with `infer_grid`
                Err(e) => panic!("spectral backend requested on an incompatible floorplan: {e}"),
            }),
            _ => None,
        };
        let dense = match &spectral {
            None => Some(Arc::clone(
                dense_override.unwrap_or_else(|| self.dense_operator()),
            )),
            Some(_) => None,
        };
        let lanes = self.worker_lanes(total);
        let cursor = AtomicUsize::new(0);
        let per_worker = ptherm_par::par_workers(self.threads, |_worker| {
            let mut model = make_model(lanes);
            let mut ws = BatchWorkspace::new();
            let mut collected: Vec<(usize, SweepOutcome)> = Vec::new();
            let mut source = || {
                let id = cursor.fetch_add(1, Ordering::Relaxed);
                (id < total).then(|| LaneStart {
                    id,
                    ambient_k: ambient_of(id),
                    seed: seed_of.and_then(|seed_of| seed_of(id)),
                })
            };
            let mut sink = |id: usize, outcome: SweepOutcome| collected.push((id, outcome));
            match (&spectral, &dense) {
                (Some(op), _) => SpectralBatchedSolver::new(&self.solver, op).drive(
                    lanes,
                    &mut *model,
                    &mut ws,
                    &mut SpectralScratch::new(),
                    cancel,
                    &mut source,
                    &mut sink,
                ),
                (None, Some(op)) => BatchedSolver::new(&self.solver, op).drive(
                    lanes,
                    &mut *model,
                    &mut ws,
                    cancel,
                    &mut source,
                    &mut sink,
                ),
                // lint:allow(panic-freedom) — `dense` is Some exactly when `spectral` is None (constructed two matches above)
                (None, None) => unreachable!("one backend operator is always resolved"),
            }
            collected
        });
        // Scenarios still in the shared cursor when a token fires were
        // never pulled into a lane: they retire as Cancelled with zero
        // iterations. Without a fired token every slot must be filled —
        // the original exhaustiveness contract.
        let cancelled = cancel.is_some_and(|token| token.fired());
        let mut outcomes: Vec<Option<SweepOutcome>> = (0..total).map(|_| None).collect();
        for (id, outcome) in per_worker.into_iter().flatten() {
            outcomes[id] = Some(outcome);
        }
        SweepReport {
            outcomes: outcomes
                .into_iter()
                .map(|o| match o {
                    Some(outcome) => outcome,
                    None => {
                        assert!(cancelled, "every scenario resolved");
                        SweepOutcome::Cancelled { iterations: 0 }
                    }
                })
                .collect(),
        }
    }

    /// Per-block thermal capacitances for a transient run: the config's
    /// own, or silicon column capacitances derived from the floorplan.
    fn transient_capacitances(&self, cfg: &TransientConfig) -> Vec<f64> {
        cfg.capacitances
            .clone()
            .unwrap_or_else(|| silicon_block_capacitances(self.solver.floorplan()))
    }

    /// Builds the implicit transient operator `cfg` implies for this
    /// engine's floorplan — the factorization [`Self::transient`] would
    /// perform internally, exposed so a fleet-level cache can build it
    /// once per `(floorplan, capacitances, dt, scheme)` fingerprint and
    /// replay it through [`RunOptions::operator`].
    ///
    /// # Errors
    ///
    /// See [`TransientError`].
    pub fn transient_operator(
        &self,
        cfg: &TransientConfig,
    ) -> Result<TransientOperator, TransientError> {
        let caps = self.transient_capacitances(cfg);
        TransientOperator::new(self.dense_operator(), &caps, cfg.dt, cfg.scheme)
    }

    /// Sweeps a scenario × drive-waveform grid through the batched
    /// implicit **transient** engine ([`crate::cosim::transient`]) —
    /// the unified transient entry point.
    ///
    /// Every scenario of `grid` runs under every waveform of `cfg`, up
    /// to `Self::batch_lanes` transients advancing per time step through
    /// the `Φ`/`Q` GEMM recurrence, chunks sharded over
    /// `Self::threads` workers. Outcomes land scenario-major
    /// ([`TransientReport::outcome`]); results are independent of
    /// thread count and batch width (the [`crate::cosim::batch`]
    /// per-lane contract).
    ///
    /// [`RunOptions`] composes the per-call knobs:
    ///
    /// * `cancel` — checkpointed once per time step. Lanes in flight
    ///   when the token fires retire as
    ///   [`TransientOutcome::Cancelled`] at the step they reached;
    ///   chunks claimed after it fires retire immediately at step 0. A
    ///   token that never fires leaves results bitwise identical to an
    ///   uncancelled run.
    /// * `operator` — an **already factored** propagator to replay
    ///   (see [`Self::transient_operator`]); the stepping reads its
    ///   `Φ`/`Q`, dt and scheme, while `cfg` supplies the step count,
    ///   waveform axis and recording policy. Results are bit-identical
    ///   to the self-factoring path for a propagator built from the
    ///   same inputs.
    ///
    /// Transients always step through the propagator factored from the
    /// dense operator, whatever the engine's backend.
    ///
    /// # Errors
    ///
    /// See [`TransientError`] (bad capacitances or time step).
    ///
    /// # Panics
    ///
    /// Panics if the supplied propagator was factored for a different
    /// floorplan, capacitance vector, time step or scheme than `cfg`
    /// implies for this engine (fingerprint mismatch) — a cache-keying
    /// bug, caught here rather than integrating the wrong chip.
    pub fn transient<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        cfg: &TransientConfig,
        opts: RunOptions<'_, TransientOperator>,
    ) -> Result<TransientReport, TransientError> {
        match opts.operator {
            Some(top) => self.transient_inner(grid, model, cfg, top, opts.cancel),
            None => {
                let top = self.transient_operator(cfg)?;
                self.transient_inner(grid, model, cfg, &top, opts.cancel)
            }
        }
    }

    /// Shared transient driver behind [`Self::transient`]:
    /// fingerprint-checks the propagator, then steps every
    /// scenario × waveform chunk through the GEMM recurrence.
    fn transient_inner<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        cfg: &TransientConfig,
        top: &TransientOperator,
        cancel: Option<&CancelToken>,
    ) -> Result<TransientReport, TransientError> {
        let caps = self.transient_capacitances(cfg);
        assert_eq!(
            top.fingerprint(),
            crate::cosim::propagator_fingerprint(
                self.dense_operator().fingerprint(),
                &caps,
                cfg.dt,
                cfg.scheme
            ),
            "propagator/config fingerprint mismatch"
        );
        let waveforms = cfg.effective_waveforms()?;
        let w = waveforms.len();
        let sink_k = self.solver.floorplan().geometry().sink_temperature;
        let total = grid.len() * w;
        let width = self.worker_lanes(total);
        let chunks = total.div_ceil(width);
        let cursor = AtomicUsize::new(0);
        let solver = TransientBatchedSolver::new(top, self.solver.ceiling_k);
        let per_worker = ptherm_par::par_workers(self.threads, |_worker| {
            let mut model = model.batched(grid, sink_k, width);
            let mut ws = TransientWorkspace::new();
            let mut collected: Vec<(usize, Vec<TransientOutcome>)> = Vec::new();
            loop {
                let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                if chunk >= chunks {
                    break;
                }
                let start = chunk * width;
                let end = (start + width).min(total);
                let lanes: Vec<TransientLane<'_>> = (start..end)
                    .map(|id| TransientLane {
                        ambient_k: grid.scenario(id / w, sink_k).ambient_k,
                        waveform: &waveforms[id % w],
                    })
                    .collect();
                for (lane, id) in (start..end).enumerate() {
                    model.begin_lane(lane, id / w);
                }
                let outcomes = solver.solve_chunk(
                    &lanes,
                    &mut *model,
                    &mut ws,
                    cfg.steps,
                    cfg.record_stride,
                    cancel,
                );
                collected.push((start, outcomes));
            }
            collected
        });
        let mut outcomes: Vec<Option<TransientOutcome>> = (0..total).map(|_| None).collect();
        for (start, chunk) in per_worker.into_iter().flatten() {
            for (offset, outcome) in chunk.into_iter().enumerate() {
                outcomes[start + offset] = Some(outcome);
            }
        }
        Ok(TransientReport {
            outcomes: outcomes
                .into_iter()
                // lint:allow(panic-freedom) — worker chunks partition 0..total: every slot was filled exactly once above
                .map(|o| o.expect("every transient resolved"))
                .collect(),
            waveform_count: w,
        })
    }

    /// The one-lane-at-a-time transient oracle: identical per-step
    /// arithmetic through the same implicit operator, each
    /// scenario×waveform integrated on its own
    /// ([`TransientBatchedSolver::solve_single`]), fanned over worker
    /// threads. Validation baseline for [`Self::transient`].
    ///
    /// # Errors
    ///
    /// See [`TransientError`].
    pub fn run_transient_per_scenario<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        cfg: &TransientConfig,
    ) -> Result<TransientReport, TransientError> {
        let top = self.transient_operator(cfg)?;
        let waveforms = cfg.effective_waveforms()?;
        let w = waveforms.len();
        let sink_k = self.solver.floorplan().geometry().sink_temperature;
        let ids: Vec<usize> = (0..grid.len() * w).collect();
        let solver = TransientBatchedSolver::new(&top, self.solver.ceiling_k);
        let techs = grid.technologies();
        let outcomes = ptherm_par::par_map(self.threads, &ids, |_, &id| {
            let s = grid.scenario(id / w, sink_k);
            solver.solve_single(
                s.ambient_k,
                &waveforms[id % w],
                |b, t| model.block_power(&s, &techs[s.tech_index], b, t),
                cfg.steps,
                cfg.record_stride,
            )
        });
        Ok(TransientReport {
            outcomes,
            waveform_count: w,
        })
    }

    /// The explicit reference: every scenario×waveform integrated with
    /// fixed-step RK4 ([`TransientRk4Reference`]) at a
    /// stability-constrained step (at least `cfg.steps`), fanned over
    /// worker threads. This is the path the implicit engine's speedup is
    /// measured against in the `transient` bench; agreement tolerances
    /// are documented in `docs/PERFORMANCE.md`.
    ///
    /// # Errors
    ///
    /// See [`TransientError`].
    pub fn run_transient_rk4<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        cfg: &TransientConfig,
    ) -> Result<TransientReport, TransientError> {
        let caps = self.transient_capacitances(cfg);
        let reference = TransientRk4Reference::new(self.dense_operator(), &caps)?;
        let waveforms = cfg.effective_waveforms()?;
        let w = waveforms.len();
        let sink_k = self.solver.floorplan().geometry().sink_temperature;
        let duration = cfg.duration();
        let steps = reference.stable_steps(duration).max(cfg.steps);
        let ids: Vec<usize> = (0..grid.len() * w).collect();
        let techs = grid.technologies();
        let outcomes = ptherm_par::par_map(self.threads, &ids, |_, &id| {
            let s = grid.scenario(id / w, sink_k);
            reference.solve(
                s.ambient_k,
                &waveforms[id % w],
                |b, t| model.block_power(&s, &techs[s.tech_index], b, t),
                duration,
                steps,
            )
        });
        Ok(TransientReport {
            outcomes,
            waveform_count: w,
        })
    }

    /// The pre-batching reference path: each scenario solved one at a
    /// time through [`ElectroThermalSolver::solve_with_ambient`] on the
    /// shared operator, fanned over worker threads. Kept as the exact
    /// oracle the batched engine is validated (and benchmarked) against.
    pub fn run_per_scenario<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
    ) -> SweepReport {
        let scenarios = grid.scenarios(self.solver.floorplan().geometry().sink_temperature);
        let techs = grid.technologies();
        self.run_scenarios_per_scenario(
            &scenarios,
            |s| s.ambient_k,
            |s, block, t| model.block_power(s, &techs[s.tech_index], block, t),
        )
    }

    /// Generic form of [`Self::run_per_scenario`]: the bit-exact
    /// per-scenario oracle for arbitrary scenario values.
    pub fn run_scenarios_per_scenario<S, A, P>(
        &self,
        scenarios: &[S],
        ambient_k: A,
        power: P,
    ) -> SweepReport
    where
        S: Sync,
        A: Fn(&S) -> f64 + Sync,
        P: Fn(&S, usize, f64) -> f64 + Sync,
    {
        let operator = self.dense_operator();
        let outcomes = ptherm_par::par_map_with(
            self.threads,
            scenarios,
            Workspace::new,
            |ws, _idx, scenario| {
                let solve = self.solver.solve_with_ambient(
                    operator,
                    ambient_k(scenario),
                    ws,
                    |block, t| power(scenario, block, t),
                );
                match solve {
                    Ok(()) => SweepOutcome::Converged {
                        block_temperatures: ws.temperatures().to_vec(),
                        block_powers: ws.powers().to_vec(),
                        iterations: ws.iterations(),
                    },
                    Err(err) => SweepOutcome::from_error(err),
                }
            },
        );
        SweepReport { outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::transient::DriveWaveform;

    fn engine() -> SweepEngine {
        SweepEngine::new(Floorplan::paper_three_blocks())
    }

    fn small_grid() -> ScenarioGrid {
        ScenarioGrid::new(vec![Technology::cmos_120nm()])
            .vdd_scales(vec![0.9, 1.0, 1.1])
            .activities(vec![0.5, 1.0])
            .ambients_k(vec![300.0, 340.0])
    }

    #[test]
    fn grid_enumeration_is_cartesian_and_ordered() {
        let grid = small_grid();
        assert_eq!(grid.len(), 12);
        let scenarios = grid.scenarios(300.0);
        assert_eq!(scenarios.len(), 12);
        // Vdd innermost.
        assert_eq!(scenarios[0].vdd_scale, 0.9);
        assert_eq!(scenarios[1].vdd_scale, 1.0);
        assert_eq!(scenarios[0].ambient_k, scenarios[5].ambient_k);
        assert_ne!(scenarios[0].ambient_k, scenarios[6].ambient_k);
    }

    #[test]
    fn batched_results_match_one_shot_solves_within_the_ulp_contract() {
        // The GEMM-batched hot path fuses multiply-adds and batches the
        // Eq. 13 exponentials (crate::cosim::batch docs), so it agrees
        // with one-shot solves to ~1e-9 K / 1e-9 relative rather than
        // bit-for-bit; the per-scenario oracle stays exactly comparable.
        let engine = engine().threads(4);
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let report = engine.sweep(&grid, &model, RunOptions::new());
        assert_eq!(report.len(), grid.len());

        let techs = grid.technologies();
        for (scenario, outcome) in grid.scenarios(300.0).iter().zip(&report.outcomes) {
            // One-shot path: fresh operator, fresh workspace, same ambient.
            let mut solver = ElectroThermalSolver::new(Floorplan::paper_three_blocks());
            solver.max_iterations = engine.solver().max_iterations;
            let op = solver.operator();
            let mut ws = Workspace::new();
            let one_shot = solver.solve_with_ambient(&op, scenario.ambient_k, &mut ws, |b, t| {
                model.block_power(scenario, &techs[scenario.tech_index], b, t)
            });
            match (one_shot, outcome) {
                (
                    Ok(()),
                    SweepOutcome::Converged {
                        block_temperatures,
                        block_powers,
                        iterations,
                    },
                ) => {
                    assert_eq!(ws.iterations(), *iterations);
                    for (a, b) in ws.temperatures().iter().zip(block_temperatures) {
                        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
                    }
                    for (a, b) in ws.powers().iter().zip(block_powers) {
                        assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
                    }
                }
                (Err(e), o) => assert_eq!(&SweepOutcome::from_error(e), o),
                (ok, o) => panic!("mismatched outcomes: {ok:?} vs {o:?}"),
            }
        }
    }

    #[test]
    fn batch_width_does_not_change_results() {
        // Every lane runs the same per-lane operation sequence whatever
        // its batch neighbours, so the width knob is bitwise-invisible.
        let grid = small_grid();
        let e1 = engine().batch_lanes(1);
        let model = e1.uniform_tech_power(0.6, 0.05);
        let narrow = e1.sweep(&grid, &model, RunOptions::new());
        let wide = engine()
            .batch_lanes(128)
            .sweep(&grid, &model, RunOptions::new());
        assert_eq!(narrow.outcomes, wide.outcomes);
    }

    #[test]
    fn batched_engine_matches_the_per_scenario_oracle() {
        let engine = engine();
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05).prepared_for(&grid);
        let batched = engine.sweep(&grid, &model, RunOptions::new());
        let oracle = engine.run_per_scenario(&grid, &model);
        assert_eq!(batched.len(), oracle.len());
        for (b, o) in batched.outcomes.iter().zip(&oracle.outcomes) {
            match (b, o) {
                (
                    SweepOutcome::Converged {
                        block_temperatures: bt,
                        block_powers: bp,
                        iterations: bi,
                    },
                    SweepOutcome::Converged {
                        block_temperatures: ot,
                        block_powers: op,
                        iterations: oi,
                    },
                ) => {
                    assert_eq!(bi, oi);
                    for (a, b) in bt.iter().zip(ot) {
                        assert!((a - b).abs() < 1e-9);
                    }
                    for (a, b) in bp.iter().zip(op) {
                        assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
                    }
                }
                (b, o) => assert_eq!(b, o),
            }
        }
    }

    #[test]
    fn prepared_model_is_bit_identical_to_unprepared() {
        let engine = engine();
        let grid = small_grid();
        let plain = engine.uniform_tech_power(0.6, 0.05);
        let prepared = plain.clone().prepared_for(&grid);
        // Same nominal_off_current call either way: bitwise-equal sweeps.
        assert_eq!(
            engine.sweep(&grid, &plain, RunOptions::new()).outcomes,
            engine.sweep(&grid, &prepared, RunOptions::new()).outcomes
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let grid = small_grid();
        let e1 = engine().threads(1);
        let model = e1.uniform_tech_power(0.6, 0.05);
        let serial = e1.sweep(&grid, &model, RunOptions::new());
        let parallel = engine().threads(8).sweep(&grid, &model, RunOptions::new());
        assert_eq!(serial.outcomes, parallel.outcomes);
    }

    #[test]
    fn runaway_scenarios_are_reported_not_fatal() {
        let engine = engine();
        // Violent feedback for high activity only.
        let scenarios: Vec<f64> = vec![0.1, 50.0, 0.2];
        let report = engine.run_scenarios(
            &scenarios,
            |_| 300.0,
            |&gain, _, t| 0.3 + 0.05 * gain * ((t - 300.0) / 10.0).exp2(),
        );
        assert!(report.outcomes[0].is_converged());
        assert!(matches!(report.outcomes[1], SweepOutcome::Runaway { .. }));
        assert!(report.outcomes[2].is_converged());
        assert_eq!(report.converged_count(), 2);
        assert_eq!(report.runaway_count(), 1);
    }

    #[test]
    fn hotter_ambient_and_higher_vdd_cost_power() {
        let engine = engine();
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let report = engine.sweep(&grid, &model, RunOptions::new());
        let scenarios = grid.scenarios(300.0);
        // Compare matching scenarios differing only in one knob.
        let find = |vdd: f64, act: f64, amb: f64| -> &SweepOutcome {
            let idx = scenarios
                .iter()
                .position(|s| s.vdd_scale == vdd && s.activity == act && s.ambient_k == amb)
                .expect("scenario exists");
            &report.outcomes[idx]
        };
        let base = find(1.0, 1.0, 300.0).total_power().unwrap();
        let high_vdd = find(1.1, 1.0, 300.0).total_power().unwrap();
        let hot = find(1.0, 1.0, 340.0).total_power().unwrap();
        assert!(high_vdd > base);
        assert!(hot > base, "leakage grows with ambient: {hot} vs {base}");
    }

    #[test]
    fn empty_axes_yield_an_empty_grid_not_a_decode_panic() {
        // Regression: an explicitly empty axis used to be rejected by a
        // builder assert; sweeping a grid someone constructed with zero
        // points must simply do nothing.
        let empty_vdd = ScenarioGrid::new(vec![Technology::cmos_120nm()]).vdd_scales(Vec::new());
        assert_eq!(empty_vdd.len(), 0);
        assert!(empty_vdd.is_empty());
        assert_eq!(empty_vdd.iter_scenarios(300.0).count(), 0);
        assert!(empty_vdd.scenarios(300.0).is_empty());

        let empty_activity =
            ScenarioGrid::new(vec![Technology::cmos_120nm()]).activities(Vec::new());
        assert!(empty_activity.is_empty());
        // Explicitly empty ambient axis kills the grid; an unset one is
        // a single implicit point.
        let empty_ambient =
            ScenarioGrid::new(vec![Technology::cmos_120nm()]).ambients_k(Vec::new());
        assert!(empty_ambient.is_empty());
        let unset_ambient = ScenarioGrid::new(vec![Technology::cmos_120nm()]);
        assert_eq!(unset_ambient.len(), 1);
        let empty_tech = ScenarioGrid::new(Vec::new());
        assert!(empty_tech.is_empty());

        // Both engine paths produce a clean empty report.
        let engine = engine();
        let model = engine.uniform_tech_power(0.6, 0.05);
        for grid in [&empty_vdd, &empty_activity, &empty_ambient, &empty_tech] {
            let batched = engine.sweep(grid, &model, RunOptions::new());
            assert!(batched.is_empty(), "{}", batched);
            let oracle = engine.run_per_scenario(grid, &model);
            assert!(oracle.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "scenario index out of range")]
    fn empty_grid_random_access_panics_cleanly() {
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]).vdd_scales(Vec::new());
        let _ = grid.scenario(0, 300.0);
    }

    fn transient_config(engine: &SweepEngine) -> TransientConfig {
        let caps = silicon_block_capacitances(engine.solver().floorplan());
        let tmin = (0..caps.len())
            .map(|i| engine.operator().influence()[(i, i)] * caps[i])
            .fold(f64::INFINITY, f64::min);
        TransientConfig::new(tmin / 10.0, 300).record_stride(50)
    }

    #[test]
    fn transient_sweep_matches_the_per_scenario_oracle() {
        let engine = engine().threads(4);
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05).prepared_for(&grid);
        let cfg = transient_config(&engine).waveforms(vec![
            DriveWaveform::Step,
            DriveWaveform::SquareWave {
                frequency: 3.0,
                duty: 0.5,
            },
        ]);
        let batched = engine
            .transient(&grid, &model, &cfg, RunOptions::new())
            .expect("valid");
        let oracle = engine
            .run_transient_per_scenario(&grid, &model, &cfg)
            .expect("valid");
        assert_eq!(batched.len(), grid.len() * 2);
        assert_eq!(batched.len(), oracle.len());
        assert_eq!(batched.finished_count(), batched.len());
        for (b, o) in batched.outcomes.iter().zip(&oracle.outcomes) {
            let (bt, ot) = (
                b.final_temperatures().expect("finished"),
                o.final_temperatures().expect("finished"),
            );
            for (x, y) in bt.iter().zip(ot) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
            assert!((b.peak_temperature().unwrap() - o.peak_temperature().unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn transient_results_do_not_depend_on_threads_or_batch_width() {
        let grid = small_grid();
        let e1 = engine().threads(1).batch_lanes(1);
        let model = e1.uniform_tech_power(0.6, 0.05);
        let cfg = transient_config(&e1);
        let narrow = e1
            .transient(&grid, &model, &cfg, RunOptions::new())
            .expect("valid");
        let wide = engine()
            .threads(8)
            .batch_lanes(64)
            .transient(&grid, &model, &cfg, RunOptions::new())
            .expect("valid");
        assert_eq!(narrow.outcomes, wide.outcomes);
    }

    #[test]
    fn transient_sweep_matches_the_rk4_reference_within_tolerance() {
        // Two discretizations of the same ODE; with dt = tau_min/10 the
        // trapezoidal O(dt^2) term dominates the gap (documented in
        // docs/PERFORMANCE.md as <= 1e-3 of the temperature rise).
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]).vdd_scales(vec![0.9, 1.1]);
        let model = engine.uniform_tech_power(0.6, 0.05);
        let cfg = transient_config(&engine);
        let implicit = engine
            .transient(&grid, &model, &cfg, RunOptions::new())
            .expect("valid");
        let explicit = engine
            .run_transient_rk4(&grid, &model, &cfg)
            .expect("valid");
        for (i, (a, b)) in implicit.outcomes.iter().zip(&explicit.outcomes).enumerate() {
            let (at, bt) = (
                a.final_temperatures().expect("finished"),
                b.final_temperatures().expect("finished"),
            );
            for (x, y) in at.iter().zip(bt) {
                let rise = (y - 300.0).abs().max(1e-3);
                assert!((x - y).abs() <= 1e-3 * rise, "transient {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn transient_square_wave_peaks_below_the_step_drive() {
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]);
        let model = engine.uniform_tech_power(0.6, 0.05);
        let cfg = transient_config(&engine).waveforms(vec![
            DriveWaveform::Step,
            DriveWaveform::Trace {
                times: vec![0.0, 1.0],
                scales: vec![0.3, 0.3],
            },
        ]);
        let report = engine
            .transient(&grid, &model, &cfg, RunOptions::new())
            .expect("valid");
        let step_peak = report.outcome(0, 0).peak_temperature().expect("finished");
        let derated_peak = report.outcome(0, 1).peak_temperature().expect("finished");
        assert!(step_peak > derated_peak, "{step_peak} vs {derated_peak}");
    }

    #[test]
    fn transient_on_an_empty_grid_is_a_clean_no_op() {
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]).vdd_scales(Vec::new());
        let model = engine.uniform_tech_power(0.6, 0.05);
        let cfg = transient_config(&engine);
        let report = engine
            .transient(&grid, &model, &cfg, RunOptions::new())
            .expect("valid");
        assert!(report.is_empty());
        assert_eq!(report.max_peak_temperature(), None);
    }

    #[test]
    fn transient_config_errors_are_typed() {
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]);
        let model = engine.uniform_tech_power(0.6, 0.05);
        let cfg = TransientConfig::new(0.0, 10);
        assert!(matches!(
            engine.transient(&grid, &model, &cfg, RunOptions::new()),
            Err(TransientError::BadStep { .. })
        ));
        let cfg = TransientConfig::new(1e-6, 10).capacitances(vec![1.0]);
        assert!(matches!(
            engine.transient(&grid, &model, &cfg, RunOptions::new()),
            Err(TransientError::DimensionMismatch { .. })
        ));
        // A malformed trace is a typed error at the API boundary, never
        // a panic inside a sweep worker.
        let cfg = TransientConfig::new(1e-6, 10).waveforms(vec![
            DriveWaveform::Step,
            DriveWaveform::Trace {
                times: vec![0.0, 1.0],
                scales: vec![0.5],
            },
        ]);
        assert!(matches!(
            engine.transient(&grid, &model, &cfg, RunOptions::new()),
            Err(TransientError::BadWaveform { index: 1, .. })
        ));
    }

    #[test]
    fn shared_operator_engine_is_bit_identical_to_self_building() {
        let fresh = engine();
        let grid = small_grid();
        let model = fresh.uniform_tech_power(0.6, 0.05);
        let baseline = fresh.sweep(&grid, &model, RunOptions::new());

        // Hand the prebuilt operator to a second engine (the fleet-cache
        // construction path): bitwise the same sweep.
        let shared = SweepEngine::with_operator(
            ElectroThermalSolver::new(Floorplan::paper_three_blocks()),
            fresh.shared_operator(),
        );
        assert_eq!(
            baseline.outcomes,
            shared.sweep(&grid, &model, RunOptions::new()).outcomes
        );
    }

    #[test]
    #[should_panic(expected = "operator/solver fingerprint mismatch")]
    fn mismatched_shared_operator_is_rejected() {
        let donor = SweepEngine::new(
            ptherm_floorplan::generator::tiled(
                ptherm_floorplan::ChipGeometry::paper_1mm(),
                2,
                2,
                0.05,
                0.05,
                1,
            )
            .expect("valid tiling"),
        );
        let _ = SweepEngine::with_operator(
            ElectroThermalSolver::new(Floorplan::paper_three_blocks()),
            donor.shared_operator(),
        );
    }

    #[test]
    fn cached_propagator_transient_is_bit_identical_to_self_factoring() {
        let engine = engine();
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let cfg = transient_config(&engine)
            .waveforms(vec![DriveWaveform::Step, DriveWaveform::paper_gating()]);
        let top = engine.transient_operator(&cfg).expect("valid");
        let cached = engine
            .transient(&grid, &model, &cfg, RunOptions::new().operator(&top))
            .expect("valid");
        let fresh = engine
            .transient(&grid, &model, &cfg, RunOptions::new())
            .expect("valid");
        assert_eq!(cached.outcomes, fresh.outcomes);
    }

    #[test]
    #[should_panic(expected = "propagator/config fingerprint mismatch")]
    fn mismatched_propagator_is_rejected() {
        let engine = engine();
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let cfg = transient_config(&engine);
        let top = engine.transient_operator(&cfg).expect("valid");
        // Same floorplan, different dt: the factored propagator no
        // longer matches the config.
        let other = TransientConfig::new(cfg.dt * 2.0, cfg.steps);
        let _ = engine.transient(&grid, &model, &other, RunOptions::new().operator(&top));
    }

    #[test]
    fn report_display_summarizes() {
        let engine = engine();
        let report = engine.run_scenarios(&[1.0f64], |_| 300.0, |_, _, _| 0.1);
        let s = format!("{report}");
        assert!(s.contains("1 scenarios"));
        assert!(s.contains("1 converged"));
    }

    #[test]
    fn map_sweep_rides_the_batched_picard_and_renders_per_scenario_maps() {
        let engine = engine();
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let report = engine.map(&grid, &model, 16, 16, RunOptions::new());
        assert_eq!(report.len(), grid.len());
        assert_eq!((report.nx, report.ny), (16, 16));
        // Block-level outcomes are exactly the plain sweep's outcomes.
        let sweep = engine.sweep(&grid, &model, RunOptions::new());
        for (m, s) in report.outcomes.iter().zip(&sweep.outcomes) {
            assert_eq!(&m.outcome, s);
            assert_eq!(m.map_k.is_some(), s.is_converged());
        }
        // Each converged map is consistent with its scenario: sits above
        // its ambient and peaks at least at the hottest block centre's
        // tile value.
        for (i, outcome) in report.outcomes.iter().enumerate() {
            let Some(map) = outcome.map_k.as_deref() else {
                continue;
            };
            let ambient = grid.scenario(i, 300.0).ambient_k;
            assert!(map.iter().all(|&t| t > ambient));
        }
        assert!(report.max_map_temperature().unwrap() > 300.0);
        assert_eq!(report.converged_count(), sweep.converged_count());
    }

    /// Logs the width of every panel its batch form is handed.
    struct PanelLog<M> {
        inner: M,
        widths: std::sync::Mutex<Vec<usize>>,
    }

    impl<M> PanelLog<M> {
        fn new(inner: M) -> Self {
            PanelLog {
                inner,
                widths: std::sync::Mutex::new(Vec::new()),
            }
        }

        fn widths(&self) -> Vec<usize> {
            self.widths.lock().unwrap().clone()
        }
    }

    impl<M: ScenarioPowerModel> ScenarioPowerModel for PanelLog<M> {
        fn block_power(&self, s: &Scenario, tech: &Technology, block: usize, t: f64) -> f64 {
            self.inner.block_power(s, tech, block, t)
        }

        fn batched<'a>(
            &'a self,
            grid: &'a ScenarioGrid,
            default_ambient_k: f64,
            lanes: usize,
        ) -> Box<dyn BatchPowerModel + 'a> {
            Box::new(PanelLogBatch {
                inner: self.inner.batched(grid, default_ambient_k, lanes),
                widths: &self.widths,
            })
        }
    }

    struct PanelLogBatch<'a> {
        inner: Box<dyn BatchPowerModel + 'a>,
        widths: &'a std::sync::Mutex<Vec<usize>>,
    }

    impl BatchPowerModel for PanelLogBatch<'_> {
        fn begin_lane(&mut self, lane: usize, id: usize) {
            self.inner.begin_lane(lane, id);
        }

        fn fill_powers(&mut self, temps: &MultiVec, powers: &mut MultiVec) {
            self.widths.lock().unwrap().push(temps.lanes());
            self.inner.fill_powers(temps, powers);
        }

        fn lane_power(&self, lane: usize, block: usize, t: f64) -> Option<f64> {
            self.inner.lane_power(lane, block, t)
        }

        fn refresh_lane(&mut self, lane: usize, temps: &[f64], powers: &mut [f64]) {
            self.inner.refresh_lane(lane, temps, powers);
        }
    }

    /// A 16-block grid-coincident die, so both backends can run it.
    fn tile_plan() -> Floorplan {
        ptherm_floorplan::generator::tile_aligned(
            ptherm_floorplan::ChipGeometry::paper_1mm(),
            4,
            4,
            |_| 0.01,
        )
        .expect("aligned tiling is valid")
    }

    /// Per-block power `0.005·vdd_scale + activity·(T − 300 K)`: the
    /// activity axis sets the loop gain, so on [`tile_plan`] the grid
    /// below settles after 6 to 41 iterations, runs away at iteration 42
    /// or, at `vdd_scale` 30000, runs away on the first step.
    fn far_apart_power(s: &Scenario, _tech: &Technology, _block: usize, t: f64) -> f64 {
        0.005 * s.vdd_scale + s.activity * (t - 300.0)
    }

    #[test]
    fn panels_never_outgrow_the_work_and_narrow_as_it_drains() {
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()])
            .activities(vec![0.0, 0.005, 0.01, 0.015, 0.02]);
        let want = SweepEngine::new(tile_plan())
            .threads(1)
            .batch_lanes(1)
            .sweep(&grid, &far_apart_power, RunOptions::new());
        // One worker takes all five scenarios; two take at most three
        // each, ⌈5 / 2⌉.
        for (threads, widest) in [(1, 5), (2, 3)] {
            let model = PanelLog::new(far_apart_power);
            let got = SweepEngine::new(tile_plan())
                .threads(threads)
                .batch_lanes(64)
                .sweep(&grid, &model, RunOptions::new());
            assert_eq!(got.outcomes, want.outcomes, "threads {threads}");
            let widths = model.widths();
            assert_eq!(widths.iter().max(), Some(&widest), "threads {threads}");
            // Every fill steps at least one live lane, so a narrower
            // panel means the batch shrank before its last lane retired.
            assert!(widths.iter().any(|&w| w < widest), "threads {threads}");
        }
    }

    #[test]
    fn a_small_transient_steps_panels_as_wide_as_its_lanes() {
        let engine = engine().threads(1).batch_lanes(64);
        let grid =
            ScenarioGrid::new(vec![Technology::cmos_120nm()]).vdd_scales(vec![0.8, 0.9, 1.0, 1.1]);
        let model = PanelLog::new(engine.uniform_tech_power(0.6, 0.05));
        let cfg = transient_config(&engine);
        let got = engine
            .transient(&grid, &model, &cfg, RunOptions::new())
            .expect("valid");
        assert_eq!(got.outcomes.len(), 4);
        let widths = model.widths();
        assert_eq!(widths.len(), cfg.steps);
        assert!(widths.iter().all(|&w| w == 4), "{widths:?}");
    }

    #[test]
    fn lanes_retiring_far_apart_are_bitwise_invariant_to_threads_and_width() {
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()])
            .vdd_scales(vec![1.0, 30000.0])
            .activities(vec![0.0, 0.005, 0.01, 0.015, 0.02, 0.03]);
        for backend in [SweepBackend::Dense, SweepBackend::Spectral] {
            let run = |threads: usize, lanes: usize| {
                SweepEngine::new(tile_plan())
                    .backend(backend)
                    .threads(threads)
                    .batch_lanes(lanes)
                    .sweep(&grid, &far_apart_power, RunOptions::new())
                    .outcomes
            };
            let want = run(1, 1);
            assert!(want
                .iter()
                .any(|o| matches!(o, SweepOutcome::Runaway { iteration, .. } if *iteration <= 3)));
            assert!(want.iter().any(
                |o| matches!(o, SweepOutcome::Converged { iterations, .. } if *iterations >= 20)
            ));
            for (threads, lanes) in [(1, 3), (2, 5), (1, 64)] {
                assert_eq!(
                    run(threads, lanes),
                    want,
                    "{backend} threads {threads} lanes {lanes}"
                );
            }
        }
    }

    #[test]
    fn map_sweep_is_bitwise_invariant_to_threads_and_batch_width() {
        let grid = small_grid();
        let e1 = engine().threads(1).batch_lanes(1);
        let model = e1.uniform_tech_power(0.6, 0.05);
        let narrow = e1.map(&grid, &model, 12, 12, RunOptions::new());
        for (threads, lanes) in [(2, 64), (8, 128)] {
            let wide = engine().threads(threads).batch_lanes(lanes).map(
                &grid,
                &model,
                12,
                12,
                RunOptions::new(),
            );
            for (a, b) in narrow.outcomes.iter().zip(&wide.outcomes) {
                assert_eq!(a.outcome, b.outcome, "threads {threads} lanes {lanes}");
                assert_eq!(a.map_k, b.map_k, "threads {threads} lanes {lanes}");
            }
        }
    }

    #[test]
    fn cached_map_operator_is_bit_identical_to_self_building() {
        let engine = engine();
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let map_op = engine.map_operator(10, 8);
        let cached = engine.map(&grid, &model, 10, 8, RunOptions::new().operator(&map_op));
        let fresh = engine.map(&grid, &model, 10, 8, RunOptions::new());
        for (a, b) in cached.outcomes.iter().zip(&fresh.outcomes) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.map_k, b.map_k);
        }
    }

    #[test]
    #[should_panic(expected = "map operator/solver fingerprint mismatch")]
    fn mismatched_map_operator_is_rejected() {
        let donor = SweepEngine::new(
            ptherm_floorplan::generator::tiled(
                ptherm_floorplan::ChipGeometry::paper_1mm(),
                2,
                2,
                0.05,
                0.05,
                1,
            )
            .expect("valid tiling"),
        );
        let map_op = donor.map_operator(8, 8);
        let engine = engine();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let _ = engine.map(
            &small_grid(),
            &model,
            8,
            8,
            RunOptions::new().operator(&map_op),
        );
    }

    #[test]
    fn map_sweep_on_an_empty_grid_is_a_clean_no_op() {
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]).vdd_scales(Vec::new());
        let model = engine.uniform_tech_power(0.6, 0.05);
        let report = engine.map(&grid, &model, 8, 8, RunOptions::new());
        assert!(report.is_empty());
        assert_eq!(report.max_map_temperature(), None);
        assert!(format!("{report}").contains("0 scenarios"));
    }

    #[test]
    fn runaway_scenarios_carry_no_map() {
        // A violent feedback has no fixed point: the map sweep reports
        // the runaway outcome with no rendered map, others still render.
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]).activities(vec![1.0, 400.0]);
        let model = engine.uniform_tech_power(0.6, 0.4);
        let report = engine.map(&grid, &model, 8, 8, RunOptions::new());
        assert_eq!(report.len(), 2);
        assert!(report.outcomes[0].map_k.is_some());
        assert!(matches!(
            report.outcomes[1].outcome,
            SweepOutcome::Runaway { .. }
        ));
        assert!(report.outcomes[1].map_k.is_none());
        assert_eq!(report.converged_count(), 1);
        assert!(report.map(0).is_some());
        assert!(report.map(1).is_none());
    }

    fn aligned_plan(nx: usize, ny: usize) -> Floorplan {
        ptherm_floorplan::generator::tile_aligned(
            ptherm_floorplan::ChipGeometry::paper_1mm(),
            nx,
            ny,
            |i| 0.003 + 0.0002 * (i % 5) as f64,
        )
        .expect("valid plan")
    }

    /// At least [`SPECTRAL_AUTO_THRESHOLD`] blocks, but one centre is
    /// off every uniform grid up to the spectral inference cap.
    fn incompatible_big_plan() -> Floorplan {
        let geometry = ptherm_floorplan::ChipGeometry::paper_1mm();
        let (nx, ny) = (32usize, 16usize);
        let (px, py) = (geometry.width / nx as f64, geometry.length / ny as f64);
        let mut blocks = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                let skew = if (i, j) == (0, 0) { 0.123_456_7 } else { 0.0 };
                blocks.push(ptherm_floorplan::Block::new(
                    format!("b{i}_{j}"),
                    (i as f64 + 0.5 + skew) * px,
                    (j as f64 + 0.5) * py,
                    px * 0.5,
                    py * 0.5,
                    0.001,
                ));
            }
        }
        Floorplan::new(geometry, blocks).expect("valid plan")
    }

    #[test]
    fn auto_backend_resolves_by_block_count_and_grid_compatibility() {
        // Below the threshold: dense, even on a spectral-friendly plan.
        assert_eq!(engine().resolved_backend(), SweepBackend::Dense);
        assert_eq!(
            SweepEngine::new(aligned_plan(8, 8)).resolved_backend(),
            SweepBackend::Dense
        );
        // At the threshold on a coincident grid: spectral.
        let big = SweepEngine::new(aligned_plan(32, 16));
        assert_eq!(
            big.solver().floorplan().blocks().len(),
            SPECTRAL_AUTO_THRESHOLD
        );
        assert_eq!(big.resolved_backend(), SweepBackend::Spectral);
        // A big plan with no coincident grid falls back to dense.
        let off_grid = SweepEngine::new(incompatible_big_plan());
        assert_eq!(off_grid.resolved_backend(), SweepBackend::Dense);
        // Explicit overrides pass through untouched.
        assert_eq!(
            big.backend(SweepBackend::Dense).resolved_backend(),
            SweepBackend::Dense
        );
        assert_eq!(
            engine().backend(SweepBackend::Spectral).resolved_backend(),
            SweepBackend::Spectral
        );
        assert_eq!(SweepBackend::Auto.name(), "auto");
        assert_eq!(format!("{}", SweepBackend::Spectral), "spectral");
    }

    #[test]
    fn spectral_and_dense_engine_sweeps_agree() {
        let grid = small_grid();
        let dense = SweepEngine::new(aligned_plan(8, 8)).backend(SweepBackend::Dense);
        let spectral = SweepEngine::new(aligned_plan(8, 8)).backend(SweepBackend::Spectral);
        let model = dense.uniform_tech_power(0.6, 0.002);
        let d = dense.sweep(&grid, &model, RunOptions::new());
        let s = spectral.sweep(&grid, &model, RunOptions::new());
        assert_eq!(d.len(), s.len());
        for (a, b) in d.outcomes.iter().zip(&s.outcomes) {
            match (a, b) {
                (
                    SweepOutcome::Converged {
                        block_temperatures: dt,
                        block_powers: dp,
                        iterations: di,
                    },
                    SweepOutcome::Converged {
                        block_temperatures: st,
                        block_powers: sp,
                        iterations: si,
                    },
                ) => {
                    assert_eq!(di, si);
                    for (x, y) in dt.iter().zip(st) {
                        assert!((x - y).abs() < 1e-6, "{x} vs {y}");
                    }
                    for (x, y) in dp.iter().zip(sp) {
                        assert!((x - y).abs() < 1e-6 * y.abs().max(1.0), "{x} vs {y}");
                    }
                }
                (a, b) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{a:?} vs {b:?}"
                ),
            }
        }
    }

    #[test]
    #[should_panic(expected = "spectral backend requested on an incompatible floorplan")]
    fn explicit_spectral_on_an_incompatible_floorplan_panics() {
        let engine = engine().backend(SweepBackend::Spectral);
        let model = engine.uniform_tech_power(0.6, 0.05);
        let _ = engine.sweep(&small_grid(), &model, RunOptions::new());
    }

    #[test]
    fn a_shared_spectral_operator_is_adopted_and_pins_the_backend() {
        let operator = Arc::new(SpectralOperator::build(&aligned_plan(8, 8)).expect("compatible"));
        let engine = SweepEngine::with_spectral_operator(
            ElectroThermalSolver::new(aligned_plan(8, 8)),
            Arc::clone(&operator),
        );
        assert_eq!(engine.resolved_backend(), SweepBackend::Spectral);
        assert!(Arc::ptr_eq(
            engine.spectral_operator().expect("adopted"),
            &operator
        ));
        // The adopted operator is bit-identical to a self-built one.
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.002);
        let adopted = engine.sweep(&grid, &model, RunOptions::new());
        let fresh = SweepEngine::new(aligned_plan(8, 8))
            .backend(SweepBackend::Spectral)
            .sweep(&grid, &model, RunOptions::new());
        assert_eq!(adopted.outcomes, fresh.outcomes);
    }

    #[test]
    #[should_panic(expected = "spectral operator/solver fingerprint mismatch")]
    fn mismatched_spectral_operator_is_rejected() {
        let operator = SpectralOperator::build(&aligned_plan(8, 8)).expect("compatible");
        let _ = SweepEngine::with_spectral_operator(
            ElectroThermalSolver::new(aligned_plan(6, 6)),
            Arc::new(operator),
        );
    }

    #[test]
    fn unified_sweep_replays_a_shared_operator_bitwise() {
        let engine = engine().threads(2);
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let self_built = engine.sweep(&grid, &model, RunOptions::new());
        // A handle built by another engine (the fleet-cache path) must
        // replay to the same bits as the engine's own lazy build.
        let shared = SweepEngine::new(Floorplan::paper_three_blocks()).shared_operator();
        let replayed = engine.sweep(&grid, &model, RunOptions::new().operator(&shared));
        assert_eq!(self_built.outcomes, replayed.outcomes);
    }

    #[test]
    fn unified_map_replays_a_prebuilt_operator_bitwise() {
        let engine = engine().threads(2);
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let self_built = engine.map(&grid, &model, 8, 6, RunOptions::new());
        let map_op = engine.map_operator(8, 6);
        let replayed = engine.map(&grid, &model, 8, 6, RunOptions::new().operator(&map_op));
        for (a, b) in self_built.outcomes.iter().zip(&replayed.outcomes) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.map_k, b.map_k);
        }
    }

    #[test]
    fn unified_transient_replays_a_prebuilt_propagator_bitwise() {
        let engine = engine().threads(2);
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let cfg = TransientConfig::new(1e-4, 32)
            .waveforms(vec![DriveWaveform::Step, DriveWaveform::paper_gating()]);
        let self_built = engine
            .transient(&grid, &model, &cfg, RunOptions::new())
            .expect("self-built");
        let top = engine.transient_operator(&cfg).expect("operator");
        let replayed = engine
            .transient(&grid, &model, &cfg, RunOptions::new().operator(&top))
            .expect("replayed");
        assert_eq!(self_built.outcomes, replayed.outcomes);
    }

    #[test]
    #[should_panic(expected = "operator/solver fingerprint mismatch")]
    fn unified_sweep_rejects_mismatched_operator() {
        let foreign = SweepEngine::new(aligned_plan(8, 8)).shared_operator();
        let engine = engine();
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let _ = engine.sweep(&grid, &model, RunOptions::new().operator(&foreign));
    }

    #[test]
    #[should_panic(expected = "map operator grid mismatch")]
    fn unified_map_rejects_mismatched_grid_dims() {
        let engine = engine();
        let grid = small_grid();
        let model = engine.uniform_tech_power(0.6, 0.05);
        let map_op = engine.map_operator(8, 6);
        let _ = engine.map(&grid, &model, 6, 8, RunOptions::new().operator(&map_op));
    }
}
