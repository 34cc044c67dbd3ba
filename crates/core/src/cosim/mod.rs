//! The **concurrent** part of the paper: solving power and temperature
//! together.
//!
//! Static power depends exponentially on temperature (Eq. 13) and
//! temperature depends linearly on dissipated power (Eq. 21); a consistent
//! operating point is a fixed point of the composition. Because both
//! directions are closed-form, one iteration costs microseconds — the
//! paper's pitch is that this loop replaces coupled SPICE + PDE solves.
//!
//! The solver iterates damped Picard:
//!
//! ```text
//! P_i^{(k)} = power_model(i, T_i^{(k)})
//! T^{(k+1)} = T^{(k)} + λ·(Thermal(P^{(k)}) − T^{(k)})
//! ```
//!
//! with divergence detection — when leakage growth outruns the thermal
//! path's ability to shed heat, there **is no** fixed point (thermal
//! runaway), and the solver reports it rather than oscillating forever.
//!
//! # Batching structure
//!
//! The thermal direction is linear in the block powers, so the per-iteration
//! closed-form solve factors into a per-floorplan precomputation
//! ([`ThermalOperator`], the influence matrix of Eq. 21 — itself built
//! row-parallel over an allocation-free image iterator) and an `O(n²)`
//! matrix-vector product. [`ElectroThermalSolver::solve`] builds the
//! operator once per call; [`ElectroThermalSolver::solve_with`] accepts a
//! shared operator and a reusable [`Workspace`] so repeated solves
//! allocate nothing in steady state.
//!
//! Sweeps go one level further: scenario solves are independent *and*
//! structurally identical, so [`BatchedSolver`] advances a whole batch
//! of scenarios per Picard step — one `n×n · n×B` GEMM instead of `B`
//! mat-vecs, batched Eq. 13 exponentials, and lane refill as scenarios
//! resolve. [`SweepEngine::sweep`] shards a scenario grid across worker
//! threads on that hot path; [`SweepEngine::run_per_scenario`] keeps the
//! one-at-a-time path as the exact oracle. See `docs/PERFORMANCE.md`.
//!
//! Equation-to-code map: see `docs/EQUATIONS.md` at the repository root.

pub mod batch;
pub mod biased;
pub mod envelope;
pub mod operator;
pub mod power_model;
pub mod spectral;
pub mod sweep;
pub mod transient;

pub use batch::{BatchPowerModel, BatchWorkspace, BatchedSolver, LaneStart};
pub use biased::{BiasedTechPower, DEFAULT_BIAS_THETA_K};
pub use envelope::{
    EnvelopeAxis, EnvelopeFiber, EnvelopeReport, EnvelopeSpec, EnvelopeSpecError, FiberBoundary,
};
pub use operator::{operator_fingerprint, ThermalOperator, Workspace};
pub use spectral::{
    infer_grid, spectral_operator_fingerprint, SpectralBatchedSolver, SpectralGridError,
    SpectralOperator, SpectralScratch,
};
pub use sweep::{
    MapOutcome, MapReport, RunOptions, Scenario, ScenarioGrid, ScenarioLookup, SweepBackend,
    SweepEngine, SweepOutcome, SweepReport, SPECTRAL_AUTO_THRESHOLD,
};
pub use transient::{
    propagator_fingerprint, DriveWaveform, TransientBatchedSolver, TransientConfig, TransientError,
    TransientLane, TransientOperator, TransientOutcome, TransientReport, TransientRk4Reference,
    TransientSample, TransientWorkspace,
};

use crate::thermal::ThermalModel;
use ptherm_floorplan::Floorplan;
use std::fmt;

/// Error returned by [`ElectroThermalSolver::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum CosimError {
    /// Temperatures ran away past the safety ceiling: no stable operating
    /// point exists for this power model (thermal runaway).
    ThermalRunaway {
        /// Iteration at which the ceiling was crossed.
        iteration: usize,
        /// Hottest block temperature reached, K.
        temperature: f64,
    },
    /// The iteration budget was exhausted before convergence.
    NotConverged {
        /// Last maximum block-temperature change, K.
        last_delta: f64,
    },
    /// A power model returned a non-finite or negative value.
    BadPower {
        /// Block index.
        block: usize,
        /// Offending value.
        power: f64,
    },
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::ThermalRunaway {
                iteration,
                temperature,
            } => write!(
                f,
                "thermal runaway at iteration {iteration}: {temperature:.1} K exceeds the ceiling"
            ),
            CosimError::NotConverged { last_delta } => {
                write!(
                    f,
                    "co-simulation did not converge (last delta {last_delta:.2e} K)"
                )
            }
            CosimError::BadPower { block, power } => {
                write!(f, "power model returned {power} W for block {block}")
            }
        }
    }
}

impl std::error::Error for CosimError {}

/// Converged electro-thermal operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimResult {
    /// Block-centre temperatures, K.
    pub block_temperatures: Vec<f64>,
    /// Block powers at the fixed point, W.
    pub block_powers: Vec<f64>,
    /// Picard iterations used.
    pub iterations: usize,
    /// Always true on `Ok` (kept for result logging symmetry).
    pub converged: bool,
    /// Maximum block-temperature change per iteration, K (convergence
    /// trace for the ablation benches).
    pub history: Vec<f64>,
}

impl CosimResult {
    /// Total chip power at the fixed point, W.
    pub fn total_power(&self) -> f64 {
        self.block_powers.iter().sum()
    }

    /// Hottest block temperature, K — `None` for an empty floorplan (the
    /// previous `f64::NEG_INFINITY` sentinel leaked into reports and
    /// would emit invalid JSON through the bench emitters).
    pub fn peak_temperature(&self) -> Option<f64> {
        operator::max_temperature(&self.block_temperatures)
    }
}

/// The coupled power-thermal fixed-point solver.
#[derive(Debug, Clone)]
pub struct ElectroThermalSolver {
    floorplan: Floorplan,
    /// Lateral image order for the thermal model.
    pub lateral_order: usize,
    /// Depth-series order for the thermal model (1 = paper's single
    /// bottom mirror; higher orders model the finite-slab sink better).
    pub z_order: usize,
    /// Under-relaxation factor λ ∈ (0, 1].
    pub damping: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Convergence threshold on the max block-temperature change, K.
    pub tolerance_k: f64,
    /// Runaway ceiling, K (silicon is long dead past ~500 K).
    pub ceiling_k: f64,
}

impl ElectroThermalSolver {
    /// Builds a solver with the defaults used in the experiments:
    /// image order 2, damping 0.7, 200 iterations, 1 mK tolerance, 1000 K
    /// ceiling.
    pub fn new(floorplan: Floorplan) -> Self {
        ElectroThermalSolver {
            floorplan,
            lateral_order: 2,
            z_order: 9,
            damping: 0.7,
            max_iterations: 200,
            tolerance_k: 1e-3,
            ceiling_k: 1000.0,
        }
    }

    /// The floorplan geometry (block powers are owned by the iteration).
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Precomputes this solver's [`ThermalOperator`] (influence matrix at
    /// the solver's image orders). Build it once and hand it to
    /// [`Self::solve_with`] when solving repeatedly on one floorplan.
    pub fn operator(&self) -> ThermalOperator {
        ThermalOperator::with_image_orders(&self.floorplan, self.lateral_order, self.z_order)
    }

    /// Solves for the coupled operating point. `block_power(i, T)` returns
    /// the power of block `i` at temperature `T` — typically dynamic power
    /// plus the strongly temperature-dependent leakage.
    ///
    /// Builds the thermal operator afresh; for repeated solves use
    /// [`Self::solve_with`] with a shared operator and workspace (the
    /// iteration itself is identical, so results match bit for bit).
    ///
    /// # Errors
    ///
    /// See [`CosimError`].
    pub fn solve<F>(&self, block_power: F) -> Result<CosimResult, CosimError>
    where
        F: Fn(usize, f64) -> f64,
    {
        let op = self.operator();
        let mut ws = Workspace::new();
        self.solve_with(&op, &mut ws, block_power)?;
        Ok(CosimResult {
            block_temperatures: ws.temperatures.clone(),
            block_powers: ws.powers.clone(),
            iterations: ws.iterations,
            converged: true,
            history: ws.history.clone(),
        })
    }

    /// Zero-allocation solve against a precomputed operator, at the
    /// floorplan's own sink temperature. See
    /// [`Self::solve_with_ambient`].
    ///
    /// # Errors
    ///
    /// See [`CosimError`].
    pub fn solve_with<F>(
        &self,
        op: &ThermalOperator,
        ws: &mut Workspace,
        block_power: F,
    ) -> Result<(), CosimError>
    where
        F: Fn(usize, f64) -> f64,
    {
        self.solve_with_ambient(op, op.sink_temperature(), ws, block_power)
    }

    /// The core Picard iteration: solves against a precomputed
    /// [`ThermalOperator`] with an explicit ambient (sink) temperature,
    /// reusing `ws`'s buffers so the steady-state loop performs **no heap
    /// allocation**. On success the operating point is left in `ws`
    /// ([`Workspace::temperatures`], [`Workspace::powers`],
    /// [`Workspace::history`]); on error `ws` holds the diverged state.
    ///
    /// The ambient override is what lets a sweep vary ambient temperature
    /// per scenario without rebuilding the operator: the thermal path is
    /// linear, so ambient enters as a pure offset.
    ///
    /// # Errors
    ///
    /// See [`CosimError`].
    ///
    /// # Panics
    ///
    /// Panics if `op` was built for a different block count than this
    /// solver's floorplan.
    pub fn solve_with_ambient<F>(
        &self,
        op: &ThermalOperator,
        ambient_k: f64,
        ws: &mut Workspace,
        block_power: F,
    ) -> Result<(), CosimError>
    where
        F: Fn(usize, f64) -> f64,
    {
        let n = self.floorplan.blocks().len();
        assert_eq!(op.len(), n, "operator/floorplan block-count mismatch");
        ws.reset(n, ambient_k);

        for iteration in 0..self.max_iterations {
            // Power at the current temperature estimate.
            for i in 0..n {
                let p = block_power(i, ws.temperatures[i]);
                if !p.is_finite() || p < 0.0 {
                    return Err(CosimError::BadPower { block: i, power: p });
                }
                ws.powers[i] = p;
            }
            // Closed-form thermal solve: one matrix-vector product.
            op.temperatures_with_sink_into(&ws.powers, ambient_k, &mut ws.fresh);
            // Damped update.
            let mut delta: f64 = 0.0;
            for i in 0..n {
                let next = ws.temperatures[i] + self.damping * (ws.fresh[i] - ws.temperatures[i]);
                delta = delta.max((next - ws.temperatures[i]).abs());
                ws.temperatures[i] = next;
            }
            ws.history.push(delta);
            ws.iterations = iteration + 1;
            let peak = ws.peak_temperature();
            if peak > self.ceiling_k {
                return Err(CosimError::ThermalRunaway {
                    iteration,
                    temperature: peak,
                });
            }
            if delta < self.tolerance_k {
                // Refresh powers at the converged temperatures for the
                // report.
                for i in 0..n {
                    ws.powers[i] = block_power(i, ws.temperatures[i]);
                }
                return Ok(());
            }
        }
        Err(CosimError::NotConverged {
            last_delta: ws.history.last().copied().unwrap_or(f64::NAN),
        })
    }

    /// The pre-operator reference implementation: rebuilds the full
    /// [`ThermalModel`] (image expansion included) every iteration.
    ///
    /// Numerically this agrees with [`Self::solve`] to rounding error; it
    /// is kept as the validation oracle for the operator factoring and as
    /// the honest "cold solve" baseline the `sweep` benchmark measures
    /// against.
    ///
    /// # Errors
    ///
    /// See [`CosimError`].
    pub fn solve_rebuilding<F>(&self, block_power: F) -> Result<CosimResult, CosimError>
    where
        F: Fn(usize, f64) -> f64,
    {
        let n = self.floorplan.blocks().len();
        let sink = self.floorplan.geometry().sink_temperature;
        let mut temperatures = vec![sink; n];
        let mut powers = vec![0.0; n];
        let mut plan = self.floorplan.clone();
        let mut history = Vec::new();

        for iteration in 0..self.max_iterations {
            // Power at the current temperature estimate.
            for i in 0..n {
                let p = block_power(i, temperatures[i]);
                if !p.is_finite() || p < 0.0 {
                    return Err(CosimError::BadPower { block: i, power: p });
                }
                powers[i] = p;
                plan.set_power(i, p);
            }
            // Closed-form thermal solve.
            let model = ThermalModel::with_image_orders(&plan, self.lateral_order, self.z_order);
            let fresh = model.block_center_temperatures();
            // Damped update.
            let mut delta: f64 = 0.0;
            for i in 0..n {
                let next = temperatures[i] + self.damping * (fresh[i] - temperatures[i]);
                delta = delta.max((next - temperatures[i]).abs());
                temperatures[i] = next;
            }
            history.push(delta);
            let peak = operator::max_temperature(&temperatures).unwrap_or(f64::NEG_INFINITY);
            if peak > self.ceiling_k {
                return Err(CosimError::ThermalRunaway {
                    iteration,
                    temperature: peak,
                });
            }
            if delta < self.tolerance_k {
                // Refresh powers at the converged temperatures for the
                // report.
                for i in 0..n {
                    powers[i] = block_power(i, temperatures[i]);
                }
                return Ok(CosimResult {
                    block_temperatures: temperatures,
                    block_powers: powers,
                    iterations: iteration + 1,
                    converged: true,
                    history,
                });
            }
        }
        Err(CosimError::NotConverged {
            last_delta: history.last().copied().unwrap_or(f64::NAN),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptherm_floorplan::Floorplan;

    fn solver() -> ElectroThermalSolver {
        ElectroThermalSolver::new(Floorplan::paper_three_blocks())
    }

    #[test]
    fn constant_power_converges_to_thermal_solution() {
        let s = solver();
        let result = s.solve(|i, _| [0.35, 0.30, 0.25][i]).unwrap();
        assert!(result.converged);
        // Same temperatures as a one-shot thermal solve.
        let mut plan = s.floorplan().clone();
        for (i, &p) in [0.35, 0.30, 0.25].iter().enumerate() {
            plan.set_power(i, p);
        }
        let direct = ThermalModel::with_image_orders(&plan, 2, 9).block_center_temperatures();
        for (a, b) in result.block_temperatures.iter().zip(&direct) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn leakage_feedback_raises_the_operating_point() {
        let s = solver();
        let flat = s.solve(|_, _| 0.3).unwrap();
        // Leakage doubling every 20 K on top of the same 0.3 W baseline.
        let coupled = s
            .solve(|_, t| 0.3 + 0.05 * ((t - 300.0) / 20.0).exp2())
            .unwrap();
        assert!(coupled.peak_temperature().unwrap() > flat.peak_temperature().unwrap());
        assert!(coupled.total_power() > flat.total_power());
    }

    #[test]
    fn runaway_is_detected() {
        let s = solver();
        // Violent exponential: doubles every 3 K. No fixed point.
        let err = s
            .solve(|_, t| 0.5 * ((t - 300.0) / 3.0).exp2())
            .unwrap_err();
        assert!(matches!(err, CosimError::ThermalRunaway { .. }));
    }

    #[test]
    fn bad_power_is_reported() {
        let s = solver();
        let err = s
            .solve(|i, _| if i == 1 { f64::NAN } else { 0.1 })
            .unwrap_err();
        assert!(matches!(err, CosimError::BadPower { block: 1, .. }));
    }

    #[test]
    fn convergence_history_decreases() {
        let s = solver();
        let result = s
            .solve(|_, t| 0.2 + 0.02 * ((t - 300.0) / 30.0).exp2())
            .unwrap();
        // Geometric-ish decay of the update magnitude.
        let h = &result.history;
        assert!(h.len() >= 3);
        assert!(h.last().unwrap() < &s.tolerance_k);
        assert!(h[0] > *h.last().unwrap());
    }

    #[test]
    fn tight_budget_reports_not_converged() {
        let mut s = solver();
        s.max_iterations = 2;
        s.tolerance_k = 1e-9;
        let err = s.solve(|_, _| 0.3).unwrap_err();
        assert!(matches!(err, CosimError::NotConverged { .. }));
    }

    #[test]
    fn operator_path_matches_the_rebuilding_reference() {
        let s = solver();
        let feedback = |_: usize, t: f64| 0.3 + 0.05 * ((t - 300.0) / 20.0).exp2();
        let fast = s.solve(feedback).unwrap();
        let reference = s.solve_rebuilding(feedback).unwrap();
        // Same closed forms, different summation order: rounding only.
        assert!((fast.iterations as i64 - reference.iterations as i64).abs() <= 1);
        for (a, b) in fast
            .block_temperatures
            .iter()
            .zip(&reference.block_temperatures)
        {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        for (a, b) in fast.block_powers.iter().zip(&reference.block_powers) {
            assert!((a - b).abs() < 1e-9 * b.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn solve_with_reuses_operator_and_workspace_bit_identically() {
        let s = solver();
        let op = s.operator();
        let mut ws = Workspace::new();
        let feedback = |_: usize, t: f64| 0.25 + 0.04 * ((t - 300.0) / 25.0).exp2();
        // A different first solve leaves stale state; reuse must not leak it.
        s.solve_with(&op, &mut ws, |_, _| 0.5).unwrap();
        s.solve_with(&op, &mut ws, feedback).unwrap();
        let oneshot = s.solve(feedback).unwrap();
        assert_eq!(ws.temperatures(), oneshot.block_temperatures.as_slice());
        assert_eq!(ws.powers(), oneshot.block_powers.as_slice());
        assert_eq!(ws.iterations(), oneshot.iterations);
        assert_eq!(ws.history(), oneshot.history.as_slice());
    }

    #[test]
    fn ambient_override_shifts_the_operating_point() {
        let s = solver();
        let op = s.operator();
        let mut ws = Workspace::new();
        // Constant power: the fixed point is linear in ambient.
        s.solve_with_ambient(&op, 320.0, &mut ws, |_, _| 0.3)
            .unwrap();
        let hot = ws.peak_temperature();
        s.solve_with_ambient(&op, 300.0, &mut ws, |_, _| 0.3)
            .unwrap();
        let cold = ws.peak_temperature();
        assert!((hot - cold - 20.0).abs() < 1e-6, "{hot} vs {cold}");
    }

    #[test]
    fn zero_power_chip_sits_at_sink_temperature() {
        let s = solver();
        let r = s.solve(|_, _| 0.0).unwrap();
        for t in &r.block_temperatures {
            assert!((t - 300.0).abs() < 1e-9);
        }
        assert_eq!(r.total_power(), 0.0);
    }
}
