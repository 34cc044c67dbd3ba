//! Temperature-biased dynamic power: the De Vogeleer et al. law.
//!
//! [`ScaledTechPower`] carries the paper's Eq. 13 exponential through the
//! **leakage** term only; its dynamic term `α·f·C·V²` is
//! temperature-flat. De Vogeleer, Memmi, Jouvelot and Coelho
//! ("Modeling the Temperature Bias of Power Consumption for
//! Nanometer-Scale CPUs in Application Processors", PAPERS.md) measured
//! that total CPU power — dynamic included — rises exponentially with
//! junction temperature. [`BiasedTechPower`] grafts that bias onto the
//! dynamic term:
//!
//! ```text
//! P_dyn(T) = activity · vdd_scale² · P_dyn[i] · e^{(T − T_ref)/θ}
//! ```
//!
//! with θ the bias temperature constant (K). At `T = T_ref` this is
//! exactly the flat law; θ → ∞ recovers [`ScaledTechPower`] everywhere.
//! The leakage term is untouched — still the Eq. 13 OFF-current family.
//!
//! # Evaluation discipline
//!
//! The batch adapter wraps [`ScaledTechPower`]'s constant-folded
//! vectorized adapter and adds one correction panel:
//!
//! ```text
//! P = P_scaled + s_dyn·P_dyn[i]·(e^{x3} − 1)      x3 = (T − T_ref)/θ
//! ```
//!
//! so the third exponential sweep batches through
//! [`ptherm_math::expv::exp_into`] like the two Eq. 13 sweeps —
//! the same ≤5e-13 relative departure from the scalar oracle that
//! `docs/PERFORMANCE.md` documents for the base adapter, asserted by
//! this module's batch-oracle tests.

use crate::cosim::batch::BatchPowerModel;
use crate::cosim::sweep::{
    fit_panels, ScaledTechBatch, ScaledTechPower, Scenario, ScenarioGrid, ScenarioLookup,
    ScenarioPowerModel,
};
use ptherm_floorplan::Floorplan;
use ptherm_math::{expv, MultiVec};
use ptherm_tech::Technology;

/// Default bias temperature constant, K.
///
/// De Vogeleer et al. fit exponential temperature scaling of total CPU
/// power over a ~30–80 °C window; the observed e-folding scale is of
/// order 100 K (a few tens of percent of power per tens of kelvin).
/// This default keeps the bias physically plausible while staying mild
/// enough that the paper-scale floorplans keep a fixed point at nominal
/// budgets.
pub const DEFAULT_BIAS_THETA_K: f64 = 100.0;

/// [`ScaledTechPower`] with the De Vogeleer exponential temperature
/// bias on the dynamic term (see the [module docs](self)).
///
/// Selectable per fleet job via the `"power": "biased"` protocol field.
#[derive(Debug, Clone)]
pub struct BiasedTechPower {
    inner: ScaledTechPower,
    /// Bias temperature constant θ, K. Always finite and positive
    /// (constructors clamp; the fleet parser refuses bad values with a
    /// typed error before they reach here).
    theta_k: f64,
}

impl BiasedTechPower {
    /// Wraps a base model with bias constant `theta_k` (K).
    ///
    /// A non-finite or non-positive `theta_k` falls back to
    /// [`DEFAULT_BIAS_THETA_K`] — the core model never divides by zero
    /// or produces NaN exponents from a bad constant. Callers wanting a
    /// typed rejection validate before constructing (the fleet does).
    pub fn new(inner: ScaledTechPower, theta_k: f64) -> Self {
        let theta_k = if theta_k.is_finite() && theta_k > 0.0 {
            theta_k
        } else {
            DEFAULT_BIAS_THETA_K
        };
        BiasedTechPower { inner, theta_k }
    }

    /// Area-weighted budgets with bias constant `theta_k` — the biased
    /// twin of [`ScaledTechPower::area_weighted`].
    pub fn area_weighted(
        floorplan: &Floorplan,
        total_dynamic_w: f64,
        total_leakage_w: f64,
        theta_k: f64,
    ) -> Self {
        Self::new(
            ScaledTechPower::area_weighted(floorplan, total_dynamic_w, total_leakage_w),
            theta_k,
        )
    }

    /// Precomputes the per-technology reference OFF currents (see
    /// [`ScaledTechPower::prepared_for`]).
    #[must_use]
    pub fn prepared_for(mut self, grid: &ScenarioGrid) -> Self {
        self.inner = self.inner.prepared_for(grid);
        self
    }

    /// The unbiased base model.
    pub fn base(&self) -> &ScaledTechPower {
        &self.inner
    }

    /// The bias temperature constant θ, K.
    pub fn theta_k(&self) -> f64 {
        self.theta_k
    }

    /// The bias correction to the flat dynamic term: `dyn·(e^{x3} − 1)`
    /// with `x3 = (T − T_ref)/θ`. One shared helper keeps the scalar
    /// oracle ([`ScenarioPowerModel::block_power`]) and the batch
    /// adapter's per-lane refresh algebraically identical.
    #[inline]
    fn bias_term(&self, scenario: &Scenario, tech: &Technology, block: usize, t: f64) -> f64 {
        let dynamic = scenario.activity
            * scenario.vdd_scale
            * scenario.vdd_scale
            * self.inner.dynamic_w[block];
        dynamic * (((t - tech.t_ref) / self.theta_k).exp() - 1.0)
    }
}

impl ScenarioPowerModel for BiasedTechPower {
    fn block_power(
        &self,
        scenario: &Scenario,
        tech: &Technology,
        block: usize,
        temperature_k: f64,
    ) -> f64 {
        self.inner.block_power(scenario, tech, block, temperature_k)
            + self.bias_term(scenario, tech, block, temperature_k)
    }

    fn batched<'a>(
        &'a self,
        scenarios: ScenarioLookup<'a>,
        lanes: usize,
    ) -> Box<dyn BatchPowerModel + 'a> {
        Box::new(BiasedTechBatch::new(self, scenarios, lanes))
    }
}

/// Vectorized batch form of [`BiasedTechPower`]: the base
/// [`ScaledTechBatch`] plus one bias-correction panel per Picard step
/// (see the [module docs](self)).
struct BiasedTechBatch<'a> {
    model: &'a BiasedTechPower,
    /// The base adapter; it also holds each lane's scenario for the
    /// scalar refresh calls.
    inner: ScaledTechBatch<'a>,
    /// `activity·vdd_scale²` per lane (the bias rides the dynamic
    /// scale).
    s_dyn: Vec<f64>,
    /// The lane technology's `T_ref`, K.
    t_ref: Vec<f64>,
    /// `1/θ`.
    theta_inv: f64,
    /// Bias exponent/exponential panels, shaped like the last power
    /// panel.
    x3: MultiVec,
    ex3: MultiVec,
}

impl<'a> BiasedTechBatch<'a> {
    fn new(model: &'a BiasedTechPower, scenarios: ScenarioLookup<'a>, lanes: usize) -> Self {
        BiasedTechBatch {
            model,
            inner: ScaledTechBatch::new(&model.inner, scenarios, lanes),
            s_dyn: vec![0.0; lanes],
            t_ref: vec![0.0; lanes],
            theta_inv: 1.0 / model.theta_k,
            x3: MultiVec::default(),
            ex3: MultiVec::default(),
        }
    }
}

impl BatchPowerModel for BiasedTechBatch<'_> {
    fn begin_lane(&mut self, lane: usize, id: usize) {
        self.inner.begin_lane(lane, id);
        if let Some((s, tech)) = self.inner.lane_scenario(lane) {
            self.s_dyn[lane] = s.activity * s.vdd_scale * s.vdd_scale;
            self.t_ref[lane] = tech.t_ref;
        }
    }

    fn fill_powers(&mut self, temps: &MultiVec, powers: &mut MultiVec) {
        // Base Eq. 13 powers first, then the bias correction on top.
        self.inner.fill_powers(temps, powers);
        let n = temps.rows();
        let lanes = temps.lanes();
        fit_panels(n, lanes, [&mut self.x3, &mut self.ex3]);
        let t_ref = &self.t_ref[..lanes];
        let theta_inv = self.theta_inv;
        for i in 0..n {
            let trow = &temps.component(i)[..lanes];
            let x3 = &mut self.x3.component_mut(i)[..lanes];
            for j in 0..lanes {
                x3[j] = (trow[j] - t_ref[j]) * theta_inv;
            }
        }
        expv::exp_into(self.x3.as_slice(), self.ex3.as_mut_slice());
        let s_dyn = &self.s_dyn[..lanes];
        for i in 0..n {
            let dw = self.model.inner.dynamic_w[i];
            let e3 = &self.ex3.component(i)[..lanes];
            let prow = &mut powers.component_mut(i)[..lanes];
            for j in 0..lanes {
                prow[j] += (s_dyn[j] * dw) * (e3[j] - 1.0);
            }
        }
    }

    fn lane_power(&self, lane: usize, block: usize, t: f64) -> Option<f64> {
        let (s, tech) = self.inner.lane_scenario(lane)?;
        Some(self.model.block_power(s, tech, block, t))
    }
    // `refresh_lane` stays the default scalar loop over `lane_power`:
    // the converged refresh matches the per-scenario oracle exactly,
    // the same contract the base model's refresh documents.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::sweep::{RunOptions, SweepEngine, SweepOutcome};

    fn grid() -> ScenarioGrid {
        ScenarioGrid::new(vec![Technology::cmos_120nm()])
            .vdd_scales(vec![0.9, 1.0, 1.1])
            .activities(vec![0.5, 1.0])
            .ambients_k(vec![300.0, 340.0])
    }

    #[test]
    fn bias_vanishes_at_reference_temperature() {
        let tech = Technology::cmos_120nm();
        let plan = Floorplan::paper_three_blocks();
        let flat = ScaledTechPower::area_weighted(&plan, 40.0, 8.0);
        let biased = BiasedTechPower::new(flat.clone(), 45.0);
        let s = Scenario {
            vdd_scale: 1.05,
            activity: 0.8,
            ambient_k: 300.0,
            tech_index: 0,
        };
        for block in 0..plan.blocks().len() {
            assert_eq!(
                biased.block_power(&s, &tech, block, tech.t_ref),
                flat.block_power(&s, &tech, block, tech.t_ref),
            );
        }
    }

    #[test]
    fn bias_grows_power_above_reference_and_shrinks_it_below() {
        let tech = Technology::cmos_120nm();
        let plan = Floorplan::paper_three_blocks();
        let flat = ScaledTechPower::area_weighted(&plan, 40.0, 8.0);
        let biased = BiasedTechPower::new(flat.clone(), 80.0);
        let s = Scenario {
            vdd_scale: 1.0,
            activity: 1.0,
            ambient_k: 300.0,
            tech_index: 0,
        };
        let hot = tech.t_ref + 40.0;
        let cold = tech.t_ref - 40.0;
        assert!(biased.block_power(&s, &tech, 0, hot) > flat.block_power(&s, &tech, 0, hot));
        assert!(biased.block_power(&s, &tech, 0, cold) < flat.block_power(&s, &tech, 0, cold));
    }

    #[test]
    fn huge_theta_degenerates_to_the_flat_law() {
        let tech = Technology::cmos_120nm();
        let plan = Floorplan::paper_three_blocks();
        let flat = ScaledTechPower::area_weighted(&plan, 40.0, 8.0);
        let biased = BiasedTechPower::new(flat.clone(), 1e18);
        let s = Scenario {
            vdd_scale: 1.0,
            activity: 1.0,
            ambient_k: 300.0,
            tech_index: 0,
        };
        for t in [280.0, 330.0, 380.0] {
            let a = biased.block_power(&s, &tech, 1, t);
            let b = flat.block_power(&s, &tech, 1, t);
            assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b} at {t} K");
        }
    }

    #[test]
    fn bad_theta_clamps_to_the_default() {
        let plan = Floorplan::paper_three_blocks();
        let flat = ScaledTechPower::area_weighted(&plan, 40.0, 8.0);
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                BiasedTechPower::new(flat.clone(), bad).theta_k(),
                DEFAULT_BIAS_THETA_K
            );
        }
    }

    #[test]
    fn batched_sweep_matches_the_per_scenario_oracle() {
        let engine = SweepEngine::new(Floorplan::paper_three_blocks()).threads(2);
        let grid = grid();
        let model = BiasedTechPower::area_weighted(
            engine.solver().floorplan(),
            40.0,
            8.0,
            DEFAULT_BIAS_THETA_K,
        )
        .prepared_for(&grid);
        let batched = engine.sweep(&grid, &model, RunOptions::new());
        let oracle = engine.run_per_scenario(&grid, &model);
        assert_eq!(batched.len(), oracle.len());
        for (b, o) in batched.outcomes.iter().zip(oracle.outcomes.iter()) {
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
                    for (x, y) in bt.iter().zip(ot) {
                        assert!((x - y).abs() < 1e-9, "temps {x} vs {y}");
                    }
                    for (x, y) in bp.iter().zip(op) {
                        assert!((x - y).abs() < 1e-9 * y.abs().max(1.0), "powers {x} vs {y}");
                    }
                }
                (b, o) => assert_eq!(
                    std::mem::discriminant(b),
                    std::mem::discriminant(o),
                    "outcome kinds diverged: {b:?} vs {o:?}"
                ),
            }
        }
    }

    #[test]
    fn biased_power_runs_away_before_the_flat_law_does() {
        // The bias adds positive feedback on the dynamic term, so at a
        // matched budget the biased model's runaway boundary sits at or
        // below the flat model's along the Vdd axis.
        let engine = SweepEngine::new(Floorplan::paper_three_blocks());
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()])
            .vdd_scales((0..12).map(|i| 1.0 + 0.25 * i as f64).collect());
        let flat = engine.uniform_tech_power(1.0, 0.2);
        let biased = BiasedTechPower::new(flat.clone(), 40.0);
        let flat_runaways = engine
            .sweep(&grid, &flat, RunOptions::new())
            .runaway_count();
        let biased_runaways = engine
            .sweep(&grid, &biased, RunOptions::new())
            .runaway_count();
        assert!(
            biased_runaways >= flat_runaways,
            "biased {biased_runaways} < flat {flat_runaways}"
        );
        assert!(biased_runaways > 0, "grid never ran away — widen the axis");
    }
}
