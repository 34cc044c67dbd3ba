//! The GEMM-batched Picard hot path: advancing many scenarios per step.
//!
//! The per-scenario engine solves one fixed point at a time — each Picard
//! iteration is one `n × n` mat-vec plus `n` power-model calls. Batched,
//! `B` scenarios advance together:
//!
//! ```text
//! P[:, 0..B] = power_model(T[:, 0..B])           (elementwise, vectorized)
//! T[:, 0..B] ← T + λ·(R·P + ambient − T)         (one n×n · n×B GEMM)
//! ```
//!
//! The GEMM amortises every load of the influence matrix across `B`
//! lanes ([`Matrix::mul_into`](ptherm_math::Matrix::mul_into)), and the
//! power model evaluates contiguous lanes, which is what lets the Eq. 13
//! exponentials batch ([`ptherm_math::expv`]). Scenario lifetimes differ
//! (8 iterations here, runaway detection after 3 there), so lanes are
//! **masked and refilled**: the moment a lane's scenario converges, runs
//! away or trips the power guard it is retired — dropping out of the
//! per-lane bookkeeping — and the lane is immediately reloaded with the
//! next pending scenario, keeping the batch dense until the sweep runs
//! dry. Once it has, and at most half the lanes are still live, the
//! panel **shrinks**: live lanes pack into the leading columns and every
//! panel narrows to the live count, so a draining batch stops paying
//! power evaluations, GEMM columns and updates for retired lanes.
//!
//! # Numerical contract
//!
//! Per lane, every operation happens in the same order as the
//! per-scenario oracle ([`ElectroThermalSolver::solve_with_ambient`]):
//! powers in block order, ascending-`k` accumulation in the thermal
//! product, the same damped update, the same guard sequence (bad power →
//! ceiling → tolerance). With a scalar power model and the portable GEMM
//! tier the results are **bit-identical** to the oracle. On FMA hardware
//! the dispatched GEMM fuses multiply-adds (≈1 ULP per term), and
//! batched power models may evaluate their exponentials through
//! [`ptherm_math::expv`] (≤ 5e-13 relative per call) — the fixed point
//! is a contraction, so converged temperatures agree with the oracle to
//! ~1e-9 K and iteration counts match except exactly at a convergence
//! threshold. `docs/PERFORMANCE.md` quantifies this; the sweep tests and
//! the `sweep` bench assert it.

use crate::cosim::sweep::SweepOutcome;
use crate::cosim::{ElectroThermalSolver, ThermalOperator};
use ptherm_math::MultiVec;
use ptherm_par::CancelToken;

/// One scenario start pulled from a [`BatchedSolver::drive`] source:
/// the caller's scenario id, the lane's ambient, and an optional
/// warm-start seed.
///
/// `seed: None` loads the lane cold — every block starts at
/// `ambient_k`, exactly the per-scenario oracle's initial state.
/// `seed: Some(t)` loads block `b` at `t[b].max(ambient_k)` instead
/// (the clamp keeps a seed borrowed from a cooler neighbor physical:
/// Picard iterates from below, so an initial state under ambient would
/// leave the oracle's basin). A seed whose length does not match the
/// operator's block count is ignored and the lane starts cold — a
/// mismatched seed must degrade to correctness, never index out of
/// bounds on a worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStart {
    /// The caller's scenario index, echoed back through the sink.
    pub id: usize,
    /// Lane ambient temperature, K.
    pub ambient_k: f64,
    /// Optional per-block initial temperatures, K.
    pub seed: Option<Vec<f64>>,
}

impl LaneStart {
    /// A cold start: every block begins at `ambient_k`.
    pub fn cold(id: usize, ambient_k: f64) -> Self {
        LaneStart {
            id,
            ambient_k,
            seed: None,
        }
    }

    /// A warm start seeded from `seed` (clamped to at least `ambient_k`
    /// per block at load time).
    pub fn warm(id: usize, ambient_k: f64, seed: Vec<f64>) -> Self {
        LaneStart {
            id,
            ambient_k,
            seed: Some(seed),
        }
    }
}

/// Power evaluation over a batch of scenario lanes.
///
/// The solver drives the model through three calls: [`Self::begin_lane`]
/// when a scenario is loaded into a lane, [`Self::fill_powers`] once per
/// Picard step (over the whole panel it is handed — retired lanes may
/// hold stale state and their outputs are ignored), and
/// [`Self::lane_power`] to refresh a converged lane's powers at its final
/// temperatures (this one must match the per-scenario oracle's power
/// model exactly, since the oracle's reported powers come from a plain
/// scalar call).
///
/// The width a model is built for is a capacity, not the panel width:
/// a draining batch narrows its panels and moves live lanes into the
/// leading columns, reloading each moved lane through
/// [`Self::begin_lane`]. Loading must therefore depend only on the
/// scenario id, never on what the lane held before.
pub trait BatchPowerModel {
    /// Loads scenario `id` (the caller's index) into `lane`.
    fn begin_lane(&mut self, lane: usize, id: usize);

    /// Writes `powers[block][lane]` from `temps[block][lane]` for every
    /// lane of the panel. The panel width (`temps.lanes()`) never
    /// exceeds the width the model was built for and may change between
    /// calls, so lane loops and scratch follow it. Lanes that never saw
    /// [`Self::begin_lane`] may be skipped; outputs of retired lanes are
    /// ignored.
    fn fill_powers(&mut self, temps: &MultiVec, powers: &mut MultiVec);

    /// Scalar power of `block` at temperature `t` for the scenario
    /// currently loaded in `lane`, or `None` when no scenario was ever
    /// loaded there.
    ///
    /// # Invariant
    ///
    /// The solvers only query lanes they previously passed to
    /// [`Self::begin_lane`], so `None` never surfaces on the hot path;
    /// it exists so an out-of-contract query is a typed, testable
    /// condition instead of a panic inside a worker thread (which would
    /// poison the whole sweep).
    fn lane_power(&self, lane: usize, block: usize, t: f64) -> Option<f64>;

    /// Recomputes every block power of `lane` at the converged
    /// temperatures `temps`, writing into `powers` — the final refresh
    /// the oracle performs before reporting. The default loops
    /// [`Self::lane_power`]; vectorized models may override it with the
    /// same batched arithmetic they use in [`Self::fill_powers`].
    /// Querying an empty lane (see [`Self::lane_power`]) writes NaN,
    /// which the power guards surface as `BadPower` instead of silently
    /// reporting a wrong operating point.
    fn refresh_lane(&mut self, lane: usize, temps: &[f64], powers: &mut [f64]) {
        for (block, (&t, p)) in temps.iter().zip(powers.iter_mut()).enumerate() {
            *p = self.lane_power(lane, block, t).unwrap_or(f64::NAN);
        }
    }
}

/// [`BatchPowerModel`] for a plain `power(id, block, T)` closure —
/// bit-identical to calling the closure from the per-scenario loop.
pub struct FnBatchPower<F> {
    f: F,
    lane_id: Vec<Option<usize>>,
}

impl<F: Fn(usize, usize, f64) -> f64> FnBatchPower<F> {
    /// Wraps `f(scenario_id, block, temperature_k) -> W`.
    pub fn new(f: F) -> Self {
        FnBatchPower {
            f,
            lane_id: Vec::new(),
        }
    }
}

impl<F: Fn(usize, usize, f64) -> f64> BatchPowerModel for FnBatchPower<F> {
    fn begin_lane(&mut self, lane: usize, id: usize) {
        if self.lane_id.len() <= lane {
            self.lane_id.resize(lane + 1, None);
        }
        self.lane_id[lane] = Some(id);
    }

    fn fill_powers(&mut self, temps: &MultiVec, powers: &mut MultiVec) {
        for i in 0..temps.rows() {
            for (j, id) in self.lane_id.iter().take(temps.lanes()).enumerate() {
                if let Some(id) = id {
                    let p = (self.f)(*id, i, temps.get(i, j));
                    powers.set(i, j, p);
                }
            }
        }
    }

    fn lane_power(&self, lane: usize, block: usize, t: f64) -> Option<f64> {
        let id = self.lane_id.get(lane).copied().flatten()?;
        Some((self.f)(id, block, t))
    }
}

/// Reusable per-worker state for [`BatchedSolver`]: the three `n × B`
/// batch panels plus per-lane bookkeeping. Buffers keep their capacity
/// across [`BatchedSolver::drive`] calls, so a sweep worker allocates
/// only the per-outcome result vectors in steady state.
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace {
    temps: MultiVec,
    powers: MultiVec,
    fresh: MultiVec,
    ambient: Vec<f64>,
    delta: Vec<f64>,
    peak: Vec<f64>,
    /// Per-lane running min of the power panel (negative-power detector).
    power_min: Vec<f64>,
    /// Per-lane `Σ p·0` (NaN exactly when some power is non-finite).
    power_poison: Vec<f64>,
    lane_id: Vec<usize>,
    lane_iter: Vec<usize>,
    alive: Vec<bool>,
}

impl BatchWorkspace {
    /// An empty workspace; panels size themselves on first use.
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// Sizes every panel to `blocks × lanes`. Temperatures start at the
    /// sink, `sink_k`: a lane no scenario ever loads still flows through
    /// the power model, and at 0 K its Eq. 13 exponents are `0·(1/0)`,
    /// NaNs that send the whole panel through `expv`'s scalar fix-up.
    fn reset(&mut self, blocks: usize, lanes: usize, sink_k: f64) {
        self.temps.reset(blocks, lanes);
        self.temps.as_mut_slice().fill(sink_k);
        self.powers.reset(blocks, lanes);
        self.fresh.reset(blocks, lanes);
        self.ambient.clear();
        self.ambient.resize(lanes, 0.0);
        self.delta.clear();
        self.delta.resize(lanes, 0.0);
        self.peak.clear();
        self.peak.resize(lanes, f64::NEG_INFINITY);
        self.power_min.clear();
        self.power_min.resize(lanes, 0.0);
        self.power_poison.clear();
        self.power_poison.resize(lanes, 0.0);
        self.lane_id.clear();
        self.lane_id.resize(lanes, usize::MAX);
        self.lane_iter.clear();
        self.lane_iter.resize(lanes, 0);
        self.alive.clear();
        self.alive.resize(lanes, false);
    }

    /// Packs the in-flight lanes into the leading columns, in column
    /// order, and narrows every panel and per-lane vector to the live
    /// count. Each lane that moves is reloaded into `model` at its new
    /// column. Per-lane state moves with the lane, so no lane's
    /// arithmetic changes.
    fn narrow<M: BatchPowerModel + ?Sized>(&mut self, model: &mut M) {
        let live = self.alive.iter().filter(|&&alive| alive).count();
        // `fresh` is free between steps: gather the live temperature
        // columns into it and swap it in.
        let blocks = self.temps.rows();
        self.fresh.reset(blocks, live);
        for i in 0..blocks {
            let from = self.temps.component(i).iter().zip(&self.alive);
            let live_temps = from.filter_map(|(&t, &alive)| alive.then_some(t));
            for (to, t) in self.fresh.component_mut(i).iter_mut().zip(live_temps) {
                *to = t;
            }
        }
        std::mem::swap(&mut self.temps, &mut self.fresh);
        self.fresh.reset(blocks, live);
        self.powers.reset(blocks, live);
        let mut to = 0;
        for from in 0..self.alive.len() {
            if !self.alive[from] {
                continue;
            }
            if from != to {
                self.ambient[to] = self.ambient[from];
                self.lane_id[to] = self.lane_id[from];
                self.lane_iter[to] = self.lane_iter[from];
                model.begin_lane(to, self.lane_id[to]);
            }
            to += 1;
        }
        for v in [
            &mut self.ambient,
            &mut self.delta,
            &mut self.peak,
            &mut self.power_min,
            &mut self.power_poison,
        ] {
            v.truncate(live);
        }
        self.lane_id.truncate(live);
        self.lane_iter.truncate(live);
        self.alive.clear();
        self.alive.resize(live, true);
    }
}

/// Batched fixed-point driver over one solver configuration and one
/// precomputed operator. See the [module docs](self).
///
/// # Example
///
/// ```
/// use ptherm_core::cosim::batch::{BatchWorkspace, BatchedSolver, FnBatchPower};
/// use ptherm_core::cosim::ElectroThermalSolver;
/// use ptherm_floorplan::Floorplan;
///
/// let solver = ElectroThermalSolver::new(Floorplan::paper_three_blocks());
/// let op = solver.operator();
/// let batched = BatchedSolver::new(&solver, &op);
/// // Four scenarios: constant powers scaled by the scenario index.
/// let mut model = FnBatchPower::new(|id, _block, _t| 0.1 * (id + 1) as f64);
/// let outcomes = batched.solve(&[300.0; 4], &mut model, &mut BatchWorkspace::new());
/// assert_eq!(outcomes.len(), 4);
/// assert!(outcomes.iter().all(|o| o.is_converged()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchedSolver<'a> {
    solver: &'a ElectroThermalSolver,
    operator: &'a ThermalOperator,
}

impl<'a> BatchedSolver<'a> {
    /// Couples a solver configuration with its precomputed operator.
    ///
    /// # Panics
    ///
    /// Panics if `operator` was built for a different block count than
    /// `solver`'s floorplan.
    pub fn new(solver: &'a ElectroThermalSolver, operator: &'a ThermalOperator) -> Self {
        assert_eq!(
            operator.len(),
            solver.floorplan().blocks().len(),
            "operator/floorplan block-count mismatch"
        );
        BatchedSolver { solver, operator }
    }

    /// Solves one fixed batch: scenario `id = i` runs at ambient
    /// `ambients[i]`, outcomes return in input order. A convenience
    /// wrapper over [`Self::drive`] with `lanes = ambients.len()`.
    pub fn solve<M: BatchPowerModel + ?Sized>(
        &self,
        ambients: &[f64],
        model: &mut M,
        ws: &mut BatchWorkspace,
    ) -> Vec<SweepOutcome> {
        let b = ambients.len();
        let mut out: Vec<Option<SweepOutcome>> = (0..b).map(|_| None).collect();
        let mut next = 0usize;
        self.drive(
            b,
            model,
            ws,
            None,
            &mut || {
                (next < b).then(|| {
                    let id = next;
                    next += 1;
                    LaneStart::cold(id, ambients[id])
                })
            },
            &mut |id, outcome| out[id] = Some(outcome),
        );
        out.into_iter()
            // lint:allow(panic-freedom) — the closure source yields each id in 0..b exactly once and the sink stores every retired lane
            .map(|o| o.expect("every scenario retired"))
            .collect()
    }

    /// The streaming entry point: pulls [`LaneStart`]s from `source`
    /// into at most `lanes` solver lanes (clamped to at least 1, so no
    /// scenario can be silently dropped), advances the whole batch one
    /// Picard step at a time, and hands each retired scenario to `sink`
    /// as soon as it resolves. Lanes are refilled immediately, so the
    /// batch stays dense until `source` is exhausted; each worker of a
    /// parallel sweep runs one `drive` against a shared atomic source.
    ///
    /// `lanes` is the starting panel width, not a fixed one. A lane no
    /// scenario has loaded yet idles at the floorplan's sink
    /// temperature. Once `source` returns `None` and at most half the
    /// lanes are live, the panel shrinks to the live count (see the
    /// [module docs](self)); it never widens again. Outcomes do not
    /// depend on the width or on when it shrinks.
    ///
    /// A `None` from `source` is not final: the source is re-polled on
    /// every later iteration with a free lane, so a source may withhold
    /// a scenario until an earlier one retires through the sink. The
    /// drive ends when `source` returns `None` while no
    /// lane is in flight.
    pub fn drive<M: BatchPowerModel + ?Sized>(
        &self,
        lanes: usize,
        model: &mut M,
        ws: &mut BatchWorkspace,
        cancel: Option<&CancelToken>,
        source: &mut dyn FnMut() -> Option<LaneStart>,
        sink: &mut dyn FnMut(usize, SweepOutcome),
    ) {
        let operator = self.operator;
        drive_picard(
            self.solver,
            operator.len(),
            lanes,
            model,
            ws,
            cancel,
            source,
            sink,
            // Closed-form thermal solve: one matrix × batch product. The
            // GEMM computes every column, live or not — cheaper than
            // masking, and dead-lane columns never mix into live lanes.
            &mut |powers, fresh, _alive| operator.influence().mul_into(powers, fresh),
        );
    }
}

/// The batched Picard skeleton shared by the dense and spectral
/// backends: lane refill, power evaluation, the damped update and the
/// oracle's guard sequence are all here, so the two backends cannot
/// drift apart in anything but the thermal apply itself. `apply` writes
/// the temperature **rises** `R·P` of (at least) every lane flagged in
/// `alive` into `fresh`; the dense backend passes one GEMM, the
/// spectral backend a per-lane rasterize → FFT → sample pipeline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_picard<M: BatchPowerModel + ?Sized>(
    solver: &ElectroThermalSolver,
    blocks: usize,
    lanes: usize,
    model: &mut M,
    ws: &mut BatchWorkspace,
    cancel: Option<&CancelToken>,
    source: &mut dyn FnMut() -> Option<LaneStart>,
    sink: &mut dyn FnMut(usize, SweepOutcome),
    apply: &mut dyn FnMut(&MultiVec, &mut MultiVec, &[bool]),
) {
    ws.reset(
        blocks,
        lanes.max(1),
        solver.floorplan().geometry().sink_temperature,
    );
    let mut pending = 0usize;
    loop {
        let lanes = ws.alive.len();
        // Cooperative-cancellation checkpoint: exactly one poll per
        // Picard iteration (shared by the dense and spectral backends).
        // Live lanes retire as Cancelled carrying their iteration
        // count; scenarios still in `source` are the caller's to
        // account for. A token that never fires costs one relaxed
        // atomic load here and changes no arithmetic.
        if cancel.is_some_and(|token| token.is_cancelled()) {
            for lane in 0..lanes {
                if ws.alive[lane] {
                    ws.alive[lane] = false;
                    sink(
                        ws.lane_id[lane],
                        SweepOutcome::Cancelled {
                            iterations: ws.lane_iter[lane],
                        },
                    );
                }
            }
            return;
        }
        // Refill every free lane. A `None` only ends *this* refill
        // round, not the drive: a source may hold a scenario back until
        // an earlier one retires, so it is re-polled each iteration as
        // long as anything is in flight.
        let mut dry = false;
        for lane in 0..lanes {
            if ws.alive[lane] {
                continue;
            }
            match source() {
                Some(start) => {
                    ws.lane_id[lane] = start.id;
                    ws.lane_iter[lane] = 0;
                    ws.alive[lane] = true;
                    ws.ambient[lane] = start.ambient_k;
                    match &start.seed {
                        // A well-formed seed loads per block, clamped
                        // to ambient (see [`LaneStart`]); anything else
                        // degrades to the cold start.
                        Some(seed) if seed.len() == blocks => {
                            for (block, &t) in seed.iter().enumerate() {
                                ws.temps.set(block, lane, t.max(start.ambient_k));
                            }
                        }
                        _ => ws.temps.fill_lane(lane, start.ambient_k),
                    }
                    model.begin_lane(lane, start.id);
                    pending += 1;
                }
                None => {
                    dry = true;
                    break;
                }
            }
        }
        if pending == 0 {
            return;
        }
        // Nothing left to refill with and at most half the panel live:
        // stop paying every later step for the retired columns.
        if dry && 2 * pending <= lanes {
            ws.narrow(model);
        }
        step_picard(solver, blocks, model, ws, sink, &mut pending, apply);
    }
}

/// One batched Picard iteration: fill powers, one thermal apply, damped
/// update with per-lane reductions, then classify and retire lanes.
fn step_picard<M: BatchPowerModel + ?Sized>(
    solver: &ElectroThermalSolver,
    blocks: usize,
    model: &mut M,
    ws: &mut BatchWorkspace,
    sink: &mut dyn FnMut(usize, SweepOutcome),
    pending: &mut usize,
    apply: &mut dyn FnMut(&MultiVec, &mut MultiVec, &[bool]),
) {
    let n = blocks;
    let lanes = ws.ambient.len();
    let damping = solver.damping;

    // Power at the current temperature estimates (all lanes).
    model.fill_powers(&ws.temps, &mut ws.powers);

    // Vectorized per-lane poison detection; only flagged lanes pay a
    // precise scan.
    scan_power_poison(&ws.powers, lanes, &mut ws.power_min, &mut ws.power_poison);

    // Backend-specific thermal apply: fresh ← R·powers.
    apply(&ws.powers, &mut ws.fresh, &ws.alive);

    // Damped update with the per-lane max-|ΔT| and peak reductions
    // fused in. Same per-lane arithmetic order as the scalar path;
    // `f64::max` is exact, so the fused reductions lose nothing.
    ws.delta.fill(0.0);
    ws.peak.fill(f64::NEG_INFINITY);
    {
        let delta = &mut ws.delta[..lanes];
        let peak = &mut ws.peak[..lanes];
        let ambient = &ws.ambient[..lanes];
        for i in 0..n {
            let frow = &ws.fresh.component(i)[..lanes];
            let trow = &mut ws.temps.component_mut(i)[..lanes];
            for j in 0..lanes {
                let fresh = frow[j] + ambient[j];
                let prev = trow[j];
                let next = prev + damping * (fresh - prev);
                delta[j] = delta[j].max((next - prev).abs());
                peak[j] = peak[j].max(next);
                trow[j] = next;
            }
        }
    }

    // Classify each live lane with the oracle's guard order: bad
    // power (checked before the thermal solve there, harmless to
    // defer here — a poisoned lane touches only its own column),
    // then the runaway ceiling, then convergence.
    for lane in 0..lanes {
        if !ws.alive[lane] {
            continue;
        }
        let iteration = ws.lane_iter[lane];
        ws.lane_iter[lane] = iteration + 1;
        // lint:allow(float-compare) — exact sentinel: poison stays literal 0.0 until a non-finite write lands (NaN also compares unequal)
        let suspect = ws.power_min[lane] < 0.0 || ws.power_poison[lane] != 0.0;
        let bad = if suspect {
            first_bad_power(&ws.powers, lane)
        } else {
            None
        };
        let outcome = if let Some((block, power)) = bad {
            Some(SweepOutcome::BadPower { block, power })
        } else if ws.peak[lane] > solver.ceiling_k {
            Some(SweepOutcome::Runaway {
                iteration,
                temperature: ws.peak[lane],
            })
        } else if ws.delta[lane] < solver.tolerance_k {
            // Refresh powers at the converged temperatures — the
            // oracle's final call before reporting.
            let mut block_temperatures = vec![0.0; n];
            ws.temps.copy_lane_into(lane, &mut block_temperatures);
            let mut block_powers = vec![0.0; n];
            model.refresh_lane(lane, &block_temperatures, &mut block_powers);
            Some(SweepOutcome::Converged {
                block_temperatures,
                block_powers,
                iterations: iteration + 1,
            })
        } else if iteration + 1 >= solver.max_iterations {
            Some(SweepOutcome::NotConverged {
                last_delta: ws.delta[lane],
            })
        } else {
            None
        };
        if let Some(outcome) = outcome {
            ws.alive[lane] = false;
            *pending -= 1;
            sink(ws.lane_id[lane], outcome);
        }
    }
}

/// Vectorized per-lane bad-power pre-screen shared by the Picard and
/// transient batch solvers: `power_min` tracks the running min over the
/// lane's powers (flags negatives) and `power_poison` accumulates
/// `Σ p·0`, which is NaN exactly when the lane holds a non-finite power.
/// A lane is suspect iff `power_min < 0` or `power_poison != 0`.
pub(crate) fn scan_power_poison(
    powers: &MultiVec,
    lanes: usize,
    power_min: &mut [f64],
    power_poison: &mut [f64],
) {
    let power_min = &mut power_min[..lanes];
    let power_poison = &mut power_poison[..lanes];
    power_min.fill(0.0);
    power_poison.fill(0.0);
    for i in 0..powers.rows() {
        let prow = &powers.component(i)[..lanes];
        for j in 0..lanes {
            let p = prow[j];
            power_min[j] = power_min[j].min(p);
            power_poison[j] += p * 0.0;
        }
    }
}

/// First block whose power is non-finite or negative in `lane`, with the
/// offending value — the batched form of the oracle's per-block guard.
pub(crate) fn first_bad_power(powers: &MultiVec, lane: usize) -> Option<(usize, f64)> {
    let lanes = powers.lanes();
    let data = powers.as_slice();
    for i in 0..powers.rows() {
        let p = data[i * lanes + lane];
        if !p.is_finite() || p < 0.0 {
            return Some((i, p));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::Workspace;
    use ptherm_floorplan::{ChipGeometry, Floorplan};

    fn solver() -> ElectroThermalSolver {
        ElectroThermalSolver::new(Floorplan::paper_three_blocks())
    }

    /// Oracle outcomes via the per-scenario path, same model closure.
    fn oracle<F: Fn(usize, usize, f64) -> f64>(
        s: &ElectroThermalSolver,
        op: &ThermalOperator,
        ambients: &[f64],
        f: F,
    ) -> Vec<SweepOutcome> {
        let mut ws = Workspace::new();
        ambients
            .iter()
            .enumerate()
            .map(|(id, &ambient)| {
                match s.solve_with_ambient(op, ambient, &mut ws, |b, t| f(id, b, t)) {
                    Ok(()) => SweepOutcome::Converged {
                        block_temperatures: ws.temperatures().to_vec(),
                        block_powers: ws.powers().to_vec(),
                        iterations: ws.iterations(),
                    },
                    Err(e) => SweepOutcome::from_error(e),
                }
            })
            .collect()
    }

    fn assert_outcomes_match(got: &[SweepOutcome], want: &[SweepOutcome]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            match (g, w) {
                (
                    SweepOutcome::Converged {
                        block_temperatures: gt,
                        block_powers: gp,
                        iterations: gi,
                    },
                    SweepOutcome::Converged {
                        block_temperatures: wt,
                        block_powers: wp,
                        iterations: wi,
                    },
                ) => {
                    assert_eq!(gi, wi, "scenario {i} iterations");
                    for (a, b) in gt.iter().zip(wt) {
                        assert!((a - b).abs() < 1e-9, "scenario {i}: {a} vs {b}");
                    }
                    for (a, b) in gp.iter().zip(wp) {
                        assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "scenario {i}");
                    }
                }
                (
                    SweepOutcome::Runaway {
                        iteration: gi,
                        temperature: gt,
                    },
                    SweepOutcome::Runaway {
                        iteration: wi,
                        temperature: wt,
                    },
                ) => {
                    // Divergence amplifies the ULP-level gap in absolute
                    // terms; relative agreement stays at the contract.
                    assert_eq!(gi, wi, "scenario {i} runaway iteration");
                    assert!(
                        (gt - wt).abs() <= 1e-9 * wt.abs(),
                        "scenario {i}: {gt} vs {wt}"
                    );
                }
                (
                    SweepOutcome::BadPower {
                        block: gb,
                        power: gp,
                    },
                    SweepOutcome::BadPower {
                        block: wb,
                        power: wp,
                    },
                ) => {
                    // Bitwise power comparison: NaN payloads must match too.
                    assert_eq!(gb, wb, "scenario {i} bad block");
                    assert_eq!(gp.to_bits(), wp.to_bits(), "scenario {i} bad power");
                }
                (g, w) => assert_eq!(g, w, "scenario {i}"),
            }
        }
    }

    #[test]
    fn batch_of_one_matches_the_oracle() {
        let s = solver();
        let op = s.operator();
        let f = |_id: usize, _b: usize, t: f64| 0.2 + 0.03 * ((t - 300.0) / 25.0).exp2();
        let got = BatchedSolver::new(&s, &op).solve(
            &[310.0],
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
        );
        assert_outcomes_match(&got, &oracle(&s, &op, &[310.0], f));
    }

    #[test]
    fn all_runaway_batch_retires_every_lane() {
        let s = solver();
        let op = s.operator();
        let f = |_id: usize, _b: usize, t: f64| 0.5 * ((t - 300.0) / 3.0).exp2();
        let got = BatchedSolver::new(&s, &op).solve(
            &[300.0; 5],
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
        );
        assert_eq!(got.len(), 5);
        assert!(got
            .iter()
            .all(|o| matches!(o, SweepOutcome::Runaway { .. })));
        assert_outcomes_match(&got, &oracle(&s, &op, &[300.0; 5], f));
    }

    #[test]
    fn mixed_batch_converges_runs_away_and_reports_bad_power() {
        let s = solver();
        let op = s.operator();
        // id 0 converges, id 1 runs away, id 2 converges after refill
        // pressure, id 3 returns NaN power on block 1.
        let f = |id: usize, b: usize, t: f64| match id {
            1 => 0.5 * ((t - 300.0) / 3.0).exp2(),
            3 if b == 1 => f64::NAN,
            _ => 0.15 * (id + 1) as f64,
        };
        let ambients = [300.0, 300.0, 320.0, 300.0];
        let got = BatchedSolver::new(&s, &op).solve(
            &ambients,
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
        );
        assert!(got[0].is_converged());
        assert!(matches!(got[1], SweepOutcome::Runaway { .. }));
        assert!(got[2].is_converged());
        assert!(matches!(
            got[3],
            SweepOutcome::BadPower { block: 1, power: _ }
        ));
        assert_outcomes_match(&got, &oracle(&s, &op, &ambients, f));
    }

    #[test]
    fn empty_floorplan_converges_immediately() {
        let fp = Floorplan::new(ChipGeometry::paper_1mm(), Vec::new()).expect("empty plan");
        let s = ElectroThermalSolver::new(fp);
        let op = s.operator();
        assert!(op.is_empty());
        let got = BatchedSolver::new(&s, &op).solve(
            &[300.0, 350.0],
            &mut FnBatchPower::new(|_, _, _| 0.0),
            &mut BatchWorkspace::new(),
        );
        for o in &got {
            match o {
                SweepOutcome::Converged {
                    block_temperatures,
                    block_powers,
                    iterations,
                } => {
                    assert!(block_temperatures.is_empty());
                    assert!(block_powers.is_empty());
                    assert_eq!(*iterations, 1);
                }
                other => panic!("expected convergence, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let s = solver();
        let op = s.operator();
        let got = BatchedSolver::new(&s, &op).solve(
            &[],
            &mut FnBatchPower::new(|_, _, _| 0.1),
            &mut BatchWorkspace::new(),
        );
        assert!(got.is_empty());
    }

    #[test]
    fn lane_refill_drives_more_scenarios_than_lanes() {
        let s = solver();
        let op = s.operator();
        // 11 scenarios through 3 lanes; iteration counts vary with id.
        let f = |id: usize, _b: usize, t: f64| {
            0.05 + 0.02 * (id % 4) as f64 + 0.02 * ((t - 300.0) / 30.0).exp2()
        };
        let ambients: Vec<f64> = (0..11).map(|i| 295.0 + i as f64).collect();
        let mut out: Vec<Option<SweepOutcome>> = (0..11).map(|_| None).collect();
        let mut next = 0usize;
        let batched = BatchedSolver::new(&s, &op);
        batched.drive(
            3,
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
            None,
            &mut || {
                (next < 11).then(|| {
                    let id = next;
                    next += 1;
                    LaneStart::cold(id, ambients[id])
                })
            },
            &mut |id, o| out[id] = Some(o),
        );
        let got: Vec<SweepOutcome> = out.into_iter().map(Option::unwrap).collect();
        assert_outcomes_match(&got, &oracle(&s, &op, &ambients, f));
    }

    #[test]
    fn zero_lane_drive_still_resolves_every_scenario() {
        // `drive` clamps the lane count, so a computed width of 0 cannot
        // silently drop scenarios.
        let s = solver();
        let op = s.operator();
        let mut resolved = 0usize;
        let mut next = 0usize;
        BatchedSolver::new(&s, &op).drive(
            0,
            &mut FnBatchPower::new(|_, _, _| 0.2),
            &mut BatchWorkspace::new(),
            None,
            &mut || {
                (next < 3).then(|| {
                    let id = next;
                    next += 1;
                    LaneStart::cold(id, 300.0)
                })
            },
            &mut |_, outcome| {
                assert!(outcome.is_converged());
                resolved += 1;
            },
        );
        assert_eq!(resolved, 3);
    }

    #[test]
    fn lane_power_on_an_empty_lane_is_none_not_a_panic() {
        // Regression: this used to `expect` and take down the worker
        // thread (and with it the whole sweep). The contract is now a
        // typed None for lanes never loaded, including out-of-range
        // lane indices.
        let f = |id: usize, _b: usize, _t: f64| 0.1 * (id + 1) as f64;
        let mut model = FnBatchPower::new(f);
        assert_eq!(model.lane_power(0, 0, 300.0), None);
        model.begin_lane(2, 7);
        assert_eq!(model.lane_power(0, 0, 300.0), None);
        assert_eq!(model.lane_power(1, 0, 300.0), None);
        assert_eq!(model.lane_power(2, 0, 300.0), Some(0.8));
        assert_eq!(model.lane_power(99, 0, 300.0), None);
        // The default refresh on an empty lane poisons with NaN rather
        // than fabricating powers.
        let mut powers = [0.0; 2];
        model.refresh_lane(0, &[300.0, 300.0], &mut powers);
        assert!(powers.iter().all(|p| p.is_nan()));
    }

    /// Drives a single scenario through `drive` with the given start.
    fn drive_one<F: Fn(usize, usize, f64) -> f64>(
        s: &ElectroThermalSolver,
        op: &ThermalOperator,
        start: LaneStart,
        f: F,
    ) -> SweepOutcome {
        let mut fed = false;
        let mut out = None;
        BatchedSolver::new(s, op).drive(
            1,
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
            None,
            &mut || {
                (!fed).then(|| {
                    fed = true;
                    start.clone()
                })
            },
            &mut |_, o| out = Some(o),
        );
        out.expect("scenario retired")
    }

    #[test]
    fn warm_seed_reaches_the_cold_fixed_point_with_fewer_iterations() {
        let s = solver();
        let op = s.operator();
        let f = |_id: usize, _b: usize, t: f64| 0.2 + 0.03 * ((t - 300.0) / 25.0).exp2();
        let cold = drive_one(&s, &op, LaneStart::cold(0, 310.0), f);
        let SweepOutcome::Converged {
            block_temperatures: cold_t,
            iterations: cold_iters,
            ..
        } = &cold
        else {
            panic!("cold run converged, got {cold:?}")
        };
        // Seed the warm run with the cold fixed point itself: it must
        // land on the same temperatures in (far) fewer iterations.
        let warm = drive_one(&s, &op, LaneStart::warm(0, 310.0, cold_t.clone()), f);
        let SweepOutcome::Converged {
            block_temperatures: warm_t,
            iterations: warm_iters,
            ..
        } = &warm
        else {
            panic!("warm run converged, got {warm:?}")
        };
        assert!(*warm_iters < *cold_iters, "{warm_iters} vs {cold_iters}");
        for (a, b) in warm_t.iter().zip(cold_t) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn sub_ambient_and_mismatched_seeds_degrade_to_the_cold_start() {
        let s = solver();
        let op = s.operator();
        let blocks = op.len();
        let f = |_id: usize, _b: usize, t: f64| 0.2 + 0.03 * ((t - 300.0) / 25.0).exp2();
        let cold = drive_one(&s, &op, LaneStart::cold(0, 310.0), f);
        // A seed entirely below ambient clamps to ambient per block —
        // bitwise the cold start.
        let clamped = drive_one(&s, &op, LaneStart::warm(0, 310.0, vec![0.0; blocks]), f);
        assert_eq!(clamped, cold);
        // A seed with the wrong block count is ignored, not indexed.
        let mismatched = drive_one(&s, &op, LaneStart::warm(0, 310.0, vec![500.0]), f);
        assert_eq!(mismatched, cold);
    }

    #[test]
    fn a_chained_source_is_repolled_after_returning_none() {
        // The source withholds scenario 1 until scenario 0 has retired;
        // the drive must keep polling instead of latching shut on the
        // first None.
        let s = solver();
        let op = s.operator();
        let f = |_id: usize, _b: usize, _t: f64| 0.2;
        let mut done0 = false;
        let mut fed = [false; 2];
        let mut resolved = 0usize;
        let out0_seen = std::rc::Rc::new(std::cell::Cell::new(false));
        let out0_src = std::rc::Rc::clone(&out0_seen);
        BatchedSolver::new(&s, &op).drive(
            2,
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
            None,
            &mut || {
                if !fed[0] {
                    fed[0] = true;
                    return Some(LaneStart::cold(0, 300.0));
                }
                if out0_src.get() && !fed[1] {
                    fed[1] = true;
                    return Some(LaneStart::cold(1, 305.0));
                }
                None
            },
            &mut |id, o| {
                assert!(o.is_converged());
                if id == 0 {
                    done0 = true;
                    out0_seen.set(true);
                }
                resolved += 1;
            },
        );
        assert!(done0);
        assert_eq!(resolved, 2, "the withheld successor must still run");
    }

    /// Wraps [`FnBatchPower`] and logs every panel it is handed.
    struct Recording<F> {
        inner: FnBatchPower<F>,
        widths: Vec<usize>,
        temps: Vec<f64>,
    }

    impl<F: Fn(usize, usize, f64) -> f64> Recording<F> {
        fn new(f: F) -> Self {
            Recording {
                inner: FnBatchPower::new(f),
                widths: Vec::new(),
                temps: Vec::new(),
            }
        }
    }

    impl<F: Fn(usize, usize, f64) -> f64> BatchPowerModel for Recording<F> {
        fn begin_lane(&mut self, lane: usize, id: usize) {
            self.inner.begin_lane(lane, id);
        }

        fn fill_powers(&mut self, temps: &MultiVec, powers: &mut MultiVec) {
            self.widths.push(temps.lanes());
            self.temps.extend_from_slice(temps.as_slice());
            self.inner.fill_powers(temps, powers);
        }

        fn lane_power(&self, lane: usize, block: usize, t: f64) -> Option<f64> {
            self.inner.lane_power(lane, block, t)
        }
    }

    /// Drives `total` cold scenarios at 300 K through `lanes` lanes,
    /// returning the outcomes in id order.
    fn drive_recorded<F: Fn(usize, usize, f64) -> f64>(
        lanes: usize,
        total: usize,
        model: &mut Recording<F>,
        cancel: Option<&CancelToken>,
    ) -> Vec<SweepOutcome> {
        let s = solver();
        let op = s.operator();
        let mut out: Vec<Option<SweepOutcome>> = (0..total).map(|_| None).collect();
        let mut next = 0usize;
        BatchedSolver::new(&s, &op).drive(
            lanes,
            model,
            &mut BatchWorkspace::new(),
            cancel,
            &mut || {
                (next < total).then(|| {
                    next += 1;
                    LaneStart::cold(next - 1, 300.0)
                })
            },
            &mut |id, o| out[id] = Some(o),
        );
        out.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn unloaded_lanes_idle_at_the_sink_not_at_zero_kelvin() {
        // An idle lane at 0 K puts `0·(1/0) = NaN` into every Eq. 13
        // exponent of its column. Three scenarios narrow the panel
        // before the first step; five keep three lanes that no scenario
        // ever loads.
        for total in [3, 5] {
            let mut model = Recording::new(|id, _b, _t| 0.1 * (id + 1) as f64);
            let got = drive_recorded(8, total, &mut model, None);
            assert!(got.iter().all(SweepOutcome::is_converged));
            assert!(!model.temps.is_empty());
            assert!(
                model.temps.iter().all(|t| t.is_finite() && *t > 0.0),
                "{total} scenarios in 8 lanes: a power panel held a non-physical temperature"
            );
        }
    }

    #[test]
    fn a_draining_batch_narrows_to_its_live_lanes_with_unchanged_outcomes() {
        // The loop gain rises with `id`: ids 0–4 converge after 7 to
        // 150 iterations and 5–7 run away, so lanes retire far apart
        // and the panel narrows as they do.
        let f = |id: usize, _b: usize, t: f64| 0.1 + 0.015 * id as f64 * (t - 300.0);
        let mut narrow = Recording::new(f);
        let want = drive_recorded(1, 8, &mut narrow, None);
        let mut wide = Recording::new(f);
        assert_eq!(drive_recorded(8, 8, &mut wide, None), want);
        assert_eq!(wide.widths.first(), Some(&8));
        assert!(wide.widths.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(wide.widths.last(), Some(&1));
    }

    #[test]
    fn a_cancel_after_a_narrowing_retires_each_lane_with_its_own_count() {
        // Ids 0–2 have no power and converge in one step; 3 and 4 take
        // many. Step 1 runs 4 lanes (ids 0–3). Step 2 loads id 4, finds
        // the source dry with two lanes live and narrows to 2, moving id
        // 3 from column 3 to column 1. The third poll cancels.
        let f = |id: usize, _b: usize, _t: f64| if id < 3 { 0.0 } else { 0.5 };
        let mut model = Recording::new(f);
        let token = CancelToken::after_checks(2);
        let got = drive_recorded(4, 5, &mut model, Some(&token));
        assert_eq!(model.widths, [4, 2]);
        assert!(got[..3].iter().all(SweepOutcome::is_converged));
        assert_eq!(got[3], SweepOutcome::Cancelled { iterations: 2 });
        assert_eq!(got[4], SweepOutcome::Cancelled { iterations: 1 });
        // Uncancelled, both slow lanes run well past the cut.
        let full = drive_recorded(4, 5, &mut Recording::new(f), None);
        for o in &full[3..] {
            assert!(matches!(o, SweepOutcome::Converged { iterations, .. } if *iterations > 3));
        }
    }

    #[test]
    fn workspace_is_reusable_across_batches() {
        let s = solver();
        let op = s.operator();
        let batched = BatchedSolver::new(&s, &op);
        let mut ws = BatchWorkspace::new();
        let f = |_id: usize, _b: usize, _t: f64| 0.3;
        let first = batched.solve(&[300.0; 4], &mut FnBatchPower::new(f), &mut ws);
        // Different batch width, stale state must not leak.
        let second = batched.solve(&[300.0; 2], &mut FnBatchPower::new(f), &mut ws);
        assert_eq!(&first[..2], &second[..]);
    }
}
