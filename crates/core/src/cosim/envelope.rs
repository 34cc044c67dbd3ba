//! Adaptive bracketing of the converged/runaway boundary — the paper's
//! central phenomenon, located without exhaustive gridding.
//!
//! A scenario grid restricted to one axis (Vdd scale, activity, or
//! ambient) is a family of **fibers**: one per combination of the
//! remaining axes. Along each fiber the damped Picard solve either
//! finds a fixed point or reports thermal runaway, and for the paper's
//! power laws the runaway side is upward-closed in each axis (more
//! supply, more activity, or a hotter sink only pushes toward runaway).
//! [`SweepEngine::map_envelope`] exploits that monotonicity: it probes
//! the two endpoints of the requested interval per fiber, then bisects
//! — each round batching **one midpoint per unresolved fiber** through
//! the same GEMM-batched Picard driver as ordinary sweeps — until every
//! bracket is narrower than the requested tolerance.
//!
//! Cost: `2 + ⌈log₂(width/tol)⌉` solves per fiber versus
//! `⌈width/tol⌉ + 1` for an exhaustive scan at equal resolution — the
//! `envelope` bench audits the ratio and CI gates it at ≤25%.
//!
//! Fibers that violate the monotone picture (runaway at the low
//! endpoint but converged at the high one) are reported as a typed
//! [`FiberBoundary::NonMonotone`] diagnostic rather than a wrong
//! bracket; budget-exhausted, bad-power and cancelled probes surface as
//! [`FiberBoundary::Indeterminate`].

use crate::cosim::batch::FnBatchPower;
use crate::cosim::sweep::{Scenario, ScenarioGrid, ScenarioPowerModel, SweepEngine, SweepOutcome};
use crate::cosim::RunOptions;
use crate::cosim::ThermalOperator;
use std::fmt;
use std::sync::Arc;

/// The scenario axis an envelope sweep bisects along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeAxis {
    /// Supply scale relative to nominal `V_DD`
    /// ([`Scenario::vdd_scale`]).
    VddScale,
    /// Switching-activity multiplier ([`Scenario::activity`]).
    Activity,
    /// Ambient (heat-sink) temperature, K ([`Scenario::ambient_k`]).
    AmbientK,
}

impl EnvelopeAxis {
    /// Stable lower-case name (`"vdd_scale"` / `"activity"` /
    /// `"ambient_k"`) — what fleet result lines report and job specs
    /// parse.
    pub fn name(self) -> &'static str {
        match self {
            EnvelopeAxis::VddScale => "vdd_scale",
            EnvelopeAxis::Activity => "activity",
            EnvelopeAxis::AmbientK => "ambient_k",
        }
    }

    fn write(self, scenario: &mut Scenario, value: f64) {
        match self {
            EnvelopeAxis::VddScale => scenario.vdd_scale = value,
            EnvelopeAxis::Activity => scenario.activity = value,
            EnvelopeAxis::AmbientK => scenario.ambient_k = value,
        }
    }
}

impl fmt::Display for EnvelopeAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What [`SweepEngine::map_envelope`] bisects: one axis, an interval,
/// and the bracket tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeSpec {
    /// The axis swept along each fiber; the grid's own values on this
    /// axis are ignored (replaced by `[lo, hi]`), its **other** axes
    /// define the fiber family.
    pub axis: EnvelopeAxis,
    /// Low end of the searched interval (inclusive).
    pub lo: f64,
    /// High end of the searched interval (inclusive). `hi == lo` is a
    /// zero-width probe: each fiber is classified from one solve.
    pub hi: f64,
    /// Maximum final bracket width: bisection stops once
    /// `runaway − converged ≤ tolerance`.
    pub tolerance: f64,
}

/// Typed rejection of an ill-formed [`EnvelopeSpec`] — the validation
/// [`SweepEngine::map_envelope`] performs before any solve.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvelopeSpecError {
    /// `lo`, `hi` or `tolerance` is NaN or infinite.
    NonFinite {
        /// The offending field's name.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// `lo > hi`: the interval is empty.
    EmptyInterval {
        /// Requested low end.
        lo: f64,
        /// Requested high end.
        hi: f64,
    },
    /// `tolerance ≤ 0`: bisection could never terminate.
    BadTolerance {
        /// Requested tolerance.
        tolerance: f64,
    },
}

impl fmt::Display for EnvelopeSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeSpecError::NonFinite { field, value } => {
                write!(f, "envelope {field} must be finite, got {value}")
            }
            EnvelopeSpecError::EmptyInterval { lo, hi } => {
                write!(f, "envelope interval is empty: lo {lo} > hi {hi}")
            }
            EnvelopeSpecError::BadTolerance { tolerance } => {
                write!(f, "envelope tolerance must be positive, got {tolerance}")
            }
        }
    }
}

impl std::error::Error for EnvelopeSpecError {}

/// Where one fiber's converged/runaway boundary landed.
#[derive(Debug, Clone, PartialEq)]
pub enum FiberBoundary {
    /// The boundary is bracketed: the solve converges at `converged`
    /// and runs away at `runaway`, with
    /// `runaway − converged ≤ tolerance`.
    Bracketed {
        /// Highest probed axis value that converged.
        converged: f64,
        /// Lowest probed axis value that ran away.
        runaway: f64,
    },
    /// Both endpoints converge: the boundary (if any) lies above `hi`.
    AllConverged,
    /// Both endpoints run away: the boundary (if any) lies below `lo`.
    AllRunaway,
    /// The low endpoint ran away while the high one converged — the
    /// fiber violates the monotone-runaway picture, so bisection would
    /// fabricate a bracket. Reported instead of guessed.
    NonMonotone,
    /// A probe ended in a state that classifies neither side
    /// (budget exhausted, bad power, or cancellation).
    Indeterminate,
}

impl FiberBoundary {
    /// Stable lower-case kind name for result lines.
    pub fn kind(&self) -> &'static str {
        match self {
            FiberBoundary::Bracketed { .. } => "bracketed",
            FiberBoundary::AllConverged => "all_converged",
            FiberBoundary::AllRunaway => "all_runaway",
            FiberBoundary::NonMonotone => "non_monotone",
            FiberBoundary::Indeterminate => "indeterminate",
        }
    }
}

/// One fiber of an envelope map: the fixed coordinates plus the located
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeFiber {
    /// The fiber's fixed coordinates. The swept axis's field holds the
    /// interval's `lo` endpoint (that coordinate varies along the
    /// fiber; see [`EnvelopeFiber::boundary`] for where it lands).
    pub scenario: Scenario,
    /// The fiber's classified boundary.
    pub boundary: FiberBoundary,
}

/// Result of [`SweepEngine::map_envelope`]: per-fiber boundaries plus
/// the audited solve budget.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeReport {
    /// The swept axis.
    pub axis: EnvelopeAxis,
    /// The requested bracket tolerance.
    pub tolerance: f64,
    /// One entry per fiber, in grid enumeration order of the non-swept
    /// axes (Vdd innermost, then activity, ambient, technology).
    pub fibers: Vec<EnvelopeFiber>,
    /// Picard solves actually spent (endpoint probes + midpoints) —
    /// the number the `envelope` bench gates against
    /// [`Self::exhaustive_solves`].
    pub solves: usize,
    /// Solves an exhaustive scan at the same resolution would spend:
    /// `fibers × (⌈(hi − lo)/tolerance⌉ + 1)` (one per grid point per
    /// fiber; 1 for a zero-width interval).
    pub exhaustive_solves: usize,
}

impl EnvelopeReport {
    /// Number of fibers.
    pub fn len(&self) -> usize {
        self.fibers.len()
    }

    /// Whether the fiber family is empty.
    pub fn is_empty(&self) -> bool {
        self.fibers.is_empty()
    }

    /// Fibers with a definite classification (everything but
    /// [`FiberBoundary::Indeterminate`]).
    pub fn resolved_count(&self) -> usize {
        self.fibers
            .iter()
            .filter(|f| !matches!(f.boundary, FiberBoundary::Indeterminate))
            .count()
    }

    /// Fibers whose boundary was bracketed to tolerance.
    pub fn bracketed_count(&self) -> usize {
        self.fibers
            .iter()
            .filter(|f| matches!(f.boundary, FiberBoundary::Bracketed { .. }))
            .count()
    }
}

/// Per-fiber bisection state between wavefront rounds.
enum FiberState {
    /// Boundary known to lie in `(lo, hi]`; next probe is the midpoint.
    Bisecting {
        lo: f64,
        hi: f64,
    },
    Done(FiberBoundary),
}

impl SweepEngine {
    /// Maps the converged/runaway boundary of `model` along one
    /// scenario axis, bisecting each fiber of `grid`'s remaining axes
    /// to `spec.tolerance` — see the [module docs](self) for the
    /// algorithm and cost model.
    ///
    /// `grid` contributes the fiber family (its values on the swept
    /// axis are ignored; a grid without an explicit ambient axis
    /// contributes the floorplan sink temperature, matching
    /// [`Self::sweep`]). `opts` composes the usual per-call knobs;
    /// every probe starts cold at its ambient. A fired
    /// [`CancelToken`](ptherm_par::CancelToken) leaves every unresolved
    /// fiber [`FiberBoundary::Indeterminate`].
    ///
    /// # Errors
    ///
    /// [`EnvelopeSpecError`] when the spec's interval is empty or any
    /// field is non-finite (no solves are spent on a bad spec).
    ///
    /// # Panics
    ///
    /// As [`Self::sweep`]: an explicitly spectral backend on a
    /// non-grid-coincident floorplan.
    pub fn map_envelope<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        spec: &EnvelopeSpec,
        opts: RunOptions<'_, Arc<ThermalOperator>>,
    ) -> Result<EnvelopeReport, EnvelopeSpecError> {
        for (field, value) in [
            ("lo", spec.lo),
            ("hi", spec.hi),
            ("tolerance", spec.tolerance),
        ] {
            if !value.is_finite() {
                return Err(EnvelopeSpecError::NonFinite { field, value });
            }
        }
        if spec.lo > spec.hi {
            return Err(EnvelopeSpecError::EmptyInterval {
                lo: spec.lo,
                hi: spec.hi,
            });
        }
        if spec.tolerance <= 0.0 {
            return Err(EnvelopeSpecError::BadTolerance {
                tolerance: spec.tolerance,
            });
        }

        let sink_k = self.solver().floorplan().geometry().sink_temperature;
        let axis = spec.axis;
        // The fiber family: every combination of the non-swept axes, in
        // grid enumeration order. The swept axis contributes exactly
        // one template entry (overwritten per probe below).
        let one = [spec.lo];
        let default_ambient = [sink_k];
        let vdd_axis: &[f64] = match axis {
            EnvelopeAxis::VddScale => &one,
            _ => grid.vdd_scale_values(),
        };
        let act_axis: &[f64] = match axis {
            EnvelopeAxis::Activity => &one,
            _ => grid.activity_values(),
        };
        let amb_axis: &[f64] = match axis {
            EnvelopeAxis::AmbientK => &one,
            _ => grid.ambient_values().unwrap_or(&default_ambient),
        };
        let mut templates: Vec<Scenario> = Vec::new();
        for tech_index in 0..grid.technologies().len() {
            for &ambient_k in amb_axis {
                for &activity in act_axis {
                    for &vdd_scale in vdd_axis {
                        let mut s = Scenario {
                            vdd_scale,
                            activity,
                            ambient_k,
                            tech_index,
                        };
                        axis.write(&mut s, spec.lo);
                        templates.push(s);
                    }
                }
            }
        }

        let width = spec.hi - spec.lo;
        // Spec validation guarantees hi >= lo, so a degenerate
        // interval subtracts to exactly +0.0 — bit identity, not an
        // epsilon question.
        let zero_width = width.to_bits() == 0;
        let points_per_fiber = if zero_width {
            1
        } else {
            (width / spec.tolerance).ceil() as usize + 1
        };
        let exhaustive_solves = templates.len() * points_per_fiber;

        let mut solves = 0usize;
        let mut states: Vec<FiberState> = Vec::with_capacity(templates.len());

        if zero_width {
            // Zero-width interval: one probe classifies each fiber.
            let probes: Vec<(usize, Scenario)> = templates.iter().cloned().enumerate().collect();
            let outcomes = self.solve_probes(grid, model, &probes, opts);
            solves += probes.len();
            for outcome in &outcomes {
                states.push(FiberState::Done(match outcome {
                    SweepOutcome::Converged { .. } => FiberBoundary::AllConverged,
                    SweepOutcome::Runaway { .. } => FiberBoundary::AllRunaway,
                    _ => FiberBoundary::Indeterminate,
                }));
            }
        } else {
            // Endpoint probes: both ends of every fiber in one batch.
            let mut probes: Vec<(usize, Scenario)> = Vec::with_capacity(2 * templates.len());
            for (fiber, template) in templates.iter().enumerate() {
                probes.push((fiber, template.clone()));
            }
            let lo_count = probes.len();
            for (fiber, template) in templates.iter().enumerate() {
                probes.push((fiber, template.clone()));
            }
            for (i, (_, s)) in probes.iter_mut().enumerate() {
                let value = if i < lo_count { spec.lo } else { spec.hi };
                axis.write(s, value);
            }
            let outcomes = self.solve_probes(grid, model, &probes, opts);
            solves += probes.len();
            for fiber in 0..templates.len() {
                let lo_out = &outcomes[fiber];
                let hi_out = &outcomes[lo_count + fiber];
                use SweepOutcome::{Converged, Runaway};
                states.push(match (lo_out, hi_out) {
                    (Converged { .. }, Runaway { .. }) => FiberState::Bisecting {
                        lo: spec.lo,
                        hi: spec.hi,
                    },
                    (Converged { .. }, Converged { .. }) => {
                        FiberState::Done(FiberBoundary::AllConverged)
                    }
                    (Runaway { .. }, Runaway { .. }) => FiberState::Done(FiberBoundary::AllRunaway),
                    (Runaway { .. }, Converged { .. }) => {
                        FiberState::Done(FiberBoundary::NonMonotone)
                    }
                    _ => FiberState::Done(FiberBoundary::Indeterminate),
                });
            }
        }

        // Wavefront bisection: one midpoint per unresolved fiber per
        // round, all rounds' probes batched through the same Picard
        // driver. Every fiber halves its bracket each round, so the
        // whole map takes ⌈log₂(width/tol)⌉ rounds.
        loop {
            let mut probes: Vec<(usize, Scenario)> = Vec::new();
            for (fiber, state) in states.iter_mut().enumerate() {
                if let FiberState::Bisecting { lo, hi } = state {
                    if *hi - *lo <= spec.tolerance {
                        *state = FiberState::Done(FiberBoundary::Bracketed {
                            converged: *lo,
                            runaway: *hi,
                        });
                        continue;
                    }
                    let mid = 0.5 * (*lo + *hi);
                    // Midpoint collapse onto an endpoint means the
                    // bracket is at floating-point resolution — finer
                    // than any positive tolerance reachable here.
                    if mid <= *lo || mid >= *hi {
                        *state = FiberState::Done(FiberBoundary::Bracketed {
                            converged: *lo,
                            runaway: *hi,
                        });
                        continue;
                    }
                    let mut s = templates[fiber].clone();
                    axis.write(&mut s, mid);
                    probes.push((fiber, s));
                }
            }
            if probes.is_empty() {
                break;
            }
            let outcomes = self.solve_probes(grid, model, &probes, opts);
            solves += probes.len();
            for ((fiber, probe), outcome) in probes.iter().zip(&outcomes) {
                let FiberState::Bisecting { lo, hi } = &mut states[*fiber] else {
                    continue;
                };
                let mid = match axis {
                    EnvelopeAxis::VddScale => probe.vdd_scale,
                    EnvelopeAxis::Activity => probe.activity,
                    EnvelopeAxis::AmbientK => probe.ambient_k,
                };
                match outcome {
                    SweepOutcome::Converged { .. } => *lo = mid,
                    SweepOutcome::Runaway { .. } => *hi = mid,
                    _ => states[*fiber] = FiberState::Done(FiberBoundary::Indeterminate),
                }
            }
        }

        let fibers = templates
            .into_iter()
            .zip(states)
            .map(|(scenario, state)| EnvelopeFiber {
                scenario,
                boundary: match state {
                    FiberState::Done(boundary) => boundary,
                    // Unreachable by construction (the loop above only
                    // exits with every state Done), but a typed value
                    // beats a panic in a worker-facing API.
                    FiberState::Bisecting { lo, hi } => FiberBoundary::Bracketed {
                        converged: lo,
                        runaway: hi,
                    },
                },
            })
            .collect();
        Ok(EnvelopeReport {
            axis,
            tolerance: spec.tolerance,
            fibers,
            solves,
            exhaustive_solves,
        })
    }

    /// Runs one wavefront's probes through the batched Picard driver,
    /// returning outcomes in probe order.
    fn solve_probes<M: ScenarioPowerModel>(
        &self,
        grid: &ScenarioGrid,
        model: &M,
        probes: &[(usize, Scenario)],
        opts: RunOptions<'_, Arc<ThermalOperator>>,
    ) -> Vec<SweepOutcome> {
        let techs = grid.technologies();
        let report = self.run_batched(
            probes.len(),
            |id| probes[id].1.ambient_k,
            |_| {
                Box::new(FnBatchPower::new(|id: usize, block: usize, t: f64| {
                    let s = &probes[id].1;
                    model.block_power(s, &techs[s.tech_index], block, t)
                }))
            },
            opts.cancel,
            opts.operator,
            None,
        );
        report.outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptherm_floorplan::Floorplan;
    use ptherm_par::CancelToken;
    use ptherm_tech::Technology;

    fn engine() -> SweepEngine {
        // Bisection probes land ever closer to the boundary, where
        // Picard slows critically; a raised iteration budget keeps
        // near-boundary probes classifiable instead of Indeterminate.
        SweepEngine::new(Floorplan::paper_three_blocks())
            .threads(2)
            .configure(|s| s.max_iterations = 2000)
    }

    fn spec(lo: f64, hi: f64, tol: f64) -> EnvelopeSpec {
        EnvelopeSpec {
            axis: EnvelopeAxis::VddScale,
            lo,
            hi,
            tolerance: tol,
        }
    }

    /// Activity × ambient fiber family (the Vdd axis values are
    /// ignored by a Vdd-axis envelope).
    fn fiber_grid() -> ScenarioGrid {
        ScenarioGrid::new(vec![Technology::cmos_120nm()])
            .activities(vec![0.5, 1.0])
            .ambients_k(vec![300.0, 330.0])
    }

    #[test]
    fn rejects_bad_specs_with_typed_errors() {
        let engine = engine();
        let grid = fiber_grid();
        let power = engine.uniform_tech_power(1.0, 0.1);
        assert_eq!(
            engine.map_envelope(&grid, &power, &spec(2.0, 1.0, 0.1), RunOptions::new()),
            Err(EnvelopeSpecError::EmptyInterval { lo: 2.0, hi: 1.0 })
        );
        assert_eq!(
            engine.map_envelope(&grid, &power, &spec(1.0, 2.0, 0.0), RunOptions::new()),
            Err(EnvelopeSpecError::BadTolerance { tolerance: 0.0 })
        );
        let bad = engine.map_envelope(&grid, &power, &spec(f64::NAN, 2.0, 0.1), RunOptions::new());
        assert!(matches!(
            bad,
            Err(EnvelopeSpecError::NonFinite { field: "lo", .. })
        ));
    }

    #[test]
    fn brackets_the_runaway_boundary_on_every_monotone_fiber() {
        let engine = engine();
        let grid = fiber_grid();
        let power = engine.uniform_tech_power(1.0, 0.1);
        let report = engine
            .map_envelope(&grid, &power, &spec(0.5, 4.0, 0.01), RunOptions::new())
            .unwrap();
        assert_eq!(report.len(), 4);
        assert_eq!(report.bracketed_count(), 4, "{:?}", report.fibers);
        for fiber in &report.fibers {
            let FiberBoundary::Bracketed { converged, runaway } = &fiber.boundary else {
                panic!("expected bracket, got {:?}", fiber.boundary);
            };
            assert!(runaway - converged <= 0.01 + 1e-12);
            assert!(*converged >= 0.5 && *runaway <= 4.0);
        }
        assert!(
            report.solves < report.exhaustive_solves / 4,
            "bisection spent {} of exhaustive {}",
            report.solves,
            report.exhaustive_solves
        );
    }

    #[test]
    fn brackets_agree_with_an_exhaustive_fine_grid_oracle() {
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]).activities(vec![1.0]);
        let power = engine.uniform_tech_power(1.0, 0.1);
        let (lo, hi, tol) = (0.5, 4.0, 0.05);
        let report = engine
            .map_envelope(&grid, &power, &spec(lo, hi, tol), RunOptions::new())
            .unwrap();
        let FiberBoundary::Bracketed { converged, runaway } = report.fibers[0].boundary else {
            panic!("expected bracket, got {:?}", report.fibers[0].boundary);
        };
        // Exhaustive oracle: scan the interval at the same resolution;
        // the last converged and first runaway grid points must agree
        // with the bracket on both sides.
        let steps = ((hi - lo) / tol).ceil() as usize;
        let values: Vec<f64> = (0..=steps)
            .map(|i| lo + (hi - lo) * i as f64 / steps as f64)
            .collect();
        let scan = engine.sweep(
            &ScenarioGrid::new(vec![Technology::cmos_120nm()]).vdd_scales(values.clone()),
            &power,
            RunOptions::new(),
        );
        let last_converged = values
            .iter()
            .zip(&scan.outcomes)
            .filter(|(_, o)| matches!(o, SweepOutcome::Converged { .. }))
            .map(|(v, _)| *v)
            .next_back()
            .unwrap();
        let first_runaway = values
            .iter()
            .zip(&scan.outcomes)
            .find(|(_, o)| matches!(o, SweepOutcome::Runaway { .. }))
            .map(|(v, _)| *v)
            .unwrap();
        // Grid step and bracket tolerance are both `tol`, so the
        // oracle's boundary points and the bisected bracket can differ
        // by at most one step on each side.
        assert!(
            (converged - last_converged).abs() <= tol + 1e-12,
            "converged side: bisected {converged} vs oracle {last_converged}"
        );
        assert!(
            (runaway - first_runaway).abs() <= tol + 1e-12,
            "runaway side: bisected {runaway} vs oracle {first_runaway}"
        );
    }

    #[test]
    fn all_converged_and_all_runaway_axes_classify_without_bisection() {
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]).activities(vec![0.5, 1.0]);
        let power = engine.uniform_tech_power(1.0, 0.1);
        let calm = engine
            .map_envelope(&grid, &power, &spec(0.1, 0.5, 0.01), RunOptions::new())
            .unwrap();
        assert!(calm
            .fibers
            .iter()
            .all(|f| f.boundary == FiberBoundary::AllConverged));
        assert_eq!(calm.solves, 4, "two endpoint probes per fiber, no rounds");
        let hot = engine
            .map_envelope(&grid, &power, &spec(8.0, 9.0, 0.01), RunOptions::new())
            .unwrap();
        assert!(hot
            .fibers
            .iter()
            .all(|f| f.boundary == FiberBoundary::AllRunaway));
        assert_eq!(hot.solves, 4);
    }

    #[test]
    fn zero_width_interval_probes_once_per_fiber() {
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]).activities(vec![0.5, 1.0]);
        let power = engine.uniform_tech_power(1.0, 0.1);
        let report = engine
            .map_envelope(&grid, &power, &spec(1.0, 1.0, 0.01), RunOptions::new())
            .unwrap();
        assert_eq!(report.len(), 2);
        assert_eq!(report.solves, 2);
        assert_eq!(report.exhaustive_solves, 2);
        assert!(report
            .fibers
            .iter()
            .all(|f| f.boundary == FiberBoundary::AllConverged));
    }

    #[test]
    fn non_monotone_fiber_returns_a_typed_diagnostic_not_a_bracket() {
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()]);
        // A power law that *decreases* with vdd_scale: runaway at the
        // low end, converged at the high end — upside down relative to
        // the monotone assumption.
        let power = |s: &Scenario, _tech: &Technology, _block: usize, _t: f64| -> f64 {
            2.0 / (s.vdd_scale * s.vdd_scale)
        };
        let report = engine
            .map_envelope(&grid, &power, &spec(0.2, 5.0, 0.01), RunOptions::new())
            .unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report.fibers[0].boundary, FiberBoundary::NonMonotone);
        assert_eq!(report.solves, 2, "no bisection rounds on a refused fiber");
    }

    #[test]
    fn cancelled_probes_surface_as_indeterminate_fibers() {
        let engine = engine();
        let grid = fiber_grid();
        let power = engine.uniform_tech_power(1.0, 0.1);
        let token = CancelToken::new();
        token.cancel();
        let report = engine
            .map_envelope(
                &grid,
                &power,
                &spec(0.5, 4.0, 0.01),
                RunOptions::new().cancel(&token),
            )
            .unwrap();
        assert_eq!(report.len(), 4);
        assert_eq!(report.resolved_count(), 0);
        assert!(report
            .fibers
            .iter()
            .all(|f| f.boundary == FiberBoundary::Indeterminate));
    }

    #[test]
    fn fiber_count_is_the_product_of_the_other_axes() {
        let engine = engine();
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()])
            .vdd_scales(vec![0.9, 1.0, 1.1])
            .activities(vec![0.25, 0.5, 1.0])
            .ambients_k(vec![300.0, 330.0]);
        let power = engine.uniform_tech_power(1.0, 0.1);
        // Vdd axis swept: fibers = activities × ambients (the grid's
        // three Vdd values are ignored).
        let report = engine
            .map_envelope(&grid, &power, &spec(0.5, 4.0, 0.1), RunOptions::new())
            .unwrap();
        assert_eq!(report.len(), 6);
        // Activity axis swept: fibers = vdds × ambients.
        let report = engine
            .map_envelope(
                &grid,
                &power,
                &EnvelopeSpec {
                    axis: EnvelopeAxis::Activity,
                    lo: 0.1,
                    hi: 8.0,
                    tolerance: 0.1,
                },
                RunOptions::new(),
            )
            .unwrap();
        assert_eq!(report.len(), 6);
    }
}
