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
//! each fiber until its bracket is narrower than the requested
//! tolerance.
//!
//! # One streamed panel
//!
//! Every probe runs through the same GEMM-batched Picard driver as an
//! ordinary sweep, with power evaluated by the model's own batched
//! adapter ([`ScenarioPowerModel::batched`], e.g. the constant-folded
//! `expv` form of [`ScaledTechPower`](crate::cosim::sweep::ScaledTechPower)).
//! A per-fiber planner is that one drive's source and sink:
//!
//! * every fiber's two endpoint probes are issued first (one probe per
//!   fiber for a zero-width interval);
//! * when a fiber's probe retires, its next midpoint is queued and
//!   loads into a free lane at the next Picard step, usually the lane
//!   that probe vacated;
//! * while every open fiber has a probe in flight the source yields
//!   nothing, and the drive polls it again as lanes free up;
//! * whenever the source yields nothing and at most half the lanes are
//!   live, the panel narrows to the live count (see
//!   [`crate::cosim::batch`]), so it follows the fibers still open.
//!
//! So a probe parked near the fold, where Picard slows critically, holds
//! one lane while other fibers keep bisecting around it; there is no
//! per-round barrier. Each fiber's probe values, cold starts and stop
//! rule depend only on its own earlier verdicts, so the report is
//! independent of thread count, batch width and scheduling.
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

use crate::cosim::batch::LaneStart;
use crate::cosim::sweep::{
    Scenario, ScenarioGrid, ScenarioLookup, ScenarioPowerModel, SweepEngine, SweepOutcome,
};
use crate::cosim::RunOptions;
use crate::cosim::ThermalOperator;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// How one probe classified its axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Converged,
    Runaway,
    /// Budget exhausted, bad power or cancelled: classifies neither
    /// side.
    Neither,
}

impl Verdict {
    fn of(outcome: &SweepOutcome) -> Self {
        match outcome {
            SweepOutcome::Converged { .. } => Verdict::Converged,
            SweepOutcome::Runaway { .. } => Verdict::Runaway,
            _ => Verdict::Neither,
        }
    }
}

/// Per-fiber bisection state.
enum FiberState {
    /// Endpoint probes issued or queued; the verdicts of those back.
    Endpoints {
        lo: Option<Verdict>,
        hi: Option<Verdict>,
    },
    /// Boundary known to lie in `(lo, hi]`; the next midpoint is queued
    /// or in flight.
    Bisecting {
        lo: f64,
        hi: f64,
    },
    Done(FiberBoundary),
}

/// One issued probe: its fiber, axis value and full scenario. Its
/// index in [`Planner::probes`] is the lane id the driver echoes back.
struct Probe {
    fiber: usize,
    value: f64,
    scenario: Scenario,
}

/// The per-fiber bisection planner: source ([`Self::next_probe`]) and
/// sink ([`Self::retire`]) of the one batched drive behind
/// [`SweepEngine::map_envelope`] (see the [module docs](self)).
///
/// Every endpoint probe is issued before any midpoint, in fiber order
/// (`lo` then `hi`, or one probe per fiber for a zero-width interval),
/// so probe ids `0..endpoint_probes` are the endpoints and an endpoint's
/// side is its id's parity.
struct Planner {
    spec: EnvelopeSpec,
    /// One probe per fiber instead of two: `hi == lo`.
    zero_width: bool,
    templates: Vec<Scenario>,
    states: Vec<FiberState>,
    /// Endpoint probes issued so far.
    endpoints_issued: usize,
    /// Fibers whose bracket awaits its next midpoint, in the order
    /// their last probe retired.
    ready: VecDeque<usize>,
    /// Every probe issued, by lane id.
    probes: Vec<Probe>,
}

impl Planner {
    fn new(spec: EnvelopeSpec, zero_width: bool, templates: Vec<Scenario>) -> Self {
        let states = templates
            .iter()
            .map(|_| FiberState::Endpoints { lo: None, hi: None })
            .collect();
        Planner {
            spec,
            zero_width,
            templates,
            states,
            endpoints_issued: 0,
            ready: VecDeque::new(),
            probes: Vec::new(),
        }
    }

    /// Endpoint probes per fiber.
    fn endpoints_per_fiber(&self) -> usize {
        if self.zero_width {
            1
        } else {
            2
        }
    }

    /// Total endpoint probes: also the most probes ever in flight.
    fn endpoint_probes(&self) -> usize {
        self.templates.len() * self.endpoints_per_fiber()
    }

    /// The next probe to load into a free lane: an endpoint while any
    /// remains, else the midpoint of the fiber that has waited longest.
    /// `None` while every open fiber has a probe in flight (or none is
    /// open).
    fn next_probe(&mut self) -> Option<LaneStart> {
        if self.endpoints_issued < self.endpoint_probes() {
            let k = self.endpoints_issued;
            self.endpoints_issued += 1;
            let per = self.endpoints_per_fiber();
            let value = if k.is_multiple_of(per) {
                self.spec.lo
            } else {
                self.spec.hi
            };
            return Some(self.issue(k / per, value));
        }
        while let Some(fiber) = self.ready.pop_front() {
            let FiberState::Bisecting { lo, hi } = self.states[fiber] else {
                continue;
            };
            let mid = 0.5 * (lo + hi);
            // Stop once the bracket is within tolerance, or when the
            // midpoint collapses onto an endpoint: the bracket is then
            // at floating-point resolution, finer than any positive
            // tolerance reachable here.
            if hi - lo <= self.spec.tolerance || mid <= lo || mid >= hi {
                self.states[fiber] = FiberState::Done(FiberBoundary::Bracketed {
                    converged: lo,
                    runaway: hi,
                });
                continue;
            }
            return Some(self.issue(fiber, mid));
        }
        None
    }

    fn issue(&mut self, fiber: usize, value: f64) -> LaneStart {
        let mut scenario = self.templates[fiber].clone();
        self.spec.axis.write(&mut scenario, value);
        let start = LaneStart::cold(self.probes.len(), scenario.ambient_k);
        self.probes.push(Probe {
            fiber,
            value,
            scenario,
        });
        start
    }

    /// The scenario behind probe `id`, for the batched power model.
    fn scenario(&self, id: usize) -> Scenario {
        self.probes[id].scenario.clone()
    }

    /// Folds probe `id`'s outcome into its fiber and queues the fiber's
    /// next midpoint when it has one.
    fn retire(&mut self, id: usize, outcome: &SweepOutcome) {
        let verdict = Verdict::of(outcome);
        let Probe { fiber, value, .. } = self.probes[id];
        let state = &mut self.states[fiber];
        match state {
            FiberState::Endpoints { .. } if self.zero_width => {
                *state = FiberState::Done(match verdict {
                    Verdict::Converged => FiberBoundary::AllConverged,
                    Verdict::Runaway => FiberBoundary::AllRunaway,
                    Verdict::Neither => FiberBoundary::Indeterminate,
                });
            }
            FiberState::Endpoints { lo, hi } => {
                if id.is_multiple_of(2) {
                    *lo = Some(verdict);
                } else {
                    *hi = Some(verdict);
                }
                let (Some(lo), Some(hi)) = (*lo, *hi) else {
                    return;
                };
                use Verdict::{Converged, Runaway};
                *state = match (lo, hi) {
                    (Converged, Runaway) => FiberState::Bisecting {
                        lo: self.spec.lo,
                        hi: self.spec.hi,
                    },
                    (Converged, Converged) => FiberState::Done(FiberBoundary::AllConverged),
                    (Runaway, Runaway) => FiberState::Done(FiberBoundary::AllRunaway),
                    (Runaway, Converged) => FiberState::Done(FiberBoundary::NonMonotone),
                    _ => FiberState::Done(FiberBoundary::Indeterminate),
                };
            }
            FiberState::Bisecting { lo, hi } => match verdict {
                Verdict::Converged => *lo = value,
                Verdict::Runaway => *hi = value,
                Verdict::Neither => *state = FiberState::Done(FiberBoundary::Indeterminate),
            },
            FiberState::Done(_) => return,
        }
        if matches!(self.states[fiber], FiberState::Bisecting { .. }) {
            self.ready.push_back(fiber);
        }
    }

    /// The report: a fiber left unresolved (possible only when a
    /// cancellation stopped the drive) is
    /// [`FiberBoundary::Indeterminate`].
    fn report(self, exhaustive_solves: usize) -> EnvelopeReport {
        let fibers = self
            .templates
            .into_iter()
            .zip(self.states)
            .map(|(scenario, state)| EnvelopeFiber {
                scenario,
                boundary: match state {
                    FiberState::Done(boundary) => boundary,
                    _ => FiberBoundary::Indeterminate,
                },
            })
            .collect();
        EnvelopeReport {
            axis: self.spec.axis,
            tolerance: self.spec.tolerance,
            fibers,
            solves: self.probes.len(),
            exhaustive_solves,
        }
    }
}

/// Locks the planner. Its methods are plain arithmetic and in-range
/// indexing, and a worker that panics in its power model never holds
/// the lock (the planner is only touched between Picard steps), so a
/// poisoned lock still guards a consistent planner; the scoped workers
/// re-raise that panic when the drive ends in any case.
fn lock(planner: &Mutex<Planner>) -> MutexGuard<'_, Planner> {
    planner.lock().unwrap_or_else(PoisonError::into_inner)
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
        // one template entry (overwritten per probe).
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
                        templates.push(Scenario {
                            vdd_scale,
                            activity,
                            ambient_k,
                            tech_index,
                        });
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

        let planner = Planner::new(*spec, zero_width, templates);
        let max_in_flight = planner.endpoint_probes();
        let planner = Mutex::new(planner);
        let scenario_of = |id| lock(&planner).scenario(id);
        let scenarios = ScenarioLookup {
            scenario: &scenario_of,
            technologies: grid.technologies(),
        };
        self.drive_batched(
            max_in_flight,
            |lanes| model.batched(scenarios, lanes),
            opts.cancel,
            opts.operator,
            &|| lock(&planner).next_probe(),
            &|id, outcome| lock(&planner).retire(id, &outcome),
        );
        let planner = planner.into_inner().unwrap_or_else(PoisonError::into_inner);
        Ok(planner.report(exhaustive_solves))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::sweep::ScaledTechPower;
    use crate::cosim::{BiasedTechPower, SweepBackend};
    use ptherm_floorplan::{Block, ChipGeometry, Floorplan};
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

    /// A 16-block grid-coincident die, so both backends can run it.
    fn tile_plan() -> Floorplan {
        ptherm_floorplan::generator::tile_aligned(ChipGeometry::paper_1mm(), 4, 4, |_| 0.01)
            .expect("aligned tiling is valid")
    }

    /// The sequential oracle: every fiber bisected one probe at a time,
    /// each probe classified by a one-scenario [`SweepEngine::sweep`].
    fn sequential_oracle<M: ScenarioPowerModel>(
        engine: &SweepEngine,
        grid: &ScenarioGrid,
        model: &M,
        spec: &EnvelopeSpec,
    ) -> EnvelopeReport {
        use SweepOutcome::{Converged, Runaway};
        let sink_k = engine.solver().floorplan().geometry().sink_temperature;
        let probe = |template: &Scenario, value: f64| {
            let mut s = template.clone();
            spec.axis.write(&mut s, value);
            let one = ScenarioGrid::new(grid.technologies().to_vec())
                .vdd_scales(vec![s.vdd_scale])
                .activities(vec![s.activity])
                .ambients_k(vec![s.ambient_k]);
            let mut report = engine.sweep(&one, model, RunOptions::new());
            report.outcomes.swap_remove(s.tech_index)
        };
        let swept = |axis: EnvelopeAxis, values: &[f64]| -> Vec<f64> {
            if axis == spec.axis {
                vec![spec.lo]
            } else {
                values.to_vec()
            }
        };
        let ambients = grid.ambient_values().map_or(vec![sink_k], <[f64]>::to_vec);
        let mut fibers = Vec::new();
        let mut solves = 0;
        for tech_index in 0..grid.technologies().len() {
            for ambient_k in swept(EnvelopeAxis::AmbientK, &ambients) {
                for activity in swept(EnvelopeAxis::Activity, grid.activity_values()) {
                    for vdd_scale in swept(EnvelopeAxis::VddScale, grid.vdd_scale_values()) {
                        let template = Scenario {
                            vdd_scale,
                            activity,
                            ambient_k,
                            tech_index,
                        };
                        let boundary = if spec.lo == spec.hi {
                            solves += 1;
                            match probe(&template, spec.lo) {
                                Converged { .. } => FiberBoundary::AllConverged,
                                Runaway { .. } => FiberBoundary::AllRunaway,
                                _ => FiberBoundary::Indeterminate,
                            }
                        } else {
                            solves += 2;
                            match (probe(&template, spec.lo), probe(&template, spec.hi)) {
                                (Converged { .. }, Runaway { .. }) => {
                                    let (mut lo, mut hi) = (spec.lo, spec.hi);
                                    loop {
                                        let mid = 0.5 * (lo + hi);
                                        if hi - lo <= spec.tolerance || mid <= lo || mid >= hi {
                                            break FiberBoundary::Bracketed {
                                                converged: lo,
                                                runaway: hi,
                                            };
                                        }
                                        solves += 1;
                                        match probe(&template, mid) {
                                            Converged { .. } => lo = mid,
                                            Runaway { .. } => hi = mid,
                                            _ => break FiberBoundary::Indeterminate,
                                        }
                                    }
                                }
                                (Converged { .. }, Converged { .. }) => FiberBoundary::AllConverged,
                                (Runaway { .. }, Runaway { .. }) => FiberBoundary::AllRunaway,
                                (Runaway { .. }, Converged { .. }) => FiberBoundary::NonMonotone,
                                _ => FiberBoundary::Indeterminate,
                            }
                        };
                        fibers.push(EnvelopeFiber {
                            scenario: template,
                            boundary,
                        });
                    }
                }
            }
        }
        let points = if spec.lo == spec.hi {
            1
        } else {
            ((spec.hi - spec.lo) / spec.tolerance).ceil() as usize + 1
        };
        EnvelopeReport {
            axis: spec.axis,
            tolerance: spec.tolerance,
            exhaustive_solves: fibers.len() * points,
            fibers,
            solves,
        }
    }

    /// A Vdd-axis and an ambient-axis spec, each with the fiber family
    /// its grid leaves. Between them they hold bracketed, all-converged
    /// and budget-exhausted (indeterminate) fibers; the oracle test
    /// asserts all three occur.
    fn oracle_cases() -> Vec<(ScenarioGrid, EnvelopeSpec)> {
        let tech = || vec![Technology::cmos_120nm()];
        vec![
            (
                ScenarioGrid::new(tech())
                    .activities(vec![0.1, 1.0])
                    .ambients_k(vec![300.0, 340.0]),
                EnvelopeSpec {
                    axis: EnvelopeAxis::VddScale,
                    lo: 0.5,
                    hi: 3.0,
                    tolerance: 0.02,
                },
            ),
            (
                ScenarioGrid::new(tech())
                    .vdd_scales(vec![0.6, 1.2])
                    .activities(vec![0.1, 1.0]),
                EnvelopeSpec {
                    axis: EnvelopeAxis::AmbientK,
                    lo: 280.0,
                    hi: 520.0,
                    tolerance: 2.0,
                },
            ),
        ]
    }

    /// The engine under test: 16 tiles, and an iteration budget low
    /// enough that probes parked at the fold exhaust it.
    fn oracle_engine(backend: SweepBackend, threads: usize, lanes: usize) -> SweepEngine {
        SweepEngine::new(tile_plan())
            .backend(backend)
            .threads(threads)
            .batch_lanes(lanes)
            .configure(|s| s.max_iterations = 120)
    }

    /// Asserts `model`'s envelope on every oracle case equals the
    /// sequential oracle at threads {1, 2} × lanes {1, 3, 64}; returns
    /// the fiber kinds seen.
    fn assert_matches_oracle<M: ScenarioPowerModel>(
        backend: SweepBackend,
        model: &M,
    ) -> Vec<&'static str> {
        let sequential = oracle_engine(backend, 1, 1);
        let mut kinds = Vec::new();
        for (grid, spec) in oracle_cases() {
            let want = sequential_oracle(&sequential, &grid, model, &spec);
            for threads in [1, 2] {
                for lanes in [1, 3, 64] {
                    let got = oracle_engine(backend, threads, lanes)
                        .map_envelope(&grid, model, &spec, RunOptions::new())
                        .unwrap();
                    assert_eq!(
                        got, want,
                        "{backend} {} threads {threads} lanes {lanes}",
                        spec.axis
                    );
                }
            }
            kinds.extend(want.fibers.iter().map(|f| f.boundary.kind()));
        }
        kinds
    }

    #[test]
    fn streamed_bisection_equals_the_sequential_one_probe_oracle() {
        let mut kinds = Vec::new();
        for backend in [SweepBackend::Dense, SweepBackend::Spectral] {
            let scaled = ScaledTechPower::area_weighted(&tile_plan(), 3.0, 0.3);
            kinds.extend(assert_matches_oracle(backend, &scaled));
            kinds.extend(assert_matches_oracle(
                backend,
                &BiasedTechPower::new(scaled, 60.0),
            ));
        }
        for kind in ["bracketed", "all_converged", "indeterminate"] {
            assert!(kinds.contains(&kind), "no {kind} fiber in {kinds:?}");
        }
    }

    #[test]
    fn a_mid_run_cancel_leaves_each_fiber_at_its_boundary_or_indeterminate() {
        let (grid, spec) = oracle_cases().swap_remove(0);
        for threads in [1, 2] {
            let engine = oracle_engine(SweepBackend::Dense, threads, 64);
            let power = engine.uniform_tech_power(3.0, 0.3);
            let full = engine
                .map_envelope(&grid, &power, &spec, RunOptions::new())
                .unwrap();
            let mut partial = false;
            for checks in [0, 3, 25, 80, 200, 400] {
                let token = CancelToken::after_checks(checks);
                let cut = engine
                    .map_envelope(&grid, &power, &spec, RunOptions::new().cancel(&token))
                    .unwrap();
                assert_eq!(cut.len(), full.len());
                for (got, want) in cut.fibers.iter().zip(&full.fibers) {
                    assert_eq!(got.scenario, want.scenario);
                    assert!(
                        got.boundary == want.boundary
                            || got.boundary == FiberBoundary::Indeterminate,
                        "threads {threads} checks {checks}: {:?} vs {:?}",
                        got.boundary,
                        want.boundary
                    );
                }
                let resolved = cut.resolved_count();
                partial |= resolved > 0 && resolved < full.resolved_count();
            }
            assert!(partial, "threads {threads}: some cut lands mid-run");
            let never = CancelToken::after_checks(u64::MAX);
            let uncut = engine
                .map_envelope(&grid, &power, &spec, RunOptions::new().cancel(&never))
                .unwrap();
            assert_eq!(
                uncut, full,
                "threads {threads}: an unfired token is invisible"
            );
        }
    }

    /// One block with `P = P_d + s·L*·e^{(T − T_a)/θ}`: the fixed point
    /// `u = T − T_a` solves `u = R·P(u)`, and its saddle-node fold (where
    /// also `R·∂P/∂T = 1`) sits at `L* = θ·e^{−1−R·P_d/θ}/R`, i.e. at
    /// `vdd_scale` s = 1 exactly. Power goes through the default scalar
    /// adapter (a plain closure).
    fn fold_bracket(p_d: f64, theta: f64, tolerance: f64) -> FiberBoundary {
        let plan = Floorplan::new(
            ChipGeometry::paper_1mm(),
            vec![Block::new("b0", 0.5e-3, 0.5e-3, 0.4e-3, 0.4e-3, 0.0)],
        )
        .expect("valid plan");
        let engine = SweepEngine::new(plan)
            .threads(1)
            .configure(|s| s.max_iterations = 20_000);
        let r = engine.operator().influence()[(0, 0)];
        let l_star = theta * (-1.0 - r * p_d / theta).exp() / r;
        let power = move |s: &Scenario, _: &Technology, _: usize, t: f64| {
            p_d + s.vdd_scale * l_star * ((t - s.ambient_k) / theta).exp()
        };
        let report = engine
            .map_envelope(
                &ScenarioGrid::new(vec![Technology::cmos_120nm()]),
                &power,
                // [0.5, 2] never probes s = 1 itself: the midpoints are
                // 0.5 + 1.5·k/2ⁿ, and 1/3 is no dyadic fraction.
                &spec(0.5, 2.0, tolerance),
                RunOptions::new(),
            )
            .unwrap();
        report.fibers[0].boundary.clone()
    }

    #[test]
    fn the_closed_form_fold_lies_inside_the_bracket() {
        for (p_d, theta) in [(0.05, 20.0), (0.2, 30.0), (0.5, 50.0)] {
            for tolerance in [1e-2, 1e-3] {
                let boundary = fold_bracket(p_d, theta, tolerance);
                let FiberBoundary::Bracketed { converged, runaway } = boundary else {
                    panic!("P_d {p_d}, θ {theta}, tol {tolerance}: {boundary:?}");
                };
                assert!(
                    converged < 1.0 && 1.0 < runaway && runaway - converged <= tolerance,
                    "P_d {p_d}, θ {theta}, tol {tolerance}: ({converged}, {runaway}]"
                );
            }
        }
    }

    /// Below 1e-3 the 1 mK step rule reports `Converged` for a probe
    /// passing slowly through the fold's ghost (s slightly above 1,
    /// where no fixed point exists): (0.05 W, 20 K) at tolerance 1e-4
    /// brackets (1.000061, 1.000153].
    #[test]
    #[ignore = "ROADMAP item 5: the step-size stop rule is no error bound near the fold"]
    fn the_closed_form_fold_lies_inside_a_1e4_bracket() {
        let boundary = fold_bracket(0.05, 20.0, 1e-4);
        let FiberBoundary::Bracketed { converged, runaway } = boundary else {
            panic!("{boundary:?}");
        };
        assert!(converged < 1.0 && 1.0 < runaway, "({converged}, {runaway}]");
    }
}
