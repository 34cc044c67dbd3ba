//! Property validation of seeded batched Picard
//! ([`SweepEngine::sweep_seeded`]) against the cold oracle
//! ([`SweepEngine::sweep`]). Every scenario is seeded from its own fixed
//! point under a lower power budget — a seed between ambient and the
//! true fixed point, the shape the fleet's `delta` jobs hand the engine.
//! On randomized grids the seeded sweep must converge to the **same
//! fixed points** (≤ 1e-9 K), classify every scenario with the **same
//! outcome kind**, and spend **no more Picard iterations** than a cold
//! start on any converged lane, while staying bitwise invariant across
//! thread counts and batch widths — on the dense and the spectral
//! backend alike.

use proptest::prelude::*;
use ptherm::floorplan::{generator, ChipGeometry, Floorplan};
use ptherm::model::cosim::{
    RunOptions, ScenarioGrid, SweepBackend, SweepEngine, SweepOutcome, SweepReport,
};
use ptherm::tech::Technology;

/// The tiled floorplan is grid-coincident, so the spectral backend is
/// exercised for real.
const BACKENDS: [SweepBackend; 2] = [SweepBackend::Dense, SweepBackend::Spectral];

fn plan() -> Floorplan {
    generator::tiled(ChipGeometry::paper_1mm(), 2, 2, 0.01, 0.05, 7).expect("valid tiling")
}

/// An engine with the Picard loop tightened far below the seeded/cold
/// agreement tolerance, so 1e-9 K disagreement would be a real bug,
/// not truncation noise.
fn engine(backend: SweepBackend, threads: usize, lanes: usize) -> SweepEngine {
    SweepEngine::new(plan())
        .backend(backend)
        .threads(threads)
        .batch_lanes(lanes)
        .configure(|s| {
            s.tolerance_k = 1e-10;
            s.max_iterations = 5000;
        })
}

/// A sorted ascending axis.
fn axis(range: std::ops::Range<f64>, len: std::ops::Range<usize>) -> BoxedStrategy<Vec<f64>> {
    proptest::collection::vec(range, len)
        .prop_map(|mut v| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v.dedup();
            v
        })
        .boxed()
}

fn grid(vdd: Vec<f64>, act: Vec<f64>, amb: Vec<f64>) -> ScenarioGrid {
    ScenarioGrid::new(vec![Technology::cmos_120nm()])
        .vdd_scales(vdd)
        .activities(act)
        .ambients_k(amb)
}

/// Converged iteration count, or `None` for every other outcome.
fn iterations(outcome: &SweepOutcome) -> Option<usize> {
    match outcome {
        SweepOutcome::Converged { iterations, .. } => Some(*iterations),
        _ => None,
    }
}

fn kind(outcome: &SweepOutcome) -> &'static str {
    match outcome {
        SweepOutcome::Converged { .. } => "converged",
        SweepOutcome::Runaway { .. } => "runaway",
        SweepOutcome::NotConverged { .. } => "not_converged",
        SweepOutcome::BadPower { .. } => "bad_power",
        SweepOutcome::Cancelled { .. } => "cancelled",
    }
}

/// The fixed points of a cold sweep of `grid` with both power budgets
/// scaled by `base_frac` < 1: each one lies between its scenario's
/// ambient and the full-budget fixed point. `None` where the base did
/// not converge (that lane then starts cold).
fn base_seeds(
    engine: &SweepEngine,
    grid: &ScenarioGrid,
    dynamic_w: f64,
    leakage_w: f64,
    base_frac: f64,
) -> Vec<Option<Vec<f64>>> {
    let base = engine.uniform_tech_power(dynamic_w * base_frac, leakage_w * base_frac);
    engine
        .sweep(grid, &base, RunOptions::new())
        .outcomes
        .into_iter()
        .map(|outcome| match outcome {
            SweepOutcome::Converged {
                block_temperatures, ..
            } => Some(block_temperatures),
            _ => None,
        })
        .collect()
}

/// The full-budget sweep of `grid`, each scenario seeded from `seeds`.
fn seeded(
    engine: &SweepEngine,
    grid: &ScenarioGrid,
    dynamic_w: f64,
    leakage_w: f64,
    seeds: &[Option<Vec<f64>>],
) -> SweepReport {
    let model = engine.uniform_tech_power(dynamic_w, leakage_w);
    engine.sweep_seeded(grid, &model, &|id| seeds[id].clone(), RunOptions::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeding changes where the Picard orbit starts, never the physics:
    /// same fixed points to 1e-9 K and same outcome kinds as the cold
    /// sweep, and on every converged lane a seed at or below the fixed
    /// point can only shorten the monotone climb — never lengthen it.
    #[test]
    fn warm_start_matches_the_cold_oracle_in_fewer_or_equal_iterations(
        vdd in axis(0.7..1.4, 2..5),
        act in axis(0.2..1.0, 1..3),
        amb in axis(290.0..340.0, 1..3),
        dynamic_w in 0.05..0.5f64,
        leakage_w in 0.005..0.05f64,
        base_frac in 0.3..0.95f64,
    ) {
        let grid = grid(vdd, act, amb);
        for backend in BACKENDS {
            let engine = engine(backend, 2, 4);
            let model = engine.uniform_tech_power(dynamic_w, leakage_w);
            let cold = engine.sweep(&grid, &model, RunOptions::new());
            let seeds = base_seeds(&engine, &grid, dynamic_w, leakage_w, base_frac);
            let warm = seeded(&engine, &grid, dynamic_w, leakage_w, &seeds);
            prop_assert_eq!(cold.len(), warm.len());
            for (id, (c, w)) in cold.outcomes.iter().zip(&warm.outcomes).enumerate() {
                prop_assert_eq!(kind(c), kind(w), "{:?} scenario {} kind diverged", backend, id);
                if let (
                    SweepOutcome::Converged { block_temperatures: ct, iterations: ci, .. },
                    SweepOutcome::Converged { block_temperatures: wt, iterations: wi, .. },
                ) = (c, w)
                {
                    for (a, b) in ct.iter().zip(wt) {
                        prop_assert!((a - b).abs() <= 1e-9,
                            "{backend:?} scenario {id}: fixed points diverged by {}",
                            (a - b).abs());
                    }
                    prop_assert!(wi <= ci,
                        "{backend:?} scenario {id}: seeded spent {wi} iterations vs cold {ci}");
                }
            }
        }
    }

    /// Seeds are looked up per scenario index, so thread count and batch
    /// width cannot change which lane starts where: seeded results are
    /// bitwise those of the serial single-lane run.
    #[test]
    fn warm_results_are_bitwise_invariant_across_threads_and_batch_lanes(
        vdd in axis(0.8..1.3, 2..5),
        dynamic_w in 0.05..0.4f64,
        base_frac in 0.3..0.95f64,
    ) {
        let grid = grid(vdd, vec![0.5, 1.0], vec![300.0, 320.0]);
        for backend in BACKENDS {
            let serial = engine(backend, 1, 1);
            let seeds = base_seeds(&serial, &grid, dynamic_w, 0.02, base_frac);
            let baseline = seeded(&serial, &grid, dynamic_w, 0.02, &seeds);
            for (threads, lanes) in [(2, 4), (4, 2), (3, 8)] {
                let engine = engine(backend, threads, lanes);
                let other = seeded(&engine, &grid, dynamic_w, 0.02, &seeds);
                prop_assert_eq!(
                    &baseline.outcomes, &other.outcomes,
                    "{:?}: threads {} x lanes {} diverged from serial", backend, threads, lanes
                );
            }
        }
    }
}

/// Seeding genuinely takes effect: on a fully converging vdd fiber,
/// seeds from a lower budget spend strictly fewer total Picard
/// iterations than the cold march, not merely no more per lane.
#[test]
fn seeds_cut_total_iterations_on_a_monotone_fiber() {
    let grid = grid(
        (0..12).map(|i| 0.8 + 0.05 * i as f64).collect(),
        vec![1.0],
        vec![300.0],
    );
    let total = |report: &SweepReport| report.outcomes.iter().filter_map(iterations).sum::<usize>();
    for backend in BACKENDS {
        let engine = engine(backend, 1, 4);
        let model = engine.uniform_tech_power(0.4, 0.04);
        let cold = engine.sweep(&grid, &model, RunOptions::new());
        let seeds = base_seeds(&engine, &grid, 0.4, 0.04, 0.8);
        let warm = seeded(&engine, &grid, 0.4, 0.04, &seeds);
        assert_eq!(cold.converged_count(), grid.len(), "fiber fully converges");
        assert_eq!(warm.converged_count(), grid.len());
        assert!(
            total(&warm) < total(&cold),
            "{backend:?}: seeded {} vs cold {} iterations",
            total(&warm),
            total(&cold)
        );
    }
}
