//! Property-based tests spanning the workspace: randomized widths,
//! geometries and temperatures against the invariants the models must
//! honour everywhere — not just at the hand-picked test points.

use proptest::prelude::*;
use ptherm::model::cosim::ScenarioGrid;
use ptherm::model::leakage::{CollapseParams, GateLeakageModel};
use ptherm::model::thermal::rect::{center_rise, rect_rise};
use ptherm::spice::stack::Stack;
use ptherm::tech::constants::thermal_voltage;
use ptherm::tech::Technology;
use ptherm::thermal_num::rect_surface_temperature;

fn width() -> impl Strategy<Value = f64> {
    // 0.16 um .. 10 um, log-uniform.
    (0.16f64.ln()..10.0f64.ln()).prop_map(|l| l.exp() * 1e-6)
}

fn temperature() -> impl Strategy<Value = f64> {
    260.0..420.0f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 10 must solve the pair transcendental equation everywhere in
    /// the (width ratio, temperature) plane, not just on the Fig. 3 sweep.
    #[test]
    fn eq10_satisfies_the_pair_equation(w_top in width(), w_bot in width(), t in temperature()) {
        let tech = Technology::cmos_120nm();
        let params = CollapseParams::from_mos(&tech.nmos, tech.vdd);
        let vt = thermal_voltage(t);
        let x = params.delta_v(w_top, w_bot, t);
        prop_assert!(x > 0.0);
        let r = (w_top / w_bot) * (params.sigma * params.vdd / (params.n * vt)).exp();
        let lhs = (params.alpha() * x / vt).exp() * (1.0 - (-x / vt).exp());
        let rel = (lhs - r).abs() / r;
        prop_assert!(rel < 0.05, "x {x}, residual {rel}");
    }

    /// The collapsed equivalent width is positive and below the top width
    /// (shielding can only shrink it).
    #[test]
    fn collapse_shrinks_widths(ws in proptest::collection::vec(width(), 1..6), t in temperature()) {
        let tech = Technology::cmos_120nm();
        let params = CollapseParams::from_mos(&tech.nmos, tech.vdd);
        let w_eq = params.collapse_chain(&ws, t);
        prop_assert!(w_eq > 0.0);
        prop_assert!(w_eq <= *ws.last().unwrap() * (1.0 + 1e-12));
        // Deeper chain (same widths + one more device below) leaks less.
        let mut deeper = ws.clone();
        deeper.insert(0, 1e-6);
        let w_deeper = params.collapse_chain(&deeper, t);
        prop_assert!(w_deeper < w_eq * (1.0 + 1e-12));
    }

    /// Analytical stack current vs exact solver under random widths,
    /// depths and temperatures: within 15% everywhere.
    #[test]
    fn model_tracks_exact_for_random_stacks(
        ws in proptest::collection::vec(width(), 1..5),
        t in temperature(),
    ) {
        let tech = Technology::cmos_120nm();
        let model = GateLeakageModel::new(&tech);
        let exact = Stack::off_current(&tech, &ws, t).expect("stack solves");
        let analytic = model.stack_off_current(&ws, t);
        let rel = (analytic - exact).abs() / exact;
        prop_assert!(rel < 0.15, "widths {ws:?} T {t}: rel {rel}");
    }

    /// Exact-solver invariants: node voltages increase monotonically and
    /// currents through each device match.
    #[test]
    fn exact_stack_invariants(ws in proptest::collection::vec(width(), 2..6), t in temperature()) {
        let tech = Technology::cmos_120nm();
        let sol = Stack::all_off(&tech, &ws).solve(t).expect("stack solves");
        prop_assert!(sol.current > 0.0);
        let mut last = 0.0;
        for v in &sol.node_voltages {
            prop_assert!(*v >= last - 1e-12, "nodes {:?}", sol.node_voltages);
            prop_assert!(*v <= tech.vdd);
            last = *v;
        }
    }

    /// Thermal closed forms: Eq. 20 never exceeds its Eq. 18 cap, is
    /// non-negative, and decays with distance.
    #[test]
    fn eq20_bounded_and_decaying(
        w in width(), l in width(),
        x in 0.0..30.0f64, p in 1e-4..0.1f64,
    ) {
        let k = 148.0;
        let t0 = center_rise(p, k, w, l);
        let near = rect_rise(p, k, w, l, x * 1e-6, 0.0);
        let far = rect_rise(p, k, w, l, (x + 20.0) * 1e-6, 0.0);
        prop_assert!(near <= t0 * (1.0 + 1e-12));
        prop_assert!(far >= 0.0);
        prop_assert!(far <= near * (1.0 + 1e-12));
    }

    /// Eq. 20 vs the exact Eq. 17 integral at random far-field points:
    /// within 15%.
    #[test]
    fn eq20_tracks_exact_far_field(
        w in width(), l in width(),
        factor in 2.0..12.0f64, angle in 0.0..std::f64::consts::FRAC_PI_2,
    ) {
        let k = 148.0;
        let s = w.max(l);
        let (x, y) = (factor * s * angle.cos(), factor * s * angle.sin());
        let exact = rect_surface_temperature(1e-3, k, w, l, x, y);
        let model = rect_rise(1e-3, k, w, l, x, y);
        let rel = (model - exact).abs() / exact;
        prop_assert!(rel < 0.15, "w {w:.2e} l {l:.2e} at ({x:.2e},{y:.2e}): rel {rel}");
    }

    /// Scale invariance of the thermal kernel: scaling geometry by λ
    /// scales temperatures by 1/λ.
    #[test]
    fn thermal_scale_invariance(w in width(), l in width(), lambda in 1.5..50.0f64) {
        let k = 148.0;
        let t1 = rect_rise(1e-3, k, w, l, 3.0 * w, 2.0 * l);
        let t2 = rect_rise(1e-3, k, lambda * w, lambda * l, lambda * 3.0 * w, lambda * 2.0 * l);
        let rel = (t2 - t1 / lambda).abs() / t2.max(1e-30);
        prop_assert!(rel < 1e-9);
    }
}

// Gate-level property under randomized vectors: the analytical current
// of the blocking network is positive and bounded by the naive no-stack
// estimate.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn gate_current_bounded_by_naive(bits in 0u64..16, cell_idx in 0usize..11, t in temperature()) {
        let tech = Technology::cmos_120nm();
        let model = GateLeakageModel::new(&tech);
        let library = ptherm::netlist::cells::standard_library(&tech);
        let cell = &library[cell_idx % library.len()];
        let n = cell.inputs().len();
        let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let i_gate = model.gate_off_current(cell, &v, t).expect("blocking network");
        prop_assert!(i_gate > 0.0);
        // Upper bound: the widest device in the blocking network leaking
        // across the full rail with no stack shielding at all, plus margin
        // for parallel combinations.
        let blocking = cell.bound_blocking(&v).expect("complementary");
        let w_eff = model.effective_width(&blocking, t).expect("blocking");
        let naive = model.equivalent_off_current(
            10.0 * tech.nmos.w_min * 8.0 * cell.transistor_count() as f64,
            blocking.polarity(),
            t,
        );
        prop_assert!(w_eff > 0.0);
        prop_assert!(i_gate < naive, "gate {i_gate:.3e} vs bound {naive:.3e}");
    }
}

// The GEMM-batched sweep path against the per-scenario oracle under
// randomized floorplans and scenario grids: same outcome kinds and
// iteration counts, temperatures/powers within the documented ULP
// contract of `ptherm::model::cosim::batch`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn batched_sweep_matches_the_per_scenario_oracle(
        rows in 1usize..4,
        cols in 1usize..4,
        seed in 0u64..1000,
        lanes in 1usize..9,
        dyn_w in 0.05f64..1.0,
        leak_w in 0.005f64..0.1,
    ) {
        use ptherm::floorplan::{generator, ChipGeometry};
        use ptherm::model::cosim::sweep::{RunOptions, ScenarioGrid, SweepEngine};
        use ptherm::model::SweepOutcome;
        use ptherm::tech::Technology;

        let plan = generator::tiled(ChipGeometry::paper_1mm(), rows, cols, 0.0, 0.0, seed)
            .expect("valid tiling");
        let grid = ScenarioGrid::new(vec![Technology::cmos_120nm(), Technology::cmos_350nm()])
            .vdd_scales(vec![0.9, 1.1])
            .activities(vec![0.5, 1.5])
            .ambients_k(vec![300.0, 340.0]);
        let engine = SweepEngine::new(plan).threads(2).batch_lanes(lanes);
        let model = engine.uniform_tech_power(dyn_w, leak_w).prepared_for(&grid);
        let batched = engine.sweep(&grid, &model, RunOptions::new());
        let oracle = engine.run_per_scenario(&grid, &model);
        prop_assert_eq!(batched.len(), oracle.len());
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
                    prop_assert_eq!(bi, oi);
                    for (x, y) in bt.iter().zip(ot) {
                        prop_assert!((x - y).abs() < 1e-9, "temps {} vs {}", x, y);
                    }
                    for (x, y) in bp.iter().zip(op) {
                        prop_assert!((x - y).abs() < 1e-9 * y.abs().max(1.0), "powers {} vs {}", x, y);
                    }
                }
                (
                    SweepOutcome::Runaway {
                        iteration: bi,
                        temperature: btemp,
                    },
                    SweepOutcome::Runaway {
                        iteration: oi,
                        temperature: otemp,
                    },
                ) => {
                    // Divergence amplifies the ULP-level gap in absolute
                    // terms; relative agreement stays at the contract.
                    prop_assert_eq!(bi, oi);
                    prop_assert!((btemp - otemp).abs() < 1e-9 * otemp.abs());
                }
                (b, o) => prop_assert_eq!(b, o),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lazy mixed-radix `ScenarioGrid::scenario(i)` decode must agree
    /// with materialized iteration for every axis-size combination —
    /// including degenerate empty axes, which must yield zero scenarios
    /// rather than a decode panic.
    #[test]
    fn scenario_grid_random_access_matches_iteration_order(
        nv in 0usize..4,
        na in 0usize..3,
        namb in 0usize..3,
        set_ambient in proptest::bool::ANY,
        ntech in 1usize..3,
    ) {
        let techs = vec![ptherm::tech::Technology::cmos_120nm(); ntech];
        let mut grid = ScenarioGrid::new(techs)
            .vdd_scales((0..nv).map(|i| 0.8 + 0.1 * i as f64).collect())
            .activities((0..na).map(|i| 0.5 + 0.25 * i as f64).collect());
        if set_ambient {
            grid = grid.ambients_k((0..namb).map(|i| 290.0 + 10.0 * i as f64).collect());
        }
        let expected = ntech * nv * na * if set_ambient { namb } else { 1 };
        prop_assert_eq!(grid.len(), expected);
        let materialized = grid.scenarios(303.0);
        prop_assert_eq!(materialized.len(), grid.len());
        let lazy: Vec<_> = grid.iter_scenarios(303.0).collect();
        prop_assert_eq!(&lazy, &materialized);
        for (i, s) in materialized.iter().enumerate() {
            let decoded = grid.scenario(i, 303.0);
            prop_assert_eq!(&decoded, s, "index {}", i);
        }
        if !set_ambient {
            // The unset ambient axis resolves to the supplied default.
            prop_assert!(materialized.iter().all(|s| s.ambient_k == 303.0));
        }
    }
}
