//! Sweep-engine throughput: the GEMM-batched Picard hot path against the
//! per-scenario operator engine and the cold rebuild-everything baseline,
//! with a machine-readable `BENCH_sweep.json` for the perf trajectory.
//!
//! Three generations of the same physics:
//!
//! 1. **cold** — [`ElectroThermalSolver::solve_rebuilding`] rebuilds the
//!    full image-expansion thermal model inside every Picard iteration
//!    (what the pre-engine per-figure loops did); timed on a sample,
//!    reported as extrapolated throughput,
//! 2. **per-scenario engine** — the PR 1 design: one precomputed
//!    [`ThermalOperator`], scenarios solved one at a time
//!    ([`SweepEngine::run_per_scenario`], kept as the exact oracle),
//! 3. **batched engine** — [`SweepEngine::sweep`]: B scenarios per Picard
//!    step through one `n×n · n×B` product, lane refill, batched
//!    exponentials.
//!
//! A fourth case times a fleet-sized 12-scenario grid at the default
//! `batch_lanes(64)` against `batch_lanes(12)`: the engine sizes its
//! panels to the work, so the configured width must cost nothing
//! (`small_grid_width_ratio`, gated at ≤ 1.2).
//!
//! Audits: batched outcomes must match the per-scenario oracle within the
//! ULP contract of `ptherm_core::cosim::batch` (same iteration counts,
//! ~1e-9 K), and the oracle must match the cold reference to rounding
//! error. `--quick` shrinks the workload for CI smoke runs and writes
//! `BENCH_sweep.quick.json` so it never clobbers the checked-in
//! full-mode `BENCH_sweep.json` baseline (schema in
//! `docs/PERFORMANCE.md`; override either path with `BENCH_SWEEP_JSON`).

use ptherm_bench::{header, report, JsonObject, ShapeCheck, Table};
use ptherm_core::cosim::sweep::{
    RunOptions, ScenarioGrid, ScenarioPowerModel, SweepEngine, SweepOutcome,
};
use ptherm_core::cosim::{ElectroThermalSolver, ThermalOperator};
use ptherm_floorplan::{generator, ChipGeometry, Floorplan};
use ptherm_tech::ScalingTable;
use std::time::Instant;

struct Config {
    tile_rows: usize,
    tile_cols: usize,
    ambients: usize,
    cold_samples: usize,
    label: &'static str,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        Config {
            tile_rows: 2,
            tile_cols: 4,
            ambients: 5,
            cold_samples: 8,
            label: "quick (CI smoke): 8 blocks x 1000 scenarios",
        }
    } else {
        Config {
            tile_rows: 8,
            tile_cols: 8,
            ambients: 50,
            cold_samples: 4,
            label: "64 blocks x 10000 scenarios",
        }
    };
    header(
        "Sweep",
        &format!(
            "GEMM-batched engine vs per-scenario engine vs cold rebuilds, {}",
            cfg.label
        ),
    );

    let floorplan = generator::tiled(
        ChipGeometry::paper_1mm(),
        cfg.tile_rows,
        cfg.tile_cols,
        0.0,
        0.0,
        11,
    )
    .expect("valid tiling");
    let blocks = floorplan.blocks().len();

    // Scenario grid: nodes x ambients x activities x Vdd scales, nodes
    // drawn from the embedded ITRS-like scaling table.
    let table = ScalingTable::itrs_like();
    let technologies: Vec<_> = table
        .nodes
        .iter()
        .filter(|n| n.node <= 0.18e-6)
        .take(4)
        .map(|n| n.technology())
        .collect();
    assert_eq!(technologies.len(), 4);
    let grid = ScenarioGrid::new(technologies)
        .vdd_scales(vec![0.8, 0.9, 1.0, 1.1, 1.2])
        .activities((1..=10).map(|i| 0.1 * i as f64).collect())
        .ambients_k((0..cfg.ambients).map(|i| 280.0 + 2.0 * i as f64).collect());
    let scenarios_total = grid.len();

    let threads = ptherm_par::default_threads();
    let engine = SweepEngine::new(floorplan.clone()).threads(threads);
    let lanes = 64;
    let engine = engine.batch_lanes(lanes);
    let model = engine.uniform_tech_power(0.45, 0.04).prepared_for(&grid);

    // --- operator build: serial vs threaded (bit-identical) -------------
    let t0 = Instant::now();
    let op1 = ThermalOperator::with_image_orders_threaded(&floorplan, 2, 9, 1);
    let build_serial_ns = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let op_n = ThermalOperator::with_image_orders_threaded(&floorplan, 2, 9, threads);
    let build_threaded_ns = t0.elapsed().as_nanos() as u64;
    let build_bit_identical = op1.influence().as_slice() == op_n.influence().as_slice();

    // --- cold baseline: rebuild the thermal model every iteration -------
    let sink_k = engine.operator().sink_temperature();
    let techs = grid.technologies();
    let step = (scenarios_total / cfg.cold_samples).max(1);
    let cold_scenarios: Vec<_> = (0..scenarios_total)
        .step_by(step)
        .take(cfg.cold_samples)
        .map(|i| (i, grid.scenario(i, sink_k)))
        .collect();
    let t0 = Instant::now();
    let mut cold_results = Vec::with_capacity(cold_scenarios.len());
    for (_, scenario) in &cold_scenarios {
        let g = ChipGeometry {
            sink_temperature: scenario.ambient_k,
            ..*floorplan.geometry()
        };
        let plan = Floorplan::new(g, floorplan.blocks().to_vec()).expect("same blocks");
        let solver = ElectroThermalSolver::new(plan);
        let r = solver.solve_rebuilding(|b, t| {
            model.block_power(scenario, &techs[scenario.tech_index], b, t)
        });
        cold_results.push(r);
    }
    let cold_ns_per_solve = t0.elapsed().as_nanos() as u64 / cold_scenarios.len() as u64;
    let cold_throughput = 1e9 / cold_ns_per_solve as f64;

    // --- per-scenario engine (the PR 1 design, now the oracle) ----------
    // Both engines are timed best-of-N: each run does identical work, so
    // the fastest run is the least scheduler-disturbed measurement.
    const TIMED_RUNS: usize = 3;
    let mut oracle_s = f64::INFINITY;
    let mut oracle_report = engine.run_per_scenario(&grid, &model); // warm-up
    for _ in 0..TIMED_RUNS {
        let t0 = Instant::now();
        oracle_report = engine.run_per_scenario(&grid, &model);
        oracle_s = oracle_s.min(t0.elapsed().as_secs_f64());
    }
    let oracle_ns_per_solve = (oracle_s * 1e9) as u64 / scenarios_total as u64;
    let oracle_throughput = scenarios_total as f64 / oracle_s;

    // --- batched engine -------------------------------------------------
    let mut batched_s = f64::INFINITY;
    let mut batched_report = engine.sweep(&grid, &model, RunOptions::new()); // warm-up
    for _ in 0..TIMED_RUNS {
        let t0 = Instant::now();
        batched_report = engine.sweep(&grid, &model, RunOptions::new());
        batched_s = batched_s.min(t0.elapsed().as_secs_f64());
    }
    let batched_ns_per_solve = (batched_s * 1e9) as u64 / scenarios_total as u64;
    let batched_throughput = scenarios_total as f64 / batched_s;

    let speedup_vs_oracle = batched_throughput / oracle_throughput;
    let speedup_vs_cold = batched_throughput / cold_throughput;

    // --- small grid: configured width vs exact width ------------------
    // Interleaved best-of-N so both widths see the same machine state.
    const SMALL_GRID_RUNS: usize = 50;
    let small_grid = ScenarioGrid::new(grid.technologies()[..1].to_vec())
        .vdd_scales(vec![0.9, 1.0, 1.1])
        .activities(vec![0.25, 0.5, 0.75, 1.0]);
    let small_scenarios = small_grid.len();
    let small_model = engine
        .uniform_tech_power(0.45, 0.04)
        .prepared_for(&small_grid);
    let exact_engine = SweepEngine::new(floorplan.clone())
        .threads(threads)
        .batch_lanes(small_scenarios);
    let dense = engine.shared_operator();
    let small_sweep = |e: &SweepEngine| {
        let t0 = Instant::now();
        let report = e.sweep(
            &small_grid,
            &small_model,
            RunOptions::new().operator(&dense),
        );
        (t0.elapsed().as_nanos() as u64, report)
    };
    let (mut small_wide_ns, mut small_exact_ns) = (u64::MAX, u64::MAX);
    let mut small_bitwise = true;
    for _ in 0..SMALL_GRID_RUNS {
        let (wide_ns, wide) = small_sweep(&engine);
        let (exact_ns, exact) = small_sweep(&exact_engine);
        small_wide_ns = small_wide_ns.min(wide_ns);
        small_exact_ns = small_exact_ns.min(exact_ns);
        small_bitwise &= wide.outcomes == exact.outcomes;
    }
    let small_width_ratio = small_wide_ns as f64 / small_exact_ns as f64;

    let mut out = Table::new([
        "configuration",
        "scenarios",
        "wall_s",
        "scenarios_per_s",
        "speedup_vs_cold",
    ]);
    out.row([
        "cold (rebuild/iter, 1 thread)".into(),
        format!("{} (sampled)", cold_scenarios.len()),
        format!(
            "{:.3}",
            cold_ns_per_solve as f64 * 1e-9 * cold_scenarios.len() as f64
        ),
        format!("{cold_throughput:.1}"),
        "1.0".into(),
    ]);
    out.row([
        format!("per-scenario engine, {threads} threads"),
        scenarios_total.to_string(),
        format!("{oracle_s:.3}"),
        format!("{oracle_throughput:.1}"),
        format!("{:.1}", oracle_throughput / cold_throughput),
    ]);
    out.row([
        format!("batched engine, {threads} threads, {lanes} lanes"),
        scenarios_total.to_string(),
        format!("{batched_s:.3}"),
        format!("{batched_throughput:.1}"),
        format!("{speedup_vs_cold:.1}"),
    ]);
    println!("{}", out.render());
    println!(
        "batched vs per-scenario engine: {speedup_vs_oracle:.2}x; operator build {:.1} ms serial / {:.1} ms on {threads} thread(s)",
        build_serial_ns as f64 / 1e6,
        build_threaded_ns as f64 / 1e6,
    );
    println!(
        "sweep outcome: {batched_report} (peak {:.1} K)",
        batched_report.max_peak_temperature().unwrap_or(f64::NAN)
    );
    println!(
        "{small_scenarios}-scenario grid: {:.1} us at {lanes} lanes, {:.1} us at {small_scenarios} lanes ({small_width_ratio:.2}x)",
        small_wide_ns as f64 / 1e3,
        small_exact_ns as f64 / 1e3,
    );

    // --- audits ----------------------------------------------------------
    // 1. batched vs per-scenario oracle: ULP contract (same outcome
    //    kinds, same iteration counts, ~1e-9 K temperatures).
    let mut max_gap_oracle: f64 = 0.0;
    let mut kinds_match = true;
    let mut iterations_match = true;
    for (b, o) in batched_report.outcomes.iter().zip(&oracle_report.outcomes) {
        match (b, o) {
            (
                SweepOutcome::Converged {
                    block_temperatures: bt,
                    iterations: bi,
                    ..
                },
                SweepOutcome::Converged {
                    block_temperatures: ot,
                    iterations: oi,
                    ..
                },
            ) => {
                iterations_match &= bi == oi;
                for (x, y) in bt.iter().zip(ot) {
                    max_gap_oracle = max_gap_oracle.max((x - y).abs());
                }
            }
            (
                SweepOutcome::Runaway { iteration: bi, .. },
                SweepOutcome::Runaway { iteration: oi, .. },
            ) => {
                iterations_match &= bi == oi;
            }
            (b, o) => kinds_match &= b == o,
        }
    }

    // 2. oracle vs cold reference: rounding error only.
    let mut max_gap_cold: f64 = 0.0;
    for ((idx, _), cold) in cold_scenarios.iter().zip(&cold_results) {
        let idx = *idx;
        if let (
            Ok(cold),
            SweepOutcome::Converged {
                block_temperatures, ..
            },
        ) = (cold, &oracle_report.outcomes[idx])
        {
            for (a, b) in cold.block_temperatures.iter().zip(block_temperatures) {
                max_gap_cold = max_gap_cold.max((a - b).abs());
            }
        }
    }

    // --- BENCH_sweep.json -------------------------------------------------
    // The hardened emitter rejects non-finite values (nulled + reported
    // through the finiteness shape check) so a sentinel leaking out of a
    // result type can never produce an unparsable artifact.
    let mut json = JsonObject::new();
    json.string("bench", "sweep")
        .string("mode", if quick { "quick" } else { "full" })
        .integer("blocks", blocks as u64)
        .integer("scenarios", scenarios_total as u64)
        .integer("threads", threads as u64)
        .integer("batch_lanes", lanes as u64)
        .string("simd", &format!("{:?}", ptherm_math::simd::isa()))
        .integer("operator_build_serial_ns", build_serial_ns)
        .integer("operator_build_threaded_ns", build_threaded_ns)
        .integer("cold_ns_per_solve", cold_ns_per_solve)
        .integer("per_scenario_ns_per_solve", oracle_ns_per_solve)
        .integer("batched_ns_per_solve", batched_ns_per_solve)
        .number("speedup_batched_vs_per_scenario", speedup_vs_oracle)
        .number("speedup_batched_vs_rebuilding", speedup_vs_cold)
        .number("max_temp_gap_vs_oracle_k", max_gap_oracle)
        .number("max_temp_gap_oracle_vs_rebuilding_k", max_gap_cold)
        .integer("small_grid_scenarios", small_scenarios as u64)
        .integer("small_grid_wide_ns", small_wide_ns)
        .integer("small_grid_exact_ns", small_exact_ns)
        .number("small_grid_width_ratio", small_width_ratio);
    // Quick mode defaults to its own file so a smoke run never clobbers
    // the checked-in full-mode baseline.
    let default_path = if quick {
        "BENCH_sweep.quick.json"
    } else {
        "BENCH_sweep.json"
    };
    let json_path = std::env::var("BENCH_SWEEP_JSON").unwrap_or_else(|_| default_path.into());
    match std::fs::write(&json_path, json.render()) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    // The quick (CI) bar is >= 1x; the full baseline documents >= 5x.
    let speedup_bar = if quick { 1.0 } else { 5.0 };
    let checks = vec![
        json.finiteness_check(),
        ShapeCheck::new(
            "every scenario resolves (converged or detected runaway)",
            batched_report.outcomes.iter().all(|o| {
                !matches!(
                    o,
                    SweepOutcome::BadPower { .. } | SweepOutcome::NotConverged { .. }
                )
            }),
            format!("{batched_report}"),
        ),
        ShapeCheck::new(
            format!("batched engine >= {speedup_bar}x the per-scenario engine"),
            speedup_vs_oracle >= speedup_bar,
            format!(
                "{batched_throughput:.1} vs {oracle_throughput:.1} scenarios/s ({speedup_vs_oracle:.2}x)"
            ),
        ),
        ShapeCheck::new(
            "per-scenario engine beats cold solves (operator reuse)",
            oracle_throughput > cold_throughput,
            format!(
                "{oracle_throughput:.1} vs {cold_throughput:.1} scenarios/s ({:.0}x)",
                oracle_throughput / cold_throughput
            ),
        ),
        ShapeCheck::new(
            "batched outcomes match the oracle (kinds + iterations, <= 1e-9 K)",
            kinds_match && iterations_match && max_gap_oracle < 1e-9,
            format!("max block-temperature gap {max_gap_oracle:.2e} K"),
        ),
        ShapeCheck::new(
            "oracle matches the rebuilding reference to rounding error",
            max_gap_cold < 1e-6,
            format!("max block-temperature gap {max_gap_cold:.2e} K"),
        ),
        ShapeCheck::new(
            format!("small-grid outcomes are bitwise equal at {lanes} and {small_scenarios} lanes"),
            small_bitwise,
            format!("{small_scenarios} scenarios, {SMALL_GRID_RUNS} interleaved runs per width"),
        ),
        ShapeCheck::new(
            "threaded operator build is bit-identical to serial",
            build_bit_identical,
            format!("1 vs {threads} thread(s)"),
        ),
    ];
    std::process::exit(report(&checks));
}
