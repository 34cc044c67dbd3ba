//! Spectral sweep bench: batched Picard through the FFT-backed
//! `SpectralOperator` vs the dense `O(n²)` influence matrix, on
//! tile-aligned floorplans from 1024 to 4096 blocks.
//!
//! Three audits back the spectral backend's claims
//! (`docs/PERFORMANCE.md`):
//!
//! 1. **scaling** — the fitted log-log slope of spectral sweep time vs
//!    block count across the three sizes must stay below 1.5 (the
//!    dense path is quadratic by construction: its per-iteration GEMM
//!    and its kernel build both touch all `n²` block pairs),
//! 2. **speed** — at the largest size the spectral end-to-end cost
//!    (operator build + sweep) must beat the dense cost by the
//!    documented factor. Dense is *measured* at the smallest size only
//!    and *projected* quadratically to the largest
//!    (`dense_projected_largest_s = dense_total_smallest_s × ratio²`);
//!    measuring dense at 4096 blocks directly would take minutes and
//!    the projection is conservative for a quadratic algorithm,
//! 3. **exactness** — on a 256-block coincident grid the spectral and
//!    dense fixed points agree to ≤ 1e-6 K with identical outcome
//!    kinds (the same term-for-term contract the validation suites
//!    pin),
//! 4. **refinement** — the ladder's tile-aligned plans never refine, so
//!    a gutter rung times the CG stencil refinement on its own: a
//!    `generator::tiled` plan (blocks at 90% of the tile pitch, every
//!    block refines) against a tile-aligned plan on the same grid and
//!    3 mm die, one thread, each build best of 3. Full mode gates
//!    `refinement_build_ratio`, and both modes require every gutter
//!    block to refine.
//!
//! Emits `BENCH_spectral.json` (`BENCH_spectral.quick.json` with
//! `--quick`; override the path with `BENCH_SPECTRAL_JSON`), gated in
//! CI by `benchcheck` against `ci/bench_bounds.quick.json`.

use ptherm_bench::{header, report, JsonObject, ShapeCheck, Table};
use ptherm_core::cosim::spectral::{SpectralOperator, DEFAULT_REFINEMENT_TOLERANCE};
use ptherm_core::cosim::{RunOptions, ScenarioGrid, SweepBackend, SweepEngine, SweepOutcome};
use ptherm_floorplan::{generator, ChipGeometry, Floorplan};
use ptherm_tech::Technology;
use std::time::Instant;

struct BenchConfig {
    /// Tile-grid shapes for the spectral scaling ladder, smallest first.
    sizes: [(usize, usize); 3],
    /// End-to-end speedup bar at the largest size vs projected dense.
    speedup_bar: f64,
    /// Tile rows × columns of the refinement rung's plans.
    gutter: (usize, usize),
    label: &'static str,
}

/// Blocks ARE the tiles of an `nx × ny` grid (see
/// [`generator::tile_aligned`]) with deterministic non-uniform powers —
/// the coincident geometry on which spectral equals dense term for
/// term.
fn tile_aligned_floorplan(nx: usize, ny: usize) -> Floorplan {
    generator::tile_aligned(ChipGeometry::paper_1mm(), nx, ny, |i| {
        0.002 + 0.0015 * ((i * 5) % 11) as f64
    })
    .expect("aligned tiling is valid")
}

/// Best-of-3 one-thread spectral build of `floorplan` at the default
/// orders and tolerance: (seconds, refined blocks).
fn timed_build(floorplan: &Floorplan) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut refined = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let op = SpectralOperator::with_image_orders_threaded(
            floorplan,
            2,
            9,
            DEFAULT_REFINEMENT_TOLERANCE,
            1,
        )
        .expect("tiled and tile-aligned plans are grid-coincident");
        best = best.min(t0.elapsed().as_secs_f64());
        refined = op.refined_blocks();
    }
    (best, refined)
}

/// Least-squares slope of `ln(seconds)` vs `ln(blocks)` — the empirical
/// scaling exponent over the size ladder.
fn fitted_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(blocks, seconds) in points {
        let (x, y) = (blocks.ln(), seconds.ln());
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        BenchConfig {
            sizes: [(16, 16), (32, 16), (32, 32)],
            speedup_bar: 2.0,
            gutter: (16, 16),
            label: "quick (CI smoke): 256/512/1024 blocks",
        }
    } else {
        BenchConfig {
            sizes: [(32, 32), (64, 32), (64, 64)],
            speedup_bar: 10.0,
            gutter: (48, 48),
            label: "1024/2048/4096 blocks",
        }
    };
    let threads = ptherm_par::default_threads();
    header(
        "Spectral",
        &format!(
            "FFT-backed batched Picard vs the dense influence matrix, {} ({} threads)",
            cfg.label, threads
        ),
    );

    let grid = ScenarioGrid::new(vec![Technology::cmos_120nm()])
        .vdd_scales(vec![0.95, 1.0, 1.05])
        .activities(vec![0.5, 1.0]);
    // Sweeps take milliseconds, so the scaling fit needs many repeats
    // to read the algorithm rather than host load.
    const TIMED_RUNS: usize = 15;

    // --- the spectral scaling ladder -------------------------------------
    let mut out = Table::new(["blocks", "grid", "build_s", "sweep_s", "sweeps_per_s"]);
    let mut ladder: Vec<(usize, f64, f64)> = Vec::new(); // (blocks, build_s, sweep_s)
    let mut all_converged = true;
    let mut peak_k = f64::NAN;
    for &(nx, ny) in &cfg.sizes {
        let floorplan = tile_aligned_floorplan(nx, ny);
        let blocks = floorplan.blocks().len();
        let engine = SweepEngine::new(floorplan)
            .backend(SweepBackend::Spectral)
            .threads(threads);
        let t0 = Instant::now();
        engine
            .spectral_operator()
            .expect("tile-aligned plans are grid-coincident");
        let build_s = t0.elapsed().as_secs_f64();
        let model = engine.uniform_tech_power(0.3, 0.03).prepared_for(&grid);
        let mut sweep_s = f64::INFINITY;
        for _ in 0..TIMED_RUNS {
            let t0 = Instant::now();
            let rep = engine.sweep(&grid, &model, RunOptions::new());
            sweep_s = sweep_s.min(t0.elapsed().as_secs_f64());
            all_converged &= rep.converged_count() == rep.len();
            peak_k = rep.max_peak_temperature().unwrap_or(f64::NAN);
        }
        out.row([
            blocks.to_string(),
            format!("{nx}x{ny}"),
            format!("{build_s:.4}"),
            format!("{sweep_s:.5}"),
            format!("{:.1}", 1.0 / sweep_s),
        ]);
        ladder.push((blocks, build_s, sweep_s));
    }
    let sweep_points: Vec<(f64, f64)> = ladder
        .iter()
        .map(|&(blocks, _, sweep_s)| (blocks as f64, sweep_s))
        .collect();
    let scaling_exponent = fitted_exponent(&sweep_points);
    println!("{}", out.render());
    println!(
        "spectral sweep time ~ blocks^{scaling_exponent:.2} (dense is blocks^2 by construction)"
    );

    // --- dense at the smallest size, projected to the largest -------------
    let (base_nx, base_ny) = cfg.sizes[0];
    let base_blocks = ladder[0].0;
    let dense_engine = SweepEngine::new(tile_aligned_floorplan(base_nx, base_ny))
        .backend(SweepBackend::Dense)
        .threads(threads);
    let t0 = Instant::now();
    dense_engine.operator();
    let dense_build_s = t0.elapsed().as_secs_f64();
    let dense_model = dense_engine
        .uniform_tech_power(0.3, 0.03)
        .prepared_for(&grid);
    let mut dense_sweep_s = f64::INFINITY;
    for _ in 0..TIMED_RUNS.min(3) {
        let t0 = Instant::now();
        dense_engine.sweep(&grid, &dense_model, RunOptions::new());
        dense_sweep_s = dense_sweep_s.min(t0.elapsed().as_secs_f64());
    }
    let (largest_blocks, spectral_build_largest_s, spectral_sweep_largest_s) =
        *ladder.last().expect("three sizes");
    let ratio = largest_blocks as f64 / base_blocks as f64;
    // Build (n² kernel image sums) and per-iteration GEMM (n² MACs) are
    // both quadratic in block count, so end-to-end dense cost projects
    // with ratio².
    let dense_projected_largest_s = (dense_build_s + dense_sweep_s) * ratio * ratio;
    let spectral_total_largest_s = spectral_build_largest_s + spectral_sweep_largest_s;
    let speedup = dense_projected_largest_s / spectral_total_largest_s;
    println!(
        "dense at {base_blocks} blocks: {dense_build_s:.3} s build + {dense_sweep_s:.4} s sweep \
         -> projected x{ratio:.0}^2 to {largest_blocks} blocks: {dense_projected_largest_s:.2} s"
    );
    println!(
        "spectral at {largest_blocks} blocks: {spectral_total_largest_s:.4} s end-to-end \
         ({speedup:.0}x vs projected dense)"
    );

    // --- exactness: spectral vs dense fixed points at 256 blocks ----------
    let check_plan = tile_aligned_floorplan(16, 16);
    let spectral_check = SweepEngine::new(check_plan.clone())
        .backend(SweepBackend::Spectral)
        .threads(threads);
    let dense_check = SweepEngine::new(check_plan)
        .backend(SweepBackend::Dense)
        .threads(threads);
    let model_s = spectral_check
        .uniform_tech_power(0.3, 0.03)
        .prepared_for(&grid);
    let model_d = dense_check
        .uniform_tech_power(0.3, 0.03)
        .prepared_for(&grid);
    let rep_s = spectral_check.sweep(&grid, &model_s, RunOptions::new());
    let rep_d = dense_check.sweep(&grid, &model_d, RunOptions::new());
    let mut max_gap_k = 0.0f64;
    let mut kinds_match = rep_s.outcomes.len() == rep_d.outcomes.len();
    for (s, d) in rep_s.outcomes.iter().zip(&rep_d.outcomes) {
        kinds_match &= std::mem::discriminant(s) == std::mem::discriminant(d);
        if let (
            SweepOutcome::Converged {
                block_temperatures: ts,
                ..
            },
            SweepOutcome::Converged {
                block_temperatures: td,
                ..
            },
        ) = (s, d)
        {
            for (a, b) in ts.iter().zip(td) {
                max_gap_k = max_gap_k.max((a - b).abs());
            }
        }
    }
    println!(
        "exactness at 256 blocks: max |dT| = {max_gap_k:.2e} K across {} scenarios",
        rep_s.len()
    );

    // --- refinement: gutter vs tile-aligned build, same grid and die -----
    let (rows, cols) = cfg.gutter;
    let die = ChipGeometry {
        width: 3e-3,
        length: 3e-3,
        ..ChipGeometry::paper_1mm()
    };
    let gutter_plan =
        generator::tiled(die, rows, cols, 0.002, 0.004, 31).expect("gutter tiling is valid");
    let gutter_blocks = gutter_plan.blocks().len();
    let aligned_plan =
        generator::tile_aligned(die, cols, rows, |_| 0.003).expect("aligned tiling is valid");
    let (gutter_build_s, gutter_refined_blocks) = timed_build(&gutter_plan);
    let (aligned_build_s, _) = timed_build(&aligned_plan);
    let refinement_build_ratio = gutter_build_s / aligned_build_s;
    println!(
        "refinement at {rows}x{cols} on a 3 mm die: gutter {gutter_build_s:.4} s \
         ({gutter_refined_blocks}/{gutter_blocks} refined) vs aligned {aligned_build_s:.4} s \
         ({refinement_build_ratio:.1}x)"
    );

    // --- BENCH_spectral.json ----------------------------------------------
    let mut json = JsonObject::new();
    json.string("bench", "spectral")
        .string("mode", if quick { "quick" } else { "full" })
        .integer("threads", threads as u64)
        .integer("scenarios", grid.len() as u64);
    for (i, &(blocks, build_s, sweep_s)) in ladder.iter().enumerate() {
        json.integer(&format!("blocks_{i}"), blocks as u64)
            .number(&format!("spectral_build_{i}_s"), build_s)
            .number(&format!("spectral_sweep_{i}_s"), sweep_s);
    }
    json.number("scaling_exponent", scaling_exponent)
        .integer("dense_measured_blocks", base_blocks as u64)
        .number("dense_build_s", dense_build_s)
        .number("dense_sweep_s", dense_sweep_s)
        .number("dense_projected_largest_s", dense_projected_largest_s)
        .number("spectral_total_largest_s", spectral_total_largest_s)
        .number("speedup_vs_dense_at_largest", speedup)
        .number("max_gap_vs_dense_k", max_gap_k)
        .number("peak_k", peak_k)
        .integer("gutter_blocks", gutter_blocks as u64)
        .number("gutter_build_s", gutter_build_s)
        .number("aligned_build_s", aligned_build_s)
        .number("refinement_build_ratio", refinement_build_ratio)
        .integer("gutter_refined_blocks", gutter_refined_blocks as u64);
    let default_path = if quick {
        "BENCH_spectral.quick.json"
    } else {
        "BENCH_spectral.json"
    };
    let json_path = std::env::var("BENCH_SPECTRAL_JSON").unwrap_or_else(|_| default_path.into());
    match std::fs::write(&json_path, json.render()) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    let checks = vec![
        json.finiteness_check(),
        ShapeCheck::new(
            "every scenario converges at every ladder size",
            all_converged,
            format!("{} scenarios per size", grid.len()),
        ),
        ShapeCheck::new(
            "spectral sweep time scales better than quadratic (exponent < 1.5)",
            scaling_exponent < 1.5,
            format!("fitted blocks^{scaling_exponent:.2} over the ladder"),
        ),
        ShapeCheck::new(
            format!(
                "spectral end-to-end >= {}x projected dense at {largest_blocks} blocks",
                cfg.speedup_bar
            ),
            speedup >= cfg.speedup_bar,
            format!(
                "{dense_projected_largest_s:.2} s dense (projected) vs \
                 {spectral_total_largest_s:.4} s spectral ({speedup:.0}x)"
            ),
        ),
        ShapeCheck::new(
            "spectral and dense fixed points agree to <= 1e-6 K at 256 blocks",
            max_gap_k <= 1e-6 && kinds_match,
            format!("max |dT| = {max_gap_k:.2e} K, outcome kinds match: {kinds_match}"),
        ),
        ShapeCheck::new(
            format!("every block of the {rows}x{cols} gutter plan refines"),
            gutter_refined_blocks >= gutter_blocks,
            format!(
                "{gutter_refined_blocks}/{gutter_blocks} refined, build {refinement_build_ratio:.1}x \
                 the tile-aligned plan's"
            ),
        ),
    ];
    std::process::exit(report(&checks));
}
