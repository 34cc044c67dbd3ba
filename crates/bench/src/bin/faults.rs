//! Fault-tolerance bench: recovery overhead of the fleet's chaos
//! machinery, and the isolation audit, emitting `BENCH_faults.json`.
//!
//! Two one-worker runs of one synthetic mixed fleet (distinct
//! floorplans, steady + transient jobs), repeated with their order
//! alternating: a **fault-free** run and a **chaos** run under a
//! deterministic [`FaultPlan`] scattering one fault per eight jobs
//! across the retryable / panic / delay classes. Audits:
//!
//! * every *non-faulted* job's result line must be bitwise identical
//!   (wall time normalized) between the two runs — a panicking or
//!   retrying neighbour may never perturb an unaffected job;
//! * every faulted job must land its typed outcome (worker-panic error,
//!   retried-to-ok with recorded attempts, on-time delay);
//! * after the chaos run the same engine must drain the queue
//!   fault-free, bitwise identical to the baseline (zero residual cache
//!   poisoning);
//! * **recovery overhead**: summed wall time of the non-faulted jobs in
//!   the chaos run vs the fault-free run, each side's best of 25
//!   repeats (7 in quick mode), gated at ≤5% in full mode
//!   (`docs/PERFORMANCE.md` documents the schema, `ci/bench_bounds.*`
//!   gate it).
//!
//! Eviction faults are deliberately absent here: a forced cache flush
//! makes innocent jobs legitimately pay rebuilds, which is cache-churn
//! cost, not recovery overhead (the chaos *test* suite covers them).

use ptherm_bench::{header, report, JsonObject, ShapeCheck, Table};
use ptherm_fleet::{
    Fault, FaultPlan, FleetEngine, FleetEngineBuilder, FleetReport, JobError, JobSpec, SteadyJob,
    TransientJob,
};
use ptherm_floorplan::{generator, ChipGeometry, Floorplan};
use std::time::Instant;

/// Both sides run on one worker. With more, the ratio follows which
/// job pays each floorplan's build and whether the workers contend for
/// the cores, not what recovery costs; multi-worker chaos is covered by
/// `crates/fleet/tests/chaos.rs`.
const THREADS: usize = 1;

struct BenchConfig {
    floorplans: usize,
    tile_rows: usize,
    tile_cols: usize,
    jobs_per_floorplan: usize,
    repeats: usize,
    overhead_bar: f64,
    label: &'static str,
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    std::process::exit(bench(quick));
}

/// Distinct-geometry floorplans and an interleaved steady/transient
/// queue over them (the `fleet` bench's synthetic shape).
fn synthetic_fleet(cfg: &BenchConfig) -> (Vec<(String, Floorplan)>, Vec<JobSpec>) {
    let mut floorplans = Vec::with_capacity(cfg.floorplans);
    for i in 0..cfg.floorplans {
        let geometry = ChipGeometry {
            width: 1e-3 * (1.0 + 0.02 * i as f64),
            ..ChipGeometry::paper_1mm()
        };
        let plan = generator::tiled(
            geometry,
            cfg.tile_rows,
            cfg.tile_cols,
            0.005,
            0.02,
            i as u64 + 1,
        )
        .expect("valid tiling");
        floorplans.push((format!("fp{i}"), plan));
    }
    let mut jobs = Vec::with_capacity(cfg.floorplans * cfg.jobs_per_floorplan);
    for round in 0..cfg.jobs_per_floorplan {
        for (name, _) in &floorplans {
            let base = SteadyJob {
                floorplan: name.clone(),
                dynamic_w: 0.3,
                leakage_w: 0.03,
                vdd_scales: vec![0.95, 1.0, 1.05],
                activities: vec![0.5, 1.0],
                ambients_k: None,
                backend: ptherm_core::cosim::SweepBackend::Auto,
                deadline_ms: None,
                name: None,
                power: ptherm_fleet::PowerSpec::Scaled,
                v: None,
            };
            if round % 2 == 0 {
                jobs.push(JobSpec::Steady(base));
            } else {
                jobs.push(JobSpec::Transient(TransientJob {
                    base: SteadyJob {
                        vdd_scales: vec![1.0],
                        activities: vec![1.0],
                        ..base
                    },
                    dt_s: 2e-4,
                    steps: 40,
                    scheme: ptherm_math::ode::ImplicitScheme::Trapezoidal,
                    waveforms: Vec::new(),
                }));
            }
        }
    }
    (floorplans, jobs)
}

/// One fault per eight jobs, cycling the recoverable classes. Explicit
/// (not seeded) so the class mix is fixed and the expected outcome of
/// every faulted job is known exactly.
fn fault_plan(jobs: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for (k, job) in (0..jobs).step_by(8).enumerate() {
        let fault = match k % 4 {
            0 => Fault::TransientFault,
            1 => Fault::SolverPanic { iteration: 1 },
            2 => Fault::BuilderPanic,
            _ => Fault::Delay { ms: 1 },
        };
        plan = plan.inject(job, fault);
    }
    plan
}

fn build_engine(floorplans: &[(String, Floorplan)]) -> FleetEngine {
    let mut builder = FleetEngineBuilder::new().threads(THREADS);
    for (name, plan) in floorplans {
        builder = builder.floorplan(name.clone(), plan.clone());
    }
    builder.build().expect("valid bench configuration")
}

/// Result lines with `wall_ns` normalized to 0 — the bitwise-identity
/// currency of the isolation audit.
fn normalized_lines(report: &FleetReport, jobs: &[JobSpec]) -> Vec<String> {
    report
        .jobs
        .iter()
        .map(|record| {
            let mut normalized = record.clone();
            normalized.wall_ns = 0;
            normalized.to_json(&jobs[record.index]).render()
        })
        .collect()
}

/// Summed wall time of the jobs NOT in the fault plan, seconds.
fn unfaulted_wall_s(report: &FleetReport, plan: &FaultPlan) -> f64 {
    report
        .jobs
        .iter()
        .filter(|record| plan.fault_for(record.index, 1).is_none())
        .map(|record| record.wall_ns as f64 * 1e-9)
        .sum()
}

fn bench(quick: bool) -> i32 {
    let cfg = if quick {
        BenchConfig {
            floorplans: 4,
            tile_rows: 3,
            tile_cols: 3,
            jobs_per_floorplan: 6,
            repeats: 7,
            // The quick smoke runs millisecond jobs on shared CI
            // machines: gate shape, not noise.
            overhead_bar: 1.5,
            label: "quick (CI smoke): 4 floorplans x 9 blocks, 24 mixed jobs",
        }
    } else {
        BenchConfig {
            floorplans: 8,
            tile_rows: 4,
            tile_cols: 4,
            jobs_per_floorplan: 12,
            // Unfaulted walls are ~10 ms per side: best of 25 keeps
            // scheduler noise below the 5% bar.
            repeats: 25,
            overhead_bar: 1.05,
            label: "8 floorplans x 16 blocks, 96 mixed jobs",
        }
    };
    header(
        "Faults",
        &format!(
            "chaos-run recovery overhead vs fault-free fleet, {} ({THREADS} worker)",
            cfg.label
        ),
    );

    let (floorplans, jobs) = synthetic_fleet(&cfg);
    let plan = fault_plan(jobs.len());
    let faulted: Vec<Option<&Fault>> = (0..jobs.len()).map(|j| plan.fault_for(j, 1)).collect();
    let expected_panics = faulted
        .iter()
        .filter(|f| {
            matches!(
                f,
                Some(Fault::SolverPanic { .. }) | Some(Fault::BuilderPanic)
            )
        })
        .count();
    let expected_retries = faulted
        .iter()
        .filter(|f| matches!(f, Some(Fault::TransientFault)))
        .count();

    // --- fault-free baseline and chaos run ---------------------------------
    // Fresh engines every run (cold caches on both sides). Within each
    // repeat the two sides alternate which runs first, so a drift in
    // machine speed lands on both, and the overhead ratio takes each
    // side's fastest repeat, the standard defence against scheduler noise
    // on small jobs. The injected panics are expected; keep their
    // backtraces out of the bench transcript. `catch_unwind` in the engine
    // still sees them.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (mut free_wall_s, mut free_unfaulted_s) = (f64::INFINITY, f64::INFINITY);
    let (mut chaos_wall_s, mut chaos_unfaulted_s) = (f64::INFINITY, f64::INFINITY);
    let (mut baseline, mut chaos, mut drained) = (None, None, None);
    for repeat in 0..cfg.repeats {
        for under_chaos in [repeat % 2 == 1, repeat % 2 == 0] {
            let mut engine = build_engine(&floorplans);
            if under_chaos {
                engine.set_faults(Some(plan.clone()));
            }
            let t0 = Instant::now();
            let report = engine.run(&jobs);
            let wall_s = t0.elapsed().as_secs_f64();
            let unfaulted_s = unfaulted_wall_s(&report, &plan);
            if under_chaos {
                chaos_wall_s = chaos_wall_s.min(wall_s);
                chaos_unfaulted_s = chaos_unfaulted_s.min(unfaulted_s);
                chaos = Some(report);
                // Residual-poisoning probe: the same engine, faults cleared.
                engine.set_faults(None);
                drained = Some(engine.run(&jobs));
            } else {
                free_wall_s = free_wall_s.min(wall_s);
                free_unfaulted_s = free_unfaulted_s.min(unfaulted_s);
                baseline = Some(report);
            }
        }
    }
    std::panic::set_hook(default_hook);
    let baseline = baseline.expect("at least one repeat");
    let baseline_lines = normalized_lines(&baseline, &jobs);
    let chaos = chaos.expect("at least one repeat");
    let chaos_lines = normalized_lines(&chaos, &jobs);
    let drained_lines = normalized_lines(&drained.expect("at least one repeat"), &jobs);

    // --- audits -----------------------------------------------------------
    let unfaulted_mismatches = baseline_lines
        .iter()
        .zip(&chaos_lines)
        .enumerate()
        .filter(|(j, (base, line))| faulted[*j].is_none() && base != line)
        .count();
    let drained_mismatches = baseline_lines
        .iter()
        .zip(&drained_lines)
        .filter(|(base, line)| base != line)
        .count();
    let typed_panic_lines = chaos
        .jobs
        .iter()
        .filter(|record| matches!(record.outcome, Err(JobError::WorkerPanic { .. })))
        .count();
    let recovery_overhead_ratio = chaos_unfaulted_s / free_unfaulted_s;

    let mut out = Table::new(["run", "jobs", "ok", "errors", "retries", "wall_s"]);
    out.row([
        "fault-free".into(),
        jobs.len().to_string(),
        baseline.ok_count().to_string(),
        baseline.error_count().to_string(),
        baseline.retry_count().to_string(),
        format!("{free_wall_s:.3}"),
    ]);
    out.row([
        format!("chaos ({} faults)", plan.faulted_jobs()),
        jobs.len().to_string(),
        chaos.ok_count().to_string(),
        chaos.error_count().to_string(),
        chaos.retry_count().to_string(),
        format!("{chaos_wall_s:.3}"),
    ]);
    println!("{}", out.render());
    println!(
        "unaffected-job wall: {free_unfaulted_s:.3}s fault-free vs {chaos_unfaulted_s:.3}s \
         under chaos ({recovery_overhead_ratio:.3}x)"
    );

    // --- BENCH_faults.json ------------------------------------------------
    let mut json = JsonObject::new();
    json.string("bench", "faults")
        .string("mode", if quick { "quick" } else { "full" })
        .integer("floorplans", cfg.floorplans as u64)
        .integer("jobs", jobs.len() as u64)
        .integer("faulted_jobs", plan.faulted_jobs() as u64)
        .integer("threads", THREADS as u64)
        .integer("injected_panics", expected_panics as u64)
        .integer("injected_retryable", expected_retries as u64)
        .integer("observed_panics", chaos.panic_count() as u64)
        .integer("observed_retries", chaos.retry_count() as u64)
        .integer("observed_errors", chaos.error_count() as u64)
        .integer("unfaulted_line_mismatches", unfaulted_mismatches as u64)
        .integer("drained_line_mismatches", drained_mismatches as u64)
        .number("free_wall_s", free_wall_s)
        .number("chaos_wall_s", chaos_wall_s)
        .number("free_unfaulted_wall_s", free_unfaulted_s)
        .number("chaos_unfaulted_wall_s", chaos_unfaulted_s)
        .number("recovery_overhead_ratio", recovery_overhead_ratio);
    let default_path = if quick {
        "BENCH_faults.quick.json"
    } else {
        "BENCH_faults.json"
    };
    let json_path = std::env::var("BENCH_FAULTS_JSON").unwrap_or_else(|_| default_path.into());
    match std::fs::write(&json_path, json.render()) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    let checks = vec![
        json.finiteness_check(),
        ShapeCheck::new(
            "the fault-free baseline resolves every job",
            baseline.ok_count() == jobs.len() && baseline.retry_count() == 0,
            format!("{}/{} ok", baseline.ok_count(), jobs.len()),
        ),
        ShapeCheck::new(
            "every non-faulted result line is bitwise identical under chaos",
            unfaulted_mismatches == 0,
            format!("{unfaulted_mismatches} mismatching lines"),
        ),
        ShapeCheck::new(
            "every injected panic lands as a typed worker-panic error",
            chaos.panic_count() == expected_panics
                && typed_panic_lines == expected_panics
                && chaos.error_count() == expected_panics,
            format!(
                "{} observed vs {} injected",
                chaos.panic_count(),
                expected_panics
            ),
        ),
        ShapeCheck::new(
            "every retryable fault retries exactly once to success",
            chaos.retry_count() == expected_retries
                && chaos.ok_count() == jobs.len() - expected_panics,
            format!(
                "{} retries, {}/{} ok",
                chaos.retry_count(),
                chaos.ok_count(),
                jobs.len()
            ),
        ),
        ShapeCheck::new(
            "the chaos engine drains a fault-free queue with zero residual poisoning",
            drained_mismatches == 0,
            format!("{drained_mismatches} mismatching lines"),
        ),
        ShapeCheck::new(
            format!(
                "recovery overhead on unaffected jobs <= {:.0}%",
                (cfg.overhead_bar - 1.0) * 100.0
            ),
            recovery_overhead_ratio <= cfg.overhead_bar,
            format!("{recovery_overhead_ratio:.3}x unaffected-job wall time"),
        ),
    ];
    report(&checks)
}
