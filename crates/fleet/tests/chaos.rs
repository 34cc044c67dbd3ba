//! Chaos suite: the fleet's fault-tolerance invariants under the
//! deterministic fault-injection harness ([`FaultPlan`]).
//!
//! The gated invariant: injecting a panic into 1 of N mixed jobs must
//! (1) yield a typed worker-panic result line for that job, (2) leave
//! every other job's result line **bitwise identical** to the
//! fault-free run (wall time normalized), and (3) leave the engine —
//! including its operator caches — serving a subsequent fault-free
//! queue with zero residual poisoning. Also here: retry budgets,
//! deadline enforcement, cache reservation recovery and the
//! cancellation-checkpoint proptests.

use proptest::prelude::*;
use ptherm_core::cosim::sweep::ScaledTechPower;
use ptherm_core::cosim::{
    RunOptions, ScenarioGrid, SweepBackend, SweepEngine, SweepOutcome, TransientConfig,
    TransientOutcome,
};
use ptherm_fleet::{
    parse_jsonl, Fault, FaultPlan, FleetConfig, FleetEngine, FleetEngineBuilder, FleetReport,
    FleetRequest, JobError, JobSpec, OperatorCache, RetryPolicy,
};
use ptherm_floorplan::{generator, ChipGeometry, Floorplan};
use ptherm_tech::Technology;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A validated engine over `request`'s floorplans (shared by every
/// chaos scenario so construction goes through the one builder path).
fn engine_for(config: &FleetConfig, request: &FleetRequest) -> FleetEngine {
    FleetEngineBuilder::new()
        .config(config.clone())
        .request(request)
        .build()
        .expect("valid configuration")
}

fn tiled(rows: usize, cols: usize, seed: u64) -> Floorplan {
    generator::tiled(ChipGeometry::paper_1mm(), rows, cols, 0.01, 0.05, seed).expect("valid tiling")
}

/// A mixed queue over three floorplans: dense + spectral steadies,
/// transients and maps, `rounds` rounds of 5 jobs. Budgets vary per
/// round so every job is distinct and line aliasing cannot mask a
/// cross-contamination bug.
fn chaos_request_jsonl(rounds: usize) -> String {
    let mut src = String::from(concat!(
        r#"{"type": "floorplan", "name": "a", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.05, "seed": 1}}"#,
        "\n",
        r#"{"type": "floorplan", "name": "g", "tiles": {"rows": 4, "cols": 4, "p_min": 0.01, "p_max": 0.05, "seed": 2}}"#,
        "\n",
        r#"{"type": "floorplan", "name": "c", "blocks": [{"name": "hot", "cx": 0.5e-3, "cy": 0.5e-3, "w": 0.3e-3, "l": 0.3e-3, "power": 0.2}]}"#,
        "\n",
    ));
    for round in 0..rounds {
        let d = 0.25 + 0.01 * round as f64;
        src.push_str(&format!(
            "{{\"type\": \"steady\", \"floorplan\": \"a\", \"dynamic_w\": {d}, \"leakage_w\": 0.03, \"vdd_scales\": [0.9, 1.0, 1.1]}}\n"
        ));
        src.push_str(&format!(
            "{{\"type\": \"transient\", \"floorplan\": \"a\", \"dynamic_w\": {d}, \"leakage_w\": 0.02, \"dt_s\": 2e-4, \"steps\": 25}}\n"
        ));
        src.push_str(&format!(
            "{{\"type\": \"map\", \"floorplan\": \"c\", \"dynamic_w\": {d}, \"leakage_w\": 0.01, \"grid\": {{\"nx\": 8, \"ny\": 8}}}}\n"
        ));
        src.push_str(&format!(
            "{{\"type\": \"steady\", \"floorplan\": \"g\", \"dynamic_w\": {d}, \"leakage_w\": 0.03, \"backend\": \"spectral\"}}\n"
        ));
        src.push_str(&format!(
            "{{\"type\": \"steady\", \"floorplan\": \"c\", \"dynamic_w\": {d}, \"leakage_w\": 0.01, \"activities\": [0.5, 1.0]}}\n"
        ));
    }
    src
}

/// Result lines with `wall_ns` normalized to 0 — the bitwise-identity
/// currency of this suite (wall time is the one legitimately
/// nondeterministic field).
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

#[test]
fn one_panicking_job_is_isolated_and_every_other_line_is_bitwise_identical() {
    let src = chaos_request_jsonl(2);
    let request = parse_jsonl(&src).expect("valid request");
    let config = FleetConfig::default();
    let engine = engine_for(&config, &request);
    let baseline = normalized_lines(&engine.run(&request.jobs), &request.jobs);

    // Targets cover a dense steady, a spectral steady, a transient and
    // a map job; faults cover both panic sites (operator build under
    // the cache's single-flight reservation, and mid-solve in the
    // power model).
    for (target, fault) in [
        (0, Fault::SolverPanic { iteration: 1 }),
        (1, Fault::SolverPanic { iteration: 2 }),
        (2, Fault::BuilderPanic),
        (3, Fault::BuilderPanic),
    ] {
        let mut chaotic = engine_for(&config, &request);
        chaotic.set_faults(Some(FaultPlan::new().inject(target, fault.clone())));
        let report = chaotic.run(&request.jobs);
        assert_eq!(report.panic_count(), 1, "{fault:?} on job {target}");
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.ok_count(), request.jobs.len() - 1);
        let lines = normalized_lines(&report, &request.jobs);
        for (j, (line, base)) in lines.iter().zip(&baseline).enumerate() {
            if j == target {
                assert!(line.contains("\"ok\":false"), "{line}");
                assert!(line.contains("worker panic: injected fault"), "{line}");
                let Err(JobError::WorkerPanic { payload }) = &report.jobs[j].outcome else {
                    panic!("job {j} should be a typed worker panic");
                };
                assert!(payload.contains("injected fault"), "{payload}");
                assert_eq!(report.jobs[j].attempts, 1, "panics never retry");
            } else {
                assert_eq!(line, base, "non-faulted job {j} diverged under {fault:?}");
            }
        }
        // Zero residual cache poisoning: the same engine (same caches)
        // serves a fault-free queue bitwise identically to a cold run.
        chaotic.set_faults(None);
        let after = chaotic.run(&request.jobs);
        assert_eq!(after.ok_count(), request.jobs.len());
        assert_eq!(normalized_lines(&after, &request.jobs), baseline);
    }
}

#[test]
fn seeded_fault_plans_scatter_mixed_faults_and_the_fleet_recovers() {
    let src = chaos_request_jsonl(8); // 40 jobs -> 5 scheduled faults
    let request = parse_jsonl(&src).expect("valid request");
    let plan = FaultPlan::seeded(0xC0FFEE, request.jobs.len());
    let scheduled: Vec<&Fault> = (0..request.jobs.len())
        .filter_map(|j| plan.fault_for(j, 1))
        .collect();
    assert!(
        scheduled
            .iter()
            .any(|f| matches!(f, Fault::SolverPanic { .. } | Fault::BuilderPanic)),
        "seed must schedule at least one panic: {scheduled:?}"
    );
    assert!(
        scheduled.iter().any(|f| matches!(f, Fault::TransientFault)),
        "seed must schedule at least one retryable fault: {scheduled:?}"
    );

    let config = FleetConfig::default();
    let engine = engine_for(&config, &request);
    let baseline = normalized_lines(&engine.run(&request.jobs), &request.jobs);

    let mut chaotic = engine_for(&config, &request);
    chaotic.set_faults(Some(plan.clone()));
    let report = chaotic.run(&request.jobs);
    let lines = normalized_lines(&report, &request.jobs);
    let mut expected_retries = 0;
    let mut expected_panics = 0;
    for (j, (line, base)) in lines.iter().zip(&baseline).enumerate() {
        match plan.fault_for(j, 1) {
            // Delays and evictions perturb timing and cache state but
            // never results.
            None | Some(Fault::Delay { .. }) | Some(Fault::EvictCaches) => {
                assert_eq!(line, base, "job {j}");
            }
            // A seeded TransientFault covers attempt 1 only: one retry,
            // then a result whose only difference is the attempts field.
            Some(Fault::TransientFault) => {
                expected_retries += 1;
                assert!(report.jobs[j].outcome.is_ok(), "job {j} retried to ok");
                assert_eq!(report.jobs[j].attempts, 2, "job {j}");
                assert!(line.contains("\"attempts\":2"), "{line}");
                assert_eq!(&line.replace(",\"attempts\":2", ""), base, "job {j}");
            }
            Some(Fault::SolverPanic { .. }) | Some(Fault::BuilderPanic) => {
                expected_panics += 1;
                assert!(line.contains("worker panic: injected fault"), "{line}");
                assert_eq!(report.jobs[j].attempts, 1, "job {j}: panics never retry");
            }
        }
    }
    assert_eq!(report.retry_count(), expected_retries);
    assert_eq!(report.panic_count(), expected_panics);
    assert_eq!(report.error_count(), expected_panics);

    // Recovery: the faulted engine drains a fault-free queue bitwise
    // identically to a cold engine.
    chaotic.set_faults(None);
    assert_eq!(
        normalized_lines(&chaotic.run(&request.jobs), &request.jobs),
        baseline
    );
}

#[test]
fn transient_faults_retry_within_budget_and_record_attempts() {
    let src = chaos_request_jsonl(1);
    let request = parse_jsonl(&src).expect("valid request");
    let config = FleetConfig {
        // Zero backoff keeps the test instant; the schedule itself is
        // covered by `backoff_is_deterministic_bounded_and_exponential`.
        retry: RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 0,
            max_delay_ms: 0,
            ..RetryPolicy::default()
        },
        ..FleetConfig::default()
    };
    let engine = engine_for(&config, &request);
    let baseline = normalized_lines(&engine.run(&request.jobs), &request.jobs);

    // Job 0 fails twice then succeeds within the 3-attempt budget; job
    // 1 fails every attempt and exhausts it.
    let plan = FaultPlan::new()
        .inject_for(0, Fault::TransientFault, 2)
        .inject_for(1, Fault::TransientFault, usize::MAX);
    let report = {
        let mut engine = engine_for(&config, &request);
        engine.set_faults(Some(plan));
        engine.run(&request.jobs)
    };
    let lines = normalized_lines(&report, &request.jobs);

    assert!(report.jobs[0].outcome.is_ok());
    assert_eq!(report.jobs[0].attempts, 3);
    assert!(lines[0].contains("\"attempts\":3"), "{}", lines[0]);
    assert_eq!(&lines[0].replace(",\"attempts\":3", ""), &baseline[0]);

    assert!(
        matches!(
            report.jobs[1].outcome,
            Err(JobError::Injected { attempt: 3 })
        ),
        "budget exhausted on the last attempt: {:?}",
        report.jobs[1].outcome
    );
    assert_eq!(report.jobs[1].attempts, 3);
    assert!(
        lines[1].contains("injected transient fault (attempt 3)"),
        "{}",
        lines[1]
    );
    assert_eq!(report.retry_count(), 4);

    // Every other job is untouched.
    for j in 2..request.jobs.len() {
        assert_eq!(&lines[j], &baseline[j], "job {j}");
    }
}

#[test]
fn permanent_errors_never_retry() {
    let src = chaos_request_jsonl(1);
    let request = parse_jsonl(&src).expect("valid request");
    // Even with the fault armed for 5 attempts, a panic is permanent:
    // one attempt, one typed error.
    let plan = FaultPlan::new().inject_for(0, Fault::BuilderPanic, 5);
    let report = {
        let mut engine = engine_for(&FleetConfig::default(), &request);
        engine.set_faults(Some(plan));
        engine.run(&request.jobs)
    };
    assert!(matches!(
        report.jobs[0].outcome,
        Err(JobError::WorkerPanic { .. })
    ));
    assert_eq!(report.jobs[0].attempts, 1);
    assert_eq!(report.retry_count(), 0);

    // Schema-level failures are permanent too.
    let engine = FleetEngineBuilder::new()
        .build()
        .expect("valid configuration");
    let report = engine.run(&request.jobs);
    assert!(report.jobs.iter().all(|j| j.attempts == 1));
    assert_eq!(report.retry_count(), 0);
}

#[test]
fn backoff_is_deterministic_bounded_and_exponential() {
    let policy = RetryPolicy::default();
    for job in 0..16 {
        let mut previous_base = 0;
        for attempt in 1..12 {
            let a = policy.backoff_delay_ms(job, attempt);
            let b = policy.backoff_delay_ms(job, attempt);
            assert_eq!(a, b, "deterministic for (job {job}, attempt {attempt})");
            assert!(a <= policy.max_delay_ms, "capped");
            let base = policy
                .base_delay_ms
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(policy.max_delay_ms);
            assert!(a >= base, "at least the exponential base");
            assert!(base >= previous_base, "base is monotone in the attempt");
            previous_base = base;
        }
    }
    // Different jitter seeds reschedule; same seed replays.
    let other = RetryPolicy {
        jitter_seed: 7,
        ..RetryPolicy::default()
    };
    let schedule = |p: &RetryPolicy| -> Vec<u64> {
        (1..8)
            .map(|attempt| p.backoff_delay_ms(3, attempt))
            .collect()
    };
    assert_eq!(schedule(&policy), schedule(&policy.clone()));
    assert_ne!(schedule(&policy), schedule(&other));
}

#[test]
fn a_blown_deadline_is_a_typed_error_with_partial_progress_not_a_killed_thread() {
    // An injected 50 ms stall against a 5 ms budget deterministically
    // blows the deadline before the first solver checkpoint.
    let src = concat!(
        r#"{"type": "floorplan", "name": "a", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.05, "seed": 1}}"#,
        "\n",
        r#"{"type": "steady", "floorplan": "a", "dynamic_w": 0.3, "leakage_w": 0.03, "vdd_scales": [0.9, 1.0, 1.1], "deadline_ms": 5}"#,
        "\n",
        r#"{"type": "transient", "floorplan": "a", "dynamic_w": 0.25, "leakage_w": 0.02, "dt_s": 2e-4, "steps": 25, "deadline_ms": 5}"#,
        "\n",
        r#"{"type": "map", "floorplan": "a", "dynamic_w": 0.2, "leakage_w": 0.02, "grid": {"nx": 8, "ny": 8}, "deadline_ms": 5}"#,
        "\n",
        r#"{"type": "steady", "floorplan": "a", "dynamic_w": 0.35, "leakage_w": 0.03}"#,
        "\n",
    );
    let request = parse_jsonl(src).expect("valid request");
    let no_deadline = {
        // The same queue without budgets: generous deadlines must be
        // invisible in the results.
        let relaxed = src.replace("\"deadline_ms\": 5", "\"deadline_ms\": 600000");
        let request = parse_jsonl(&relaxed).expect("valid request");
        let engine = engine_for(&FleetConfig::default(), &request);
        normalized_lines(&engine.run(&request.jobs), &request.jobs)
    };

    let plan = FaultPlan::new()
        .inject(0, Fault::Delay { ms: 50 })
        .inject(1, Fault::Delay { ms: 50 })
        .inject(2, Fault::Delay { ms: 50 });
    let mut engine = engine_for(&FleetConfig::default(), &request);
    engine.set_faults(Some(plan));
    let report = engine.run(&request.jobs);
    for j in 0..3 {
        let Err(JobError::DeadlineExceeded {
            elapsed_ms,
            resolved,
            total,
        }) = report.jobs[j].outcome
        else {
            panic!(
                "job {j} should be deadline-exceeded: {:?}",
                report.jobs[j].outcome
            );
        };
        assert!(
            elapsed_ms >= 50,
            "job {j}: the stall counts ({elapsed_ms} ms)"
        );
        assert_eq!(resolved, 0, "job {j}: nothing resolved before the stall");
        assert!(total > 0, "job {j} reports its requested workload");
        assert_eq!(report.jobs[j].attempts, 1, "deadlines never retry");
        let mut normalized = report.jobs[j].clone();
        normalized.wall_ns = 0;
        let line = normalized.to_json(&request.jobs[j]).render();
        assert!(line.contains("deadline exceeded after"), "{line}");
    }
    // The undeadlined job is untouched, and the engine stays reusable:
    // clearing the plan reproduces the relaxed-budget lines exactly.
    assert!(report.jobs[3].outcome.is_ok());
    engine.set_faults(None);
    assert_eq!(
        normalized_lines(&engine.run(&request.jobs), &request.jobs),
        no_deadline
    );
}

#[test]
fn deadline_ms_must_be_a_positive_integer() {
    for bad in ["0", "-5", "2.5", "\"soon\""] {
        let src = format!(
            concat!(
                r#"{{"type": "floorplan", "name": "a", "tiles": {{"rows": 1, "cols": 2}}}}"#,
                "\n",
                r#"{{"type": "steady", "floorplan": "a", "dynamic_w": 0.1, "leakage_w": 0.01, "deadline_ms": {bad}}}"#,
                "\n",
            ),
            bad = bad
        );
        let err = parse_jsonl(&src).expect_err(bad);
        assert!(err.to_string().contains("deadline_ms"), "{err}");
    }
}

#[test]
fn a_panicked_build_releases_its_reservation_and_every_waiter_recovers() {
    // Regression for the leaked-reservation hazard: the first builder
    // panics inside the single-flight reservation; all 8 concurrent
    // waiters (including the panicked caller, retrying as the fleet
    // would) must still obtain the operator — no deadlock, no poisoned
    // entry, exactly one successful rebuild.
    let plan = Arc::new(tiled(3, 3, 7));
    let cache = OperatorCache::new(4);
    let panic_once = AtomicBool::new(true);
    let build_attempts = AtomicUsize::new(0);
    let operators = ptherm_par::par_workers(8, |_| {
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.steady_operator(&plan, 2, 9, || {
                build_attempts.fetch_add(1, Ordering::Relaxed);
                if panic_once.swap(false, Ordering::Relaxed) {
                    panic!("injected fault: builder panic");
                }
            })
        }));
        match first {
            Ok(op) => op,
            Err(_) => cache.steady_operator(&plan, 2, 9, || {
                build_attempts.fetch_add(1, Ordering::Relaxed);
            }),
        }
    });
    let reference = &operators[0];
    for op in &operators {
        assert!(Arc::ptr_eq(op, reference), "all waiters share one rebuild");
    }
    assert_eq!(
        build_attempts.load(Ordering::Relaxed),
        2,
        "one panicked build attempt + exactly one successful rebuild"
    );
    // Both reservations count as misses (the panicked one cached
    // nothing); the 6 remaining waiters and the panicked caller's
    // retry all hit the rebuilt entry.
    let stats = cache.steady_stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 7);
}

// ---------------------------------------------------------------------
// Cancellation checkpoints (proptest satellite): a token fired at any
// Picard iteration / transient step / map render leaves the engine
// reusable — the next fault-free run is bitwise identical to a cold
// engine's — across the dense, spectral and map paths.
// ---------------------------------------------------------------------

fn scenario_grid() -> ScenarioGrid {
    ScenarioGrid::new(vec![Technology::cmos_120nm()])
        .vdd_scales(vec![0.9, 1.0, 1.1])
        .activities(vec![0.5, 1.0])
}

fn steady_engine(plan: &Floorplan, backend: SweepBackend) -> SweepEngine {
    SweepEngine::new(plan.clone())
        .backend(backend)
        .threads(1)
        .batch_lanes(8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cancellation_at_any_picard_checkpoint_leaves_the_engine_reusable(
        checks in 0u64..24,
        spectral in 0usize..2,
    ) {
        let plan = tiled(4, 4, 2);
        let backend = if spectral == 1 { SweepBackend::Spectral } else { SweepBackend::Dense };
        let grid = scenario_grid();
        let model = ScaledTechPower::area_weighted(&plan, 0.3, 0.03).prepared_for(&grid);

        let cold = steady_engine(&plan, backend).sweep(&grid, &model, RunOptions::new());
        let engine = steady_engine(&plan, backend);
        let token = ptherm_par::CancelToken::after_checks(checks);
        let cancelled = engine.sweep(&grid, &model, RunOptions::new().cancel(&token));
        prop_assert_eq!(cancelled.len(), grid.len(), "every scenario is accounted for");
        for (outcome, reference) in cancelled.outcomes.iter().zip(&cold.outcomes) {
            match outcome {
                SweepOutcome::Cancelled { iterations } => {
                    prop_assert!(*iterations as u64 <= checks);
                }
                resolved => prop_assert_eq!(resolved, reference),
            }
        }
        if checks == 0 {
            prop_assert!(cancelled
                .outcomes
                .iter()
                .all(|o| matches!(o, SweepOutcome::Cancelled { iterations: 0 })));
        }
        // Reusability: the cancelled engine's next fault-free run is
        // bitwise identical to the cold engine's.
        prop_assert_eq!(&engine.sweep(&grid, &model, RunOptions::new()).outcomes, &cold.outcomes);
    }

    #[test]
    fn cancellation_at_any_transient_step_leaves_the_engine_reusable(checks in 0u64..40) {
        let plan = tiled(3, 3, 5);
        let grid = scenario_grid();
        let model = ScaledTechPower::area_weighted(&plan, 0.3, 0.03).prepared_for(&grid);
        let cfg = TransientConfig::new(2e-4, 30);

        let cold_engine = steady_engine(&plan, SweepBackend::Dense);
        let top = cold_engine.transient_operator(&cfg).expect("factorable");
        let cold = cold_engine
            .transient(&grid, &model, &cfg, RunOptions::new().operator(&top))
            .expect("valid config");

        let engine = steady_engine(&plan, SweepBackend::Dense);
        let token = ptherm_par::CancelToken::after_checks(checks);
        let cancelled = engine
            .transient(&grid, &model, &cfg, RunOptions::new().operator(&top).cancel(&token))
            .expect("valid config");
        prop_assert_eq!(cancelled.len(), grid.len());
        for (outcome, reference) in cancelled.outcomes.iter().zip(&cold.outcomes) {
            match outcome {
                TransientOutcome::Cancelled { step } => {
                    prop_assert!(*step as u64 <= checks);
                }
                finished => prop_assert_eq!(finished, reference),
            }
        }
        let warm = engine
            .transient(&grid, &model, &cfg, RunOptions::new().operator(&top))
            .expect("valid config");
        prop_assert_eq!(&warm.outcomes, &cold.outcomes);
    }

    #[test]
    fn cancellation_at_any_map_render_leaves_the_engine_reusable(checks in 0u64..20) {
        let plan = tiled(3, 3, 9);
        let grid = scenario_grid();
        let model = ScaledTechPower::area_weighted(&plan, 0.3, 0.03).prepared_for(&grid);

        let cold_engine = steady_engine(&plan, SweepBackend::Dense);
        let map_op = cold_engine.map_operator(8, 8);
        let cold = cold_engine.map(&grid, &model, 8, 8, RunOptions::new().operator(&map_op));

        let engine = steady_engine(&plan, SweepBackend::Dense);
        let token = ptherm_par::CancelToken::after_checks(checks);
        let opts = RunOptions::new().operator(&map_op).cancel(&token);
        let cancelled = engine.map(&grid, &model, 8, 8, opts);
        prop_assert_eq!(cancelled.len(), grid.len());
        for (outcome, reference) in cancelled.outcomes.iter().zip(&cold.outcomes) {
            match (&outcome.map_k, &reference.map_k) {
                // A cancelled render (or a sweep cancelled before it)
                // reports no map; anything rendered must be bitwise the
                // cold render.
                (None, _) => {}
                (Some(map), Some(reference_map)) => prop_assert_eq!(map, reference_map),
                (rendered, missing) => {
                    prop_assert!(false, "rendered {rendered:?} vs {missing:?}");
                }
            }
        }
        let warm = engine.map(&grid, &model, 8, 8, RunOptions::new().operator(&map_op));
        prop_assert_eq!(warm.outcomes.len(), cold.outcomes.len());
        for (w, c) in warm.outcomes.iter().zip(&cold.outcomes) {
            prop_assert_eq!(&w.outcome, &c.outcome);
            prop_assert_eq!(&w.map_k, &c.map_k);
        }
    }
}
