//! Determinism contract of the incremental `delta` path and the
//! `envelope` job: the fingerprint-keyed result cache, retry jitter,
//! eviction faults and cache sharing between jobs are all **bitwise
//! invisible** in results. A cache miss falls back to a cold base
//! solve whose fixed points — and therefore whose warm seeds — are
//! identical to the cached ones, so hit, miss, eviction-mid-queue and
//! fresh-engine-per-job runs all emit the same bytes.

use ptherm_core::cosim::SweepOutcome;
use ptherm_fleet::{
    parse_jsonl, Fault, FaultPlan, FleetConfig, FleetEngineBuilder, FleetReport, JobRecord,
    JobReport, RetryPolicy,
};

/// A named steady base plus two identical `delta` re-solves against
/// it, then an `envelope` bisection: with a single worker the first
/// delta (job 1) always misses the result cache and the second (job 2)
/// always hits it.
const DELTA_REQUEST: &str = r#"
{"type": "floorplan", "name": "quad", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.05, "seed": 7}}
{"type": "steady", "floorplan": "quad", "name": "base", "dynamic_w": 0.25, "leakage_w": 0.02, "vdd_scales": [0.9, 1.0, 1.1], "ambients_k": [300, 320]}
{"type": "delta", "base": "base", "vdd_scales": [0.95, 1.05], "activities": [0.6, 1.0]}
{"type": "delta", "base": "base", "vdd_scales": [0.95, 1.05], "activities": [0.6, 1.0]}
{"type": "envelope", "floorplan": "quad", "dynamic_w": 0.25, "leakage_w": 0.02, "axis": "vdd_scale", "lo": 0.5, "hi": 1.5, "tolerance": 0.01, "ambients_k": [300, 320]}
"#;

fn run(faults: Option<FaultPlan>, retry: RetryPolicy) -> FleetReport {
    let request = parse_jsonl(DELTA_REQUEST).expect("valid request");
    let config = FleetConfig {
        threads: 1,
        retry,
        ..FleetConfig::default()
    };
    let mut builder = FleetEngineBuilder::new().config(config).request(&request);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let engine = builder.build().expect("valid configuration");
    engine.run(&request.jobs)
}

/// Every job on its own fresh engine: no result is ever recalled, so
/// each delta solves its base cold. Each engine's result cache must
/// report zero hits.
fn run_cold() -> Vec<JobRecord> {
    let request = parse_jsonl(DELTA_REQUEST).expect("valid request");
    let mut records = Vec::new();
    for (index, job) in request.jobs.iter().enumerate() {
        let engine = FleetEngineBuilder::new()
            .threads(1)
            .request(&request)
            .build()
            .expect("valid configuration");
        records.push(engine.run_one(job, index));
        assert_eq!(engine.cache().result_stats().hits, 0, "job {index}");
    }
    records
}

fn delta_outcomes(records: &[JobRecord], index: usize) -> (&[SweepOutcome], usize) {
    match &records[index].outcome {
        Ok(JobReport::Delta { report, seeded }) => (&report.outcomes, *seeded),
        other => panic!("job {index} is not a delta report: {other:?}"),
    }
}

/// The whole queue succeeds and the delta lanes genuinely warm-start:
/// every scenario has a converged same-tech base neighbor, so every
/// lane is seeded, and the seeded solve still converges everywhere.
#[test]
fn delta_jobs_run_end_to_end_and_seed_every_lane_from_the_base() {
    let report = run(None, RetryPolicy::default());
    assert_eq!(report.ok_count(), 4);
    for index in [1, 2] {
        let (outcomes, seeded) = delta_outcomes(&report.jobs, index);
        assert_eq!(outcomes.len(), 8, "2 vdd x 2 act x 2 ambient");
        assert_eq!(seeded, outcomes.len(), "every lane found a base seed");
        assert!(
            outcomes
                .iter()
                .all(|o| matches!(o, SweepOutcome::Converged { .. })),
            "seeded lanes all converge: {outcomes:?}"
        );
    }
}

/// Hit vs miss: job 1 populates the result cache cold, job 2 reuses
/// the cached base fixed points — and both deltas emit bitwise
/// identical outcomes, while the cache counters prove the paths
/// actually diverged underneath.
#[test]
fn result_cache_hit_and_miss_are_bitwise_identical() {
    let report = run(None, RetryPolicy::default());
    let (miss, seeded_miss) = delta_outcomes(&report.jobs, 1);
    let (hit, seeded_hit) = delta_outcomes(&report.jobs, 2);
    assert_eq!(miss, hit, "hit and miss emit the same bytes");
    assert_eq!(seeded_miss, seeded_hit);
    assert_eq!(report.result_cache.misses, 1, "job 1 solves the base cold");
    assert_eq!(report.result_cache.hits, 1, "job 2 reuses the cached base");
}

/// An eviction fault between the two deltas forces job 2 back onto the
/// cold-solve path; the fallback is bitwise identical to the cached
/// result, so eviction can never change what a client reads.
#[test]
fn eviction_mid_queue_falls_back_to_a_bitwise_identical_cold_solve() {
    let clean = run(None, RetryPolicy::default());
    let faults = FaultPlan::new().inject(2, Fault::EvictCaches);
    let evicted = run(Some(faults), RetryPolicy::default());
    assert_eq!(evicted.ok_count(), 4);
    assert_eq!(
        delta_outcomes(&clean.jobs, 2),
        delta_outcomes(&evicted.jobs, 2),
        "post-eviction delta matches the cached-path bytes"
    );
    assert_eq!(
        evicted.result_cache.misses, 2,
        "the eviction turned job 2's hit into a second cold solve"
    );
    assert_eq!(evicted.result_cache.hits, 0);
}

/// A fresh engine per job never recalls a result — every delta solves
/// its base cold — and the outputs still match the shared-cache run
/// byte for byte.
#[test]
fn cache_off_runs_match_the_amortized_bytes() {
    let amortized = run(None, RetryPolicy::default());
    let cold = run_cold();
    for index in [1, 2] {
        assert_eq!(
            delta_outcomes(&amortized.jobs, index),
            delta_outcomes(&cold, index),
            "job {index}"
        );
    }
    assert_eq!(amortized.result_cache.misses, 1);
}

/// Retry jitter is timing, not physics: a delta that fails its first
/// attempt with an injected transient fault succeeds on retry with
/// bitwise the same outcomes, under wildly different jitter seeds.
#[test]
fn retry_jitter_never_perturbs_delta_results() {
    let clean = run(None, RetryPolicy::default());
    for jitter_seed in [1, 0xDEAD_BEEF] {
        let retry = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 4,
            jitter_seed,
        };
        let faults = FaultPlan::new().inject(1, Fault::TransientFault);
        let retried = run(Some(faults), retry);
        assert_eq!(retried.ok_count(), 4, "the fault is absorbed by retry");
        assert_eq!(retried.retry_count(), 1);
        for index in [1, 2] {
            assert_eq!(
                delta_outcomes(&clean.jobs, index),
                delta_outcomes(&retried.jobs, index),
                "seed {jitter_seed:#x}, job {index}"
            );
        }
    }
}

/// The `envelope` job runs end to end: every fiber resolves to a typed
/// boundary, and bisection provably spends fewer solves than the
/// exhaustive march the report also prices.
#[test]
fn envelope_jobs_resolve_every_fiber_with_fewer_solves_than_exhaustive() {
    let report = run(None, RetryPolicy::default());
    let envelope = match &report.jobs[3].outcome {
        Ok(JobReport::Envelope(e)) => e,
        other => panic!("job 3 is not an envelope report: {other:?}"),
    };
    assert_eq!(envelope.len(), 2, "one fiber per ambient");
    assert_eq!(envelope.resolved_count(), envelope.len());
    assert!(envelope.solves > 0);
    assert!(
        envelope.solves < envelope.exhaustive_solves / 4,
        "bisection beats the exhaustive march 4x: {} vs {}",
        envelope.solves,
        envelope.exhaustive_solves
    );
}
