//! Fleet-layer correctness: cache semantics (LRU, single-flight,
//! counters), fingerprint keying, cross-thread bit-identity of cached
//! operators, and scheduler determinism across thread counts and cache
//! states.

use proptest::prelude::*;
use ptherm_core::cosim::{ThermalOperator, TransientError};
use ptherm_fleet::{
    parse_jsonl, CacheStats, FleetEngineBuilder, FleetReport, JobRecord, JobReport, Lru,
    OperatorCache,
};
use ptherm_floorplan::{generator, ChipGeometry, Floorplan};
use ptherm_math::ode::ImplicitScheme;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tiled(rows: usize, cols: usize, seed: u64) -> Arc<Floorplan> {
    Arc::new(
        generator::tiled(ChipGeometry::paper_1mm(), rows, cols, 0.01, 0.05, seed)
            .expect("valid tiling"),
    )
}

#[test]
fn lru_evicts_the_least_recently_used_under_a_tiny_capacity() {
    let cache: Lru<u64, u64> = Lru::new(2);
    let builds = AtomicUsize::new(0);
    let get = |key: u64| {
        let v: Result<Arc<u64>, std::convert::Infallible> = cache.get_or_build(key, || {
            builds.fetch_add(1, Ordering::Relaxed);
            Ok(key * 10)
        });
        *v.unwrap()
    };
    assert_eq!(get(1), 10);
    assert_eq!(get(2), 20);
    assert_eq!(get(1), 10); // hit: 1 becomes most recent
    assert_eq!(get(3), 30); // evicts 2, the least recently used
    assert_eq!(
        cache.stats(),
        CacheStats {
            hits: 1,
            misses: 3,
            evictions: 1
        }
    );
    assert_eq!(cache.len(), 2);
    // 2 was evicted: getting it again rebuilds (and evicts 1, since the
    // get(3) touch made 3 more recent).
    assert_eq!(get(2), 20);
    assert_eq!(builds.load(Ordering::Relaxed), 4);
    assert_eq!(get(3), 30);
    assert_eq!(cache.stats().hits, 2);
    assert_eq!(cache.stats().evictions, 2);
}

#[test]
fn single_flight_builds_once_under_concurrent_misses() {
    let cache: Lru<u64, u64> = Lru::new(4);
    let builds = AtomicUsize::new(0);
    let values = ptherm_par::par_workers(8, |_| {
        let v: Result<Arc<u64>, std::convert::Infallible> = cache.get_or_build(7, || {
            builds.fetch_add(1, Ordering::Relaxed);
            // Widen the race window so concurrent misses actually pile
            // up on the in-flight build.
            std::thread::sleep(std::time::Duration::from_millis(20));
            Ok(42)
        });
        *v.unwrap()
    });
    assert!(values.iter().all(|&v| v == 42));
    assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, 8);
    assert_eq!(stats.misses, 1, "waiters hit the freshly built entry");
}

#[test]
fn failed_builds_cache_nothing_and_release_waiters() {
    let cache: Lru<u64, u64> = Lru::new(4);
    let attempts = AtomicUsize::new(0);
    let outcomes = ptherm_par::par_workers(4, |_| {
        cache.get_or_build(1, || {
            attempts.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(5));
            Err::<u64, &str>("nope")
        })
    });
    // Every caller eventually gets an answer (no deadlock); every
    // answer is the error; nothing is cached.
    assert!(outcomes.iter().all(|o| o.is_err()));
    assert_eq!(cache.len(), 0);
    assert_eq!(attempts.load(Ordering::Relaxed), 4, "each waiter retried");
    // A later successful build works.
    let v: Result<Arc<u64>, &str> = cache.get_or_build(1, || Ok(5));
    assert_eq!(*v.unwrap(), 5);
}

#[test]
fn cross_thread_cache_hits_are_bit_identical_to_a_cold_factorization() {
    let plan = tiled(3, 3, 11);
    let cache = OperatorCache::new(8);
    let caps = ptherm_core::thermal::capacitance::silicon_block_capacitances(&plan);
    let dt = 1e-4;

    let results = ptherm_par::par_workers(8, |_| {
        let op = cache.steady_operator(&plan, 2, 9, || {});
        let top = cache
            .transient_operator(&plan, &op, dt, ImplicitScheme::Trapezoidal)
            .expect("factorable");
        (op, top)
    });

    // Cold references, built with no cache involved.
    let cold_op = ThermalOperator::with_image_orders_threaded(&plan, 2, 9, 1);
    let cold_top = ptherm_core::cosim::TransientOperator::new(
        &cold_op,
        &caps,
        dt,
        ImplicitScheme::Trapezoidal,
    )
    .expect("factorable");

    let (first_op, first_top) = &results[0];
    for (op, top) in &results {
        // All workers share the same Arc (single-flight), and the shared
        // value is bitwise the cold build.
        assert!(Arc::ptr_eq(op, first_op));
        assert!(Arc::ptr_eq(top, first_top));
        assert_eq!(op.influence().as_slice(), cold_op.influence().as_slice());
        assert_eq!(
            top.propagator().as_slice(),
            cold_top.propagator().as_slice()
        );
        assert_eq!(top.injection().as_slice(), cold_top.injection().as_slice());
    }
    let stats = cache.steady_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 7);
}

#[test]
fn steady_cache_keys_on_geometry_so_power_edits_still_hit() {
    let plan = tiled(2, 2, 3);
    let mut repowered = (*plan).clone();
    repowered.set_power(0, 7.0);
    let repowered = Arc::new(repowered);
    // The full content fingerprint changes with power...
    assert_ne!(plan.fingerprint(), repowered.fingerprint());
    // ...but the operator reads only geometry, so the cache shares one
    // entry between the two (a hit, same Arc).
    let cache = OperatorCache::new(4);
    let a = cache.steady_operator(&plan, 2, 9, || {});
    let b = cache.steady_operator(&repowered, 2, 9, || {});
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!(cache.steady_stats().hits, 1);
    // Different image orders are different keys.
    let c = cache.steady_operator(&plan, 2, 5, || {});
    assert!(!Arc::ptr_eq(&a, &c));
    assert_eq!(cache.steady_stats().misses, 2);
}

#[test]
fn transient_cache_misses_on_dt_and_scheme_changes() {
    let plan = tiled(2, 2, 5);
    let cache = OperatorCache::new(8);
    let op = cache.steady_operator(&plan, 2, 9, || {});
    let a = cache
        .transient_operator(&plan, &op, 1e-4, ImplicitScheme::Trapezoidal)
        .unwrap();
    for (dt, scheme) in [
        (2e-4, ImplicitScheme::Trapezoidal),
        (1e-4, ImplicitScheme::BackwardEuler),
    ] {
        let other = cache.transient_operator(&plan, &op, dt, scheme).unwrap();
        assert!(!Arc::ptr_eq(&a, &other));
    }
    // Identical inputs hit.
    let again = cache
        .transient_operator(&plan, &op, 1e-4, ImplicitScheme::Trapezoidal)
        .unwrap();
    assert!(Arc::ptr_eq(&a, &again));
    let stats = cache.transient_stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits, 1);
}

#[test]
fn transient_factorization_errors_are_typed_not_cached() {
    let plan = tiled(2, 2, 5);
    let cache = OperatorCache::new(8);
    let op = cache.steady_operator(&plan, 2, 9, || {});
    // An operator of another floorplan: its block count disagrees with
    // the capacitances the accessor derives.
    let other = cache.steady_operator(&tiled(3, 3, 5), 2, 9, || {});
    let err = cache
        .transient_operator(&plan, &other, 1e-4, ImplicitScheme::Trapezoidal)
        .unwrap_err();
    assert!(matches!(err, TransientError::DimensionMismatch { .. }));
    // A bad step is typed every time: the failed build cached nothing,
    // so the second attempt misses again instead of hitting an entry.
    for _ in 0..2 {
        let err = cache
            .transient_operator(&plan, &op, 0.0, ImplicitScheme::Trapezoidal)
            .unwrap_err();
        assert!(matches!(err, TransientError::BadStep { .. }));
    }
    let stats = cache.transient_stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 3);
}

#[test]
fn recorded_recipes_rekey_to_their_fingerprints_and_nothing_else() {
    let plan = tiled(4, 4, 2);
    let cache = OperatorCache::new(8);
    let op = cache.steady_operator(&plan, 2, 9, || {});
    cache
        .transient_operator(&plan, &op, 1e-4, ImplicitScheme::Trapezoidal)
        .unwrap();
    cache.map_operator(&plan, 2, 9, 8, 8);
    cache
        .spectral_operator(&plan, 2, 9, 1e-6, || {})
        .expect("on grid");
    let recipes = cache.recipes();
    assert_eq!(recipes.len(), 4, "one recipe per cached operator");
    let keys: Vec<u64> = recipes.iter().map(|(key, _)| *key).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "fingerprint order");

    // Under other image orders every recipe keys elsewhere: stale, and
    // rejected before anything is built.
    let fresh = OperatorCache::new(8);
    for (fingerprint, recipe) in &recipes {
        assert!(!fresh.warm(*fingerprint, recipe, 2, 5), "{:?}", recipe.kind);
    }
    let misses = |c: &OperatorCache| {
        c.steady_stats().misses
            + c.transient_stats().misses
            + c.map_stats().misses
            + c.spectral_stats().misses
    };
    assert_eq!(misses(&fresh), 0);
    // Under the recording orders each recipe rekeys to its fingerprint,
    // and warming rebuilds exactly the entries the source cache held.
    for (fingerprint, recipe) in &recipes {
        assert!(fresh.warm(*fingerprint, recipe, 2, 9), "{:?}", recipe.kind);
    }
    let rewarmed: Vec<u64> = fresh.recipes().iter().map(|(key, _)| *key).collect();
    assert_eq!(rewarmed, keys);
}

const FLEET_REQUEST: &str = r#"
{"type": "floorplan", "name": "a", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.05, "seed": 1}}
{"type": "floorplan", "name": "b", "tiles": {"rows": 3, "cols": 2, "p_min": 0.01, "p_max": 0.04, "seed": 2}}
{"type": "floorplan", "name": "c", "blocks": [{"name": "hot", "cx": 0.5e-3, "cy": 0.5e-3, "w": 0.3e-3, "l": 0.3e-3, "power": 0.2}]}
{"type": "steady", "floorplan": "a", "dynamic_w": 0.3, "leakage_w": 0.03, "vdd_scales": [0.9, 1.0, 1.1], "ambients_k": [300, 330]}
{"type": "transient", "floorplan": "b", "dynamic_w": 0.25, "leakage_w": 0.02, "dt_s": 2e-4, "steps": 40, "waveforms": ["step", {"square": {"frequency": 3, "duty": 0.5}}]}
{"type": "steady", "floorplan": "b", "dynamic_w": 0.2, "leakage_w": 0.02}
{"type": "steady", "floorplan": "a", "dynamic_w": 0.35, "leakage_w": 0.03}
{"type": "transient", "floorplan": "c", "dynamic_w": 0.15, "leakage_w": 0.01, "dt_s": 1e-4, "steps": 30, "scheme": "backward_euler"}
{"type": "transient", "floorplan": "a", "dynamic_w": 0.3, "leakage_w": 0.03, "dt_s": 2e-4, "steps": 25}
{"type": "steady", "floorplan": "c", "dynamic_w": 0.1, "leakage_w": 0.01, "activities": [0.5, 1.0]}
"#;

/// Runs every job of `text` on one shared engine with `threads`
/// workers.
fn run(text: &str, threads: usize) -> FleetReport {
    let request = parse_jsonl(text).expect("valid request");
    let engine = FleetEngineBuilder::new()
        .threads(threads)
        .request(&request)
        .build()
        .expect("valid configuration");
    engine.run(&request.jobs)
}

fn run_fleet(threads: usize) -> FleetReport {
    run(FLEET_REQUEST, threads)
}

/// The cold reference: every job of `text` on its own fresh engine, so
/// no job reuses another's operators. Each engine's caches must report
/// zero hits — the reference pays for everything it uses.
fn run_cold(text: &str) -> Vec<JobRecord> {
    let request = parse_jsonl(text).expect("valid request");
    let mut records = Vec::new();
    for (index, job) in request.jobs.iter().enumerate() {
        let engine = FleetEngineBuilder::new()
            .threads(1)
            .request(&request)
            .build()
            .expect("valid configuration");
        records.push(engine.run_one(job, index));
        let cache = engine.cache();
        for stats in [
            cache.steady_stats(),
            cache.transient_stats(),
            cache.map_stats(),
            cache.spectral_stats(),
            cache.result_stats(),
        ] {
            assert_eq!(stats.hits, 0, "job {index}'s reference engine hit a cache");
        }
    }
    records
}

fn assert_reports_bit_identical(a: &[JobRecord], b: &[JobRecord]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index);
        match (&x.outcome, &y.outcome) {
            (Ok(JobReport::Steady(p)), Ok(JobReport::Steady(q))) => {
                assert_eq!(p.outcomes, q.outcomes, "job {}", x.index);
            }
            (Ok(JobReport::Transient(p)), Ok(JobReport::Transient(q))) => {
                assert_eq!(p.outcomes, q.outcomes, "job {}", x.index);
            }
            (Ok(JobReport::Map(p)), Ok(JobReport::Map(q))) => {
                assert_eq!((p.nx, p.ny), (q.nx, q.ny), "job {}", x.index);
                for (mo, qo) in p.outcomes.iter().zip(&q.outcomes) {
                    assert_eq!(mo.outcome, qo.outcome, "job {}", x.index);
                    assert_eq!(mo.map_k, qo.map_k, "job {}", x.index);
                }
            }
            (p, q) => panic!("job {} outcome kinds diverged: {p:?} vs {q:?}", x.index),
        }
    }
}

#[test]
fn fleet_results_are_independent_of_thread_count() {
    let serial = run_fleet(1);
    assert_eq!(serial.jobs.len(), 7);
    assert_eq!(serial.ok_count(), 7);
    for threads in [2, 8] {
        let parallel = run_fleet(threads);
        assert_reports_bit_identical(&serial.jobs, &parallel.jobs);
    }
}

#[test]
fn cache_amortization_is_bitwise_invisible_in_results() {
    let amortized = run_fleet(4);
    let factor_per_job = run_cold(FLEET_REQUEST);
    assert_reports_bit_identical(&amortized.jobs, &factor_per_job);
    // But very visible in the counters: 3 distinct floorplans at one
    // image-order config = 3 steady builds; 4 steady-operator lookups
    // come from the 4 steady jobs and 3 more from the transient jobs
    // (each transient needs the floorplan operator too) = 7 lookups.
    let stats = amortized.steady_cache;
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits + stats.misses, 7);
    // Transients: 3 distinct (floorplan, caps, dt, scheme) keys.
    assert_eq!(amortized.transient_cache.misses, 3);
}

#[test]
fn unknown_floorplan_is_a_per_job_error_not_a_panic() {
    let request = parse_jsonl(
        r#"
{"type": "floorplan", "name": "real", "tiles": {"rows": 1, "cols": 2}}
{"type": "steady", "floorplan": "real", "dynamic_w": 0.1, "leakage_w": 0.01}
"#,
    )
    .unwrap();
    // Build an engine *without* the floorplan to simulate a stale
    // reference (the parser catches this for well-formed requests).
    let engine = FleetEngineBuilder::new()
        .build()
        .expect("valid configuration");
    let report = engine.run(&request.jobs);
    assert_eq!(report.ok_count(), 0);
    let err = report.jobs[0].outcome.as_ref().unwrap_err();
    assert!(err.to_string().contains("real"));
    // The record still renders a result line.
    let line = report.jobs[0].to_json(&request.jobs[0]).render();
    assert!(line.contains("\"ok\":false"));
}

#[test]
fn result_lines_render_valid_json() {
    let report = run_fleet(2);
    let request = parse_jsonl(FLEET_REQUEST).unwrap();
    for record in &report.jobs {
        let line = record.to_json(&request.jobs[record.index]).render();
        let parsed = ptherm_fleet::Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("ok").and_then(|j| j.as_bool()), Some(true));
        assert!(parsed.get("max_peak_k").and_then(|j| j.as_f64()).unwrap() > 300.0);
    }
}

const MAP_REQUEST: &str = r#"
{"type": "floorplan", "name": "a", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.05, "seed": 1}}
{"type": "floorplan", "name": "b", "blocks": [{"name": "hot", "cx": 0.5e-3, "cy": 0.5e-3, "w": 0.3e-3, "l": 0.3e-3, "power": 0.2}]}
{"type": "map", "floorplan": "a", "dynamic_w": 0.3, "leakage_w": 0.03, "grid": {"nx": 16, "ny": 16}, "vdd_scales": [0.9, 1.1]}
{"type": "map", "floorplan": "a", "dynamic_w": 0.25, "leakage_w": 0.02, "grid": {"nx": 16, "ny": 16}}
{"type": "map", "floorplan": "b", "dynamic_w": 0.2, "leakage_w": 0.02, "grid": {"nx": 12, "ny": 10}}
{"type": "steady", "floorplan": "a", "dynamic_w": 0.3, "leakage_w": 0.03}
"#;

fn run_map_fleet(threads: usize) -> FleetReport {
    run(MAP_REQUEST, threads)
}

#[test]
fn map_jobs_run_end_to_end_and_amortize_the_kernel_cache() {
    let amortized = run_map_fleet(4);
    assert_eq!(amortized.ok_count(), 4);
    // Two map jobs share floorplan "a" at the same 16x16 grid: one
    // kernel build, one hit; floorplan "b" at 12x10 is its own build.
    let stats = amortized.map_cache;
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 1);
    // Every map job's result carries rendered maps for its converged
    // scenarios, at the requested resolution.
    let request = parse_jsonl(MAP_REQUEST).unwrap();
    for record in &amortized.jobs {
        let Ok(JobReport::Map(report)) = &record.outcome else {
            continue;
        };
        let ptherm_fleet::JobSpec::Map(spec) = &request.jobs[record.index] else {
            panic!("kind mismatch")
        };
        assert_eq!((report.nx, report.ny), (spec.nx, spec.ny));
        assert_eq!(report.converged_count(), report.len());
        for outcome in &report.outcomes {
            let map = outcome.map_k.as_deref().expect("converged scenario maps");
            assert_eq!(map.len(), spec.nx * spec.ny);
            assert!(map.iter().all(|&t| t > 300.0));
        }
    }
    // Amortization is bitwise invisible in the results themselves.
    assert_reports_bit_identical(&amortized.jobs, &run_cold(MAP_REQUEST));
}

#[test]
fn map_fleet_results_are_independent_of_thread_count() {
    let serial = run_map_fleet(1);
    for threads in [2, 8] {
        assert_reports_bit_identical(&serial.jobs, &run_map_fleet(threads).jobs);
    }
}

#[test]
fn map_result_lines_carry_the_grid() {
    let report = run_map_fleet(2);
    let request = parse_jsonl(MAP_REQUEST).unwrap();
    for record in &report.jobs {
        let line = record.to_json(&request.jobs[record.index]).render();
        let parsed = ptherm_fleet::Json::parse(&line).expect("valid JSON");
        let kind = parsed.get("kind").and_then(|j| j.as_str()).unwrap();
        let grid = parsed.get("grid").and_then(|j| j.as_array());
        if kind == "map" {
            let dims: Vec<usize> = grid
                .unwrap()
                .iter()
                .map(|d| d.as_usize().unwrap())
                .collect();
            assert!(dims == [16, 16] || dims == [12, 10]);
            assert!(parsed.get("max_peak_k").and_then(|j| j.as_f64()).unwrap() > 300.0);
        } else {
            assert!(grid.is_none(), "non-map jobs carry no grid field");
        }
    }
}

#[test]
fn map_cache_keys_on_geometry_grid_and_orders() {
    let plan = tiled(2, 2, 3);
    let cache = OperatorCache::new(8);
    let a = cache.map_operator(&plan, 2, 9, 8, 8);
    // Power edits still hit (the kernel is power-blind).
    let mut repowered = (*plan).clone();
    repowered.set_power(0, 7.0);
    let b = cache.map_operator(&Arc::new(repowered), 2, 9, 8, 8);
    assert!(Arc::ptr_eq(&a, &b));
    // Grid dims and image orders are part of the key.
    for (lat, z, nx, ny) in [(2, 9, 8, 16), (2, 9, 16, 8), (1, 9, 8, 8), (2, 5, 8, 8)] {
        let other = cache.map_operator(&plan, lat, z, nx, ny);
        assert!(!Arc::ptr_eq(&a, &other), "({lat},{z},{nx},{ny})");
    }
    let stats = cache.map_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 5);
}

const SPECTRAL_REQUEST: &str = r#"
{"type": "floorplan", "name": "g", "tiles": {"rows": 4, "cols": 4, "p_min": 0.01, "p_max": 0.05, "seed": 2}}
{"type": "steady", "floorplan": "g", "dynamic_w": 0.3, "leakage_w": 0.03, "backend": "spectral", "vdd_scales": [0.9, 1.0, 1.1]}
{"type": "steady", "floorplan": "g", "dynamic_w": 0.3, "leakage_w": 0.03, "backend": "spectral", "vdd_scales": [0.9, 1.0, 1.1]}
{"type": "steady", "floorplan": "g", "dynamic_w": 0.3, "leakage_w": 0.03, "backend": "dense", "vdd_scales": [0.9, 1.0, 1.1]}
"#;

fn run_spectral_fleet(threads: usize) -> FleetReport {
    run(SPECTRAL_REQUEST, threads)
}

#[test]
fn spectral_jobs_are_bitwise_invariant_across_cache_state_and_threads() {
    use ptherm_core::cosim::SweepBackend;
    let cached = run_spectral_fleet(1);
    assert_eq!(cached.ok_count(), 3);
    // The two identical spectral jobs share one cached build; the dense
    // job never touches the spectral cache.
    assert_eq!(cached.spectral_cache.misses, 1);
    assert_eq!(cached.spectral_cache.hits, 1);
    assert_eq!(cached.jobs[0].backend, Some(SweepBackend::Spectral));
    assert_eq!(cached.jobs[1].backend, Some(SweepBackend::Spectral));
    assert_eq!(cached.jobs[2].backend, Some(SweepBackend::Dense));
    // Identical spectral jobs are bitwise equal to each other...
    let (Ok(JobReport::Steady(a)), Ok(JobReport::Steady(b))) =
        (&cached.jobs[0].outcome, &cached.jobs[1].outcome)
    else {
        panic!("steady spectral jobs")
    };
    assert_eq!(a.outcomes, b.outcomes);
    // ...and cold (per-job engine) and threaded runs are bitwise equal
    // to the cached serial run.
    assert_reports_bit_identical(&cached.jobs, &run_cold(SPECTRAL_REQUEST));
    assert_reports_bit_identical(&cached.jobs, &run_spectral_fleet(4).jobs);
    // Result lines carry the backend that actually ran.
    let request = parse_jsonl(SPECTRAL_REQUEST).unwrap();
    let line = cached.jobs[0].to_json(&request.jobs[0]).render();
    assert!(line.contains("\"backend\":\"spectral\""), "{line}");
    let line = cached.jobs[2].to_json(&request.jobs[2]).render();
    assert!(line.contains("\"backend\":\"dense\""), "{line}");
}

#[test]
fn spectral_cache_keys_on_grid_orders_and_tolerance() {
    let plan = tiled(4, 4, 2);
    let cache = OperatorCache::new(8);
    let a = cache
        .spectral_operator(&plan, 2, 9, 1e-6, || {})
        .expect("on grid");
    // Power edits still hit (rasterization and refinement are per-watt).
    let mut repowered = (*plan).clone();
    repowered.set_power(0, 7.0);
    let b = cache
        .spectral_operator(&Arc::new(repowered), 2, 9, 1e-6, || {})
        .expect("on grid");
    assert!(Arc::ptr_eq(&a, &b));
    // Image orders and the refinement tolerance are part of the key.
    for (lat, z, tol) in [(1, 9, 1e-6), (2, 5, 1e-6), (2, 9, 1e-3)] {
        let other = cache
            .spectral_operator(&plan, lat, z, tol, || {})
            .expect("on grid");
        assert!(!Arc::ptr_eq(&a, &other), "({lat},{z},{tol})");
    }
    let stats = cache.spectral_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 4);
    // An off-grid floorplan is a typed error and caches nothing.
    let offgrid = Arc::new(Floorplan::paper_three_blocks());
    assert!(cache
        .spectral_operator(&offgrid, 2, 9, 1e-6, || {})
        .is_err());
    assert_eq!(cache.spectral_stats().misses, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fingerprint equality ⇒ bit-identical operator entries: floorplans
    /// built from the same generator parameters fingerprint equal and
    /// must produce byte-equal influence matrices; a perturbed die
    /// geometry must change the fingerprint.
    #[test]
    fn fingerprint_equality_implies_identical_operators(
        rows in 1usize..4,
        cols in 1usize..4,
        seed in 0u64..32,
        z_order in 1usize..6,
        thickness_scale in 1.0f64..1.5,
    ) {
        let a = generator::tiled(ChipGeometry::paper_1mm(), rows, cols, 0.01, 0.06, seed).unwrap();
        let b = generator::tiled(ChipGeometry::paper_1mm(), rows, cols, 0.01, 0.06, seed).unwrap();
        prop_assert_eq!(a.geometry_fingerprint(), b.geometry_fingerprint());
        let op_a = ThermalOperator::with_image_orders(&a, 2, z_order);
        let op_b = ThermalOperator::with_image_orders(&b, 2, z_order);
        prop_assert_eq!(op_a.fingerprint(), op_b.fingerprint());
        prop_assert_eq!(op_a.influence().as_slice(), op_b.influence().as_slice());

        // Any geometry perturbation must separate the fingerprints (the
        // converse direction: unequal inputs never alias a cache key).
        let geometry = ChipGeometry {
            thickness: ChipGeometry::paper_1mm().thickness * thickness_scale,
            ..ChipGeometry::paper_1mm()
        };
        let c = generator::tiled(geometry, rows, cols, 0.01, 0.06, seed).unwrap();
        if thickness_scale != 1.0 {
            prop_assert_ne!(a.geometry_fingerprint(), c.geometry_fingerprint());
            prop_assert_ne!(
                op_a.fingerprint(),
                ThermalOperator::with_image_orders(&c, 2, z_order).fingerprint()
            );
        }
    }
}
