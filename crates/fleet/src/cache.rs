//! Fingerprint-keyed, bounded, single-flight LRU caches for expensive
//! precomputations.
//!
//! A fleet serving heterogeneous jobs pays one dominant cold cost per
//! job: assembling the floorplan's thermal influence operator
//! (`O(n²·images)` kernel evaluations, ~tens of milliseconds at 64
//! blocks) and, for transients, LU-factoring the implicit propagator.
//! Both are **pure functions of a small key** — the content fingerprints
//! of `ptherm_floorplan::fingerprint` — so a cache turns a fleet of `J`
//! jobs over `F` distinct floorplans from `J` factorizations into `F`.
//!
//! Design points of [`Lru`]:
//!
//! * **bounded** — at most `capacity` ready entries; the least recently
//!   *used* (not inserted) is evicted, and evictions are counted,
//! * **single-flight** — when several workers miss the same key at
//!   once, exactly one builds while the rest block on a condvar and
//!   share the result; a fleet ramping 16 workers onto 16 floorplans
//!   never builds an operator twice,
//! * **value-immutable** — values live behind `Arc`, shared read-only,
//!   which is safe precisely because fingerprint equality implies the
//!   build output is bit-identical (a cache hit can never change any
//!   temperature; the test suite asserts this bitwise).
//!
//! [`OperatorCache`] is the one place the fleet keys its artifacts: its
//! accessors derive each fingerprint, and every operator entry records
//! the [`CacheRecipe`] that rebuilds it, so what [`crate::persist`]
//! saves is exactly what the caches hold.

use crate::jobs::{steady_result_fingerprint, SteadyJob};
use ptherm_core::cosim::{
    infer_grid, operator_fingerprint, propagator_fingerprint, spectral_operator_fingerprint,
    SpectralGridError, SpectralOperator, SweepReport, ThermalOperator, TransientError,
    TransientOperator,
};
use ptherm_core::thermal::capacitance::silicon_block_capacitances;
use ptherm_core::thermal::map::{map_operator_fingerprint, MapOperator};
use ptherm_floorplan::Floorplan;
use ptherm_math::ode::ImplicitScheme;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Monotonic counters of one cache's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that ran a build — exactly the cold work performed.
    /// A caller that blocked on another worker's in-flight build counts
    /// as a *hit* once the entry lands: no build ran on its behalf.
    pub misses: u64,
    /// Ready entries discarded to respect the capacity bound.
    pub evictions: u64,
}

/// One slot: a ready value, or a reservation for an in-flight build.
#[derive(Debug)]
struct Entry<V> {
    /// `None` while the owning worker is still building.
    value: Option<Arc<V>>,
    /// Tick of the last hit (or the insertion), for LRU ordering.
    last_used: u64,
}

#[derive(Debug)]
struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    tick: u64,
}

/// Bounded single-flight LRU cache (see the [module docs](self)).
#[derive(Debug)]
pub struct Lru<K, V> {
    inner: Mutex<Inner<K, V>>,
    ready: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` ready entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cache that can hold nothing
    /// would still advertise hits).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Lru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Capacity bound (ready entries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ready entries currently cached.
    pub fn len(&self) -> usize {
        self.lock()
            .map
            .values()
            .filter(|e| e.value.is_some())
            .count()
    }

    /// Every ready entry's key and value, in no particular order.
    fn ready(&self) -> Vec<(K, Arc<V>)> {
        self.lock()
            .map
            .iter()
            .filter_map(|(key, e)| e.value.as_ref().map(|v| (key.clone(), Arc::clone(v))))
            .collect()
    }

    /// True when no ready entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<K, V>> {
        // A builder that panics leaves its reservation behind; recovery
        // below removes it, so the poisoned-lock state itself is benign.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// The value under `key`, building it with `build` on a miss.
    ///
    /// Exactly one caller runs `build` per missing key at a time; every
    /// concurrent caller for the same key blocks until the build lands
    /// and shares the same `Arc`. `build` runs **outside** the cache
    /// lock, so builds for different keys proceed in parallel. A failed
    /// build caches nothing: the error is returned to the builder, one
    /// blocked waiter retries the build, and later lookups miss again.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let mut inner = self.lock();
        loop {
            // One probe, no re-lookup: splitting the guard lets the LRU
            // clock advance while the entry stays mutably borrowed.
            let probe = {
                let inner = &mut *inner;
                match inner.map.get_mut(&key) {
                    Some(entry) => match entry.value.as_ref().map(Arc::clone) {
                        Some(value) => {
                            inner.tick += 1;
                            entry.last_used = inner.tick;
                            Some(Some(value))
                        }
                        None => Some(None),
                    },
                    None => None,
                }
            };
            match probe {
                Some(Some(value)) => {
                    drop(inner);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
                // Another worker is building this key: wait for the
                // slot to resolve (ready, or removed on failure), then
                // re-examine it.
                Some(None) => {
                    inner = self
                        .ready
                        .wait(inner)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                None => break,
            }
        }
        // Reserve the key and build outside the lock.
        inner.tick += 1;
        let reserved_at = inner.tick;
        inner.map.insert(
            key.clone(),
            Entry {
                value: None,
                last_used: reserved_at,
            },
        );
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = BuildGuard::run(self, &key, build)?;

        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.value = Some(Arc::clone(&built));
            entry.last_used = tick;
        }
        self.evict_over_capacity(&mut inner);
        drop(inner);
        self.ready.notify_all();
        Ok(built)
    }

    /// Discards every **ready** entry, counting each as an eviction,
    /// and returns how many were dropped. In-flight reservations are
    /// left alone — their builders are about to insert, and removing a
    /// reservation out from under its `BuildGuard` would break the
    /// single-flight protocol. The fault-injection harness uses this
    /// ([`Fault::EvictCaches`](crate::Fault::EvictCaches)) to force
    /// rebuild-under-traffic; correctness is unaffected because
    /// fingerprint-keyed builds are deterministic.
    pub fn clear(&self) -> u64 {
        let mut inner = self.lock();
        let ready: Vec<K> = inner
            .map
            .iter()
            .filter(|(_, e)| e.value.is_some())
            .map(|(k, _)| k.clone())
            .collect();
        let dropped = ready.len() as u64;
        for key in ready {
            inner.map.remove(&key);
        }
        drop(inner);
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Evicts least-recently-used ready entries until the ready count
    /// respects the capacity. In-flight reservations are never evicted
    /// (their builders are about to insert) and do not count against
    /// the bound.
    fn evict_over_capacity(&self, inner: &mut Inner<K, V>) {
        loop {
            let ready = inner.map.values().filter(|e| e.value.is_some()).count();
            if ready <= self.capacity {
                return;
            }
            if let Some(oldest) = inner
                .map
                .iter()
                .filter(|(_, e)| e.value.is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                return;
            }
        }
    }
}

/// Removes a reservation if its build unwinds or errors, so waiters are
/// released instead of deadlocking on a slot nobody will fill.
struct BuildGuard<'a, K: Eq + Hash + Clone, V> {
    cache: &'a Lru<K, V>,
    key: &'a K,
    armed: bool,
}

impl<'a, K: Eq + Hash + Clone, V> BuildGuard<'a, K, V> {
    fn run<E>(
        cache: &'a Lru<K, V>,
        key: &'a K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let mut guard = BuildGuard {
            cache,
            key,
            armed: true,
        };
        let value = build();
        match value {
            Ok(v) => {
                guard.armed = false;
                Ok(Arc::new(v))
            }
            Err(e) => Err(e), // guard drops armed: reservation removed, waiters woken
        }
    }
}

impl<K: Eq + Hash + Clone, V> Drop for BuildGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.lock();
            // Only remove our own reservation, never a ready entry a
            // retrying waiter may have installed since.
            if inner.map.get(self.key).is_some_and(|e| e.value.is_none()) {
                inner.map.remove(self.key);
            }
            drop(inner);
            self.cache.ready.notify_all();
        }
    }
}

/// How to rebuild one cached operator from its floorplan.
#[derive(Debug, Clone, PartialEq)]
pub enum RecipeKind {
    /// Dense steady-state [`ThermalOperator`] (the engine's configured
    /// image orders are part of the fingerprint, not the recipe).
    Steady,
    /// [`SpectralOperator`] at a refinement tolerance (the tile grid is
    /// re-inferred from the floorplan).
    Spectral {
        /// Refinement tolerance the operator was built at.
        tolerance: f64,
    },
    /// Transient propagator over the floorplan's steady operator and
    /// silicon block capacitances.
    Transient {
        /// Time step, s.
        dt_s: f64,
        /// Implicit scheme.
        scheme: ImplicitScheme,
    },
    /// Pixel-grid [`MapOperator`].
    Map {
        /// Horizontal pixel count.
        nx: usize,
        /// Vertical pixel count.
        ny: usize,
    },
}

/// One cached operator's rebuild recipe: the floorplan it was built
/// from plus the kind-specific parameters.
#[derive(Debug, Clone)]
pub struct CacheRecipe {
    /// The floorplan the operator was built from.
    pub floorplan: Arc<Floorplan>,
    /// Kind-specific rebuild parameters.
    pub kind: RecipeKind,
}

impl CacheRecipe {
    /// The fingerprint the operator this recipe rebuilds is cached
    /// under at the given image orders — the keys the accessors below
    /// compute, derived from the recipe alone, so nothing is built to
    /// check it.
    fn fingerprint(&self, lateral_order: usize, z_order: usize) -> Result<u64, SpectralGridError> {
        let plan = &*self.floorplan;
        Ok(match self.kind {
            RecipeKind::Steady => operator_fingerprint(plan, lateral_order, z_order),
            RecipeKind::Spectral { tolerance } => {
                let (nx, ny) = infer_grid(plan)?;
                spectral_operator_fingerprint(plan, lateral_order, z_order, nx, ny, tolerance)
            }
            RecipeKind::Transient { dt_s, scheme } => propagator_fingerprint(
                operator_fingerprint(plan, lateral_order, z_order),
                &silicon_block_capacitances(plan),
                dt_s,
                scheme,
            ),
            RecipeKind::Map { nx, ny } => {
                map_operator_fingerprint(plan, lateral_order, z_order, nx, ny)
            }
        })
    }
}

/// A cached operator and the recipe that rebuilds it. They share one
/// entry, so the recipe is evicted with the operator.
#[derive(Debug)]
struct Recorded<V> {
    value: Arc<V>,
    recipe: CacheRecipe,
}

/// The value under `key` in `lru`; on a miss, `build` runs inside the
/// single-flight reservation and the entry records `floorplan` and
/// `kind` as its recipe.
fn recorded<V, E>(
    lru: &Lru<u64, Recorded<V>>,
    key: u64,
    floorplan: &Arc<Floorplan>,
    kind: RecipeKind,
    build: impl FnOnce() -> Result<V, E>,
) -> Result<Arc<V>, E> {
    lru.get_or_build(key, || {
        Ok(Recorded {
            value: Arc::new(build()?),
            recipe: CacheRecipe {
                floorplan: Arc::clone(floorplan),
                kind,
            },
        })
    })
    .map(|entry| Arc::clone(&entry.value))
}

/// `(key, recipe)` of every ready entry of `lru`.
fn recipes_of<V>(lru: &Lru<u64, Recorded<V>>) -> impl Iterator<Item = (u64, CacheRecipe)> {
    lru.ready()
        .into_iter()
        .map(|(key, entry)| (key, entry.recipe.clone()))
}

fn infallible<T>(result: Result<T, Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

/// The fleet's operator caches: the one place an artifact request is
/// mapped to its content fingerprint, its single-flight build and its
/// rebuild recipe.
///
/// Every accessor computes its key once from the job's floorplan and
/// parameters; the entry it builds on a miss records the recipe that
/// reproduces it ([`Self::recipes`]), and [`Self::warm`] replays such a
/// recipe after checking it still keys to its recorded fingerprint.
/// Operators build serially (`threads = 1`) on a miss — fleet workers
/// are the parallelism, so a job's build must not oversubscribe its
/// siblings.
#[derive(Debug)]
pub struct OperatorCache {
    steady: Lru<u64, Recorded<ThermalOperator>>,
    transient: Lru<u64, Recorded<TransientOperator>>,
    map: Lru<u64, Recorded<MapOperator>>,
    spectral: Lru<u64, Recorded<SpectralOperator>>,
    results: Lru<u64, SweepReport>,
}

impl OperatorCache {
    /// Caches holding at most `capacity` entries **each** (steady
    /// operators, transient propagators, map kernels, spectral
    /// operators and steady results age independently).
    pub fn new(capacity: usize) -> Self {
        OperatorCache {
            steady: Lru::new(capacity),
            transient: Lru::new(capacity),
            map: Lru::new(capacity),
            spectral: Lru::new(capacity),
            results: Lru::new(capacity),
        }
    }

    /// The influence operator of `floorplan` at the given image orders,
    /// cached under [`operator_fingerprint`].
    ///
    /// `hook` runs at the start of a cold build, **inside** the
    /// single-flight reservation; hits never run it. This is the
    /// fault-injection seam: a hook that panics exercises exactly the
    /// builder-panic path a real build failure would take — the
    /// reservation is released by the build guard, waiters wake, and
    /// one of them retries the build.
    pub fn steady_operator(
        &self,
        floorplan: &Arc<Floorplan>,
        lateral_order: usize,
        z_order: usize,
        hook: impl FnOnce(),
    ) -> Arc<ThermalOperator> {
        let key = operator_fingerprint(floorplan, lateral_order, z_order);
        infallible(recorded(
            &self.steady,
            key,
            floorplan,
            RecipeKind::Steady,
            || {
                hook();
                Ok(ThermalOperator::with_image_orders_threaded(
                    floorplan,
                    lateral_order,
                    z_order,
                    1,
                ))
            },
        ))
    }

    /// The implicit transient propagator of `floorplan`'s steady
    /// operator `op` at `(dt, scheme)`, over the floorplan's silicon
    /// block capacitances: cached under [`propagator_fingerprint`].
    ///
    /// # Errors
    ///
    /// See [`TransientError`] — a failed factorization caches nothing.
    pub fn transient_operator(
        &self,
        floorplan: &Arc<Floorplan>,
        op: &ThermalOperator,
        dt: f64,
        scheme: ImplicitScheme,
    ) -> Result<Arc<TransientOperator>, TransientError> {
        let capacitances = silicon_block_capacitances(floorplan);
        let key = propagator_fingerprint(op.fingerprint(), &capacitances, dt, scheme);
        recorded(
            &self.transient,
            key,
            floorplan,
            RecipeKind::Transient { dt_s: dt, scheme },
            || TransientOperator::new(op, &capacitances, dt, scheme),
        )
    }

    /// The spatial map operator of `floorplan` on an `nx × ny` tile
    /// grid at the given image orders, cached under
    /// [`map_operator_fingerprint`].
    pub fn map_operator(
        &self,
        floorplan: &Arc<Floorplan>,
        lateral_order: usize,
        z_order: usize,
        nx: usize,
        ny: usize,
    ) -> Arc<MapOperator> {
        let key = map_operator_fingerprint(floorplan, lateral_order, z_order, nx, ny);
        infallible(recorded(
            &self.map,
            key,
            floorplan,
            RecipeKind::Map { nx, ny },
            || {
                Ok(MapOperator::with_image_orders_threaded(
                    floorplan,
                    nx,
                    ny,
                    lateral_order,
                    z_order,
                    1,
                ))
            },
        ))
    }

    /// The spectral (FFT) steady operator of `floorplan` at the given
    /// image orders and refinement tolerance, cached under
    /// [`spectral_operator_fingerprint`] with the inferred coincident
    /// grid. `hook` is the same fault-injection seam as in
    /// [`Self::steady_operator`].
    ///
    /// # Errors
    ///
    /// [`SpectralGridError`] when no uniform tile grid aligns every
    /// block centre — nothing is cached, so the caller can fall back to
    /// the dense path (or report a typed job error).
    pub fn spectral_operator(
        &self,
        floorplan: &Arc<Floorplan>,
        lateral_order: usize,
        z_order: usize,
        tolerance: f64,
        hook: impl FnOnce(),
    ) -> Result<Arc<SpectralOperator>, SpectralGridError> {
        let (nx, ny) = infer_grid(floorplan)?;
        let key =
            spectral_operator_fingerprint(floorplan, lateral_order, z_order, nx, ny, tolerance);
        recorded(
            &self.spectral,
            key,
            floorplan,
            RecipeKind::Spectral { tolerance },
            || {
                hook();
                SpectralOperator::with_image_orders_threaded(
                    floorplan,
                    lateral_order,
                    z_order,
                    tolerance,
                    1,
                )
            },
        )
    }

    /// The **cold** steady result of a resolved delta base `base` on
    /// `floorplan` and the resolved backend: cached under
    /// [`steady_result_fingerprint`], solved single-flight by `build`
    /// on a miss.
    ///
    /// # Keying rules
    ///
    /// Unlike the operator caches, the key covers the **whole resolved
    /// request** — floorplan content fingerprint, power budgets, power
    /// law (and θ), every scenario axis and the resolved backend —
    /// because the cached value is the solved report itself, not a
    /// reusable kernel (see [`steady_result_fingerprint`] for the full
    /// include/exclude contract). Deadlines, job names and cancellation
    /// state are deliberately **excluded**: they shape scheduling, not
    /// the fixed point, and `build` must solve cold (no faults, no
    /// deadline token) so a recalled entry and a re-solved one are
    /// bitwise identical — the determinism contract `delta` jobs pin in
    /// `tests/delta_determinism.rs`.
    pub fn steady_result(
        &self,
        base: &SteadyJob,
        floorplan: &Floorplan,
        spectral: bool,
        build: impl FnOnce() -> SweepReport,
    ) -> Arc<SweepReport> {
        let key = steady_result_fingerprint(base, floorplan.fingerprint(), spectral);
        infallible(self.results.get_or_build(key, || Ok(build())))
    }

    /// The rebuild recipe of every cached operator, in fingerprint
    /// order — exactly the entries the caches hold now: an evicted
    /// entry took its recipe with it.
    pub fn recipes(&self) -> Vec<(u64, CacheRecipe)> {
        let mut recipes: Vec<(u64, CacheRecipe)> = recipes_of(&self.steady)
            .chain(recipes_of(&self.transient))
            .chain(recipes_of(&self.map))
            .chain(recipes_of(&self.spectral))
            .collect();
        recipes.sort_by_key(|(key, _)| *key);
        recipes
    }

    /// Rebuilds the operator `recipe` describes through the ordinary
    /// accessors (counted like a job's lookups: a miss builds), if the
    /// recipe still keys to `fingerprint` at the given image orders.
    ///
    /// Returns `false`, having built nothing, for a stale recipe: one
    /// recorded under other image orders or a different tolerance, or
    /// from an edited floorplan. Also `false` when the rebuild itself
    /// fails (no coincident grid, a rejected factorization).
    pub fn warm(
        &self,
        fingerprint: u64,
        recipe: &CacheRecipe,
        lateral_order: usize,
        z_order: usize,
    ) -> bool {
        if recipe.fingerprint(lateral_order, z_order) != Ok(fingerprint) {
            return false;
        }
        let plan = &recipe.floorplan;
        match recipe.kind {
            RecipeKind::Steady => {
                self.steady_operator(plan, lateral_order, z_order, || {});
                true
            }
            RecipeKind::Spectral { tolerance } => self
                .spectral_operator(plan, lateral_order, z_order, tolerance, || {})
                .is_ok(),
            RecipeKind::Transient { dt_s, scheme } => {
                let op = self.steady_operator(plan, lateral_order, z_order, || {});
                self.transient_operator(plan, &op, dt_s, scheme).is_ok()
            }
            RecipeKind::Map { nx, ny } => {
                self.map_operator(plan, lateral_order, z_order, nx, ny);
                true
            }
        }
    }

    /// Flushes every ready entry from all five caches (steady,
    /// transient, map, spectral, results), counting each as an
    /// eviction, and returns the total dropped. In-flight builds are
    /// untouched; see [`Lru::clear`].
    pub fn evict_all(&self) -> u64 {
        self.steady.clear()
            + self.transient.clear()
            + self.map.clear()
            + self.spectral.clear()
            + self.results.clear()
    }

    /// Counter snapshot for the steady-operator cache.
    pub fn steady_stats(&self) -> CacheStats {
        self.steady.stats()
    }

    /// Counter snapshot for the transient-propagator cache.
    pub fn transient_stats(&self) -> CacheStats {
        self.transient.stats()
    }

    /// Counter snapshot for the map-operator cache.
    pub fn map_stats(&self) -> CacheStats {
        self.map.stats()
    }

    /// Counter snapshot for the spectral-operator cache.
    pub fn spectral_stats(&self) -> CacheStats {
        self.spectral.stats()
    }

    /// Counter snapshot for the steady-result cache.
    pub fn result_stats(&self) -> CacheStats {
        self.results.stats()
    }
}
