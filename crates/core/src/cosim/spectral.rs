//! The spectral Picard backend: advancing batched Eq. 21 fixed points
//! in `O(N log N)` per lane, without materializing the `n × n`
//! influence matrix.
//!
//! The dense [`ThermalOperator`](crate::cosim::ThermalOperator) caps
//! the co-simulation at a few hundred blocks: the build is
//! `O(n²·images)` and every Picard step pays an `O(n²)` GEMM column.
//! But the map engine (`crate::thermal::map`) already proved that on a
//! **uniform tile grid** the same truncated image sum is four cyclic
//! convolutions — so the influence operator can be *applied* spectrally
//! inside the Picard loop instead of merely rendering maps after it:
//!
//! ```text
//! scatter   block powers → tile grid        (equivalent-source stencils)
//! convolve  one FFT, 4 mirrored products, one IFFT   (the map kernels)
//! sample    tile rise field → block sites   (centre-tile gather)
//! ```
//!
//! # Exactness and the CG fallback
//!
//! Sampling is exact: every block centre sits on a tile centre (that is
//! what [`infer_grid`] establishes), and the spectral field at a tile
//! centre is the *same truncated image sum* the dense operator
//! evaluates there — term for term, same truncation window. All error
//! is therefore source-side: a block that coincides with one grid tile
//! scatters to exactly that tile and reproduces its dense operator
//! column to floating-point rounding (≤ 1e-6 K at the fixed point,
//! asserted by `tests/spectral_validation.rs`), while a block that is
//! wider/narrower than a tile or straddles several is only
//! *approximated* by its area-overlap stencil. For those blocks the
//! build measures the near-field rasterization error against the exact
//! per-watt image sum and, where it exceeds the configured tolerance,
//! solves a small conjugate-gradient least-squares problem
//! ([`ptherm_math::cg::solve_cg`] on the normal equations, with a
//! power-conservation row) for an **equivalent source** on the tiles
//! around the block — the refined stencil reproduces the block's exact
//! near field at the surrounding tile centres far better than raw
//! area overlap, and conserves total power for the far field. A CG
//! breakdown falls back to the area-overlap stencil (never an error).
//!
//! The exact near fields are most of the build's cost: 1,000 kernel
//! terms per probe, ~50 probes per block. A term's bits depend only on
//! the bits of `|dx|`, `|dy|` and the image depth, so blocks sharing
//! `(w, l, cy)` bits (a tile row of a gutter plan) are refined as one
//! group: each probe row evaluates every distinct term once into a
//! table and replays each probe's adds in lattice order (`ImageSums`).
//! Every near field, and so every refined stencil, is bit-identical to
//! the term-by-term sum. Groups stream through one table per worker;
//! a group's windows and near fields are dropped once it is fitted.
//!
//! Floorplans whose block centres sit on *no* uniform grid (up to
//! [`MAX_GRID_AXIS`] tiles per axis) are rejected with the typed
//! [`SpectralGridError`]; the sweep engine's `Auto` backend falls back
//! to the dense path and the fleet reports the typed error only when
//! spectral was requested explicitly.
//!
//! # Determinism
//!
//! The build is bit-identical across thread counts (the kernel assembly
//! is row-partitioned with identical per-entry arithmetic, the CG
//! refinement is a pure per-block function of the block's own inputs,
//! whichever group and worker computes it), and
//! the solve is per-lane: each lane's scatter → FFT → sample touches
//! only that lane's powers, so outcomes are bitwise invariant across
//! batch widths, worker counts and cache state — the same contract the
//! dense batched path holds, asserted by the invariance tests.

use crate::cosim::batch::{drive_picard, BatchPowerModel, BatchWorkspace, LaneStart};
use crate::cosim::sweep::SweepOutcome;
use crate::cosim::ElectroThermalSolver;
use crate::thermal::image_sum::{source_groups, ImageSums, SourceGroup};
use crate::thermal::map::{map_operator_fingerprint, MapOperator, MapWorkspace};
use ptherm_floorplan::{Block, Floorplan};
use ptherm_math::cg::solve_cg;
use ptherm_math::{CsrMatrix, MultiVec};
use ptherm_par::CancelToken;
use std::fmt;

/// Largest uniform grid (tiles per axis) [`infer_grid`] will consider.
/// Beyond this the FFT planes stop paying for themselves and the
/// alignment test would accept nearly anything.
pub const MAX_GRID_AXIS: usize = 512;

/// How far (in tile units) a block centre may sit from the nearest tile
/// centre and still count as on-grid.
const GRID_ALIGN_TOLERANCE: f64 = 1e-6;

/// Default near-field rasterization tolerance, K per W: stencils whose
/// predicted per-watt rise at the surrounding tile centres deviates
/// from the exact image sum by more than this are CG-refined.
pub const DEFAULT_REFINEMENT_TOLERANCE: f64 = 1e-6;

/// Refinement support cap: blocks whose support patch would exceed this
/// many unknowns keep their area-overlap stencil (the normal-equations
/// assembly is `O(probes · support²)`).
const MAX_REFINEMENT_SUPPORT: usize = 256;

/// Why a floorplan cannot be served by the spectral backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpectralGridError {
    /// No uniform tile grid up to [`MAX_GRID_AXIS`] tiles per axis puts
    /// every block centre on a tile centre, so the centre-tile sampling
    /// step has no exact anchor.
    NoCoincidentGrid {
        /// The per-axis grid cap that was searched.
        max_axis: usize,
    },
}

impl fmt::Display for SpectralGridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpectralGridError::NoCoincidentGrid { max_axis } => write!(
                f,
                "no uniform tile grid up to {max_axis} tiles per axis aligns every block centre"
            ),
        }
    }
}

impl std::error::Error for SpectralGridError {}

/// Smallest uniform `nx × ny` tile grid whose tile centres contain
/// every block centre, or the typed error if none exists up to
/// [`MAX_GRID_AXIS`] per axis. An empty floorplan is served by a `1 × 1`
/// grid. This is the spectral backend's compatibility test — cheap
/// enough that the `Auto` backend runs it per sweep.
pub fn infer_grid(floorplan: &Floorplan) -> Result<(usize, usize), SpectralGridError> {
    let g = floorplan.geometry();
    let nx = infer_axis(floorplan.blocks(), |b| b.cx, g.width)?;
    let ny = infer_axis(floorplan.blocks(), |b| b.cy, g.length)?;
    Ok((nx, ny))
}

fn infer_axis(
    blocks: &[Block],
    center: impl Fn(&Block) -> f64,
    extent: f64,
) -> Result<usize, SpectralGridError> {
    if blocks.is_empty() {
        return Ok(1);
    }
    'grid: for n in 1..=MAX_GRID_AXIS {
        for b in blocks {
            // On an n-tile axis, tile centres sit at (k + ½)·extent/n.
            let u = center(b) * n as f64 / extent - 0.5;
            if (u - u.round()).abs() > GRID_ALIGN_TOLERANCE {
                continue 'grid;
            }
        }
        return Ok(n);
    }
    Err(SpectralGridError::NoCoincidentGrid {
        max_axis: MAX_GRID_AXIS,
    })
}

/// Fingerprint of the spectral operator a build would produce: the map
/// operator's fingerprint (geometry × grid × image orders) mixed with
/// the refinement tolerance — everything the deterministic build reads.
/// Computable without building, which is what lets the fleet cache
/// decide hit/miss before paying for kernel assembly and refinement.
pub fn spectral_operator_fingerprint(
    floorplan: &Floorplan,
    lateral_order: usize,
    z_order: usize,
    nx: usize,
    ny: usize,
    tolerance: f64,
) -> u64 {
    let mut f = ptherm_floorplan::fingerprint::Fingerprinter::new("ptherm.spectral.v1");
    f.write_u64(map_operator_fingerprint(
        floorplan,
        lateral_order,
        z_order,
        nx,
        ny,
    ));
    f.write_u64(tolerance.to_bits());
    f.finish()
}

/// Precomputed spectral influence operator of one floorplan: the map
/// engine's parity-kernel spectra, per-block equivalent-source stencils
/// (area-overlap, CG-refined where the near-field error warrants it)
/// and the centre-tile sampling sites. Shareable across threads; each
/// worker brings its own [`SpectralScratch`].
///
/// # Example
///
/// ```
/// use ptherm_core::cosim::spectral::{SpectralOperator, SpectralScratch};
/// use ptherm_floorplan::{generator, ChipGeometry};
///
/// let fp = generator::tile_aligned(ChipGeometry::paper_1mm(), 8, 8, |_| 0.01).unwrap();
/// let op = SpectralOperator::build(&fp).expect("tile-aligned plans are grid-coincident");
/// assert_eq!((op.nx(), op.ny()), (8, 8));
/// let mut rises = vec![0.0; op.blocks()];
/// op.rises_into(&vec![0.01; 64], &mut SpectralScratch::new(), &mut rises);
/// assert!(rises.iter().all(|&r| r > 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct SpectralOperator {
    map: MapOperator,
    /// Per-block equivalent-source stencils (tile index, W fraction).
    stencils: Vec<Vec<(u32, f64)>>,
    /// Tile each block's temperature is sampled at (its centre tile).
    sample_tiles: Vec<u32>,
    /// Blocks whose stencil was CG-refined.
    refined: usize,
    tolerance: f64,
    fingerprint: u64,
}

impl SpectralOperator {
    /// Builds the operator with the workspace accuracy defaults (lateral
    /// image order 2, depth series order 9), the default refinement
    /// tolerance and one worker per available CPU.
    ///
    /// # Errors
    ///
    /// [`SpectralGridError`] when the floorplan's block centres sit on
    /// no uniform grid (see [`infer_grid`]).
    pub fn build(floorplan: &Floorplan) -> Result<Self, SpectralGridError> {
        Self::with_image_orders_threaded(
            floorplan,
            2,
            9,
            DEFAULT_REFINEMENT_TOLERANCE,
            ptherm_par::default_threads(),
        )
    }

    /// [`Self::build`] with explicit image orders, refinement tolerance
    /// (K per W of near-field stencil error before CG refinement kicks
    /// in) and worker count. The build is bit-identical from 1 to N
    /// threads. Block powers recorded in `floorplan` are ignored: the
    /// operator is per-watt and applies to any power vector.
    ///
    /// # Errors
    ///
    /// [`SpectralGridError`] when the floorplan's block centres sit on
    /// no uniform grid (see [`infer_grid`]).
    pub fn with_image_orders_threaded(
        floorplan: &Floorplan,
        lateral_order: usize,
        z_order: usize,
        tolerance: f64,
        threads: usize,
    ) -> Result<Self, SpectralGridError> {
        let (nx, ny) = infer_grid(floorplan)?;
        let map = MapOperator::with_image_orders_threaded(
            floorplan,
            nx,
            ny,
            lateral_order,
            z_order,
            threads,
        );
        let fingerprint =
            spectral_operator_fingerprint(floorplan, lateral_order, z_order, nx, ny, tolerance);

        let sample_tiles: Vec<u32> = floorplan
            .blocks()
            .iter()
            .map(|b| map.tile_of(b.cx, b.cy) as u32)
            .collect();
        let mut stencils: Vec<Vec<(u32, f64)>> = (0..floorplan.blocks().len())
            .map(|i| map.stencil_of(i).to_vec())
            .collect();

        // Blocks that coincide with one tile scatter exactly and skip
        // the (comparatively expensive) near-field check entirely — on a
        // tile-aligned floorplan the whole refinement stage is free.
        let (tile_w, tile_l) = map.tile_pitch();
        let suspects: Vec<usize> = floorplan
            .blocks()
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                stencils[*i].len() > 1
                    || (b.w - tile_w).abs() > 1e-9 * tile_w
                    || (b.l - tile_l).abs() > 1e-9 * tile_l
            })
            .map(|(i, _)| i)
            .collect();
        let mut refined = 0;
        if !suspects.is_empty() {
            let kernels = map.spatial_kernels(threads);
            let refiner = StencilRefiner {
                map: &map,
                kernels: &kernels,
                floorplan,
                tolerance,
            };
            // Suspects sharing (w, l, cy) bits share a kernel and their
            // y-sites, so their exact near fields come from one image-sum
            // table per probe row. Groups stream through one evaluator
            // per worker; every block's result is a pure function of its
            // own inputs, so it is independent of the grouping and of the
            // worker count.
            let groups = source_groups(
                floorplan.blocks(),
                suspects.iter().copied(),
                floorplan.geometry().conductivity,
            );
            let refinements = ptherm_par::par_map_with(
                threads,
                &groups,
                || ImageSums::new(floorplan.geometry(), lateral_order, z_order),
                |sums, _, group| refiner.refine_group(sums, group, &stencils),
            );
            for (block, stencil) in refinements.into_iter().flatten() {
                stencils[block] = stencil;
                refined += 1;
            }
        }

        Ok(SpectralOperator {
            map,
            stencils,
            sample_tiles,
            refined,
            tolerance,
            fingerprint,
        })
    }

    /// Stable content fingerprint (see [`spectral_operator_fingerprint`]):
    /// equal fingerprints imply bit-identical kernels, stencils and
    /// sampling sites — the contract the fleet cache relies on.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Inferred grid width in tiles.
    pub fn nx(&self) -> usize {
        self.map.nx()
    }

    /// Inferred grid height in tiles.
    pub fn ny(&self) -> usize {
        self.map.ny()
    }

    /// Number of floorplan blocks the operator serves.
    pub fn blocks(&self) -> usize {
        self.stencils.len()
    }

    /// Sink temperature the source floorplan declared, K.
    pub fn sink_temperature(&self) -> f64 {
        self.map.sink_temperature()
    }

    /// Lateral image order the kernels were built with.
    pub fn lateral_order(&self) -> usize {
        self.map.lateral_order()
    }

    /// Depth-series order the kernels were built with.
    pub fn z_order(&self) -> usize {
        self.map.z_order()
    }

    /// Near-field tolerance (K per W) the build refined against.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// How many blocks carry a CG-refined equivalent-source stencil.
    pub fn refined_blocks(&self) -> usize {
        self.refined
    }

    /// Per-watt temperature rises at every block site for one power
    /// vector: scatter through the equivalent-source stencils, one FFT
    /// apply on the tile torus, gather at the centre tiles. Zero
    /// allocation once `scratch` is warm.
    ///
    /// # Panics
    ///
    /// Panics if `block_powers` or `out` is not of length
    /// [`Self::blocks`].
    pub fn rises_into(&self, block_powers: &[f64], scratch: &mut SpectralScratch, out: &mut [f64]) {
        assert_eq!(block_powers.len(), self.blocks(), "power length mismatch");
        assert_eq!(out.len(), self.blocks(), "rise length mismatch");
        let tiles = self.map.tiles();
        scratch.tile_powers.clear();
        scratch.tile_powers.resize(tiles, 0.0);
        for (stencil, &p) in self.stencils.iter().zip(block_powers) {
            for &(cell, fraction) in stencil {
                scratch.tile_powers[cell as usize] += p * fraction;
            }
        }
        scratch.field.clear();
        scratch.field.resize(tiles, 0.0);
        self.map.rise_from_tiles_into(
            &scratch.tile_powers,
            &mut scratch.map_ws,
            &mut scratch.field,
        );
        for (r, &tile) in out.iter_mut().zip(&self.sample_tiles) {
            *r = scratch.field[tile as usize];
        }
    }
}

/// The per-block CG refinement stage: measures a stencil's near-field
/// error against the exact per-watt image sum and, where it exceeds the
/// tolerance, fits an equivalent source over the surrounding tiles.
struct StencilRefiner<'a> {
    map: &'a MapOperator,
    /// Spatial parity kernels, [`MapOperator::rise_map_direct`] indexing.
    kernels: &'a [Vec<f64>; 4],
    floorplan: &'a Floorplan,
    tolerance: f64,
}

/// A block's refinement window: the support tiles (its default stencil's
/// bounding box grown by one ring, the unknowns) and the probe box
/// (grown by three rings, row-major, where the near field is fitted).
struct Patch {
    support: Vec<(usize, usize)>,
    /// Probe box corners, inclusive tile indices.
    px: (usize, usize),
    py: (usize, usize),
}

impl Patch {
    /// Probe tiles in row-major order.
    fn probes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.py.0..=self.py.1).flat_map(|y| (self.px.0..=self.px.1).map(move |x| (x, y)))
    }
}

impl StencilRefiner<'_> {
    /// Tile-to-tile per-watt rise `G(target, source)` through the four
    /// parity kernels — exactly the entry the FFT apply realizes.
    fn g(&self, ix: usize, iy: usize, jx: usize, jy: usize) -> f64 {
        let (mx, my) = self.map.torus();
        let [dd, sd, ds, ss] = self.kernels;
        let ddx = (ix + mx - jx) % mx;
        let sdx = ix + jx;
        let ddy = (iy + my - jy) % my;
        let sdy = iy + jy;
        dd[ddx + mx * ddy] + sd[sdx + mx * ddy] + ds[ddx + mx * sdy] + ss[sdx + mx * sdy]
    }

    /// The refinement window of a block with stencil `default`, or
    /// `None` when the stencil is empty (nothing to measure) or the
    /// support would exceed [`MAX_REFINEMENT_SUPPORT`] unknowns (the
    /// block keeps its area-overlap stencil).
    fn patch(&self, default: &[(u32, f64)]) -> Option<Patch> {
        if default.is_empty() {
            return None;
        }
        let (nx, ny) = (self.map.nx(), self.map.ny());
        let mut x0 = usize::MAX;
        let mut x1 = 0usize;
        let mut y0 = usize::MAX;
        let mut y1 = 0usize;
        for &(cell, _) in default {
            let (cx, cy) = (cell as usize % nx, cell as usize / nx);
            x0 = x0.min(cx);
            x1 = x1.max(cx);
            y0 = y0.min(cy);
            y1 = y1.max(cy);
        }
        let grow = |lo: usize, hi: usize, n: usize, ring: usize| {
            (lo.saturating_sub(ring), (hi + ring).min(n - 1))
        };
        let (sx, sy) = (grow(x0, x1, nx, 1), grow(y0, y1, ny, 1));
        let support: Vec<(usize, usize)> = (sy.0..=sy.1)
            .flat_map(|y| (sx.0..=sx.1).map(move |x| (x, y)))
            .collect();
        (support.len() <= MAX_REFINEMENT_SUPPORT).then(|| Patch {
            support,
            px: grow(x0, x1, nx, 3),
            py: grow(y0, y1, ny, 3),
        })
    }

    /// Exact per-watt near fields at the probes of `patches`, windows
    /// of `group` members: one [`ImageSums::row`] per probe row across
    /// the whole group. Each value is bit-identical to the term-by-term
    /// image sum at that probe's tile centre.
    fn near_fields(
        &self,
        sums: &mut ImageSums,
        group: &SourceGroup,
        patches: &[(usize, Patch)],
    ) -> Vec<Vec<f64>> {
        let mut fields: Vec<Vec<f64>> = patches
            .iter()
            .map(|(_, p)| vec![0.0; (p.px.1 - p.px.0 + 1) * (p.py.1 - p.py.0 + 1)])
            .collect();
        let blocks = self.floorplan.blocks();
        let rows_lo = patches.iter().map(|(_, p)| p.py.0).min().unwrap_or(1);
        let rows_hi = patches.iter().map(|(_, p)| p.py.1).max().unwrap_or(0);
        let mut entries = Vec::new();
        let mut out = Vec::new();
        for y in rows_lo..=rows_hi {
            entries.clear();
            for (block, p) in patches
                .iter()
                .filter(|(_, p)| (p.py.0..=p.py.1).contains(&y))
            {
                let sx = blocks[*block].cx;
                entries.extend((p.px.0..=p.px.1).map(|x| (self.map.tile_center(x, y).0, sx)));
            }
            out.resize(entries.len(), 0.0);
            let ty = self.map.tile_center(0, y).1;
            sums.row(group, ty, &entries, &mut out);
            let mut exact = out.iter();
            for ((_, p), field) in patches.iter().zip(&mut fields) {
                if (p.py.0..=p.py.1).contains(&y) {
                    let width = p.px.1 - p.px.0 + 1;
                    let at = (y - p.py.0) * width;
                    for (slot, &rise) in field[at..at + width].iter_mut().zip(&mut exact) {
                        *slot = rise;
                    }
                }
            }
        }
        fields
    }

    /// Refines one source group's blocks: windows, exact near fields,
    /// then one fit per block. Returns the blocks whose stencil was
    /// replaced, with their new stencils.
    fn refine_group(
        &self,
        sums: &mut ImageSums,
        group: &SourceGroup,
        stencils: &[Vec<(u32, f64)>],
    ) -> Vec<(usize, Vec<(u32, f64)>)> {
        let patches: Vec<(usize, Patch)> = group
            .members
            .iter()
            .filter_map(|&block| Some((block, self.patch(stencils.get(block)?)?)))
            .collect();
        let fields = self.near_fields(sums, group, &patches);
        patches
            .iter()
            .zip(&fields)
            .filter_map(|((block, patch), exact)| {
                Some((*block, self.fit(&stencils[*block], patch, exact)?))
            })
            .collect()
    }

    /// Refined stencil for a block with stencil `default`, window
    /// `patch` and exact per-watt near field `exact` (probe order), or
    /// `None` when the default already meets the tolerance or CG fails
    /// to beat it (the area-overlap stencil is always a safe fallback).
    fn fit(&self, default: &[(u32, f64)], patch: &Patch, exact: &[f64]) -> Option<Vec<(u32, f64)>> {
        let nx = self.map.nx();
        let support = &patch.support;
        let probes: Vec<(usize, usize)> = patch.probes().collect();
        let m = support.len();
        let predicted = |stencil: &[(u32, f64)]| -> Vec<f64> {
            probes
                .iter()
                .map(|&(ix, iy)| {
                    stencil
                        .iter()
                        .map(|&(cell, q)| {
                            q * self.g(ix, iy, cell as usize % nx, cell as usize / nx)
                        })
                        .sum()
                })
                .collect()
        };
        let error = |pred: &[f64]| -> f64 {
            pred.iter()
                .zip(exact)
                .map(|(p, e)| (p - e).abs())
                .fold(0.0f64, f64::max)
        };
        let default_error = error(&predicted(default));
        if default_error <= self.tolerance {
            return None;
        }

        // Least-squares equivalent source: minimize ‖A q − exact‖ over
        // the support, with a weighted Σq = 1 conservation row so the
        // far field (beyond the probes) keeps the right total power.
        // Solved through the normal equations AᵀA q = Aᵀb, SPD by
        // construction, with the map's own G columns as the basis.
        let a: Vec<f64> = probes
            .iter()
            .flat_map(|&(ix, iy)| {
                support
                    .iter()
                    .map(move |&(jx, jy)| self.g(ix, iy, jx, jy))
                    .collect::<Vec<f64>>()
            })
            .collect();
        let mut gram = vec![0.0; m * m];
        let mut rhs = vec![0.0; m];
        for p in 0..probes.len() {
            let row = &a[p * m..(p + 1) * m];
            for i in 0..m {
                rhs[i] += row[i] * exact[p];
                for j in 0..m {
                    gram[i * m + j] += row[i] * row[j];
                }
            }
        }
        let trace: f64 = (0..m).map(|i| gram[i * m + i]).sum();
        let weight = trace / m as f64;
        for i in 0..m {
            rhs[i] += weight;
            for j in 0..m {
                gram[i * m + j] += weight;
            }
        }
        let mut triplets = Vec::with_capacity(m * m);
        for i in 0..m {
            for j in 0..m {
                triplets.push((i, j, gram[i * m + j]));
            }
        }
        let matrix = CsrMatrix::from_triplets(m, &triplets).ok()?;
        let solution = solve_cg(&matrix, &rhs, 1e-12, 100 * m + 200).ok()?;

        let candidate: Vec<(u32, f64)> = support
            .iter()
            .zip(&solution.x)
            // lint:allow(float-compare) — exact-zero sparsity filter: CG leaves untouched entries at literal 0.0
            .filter(|(_, &q)| q != 0.0)
            .map(|(&(x, y), &q)| ((x + nx * y) as u32, q))
            .collect();
        (error(&predicted(&candidate)) < default_error).then_some(candidate)
    }
}

/// Reusable per-worker scratch for the spectral apply: the scattered
/// tile power grid, the rise field and the map engine's FFT panels.
/// Buffers size themselves on first use.
#[derive(Debug, Clone, Default)]
pub struct SpectralScratch {
    tile_powers: Vec<f64>,
    field: Vec<f64>,
    map_ws: MapWorkspace,
}

impl SpectralScratch {
    /// An empty scratch; buffers size themselves on first apply.
    pub fn new() -> Self {
        SpectralScratch::default()
    }
}

/// Batched fixed-point driver over one solver configuration and one
/// [`SpectralOperator`] — the spectral twin of
/// [`BatchedSolver`](crate::cosim::BatchedSolver), sharing the *same*
/// Picard skeleton (`drive_picard`): lane refill, damped update and
/// guard order are one piece of code, only the thermal apply differs.
///
/// # Example
///
/// ```
/// use ptherm_core::cosim::batch::{BatchWorkspace, FnBatchPower};
/// use ptherm_core::cosim::spectral::{SpectralBatchedSolver, SpectralOperator, SpectralScratch};
/// use ptherm_core::cosim::ElectroThermalSolver;
/// use ptherm_floorplan::{generator, ChipGeometry};
///
/// let fp = generator::tile_aligned(ChipGeometry::paper_1mm(), 6, 6, |_| 0.005).unwrap();
/// let solver = ElectroThermalSolver::new(fp.clone());
/// let op = SpectralOperator::build(&fp).unwrap();
/// let batched = SpectralBatchedSolver::new(&solver, &op);
/// let mut model = FnBatchPower::new(|id, _block, _t| 0.002 * (id + 1) as f64);
/// let outcomes = batched.solve(
///     &[300.0; 3],
///     &mut model,
///     &mut BatchWorkspace::new(),
///     &mut SpectralScratch::new(),
/// );
/// assert!(outcomes.iter().all(|o| o.is_converged()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpectralBatchedSolver<'a> {
    solver: &'a ElectroThermalSolver,
    operator: &'a SpectralOperator,
}

impl<'a> SpectralBatchedSolver<'a> {
    /// Couples a solver configuration with its spectral operator.
    ///
    /// # Panics
    ///
    /// Panics if `operator` was built for a different block count than
    /// `solver`'s floorplan.
    pub fn new(solver: &'a ElectroThermalSolver, operator: &'a SpectralOperator) -> Self {
        assert_eq!(
            operator.blocks(),
            solver.floorplan().blocks().len(),
            "operator/floorplan block-count mismatch"
        );
        SpectralBatchedSolver { solver, operator }
    }

    /// Solves one fixed batch: scenario `id = i` runs at ambient
    /// `ambients[i]`, outcomes return in input order.
    pub fn solve<M: BatchPowerModel + ?Sized>(
        &self,
        ambients: &[f64],
        model: &mut M,
        ws: &mut BatchWorkspace,
        scratch: &mut SpectralScratch,
    ) -> Vec<SweepOutcome> {
        let b = ambients.len();
        let mut out: Vec<Option<SweepOutcome>> = (0..b).map(|_| None).collect();
        let mut next = 0usize;
        self.drive(
            b,
            model,
            ws,
            scratch,
            None,
            &mut || {
                (next < b).then(|| {
                    let id = next;
                    next += 1;
                    LaneStart::cold(id, ambients[id])
                })
            },
            &mut |id, outcome| out[id] = Some(outcome),
        );
        out.into_iter()
            // lint:allow(panic-freedom) — the closure source yields each id in 0..b exactly once and the sink stores every retired lane
            .map(|o| o.expect("every scenario retired"))
            .collect()
    }

    /// The streaming entry point, mirroring
    /// [`BatchedSolver::drive`](crate::cosim::BatchedSolver::drive):
    /// same lane-refill semantics, same guard order (shared skeleton),
    /// but each live lane's rises come from one scatter → FFT → sample
    /// pass instead of a GEMM column.
    #[allow(clippy::too_many_arguments)]
    pub fn drive<M: BatchPowerModel + ?Sized>(
        &self,
        lanes: usize,
        model: &mut M,
        ws: &mut BatchWorkspace,
        scratch: &mut SpectralScratch,
        cancel: Option<&CancelToken>,
        source: &mut dyn FnMut() -> Option<LaneStart>,
        sink: &mut dyn FnMut(usize, SweepOutcome),
    ) {
        let operator = self.operator;
        let n = operator.blocks();
        let mut lane_powers = vec![0.0; n];
        let mut lane_rises = vec![0.0; n];
        drive_picard(
            self.solver,
            n,
            lanes,
            model,
            ws,
            cancel,
            source,
            sink,
            &mut |powers: &MultiVec, fresh: &mut MultiVec, alive: &[bool]| {
                for (lane, &live) in alive.iter().enumerate() {
                    if !live {
                        continue;
                    }
                    powers.copy_lane_into(lane, &mut lane_powers);
                    operator.rises_into(&lane_powers, scratch, &mut lane_rises);
                    for (i, &r) in lane_rises.iter().enumerate() {
                        fresh.set(i, lane, r);
                    }
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::batch::{BatchedSolver, FnBatchPower};
    use crate::cosim::ThermalOperator;
    use ptherm_floorplan::{generator, Block, ChipGeometry};

    fn tile_aligned(nx: usize, ny: usize) -> Floorplan {
        generator::tile_aligned(ChipGeometry::paper_1mm(), nx, ny, |i| {
            0.002 + 0.001 * ((i * 7) % 13) as f64
        })
        .expect("aligned tiling is valid")
    }

    #[test]
    fn grid_inference_recovers_generator_grids() {
        assert_eq!(infer_grid(&tile_aligned(8, 8)), Ok((8, 8)));
        assert_eq!(infer_grid(&tile_aligned(6, 10)), Ok((6, 10)));
        let tiled = generator::tiled(ChipGeometry::paper_1mm(), 5, 7, 0.01, 0.02, 3)
            .expect("tiled plan is valid");
        assert_eq!(infer_grid(&tiled), Ok((7, 5)));
    }

    #[test]
    fn empty_floorplan_gets_the_degenerate_grid() {
        let fp = Floorplan::new(ChipGeometry::paper_1mm(), Vec::new()).unwrap();
        assert_eq!(infer_grid(&fp), Ok((1, 1)));
        let op = SpectralOperator::build(&fp).unwrap();
        assert_eq!(op.blocks(), 0);
    }

    #[test]
    fn paper_floorplan_has_no_coincident_grid() {
        // Centres at 0.30/0.75 mm on a 1 mm die: 0.3n − ½ and 0.75n − ½
        // are never simultaneously integers, so the typed error fires.
        let err = infer_grid(&Floorplan::paper_three_blocks()).unwrap_err();
        assert_eq!(
            err,
            SpectralGridError::NoCoincidentGrid {
                max_axis: MAX_GRID_AXIS
            }
        );
        assert!(err.to_string().contains("no uniform tile grid"));
        assert!(SpectralOperator::build(&Floorplan::paper_three_blocks()).is_err());
    }

    #[test]
    fn aligned_rises_match_the_dense_operator() {
        // Tile-coincident blocks scatter exactly: the spectral apply is
        // the dense operator's image sum term for term.
        let fp = tile_aligned(6, 5);
        let spectral = SpectralOperator::build(&fp).unwrap();
        assert_eq!(
            spectral.refined_blocks(),
            0,
            "aligned blocks skip refinement"
        );
        let dense = ThermalOperator::with_image_orders(&fp, 2, 9);
        let powers: Vec<f64> = fp.blocks().iter().map(|b| b.power).collect();
        let mut got = vec![0.0; powers.len()];
        spectral.rises_into(&powers, &mut SpectralScratch::new(), &mut got);
        let mut want = vec![0.0; powers.len()];
        dense.temperature_rises_into(&powers, &mut want);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= 1e-9, "block {i}: {g} vs {w}");
        }
    }

    #[test]
    fn refinement_beats_area_overlap_on_off_grid_blocks() {
        // Gutter-style blocks (0.9 of a tile pitch) scatter inexactly;
        // the CG equivalent source must land closer to the dense
        // operator than raw area overlap does.
        let fp = generator::tiled(ChipGeometry::paper_1mm(), 6, 6, 0.008, 0.02, 11)
            .expect("tiled plan is valid");
        let refined = SpectralOperator::with_image_orders_threaded(
            &fp,
            2,
            9,
            DEFAULT_REFINEMENT_TOLERANCE,
            1,
        )
        .unwrap();
        assert!(refined.refined_blocks() > 0, "gutter blocks must refine");
        let unrefined =
            SpectralOperator::with_image_orders_threaded(&fp, 2, 9, f64::INFINITY, 1).unwrap();
        assert_eq!(unrefined.refined_blocks(), 0);
        let dense = ThermalOperator::with_image_orders(&fp, 2, 9);
        let powers: Vec<f64> = fp.blocks().iter().map(|b| b.power).collect();
        let mut want = vec![0.0; powers.len()];
        dense.temperature_rises_into(&powers, &mut want);
        let gap = |op: &SpectralOperator| -> f64 {
            let mut got = vec![0.0; powers.len()];
            op.rises_into(&powers, &mut SpectralScratch::new(), &mut got);
            got.iter()
                .zip(&want)
                .map(|(g, w)| (g - w).abs())
                .fold(0.0f64, f64::max)
        };
        let (refined_gap, unrefined_gap) = (gap(&refined), gap(&unrefined));
        assert!(
            refined_gap < unrefined_gap,
            "refined {refined_gap:e} K vs unrefined {unrefined_gap:e} K"
        );
    }

    #[test]
    fn solve_matches_the_dense_batched_solver_on_aligned_plans() {
        let fp = tile_aligned(5, 5);
        let solver = ElectroThermalSolver::new(fp.clone());
        let dense_op = solver.operator();
        let spectral_op = SpectralOperator::build(&fp).unwrap();
        let f = |id: usize, _b: usize, t: f64| {
            0.003 + 0.001 * (id % 3) as f64 + 0.001 * ((t - 300.0) / 40.0).exp2()
        };
        let ambients = [300.0, 310.0, 320.0, 330.0];
        let dense = BatchedSolver::new(&solver, &dense_op).solve(
            &ambients,
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
        );
        let spectral = SpectralBatchedSolver::new(&solver, &spectral_op).solve(
            &ambients,
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
            &mut SpectralScratch::new(),
        );
        for (i, (s, d)) in spectral.iter().zip(&dense).enumerate() {
            match (s, d) {
                (
                    SweepOutcome::Converged {
                        block_temperatures: st,
                        iterations: si,
                        ..
                    },
                    SweepOutcome::Converged {
                        block_temperatures: dt,
                        iterations: di,
                        ..
                    },
                ) => {
                    assert_eq!(si, di, "scenario {i} iterations");
                    for (a, b) in st.iter().zip(dt) {
                        assert!((a - b).abs() <= 1e-6, "scenario {i}: {a} vs {b}");
                    }
                }
                other => panic!("scenario {i}: expected converged pair, got {other:?}"),
            }
        }
    }

    #[test]
    fn outcome_kinds_match_the_dense_backend_across_the_guard_order() {
        // Converged, runaway and bad-power lanes must classify
        // identically — the shared skeleton makes this structural, the
        // test pins it.
        let fp = tile_aligned(4, 4);
        let solver = ElectroThermalSolver::new(fp.clone());
        let dense_op = solver.operator();
        let spectral_op = SpectralOperator::build(&fp).unwrap();
        let f = |id: usize, b: usize, t: f64| match id {
            1 => 0.5 * ((t - 300.0) / 3.0).exp2(),
            3 if b == 5 => f64::NAN,
            _ => 0.004 * (id + 1) as f64,
        };
        let ambients = [300.0, 300.0, 315.0, 300.0];
        let dense = BatchedSolver::new(&solver, &dense_op).solve(
            &ambients,
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
        );
        let spectral = SpectralBatchedSolver::new(&solver, &spectral_op).solve(
            &ambients,
            &mut FnBatchPower::new(f),
            &mut BatchWorkspace::new(),
            &mut SpectralScratch::new(),
        );
        for (i, (s, d)) in spectral.iter().zip(&dense).enumerate() {
            assert_eq!(
                std::mem::discriminant(s),
                std::mem::discriminant(d),
                "scenario {i}: {s:?} vs {d:?}"
            );
        }
        assert!(matches!(
            spectral[3],
            SweepOutcome::BadPower { block: 5, power: _ }
        ));
    }

    #[test]
    fn lane_results_are_bitwise_invariant_across_batch_widths() {
        // Per-lane scatter → FFT → sample touches only that lane's
        // powers, so outcomes cannot depend on the batch width.
        let fp = tile_aligned(6, 6);
        let solver = ElectroThermalSolver::new(fp.clone());
        let op = SpectralOperator::build(&fp).unwrap();
        let batched = SpectralBatchedSolver::new(&solver, &op);
        let f = |id: usize, _b: usize, t: f64| {
            0.002 + 0.001 * (id % 5) as f64 + 0.0005 * ((t - 300.0) / 25.0).exp2()
        };
        let ambients: Vec<f64> = (0..9).map(|i| 298.0 + 3.0 * i as f64).collect();
        let solve_with_lanes = |lanes: usize| -> Vec<SweepOutcome> {
            let mut out: Vec<Option<SweepOutcome>> = (0..ambients.len()).map(|_| None).collect();
            let mut next = 0usize;
            batched.drive(
                lanes,
                &mut FnBatchPower::new(f),
                &mut BatchWorkspace::new(),
                &mut SpectralScratch::new(),
                None,
                &mut || {
                    (next < ambients.len()).then(|| {
                        let id = next;
                        next += 1;
                        LaneStart::cold(id, ambients[id])
                    })
                },
                &mut |id, o| out[id] = Some(o),
            );
            out.into_iter().map(Option::unwrap).collect()
        };
        let reference = solve_with_lanes(9);
        for lanes in [1, 2, 4, 64] {
            let got = solve_with_lanes(lanes);
            for (i, (g, w)) in got.iter().zip(&reference).enumerate() {
                match (g, w) {
                    (
                        SweepOutcome::Converged {
                            block_temperatures: gt,
                            block_powers: gp,
                            iterations: gi,
                        },
                        SweepOutcome::Converged {
                            block_temperatures: wt,
                            block_powers: wp,
                            iterations: wi,
                        },
                    ) => {
                        assert_eq!(gi, wi, "lanes {lanes} scenario {i}");
                        assert_eq!(gt, wt, "lanes {lanes} scenario {i} temps");
                        assert_eq!(gp, wp, "lanes {lanes} scenario {i} powers");
                    }
                    (g, w) => assert_eq!(g, w, "lanes {lanes} scenario {i}"),
                }
            }
        }
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        let fp = generator::tiled(ChipGeometry::paper_1mm(), 5, 5, 0.005, 0.015, 9)
            .expect("tiled plan is valid");
        let serial = SpectralOperator::with_image_orders_threaded(
            &fp,
            2,
            5,
            DEFAULT_REFINEMENT_TOLERANCE,
            1,
        )
        .unwrap();
        for threads in [2, 8] {
            let parallel = SpectralOperator::with_image_orders_threaded(
                &fp,
                2,
                5,
                DEFAULT_REFINEMENT_TOLERANCE,
                threads,
            )
            .unwrap();
            assert_eq!(serial.stencils, parallel.stencils, "threads = {threads}");
            assert_eq!(serial.sample_tiles, parallel.sample_tiles);
            assert_eq!(serial.fingerprint(), parallel.fingerprint());
        }
    }

    #[test]
    fn fingerprint_keys_grid_orders_and_tolerance_not_powers() {
        let fp = tile_aligned(4, 4);
        let mut repowered = fp.clone();
        repowered.set_power(0, 42.0);
        assert_eq!(
            SpectralOperator::build(&fp).unwrap().fingerprint(),
            SpectralOperator::build(&repowered).unwrap().fingerprint()
        );
        assert_ne!(
            spectral_operator_fingerprint(&fp, 2, 9, 4, 4, 1e-6),
            spectral_operator_fingerprint(&fp, 2, 9, 4, 4, 1e-3)
        );
        assert_ne!(
            spectral_operator_fingerprint(&fp, 2, 9, 4, 4, 1e-6),
            spectral_operator_fingerprint(&fp, 1, 9, 4, 4, 1e-6)
        );
    }

    #[test]
    fn rises_match_the_full_torus_apply_bitwise_with_a_shared_scratch() {
        // Gutter-tiled plans, so stencils are CG-refined, on two grids
        // with different tori, served from one scratch (larger first).
        use crate::thermal::map::tests::{bits, full_torus_apply};
        let mut scratch = SpectralScratch::new();
        for (rows, cols) in [(9, 9), (5, 7)] {
            let fp = generator::tiled(ChipGeometry::paper_1mm(), rows, cols, 0.008, 0.02, 11)
                .expect("tiled plan is valid");
            let op = SpectralOperator::with_image_orders_threaded(
                &fp,
                2,
                9,
                DEFAULT_REFINEMENT_TOLERANCE,
                1,
            )
            .unwrap();
            assert!(op.refined_blocks() > 0, "gutter blocks must refine");
            let live: Vec<f64> = fp.blocks().iter().map(|b| b.power).collect();
            for powers in [live, vec![0.0; op.blocks()]] {
                let mut got = vec![f64::NAN; op.blocks()];
                op.rises_into(&powers, &mut scratch, &mut got);
                let mut tiles = vec![0.0; op.map.tiles()];
                for (stencil, &p) in op.stencils.iter().zip(&powers) {
                    for &(cell, fraction) in stencil {
                        tiles[cell as usize] += p * fraction;
                    }
                }
                let field = full_torus_apply(&op.map, &tiles);
                let want: Vec<f64> = op
                    .sample_tiles
                    .iter()
                    .map(|&tile| field[tile as usize])
                    .collect();
                assert_eq!(bits(&got), bits(&want), "{rows}x{cols}");
            }
        }
    }

    /// Exact per-watt rise of `block` at the centre of tile `(tx, ty)`:
    /// the term-by-term image sum the memoized near fields replaced.
    fn exact_rise(refiner: &StencilRefiner, block: &Block, tx: usize, ty: usize) -> f64 {
        use crate::thermal::images::expand_images_iter;
        use crate::thermal::profile::BlockKernel;
        let g = refiner.floorplan.geometry();
        let kernel = BlockKernel::for_block(block, g.conductivity, 1.0);
        let (cx, cy) = refiner.map.tile_center(tx, ty);
        let mut rise = 0.0;
        for img in expand_images_iter(
            block.cx,
            block.cy,
            g.width,
            g.length,
            g.thickness,
            refiner.map.lateral_order(),
            refiner.map.z_order(),
        ) {
            rise += img.sign * kernel.rise(cx - img.cx, cy - img.cy, img.depth);
        }
        rise
    }

    /// Checks one plan's build against the per-block oracle path (window,
    /// term-by-term near field, fit): every near field and every final
    /// stencil bit for bit. Returns (suspects, multi-tile defaults,
    /// over-cap suspects).
    fn assert_refinement_matches_the_oracle(
        fp: &Floorplan,
        lateral_order: usize,
        z_order: usize,
    ) -> (usize, usize, usize) {
        let tolerance = DEFAULT_REFINEMENT_TOLERANCE;
        let op =
            SpectralOperator::with_image_orders_threaded(fp, lateral_order, z_order, tolerance, 1)
                .unwrap();
        let kernels = op.map.spatial_kernels(1);
        let refiner = StencilRefiner {
            map: &op.map,
            kernels: &kernels,
            floorplan: fp,
            tolerance,
        };
        let blocks = fp.blocks();
        let defaults: Vec<Vec<(u32, f64)>> = (0..blocks.len())
            .map(|i| op.map.stencil_of(i).to_vec())
            .collect();
        let (tile_w, tile_l) = op.map.tile_pitch();
        let suspects: Vec<usize> = (0..blocks.len())
            .filter(|&i| {
                let b = &blocks[i];
                defaults[i].len() > 1
                    || (b.w - tile_w).abs() > 1e-9 * tile_w
                    || (b.l - tile_l).abs() > 1e-9 * tile_l
            })
            .collect();
        let bits = |s: &[(u32, f64)]| -> Vec<(u32, u64)> {
            s.iter().map(|&(c, q)| (c, q.to_bits())).collect()
        };

        // Near fields, group by group as the build computes them.
        let mut sums = ImageSums::new(fp.geometry(), lateral_order, z_order);
        let groups = source_groups(blocks, suspects.iter().copied(), fp.geometry().conductivity);
        let mut over_cap = 0;
        for group in &groups {
            let patches: Vec<(usize, Patch)> = group
                .members
                .iter()
                .filter_map(|&i| Some((i, refiner.patch(&defaults[i])?)))
                .collect();
            over_cap += group.members.len() - patches.len();
            let fields = refiner.near_fields(&mut sums, group, &patches);
            for ((i, patch), field) in patches.iter().zip(&fields) {
                let want: Vec<u64> = patch
                    .probes()
                    .map(|(x, y)| exact_rise(&refiner, &blocks[*i], x, y).to_bits())
                    .collect();
                let got: Vec<u64> = field.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "block {i} near field");
            }
        }

        // Final stencils against the per-block oracle path.
        for (i, default) in defaults.iter().enumerate() {
            let oracle = suspects
                .contains(&i)
                .then(|| refiner.patch(default))
                .flatten()
                .and_then(|patch| {
                    let exact: Vec<f64> = patch
                        .probes()
                        .map(|(x, y)| exact_rise(&refiner, &blocks[i], x, y))
                        .collect();
                    refiner.fit(default, &patch, &exact)
                })
                .unwrap_or_else(|| default.clone());
            assert_eq!(bits(&op.stencils[i]), bits(&oracle), "block {i} stencil");
        }
        let multi_tile = suspects.iter().filter(|&&i| defaults[i].len() > 1).count();
        (suspects.len(), multi_tile, over_cap)
    }

    #[test]
    fn memoized_near_fields_and_stencils_match_the_term_by_term_oracle_bitwise() {
        // Gutter plans of both aspect ratios: every block refines.
        for (rows, cols) in [(9, 9), (5, 7), (7, 4)] {
            let fp = generator::tiled(ChipGeometry::paper_1mm(), rows, cols, 0.008, 0.02, 11)
                .expect("tiled plan is valid");
            for (lateral, z) in [(2, 9), (1, 3)] {
                let (suspects, _, _) = assert_refinement_matches_the_oracle(&fp, lateral, z);
                assert_eq!(suspects, rows * cols);
            }
        }
        // On a 32×32 grid (centres at tile centres (k + ½)/32 mm):
        // 0.2 mm blocks straddle several tiles, and one 0.5 mm block's
        // support exceeds MAX_REFINEMENT_SUPPORT.
        let at = |k: f64| (k + 0.5) / 32.0 * 1e-3;
        let mut blocks = vec![Block::new("big", at(8.0), at(8.0), 0.5e-3, 0.5e-3, 0.05)];
        for (n, (kx, ky)) in [(24.0, 4.0), (24.0, 12.0), (24.0, 24.0), (12.0, 26.0)]
            .into_iter()
            .enumerate()
        {
            let w = if n % 2 == 0 { 0.2e-3 } else { 0.13e-3 };
            blocks.push(Block::new(format!("b{n}"), at(kx), at(ky), w, 0.2e-3, 0.01));
        }
        let fp = Floorplan::new(ChipGeometry::paper_1mm(), blocks).expect("valid plan");
        assert_eq!(infer_grid(&fp), Ok((32, 32)));
        let (suspects, multi_tile, over_cap) = assert_refinement_matches_the_oracle(&fp, 2, 9);
        assert_eq!(suspects, 5);
        assert!(multi_tile >= 4, "{multi_tile} multi-tile stencils");
        assert_eq!(over_cap, 1, "the big block keeps its area-overlap stencil");
    }

    #[test]
    fn zero_power_rises_are_exactly_zero() {
        let fp = tile_aligned(5, 4);
        let op = SpectralOperator::build(&fp).unwrap();
        let mut rises = vec![1.0; op.blocks()];
        op.rises_into(
            &vec![0.0; op.blocks()],
            &mut SpectralScratch::new(),
            &mut rises,
        );
        assert!(rises.iter().all(|&r| r == 0.0));
    }
}
