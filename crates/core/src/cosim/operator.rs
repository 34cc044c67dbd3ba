//! The precomputed thermal influence operator and the reusable solve
//! workspace — the batching structure behind the sweep engine.
//!
//! Eq. 21 is **linear in the block powers**: the temperature rise at any
//! point is a power-weighted sum of per-block kernels (Eq. 20 with the
//! method of images), and the kernels depend only on floorplan geometry.
//! So the whole block-centre thermal solve collapses to one `n × n`
//! matrix — the *thermal influence matrix* `R`, with `R[i][j]` the rise at
//! block `i`'s centre per watt dissipated in block `j` — computed **once
//! per floorplan** and reused across every power vector, every Picard
//! iteration and every scenario of a sweep (the structure Kemper et al.'s
//! "Ultrafast Temperature Profile Calculation" exploits, applied to the
//! DATE'05 closed forms):
//!
//! ```text
//! T_i = T_sink + Σ_j R[i][j] · P_j          (Eq. 21, factored)
//! ```
//!
//! Building `R` does the expensive work: every entry sums the Eq. 20
//! kernel over its source's image lattice, `O(n² · images)` terms. The
//! build evaluates each *distinct* term only once (`ImageSums`): a
//! term's bits depend only on the bits of `|dx|`, `|dy|` and the image
//! depth, and blocks sharing a row or a size share most of them. Each
//! entry then replays its terms in lattice order, so `R` is
//! bit-identical to the term-by-term sum. Afterwards each thermal solve
//! is a single `O(n²)` matrix-vector product with **zero allocation**
//! via [`Matrix::mul_vec_into`]. See `docs/EQUATIONS.md` for the
//! paper-equation map.

use crate::thermal::image_sum::{groups_by_key, source_groups, ImageSums};
use ptherm_floorplan::Floorplan;
use ptherm_math::Matrix;

/// Hottest value of a temperature slice; `None` for an empty slice. The
/// one max-reduction every result type shares.
pub(crate) fn max_temperature(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

/// Precomputed, immutable block-centre thermal operator of one floorplan.
///
/// Shareable across threads (`&ThermalOperator` is `Send + Sync`); the
/// sweep engine builds one and fans thousands of scenario solves over it.
///
/// # Example
///
/// ```
/// use ptherm_core::cosim::ThermalOperator;
/// use ptherm_floorplan::Floorplan;
///
/// let fp = Floorplan::paper_three_blocks();
/// let op = ThermalOperator::new(&fp);
/// // Same powers as the floorplan's own assignment -> same temperatures
/// // as a one-shot ThermalModel solve (within a few ULP).
/// let t = op.temperatures(&[0.35, 0.30, 0.25]);
/// assert!(t.iter().all(|&ti| ti > 300.0));
/// ```
#[derive(Debug, Clone)]
pub struct ThermalOperator {
    /// `n × n` influence matrix, K/W.
    influence: Matrix,
    /// Sink (ambient) temperature the floorplan was built with, K.
    sink_temperature: f64,
    lateral_order: usize,
    z_order: usize,
    /// Content fingerprint: floorplan geometry × image orders.
    fingerprint: u64,
}

/// Fingerprint of the operator a build would produce: the floorplan's
/// geometry fingerprint mixed with the image orders — everything the
/// deterministic build reads. Computable **without** building, which is
/// what lets a cache decide hit/miss before paying for assembly.
pub fn operator_fingerprint(floorplan: &Floorplan, lateral_order: usize, z_order: usize) -> u64 {
    let mut f = ptherm_floorplan::fingerprint::Fingerprinter::new("ptherm.operator.v1");
    f.write_u64(floorplan.geometry_fingerprint());
    f.write_u64(lateral_order as u64);
    f.write_u64(z_order as u64);
    f.finish()
}

impl ThermalOperator {
    /// Builds the operator with the workspace accuracy defaults (lateral
    /// image order 2, depth series order 9) — matching
    /// [`ThermalModel::new`](crate::thermal::ThermalModel::new).
    pub fn new(floorplan: &Floorplan) -> Self {
        Self::with_image_orders(floorplan, 2, 9)
    }

    /// Builds the operator with an explicit image configuration (see
    /// [`ThermalModel::with_image_orders`](crate::thermal::ThermalModel::with_image_orders))
    /// on one worker per available CPU.
    ///
    /// Block powers recorded in `floorplan` are ignored: the operator is
    /// geometry-only and applies to any power vector.
    pub fn with_image_orders(floorplan: &Floorplan, lateral_order: usize, z_order: usize) -> Self {
        Self::with_image_orders_threaded(
            floorplan,
            lateral_order,
            z_order,
            ptherm_par::default_threads(),
        )
    }

    /// [`Self::with_image_orders`] with an explicit worker count.
    ///
    /// Each worker owns a disjoint run of influence-matrix rows and
    /// streams them through one image-sum table (`ImageSums`, about
    /// `distinct |dx| × 100` values at the default orders, reused from
    /// pair to pair). Its targets are grouped into rows of equal centre
    /// height, the sources into groups of equal `(w, l, cy)` bits, and
    /// every (target row, source group) pair evaluates each distinct
    /// image-kernel term once, then replays every entry's adds in
    /// lattice order. Each entry is therefore bit-identical to the
    /// term-by-term sum over
    /// [`expand_images_iter`](crate::thermal::images::expand_images_iter),
    /// whatever the grouping, so also from 1 to N threads. A plan with
    /// no shared rows or sizes runs the same code with groups of one.
    pub fn with_image_orders_threaded(
        floorplan: &Floorplan,
        lateral_order: usize,
        z_order: usize,
        threads: usize,
    ) -> Self {
        let g = floorplan.geometry();
        let blocks = floorplan.blocks();
        let n = blocks.len();
        // Thread spawn/join costs tens of microseconds; tiny floorplans
        // (one-shot `ElectroThermalSolver::solve` calls on a handful of
        // blocks) build faster inline than fanned out.
        let threads = if n < 8 { 1 } else { threads };
        // One unit-power kernel per source group: Eq. 20 is linear in
        // P, and equal (w, l) bits give equal kernel bits.
        let groups = source_groups(blocks, 0..n, g.conductivity);
        let fingerprint = operator_fingerprint(floorplan, lateral_order, z_order);
        let mut influence = Matrix::zeros(n, n);
        if n == 0 {
            return ThermalOperator {
                influence,
                sink_temperature: g.sink_temperature,
                lateral_order,
                z_order,
                fingerprint,
            };
        }
        ptherm_par::par_partition_mut(threads, influence.as_mut_slice(), n, |first_row, rows| {
            let mut sums = ImageSums::new(g, lateral_order, z_order);
            let mut entries = Vec::new();
            let mut out = Vec::new();
            let targets = first_row..first_row + rows.len() / n;
            let target_rows = groups_by_key(targets.map(|i| (i, blocks[i].cy.to_bits())));
            for row in &target_rows {
                let Some(&first) = row.first() else { continue };
                for group in &groups {
                    entries.clear();
                    for &t in row {
                        let tx = blocks[t].cx;
                        entries.extend(group.members.iter().map(|&s| (tx, blocks[s].cx)));
                    }
                    out.resize(entries.len(), 0.0);
                    sums.row(group, blocks[first].cy, &entries, &mut out);
                    let mut rises = out.iter();
                    for &t in row {
                        let target = &mut rows[(t - first_row) * n..(t - first_row + 1) * n];
                        for (&s, &rise) in group.members.iter().zip(&mut rises) {
                            target[s] = rise;
                        }
                    }
                }
            }
        });
        ThermalOperator {
            influence,
            sink_temperature: g.sink_temperature,
            lateral_order,
            z_order,
            fingerprint,
        }
    }

    /// Stable content fingerprint of this operator (see
    /// [`operator_fingerprint`]): equal fingerprints imply bit-identical
    /// influence matrices, the contract the fleet cache relies on.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of blocks the operator couples.
    pub fn len(&self) -> usize {
        self.influence.rows()
    }

    /// True for an empty floorplan.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sink temperature the source floorplan declared, K. Individual
    /// solves may override it (ambient is a sweep axis).
    pub fn sink_temperature(&self) -> f64 {
        self.sink_temperature
    }

    /// Lateral image order the operator was built with.
    pub fn lateral_order(&self) -> usize {
        self.lateral_order
    }

    /// Depth-series order the operator was built with.
    pub fn z_order(&self) -> usize {
        self.z_order
    }

    /// The influence matrix itself, K/W.
    pub fn influence(&self) -> &Matrix {
        &self.influence
    }

    /// Block-centre temperature rises for one power vector, written into
    /// `out` with zero allocation.
    ///
    /// # Panics
    ///
    /// Panics if `powers` or `out` is not of length [`Self::len`].
    pub fn temperature_rises_into(&self, powers: &[f64], out: &mut [f64]) {
        self.influence.mul_vec_into(powers, out);
    }

    /// Absolute block-centre temperatures above `sink_k`, written into
    /// `out` with zero allocation.
    ///
    /// # Panics
    ///
    /// Panics if `powers` or `out` is not of length [`Self::len`].
    pub fn temperatures_with_sink_into(&self, powers: &[f64], sink_k: f64, out: &mut [f64]) {
        self.temperature_rises_into(powers, out);
        for t in out.iter_mut() {
            *t += sink_k;
        }
    }

    /// Convenience allocating form of [`Self::temperatures_with_sink_into`]
    /// at the floorplan's own sink temperature.
    pub fn temperatures(&self, powers: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        self.temperatures_with_sink_into(powers, self.sink_temperature, &mut out);
        out
    }
}

/// Reusable per-solve scratch state for the Picard iteration.
///
/// One workspace per worker thread makes the steady-state loop allocation
/// free: every buffer is sized on first use and reused afterwards
/// (`Vec::clear` keeps capacity). The workspace retains the last solve's
/// state, which [`CosimResult`](crate::cosim::CosimResult) snapshots.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Block temperatures, K (iterate of the fixed point).
    pub(crate) temperatures: Vec<f64>,
    /// Block powers at the current temperatures, W.
    pub(crate) powers: Vec<f64>,
    /// Fresh thermal solve output (rises, then absolute temperatures), K.
    pub(crate) fresh: Vec<f64>,
    /// Max block-temperature change per iteration, K.
    pub(crate) history: Vec<f64>,
    /// Iterations the last solve used.
    pub(crate) iterations: usize,
}

impl Workspace {
    /// An empty workspace; buffers size themselves on first solve.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Clears state and sizes every buffer for `n` blocks starting from
    /// `sink_k`, keeping existing capacity.
    pub(crate) fn reset(&mut self, n: usize, sink_k: f64) {
        self.temperatures.clear();
        self.temperatures.resize(n, sink_k);
        self.powers.clear();
        self.powers.resize(n, 0.0);
        self.fresh.clear();
        self.fresh.resize(n, 0.0);
        self.history.clear();
        self.iterations = 0;
    }

    /// Block temperatures after the last solve, K.
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// Block powers after the last solve, W.
    pub fn powers(&self) -> &[f64] {
        &self.powers
    }

    /// Per-iteration max temperature change of the last solve, K.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Iterations the last solve used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Hottest block temperature of the last solve, K.
    pub fn peak_temperature(&self) -> f64 {
        max_temperature(&self.temperatures).unwrap_or(f64::NEG_INFINITY)
    }

    /// Total power of the last solve, W.
    pub fn total_power(&self) -> f64 {
        self.powers.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermal::ThermalModel;

    #[test]
    fn operator_matches_thermal_model_on_the_paper_floorplan() {
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        let direct = ThermalModel::new(&fp).block_center_temperatures();
        let powers: Vec<f64> = fp.blocks().iter().map(|b| b.power).collect();
        let via_op = op.temperatures(&powers);
        for (a, b) in via_op.iter().zip(&direct) {
            // Same closed forms, slightly different summation order.
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn operator_is_linear_in_power() {
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        let t1 = op.temperatures(&[0.1, 0.2, 0.3]);
        let t2 = op.temperatures(&[0.2, 0.4, 0.6]);
        for (a, b) in t1.iter().zip(&t2) {
            let (r1, r2) = (a - 300.0, b - 300.0);
            assert!((r2 - 2.0 * r1).abs() < 1e-12 * r2.abs().max(1.0));
        }
    }

    #[test]
    fn operator_ignores_recorded_powers() {
        let fp = Floorplan::paper_three_blocks();
        let mut scaled = fp.clone();
        for i in 0..scaled.blocks().len() {
            scaled.set_power(i, 123.0);
        }
        let a = ThermalOperator::new(&fp);
        let b = ThermalOperator::new(&scaled);
        assert_eq!(a.influence().as_slice(), b.influence().as_slice());
    }

    #[test]
    fn fingerprint_keys_geometry_and_orders_not_powers() {
        let fp = Floorplan::paper_three_blocks();
        let mut repowered = fp.clone();
        repowered.set_power(0, 42.0);
        // Powers are invisible to the operator and to its fingerprint.
        assert_eq!(
            ThermalOperator::new(&fp).fingerprint(),
            ThermalOperator::new(&repowered).fingerprint()
        );
        // Image orders are part of the key.
        assert_ne!(
            ThermalOperator::with_image_orders(&fp, 2, 9).fingerprint(),
            ThermalOperator::with_image_orders(&fp, 2, 5).fingerprint()
        );
        // The standalone predictor matches the built operator.
        assert_eq!(
            operator_fingerprint(&fp, 2, 9),
            ThermalOperator::with_image_orders(&fp, 2, 9).fingerprint()
        );
    }

    #[test]
    fn ambient_shifts_are_additive() {
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        let powers = [0.35, 0.30, 0.25];
        let mut at300 = vec![0.0; 3];
        let mut at350 = vec![0.0; 3];
        op.temperatures_with_sink_into(&powers, 300.0, &mut at300);
        op.temperatures_with_sink_into(&powers, 350.0, &mut at350);
        for (a, b) in at300.iter().zip(&at350) {
            assert!((b - a - 50.0).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_dominates_off_diagonal() {
        // A block heats itself more than it heats its neighbours.
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        let m = op.influence();
        for i in 0..op.len() {
            for j in 0..op.len() {
                if i != j {
                    assert!(m[(i, i)] > m[(i, j)], "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn threaded_build_is_bit_identical_to_serial() {
        let fp = ptherm_floorplan::generator::tiled(
            ptherm_floorplan::ChipGeometry::paper_1mm(),
            3,
            3,
            0.1,
            0.4,
            7,
        )
        .expect("valid tiling");
        let serial = ThermalOperator::with_image_orders_threaded(&fp, 2, 5, 1);
        for threads in [2, 4, 16] {
            let parallel = ThermalOperator::with_image_orders_threaded(&fp, 2, 5, threads);
            assert_eq!(
                serial.influence().as_slice(),
                parallel.influence().as_slice(),
                "threads = {threads}"
            );
        }
    }

    /// The term-by-term build the memoized image sums replaced: every
    /// entry streams its source's whole image lattice through
    /// `BlockKernel::rise`.
    fn term_by_term_influence(fp: &Floorplan, lateral_order: usize, z_order: usize) -> Vec<f64> {
        use crate::thermal::images::expand_images_iter;
        use crate::thermal::profile::BlockKernel;
        let g = fp.geometry();
        let mut out = Vec::new();
        for target in fp.blocks() {
            for source in fp.blocks() {
                let kernel = BlockKernel::for_block(source, g.conductivity, 1.0);
                let mut rise = 0.0;
                for img in expand_images_iter(
                    source.cx,
                    source.cy,
                    g.width,
                    g.length,
                    g.thickness,
                    lateral_order,
                    z_order,
                ) {
                    rise +=
                        img.sign * kernel.rise(target.cx - img.cx, target.cy - img.cy, img.depth);
                }
                out.push(rise);
            }
        }
        out
    }

    #[test]
    fn memoized_build_matches_the_term_by_term_sum_bitwise() {
        use ptherm_floorplan::{generator, Block, ChipGeometry};
        let die = |w: f64, l: f64| ChipGeometry {
            width: w,
            length: l,
            ..ChipGeometry::paper_1mm()
        };
        // Rows alternate two block widths, so each row holds two source
        // groups and every target row sees both kernels.
        let mixed: Vec<Block> = (0..3)
            .flat_map(|r| {
                (0..5).map(move |c| {
                    let w = if c % 2 == 0 { 0.12e-3 } else { 0.16e-3 };
                    let (cx, cy) = (0.1e-3 + 0.2e-3 * c as f64, 0.15e-3 + 0.3e-3 * r as f64);
                    Block::new(format!("m{r}-{c}"), cx, cy, w, 0.2e-3, 0.01)
                })
            })
            .collect();
        let plans = [
            // Gutter plans of both aspect ratios: blocks longer in y
            // (`along_y`), then longer in x.
            generator::tiled(die(1.0e-3, 1.2e-3), 5, 7, 0.01, 0.02, 3).expect("tiled plan"),
            generator::tiled(die(1.1e-3, 1.0e-3), 7, 4, 0.01, 0.02, 5).expect("tiled plan"),
            generator::tile_aligned(ChipGeometry::paper_1mm(), 6, 5, |i| 0.01 + 0.001 * i as f64)
                .expect("aligned plan"),
            Floorplan::paper_three_blocks(),
            Floorplan::new(ChipGeometry::paper_1mm(), mixed).expect("mixed plan"),
        ];
        for (p, fp) in plans.iter().enumerate() {
            for (lateral_order, z_order) in [(2, 9), (1, 1)] {
                let want: Vec<u64> = term_by_term_influence(fp, lateral_order, z_order)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                for threads in [1, 2, 8] {
                    let op = ThermalOperator::with_image_orders_threaded(
                        fp,
                        lateral_order,
                        z_order,
                        threads,
                    );
                    let got: Vec<u64> = op
                        .influence()
                        .as_slice()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect();
                    assert_eq!(
                        got, want,
                        "plan {p}, orders ({lateral_order}, {z_order}), {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_floorplan_builds_an_empty_operator() {
        let fp = Floorplan::new(ptherm_floorplan::ChipGeometry::paper_1mm(), Vec::new())
            .expect("empty plan");
        let op = ThermalOperator::new(&fp);
        assert!(op.is_empty());
        assert_eq!(op.len(), 0);
        let out: Vec<f64> = op.temperatures(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn workspace_buffers_retain_capacity_across_solves() {
        let mut ws = Workspace::new();
        ws.reset(8, 300.0);
        ws.history.extend([1.0, 0.5, 0.1]);
        let cap = ws.temperatures.capacity();
        ws.reset(8, 310.0);
        assert_eq!(ws.temperatures.capacity(), cap);
        assert!(ws.history.is_empty());
        assert!(ws.temperatures.iter().all(|&t| t == 310.0));
    }
}
