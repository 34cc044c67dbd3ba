//! Memoized image sums: the exact per-watt Eq. 20 rise over the §3.3
//! image lattice, with each distinct kernel term evaluated once.
//!
//! Both operator builds need the same quantity for many
//! (target, source) pairs: the dense influence matrix
//! ([`ThermalOperator`](crate::cosim::ThermalOperator)) for every
//! entry, and the spectral backend's stencil refinement
//! ([`SpectralOperator`](crate::cosim::spectral::SpectralOperator))
//! for every probe of a block's exact near field:
//!
//! ```text
//! S(t, s) = Σ_{x-site} Σ_{y-site} Σ_k w_k · K_s(t_x − x, t_y − y, z_k)
//! ```
//!
//! summed in lattice order — x-site, then y-site, then depth — exactly
//! as [`expand_images_iter`](crate::thermal::images::expand_images_iter)
//! emits the images. Evaluated term by term that is 1,000 kernel calls
//! (100 lateral sites × 10 depths at the default orders), each two
//! `sqrt` and one `ln`, per pair.
//!
//! # Why memoization keeps every bit
//!
//! [`BlockKernel::rise`] reads the displacement only through `|u|` and
//! `v·v`, so a term's bits are a function of the bits of `|dx|`, `|dy|`
//! and `z` alone. Sources with equal `(w, l, cy)` bits share a kernel
//! and their y-sites ([`SourceGroup`]); targets with equal `t_y` bits
//! share every `dy`. So for one *target row* against one *source
//! group*, [`ImageSums::row`]:
//!
//! 1. dedupes `|dx|` by bits, assigning table ids in first-seen order;
//! 2. fills `table[id][y-site][k] = w_k · K(|dx|, dy, z_k)` once, the
//!    depth-independent half of each column hoisted out by
//!    [`BlockKernel::rise_column`];
//! 3. replays each entry's adds from the table in lattice order.
//!
//! Every term carries the bits the direct loop computes and is added in
//! the same order, so every sum is bit-identical to it. A table that
//! pre-summed each depth column would be cheaper still, but it
//! reassociates the adds and moves the last bits; the oracle tests in
//! `cosim::operator` and `cosim::spectral` would catch it. Nothing here
//! depends on the plan being regular: a plan with no shared rows or
//! sizes degenerates to groups of one and runs the same code.
//!
//! # Memory
//!
//! One [`ImageSums`] per worker, its buffers reused across calls. The
//! table holds `distinct |dx| × y-sites × depths` values: about 0.4 MB
//! for a 48×48 gutter plan's largest row at the default orders. Callers
//! stream (target row, source group) pairs through it and never hold
//! every group's inputs at once.

use crate::thermal::images::{axis_images, depth_series};
use crate::thermal::profile::BlockKernel;
use ptherm_floorplan::{Block, ChipGeometry};
use std::collections::HashMap;
use std::hash::Hash;

/// Entries replayed side by side: each keeps its own accumulator (and
/// its own add order), so interleaving only hides the add latency.
const LANES: usize = 4;

/// Indices of `keyed` grouped by equal keys, groups and members in
/// first-seen order. The map only assigns group numbers; it is never
/// iterated, so the grouping is deterministic.
pub(crate) fn groups_by_key<K: Hash + Eq>(
    keyed: impl IntoIterator<Item = (usize, K)>,
) -> Vec<Vec<usize>> {
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (item, key) in keyed {
        let group = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        if let Some(members) = groups.get_mut(group) {
            members.push(item);
        }
    }
    groups
}

/// Sources that share a unit-power kernel and their y-sites: blocks
/// with equal `(w, l, cy)` bits.
#[derive(Debug, Clone)]
pub(crate) struct SourceGroup {
    /// The members' unit-power Eq. 20 kernel.
    pub(crate) kernel: BlockKernel,
    /// The members' centre height, m.
    pub(crate) cy: f64,
    /// Member block indices, first-seen order.
    pub(crate) members: Vec<usize>,
}

/// The blocks `members` of `blocks`, grouped by `(w, l, cy)` bits in
/// first-seen order, each group with its unit-power kernel at
/// substrate conductivity `k`.
pub(crate) fn source_groups(
    blocks: &[Block],
    members: impl IntoIterator<Item = usize>,
    k: f64,
) -> Vec<SourceGroup> {
    let keyed = members.into_iter().filter_map(|i| {
        let b = blocks.get(i)?;
        Some((i, (b.w.to_bits(), b.l.to_bits(), b.cy.to_bits())))
    });
    groups_by_key(keyed)
        .into_iter()
        .filter_map(|members| {
            let first = blocks.get(*members.first()?)?;
            Some(SourceGroup {
                kernel: BlockKernel::for_block(first, k, 1.0),
                cy: first.cy,
                members,
            })
        })
        .collect()
}

/// Reusable evaluator of exact per-watt image sums on one die at one
/// pair of image orders (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct ImageSums {
    die_w: f64,
    die_l: f64,
    lateral_order: usize,
    /// Depth-series weights `w_k` (signed, see
    /// [`depth_series`](crate::thermal::images::depth_series)).
    weights: Vec<f64>,
    /// Squared image depths `z_k²`.
    z2: Vec<f64>,
    /// `t_y − y` per y-site of the current row.
    dys: Vec<f64>,
    /// `|dx|` bits → table id.
    ids: HashMap<u64, u32>,
    /// `|dx|` per table id.
    dxs: Vec<f64>,
    /// Table id of every entry's x-sites, entry after entry.
    sites: Vec<u32>,
    /// End of each entry's run in `sites`.
    ends: Vec<usize>,
    /// `table[(id · y-sites + j) · depths + k] = w_k · K(|dx_id|, dy_j, z_k)`.
    table: Vec<f64>,
}

impl ImageSums {
    /// An evaluator for `geometry` at the given image orders; buffers
    /// size themselves on first use.
    pub(crate) fn new(geometry: &ChipGeometry, lateral_order: usize, z_order: usize) -> Self {
        let (weights, z2) = depth_series(geometry.thickness, z_order)
            .map(|(w, z)| (w, z * z))
            .unzip();
        ImageSums {
            die_w: geometry.width,
            die_l: geometry.length,
            lateral_order,
            weights,
            z2,
            dys: Vec::new(),
            ids: HashMap::new(),
            dxs: Vec::new(),
            sites: Vec::new(),
            ends: Vec::new(),
            table: Vec::new(),
        }
    }

    /// Exact image sums of one target row against one source group:
    /// `out[i]` is the per-watt rise at `(entries[i].0, ty)` of the
    /// `group` member centred at `(entries[i].1, group.cy)`,
    /// bit-identical to summing `w · kernel.rise(..)` over that
    /// source's
    /// [`expand_images_iter`](crate::thermal::images::expand_images_iter)
    /// lattice in order. Writes `min(entries.len(), out.len())` sums.
    pub(crate) fn row(
        &mut self,
        group: &SourceGroup,
        ty: f64,
        entries: &[(f64, f64)],
        out: &mut [f64],
    ) {
        self.dys.clear();
        self.dys
            .extend(axis_images(group.cy, self.die_l, self.lateral_order).map(|y| ty - y));

        // 1. Dedupe |dx| by bits, ids in first-seen order.
        self.ids.clear();
        self.dxs.clear();
        self.sites.clear();
        self.ends.clear();
        for &(tx, sx) in entries {
            for x in axis_images(sx, self.die_w, self.lateral_order) {
                let dx = (tx - x).abs();
                let fresh = self.dxs.len() as u32;
                let id = *self.ids.entry(dx.to_bits()).or_insert(fresh);
                if id == fresh {
                    self.dxs.push(dx);
                }
                self.sites.push(id);
            }
            self.ends.push(self.sites.len());
        }

        // 2. One weighted depth column per distinct (|dx|, y-site).
        let depths = self.z2.len();
        let stride = self.dys.len() * depths;
        self.table.clear();
        self.table.resize(self.dxs.len() * stride, 0.0);
        for (&dx, cells) in self.dxs.iter().zip(self.table.chunks_exact_mut(stride)) {
            for (&dy, column) in self.dys.iter().zip(cells.chunks_exact_mut(depths)) {
                group.kernel.rise_column(dx, dy, &self.z2, column);
                for (term, &w) in column.iter_mut().zip(&self.weights) {
                    *term *= w;
                }
            }
        }

        // 3. Replay each entry's adds in lattice order, LANES entries
        // side by side where their site counts agree.
        let n = entries.len().min(out.len());
        let (mut i, mut begin) = (0, 0);
        while i < n {
            let count = self.ends[i] - begin;
            let lanes_agree = i + LANES <= n
                && (1..LANES).all(|l| self.ends[i + l] - self.ends[i + l - 1] == count);
            if lanes_agree {
                let sums: [f64; LANES] = replay(
                    &self.table,
                    stride,
                    count,
                    std::array::from_fn(|l| &self.sites[begin + l * count..]),
                );
                out[i..i + LANES].copy_from_slice(&sums);
                i += LANES;
                begin += LANES * count;
            } else {
                let [sum] = replay(&self.table, stride, count, [&self.sites[begin..]]);
                out[i] = sum;
                i += 1;
                begin += count;
            }
        }
    }
}

/// Sums `L` entries' terms: for each of the first `count` ids in
/// `sites[l]`, the `stride` table values of that id's row in order. Each
/// lane's adds happen in exactly the order a lone entry's would.
#[inline]
fn replay<const L: usize>(
    table: &[f64],
    stride: usize,
    count: usize,
    sites: [&[u32]; L],
) -> [f64; L] {
    let mut acc = [0.0; L];
    // `s` walks all L lanes' id runs in step; no single slice to iterate.
    #[allow(clippy::needless_range_loop)]
    for s in 0..count {
        let rows: [&[f64]; L] = std::array::from_fn(|l| {
            let start = sites[l][s] as usize * stride;
            &table[start..start + stride]
        });
        for t in 0..stride {
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a += row[t];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermal::images::expand_images_iter;

    /// The direct per-term sum the module replaces.
    fn direct(
        g: &ChipGeometry,
        kernel: &BlockKernel,
        (tx, ty): (f64, f64),
        (sx, sy): (f64, f64),
        lateral_order: usize,
        z_order: usize,
    ) -> f64 {
        let mut rise = 0.0;
        for img in expand_images_iter(
            sx,
            sy,
            g.width,
            g.length,
            g.thickness,
            lateral_order,
            z_order,
        ) {
            rise += img.sign * kernel.rise(tx - img.cx, ty - img.cy, img.depth);
        }
        rise
    }

    #[test]
    fn rows_match_the_direct_sum_bitwise_including_mirror_plane_sources() {
        let g = ChipGeometry::paper_1mm();
        let block = Block::new("b", 0.0, 0.0, 0.12e-3, 0.3e-3, 1.0);
        let kernel = BlockKernel::for_block(&block, g.conductivity, 1.0);
        let group = |cy: f64| SourceGroup {
            kernel,
            cy,
            members: Vec::new(),
        };
        // Sources on both mirror planes (x = 0, x = W) have fewer
        // x-sites, so they also break the interleaved lanes apart.
        let xs = [0.0, 0.1e-3, 0.35e-3, 0.5e-3, 0.8e-3, 1e-3, 0.45e-3];
        for (lateral, z) in [(2, 9), (1, 4), (0, 0), (3, 1)] {
            for sy in [0.25e-3, 0.0, 1e-3] {
                let mut sums = ImageSums::new(&g, lateral, z);
                for ty in [0.25e-3, 0.6e-3, 0.0] {
                    let entries: Vec<(f64, f64)> = xs
                        .iter()
                        .flat_map(|&tx| xs.iter().map(move |&sx| (tx, sx)))
                        .collect();
                    let mut out = vec![f64::NAN; entries.len()];
                    sums.row(&group(sy), ty, &entries, &mut out);
                    for (&(tx, sx), got) in entries.iter().zip(&out) {
                        let want = direct(&g, &kernel, (tx, ty), (sx, sy), lateral, z);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "({tx:e}, {ty:e}) from ({sx:e}, {sy:e}) at orders ({lateral}, {z})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn groups_keep_first_seen_order() {
        let groups = groups_by_key([(0, 'b'), (1, 'a'), (2, 'b'), (3, 'c'), (4, 'a')]);
        assert_eq!(groups, vec![vec![0, 2], vec![1, 4], vec![3]]);
        assert!(groups_by_key(std::iter::empty::<(usize, u8)>()).is_empty());
        // Source groups split on any of w, l or cy, and skip unknown
        // indices.
        let blocks = [
            Block::new("a", 0.1e-3, 0.2e-3, 0.1e-3, 0.1e-3, 1.0),
            Block::new("b", 0.3e-3, 0.2e-3, 0.1e-3, 0.1e-3, 1.0),
            Block::new("c", 0.5e-3, 0.2e-3, 0.1e-3, 0.15e-3, 1.0),
            Block::new("d", 0.1e-3, 0.6e-3, 0.1e-3, 0.1e-3, 1.0),
            Block::new("e", 0.7e-3, 0.2e-3, 0.1e-3, 0.1e-3, 1.0),
        ];
        let members: Vec<Vec<usize>> = source_groups(&blocks, [4, 0, 1, 2, 3, 9], 148.0)
            .into_iter()
            .map(|g| g.members)
            .collect();
        assert_eq!(members, vec![vec![4, 0, 1], vec![2], vec![3]]);
    }
}
