//! Method of images for the die boundary conditions (§3.3, Fig. 6).
//!
//! Two identical sources mirrored across a plane force zero normal flux on
//! that plane; a source and its **negated** mirror force zero temperature.
//! The paper uses both tricks:
//!
//! * **adiabatic sides** — every block is reflected across the four die
//!   edges ("several images for each side"); reflections compose, giving
//!   the lattice `x' = 2·m·W ± x`, `y' = 2·n·L ± y`,
//! * **isothermal bottom** — every (reflected) block gets a `−P` image
//!   mirrored through the bottom plane, i.e. a sink at depth
//!   `2·thickness` below the surface.
//!
//! `lateral_order` bounds `|m|, |n|`; order 1–2 is already accurate to a
//! few percent against the finite-difference reference (the `fig6`/`fig7`
//! experiments sweep it as an ablation).
//!
//! The lattice is produced by **allocation-free iterators**
//! ([`lateral_images_iter`], [`expand_images_iter`]): each axis emits its
//! reflections in ascending order and drops the duplicates that appear
//! when a block sits exactly on a mirror plane *as it goes*, so no
//! per-block `Vec`, sort or dedup pass exists on the operator-assembly
//! hot path. The [`lateral_images`] / [`expand_images`] wrappers collect
//! the same sequence (in the same sorted order the old sort-based
//! implementation produced) for callers that want to cache the lattice.

/// One image source: position of its centre and the sign of its power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageSource {
    /// Image centre x, die coordinates, m.
    pub cx: f64,
    /// Image centre y, die coordinates, m.
    pub cy: f64,
    /// +1 for heat sources, −1 for the bottom-mirror sinks.
    pub sign: f64,
    /// Depth of the image plane below the surface (0 for lateral images,
    /// `2·thickness` for bottom mirrors), m.
    pub depth: f64,
}

/// Coincidence tolerance for images of a block sitting exactly on a
/// mirror plane (kept from the original sort-and-dedup implementation;
/// die coordinates are ~1e-3 m, so this is far below one ULP of any
/// distinct lattice site).
const DEDUP_EPS: f64 = 1e-15;

/// Ascending reflections of one coordinate: `2·m·period ± base` for
/// `m ∈ [−k, k]`, duplicates (base on a mirror plane) skipped on the fly.
#[derive(Debug, Clone)]
struct AxisImages {
    base: f64,
    period: f64,
    m: i64,
    m_end: i64,
    /// Next parity to emit: `false` = `2mp − base`, `true` = `2mp + base`.
    plus: bool,
    last: f64,
    any: bool,
}

impl AxisImages {
    fn new(base: f64, period: f64, order: usize) -> Self {
        let k = order as i64;
        AxisImages {
            base,
            period,
            m: -k,
            m_end: k,
            plus: false,
            last: f64::NAN,
            any: false,
        }
    }
}

impl Iterator for AxisImages {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        loop {
            if self.m > self.m_end {
                return None;
            }
            let center = 2.0 * self.m as f64 * self.period;
            let value = if self.plus {
                self.m += 1;
                self.plus = false;
                center + self.base
            } else {
                self.plus = true;
                center - self.base
            };
            // The sequence is non-decreasing, so comparing against the
            // last emitted value reproduces the old sorted-dedup exactly.
            if self.any && (value - self.last).abs() < DEDUP_EPS {
                continue;
            }
            self.last = value;
            self.any = true;
            return Some(value);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining_m = (self.m_end - self.m + 1).max(0) as usize;
        let upper = 2 * remaining_m - usize::from(self.plus && remaining_m > 0);
        (0, Some(upper))
    }
}

/// One axis of the lateral lattice: the ascending, deduplicated
/// reflections `2·m·period ± base`, `m ∈ [−order, order]`. The lattice
/// of [`lateral_images_iter`] is the cross product of the x and y
/// sequences, x outer.
pub(crate) fn axis_images(base: f64, period: f64, order: usize) -> impl Iterator<Item = f64> {
    AxisImages::new(base, period, order)
}

/// Lazy lateral image lattice of a block centre (including the original)
/// for a `die_w × die_l` die: the cross product of both axis reflection
/// sequences, emitted in ascending `(x, y)` lexicographic order with
/// zero allocation. See [`lateral_images`].
#[derive(Debug, Clone)]
pub struct LateralImages {
    xs: AxisImages,
    ys_template: AxisImages,
    cur_x: f64,
    cur_ys: AxisImages,
}

impl Iterator for LateralImages {
    type Item = (f64, f64);

    fn next(&mut self) -> Option<(f64, f64)> {
        loop {
            if let Some(y) = self.cur_ys.next() {
                return Some((self.cur_x, y));
            }
            self.cur_x = self.xs.next()?;
            self.cur_ys = self.ys_template.clone();
        }
    }
}

/// Iterator over the lateral images (including the original) of a block
/// centred at `(cx, cy)` on a `die_w × die_l` die.
///
/// With `order = k`, each axis contributes reflections `m ∈ [−k, k]` of
/// both parities — `2·(2k+1)` values, collapsing to `2k+1` for a block on
/// a mirror plane — so a generic block expands to `(2·(2k+1))²` images.
/// `k = 0` keeps just the in-place parities.
pub fn lateral_images_iter(
    cx: f64,
    cy: f64,
    die_w: f64,
    die_l: f64,
    order: usize,
) -> LateralImages {
    let ys = AxisImages::new(cy, die_l, order);
    LateralImages {
        // Start exhausted in y so the first `next` pulls the first x.
        xs: AxisImages::new(cx, die_w, order),
        ys_template: ys.clone(),
        cur_x: f64::NAN,
        cur_ys: AxisImages {
            m: 1,
            m_end: 0,
            ..ys
        },
    }
}

/// Collected form of [`lateral_images_iter`], in ascending `(x, y)`
/// order, allocated to the exact deduplicated size.
pub fn lateral_images(cx: f64, cy: f64, die_w: f64, die_l: f64, order: usize) -> Vec<(f64, f64)> {
    let nx = AxisImages::new(cx, die_w, order).count();
    let ny = AxisImages::new(cy, die_l, order).count();
    let mut out = Vec::with_capacity(nx * ny);
    out.extend(lateral_images_iter(cx, cy, die_w, die_l, order));
    out
}

/// Lazy full image expansion of one block: the lateral lattice crossed
/// with the alternating depth series, zero allocation. See
/// [`expand_images`] for the physics of the depth series.
#[derive(Debug, Clone)]
pub struct ImageExpansion {
    lateral: LateralImages,
    site: Option<(f64, f64)>,
    k: usize,
    z_order: usize,
    thickness: f64,
}

impl Iterator for ImageExpansion {
    type Item = ImageSource;

    fn next(&mut self) -> Option<ImageSource> {
        let (x, y) = match self.site {
            Some(site) if self.k <= self.z_order => site,
            _ => {
                let site = self.lateral.next()?;
                self.site = Some(site);
                self.k = 0;
                site
            }
        };
        let k = self.k;
        self.k += 1;
        let magnitude = if k == 0 || k == self.z_order {
            1.0
        } else {
            2.0
        };
        Some(ImageSource {
            cx: x,
            cy: y,
            sign: magnitude * if k.is_multiple_of(2) { 1.0 } else { -1.0 },
            depth: 2.0 * k as f64 * self.thickness,
        })
    }
}

/// Iterator form of [`expand_images`]: lateral sites in ascending order,
/// each expanded through the depth series before the next site, exactly
/// the order the collected form returns.
pub fn expand_images_iter(
    cx: f64,
    cy: f64,
    die_w: f64,
    die_l: f64,
    thickness: f64,
    lateral_order: usize,
    z_order: usize,
) -> ImageExpansion {
    let z_order = if z_order > 0 && z_order.is_multiple_of(2) {
        z_order + 1
    } else {
        z_order
    };
    ImageExpansion {
        lateral: lateral_images_iter(cx, cy, die_w, die_l, lateral_order),
        site: None,
        k: 0,
        z_order,
        thickness,
    }
}

/// The signed bottom-mirror depth column every lateral site carries:
/// `(weight, depth)` pairs such that a unit source contributes
/// `Σ_k w_k · K(r, depth_k)` (see [`expand_images`] for the derivation
/// and the trapezoid-weighted truncation). Even non-zero orders round
/// up to odd exactly as in the full expansion, and `z_order = 0` is the
/// bare half-space single term. The spatial map engine folds this
/// column into its Green's-function tables; [`expand_images_iter`]
/// interleaves the same weights per lateral site — a unit test pins the
/// two against each other.
pub fn depth_series(thickness: f64, z_order: usize) -> impl Iterator<Item = (f64, f64)> {
    let z_order = if z_order > 0 && z_order.is_multiple_of(2) {
        z_order + 1
    } else {
        z_order
    };
    (0..=z_order).map(move |k| {
        let magnitude = if k == 0 || k == z_order { 1.0 } else { 2.0 };
        let sign = if k.is_multiple_of(2) { 1.0 } else { -1.0 };
        (magnitude * sign, 2.0 * k as f64 * thickness)
    })
}

/// Full image expansion of one block: lateral lattice times the depth
/// series.
///
/// `z_order` controls the isothermal-bottom treatment:
///
/// * **`z_order = 0`** — no bottom treatment (semi-infinite substrate),
/// * **`z_order = 1`** — **the paper's method**: one `−P` image mirrored
///   through the bottom plane (zeroes the bottom-plane temperature
///   exactly; the mirror's flux leaks through the adiabatic top),
/// * **`z_order ≥ 3` (odd)** — deeper truncations of the exact finite-slab
///   Green's function. Reflecting alternately across the Dirichlet bottom
///   and the Neumann top gives images of strength `2P·(−1)^k` at depths
///   `2k·thickness` (the factor 2 merges each image with its own top-plane
///   reflection; validated against the FDM reference). The truncated tail
///   is handled trapezoid-style — the last term keeps half weight — which
///   (a) leaves zero net monopole per lateral site, so the 2-D image
///   lattice converges, and (b) reduces **exactly** to the paper's single
///   `−P` mirror at `z_order = 1`:
///
/// ```text
/// T(r) = K(r, 0) + Σ_{k=1}^{z−1} 2·(−1)^k·K(r, 2k·t) + (−1)^z·K(r, 2z·t)
/// ```
///
/// Even non-zero orders are rounded up to odd (a truncation ending on a
/// positive full-weight term would diverge laterally).
pub fn expand_images(
    cx: f64,
    cy: f64,
    die_w: f64,
    die_l: f64,
    thickness: f64,
    lateral_order: usize,
    z_order: usize,
) -> Vec<ImageSource> {
    expand_images_iter(cx, cy, die_w, die_l, thickness, lateral_order, z_order).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-iterator reference: enumerate naively, sort, epsilon-dedup.
    fn lateral_images_reference(
        cx: f64,
        cy: f64,
        die_w: f64,
        die_l: f64,
        order: usize,
    ) -> Vec<(f64, f64)> {
        let k = order as i64;
        let mut out = Vec::new();
        for m in -k..=k {
            for &px in &[cx, -cx] {
                let x = 2.0 * m as f64 * die_w + px;
                for n in -k..=k {
                    for &py in &[cy, -cy] {
                        let y = 2.0 * n as f64 * die_l + py;
                        out.push((x, y));
                    }
                }
            }
        }
        out.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite"));
        out.dedup_by(|a, b| (a.0 - b.0).abs() < DEDUP_EPS && (a.1 - b.1).abs() < DEDUP_EPS);
        out
    }

    /// Order-insensitive comparison (sorted multisets of exact bits).
    fn assert_same_images(mut a: Vec<(f64, f64)>, mut b: Vec<(f64, f64)>) {
        let key = |p: &(f64, f64)| (p.0.to_bits() as i128, p.1.to_bits() as i128);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn iterator_matches_the_sort_dedup_reference() {
        for &(cx, cy) in &[
            (0.3e-3, 0.7e-3),
            (0.0, 0.4e-3),
            (1e-3, 1e-3), // both coordinates on the far mirror planes
            (0.5e-3, 0.0),
            (0.0, 0.0),
        ] {
            for order in 0..=3 {
                assert_same_images(
                    lateral_images(cx, cy, 1e-3, 1e-3, order),
                    lateral_images_reference(cx, cy, 1e-3, 1e-3, order),
                );
            }
        }
    }

    #[test]
    fn iterator_emits_in_sorted_order_with_exact_capacity() {
        let imgs = lateral_images(0.3e-3, 0.7e-3, 1e-3, 1e-3, 2);
        assert!(imgs.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert_eq!(imgs.len(), imgs.capacity());
        // On-mirror blocks dedup and still allocate exactly.
        let edge = lateral_images(0.0, 1e-3, 1e-3, 1e-3, 1);
        assert_eq!(edge.len(), edge.capacity());
    }

    #[test]
    fn order_zero_keeps_parities_only() {
        let imgs = lateral_images(0.3e-3, 0.7e-3, 1e-3, 1e-3, 0);
        // (±x) × (±y) = 4 distinct images when the block is off-centre.
        assert_eq!(imgs.len(), 4);
        assert!(imgs.contains(&(0.3e-3, 0.7e-3)));
        assert!(imgs.contains(&(-0.3e-3, 0.7e-3)));
    }

    #[test]
    fn image_count_grows_with_order() {
        let i1 = lateral_images(0.3e-3, 0.7e-3, 1e-3, 1e-3, 1).len();
        let i2 = lateral_images(0.3e-3, 0.7e-3, 1e-3, 1e-3, 2).len();
        assert_eq!(i1, 36);
        assert_eq!(i2, 100);
    }

    #[test]
    fn centered_block_on_mirror_plane_dedupes() {
        // A block at the die centre: ±x images coincide pairwise after the
        // lattice shift? They do not (centre is not on an edge); but a
        // block AT x = 0 does.
        let imgs = lateral_images(0.0, 0.4e-3, 1e-3, 1e-3, 0);
        assert_eq!(imgs.len(), 2);
    }

    #[test]
    fn far_edge_block_dedupes_across_cells() {
        // x = W: the +x image of cell m coincides with the −x image of
        // cell m+1; the axis collapses to 2k+2 distinct values.
        let imgs = lateral_images(1e-3, 0.4e-3, 1e-3, 1e-3, 1);
        assert_eq!(imgs.len(), 4 * 6); // (2·1+2) × (2·(2·1+1))
    }

    #[test]
    fn mirror_symmetry_across_the_edge() {
        // For every image at x there is one at -x (flux through x = 0
        // cancels by symmetry).
        let imgs = lateral_images(0.3e-3, 0.5e-3, 1e-3, 1e-3, 2);
        for &(x, y) in &imgs {
            assert!(
                imgs.iter()
                    .any(|&(x2, y2)| (x2 + x).abs() < 1e-15 && (y2 - y).abs() < 1e-15),
                "missing mirror of ({x}, {y})"
            );
        }
    }

    #[test]
    fn paper_mode_adds_one_negative_mirror() {
        let imgs = expand_images(0.3e-3, 0.5e-3, 1e-3, 1e-3, 0.3e-3, 1, 1);
        let positives = imgs.iter().filter(|i| i.sign > 0.0).count();
        let negatives = imgs.iter().filter(|i| i.sign < 0.0).count();
        assert_eq!(positives, negatives);
        for i in imgs.iter().filter(|i| i.sign < 0.0) {
            assert_eq!(i.depth, 0.6e-3);
        }
    }

    #[test]
    fn no_bottom_mirror_option() {
        let imgs = expand_images(0.3e-3, 0.5e-3, 1e-3, 1e-3, 0.3e-3, 1, 0);
        assert!(imgs.iter().all(|i| i.sign > 0.0 && i.depth == 0.0));
    }

    #[test]
    fn depth_series_alternates_and_deepens() {
        // Order 4 rounds up to 5; lateral order 0 with an off-axis block
        // gives four lateral parities, six depth terms each.
        let imgs = expand_images(0.5e-3, 0.5e-3, 1e-3, 1e-3, 0.3e-3, 0, 4);
        assert_eq!(imgs.len(), 24);
        for (i, img) in imgs.iter().enumerate() {
            let k = i % 6;
            // Interior terms carry double weight; the endpoints (k = 0 and
            // the trapezoid-weighted last term) carry single weight.
            let magnitude = if k == 0 || k == 5 { 1.0 } else { 2.0 };
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(img.sign, magnitude * sign, "term {k}");
            assert!((img.depth - 2.0 * k as f64 * 0.3e-3).abs() < 1e-15);
        }
    }

    #[test]
    fn depth_series_has_zero_net_monopole() {
        // The signed weights of the depth series must sum to zero for any
        // order, or the lateral lattice diverges.
        for z in [1usize, 3, 5, 9, 4] {
            let imgs = expand_images(0.2e-3, 0.3e-3, 1e-3, 1e-3, 0.3e-3, 0, z);
            // Group by lateral site: all sites share the same depth column,
            // so the total must vanish.
            let net: f64 = imgs.iter().map(|i| i.sign).sum();
            assert!(net.abs() < 1e-12, "z = {z}: net {net}");
        }
    }

    #[test]
    fn depth_series_matches_the_expansion_column() {
        // The standalone depth column must be exactly the per-site column
        // expand_images interleaves (lateral order 0 at an off-axis point
        // gives four identical columns).
        for z in [0usize, 1, 3, 4, 9] {
            let column: Vec<(f64, f64)> = depth_series(0.3e-3, z).collect();
            let imgs = expand_images(0.2e-3, 0.3e-3, 1e-3, 1e-3, 0.3e-3, 0, z);
            assert_eq!(imgs.len(), 4 * column.len(), "z = {z}");
            for (i, img) in imgs.iter().enumerate() {
                let (w, d) = column[i % column.len()];
                assert_eq!(img.sign, w, "z = {z}, term {i}");
                assert_eq!(img.depth, d, "z = {z}, term {i}");
            }
        }
    }

    #[test]
    fn expansion_iterator_matches_collected_form() {
        let collected = expand_images(0.3e-3, 0.7e-3, 1e-3, 1e-3, 0.3e-3, 2, 9);
        let streamed: Vec<ImageSource> =
            expand_images_iter(0.3e-3, 0.7e-3, 1e-3, 1e-3, 0.3e-3, 2, 9).collect();
        assert_eq!(collected, streamed);
        assert_eq!(collected.len(), 100 * 10);
    }
}
