//! Radix-2 FFTs with precomputed plans — the transform core of the
//! high-resolution thermal map engine.
//!
//! The spatial map path (`ptherm-core`'s `thermal::map`) computes
//! steady-state temperature fields as cyclic convolutions of rasterized
//! power with a method-of-images Green's-function kernel, the structure
//! Kemper et al.'s "power blurring" exploits: an `N log N` transform
//! replaces the `O(N²)` direct sum. This module supplies exactly the
//! transforms that path needs and nothing more:
//!
//! * [`FftPlan`] — an iterative, in-place radix-2 complex FFT over
//!   **split** storage (separate `re`/`im` slices, the layout every
//!   elementwise pass in this workspace vectorizes over), with the
//!   bit-reversal permutation precomputed and the twiddle factors stored
//!   stage by stage. Its one loop nest transforms a batch of columns as
//!   whole row segments: the permutation swaps row segments and each
//!   butterfly pairs row `a` with row `b` under one twiddle for every
//!   column at once, in a contiguous loop the compiler vectorizes at the
//!   baseline target. A lone 1-D transform is the one-column case;
//! * [`Fft2`] — row-column 2-D transforms built from two plans. Columns
//!   transform in place; rows are transposed into the caller's
//!   [`Fft2Scratch`] and transform there as columns, so neither pass
//!   gathers an element at a time and warm transforms allocate nothing
//!   (the same plan/workspace split as `MultiVec`'s batch buffers).
//!   Per element every pass performs exactly a lone 1-D transform's
//!   arithmetic — the same permutation, butterfly, twiddle and scale —
//!   so each row and column comes out bit-identical to transforming it
//!   on its own.
//!
//! Real input rides the complex transform with a zeroed imaginary part
//! ([`Fft2::forward_real`]): the map kernels need the full spectrum for
//! their mirrored-index products, so a half-spectrum packing would be
//! unpacked again at once. The saving the map apply takes instead is the
//! one that keeps every bit: it skips work whose result nobody reads. A
//! zero-padded forward ([`Fft2::forward_padded`]) skips the row
//! transforms of its padding rows — an all-`+0` row transforms to all
//! `+0` — and a cropped inverse ([`Fft2::inverse_cropped`]) transforms
//! only the columns the caller keeps. The full-plane [`Fft2::forward`]
//! and [`Fft2::inverse`] are the same code at full extent. Transforms
//! are deterministic: identical inputs produce bit-identical outputs on
//! every call (no runtime dispatch, no threading), which is what lets
//! the map engine promise bitwise thread-count invariance.

use std::f64::consts::PI;

/// Precomputed plan for an in-place radix-2 complex FFT of one length.
///
/// # Example
///
/// ```
/// use ptherm_math::fft::FftPlan;
///
/// let plan = FftPlan::new(8);
/// let mut re = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
/// let mut im = [0.0; 8];
/// plan.forward(&mut re, &mut im);
/// // An impulse transforms to a flat spectrum.
/// assert!(re.iter().all(|&x| (x - 1.0).abs() < 1e-15));
/// plan.inverse(&mut re, &mut im);
/// assert!((re[0] - 1.0).abs() < 1e-15 && re[1].abs() < 1e-15);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal permutation of `0..n`.
    rev: Vec<u32>,
    /// Forward twiddles stage by stage: the stage that merges halves of
    /// length `h` reads `e^{-2πi j/(2h)}` for `j < h` at `h − 1 + j`
    /// (`n − 1` entries in all). Each is computed as the value
    /// `e^{-2πi k/n}` at `k = j·n/(2h)`, so every stage multiplies by
    /// exactly the factors a single `n/2` table read at stride
    /// `n/(2h)` would supply.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl FftPlan {
    /// Plans a transform of length `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two (the map engine sizes its
    /// torus with `next_power_of_two`, so callers never see this).
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        let mut tw_re = Vec::with_capacity(n - 1);
        let mut tw_im = Vec::with_capacity(n - 1);
        let mut half = 1;
        while half < n {
            let stride = n / (2 * half);
            for j in 0..half {
                let angle = -2.0 * PI * (j * stride) as f64 / n as f64;
                tw_re.push(angle.cos());
                tw_im.push(angle.sin());
            }
            half *= 2;
        }
        FftPlan {
            n,
            rev,
            tw_re,
            tw_im,
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-0 plan (never constructible: 0 is
    /// not a power of two), kept for the `len`/`is_empty` pairing lint.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT: `X[k] = Σ_j x[j]·e^{-2πi jk/n}`.
    ///
    /// # Panics
    ///
    /// Panics if `re` or `im` is not of length [`Self::len`].
    pub fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        assert_eq!(re.len(), self.n, "re length mismatch");
        assert_eq!(im.len(), self.n, "im length mismatch");
        self.transform_columns::<false>(re, im, 1, 1);
    }

    /// In-place inverse DFT (including the `1/n` scale), the exact
    /// adjoint loop of [`Self::forward`] with conjugated twiddles.
    ///
    /// # Panics
    ///
    /// Panics if `re` or `im` is not of length [`Self::len`].
    pub fn inverse(&self, re: &mut [f64], im: &mut [f64]) {
        assert_eq!(re.len(), self.n, "re length mismatch");
        assert_eq!(im.len(), self.n, "im length mismatch");
        self.transform_columns::<true>(re, im, 1, 1);
    }

    /// The twiddles of the stage that merges halves of length `half`.
    fn stage(&self, half: usize) -> (&[f64], &[f64]) {
        let at = half - 1..2 * half - 1;
        (&self.tw_re[at.clone()], &self.tw_im[at])
    }

    /// Transforms columns `..width` of a row-major grid of `n` rows,
    /// `stride` apart, each column as one length-`n` DFT (with the `1/n`
    /// scale when `INVERSE`). The work runs as whole row segments: the
    /// bit-reversal permutation swaps row segments, and each butterfly
    /// pairs row `a` with row `b` under one twiddle for all `width`
    /// columns in one contiguous loop the compiler vectorizes. Every
    /// column sees exactly the iterative decimation-in-time sequence of
    /// a lone transform — the same permutation, [`butterfly`], twiddle
    /// and scale — so its bits do not depend on `stride` or `width`; a
    /// 1-D transform is the case `stride = width = 1`. `INVERSE`
    /// conjugates the twiddles, resolved at compile time so the hot loop
    /// carries no branch.
    fn transform_columns<const INVERSE: bool>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        stride: usize,
        width: usize,
    ) {
        let n = self.n;
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                swap_row_segments(re, stride, i, j, width);
                swap_row_segments(im, stride, i, j, width);
            }
        }
        let mut half = 1;
        while half < n {
            let (tw_re, tw_im) = self.stage(half);
            let block = 2 * half * stride;
            for (re, im) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
                let (a_re, b_re) = re.split_at_mut(half * stride);
                let (a_im, b_im) = im.split_at_mut(half * stride);
                let rows = a_re
                    .chunks_exact_mut(stride)
                    .zip(a_im.chunks_exact_mut(stride))
                    .zip(
                        b_re.chunks_exact_mut(stride)
                            .zip(b_im.chunks_exact_mut(stride)),
                    );
                for (((a_re, a_im), (b_re, b_im)), (&wr, &wi)) in rows.zip(tw_re.iter().zip(tw_im))
                {
                    let pairs = a_re[..width]
                        .iter_mut()
                        .zip(&mut a_im[..width])
                        .zip(b_re[..width].iter_mut().zip(&mut b_im[..width]));
                    for ((ar, ai), (br, bi)) in pairs {
                        butterfly::<INVERSE>(ar, ai, br, bi, wr, wi);
                    }
                }
            }
            half *= 2;
        }
        if INVERSE {
            let scale = 1.0 / n as f64;
            for (re, im) in re.chunks_exact_mut(stride).zip(im.chunks_exact_mut(stride)) {
                for v in &mut re[..width] {
                    *v *= scale;
                }
                for v in &mut im[..width] {
                    *v *= scale;
                }
            }
        }
    }
}

/// One radix-2 butterfly, `(a, b) ← (a + w·b, a − w·b)` with `w`
/// conjugated for the inverse: the only place the transforms' arithmetic
/// lives.
#[inline(always)]
fn butterfly<const INVERSE: bool>(
    ar: &mut f64,
    ai: &mut f64,
    br: &mut f64,
    bi: &mut f64,
    wr: f64,
    wi: f64,
) {
    let wi = if INVERSE { -wi } else { wi };
    let tr = *br * wr - *bi * wi;
    let ti = *br * wi + *bi * wr;
    *br = *ar - tr;
    *bi = *ai - ti;
    *ar += tr;
    *ai += ti;
}

/// Swaps the first `width` entries of rows `i < j` of a row-major grid
/// whose rows are `stride` apart.
fn swap_row_segments(grid: &mut [f64], stride: usize, i: usize, j: usize, width: usize) {
    let (upper, lower) = grid.split_at_mut(j * stride);
    upper[i * stride..i * stride + width].swap_with_slice(&mut lower[..width]);
}

/// Writes the transpose of the row-major `rows × cols` grid `src` into
/// `dst` (`cols × rows`), a square tile at a time so both sides stay in
/// cache.
fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    const TILE: usize = 16;
    for r0 in (0..rows).step_by(TILE) {
        for c0 in (0..cols).step_by(TILE) {
            for r in r0..(r0 + TILE).min(rows) {
                for c in c0..(c0 + TILE).min(cols) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// Caller-owned scratch for [`Fft2`]: the buffers its row transforms
/// run in. Rows are transposed in here so that each row transform runs
/// as a column of a vectorized row-segment pass, like the column
/// transforms do in place. One immutable plan serves many workers, each
/// with its own scratch; buffers size themselves on first use and are
/// reused, so warm transforms allocate nothing.
///
/// The type and the `forward(re, im, &mut scratch)` signature are also
/// what the end-to-end benchmark's `fft.fft2` layer calls
/// (`servebench/`, a separate package built `--locked`), so both keep
/// their shape.
#[derive(Debug, Clone, Default)]
pub struct Fft2Scratch {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Fft2Scratch {
    /// An empty scratch; buffers size themselves on first transform.
    pub fn new() -> Self {
        Fft2Scratch::default()
    }
}

/// Row-column 2-D FFT plan over row-major `nx × ny` split-complex
/// grids (`x` fastest: element `(ix, iy)` at `ix + nx·iy`).
///
/// # Example
///
/// ```
/// use ptherm_math::fft::{Fft2, Fft2Scratch};
///
/// let plan = Fft2::new(4, 2);
/// let mut scratch = Fft2Scratch::new();
/// let mut re = vec![0.0; 8];
/// let mut im = vec![0.0; 8];
/// re[0] = 1.0; // impulse at the origin
/// plan.forward(&mut re, &mut im, &mut scratch);
/// assert!(re.iter().all(|&x| (x - 1.0).abs() < 1e-15));
/// plan.inverse(&mut re, &mut im, &mut scratch);
/// assert!((re[0] - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone)]
pub struct Fft2 {
    nx: usize,
    ny: usize,
    px: FftPlan,
    py: FftPlan,
}

impl Fft2 {
    /// Plans an `nx × ny` transform.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are powers of two.
    pub fn new(nx: usize, ny: usize) -> Self {
        Fft2 {
            nx,
            ny,
            px: FftPlan::new(nx),
            py: FftPlan::new(ny),
        }
    }

    /// Grid width (fastest-varying axis).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// True for a degenerate empty grid (not constructible; see
    /// [`FftPlan::is_empty`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-place forward 2-D DFT: the `ny` row transforms, then the `nx`
    /// column transforms. [`Self::forward_padded`] at full extent.
    ///
    /// # Panics
    ///
    /// Panics if `re` or `im` is not of length [`Self::len`].
    pub fn forward(&self, re: &mut [f64], im: &mut [f64], scratch: &mut Fft2Scratch) {
        self.forward_padded(re, im, self.ny, scratch);
    }

    /// In-place inverse 2-D DFT (including the `1/(nx·ny)` scale): the
    /// `ny` row transforms, then the `nx` column transforms.
    /// [`Self::inverse_cropped`] at full extent.
    ///
    /// # Panics
    ///
    /// Panics if `re` or `im` is not of length [`Self::len`].
    pub fn inverse(&self, re: &mut [f64], im: &mut [f64], scratch: &mut Fft2Scratch) {
        self.inverse_cropped(re, im, self.nx, scratch);
    }

    /// In-place forward 2-D DFT of a grid whose rows `rows..ny` are zero
    /// padding (every entry `+0.0`, in `re` and `im`): only the first
    /// `rows` row transforms run, then all `nx` column transforms. An
    /// all-`+0` row transforms to all `+0` (each butterfly of `+0`
    /// inputs yields `+0`), so on such a grid the result is
    /// bit-identical to [`Self::forward`]; on any other grid the skipped
    /// rows are simply left untransformed.
    ///
    /// # Panics
    ///
    /// Panics if `re` or `im` is not of length [`Self::len`] or
    /// `rows > ny`.
    pub fn forward_padded(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        rows: usize,
        scratch: &mut Fft2Scratch,
    ) {
        self.transform::<false>(re, im, rows, self.nx, scratch);
    }

    /// In-place inverse 2-D DFT that produces only columns `..cols`: all
    /// `ny` row transforms, then the first `cols` column transforms.
    /// Those columns are bit-identical to [`Self::inverse`]'s (a column
    /// transform reads only its own column); columns `cols..` are left
    /// row-transformed, not meaningful output.
    ///
    /// # Panics
    ///
    /// Panics if `re` or `im` is not of length [`Self::len`] or
    /// `cols > nx`.
    pub fn inverse_cropped(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        cols: usize,
        scratch: &mut Fft2Scratch,
    ) {
        self.transform::<true>(re, im, self.ny, cols, scratch);
    }

    /// Forward transform of a **real** grid: copies `input` into `re`,
    /// zeroes `im` and runs [`Self::forward`]. The output is the full
    /// complex spectrum (with its conjugate symmetry
    /// `F[-kx, -ky] = conj F[kx, ky]` intact for downstream mirrored
    /// products).
    ///
    /// # Panics
    ///
    /// Panics if any slice is not of length [`Self::len`].
    pub fn forward_real(
        &self,
        input: &[f64],
        re: &mut [f64],
        im: &mut [f64],
        scratch: &mut Fft2Scratch,
    ) {
        assert_eq!(input.len(), self.len(), "input length mismatch");
        re.copy_from_slice(input);
        im.fill(0.0);
        self.forward(re, im, scratch);
    }

    /// The row transforms of the first `rows` rows, then the column
    /// transforms of the first `cols` columns. The columns transform in
    /// place; the rows are transposed into `scratch`, transformed there
    /// as its columns and transposed back, so both passes run as
    /// vectorized row-segment loops with per-element arithmetic
    /// identical to a lone 1-D transform.
    fn transform<const INVERSE: bool>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        rows: usize,
        cols: usize,
        scratch: &mut Fft2Scratch,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(re.len(), nx * ny, "re length mismatch");
        assert_eq!(im.len(), nx * ny, "im length mismatch");
        assert!(rows <= ny && cols <= nx, "pruned extent exceeds the grid");
        if rows > 0 {
            let live = rows * nx;
            scratch.re.resize(live, 0.0);
            scratch.im.resize(live, 0.0);
            let (t_re, t_im) = (&mut scratch.re[..live], &mut scratch.im[..live]);
            transpose(&re[..live], t_re, rows, nx);
            transpose(&im[..live], t_im, rows, nx);
            self.px.transform_columns::<INVERSE>(t_re, t_im, rows, rows);
            transpose(t_re, &mut re[..live], nx, rows);
            transpose(t_im, &mut im[..live], nx, rows);
        }
        self.py.transform_columns::<INVERSE>(re, im, nx, cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Quadratic-cost reference DFT.
    fn naive_dft(re: &[f64], im: &[f64], inverse: bool) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let sign = if inverse { 2.0 } else { -2.0 };
        let mut out_re = vec![0.0; n];
        let mut out_im = vec![0.0; n];
        for (k, (or, oi)) in out_re.iter_mut().zip(&mut out_im).enumerate() {
            for j in 0..n {
                let angle = sign * PI * (j * k) as f64 / n as f64;
                let (s, c) = angle.sin_cos();
                *or += re[j] * c - im[j] * s;
                *oi += re[j] * s + im[j] * c;
            }
            if inverse {
                *or /= n as f64;
                *oi /= n as f64;
            }
        }
        (out_re, out_im)
    }

    fn random_signal(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    #[test]
    fn matches_the_naive_dft_at_every_length() {
        for &n in &[1usize, 2, 4, 8, 16, 64] {
            let (re0, im0) = random_signal(n, n as u64);
            let (want_re, want_im) = naive_dft(&re0, &im0, false);
            let plan = FftPlan::new(n);
            let (mut re, mut im) = (re0.clone(), im0.clone());
            plan.forward(&mut re, &mut im);
            for i in 0..n {
                assert!((re[i] - want_re[i]).abs() < 1e-10, "n={n} re[{i}]");
                assert!((im[i] - want_im[i]).abs() < 1e-10, "n={n} im[{i}]");
            }
        }
    }

    #[test]
    fn inverse_matches_the_naive_inverse() {
        let n = 32;
        let (re0, im0) = random_signal(n, 7);
        let (want_re, want_im) = naive_dft(&re0, &im0, true);
        let plan = FftPlan::new(n);
        let (mut re, mut im) = (re0, im0);
        plan.inverse(&mut re, &mut im);
        for i in 0..n {
            assert!((re[i] - want_re[i]).abs() < 1e-12);
            assert!((im[i] - want_im[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn forward_then_inverse_round_trips() {
        let n = 128;
        let (re0, im0) = random_signal(n, 42);
        let plan = FftPlan::new(n);
        let (mut re, mut im) = (re0.clone(), im0.clone());
        plan.forward(&mut re, &mut im);
        plan.inverse(&mut re, &mut im);
        for i in 0..n {
            assert!((re[i] - re0[i]).abs() < 1e-12);
            assert!((im[i] - im0[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn transforms_are_deterministic_bitwise() {
        let n = 64;
        let (re0, im0) = random_signal(n, 3);
        let plan = FftPlan::new(n);
        let (mut re_a, mut im_a) = (re0.clone(), im0.clone());
        plan.forward(&mut re_a, &mut im_a);
        let plan_b = FftPlan::new(n);
        let (mut re_b, mut im_b) = (re0, im0);
        plan_b.forward(&mut re_b, &mut im_b);
        assert_eq!(re_a, re_b);
        assert_eq!(im_a, im_b);
    }

    #[test]
    fn real_input_has_conjugate_symmetry() {
        let n = 16;
        let (re0, _) = random_signal(n, 11);
        let plan = FftPlan::new(n);
        let mut re = re0;
        let mut im = vec![0.0; n];
        plan.forward(&mut re, &mut im);
        for k in 1..n {
            assert!((re[k] - re[n - k]).abs() < 1e-12);
            assert!((im[k] + im[n - k]).abs() < 1e-12);
        }
    }

    #[test]
    fn cyclic_convolution_theorem_holds() {
        let n = 32;
        let (a, _) = random_signal(n, 5);
        let (b, _) = random_signal(n, 6);
        // Direct cyclic convolution.
        let mut want = vec![0.0; n];
        for (i, w) in want.iter_mut().enumerate() {
            for j in 0..n {
                *w += a[j] * b[(i + n - j) % n];
            }
        }
        // FFT path: multiply spectra, invert.
        let plan = FftPlan::new(n);
        let (mut ar, mut ai) = (a, vec![0.0; n]);
        let (mut br, mut bi) = (b, vec![0.0; n]);
        plan.forward(&mut ar, &mut ai);
        plan.forward(&mut br, &mut bi);
        for i in 0..n {
            let (re, im) = (ar[i] * br[i] - ai[i] * bi[i], ar[i] * bi[i] + ai[i] * br[i]);
            ar[i] = re;
            ai[i] = im;
        }
        plan.inverse(&mut ar, &mut ai);
        for i in 0..n {
            assert!((ar[i] - want[i]).abs() < 1e-11, "{i}");
            assert!(ai[i].abs() < 1e-11);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lengths() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_zero_length() {
        let _ = FftPlan::new(0);
    }

    #[test]
    fn length_one_is_the_identity() {
        let plan = FftPlan::new(1);
        let mut re = [3.5];
        let mut im = [-1.25];
        plan.forward(&mut re, &mut im);
        assert_eq!((re[0], im[0]), (3.5, -1.25));
        plan.inverse(&mut re, &mut im);
        assert_eq!((re[0], im[0]), (3.5, -1.25));
    }

    #[test]
    fn two_d_matches_the_naive_double_dft() {
        let (nx, ny) = (4, 8);
        let (grid, _) = random_signal(nx * ny, 9);
        // Naive: transform rows then columns with the 1-D reference.
        let mut rows_re = Vec::new();
        let mut rows_im = Vec::new();
        for iy in 0..ny {
            let (r, i) = naive_dft(&grid[iy * nx..(iy + 1) * nx], &vec![0.0; nx], false);
            rows_re.extend(r);
            rows_im.extend(i);
        }
        let mut want_re = vec![0.0; nx * ny];
        let mut want_im = vec![0.0; nx * ny];
        for ix in 0..nx {
            let col_re: Vec<f64> = (0..ny).map(|iy| rows_re[ix + nx * iy]).collect();
            let col_im: Vec<f64> = (0..ny).map(|iy| rows_im[ix + nx * iy]).collect();
            let (r, i) = naive_dft(&col_re, &col_im, false);
            for iy in 0..ny {
                want_re[ix + nx * iy] = r[iy];
                want_im[ix + nx * iy] = i[iy];
            }
        }
        let plan = Fft2::new(nx, ny);
        let mut scratch = Fft2Scratch::new();
        let mut re = vec![0.0; nx * ny];
        let mut im = vec![0.0; nx * ny];
        plan.forward_real(&grid, &mut re, &mut im, &mut scratch);
        for i in 0..nx * ny {
            assert!((re[i] - want_re[i]).abs() < 1e-11, "{i}");
            assert!((im[i] - want_im[i]).abs() < 1e-11, "{i}");
        }
    }

    #[test]
    fn two_d_round_trips_and_reuses_scratch() {
        let (nx, ny) = (8, 4);
        let (grid, _) = random_signal(nx * ny, 13);
        let plan = Fft2::new(nx, ny);
        let mut scratch = Fft2Scratch::new();
        let mut re = vec![0.0; nx * ny];
        let mut im = vec![0.0; nx * ny];
        plan.forward_real(&grid, &mut re, &mut im, &mut scratch);
        plan.inverse(&mut re, &mut im, &mut scratch);
        for i in 0..nx * ny {
            assert!((re[i] - grid[i]).abs() < 1e-12);
            assert!(im[i].abs() < 1e-12);
        }
        // A second transform reuses the sized row buffers without
        // reallocating, and is still the gather oracle's, bit for bit.
        let cap = scratch.re.capacity();
        plan.forward_real(&grid, &mut re, &mut im, &mut scratch);
        assert_eq!(scratch.re.capacity(), cap);
        let (mut want_re, mut want_im) = (grid, vec![0.0; nx * ny]);
        oracle_2d(nx, ny, &mut want_re, &mut want_im, false);
        assert_eq!(bits(&re), bits(&want_re));
        assert_eq!(bits(&im), bits(&want_im));
    }

    /// The 1-D transform as it stood before the stage-by-stage twiddle
    /// table: one `n/2` table `e^{-2πi j/n}` read at stride `n/len`, and
    /// index arithmetic per butterfly. Bit-identity oracle.
    fn oracle_1d(re: &mut [f64], im: &mut [f64], inverse: bool) {
        let n = re.len();
        let bits = n.trailing_zeros();
        let tw: Vec<(f64, f64)> = (0..n / 2)
            .map(|j| {
                let angle = -2.0 * PI * j as f64 / n as f64;
                (angle.cos(), angle.sin())
            })
            .collect();
        for i in 0..n {
            let j = if bits == 0 {
                0
            } else {
                ((i as u32).reverse_bits() >> (32 - bits)) as usize
            };
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            let mut start = 0;
            while start < n {
                for j in 0..half {
                    let (wr, wi) = tw[j * stride];
                    let wi = if inverse { -wi } else { wi };
                    let a = start + j;
                    let b = a + half;
                    let tr = re[b] * wr - im[b] * wi;
                    let ti = re[b] * wi + im[b] * wr;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] += tr;
                    im[a] += ti;
                }
                start += len;
            }
            len *= 2;
        }
        if inverse {
            let scale = 1.0 / n as f64;
            for v in re.iter_mut() {
                *v *= scale;
            }
            for v in im.iter_mut() {
                *v *= scale;
            }
        }
    }

    /// The 2-D transform as it stood before the row-segment column pass:
    /// every row, then every column gathered into a buffer, transformed
    /// and scattered back. Bit-identity oracle.
    fn oracle_2d(nx: usize, ny: usize, re: &mut [f64], im: &mut [f64], inverse: bool) {
        for iy in 0..ny {
            let row = iy * nx..(iy + 1) * nx;
            oracle_1d(&mut re[row.clone()], &mut im[row], inverse);
        }
        let mut col_re = vec![0.0; ny];
        let mut col_im = vec![0.0; ny];
        for ix in 0..nx {
            for iy in 0..ny {
                col_re[iy] = re[ix + nx * iy];
                col_im[iy] = im[ix + nx * iy];
            }
            oracle_1d(&mut col_re, &mut col_im, inverse);
            for iy in 0..ny {
                re[ix + nx * iy] = col_re[iy];
                im[ix + nx * iy] = col_im[iy];
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The shapes the bit-identity tests cover: square-free aspect
    /// ratios both ways, single rows and columns, and a map-sized plane.
    const SHAPES: [(usize, usize); 5] = [(4, 8), (8, 4), (1, 16), (16, 1), (64, 128)];

    #[test]
    fn one_d_transforms_match_the_strided_twiddle_oracle_bitwise() {
        for n in (0..=9).map(|k| 1usize << k) {
            let plan = FftPlan::new(n);
            let (re0, im0) = random_signal(n, 100 + n as u64);
            for inverse in [false, true] {
                let (mut re, mut im) = (re0.clone(), im0.clone());
                let (mut want_re, mut want_im) = (re0.clone(), im0.clone());
                if inverse {
                    plan.inverse(&mut re, &mut im);
                } else {
                    plan.forward(&mut re, &mut im);
                }
                oracle_1d(&mut want_re, &mut want_im, inverse);
                assert_eq!(bits(&re), bits(&want_re), "n={n} inverse={inverse}");
                assert_eq!(bits(&im), bits(&want_im), "n={n} inverse={inverse}");
            }
        }
    }

    #[test]
    fn two_d_transforms_match_the_gather_oracle_bitwise() {
        let mut scratch = Fft2Scratch::new();
        for (nx, ny) in SHAPES {
            let plan = Fft2::new(nx, ny);
            let (re0, im0) = random_signal(nx * ny, (nx * 1000 + ny) as u64);
            for inverse in [false, true] {
                let (mut re, mut im) = (re0.clone(), im0.clone());
                let (mut want_re, mut want_im) = (re0.clone(), im0.clone());
                if inverse {
                    plan.inverse(&mut re, &mut im, &mut scratch);
                } else {
                    plan.forward(&mut re, &mut im, &mut scratch);
                }
                oracle_2d(nx, ny, &mut want_re, &mut want_im, inverse);
                let case = format!("{nx}x{ny} inverse={inverse}");
                assert_eq!(bits(&re), bits(&want_re), "{case}");
                assert_eq!(bits(&im), bits(&want_im), "{case}");
            }
        }
    }

    #[test]
    fn pruned_transforms_match_the_gather_oracle_bitwise() {
        let mut scratch = Fft2Scratch::new();
        for (nx, ny) in SHAPES {
            let plan = Fft2::new(nx, ny);
            let (re0, im0) = random_signal(nx * ny, (ny * 1000 + nx) as u64);
            // A forward told that rows `k..` are padding, on a plane whose
            // rows `k..` are +0.
            for k in [0, 1, ny / 2, ny.saturating_sub(1), ny] {
                let (mut re, mut im) = (re0.clone(), im0.clone());
                re[k * nx..].fill(0.0);
                im[k * nx..].fill(0.0);
                let (mut want_re, mut want_im) = (re.clone(), im.clone());
                plan.forward_padded(&mut re, &mut im, k, &mut scratch);
                oracle_2d(nx, ny, &mut want_re, &mut want_im, false);
                assert_eq!(bits(&re), bits(&want_re), "{nx}x{ny} rows ..{k}");
                assert_eq!(bits(&im), bits(&want_im), "{nx}x{ny} rows ..{k}");
            }
            // An inverse told to produce only columns `..c`, compared on
            // those columns.
            for c in [0, 1, nx / 2, nx.saturating_sub(1), nx] {
                let (mut re, mut im) = (re0.clone(), im0.clone());
                let (mut want_re, mut want_im) = (re0.clone(), im0.clone());
                plan.inverse_cropped(&mut re, &mut im, c, &mut scratch);
                oracle_2d(nx, ny, &mut want_re, &mut want_im, true);
                let crop = |v: &[f64]| -> Vec<u64> {
                    v.chunks_exact(nx).flat_map(|row| bits(&row[..c])).collect()
                };
                assert_eq!(crop(&re), crop(&want_re), "{nx}x{ny} columns ..{c}");
                assert_eq!(crop(&im), crop(&want_im), "{nx}x{ny} columns ..{c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "pruned extent exceeds the grid")]
    fn pruning_past_the_grid_is_rejected() {
        let plan = Fft2::new(4, 4);
        let (mut re, mut im) = (vec![0.0; 16], vec![0.0; 16]);
        plan.forward_padded(&mut re, &mut im, 5, &mut Fft2Scratch::new());
    }
}
