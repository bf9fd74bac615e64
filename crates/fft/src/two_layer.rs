//! Two-layer Cooley–Tukey decomposition `N = k·m` (Fig 1 of the paper).
//!
//! An N-point FFT is computed as
//!
//! 1. `k` m-point FFTs over the stride-`k` sub-sequences
//!    `Y[n1][j2] = Σ_{n2} x[n2·k + n1] ω_m^{n2 j2}`,
//! 2. the twiddle stage `Y'[n1][j2] = Y[n1][j2] · ω_N^{n1 j2}`,
//! 3. `m` k-point FFTs over the columns
//!    `X[j1·m + j2] = Σ_{n1} Y'[n1][j2] ω_k^{n1 j1}`.
//!
//! Both layers are sub-FFTs over the columns of a row-major matrix: part 1
//! reads `x` as `m × k` (column `n1` is first-part FFT `n1`), part 2 reads
//! `Y'` as `k × m`, and its results are the rows of `X` read as `k × m`.
//! The online ABFT scheme wraps each sub-FFT with its own protection, so
//! the plan exposes every stage as a primitive (gather / sub-FFT / twiddle
//! / scatter) in addition to a reference [`execute`](TwoLayerPlan::execute).
//!
//! **Power-of-two splits** run each layer through the column-batched
//! kernel (`column.rs`): a block of columns is transformed at once
//! by radix-4 butterflies over whole rows, so there is no gather and no
//! per-sub-FFT kernel call. The block primitives
//! ([`first_block`](TwoLayerPlan::first_block),
//! [`second_block`](TwoLayerPlan::second_block) and friends) expose that
//! pass to the protected executors, and the single-column primitives
//! ([`first_fft`](TwoLayerPlan::first_fft),
//! [`inner_fft`](TwoLayerPlan::inner_fft), …) are the same kernel at width
//! 1, so every executor and every recompute gets the same bits per column.
//! Inside these plans the sub-plans' `Pow2Kernel`/`Layout` choice does not
//! apply; [`inner_plan`](TwoLayerPlan::inner_plan) and
//! [`outer_plan`](TwoLayerPlan::outer_plan) stay available as standalone
//! transforms of the sub-sizes.
//!
//! **Other splits** run every sub-FFT through its sub-plan, one column per
//! block (gather, transform in place, scatter). The twiddles are stored as
//! a row-major `k × m` matrix, so row `n1`'s weights `ω_N^{n1·j2}` are one
//! contiguous slice.

use std::sync::Arc;

use crate::column::ColumnFft;
use crate::direction::Direction;
use crate::factor::{is_power_of_two, split_balanced};
use crate::planner::{FftPlan, Planner};
use crate::strided::{gather, scatter};
use crate::twiddle_table::TwiddleTable;
use ftfft_numeric::simd;
use ftfft_numeric::Complex64;

/// Plan for the two-layer decomposition of an N-point transform.
#[derive(Clone)]
pub struct TwoLayerPlan {
    n: usize,
    k: usize,
    m: usize,
    dir: Direction,
    inner: Arc<FftPlan>,
    outer: Arc<FftPlan>,
    /// Column kernels `(m-point, k-point)` of a power-of-two split.
    columns: Option<(ColumnFft, ColumnFft)>,
    /// Row-major `k × m` matrix, `twiddle[n1·m + j2] = ω_N^{n1·j2}`.
    twiddle: Vec<Complex64>,
}

/// Reusable working storage for [`TwoLayerPlan`] execution.
#[derive(Clone, Debug)]
pub struct TwoLayerScratch {
    /// Intermediate `k × m` row-major matrix `Y`.
    pub y: Vec<Complex64>,
    /// Gather buffer, `max(k, m)` long.
    pub buf: Vec<Complex64>,
    /// Block buffer, [`TwoLayerPlan::block_len`] long.
    pub block: Vec<Complex64>,
}

/// One layer of sub-FFTs: `cols` transforms of length `l` over the columns
/// of a row-major `l × cols` matrix.
struct Layer<'a> {
    l: usize,
    cols: usize,
    kernel: LayerKernel<'a>,
}

enum LayerKernel<'a> {
    Columns(&'a ColumnFft),
    SubPlan(&'a FftPlan),
}

impl Layer<'_> {
    fn block_width(&self) -> usize {
        match self.kernel {
            LayerKernel::Columns(c) => c.block_width(self.cols),
            LayerKernel::SubPlan(_) => 1,
        }
    }

    fn block_len(&self) -> usize {
        match self.kernel {
            LayerKernel::Columns(_) => self.l * self.block_width(),
            LayerKernel::SubPlan(p) => self.l + p.scratch_len(),
        }
    }

    fn single_len(&self) -> usize {
        match self.kernel {
            LayerKernel::Columns(_) => self.l,
            LayerKernel::SubPlan(p) => p.scratch_len(),
        }
    }

    /// Transforms columns `c0..c0 + w` of `src` into the block held in
    /// `work`, showing each natural-order input row segment to `visit`.
    fn block(
        &self,
        src: &[Complex64],
        c0: usize,
        w: usize,
        work: &mut [Complex64],
        mut visit: impl FnMut(usize, &[Complex64]),
    ) {
        debug_assert!(w >= 1 && c0 + w <= self.cols && w <= self.block_width());
        match self.kernel {
            LayerKernel::Columns(c) => {
                let (re, im) = simd::planes_mut(&mut work[..self.l * w]);
                c.load(src, self.cols, c0, w, re, im, visit);
                c.run(re, im, w);
            }
            LayerKernel::SubPlan(p) => {
                let (col, rest) = work.split_at_mut(self.l);
                for (t, v) in col.iter_mut().enumerate() {
                    let i = t * self.cols + c0;
                    visit(t, &src[i..i + 1]);
                    *v = src[i];
                }
                p.execute_inplace(col, rest);
            }
        }
    }

    fn column(&self, work: &mut [Complex64], w: usize, c: usize, out: &mut [Complex64]) {
        match self.kernel {
            LayerKernel::Columns(k) => {
                let (re, im) = simd::planes_mut(&mut work[..self.l * w]);
                k.column(re, im, w, c, out);
            }
            LayerKernel::SubPlan(_) => out[..self.l].copy_from_slice(&work[..self.l]),
        }
    }

    fn put_column(&self, work: &mut [Complex64], w: usize, c: usize, vals: &[Complex64]) {
        match self.kernel {
            LayerKernel::Columns(k) => {
                let (re, im) = simd::planes_mut(&mut work[..self.l * w]);
                k.put_column(re, im, w, c, vals);
            }
            LayerKernel::SubPlan(_) => work[..self.l].copy_from_slice(&vals[..self.l]),
        }
    }

    fn store(&self, work: &mut [Complex64], c0: usize, w: usize, dst: &mut [Complex64]) {
        match self.kernel {
            LayerKernel::Columns(k) => {
                let (re, im) = simd::planes_mut(&mut work[..self.l * w]);
                k.store(re, im, w, dst, self.cols, c0);
            }
            LayerKernel::SubPlan(_) => scatter(dst, c0, self.cols, &work[..self.l]),
        }
    }

    /// Column `c` of `src` transformed into `out[..l]` (width 1).
    fn single(&self, src: &[Complex64], c: usize, out: &mut [Complex64], work: &mut [Complex64]) {
        match self.kernel {
            LayerKernel::Columns(k) => k.single(src, c, self.cols, &mut out[..self.l], work),
            LayerKernel::SubPlan(p) => {
                gather(src, c, self.cols, &mut out[..self.l]);
                p.execute_inplace(&mut out[..self.l], work);
            }
        }
    }

    /// In-place transform of a contiguous column `buf[..l]` (width 1).
    fn inplace(&self, buf: &mut [Complex64], work: &mut [Complex64]) {
        match self.kernel {
            LayerKernel::Columns(k) => {
                let (re, im) = simd::planes_mut(&mut work[..self.l]);
                k.load(buf, 1, 0, 1, re, im, |_, _| {});
                k.run(re, im, 1);
                k.column(re, im, 1, 0, buf);
            }
            LayerKernel::SubPlan(p) => p.execute_inplace(&mut buf[..self.l], work),
        }
    }
}

impl TwoLayerPlan {
    /// Plans `n = k·m` with the balanced split from [`split_balanced`].
    pub fn new(planner: &Planner, n: usize, dir: Direction) -> Self {
        let (k, _m) = split_balanced(n);
        Self::with_split(planner, n, k, dir)
    }

    /// Plans with an explicit first-layer count `k` (`k` must divide `n`).
    pub fn with_split(planner: &Planner, n: usize, k: usize, dir: Direction) -> Self {
        assert!(n > 0 && k > 0 && n.is_multiple_of(k), "invalid split {k} of {n}");
        let m = n / k;
        // Rearrange the n-entry table into the matrix in place (no second
        // n-long buffer at plan time): entry d = n1·m + j2 takes table
        // entry n1·j2 ≤ d, so filling d from the top down reads every
        // source before it is overwritten.
        let mut twiddle = TwiddleTable::new(n, dir).into_vec();
        for d in (0..n).rev() {
            twiddle[d] = twiddle[(d / m) * (d % m)];
        }
        let columns = is_power_of_two(n).then(|| (ColumnFft::new(m, dir), ColumnFft::new(k, dir)));
        TwoLayerPlan {
            n,
            k,
            m,
            dir,
            inner: planner.plan(m, dir),
            outer: planner.plan(k, dir),
            columns,
            twiddle,
        }
    }

    /// Total size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of first-part (m-point) FFTs.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Size of each first-part FFT; also the number of second-part FFTs.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Transform direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The m-point sub-plan (a standalone transform of the first-part
    /// size; power-of-two plans run their sub-FFTs on the column kernel).
    pub fn inner_plan(&self) -> &FftPlan {
        &self.inner
    }

    /// The k-point sub-plan (see [`inner_plan`](Self::inner_plan)).
    pub fn outer_plan(&self) -> &FftPlan {
        &self.outer
    }

    fn first(&self) -> Layer<'_> {
        let kernel = match &self.columns {
            Some((c, _)) => LayerKernel::Columns(c),
            None => LayerKernel::SubPlan(&self.inner),
        };
        Layer { l: self.m, cols: self.k, kernel }
    }

    fn second(&self) -> Layer<'_> {
        let kernel = match &self.columns {
            Some((_, c)) => LayerKernel::Columns(c),
            None => LayerKernel::SubPlan(&self.outer),
        };
        Layer { l: self.k, cols: self.m, kernel }
    }

    /// Scratch length of the single-column primitives (the `fft`
    /// argument of [`first_fft`](Self::first_fft),
    /// [`inner_fft`](Self::inner_fft), [`second_fft`](Self::second_fft)
    /// and [`outer_fft`](Self::outer_fft)).
    pub fn scratch_len(&self) -> usize {
        self.first().single_len().max(self.second().single_len())
    }

    /// Length of the block buffer the batched primitives
    /// ([`first_block`](Self::first_block), [`second_block`](Self::second_block)
    /// and their column accessors) hold a block in — at most
    /// `max(k, m)·`block width, and never more than `n` plus sub-plan
    /// scratch.
    pub fn block_len(&self) -> usize {
        self.first().block_len().max(self.second().block_len())
    }

    /// Allocates scratch sized for this plan.
    pub fn make_scratch(&self) -> TwoLayerScratch {
        TwoLayerScratch {
            y: vec![Complex64::ZERO; self.n],
            buf: vec![Complex64::ZERO; self.k.max(self.m)],
            block: vec![Complex64::ZERO; self.block_len()],
        }
    }

    /// Gathers the input of first-part FFT `n1 < k`: `x[n1 + t·k]`, `m`
    /// elements, into `buf[..m]`.
    #[inline]
    pub fn gather_first(&self, src: &[Complex64], n1: usize, buf: &mut [Complex64]) {
        debug_assert!(n1 < self.k);
        gather(src, n1, self.k, &mut buf[..self.m]);
    }

    /// Runs the m-point FFT in place on `buf[..m]`.
    #[inline]
    pub fn inner_fft(&self, buf: &mut [Complex64], fft_scratch: &mut [Complex64]) {
        self.first().inplace(buf, fft_scratch);
    }

    /// First-part FFT `n1 < k` in one call: reads `x[n1 + t·k]` straight
    /// into the kernel and transforms it into `buf[..m]`. Bitwise equal to
    /// [`gather_first`](Self::gather_first) followed by
    /// [`inner_fft`](Self::inner_fft), and to column `n1` of
    /// [`first_block`](Self::first_block).
    #[inline]
    pub fn first_fft(
        &self,
        src: &[Complex64],
        n1: usize,
        buf: &mut [Complex64],
        fft: &mut [Complex64],
    ) {
        debug_assert!(n1 < self.k);
        self.first().single(src, n1, buf, fft);
    }

    /// Columns per block of the batched first-part pass.
    pub fn first_block_width(&self) -> usize {
        self.first().block_width()
    }

    /// Batched first part: transforms first-part FFTs `c0..c0 + w`
    /// (`w ≤` [`first_block_width`](Self::first_block_width)) into the
    /// block held in `block`. `visit(n2, row)` sees each input row segment
    /// `x[n2·k + c0 .. n2·k + c0 + w]` in natural `n2` order — the hook a
    /// checksum generation rides to read each input element once.
    pub fn first_block(
        &self,
        src: &[Complex64],
        c0: usize,
        w: usize,
        block: &mut [Complex64],
        visit: impl FnMut(usize, &[Complex64]),
    ) {
        assert_eq!(src.len(), self.n);
        self.first().block(src, c0, w, block, visit);
    }

    /// Copies column `c < w` of a first-part block (the output of FFT
    /// `c0 + c`) into `buf[..m]`.
    #[inline]
    pub fn first_block_column(
        &self,
        block: &mut [Complex64],
        w: usize,
        c: usize,
        buf: &mut [Complex64],
    ) {
        self.first().column(block, w, c, buf);
    }

    /// Twiddle weight `ω_N^{n1·j2}` for row `n1`, column `j2`.
    #[inline(always)]
    pub fn twiddle_weight(&self, n1: usize, j2: usize) -> Complex64 {
        self.twiddle[n1 * self.m + j2]
    }

    /// Row `n1`'s twiddle weights `ω_N^{n1·j2}`, `j2 < m`, contiguous.
    #[inline]
    pub fn twiddle_weights(&self, n1: usize) -> &[Complex64] {
        &self.twiddle[n1 * self.m..(n1 + 1) * self.m]
    }

    /// Applies the twiddle stage to row `n1`: `out[j2] = row[j2]·ω_N^{n1·j2}`
    /// for `j2 < m`.
    #[inline]
    pub fn twiddle_row(&self, n1: usize, row: &[Complex64], out: &mut [Complex64]) {
        for ((o, &z), &w) in out[..self.m].iter_mut().zip(row).zip(self.twiddle_weights(n1)) {
            *o = z * w;
        }
    }

    /// Gathers the input of second-part FFT `j2 < m` from the intermediate
    /// matrix `y` (column `j2`, stride `m`, `k` elements) into `buf[..k]`.
    #[inline]
    pub fn gather_second(&self, y: &[Complex64], j2: usize, buf: &mut [Complex64]) {
        debug_assert!(j2 < self.m);
        gather(y, j2, self.m, &mut buf[..self.k]);
    }

    /// Runs the k-point FFT in place on `buf[..k]`.
    #[inline]
    pub fn outer_fft(&self, buf: &mut [Complex64], fft_scratch: &mut [Complex64]) {
        self.second().inplace(buf, fft_scratch);
    }

    /// Second-part FFT `j2 < m` in one call: reads column `j2` of `y`
    /// straight into the kernel and transforms it into `buf[..k]`. Bitwise
    /// equal to [`gather_second`](Self::gather_second) followed by
    /// [`outer_fft`](Self::outer_fft), and to column `j2` of
    /// [`second_block`](Self::second_block).
    #[inline]
    pub fn second_fft(
        &self,
        y: &[Complex64],
        j2: usize,
        buf: &mut [Complex64],
        fft: &mut [Complex64],
    ) {
        debug_assert!(j2 < self.m);
        self.second().single(y, j2, buf, fft);
    }

    /// Columns per block of the batched second-part pass.
    pub fn second_block_width(&self) -> usize {
        self.second().block_width()
    }

    /// Batched second part: transforms second-part FFTs `c0..c0 + w`
    /// (columns of `y`) into the block held in `block`, showing each row
    /// segment `y[n1·m + c0 ..][..w]` to `visit(n1, row)` in natural order.
    pub fn second_block(
        &self,
        y: &[Complex64],
        c0: usize,
        w: usize,
        block: &mut [Complex64],
        visit: impl FnMut(usize, &[Complex64]),
    ) {
        assert_eq!(y.len(), self.n);
        self.second().block(y, c0, w, block, visit);
    }

    /// Copies column `c < w` of a second-part block into `buf[..k]`.
    #[inline]
    pub fn second_block_column(
        &self,
        block: &mut [Complex64],
        w: usize,
        c: usize,
        buf: &mut [Complex64],
    ) {
        self.second().column(block, w, c, buf);
    }

    /// Writes `vals[..k]` back as column `c < w` of a second-part block
    /// (a verified or recomputed column replacing the batched one).
    #[inline]
    pub fn put_second_block_column(
        &self,
        block: &mut [Complex64],
        w: usize,
        c: usize,
        vals: &[Complex64],
    ) {
        self.second().put_column(block, w, c, vals);
    }

    /// Stores a second-part block as output columns `c0..c0 + w`: row `j1`
    /// of the block is `dst[j1·m + c0 ..][..w]`.
    #[inline]
    pub fn store_second_block(
        &self,
        block: &mut [Complex64],
        c0: usize,
        w: usize,
        dst: &mut [Complex64],
    ) {
        self.second().store(block, c0, w, dst);
    }

    /// Scatters the output of second-part FFT `j2` into `dst`
    /// (`dst[j1·m + j2] = vals[j1]`).
    #[inline]
    pub fn scatter_output(&self, dst: &mut [Complex64], j2: usize, vals: &[Complex64]) {
        scatter(dst, j2, self.m, &vals[..self.k]);
    }

    /// Reference unprotected execution (the "plain FFTW" baseline of the
    /// evaluation): part 1 block by block, each finished column twiddled
    /// straight into its row of `y` (the one transpose), then part 2
    /// block by block, each block's rows stored straight into `dst`.
    pub fn execute(&self, src: &[Complex64], dst: &mut [Complex64], s: &mut TwoLayerScratch) {
        assert_eq!(src.len(), self.n);
        assert_eq!(dst.len(), self.n);
        let (k, m) = (self.k, self.m);
        let bw = self.first_block_width();
        for c0 in (0..k).step_by(bw) {
            let w = bw.min(k - c0);
            self.first_block(src, c0, w, &mut s.block, |_, _| {});
            for c in 0..w {
                self.first_block_column(&mut s.block, w, c, &mut s.buf);
                let n1 = c0 + c;
                self.twiddle_row(n1, &s.buf, &mut s.y[n1 * m..(n1 + 1) * m]);
            }
        }
        let bw = self.second_block_width();
        for c0 in (0..m).step_by(bw) {
            let w = bw.min(m - c0);
            self.second_block(&s.y, c0, w, &mut s.block, |_, _| {});
            self.store_second_block(&mut s.block, c0, w, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::dft_naive;
    use ftfft_numeric::{max_abs_diff, uniform_signal};

    fn check(n: usize, k: Option<usize>) {
        let planner = Planner::new();
        let plan = match k {
            Some(k) => TwoLayerPlan::with_split(&planner, n, k, Direction::Forward),
            None => TwoLayerPlan::new(&planner, n, Direction::Forward),
        };
        let x = uniform_signal(n, 11 + n as u64);
        let want = dft_naive(&x, Direction::Forward);
        let mut dst = vec![Complex64::ZERO; n];
        let mut s = plan.make_scratch();
        plan.execute(&x, &mut dst, &mut s);
        let err = max_abs_diff(&dst, &want);
        assert!(err < 1e-9 * n as f64, "n={n} k={:?} err={err}", k);
    }

    #[test]
    fn matches_naive_balanced_splits() {
        for n in [4usize, 16, 64, 256, 1024, 4096] {
            check(n, None);
        }
    }

    #[test]
    fn matches_naive_odd_splits_and_composites() {
        check(1 << 9, None); // 512 = 16*32 unbalanced powers
        check(60, Some(4));
        check(60, Some(6));
        check(360, Some(8));
        check(100, Some(10));
        check(2048, Some(2)); // degenerate split still correct
    }

    #[test]
    fn twiddle_matrix_rows_copy_the_table() {
        let planner = Planner::new();
        for (n, k) in [(144usize, 12usize), (360, 8), (1024, 32), (64, 1), (64, 64)] {
            let plan = TwoLayerPlan::with_split(&planner, n, k, Direction::Inverse);
            let table = TwiddleTable::new(n, Direction::Inverse);
            for n1 in 0..k {
                let row = plan.twiddle_weights(n1);
                assert_eq!(row.len(), plan.m());
                for (j2, &w) in row.iter().enumerate() {
                    assert_eq!(w, table.get(n1 * j2), "n={n} k={k} n1={n1} j2={j2}");
                }
            }
        }
    }

    #[test]
    fn split_shape() {
        let planner = Planner::new();
        let p = TwoLayerPlan::new(&planner, 1 << 10, Direction::Forward);
        assert_eq!(p.k() * p.m(), p.n());
        assert_eq!(p.k(), 1 << 5);
        assert_eq!(p.m(), 1 << 5);
    }

    #[test]
    fn inverse_direction_round_trip() {
        let n = 256;
        let planner = Planner::new();
        let f = TwoLayerPlan::new(&planner, n, Direction::Forward);
        let i = TwoLayerPlan::new(&planner, n, Direction::Inverse);
        let x = uniform_signal(n, 3);
        let mut mid = vec![Complex64::ZERO; n];
        let mut out = vec![Complex64::ZERO; n];
        let mut s = f.make_scratch();
        f.execute(&x, &mut mid, &mut s);
        i.execute(&mid, &mut out, &mut s);
        for (a, b) in out.iter().zip(&x) {
            assert!(a.scale(1.0 / n as f64).approx_eq(*b, 1e-11));
        }
    }

    #[test]
    fn stage_primitives_compose_to_execute_bitwise() {
        // Drive the single-column primitives by hand (as the unoptimized
        // ABFT executors do) and compare with the packaged execute(): the
        // same kernel per column, so the same bits — for a sub-plan split
        // and for column-batched power-of-two splits.
        let planner = Planner::new();
        for (n, k) in [(144usize, 12usize), (1024, 16), (2048, 64), (64, 8)] {
            let plan = TwoLayerPlan::with_split(&planner, n, k, Direction::Forward);
            let x = uniform_signal(n, 9);
            let mut s = plan.make_scratch();
            let mut fft = vec![Complex64::ZERO; plan.scratch_len()];

            let mut y = vec![Complex64::ZERO; n];
            for n1 in 0..plan.k() {
                plan.gather_first(&x, n1, &mut s.buf);
                plan.inner_fft(&mut s.buf, &mut fft);
                for j2 in 0..plan.m() {
                    s.buf[j2] *= plan.twiddle_weight(n1, j2);
                }
                y[n1 * plan.m()..(n1 + 1) * plan.m()].copy_from_slice(&s.buf[..plan.m()]);
            }
            let mut manual = vec![Complex64::ZERO; n];
            for j2 in 0..plan.m() {
                plan.gather_second(&y, j2, &mut s.buf);
                plan.outer_fft(&mut s.buf, &mut fft);
                plan.scatter_output(&mut manual, j2, &s.buf);
            }

            let mut packaged = vec![Complex64::ZERO; n];
            plan.execute(&x, &mut packaged, &mut s);
            assert_eq!(manual, packaged, "n={n} k={k}");
        }
    }

    #[test]
    fn power_of_two_columns_keep_the_radix4_sub_plan_bits() {
        // Each lane runs the AoS radix-4 arithmetic, so a column equals the
        // standalone radix-4 sub-plan (chosen for 16 ≤ m ≤ 2^13) bit for bit.
        let planner = Planner::new();
        for (n, k) in [(1024usize, 32usize), (2048, 32), (1 << 14, 128)] {
            let plan = TwoLayerPlan::with_split(&planner, n, k, Direction::Inverse);
            assert_eq!(plan.inner_plan().kernel_name(), "radix4");
            let x = uniform_signal(n, 5);
            let m = plan.m();
            let mut fft = vec![Complex64::ZERO; plan.scratch_len()];
            let mut sub = vec![Complex64::ZERO; plan.inner_plan().scratch_len()];
            let (mut got, mut want) = (vec![Complex64::ZERO; m], vec![Complex64::ZERO; m]);
            for n1 in [0, 1, k - 1] {
                plan.first_fft(&x, n1, &mut got, &mut fft);
                plan.gather_first(&x, n1, &mut want);
                plan.inner_plan().execute_inplace(&mut want, &mut sub);
                assert_eq!(got, want, "n={n} k={k} n1={n1}");
            }
        }
    }
}
