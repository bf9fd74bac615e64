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
//! The online ABFT scheme wraps each step with its own protection, so the
//! plan exposes every stage as a primitive (gather / sub-FFT / twiddle /
//! scatter) in addition to a reference [`execute`](TwoLayerPlan::execute).
//!
//! The buffered sub-FFTs ([`first_fft`](TwoLayerPlan::first_fft),
//! [`second_fft`](TwoLayerPlan::second_fft)) read their strided input
//! straight into the sub-kernel's input order through
//! [`FftPlan::execute_gathered`] — for the radix-2/4 kernels that is the
//! bit-reversed order, so no separate permutation pass runs — and the
//! twiddles are stored as a row-major `k × m` matrix, so row `n1`'s
//! weights `ω_N^{n1·j2}` are one contiguous slice.

use std::sync::Arc;

use crate::direction::Direction;
use crate::factor::split_balanced;
use crate::planner::{FftPlan, Planner};
use crate::strided::{gather, scatter};
use crate::twiddle_table::TwiddleTable;
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
    /// Sub-plan scratch.
    pub fft: Vec<Complex64>,
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
        TwoLayerPlan {
            n,
            k,
            m,
            dir,
            inner: planner.plan(m, dir),
            outer: planner.plan(k, dir),
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

    /// The m-point sub-plan.
    pub fn inner_plan(&self) -> &FftPlan {
        &self.inner
    }

    /// The k-point sub-plan.
    pub fn outer_plan(&self) -> &FftPlan {
        &self.outer
    }

    /// Allocates scratch sized for this plan.
    pub fn make_scratch(&self) -> TwoLayerScratch {
        TwoLayerScratch {
            y: vec![Complex64::ZERO; self.n],
            buf: vec![Complex64::ZERO; self.k.max(self.m)],
            fft: vec![Complex64::ZERO; self.inner.scratch_len().max(self.outer.scratch_len())],
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
        self.inner.execute_inplace(&mut buf[..self.m], fft_scratch);
    }

    /// First-part FFT `n1 < k` in one call: reads `x[n1 + t·k]` straight
    /// into the m-point kernel's input order and transforms it into
    /// `buf[..m]`. Bitwise equal to [`gather_first`](Self::gather_first)
    /// followed by [`inner_fft`](Self::inner_fft).
    #[inline]
    pub fn first_fft(
        &self,
        src: &[Complex64],
        n1: usize,
        buf: &mut [Complex64],
        fft: &mut [Complex64],
    ) {
        debug_assert!(n1 < self.k);
        self.inner.execute_gathered(src, n1, self.k, &mut buf[..self.m], fft);
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
        self.outer.execute_inplace(&mut buf[..self.k], fft_scratch);
    }

    /// Second-part FFT `j2 < m` in one call: reads column `j2` of `y`
    /// straight into the k-point kernel's input order and transforms it
    /// into `buf[..k]`. Bitwise equal to
    /// [`gather_second`](Self::gather_second) followed by
    /// [`outer_fft`](Self::outer_fft).
    #[inline]
    pub fn second_fft(
        &self,
        y: &[Complex64],
        j2: usize,
        buf: &mut [Complex64],
        fft: &mut [Complex64],
    ) {
        debug_assert!(j2 < self.m);
        self.outer.execute_gathered(y, j2, self.m, &mut buf[..self.k], fft);
    }

    /// Scatters the output of second-part FFT `j2` into `dst`
    /// (`dst[j1·m + j2] = vals[j1]`).
    #[inline]
    pub fn scatter_output(&self, dst: &mut [Complex64], j2: usize, vals: &[Complex64]) {
        scatter(dst, j2, self.m, &vals[..self.k]);
    }

    /// Reference unprotected execution (the "plain FFTW" baseline of the
    /// evaluation): all three stages with buffered strided access; each
    /// twiddled first-part row lands directly in `y`.
    pub fn execute(&self, src: &[Complex64], dst: &mut [Complex64], s: &mut TwoLayerScratch) {
        assert_eq!(src.len(), self.n);
        assert_eq!(dst.len(), self.n);
        for (n1, row) in s.y.chunks_exact_mut(self.m).enumerate() {
            self.first_fft(src, n1, &mut s.buf, &mut s.fft);
            self.twiddle_row(n1, &s.buf, row);
        }
        for j2 in 0..self.m {
            self.second_fft(&s.y, j2, &mut s.buf, &mut s.fft);
            self.scatter_output(dst, j2, &s.buf);
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
    fn stage_primitives_compose_to_execute() {
        // Drive the primitives manually (as the ABFT executor does) and
        // compare with the packaged execute().
        let n = 144;
        let planner = Planner::new();
        let plan = TwoLayerPlan::with_split(&planner, n, 12, Direction::Forward);
        let x = uniform_signal(n, 9);
        let mut s = plan.make_scratch();

        let mut y = vec![Complex64::ZERO; n];
        for n1 in 0..plan.k() {
            plan.gather_first(&x, n1, &mut s.buf);
            plan.inner_fft(&mut s.buf, &mut s.fft);
            for j2 in 0..plan.m() {
                s.buf[j2] *= plan.twiddle_weight(n1, j2);
            }
            y[n1 * plan.m()..(n1 + 1) * plan.m()].copy_from_slice(&s.buf[..plan.m()]);
        }
        let mut manual = vec![Complex64::ZERO; n];
        for j2 in 0..plan.m() {
            plan.gather_second(&y, j2, &mut s.buf);
            plan.outer_fft(&mut s.buf, &mut s.fft);
            plan.scatter_output(&mut manual, j2, &s.buf);
        }

        let mut packaged = vec![Complex64::ZERO; n];
        let mut s2 = plan.make_scratch();
        plan.execute(&x, &mut packaged, &mut s2);
        assert!(max_abs_diff(&manual, &packaged) < 1e-12 * n as f64);
    }
}
