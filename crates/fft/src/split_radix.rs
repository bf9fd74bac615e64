//! Recursive conjugate-pair split-radix FFT.
//!
//! The conjugate-pair variant (Kamar & Elcherif; the form used by FFTW's
//! codelets) decomposes an n-point DFT into one n/2 transform of the even
//! samples and two n/4 transforms of `x[4m+1]` and `x[4m−1]` — the latter
//! indexed modulo n, which costs one wrapped load and buys twiddle factors
//! that are complex conjugates of each other: each butterfly loads `ω_n^k`
//! once and derives `ω_n^{−k} = conj(ω_n^k)` for free.
//!
//! Per 4-point L-butterfly this needs 2 complex multiplications against
//! radix-2's 4 and radix-4's 3 — the classic ~25% flop reduction — while
//! the recursion keeps sub-transform working sets cache-resident. Small
//! sub-transforms (`n ≤ LEAF_LEN`) fall through to the iterative radix-4
//! kernel on gathered data to cap call overhead.
//!
//! The transform is out-of-place (`src` strided reads → `dst` contiguous
//! writes); [`fft_split_radix_inplace`] stages through caller scratch.

use crate::radix4::fft_radix4_strided_table;
use crate::twiddle_table::TwiddleTable;
use ftfft_numeric::complex::c64;
use ftfft_numeric::Complex64;

/// Sub-transform size at which the recursion hands off to the iterative
/// radix-4 kernel (strided gather + contiguous butterflies).
const LEAF_LEN: usize = 64;

/// Out-of-place split-radix FFT: `dst = DFT(src)` with
/// `table.len() == src.len() * table_stride` (`ω_n^t = table[t·table_stride]`).
///
/// # Panics
/// Panics if `src.len()` is not a power of two, `dst` is a different
/// length, or the table is too small.
pub fn fft_split_radix_strided_table(
    src: &[Complex64],
    dst: &mut [Complex64],
    table: &TwiddleTable,
    table_stride: usize,
) {
    let n = src.len();
    assert!(n.is_power_of_two(), "split-radix kernel needs a power of two, got {n}");
    assert_eq!(dst.len(), n, "dst length {} != src length {n}", dst.len());
    assert_eq!(
        table.len(),
        n * table_stride,
        "table size {} incompatible with n={n}, stride={table_stride}",
        table.len()
    );
    let s = table.direction().sign();
    recurse(src, n - 1, 0, 1, dst, table, table_stride, s);
}

/// Out-of-place split-radix FFT with a table exactly matching `src.len()`.
pub fn fft_split_radix(src: &[Complex64], dst: &mut [Complex64], table: &TwiddleTable) {
    fft_split_radix_strided_table(src, dst, table, 1);
}

/// In-place split-radix FFT staging through `scratch[..data.len()]`.
pub fn fft_split_radix_inplace(
    data: &mut [Complex64],
    table: &TwiddleTable,
    scratch: &mut [Complex64],
) {
    let n = data.len();
    let copy = &mut scratch[..n];
    copy.copy_from_slice(data);
    fft_split_radix(copy, data, table);
}

/// One recursion level: `dst = DFT(f)` for the sub-sequence
/// `f(m) = src[(off + m·stride) & mask]`, with `ω_sub^t = table[t·e]`.
///
/// `stride·dst.len()` equals the root size at every level, so reducing
/// indices modulo the root size (the `mask`) implements the periodic
/// wrap-around `f(−1) = f(len−1)` that the conjugate-pair `x[4m−1]`
/// sub-sequence needs.
#[allow(clippy::too_many_arguments)]
fn recurse(
    src: &[Complex64],
    mask: usize,
    off: usize,
    stride: usize,
    dst: &mut [Complex64],
    table: &TwiddleTable,
    e: usize,
    s: f64,
) {
    let len = dst.len();
    match len {
        1 => {
            dst[0] = src[off & mask];
            return;
        }
        2 => {
            let a = src[off & mask];
            let b = src[(off + stride) & mask];
            dst[0] = a + b;
            dst[1] = a - b;
            return;
        }
        _ => {}
    }
    if len <= LEAF_LEN {
        // Gather the strided sub-sequence and run the iterative radix-4
        // kernel with the parent table: table.len() = root·root_stride =
        // len·e, exactly the strided-table contract.
        for (m, d) in dst.iter_mut().enumerate() {
            *d = src[(off + m * stride) & mask];
        }
        fft_radix4_strided_table(dst, table, e);
        return;
    }

    let quarter = len / 4;
    let half = len / 2;
    // U = DFT_{len/2} of f(2m) into dst[..half],
    // Z = DFT_{len/4} of f(4m+1) into dst[half..half+quarter],
    // Z' = DFT_{len/4} of f(4m−1) into dst[half+quarter..].
    recurse(src, mask, off, 2 * stride, &mut dst[..half], table, 2 * e, s);
    recurse(src, mask, off + stride, 4 * stride, &mut dst[half..half + quarter], table, 4 * e, s);
    recurse(
        src,
        mask,
        off + (mask + 1) - stride,
        4 * stride,
        &mut dst[half + quarter..],
        table,
        4 * e,
        s,
    );

    // Combine: for k < len/4, with w = ω_len^k (and ω_len^{−k} = conj w),
    //   X[k]       = U[k]     + (w·Z[k] + conj(w)·Z'[k])
    //   X[k+len/2] = U[k]     − (w·Z[k] + conj(w)·Z'[k])
    //   X[k+len/4] = U[k+q]   + s·i·(w·Z[k] − conj(w)·Z'[k])
    //   X[k+3q]    = U[k+q]   − s·i·(w·Z[k] − conj(w)·Z'[k])
    // Every output slot overwrites exactly the sub-result it consumed, so
    // the combine is in-place over dst.
    for k in 0..quarter {
        let w = table.get(k * e);
        let zp = dst[half + k] * w;
        let zm = dst[half + quarter + k] * w.conj();
        let sum = zp + zm;
        let diff = zp - zm;
        let diff = c64(-s * diff.im, s * diff.re); // s·i·diff
        let u0 = dst[k];
        let u1 = dst[quarter + k];
        dst[k] = u0 + sum;
        dst[half + k] = u0 - sum;
        dst[quarter + k] = u1 + diff;
        dst[half + quarter + k] = u1 - diff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use crate::naive::dft_naive;
    use crate::radix2::fft_radix2_inplace;
    use ftfft_numeric::{max_abs_diff, uniform_signal};

    fn check(n: usize) {
        let x = uniform_signal(n, n as u64);
        let want = dft_naive(&x, Direction::Forward);
        let mut got = vec![Complex64::ZERO; n];
        let table = TwiddleTable::new(n, Direction::Forward);
        fft_split_radix(&x, &mut got, &table);
        let err = max_abs_diff(&got, &want);
        assert!(err < 1e-9 * n as f64, "n={n} err={err}");
    }

    #[test]
    fn matches_naive_dft() {
        // Below, at, and above the radix-4 leaf cutoff, both log2 parities.
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096] {
            check(n);
        }
    }

    #[test]
    fn agrees_with_radix2_kernel() {
        for n in [4usize, 32, 256, 2048, 8192] {
            let x = uniform_signal(n, 7 + n as u64);
            let table = TwiddleTable::new(n, Direction::Forward);
            let mut r2 = x.clone();
            fft_radix2_inplace(&mut r2, &table);
            let mut sr = vec![Complex64::ZERO; n];
            fft_split_radix(&x, &mut sr, &table);
            assert!(max_abs_diff(&r2, &sr) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn inverse_round_trip() {
        let n = 1024;
        let x = uniform_signal(n, 9);
        let f = TwiddleTable::new(n, Direction::Forward);
        let i = TwiddleTable::new(n, Direction::Inverse);
        let mut mid = vec![Complex64::ZERO; n];
        let mut back = vec![Complex64::ZERO; n];
        fft_split_radix(&x, &mut mid, &f);
        fft_split_radix(&mid, &mut back, &i);
        for (a, b) in back.iter().zip(&x) {
            assert!(a.scale(1.0 / n as f64).approx_eq(*b, 1e-11));
        }
    }

    #[test]
    fn inplace_matches_out_of_place() {
        let n = 512;
        let x = uniform_signal(n, 5);
        let table = TwiddleTable::new(n, Direction::Forward);
        let mut oop = vec![Complex64::ZERO; n];
        fft_split_radix(&x, &mut oop, &table);
        let mut ip = x.clone();
        let mut scratch = vec![Complex64::ZERO; n];
        fft_split_radix_inplace(&mut ip, &table, &mut scratch);
        assert_eq!(ip, oop, "staged in-place run must be bit-identical");
    }

    #[test]
    fn strided_table_reuse() {
        let n = 256;
        let x = uniform_signal(n, 3);
        let big = TwiddleTable::new(4 * n, Direction::Forward);
        let mut got = vec![Complex64::ZERO; n];
        fft_split_radix_strided_table(&x, &mut got, &big, 4);
        let want = dft_naive(&x, Direction::Forward);
        assert!(max_abs_diff(&got, &want) < 1e-10 * n as f64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let x = vec![Complex64::ZERO; 12];
        let mut dst = vec![Complex64::ZERO; 12];
        let table = TwiddleTable::new(12, Direction::Forward);
        fft_split_radix(&x, &mut dst, &table);
    }
}
