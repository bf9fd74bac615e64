//! Strided access helpers and in-place rectangular transpose.
//!
//! The decomposed sub-FFTs of Fig 1 read non-contiguous inputs (stride `k`).
//! §4.4 and §6.2 of the paper observe that buffering those gathers into
//! contiguous scratch is itself a performance optimization; these helpers are
//! the primitive both the plain plans and the ABFT executors use.

use ftfft_numeric::Complex64;

/// Copies `out.len()` elements from `src` starting at `offset`, every
/// `stride`-th element.
#[inline]
pub fn gather(src: &[Complex64], offset: usize, stride: usize, out: &mut [Complex64]) {
    debug_assert!(stride >= 1);
    let mut idx = offset;
    for o in out.iter_mut() {
        *o = src[idx];
        idx += stride;
    }
}

/// Writes `vals` into `dst` starting at `offset`, every `stride`-th slot.
#[inline]
pub fn scatter(dst: &mut [Complex64], offset: usize, stride: usize, vals: &[Complex64]) {
    debug_assert!(stride >= 1);
    let mut idx = offset;
    for v in vals {
        dst[idx] = *v;
        idx += stride;
    }
}

/// Multiplies each gathered element by the matching `weights` entry while
/// scattering — the fused "twiddle on the way back" used by the in-place
/// layers.
#[inline]
pub fn scatter_weighted(
    dst: &mut [Complex64],
    offset: usize,
    stride: usize,
    vals: &[Complex64],
    weights: &[Complex64],
) {
    debug_assert_eq!(vals.len(), weights.len());
    let mut idx = offset;
    for (v, w) in vals.iter().zip(weights) {
        dst[idx] = *v * *w;
        idx += stride;
    }
}

/// In-place transpose of a row-major `rows × cols` matrix using
/// cycle-following, with one visited bit per element (`O(n)` time,
/// `n/8` bytes of scratch — preserves the in-place property of §5).
pub fn transpose_inplace(data: &mut [Complex64], rows: usize, cols: usize) {
    let n = rows * cols;
    assert_eq!(data.len(), n, "transpose_inplace: shape mismatch");
    if rows <= 1 || cols <= 1 {
        return;
    }
    // Element at index i = r*cols + c moves to c*rows + r.
    // Equivalently dest(i) = (i * rows) mod (n-1), with i = 0 and n-1 fixed.
    let mut visited = vec![false; n];
    visited[0] = true;
    visited[n - 1] = true;
    for start in 1..n - 1 {
        if visited[start] {
            continue;
        }
        let mut cur = start;
        let mut carried = data[start];
        loop {
            let dest = (cur * rows) % (n - 1);
            std::mem::swap(&mut data[dest], &mut carried);
            visited[cur] = true;
            cur = dest;
            if cur == start {
                break;
            }
        }
    }
}

/// Cache-block edge for [`transpose_out_of_place`]: 16×16 `Complex64`
/// tiles (4 KB working set per operand) keep both the read rows and the
/// write columns L1-resident — the same blocking rationale as the COBRA
/// bit-reversal tiles.
const TRANSPOSE_BLOCK: usize = 16;

/// Out-of-place transpose (`dst[c*rows + r] = src[r*cols + c]`).
///
/// Tiled into `TRANSPOSE_BLOCK`² blocks so that large matrices (the
/// six-step engine's `p × b` frame matrices, the two-layer `k × m`
/// stages) stream whole cache lines on both sides instead of striding
/// `dst` by `rows` on every element.
pub fn transpose_out_of_place(src: &[Complex64], dst: &mut [Complex64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    let bs = TRANSPOSE_BLOCK;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + bs).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + bs).min(cols);
            for r in r0..r1 {
                for (c, &v) in src[r * cols + c0..r * cols + c1].iter().enumerate() {
                    dst[(c0 + c) * rows + r] = v;
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_numeric::complex::c64;
    use ftfft_numeric::uniform_signal;

    #[test]
    fn gather_scatter_round_trip() {
        let n = 24;
        let src = uniform_signal(n, 1);
        let mut dst = vec![Complex64::ZERO; n];
        let stride = 4;
        let count = n / stride;
        let mut buf = vec![Complex64::ZERO; count];
        for off in 0..stride {
            gather(&src, off, stride, &mut buf);
            scatter(&mut dst, off, stride, &buf);
        }
        assert_eq!(src, dst);
    }

    #[test]
    fn scatter_weighted_multiplies() {
        let mut dst = vec![Complex64::ZERO; 4];
        let vals = [c64(1.0, 0.0), c64(2.0, 0.0)];
        let ws = [c64(0.0, 1.0), c64(3.0, 0.0)];
        scatter_weighted(&mut dst, 1, 2, &vals, &ws);
        assert_eq!(dst[1], c64(0.0, 1.0));
        assert_eq!(dst[3], c64(6.0, 0.0));
    }

    #[test]
    fn transpose_inplace_matches_out_of_place() {
        for (r, c) in [(2usize, 3usize), (3, 2), (4, 4), (1, 7), (7, 1), (8, 2), (5, 6), (16, 4)] {
            let src = uniform_signal(r * c, (r * 31 + c) as u64);
            let mut want = vec![Complex64::ZERO; r * c];
            transpose_out_of_place(&src, &mut want, r, c);
            let mut got = src.clone();
            transpose_inplace(&mut got, r, c);
            assert_eq!(got, want, "{r}x{c}");
        }
    }

    #[test]
    fn tiled_transpose_matches_naive_above_block_size() {
        // Shapes straddling the 16×16 tile edge, including ragged tails.
        for (r, c) in [(16usize, 16usize), (17, 16), (16, 17), (40, 24), (33, 17), (64, 64)] {
            let src = uniform_signal(r * c, (r * 131 + c) as u64);
            let mut naive = vec![Complex64::ZERO; r * c];
            for rr in 0..r {
                for cc in 0..c {
                    naive[cc * r + rr] = src[rr * c + cc];
                }
            }
            let mut got = vec![Complex64::ZERO; r * c];
            transpose_out_of_place(&src, &mut got, r, c);
            assert_eq!(got, naive, "{r}x{c}");
        }
    }

    #[test]
    fn transpose_twice_with_swapped_dims_is_identity() {
        let (r, c) = (6, 10);
        let src = uniform_signal(r * c, 77);
        let mut v = src.clone();
        transpose_inplace(&mut v, r, c);
        transpose_inplace(&mut v, c, r);
        assert_eq!(v, src);
    }
}
