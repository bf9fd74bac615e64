//! Bit-reversal permutation for the iterative radix-2 kernel.

use ftfft_numeric::Complex64;

/// Reverses the low `bits` bits of `x`. `bits == 0` returns 0.
#[inline]
pub fn reverse_bits(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

/// The bit-reversal permutation of `0..n` as a lookup table,
/// `table[t] = reverse_bits(t, log₂ n)`: the store order that puts a
/// natural-order input where the iterative kernels' stages read it.
///
/// # Panics
/// Panics if `n` is not a power of two or exceeds `2^32`.
pub(crate) fn bit_reverse_table(n: usize) -> Vec<u32> {
    assert!(n.is_power_of_two(), "bit_reverse_table: n={n} not a power of two");
    assert!(n as u64 <= 1 << 32, "bit_reverse_table: n={n} exceeds u32 indices");
    let mut table = Vec::with_capacity(n);
    let mut j = 0usize;
    for _ in 0..n {
        table.push(j as u32);
        // Reversed-carry increment, as in `bit_reverse_permute`.
        let mut bit = n >> 1;
        while bit > 0 && j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
    }
    table
}

/// Applies the bit-reversal permutation in place.
///
/// The reversed companion index is maintained *incrementally* (add-with-
/// reversed-carry) instead of calling [`reverse_bits`] per element — x86
/// has no bit-reverse instruction, so the per-element reversal sequence
/// used to dominate this pass at small `n` (see `EXPERIMENTS.md`,
/// perfgate at 2¹⁰).
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn bit_reverse_permute(data: &mut [Complex64]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "bit_reverse_permute: n={n} not a power of two");
    if n <= 2 {
        return; // 1- and 2-point reversals are the identity.
    }
    let mut j = 0usize;
    for i in 0..n - 1 {
        if i < j {
            data.swap(i, j);
        }
        // Reversed-carry increment: propagate from the top bit down.
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
    }
}

/// COBRA tile width in bits: 32×32 `f64` tiles (8 KB buffer) keep both the
/// read run and the write run inside L1 while each still spans four cache
/// lines — the Carter–Gatlin sweet spot for 8-byte elements.
const COBRA_Q: u32 = 5;

/// Out-of-place bit-reversal of one `f64` plane: `dst[rev(i)] = src[i]`.
///
/// Large planes use the COBRA blocking (Carter & Gatlin): the index is
/// split `i = a·2^{t−q} + b·2^q + c` with `a`,`c` of `q` bits, a
/// `2^q × 2^q` tile is filled with contiguous reads and drained with
/// contiguous writes, so every pass streams whole cache lines instead of
/// striding `dst` by `n/2` the way the naive loop does. Small planes fall
/// back to the incremental reversed-carry copy.
///
/// # Panics
/// Panics if the lengths differ or are not a power of two.
pub fn bit_reverse_copy_f64(src: &[f64], dst: &mut [f64]) {
    let n = src.len();
    assert_eq!(n, dst.len(), "bit_reverse_copy_f64: length mismatch");
    assert!(n.is_power_of_two(), "bit_reverse_copy_f64: n={n} not a power of two");
    let t = n.trailing_zeros();
    if t <= 2 * COBRA_Q {
        // Small plane: incremental reversed-carry companion index.
        let mut j = 0usize;
        for &v in src {
            dst[j] = v;
            let mut bit = n >> 1;
            while bit > 0 && j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
        }
        return;
    }

    let q = COBRA_Q;
    let w = 1usize << q; // tile width
    let mid_bits = t - 2 * q;
    let mut tile = [0.0f64; 1 << (2 * COBRA_Q)];
    for b in 0..1usize << mid_bits {
        let b_rev = reverse_bits(b, mid_bits);
        for a in 0..w {
            let a_rev = reverse_bits(a, q);
            let row = &src[(a << (t - q)) | (b << q)..][..w];
            tile[a_rev << q..][..w].copy_from_slice(row);
        }
        for c in 0..w {
            let c_rev = reverse_bits(c, q);
            let out = &mut dst[(c_rev << (t - q)) | (b_rev << q)..][..w];
            for (a_rev, slot) in out.iter_mut().enumerate() {
                *slot = tile[(a_rev << q) | c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_numeric::complex::c64;

    #[test]
    fn reverse_bits_known_values() {
        assert_eq!(reverse_bits(0b001, 3), 0b100);
        assert_eq!(reverse_bits(0b011, 3), 0b110);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0, 5), 0);
    }

    #[test]
    fn permutation_is_involution() {
        let n = 64;
        let orig: Vec<_> = (0..n).map(|i| c64(i as f64, -(i as f64))).collect();
        let mut v = orig.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, orig);
        bit_reverse_permute(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn permutation_size_8() {
        let mut v: Vec<_> = (0..8).map(|i| c64(i as f64, 0.0)).collect();
        bit_reverse_permute(&mut v);
        let got: Vec<usize> = v.iter().map(|z| z.re as usize).collect();
        assert_eq!(got, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn table_matches_reverse_bits() {
        for t in [0u32, 1, 2, 5, 10] {
            let n = 1usize << t;
            let table = bit_reverse_table(n);
            assert_eq!(table.len(), n);
            for (i, &r) in table.iter().enumerate() {
                assert_eq!(r as usize, reverse_bits(i, t), "t={t} i={i}");
            }
        }
    }

    #[test]
    fn size_one_is_noop() {
        let mut v = vec![c64(3.0, 1.0)];
        bit_reverse_permute(&mut v);
        assert_eq!(v[0], c64(3.0, 1.0));
    }

    #[test]
    fn cobra_copy_matches_naive_reversal() {
        // Below, at, and above the COBRA threshold (2^10), including the
        // smallest blocked size with a single mid bit (2^11).
        for t in [0u32, 1, 3, 6, 10, 11, 12, 14] {
            let n = 1usize << t;
            let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut dst = vec![0.0; n];
            bit_reverse_copy_f64(&src, &mut dst);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(dst[reverse_bits(i, t)], s, "t={t} i={i}");
            }
        }
    }
}
