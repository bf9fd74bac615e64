//! Iterative radix-2 decimation-in-time FFT.
//!
//! This is the workhorse kernel for the power-of-two sub-FFT sizes produced
//! by the two- and three-layer decompositions. It runs in place over a
//! bit-reversed input using a shared twiddle table of the *same* size as the
//! data (tables for larger parents can be used through [`fft_radix2_strided_table`]).

use crate::bitrev::bit_reverse_permute;
use crate::twiddle_table::TwiddleTable;
use ftfft_numeric::Complex64;

/// In-place radix-2 FFT of `data` using a twiddle table with
/// `table.len() == data.len() * table_stride`.
///
/// `ω_n^t` is read as `table[t * table_stride]`, so a single table built for
/// the largest size serves every power-of-two sub-size.
///
/// # Panics
/// Panics if `data.len()` is not a power of two or the table is too small.
pub fn fft_radix2_strided_table(data: &mut [Complex64], table: &TwiddleTable, table_stride: usize) {
    let n = data.len();
    assert!(n.is_power_of_two(), "radix-2 kernel needs a power of two, got {n}");
    assert_eq!(
        table.len(),
        n * table_stride,
        "table size {} incompatible with n={n}, stride={table_stride}",
        table.len()
    );
    if n == 1 {
        return;
    }
    bit_reverse_permute(data);
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        // ω_len^j = ω_n^{j·(n/len)}; include the external table stride.
        let tw_step = (n / len) * table_stride;
        if tw_step == 1 {
            // Final stage with a matching table: contiguous twiddles —
            // hand the whole half-split to the SIMD butterfly kernel.
            let (lo, hi) = data.split_at_mut(half);
            ftfft_numeric::simd::butterfly(lo, hi, &table.as_slice()[..half]);
            len <<= 1;
            continue;
        }
        let mut base = 0usize;
        while base < n {
            let (lo, hi) = data[base..base + len].split_at_mut(half);
            let mut t = 0usize;
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let w = table.get(t);
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
                t += tw_step;
            }
            base += len;
        }
        len <<= 1;
    }
}

/// In-place radix-2 FFT with a table exactly matching `data.len()`.
pub fn fft_radix2_inplace(data: &mut [Complex64], table: &TwiddleTable) {
    fft_radix2_strided_table(data, table, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use crate::naive::dft_naive;
    use ftfft_numeric::complex::c64;
    use ftfft_numeric::{max_abs_diff, uniform_signal};

    fn check(n: usize) {
        let x = uniform_signal(n, n as u64);
        let want = dft_naive(&x, Direction::Forward);
        let mut got = x.clone();
        let table = TwiddleTable::new(n, Direction::Forward);
        fft_radix2_inplace(&mut got, &table);
        let err = max_abs_diff(&got, &want);
        assert!(err < 1e-9 * n as f64, "n={n} err={err}");
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64, 256, 1024] {
            check(n);
        }
    }

    #[test]
    fn inverse_round_trip() {
        let n = 128;
        let x = uniform_signal(n, 9);
        let mut v = x.clone();
        let f = TwiddleTable::new(n, Direction::Forward);
        let i = TwiddleTable::new(n, Direction::Inverse);
        fft_radix2_inplace(&mut v, &f);
        fft_radix2_inplace(&mut v, &i);
        for (a, b) in v.iter().zip(&x) {
            assert!(a.scale(1.0 / n as f64).approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 32;
        let mut v = vec![Complex64::ZERO; n];
        v[0] = c64(1.0, 0.0);
        let table = TwiddleTable::new(n, Direction::Forward);
        fft_radix2_inplace(&mut v, &table);
        assert!(v.iter().all(|z| z.approx_eq(c64(1.0, 0.0), 1e-12)));
    }

    #[test]
    fn strided_table_reuse() {
        // A table for 4n serves an n-point transform with stride 4.
        let n = 64;
        let x = uniform_signal(n, 3);
        let big = TwiddleTable::new(4 * n, Direction::Forward);
        let mut got = x.clone();
        fft_radix2_strided_table(&mut got, &big, 4);
        let want = dft_naive(&x, Direction::Forward);
        assert!(max_abs_diff(&got, &want) < 1e-10 * n as f64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut v = vec![Complex64::ZERO; 12];
        let table = TwiddleTable::new(12, Direction::Forward);
        fft_radix2_inplace(&mut v, &table);
    }
}
