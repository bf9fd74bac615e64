//! Iterative radix-4 decimation-in-time FFT.
//!
//! Each radix-4 stage is the exact fusion of two consecutive radix-2 stages,
//! so the kernel runs over the same bit-reversed layout as
//! [`crate::radix2`] — no base-4 digit reversal is needed. The win over
//! radix-2 is one data pass per *two* butterfly levels (half the memory
//! traffic) and three twiddle multiplications per 4-point butterfly instead
//! of four: the fourth factor `ω^{j+len/2} = ω^j·(∓i)` is a free rotation.
//!
//! When `log₂ n` is odd, a single twiddle-free radix-2 pass over the
//! bit-reversed input (`len = 2`, `ω = 1`) aligns the remaining stages on
//! even level pairs.

use crate::bitrev::bit_reverse_permute;
use crate::twiddle_table::TwiddleTable;
use ftfft_numeric::complex::c64;
use ftfft_numeric::Complex64;

/// In-place radix-4 FFT of `data` using a twiddle table with
/// `table.len() == data.len() * table_stride`.
///
/// `ω_n^t` is read as `table[t * table_stride]`, matching
/// [`crate::radix2::fft_radix2_strided_table`], so one table built for the
/// largest size serves every power-of-two sub-size.
///
/// # Panics
/// Panics if `data.len()` is not a power of two or the table is too small.
pub fn fft_radix4_strided_table(data: &mut [Complex64], table: &TwiddleTable, table_stride: usize) {
    let n = data.len();
    assert!(n.is_power_of_two(), "radix-4 kernel needs a power of two, got {n}");
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
    radix4_stages(data, table, table_stride);
}

/// The stages of [`fft_radix4_strided_table`] over input that is already in
/// bit-reversed order (the gathered entry
/// [`crate::FftPlan::execute_gathered`] stores it that way).
pub(crate) fn radix4_stages(data: &mut [Complex64], table: &TwiddleTable, table_stride: usize) {
    let n = data.len();
    // `rot = s·i` rotates by a quarter turn in the transform direction
    // (−i forward, +i inverse): the twiddle `ω_len^{j+len/4}` = `ω_len^j·rot`.
    let s = table.direction().sign();

    let mut len = 1usize;
    if n.trailing_zeros() % 2 == 1 {
        // Unpaired radix-2 pass: len = 2 butterflies are twiddle-free.
        for pair in data.chunks_exact_mut(2) {
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a + b;
            pair[1] = a - b;
        }
        len = 2;
    }
    while len < n {
        let block = len * 4;
        let quarter = len;
        // ω_block^j = ω_n^{j·(n/block)}; include the external table stride.
        let e = (n / block) * table_stride;
        let mut base = 0usize;
        while base < n {
            for j in 0..quarter {
                let v1 = table.get(j * e);
                let w2 = table.get(2 * j * e);
                let w3 = table.get(3 * j * e);
                let a = data[base + j];
                let b = data[base + quarter + j] * w2;
                let c = data[base + 2 * quarter + j] * v1;
                let d = data[base + 3 * quarter + j] * w3;
                let t0 = a + b;
                let t1 = a - b;
                let t2 = c + d;
                let t3 = c - d;
                let t3 = c64(-s * t3.im, s * t3.re); // rot·t3
                data[base + j] = t0 + t2;
                data[base + 2 * quarter + j] = t0 - t2;
                data[base + quarter + j] = t1 + t3;
                data[base + 3 * quarter + j] = t1 - t3;
            }
            base += block;
        }
        len = block;
    }
}

/// In-place radix-4 FFT with a table exactly matching `data.len()`.
pub fn fft_radix4_inplace(data: &mut [Complex64], table: &TwiddleTable) {
    fft_radix4_strided_table(data, table, 1);
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
        let mut got = x.clone();
        let table = TwiddleTable::new(n, Direction::Forward);
        fft_radix4_inplace(&mut got, &table);
        let err = max_abs_diff(&got, &want);
        assert!(err < 1e-9 * n as f64, "n={n} err={err}");
    }

    #[test]
    fn matches_naive_dft_even_and_odd_log2() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 2048] {
            check(n);
        }
    }

    #[test]
    fn agrees_with_radix2_kernel() {
        for n in [2usize, 8, 64, 512, 4096] {
            let x = uniform_signal(n, 7 + n as u64);
            let table = TwiddleTable::new(n, Direction::Forward);
            let mut r2 = x.clone();
            fft_radix2_inplace(&mut r2, &table);
            let mut r4 = x.clone();
            fft_radix4_inplace(&mut r4, &table);
            assert!(max_abs_diff(&r2, &r4) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn inverse_round_trip() {
        let n = 512; // odd log2: exercises the unpaired radix-2 pass
        let x = uniform_signal(n, 9);
        let mut v = x.clone();
        let f = TwiddleTable::new(n, Direction::Forward);
        let i = TwiddleTable::new(n, Direction::Inverse);
        fft_radix4_inplace(&mut v, &f);
        fft_radix4_inplace(&mut v, &i);
        for (a, b) in v.iter().zip(&x) {
            assert!(a.scale(1.0 / n as f64).approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn strided_table_reuse() {
        // A table for 4n serves an n-point transform with stride 4.
        let n = 64;
        let x = uniform_signal(n, 3);
        let big = TwiddleTable::new(4 * n, Direction::Forward);
        let mut got = x.clone();
        fft_radix4_strided_table(&mut got, &big, 4);
        let want = dft_naive(&x, Direction::Forward);
        assert!(max_abs_diff(&got, &want) < 1e-10 * n as f64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut v = vec![Complex64::ZERO; 12];
        let table = TwiddleTable::new(12, Direction::Forward);
        fft_radix4_inplace(&mut v, &table);
    }
}
