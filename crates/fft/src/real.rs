//! Real-input FFT via the packed half-size complex transform.
//!
//! An even-length real sequence is packed into an `n/2`-point complex FFT
//! and unpacked with the standard split formula; the inverse repacks the
//! `n/2 + 1` non-redundant bins into the half-size spectrum and runs the
//! half-size inverse transform — both directions do half the complex work
//! of the naive real-extended transform.
//!
//! [`RealFftPlan`] is the planned, allocation-free-after-setup API the
//! streaming engines build on (`ftfft-stream`); the protected counterpart
//! wrapping [`crate::planner::FftPlan`]'s ABFT sibling lives in
//! `ftfft_core::RealFtFftPlan`. The free functions [`rfft`]/[`irfft`] are
//! thin compatibility wrappers that plan per call.

use crate::direction::Direction;
use crate::planner::FftPlan;
use ftfft_numeric::complex::c64;
use ftfft_numeric::{cis, Complex64};

/// Packs `x[2t] + i·x[2t+1]` into `packed` (length `x.len() / 2`).
#[inline]
pub fn pack_real(x: &[f64], packed: &mut [Complex64]) {
    debug_assert_eq!(x.len(), 2 * packed.len());
    for (t, slot) in packed.iter_mut().enumerate() {
        *slot = c64(x[2 * t], x[2 * t + 1]);
    }
}

/// Splits the half-size transform `z` of a packed real signal into the
/// `h + 1` non-redundant spectrum bins. `w` holds the split twiddles
/// `e^{-2πij/n}` for `j = 0..=h`.
#[inline]
pub fn unpack_spectrum(z: &[Complex64], w: &[Complex64], spec: &mut [Complex64]) {
    let h = z.len();
    debug_assert_eq!(spec.len(), h + 1);
    debug_assert_eq!(w.len(), h + 1);
    let split = |zj: Complex64, zc: Complex64, wj: Complex64| {
        let even = (zj + zc).scale(0.5);
        let odd = (zj - zc).scale(0.5) * c64(0.0, -1.0);
        even + odd * wj
    };
    // Bins 0 and h both pair z[0] with itself (index h wraps to 0).
    let z0c = z[0].conj();
    spec[0] = split(z[0], z0c, w[0]);
    for j in 1..h {
        spec[j] = split(z[j], z[h - j].conj(), w[j]);
    }
    spec[h] = split(z[0], z0c, w[h]);
}

/// Inverse of [`unpack_spectrum`]: rebuilds the half-size complex spectrum
/// `z` from the `h + 1` real-signal bins. `w` holds the *inverse* split
/// twiddles `e^{+2πij/n}` for `j = 0..=h`.
#[inline]
pub fn repack_spectrum(spec: &[Complex64], w: &[Complex64], z: &mut [Complex64]) {
    let h = z.len();
    debug_assert_eq!(spec.len(), h + 1);
    debug_assert_eq!(w.len(), h + 1);
    for (j, slot) in z.iter_mut().enumerate() {
        let xj = spec[j];
        let xc = spec[h - j].conj();
        let even = (xj + xc).scale(0.5);
        let odd = (xj - xc).scale(0.5) * w[j];
        *slot = even + odd * c64(0.0, 1.0);
    }
}

/// Unpacks the normalized half-size inverse transform back into real
/// samples: `x[2t] = Re(packed[t]) / h`, `x[2t+1] = Im(packed[t]) / h`.
#[inline]
pub fn unpack_real(packed: &[Complex64], x: &mut [f64]) {
    let h = packed.len();
    debug_assert_eq!(x.len(), 2 * h);
    let scale = 1.0 / h as f64;
    for (t, z) in packed.iter().enumerate() {
        x[2 * t] = z.re * scale;
        x[2 * t + 1] = z.im * scale;
    }
}

/// Builds the `h + 1` split twiddles `e^{∓2πij/n}` (sign from `dir`).
pub fn split_twiddles(n: usize, dir: Direction) -> Vec<Complex64> {
    let h = n / 2;
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    (0..=h).map(|j| cis(sign * 2.0 * std::f64::consts::PI * j as f64 / n as f64)).collect()
}

/// A planned real-input FFT: one `(n, direction)`, reusable across calls,
/// allocation-free once built (given a caller scratch buffer).
///
/// A `Forward` plan exposes [`forward`](RealFftPlan::forward) (real
/// samples → `n/2 + 1` bins, unnormalized like the complex transforms);
/// an `Inverse` plan exposes [`inverse`](RealFftPlan::inverse)
/// (`n/2 + 1` bins → real samples, normalized so the round trip is the
/// identity).
#[derive(Clone, Debug)]
pub struct RealFftPlan {
    n: usize,
    dir: Direction,
    half: FftPlan,
    w: Vec<Complex64>,
}

impl RealFftPlan {
    /// Plans a real transform of even size `n ≥ 2`.
    ///
    /// # Panics
    /// Panics if `n` is zero or odd.
    pub fn new(n: usize, dir: Direction) -> Self {
        assert!(n > 0 && n.is_multiple_of(2), "real FFT needs even nonzero length, got {n}");
        RealFftPlan { n, dir, half: FftPlan::new(n / 2, dir), w: split_twiddles(n, dir) }
    }

    /// Signal length `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (`n ≥ 2`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transform direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Number of non-redundant spectrum bins, `n/2 + 1`.
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Scratch length required by [`forward`](RealFftPlan::forward) /
    /// [`inverse`](RealFftPlan::inverse): two half-size lanes plus the
    /// half-size sub-plan's own scratch.
    pub fn scratch_len(&self) -> usize {
        self.n + self.half.scratch_len()
    }

    /// Forward transform of `n` real samples into `n/2 + 1` bins.
    ///
    /// # Panics
    /// Panics on length mismatches or if this is an inverse plan.
    pub fn forward(&self, x: &[f64], spec: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(self.dir, Direction::Forward, "forward() on an inverse RealFftPlan");
        assert_eq!(x.len(), self.n, "input length mismatch");
        assert_eq!(spec.len(), self.spectrum_len(), "spectrum length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        let h = self.n / 2;
        let (packed, rest) = scratch.split_at_mut(h);
        let (z, fft_scratch) = rest.split_at_mut(h);
        pack_real(x, packed);
        self.half.execute(packed, z, fft_scratch);
        unpack_spectrum(z, &self.w, spec);
    }

    /// Inverse transform of `n/2 + 1` bins into `n` real samples
    /// (normalized: `inverse(forward(x)) = x`).
    ///
    /// # Panics
    /// Panics on length mismatches or if this is a forward plan.
    pub fn inverse(&self, spec: &[Complex64], x: &mut [f64], scratch: &mut [Complex64]) {
        assert_eq!(self.dir, Direction::Inverse, "inverse() on a forward RealFftPlan");
        assert_eq!(x.len(), self.n, "output length mismatch");
        assert_eq!(spec.len(), self.spectrum_len(), "spectrum length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        let h = self.n / 2;
        let (z, rest) = scratch.split_at_mut(h);
        let (packed, fft_scratch) = rest.split_at_mut(h);
        repack_spectrum(spec, &self.w, z);
        self.half.execute(z, packed, fft_scratch);
        unpack_real(packed, x);
    }
}

/// Forward FFT of a real signal, returning the `n/2 + 1` non-redundant
/// bins. Compatibility wrapper planning (and allocating) per call — hot
/// paths should hold a [`RealFftPlan`].
///
/// # Panics
/// Panics if `x.len()` is zero or odd.
pub fn rfft(x: &[f64]) -> Vec<Complex64> {
    let plan = RealFftPlan::new(x.len(), Direction::Forward);
    let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    plan.forward(x, &mut spec, &mut scratch);
    spec
}

/// Inverse of [`rfft`]: reconstructs the length-`n` real signal from its
/// `n/2 + 1` spectrum bins (normalized). Compatibility wrapper planning
/// per call.
pub fn irfft(spec: &[Complex64], n: usize) -> Vec<f64> {
    assert!(n > 0 && n.is_multiple_of(2));
    assert_eq!(spec.len(), n / 2 + 1, "irfft: spectrum must have n/2+1 bins");
    let plan = RealFftPlan::new(n, Direction::Inverse);
    let mut x = vec![0.0; n];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    plan.inverse(spec, &mut x, &mut scratch);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::dft_naive;

    #[test]
    fn rfft_matches_complex_dft() {
        let n = 32;
        let x: Vec<f64> = (0..n).map(|t| (t as f64 * 0.7).sin() + 0.3 * (t as f64)).collect();
        let xc: Vec<Complex64> = x.iter().map(|&r| c64(r, 0.0)).collect();
        let want = dft_naive(&xc, Direction::Forward);
        let got = rfft(&x);
        for j in 0..=n / 2 {
            assert!(got[j].approx_eq(want[j], 1e-9), "bin {j}: {:?} vs {:?}", got[j], want[j]);
        }
    }

    #[test]
    fn round_trip() {
        let n = 64;
        let x: Vec<f64> = (0..n).map(|t| ((t * t) % 17) as f64 / 17.0 - 0.5).collect();
        let spec = rfft(&x);
        let back = irfft(&spec, n);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn dc_and_nyquist_are_real() {
        let x: Vec<f64> = (0..16).map(|t| t as f64).collect();
        let spec = rfft(&x);
        assert!(spec[0].im.abs() < 1e-10);
        assert!(spec[8].im.abs() < 1e-10);
    }

    #[test]
    fn planned_round_trip_odd_sub_sizes() {
        // Half sizes hitting every sub-plan kind: 50 (mixed), 101
        // (Bluestein), 64 (pow2).
        for n in [100usize, 202, 128, 2, 6] {
            let x: Vec<f64> = (0..n).map(|t| ((t * 7 + 3) % 23) as f64 / 23.0 - 0.4).collect();
            let fwd = RealFftPlan::new(n, Direction::Forward);
            let inv = RealFftPlan::new(n, Direction::Inverse);
            let mut spec = vec![Complex64::ZERO; fwd.spectrum_len()];
            let mut s = vec![Complex64::ZERO; fwd.scratch_len().max(inv.scratch_len())];
            fwd.forward(&x, &mut spec, &mut s);
            let mut back = vec![0.0; n];
            inv.inverse(&spec, &mut back, &mut s);
            for (t, (a, b)) in back.iter().zip(&x).enumerate() {
                assert!((a - b).abs() < 1e-10, "n={n} t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn planned_forward_matches_wrapper_bitwise() {
        let n = 96;
        let x: Vec<f64> = (0..n).map(|t| (t as f64 * 0.31).cos()).collect();
        let plan = RealFftPlan::new(n, Direction::Forward);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        let mut s = vec![Complex64::ZERO; plan.scratch_len()];
        plan.forward(&x, &mut spec, &mut s);
        assert_eq!(spec, rfft(&x));
    }

    #[test]
    fn unpack_spectrum_matches_the_modular_index_formula_bitwise() {
        // The explicit j = 0 / j = h edges against the original per-bin
        // `z[(h - j) % h]` wrap.
        fn modular(z: &[Complex64], w: &[Complex64], spec: &mut [Complex64]) {
            let h = z.len();
            for (j, slot) in spec.iter_mut().enumerate() {
                let zj = if j == h { z[0] } else { z[j] };
                let zc = z[(h - j) % h].conj();
                let even = (zj + zc).scale(0.5);
                let odd = (zj - zc).scale(0.5) * c64(0.0, -1.0);
                *slot = even + odd * w[j];
            }
        }
        for n in (2..=1 << 12).step_by(2) {
            let h = n / 2;
            let z: Vec<Complex64> = (0..h)
                .map(|t| c64((t as f64 * 0.73).sin(), (t as f64 * 1.9).cos() - 0.2))
                .collect();
            let w = split_twiddles(n, Direction::Forward);
            let (mut got, mut want) = (vec![Complex64::ZERO; h + 1], vec![Complex64::ZERO; h + 1]);
            unpack_spectrum(&z, &w, &mut got);
            modular(&z, &w, &mut want);
            let bits = |v: &[Complex64]| {
                v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(bits(&got), bits(&want), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "even nonzero")]
    fn odd_length_rejected() {
        let _ = RealFftPlan::new(7, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "inverse RealFftPlan")]
    fn direction_mismatch_rejected() {
        let plan = RealFftPlan::new(8, Direction::Inverse);
        let mut spec = vec![Complex64::ZERO; 5];
        let mut s = vec![Complex64::ZERO; plan.scratch_len()];
        plan.forward(&[0.0; 8], &mut spec, &mut s);
    }
}
