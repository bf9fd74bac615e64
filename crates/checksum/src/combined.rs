//! Combined computational+memory checksums (§4.1 of the paper).
//!
//! The modified weights reuse the computational input checksum vector:
//! `r′₁ = rA` and `(r′₂)_j = (j+1)·(rA)_j`. Because `(rA)·x` is computed
//! anyway for computational error detection, protecting memory with these
//! weights saves the separate `r₁·x` pass (10N ops instead of 14N). A
//! corruption `x_j → x_j + e` shifts the sums by `(rA)_j·e` and
//! `(j+1)(rA)_j·e`, so the ratio still decodes the index and
//! `e = d₁/(rA)_j` repairs the element.

use crate::memory::MemVerdict;
use ftfft_numeric::Complex64;

/// Combined checksum pair (`r′₁·x`, `r′₂·x`).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct CombinedChecksum {
    /// `r′₁·x = Σ (rA)_j x_j` — doubles as the computational CCG value.
    pub sum1: Complex64,
    /// `r′₂·x = Σ (j+1)(rA)_j x_j`.
    pub sum2: Complex64,
}

/// Generates the combined pair for `x` under weights `ra` (`ra.len() ≥ x.len()`).
/// Vectorized one-pass dual dot-product ([`ftfft_numeric::simd::dot_pair`]).
pub fn combined_checksum(x: &[Complex64], ra: &[Complex64]) -> CombinedChecksum {
    debug_assert!(ra.len() >= x.len());
    let (sum1, sum2) = ftfft_numeric::simd::dot_pair(x, ra);
    CombinedChecksum { sum1, sum2 }
}

/// Scalar PR-2-era reference for [`combined_checksum`] (kept for the perf
/// harness' fused-vs-scalar A/B and as a test oracle).
pub fn combined_checksum_ref(x: &[Complex64], ra: &[Complex64]) -> CombinedChecksum {
    debug_assert!(ra.len() >= x.len());
    let mut sum1 = Complex64::ZERO;
    let mut sum2 = Complex64::ZERO;
    for (j, (&v, &w)) in x.iter().zip(ra).enumerate() {
        let t = v * w;
        sum1 += t;
        sum2 += t.scale((j + 1) as f64);
    }
    CombinedChecksum { sum1, sum2 }
}

/// The `sum1` part only — the plain CCG (`(rA)·x`) when `sum2` is postponed
/// (§4.2: the `r′₂x` computation can be deferred until an error appears).
/// Vectorized ([`ftfft_numeric::simd::dot`]).
pub fn combined_sum1(x: &[Complex64], ra: &[Complex64]) -> Complex64 {
    debug_assert!(ra.len() >= x.len());
    ftfft_numeric::simd::dot(x, ra)
}

/// Scalar PR-2-era reference for [`combined_sum1`] (perf-harness baseline
/// and test oracle).
pub fn combined_sum1_ref(x: &[Complex64], ra: &[Complex64]) -> Complex64 {
    debug_assert!(ra.len() >= x.len());
    x.iter().zip(ra).fold(Complex64::ZERO, |acc, (&v, &w)| acc.mul_add(v, w))
}

/// Strided variant of [`combined_sum1`] for unbuffered sub-FFT inputs.
pub fn combined_sum1_strided(
    x: &[Complex64],
    offset: usize,
    stride: usize,
    ra: &[Complex64],
) -> Complex64 {
    let mut acc = Complex64::ZERO;
    let mut idx = offset;
    for &w in ra {
        acc = acc.mul_add(x[idx], w);
        idx += stride;
    }
    acc
}

/// Verifies `x` against a stored combined pair and locates/sizes a single
/// memory fault. `tol` bounds round-off on `sum1`.
pub fn combined_verify(
    x: &[Complex64],
    ra: &[Complex64],
    stored: CombinedChecksum,
    tol: f64,
) -> MemVerdict {
    let observed = combined_checksum(x, ra);
    combined_decode(observed, stored, ra, x.len(), tol)
}

/// Decode shared with incremental slot verification.
pub fn combined_decode(
    observed: CombinedChecksum,
    stored: CombinedChecksum,
    ra: &[Complex64],
    n: usize,
    tol: f64,
) -> MemVerdict {
    combined_decode_with(observed, stored, n, tol, |j| ra[j])
}

/// [`combined_decode`] with the weight of position `j` given by
/// `weight(j)` instead of a materialized `rA` — for output pairs, whose
/// ω₃-power weights are never stored.
pub fn combined_decode_with(
    observed: CombinedChecksum,
    stored: CombinedChecksum,
    n: usize,
    tol: f64,
    weight: impl Fn(usize) -> Complex64,
) -> MemVerdict {
    let d1 = observed.sum1 - stored.sum1;
    let d2 = observed.sum2 - stored.sum2;
    if d1.norm_scaled() <= tol {
        if d2.norm_scaled() <= tol * n.max(1) as f64 {
            return MemVerdict::Clean;
        }
        return MemVerdict::Unlocatable;
    }
    // Scaled: an exponent strike makes d1 ~1e154 or more, whose square
    // would overflow.
    let ratio = d2.div_scaled(d1);
    let idx = ratio.re.round();
    let frac_err = (ratio.re - idx).abs().max(ratio.im.abs());
    if !(1.0..=n as f64).contains(&idx) || frac_err > 0.25 {
        return MemVerdict::Unlocatable;
    }
    let j = idx as usize - 1;
    let w = weight(j);
    if w.norm_sqr() == 0.0 {
        // Degenerate rA slot (3 | n): the fault is visible but not sizable.
        return MemVerdict::Unlocatable;
    }
    MemVerdict::Located { index: j, delta: d1.div_scaled(w) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_vector::input_checksum_vector;
    use ftfft_fft::Direction;
    use ftfft_numeric::complex::c64;
    use ftfft_numeric::uniform_signal;

    fn setup(n: usize) -> (Vec<Complex64>, Vec<Complex64>, CombinedChecksum) {
        let x = uniform_signal(n, n as u64 + 100);
        let ra = input_checksum_vector(n, Direction::Forward);
        let ck = combined_checksum(&x, &ra);
        (x, ra, ck)
    }

    #[test]
    fn clean_verifies() {
        let (x, ra, ck) = setup(128);
        assert_eq!(combined_verify(&x, &ra, ck, 1e-8), MemVerdict::Clean);
    }

    #[test]
    fn sum1_matches_pair_generation() {
        let (x, ra, ck) = setup(64);
        assert!(combined_sum1(&x, &ra).approx_eq(ck.sum1, 1e-12));
    }

    #[test]
    fn locates_and_sizes_fault_at_every_eighth_position() {
        let n = 64;
        let (orig, ra, ck) = setup(n);
        for idx in (0..n).step_by(8) {
            let mut x = orig.clone();
            let e = c64(0.75, -2.0);
            x[idx] += e;
            match combined_verify(&x, &ra, ck, 1e-8) {
                MemVerdict::Located { index, delta } => {
                    assert_eq!(index, idx);
                    assert!(delta.approx_eq(e, 1e-6), "idx={idx} delta={delta:?}");
                }
                v => panic!("idx={idx}: {v:?}"),
            }
        }
    }

    #[test]
    fn strided_sum1_matches_gathered() {
        let n = 32;
        let stride = 4;
        let big = uniform_signal(n * stride, 9);
        let ra = input_checksum_vector(n, Direction::Forward);
        let gathered: Vec<_> = (0..n).map(|t| big[3 + t * stride]).collect();
        let a = combined_sum1_strided(&big, 3, stride, &ra);
        let b = combined_sum1(&gathered, &ra);
        assert!(a.approx_eq(b, 1e-10));
    }

    #[test]
    fn double_fault_never_reads_clean() {
        // n must not be a multiple of 3 (see degenerate test below).
        let (orig, ra, ck) = setup(49);
        let mut x = orig;
        x[1] += c64(1.0, 1.0);
        x[40] += c64(-0.5, 2.0);
        assert_ne!(combined_verify(&x, &ra, ck, 1e-8), MemVerdict::Clean);
    }

    #[test]
    fn degenerate_ra_for_multiple_of_three_is_blind_off_the_pivot() {
        // Documented limitation: when 3 | n, rA is zero everywhere except
        // index n/3, so the combined weights cannot see other positions.
        // The ABFT executors fall back to classic r₁/r₂ checksums there;
        // FFT sizes in the paper (powers of two) never hit this case.
        let n = 48;
        let (orig, ra, ck) = setup(n);
        let mut x = orig.clone();
        x[5] += c64(10.0, 0.0);
        assert_eq!(combined_verify(&x, &ra, ck, 1e-8), MemVerdict::Clean);
        // ...but the pivot position IS protected.
        let mut y = orig;
        y[n / 3] += c64(10.0, 0.0);
        assert!(matches!(
            combined_verify(&y, &ra, ck, 1e-8),
            MemVerdict::Located { index, .. } if index == n / 3
        ));
    }
}
