//! Classic duplicated memory checksums `r₁ = (1,…,1)`, `r₂ = (1,2,…,n)`
//! (§3.2 of the paper): detect, *locate*, and repair a single corrupted
//! element of a stored vector.

use ftfft_numeric::Complex64;

/// A pair of memory checksums for one protected region.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemChecksum {
    /// `r₁·x = Σ x_j`.
    pub sum: Complex64,
    /// `r₂·x = Σ (j+1)·x_j` (1-based weights so index 0 is locatable).
    pub wsum: Complex64,
}

/// Outcome of a memory verification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MemVerdict {
    /// Checksums match within tolerance.
    Clean,
    /// A single corruption was located; `delta` is the observed-minus-true
    /// value at `index` (subtract it to repair).
    Located {
        /// Index of the corrupted element.
        index: usize,
        /// Corruption magnitude (observed − true).
        delta: Complex64,
    },
    /// Checksums disagree but the index decode failed (round-off on a tiny
    /// delta, or more than one corruption) — the Table 6 "Uncorrected" case.
    Unlocatable,
}

/// Generates the checksum pair for `x`.
pub fn mem_checksum(x: &[Complex64]) -> MemChecksum {
    let mut sum = Complex64::ZERO;
    let mut wsum = Complex64::ZERO;
    for (j, &v) in x.iter().enumerate() {
        sum += v;
        wsum += v.scale((j + 1) as f64);
    }
    MemChecksum { sum, wsum }
}

/// Strided variant: checksums of `x[offset + t·stride]`, `count` elements.
pub fn mem_checksum_strided(
    x: &[Complex64],
    offset: usize,
    stride: usize,
    count: usize,
) -> MemChecksum {
    let mut sum = Complex64::ZERO;
    let mut wsum = Complex64::ZERO;
    let mut idx = offset;
    for t in 0..count {
        let v = x[idx];
        sum += v;
        wsum += v.scale((t + 1) as f64);
        idx += stride;
    }
    MemChecksum { sum, wsum }
}

/// Verifies `x` against a stored checksum pair; locates a single fault.
///
/// `tol` is the absolute round-off allowance on the plain sum.
pub fn mem_verify(x: &[Complex64], stored: MemChecksum, tol: f64) -> MemVerdict {
    let observed = mem_checksum(x);
    decode(observed, stored, x.len(), tol)
}

/// Location decode shared by contiguous and strided verification.
pub fn decode(observed: MemChecksum, stored: MemChecksum, n: usize, tol: f64) -> MemVerdict {
    let d1 = observed.sum - stored.sum;
    let d2 = observed.wsum - stored.wsum;
    if d1.norm_scaled() <= tol {
        // The weighted sum carries weights up to n, so its round-off
        // allowance scales accordingly. A clean d1 with a large d2 means the
        // stored wsum word itself was corrupted (or two faults cancelled in
        // d1): detected but not locatable in the payload.
        if d2.norm_scaled() <= tol * n.max(1) as f64 {
            return MemVerdict::Clean;
        }
        return MemVerdict::Unlocatable;
    }
    // Scaled: an exponent strike makes d1 ~1e154 or more, whose square
    // would overflow.
    let ratio = d2.div_scaled(d1);
    let idx = ratio.re.round();
    // The imaginary part and the fractional residue must both be small for a
    // confident single-fault decode.
    let frac_err = (ratio.re - idx).abs().max(ratio.im.abs());
    if !(1.0..=n as f64).contains(&idx) || frac_err > 0.25 {
        return MemVerdict::Unlocatable;
    }
    MemVerdict::Located { index: idx as usize - 1, delta: d1 }
}

/// Repairs `x` according to a [`MemVerdict::Located`] finding.
pub fn mem_correct(x: &mut [Complex64], index: usize, delta: Complex64) {
    x[index] -= delta;
}

/// Convenience: verify and repair in one call. Returns the verdict.
pub fn verify_and_correct(x: &mut [Complex64], stored: MemChecksum, tol: f64) -> MemVerdict {
    let v = mem_verify(x, stored, tol);
    if let MemVerdict::Located { index, delta } = v {
        mem_correct(x, index, delta);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_numeric::complex::c64;
    use ftfft_numeric::uniform_signal;

    #[test]
    fn clean_vector_verifies() {
        let x = uniform_signal(128, 1);
        let ck = mem_checksum(&x);
        assert_eq!(mem_verify(&x, ck, 1e-9), MemVerdict::Clean);
    }

    #[test]
    fn locates_and_repairs_each_position() {
        let n = 64;
        let orig = uniform_signal(n, 2);
        let ck = mem_checksum(&orig);
        for idx in [0usize, 1, n / 2, n - 1] {
            let mut x = orig.clone();
            x[idx] += c64(3.5, -1.25);
            match mem_verify(&x, ck, 1e-9) {
                MemVerdict::Located { index, delta } => {
                    assert_eq!(index, idx);
                    assert!(delta.approx_eq(c64(3.5, -1.25), 1e-9));
                    mem_correct(&mut x, index, delta);
                    for (a, b) in x.iter().zip(&orig) {
                        assert!(a.approx_eq(*b, 1e-9));
                    }
                }
                v => panic!("expected Located at {idx}, got {v:?}"),
            }
        }
    }

    #[test]
    fn verify_and_correct_round_trip() {
        let n = 32;
        let orig = uniform_signal(n, 3);
        let ck = mem_checksum(&orig);
        let mut x = orig.clone();
        x[7] = c64(100.0, 100.0);
        let v = verify_and_correct(&mut x, ck, 1e-9);
        assert!(matches!(v, MemVerdict::Located { index: 7, .. }));
        for (a, b) in x.iter().zip(&orig) {
            assert!(a.approx_eq(*b, 1e-8));
        }
    }

    #[test]
    fn double_fault_is_unlocatable_or_mislocated_but_detected() {
        // The scheme guarantees detection of a single fault; two faults in
        // one region are outside the model — but must never verify Clean.
        let n = 40;
        let orig = uniform_signal(n, 4);
        let ck = mem_checksum(&orig);
        let mut x = orig.clone();
        x[3] += c64(1.0, 0.0);
        x[29] += c64(-2.0, 0.5);
        assert_ne!(mem_verify(&x, ck, 1e-9), MemVerdict::Clean);
    }

    #[test]
    fn strided_checksum_matches_gathered() {
        let stride = 3;
        let n = 20;
        let big = uniform_signal(n * stride, 5);
        let gathered: Vec<_> = (0..n).map(|t| big[1 + t * stride]).collect();
        let a = mem_checksum_strided(&big, 1, stride, n);
        let b = mem_checksum(&gathered);
        assert!(a.sum.approx_eq(b.sum, 1e-12));
        assert!(a.wsum.approx_eq(b.wsum, 1e-12));
    }

    #[test]
    fn tiny_delta_below_tolerance_reads_clean() {
        let x = uniform_signal(16, 6);
        let ck = mem_checksum(&x);
        let mut y = x.clone();
        y[5] += c64(1e-14, 0.0);
        assert_eq!(mem_verify(&y, ck, 1e-9), MemVerdict::Clean);
    }
}
