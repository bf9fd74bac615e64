//! Computational checksum weights `r = (ω₃⁰, ω₃¹, …, ω₃^{N-1})`.
//!
//! Wang & Jha proved this encoding suits ABFT FFT (§2.2 of the paper): the
//! weights cycle with period 3, so the weighted sum `r·X` needs only two
//! complex multiplications after grouping terms by `j mod 3` — the paper's
//! `T_CCV ≈ 2N` optimization.

use ftfft_numeric::{omega3_pow, Complex64};

/// The checksum weight `r_j = ω₃^j`.
#[inline(always)]
pub fn comp_weight(j: usize) -> Complex64 {
    omega3_pow(j)
}

/// Weighted sum `r·x = Σ_j ω₃^j x_j` via the 3-group trick: terms are
/// bucketed by `j mod 3` and only the two non-trivial group sums are
/// multiplied by a weight. Vectorized through [`ftfft_numeric::simd`]
/// (identical results at every dispatch level).
pub fn weighted_sum(x: &[Complex64]) -> Complex64 {
    ftfft_numeric::simd::weighted_sum3(x, omega3_pow(1), omega3_pow(2))
}

/// Weighted sum over a strided view `x[offset + t·stride]`, `count`
/// elements — used when verifying sub-FFT inputs without gathering.
pub fn weighted_sum_strided(
    x: &[Complex64],
    offset: usize,
    stride: usize,
    count: usize,
) -> Complex64 {
    let mut s = [Complex64::ZERO; 3];
    let mut idx = offset;
    for t in 0..count {
        s[t % 3] += x[idx];
        idx += stride;
    }
    s[0] + omega3_pow(1) * s[1] + omega3_pow(2) * s[2]
}

/// Residue-class sums of a sub-FFT output column `x`:
/// `s[r] = Σ_{j≡r (mod 3)} x_j` and `t[r] = Σ_{j≡r (mod 3)} j·x_j`.
///
/// One pass yields both the column's CCV sum `r·x = Σ_r ω₃^r s[r]` and,
/// for a column that lands at positions `j·m + c` of a larger output, its
/// share of that output's ω₃-weighted pair (see [`ResidueSums::rotated`]):
/// `ω₃^{j·m+c} = ω₃^c·ω₃^{(m·r) mod 3}` depends on `j` only through `r`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResidueSums {
    /// `Σ_{j≡r} x_j` for `r = 0, 1, 2`.
    pub s: [Complex64; 3],
    /// `Σ_{j≡r} j·x_j` for `r = 0, 1, 2`.
    pub t: [Complex64; 3],
}

impl ResidueSums {
    /// Both sum triples of `x` in one pass.
    pub fn of(x: &[Complex64]) -> ResidueSums {
        let mut s = [Complex64::ZERO; 3];
        let mut t = [Complex64::ZERO; 3];
        let mut j = 0.0f64;
        let chunks = x.chunks_exact(3);
        let rem = chunks.remainder();
        for c in chunks {
            for r in 0..3 {
                s[r] += c[r];
                t[r] += c[r].scale(j + r as f64);
            }
            j += 3.0;
        }
        for (r, &v) in rem.iter().enumerate() {
            s[r] += v;
            t[r] += v.scale(j + r as f64);
        }
        ResidueSums { s, t }
    }

    /// The CCV sum `Σ_j ω₃^j x_j`.
    pub fn weighted(&self) -> Complex64 {
        rotate(&self.s, 1)
    }

    /// `(Σ_r ω₃^{(m·r) mod 3} s[r], Σ_r ω₃^{(m·r) mod 3} t[r])`: the
    /// weighted sums `Σ_j ω₃^{j·m} x_j` and `Σ_j ω₃^{j·m} j·x_j`.
    pub fn rotated(&self, m: usize) -> (Complex64, Complex64) {
        (rotate(&self.s, m), rotate(&self.t, m))
    }
}

/// `v[0] + ω₃^{m}·v[1] + ω₃^{2m}·v[2]`.
#[inline]
fn rotate(v: &[Complex64; 3], m: usize) -> Complex64 {
    v[0] + omega3_pow(m) * v[1] + omega3_pow(2 * (m % 3)) * v[2]
}

/// Reference (slow) weighted sum used in tests and the naive offline path.
pub fn weighted_sum_direct(x: &[Complex64]) -> Complex64 {
    x.iter().enumerate().fold(Complex64::ZERO, |acc, (j, &v)| acc + comp_weight(j) * v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_numeric::uniform_signal;

    #[test]
    fn grouped_matches_direct() {
        for n in [1usize, 2, 3, 4, 5, 31, 96, 1000] {
            let x = uniform_signal(n, n as u64);
            let a = weighted_sum(&x);
            let b = weighted_sum_direct(&x);
            assert!(a.approx_eq(b, 1e-10 * n as f64), "n={n}");
        }
    }

    #[test]
    fn residue_sums_give_the_weighted_pairs() {
        for (n, m) in [(0usize, 1usize), (1, 2), (5, 3), (31, 4), (64, 5), (97, 32)] {
            let x = uniform_signal(n, 40 + n as u64);
            let sums = ResidueSums::of(&x);
            assert!(sums.weighted().approx_eq(weighted_sum_direct(&x), 1e-12 * (n + 1) as f64));
            let (p, q) = sums.rotated(m);
            let want_p =
                x.iter().enumerate().fold(Complex64::ZERO, |a, (j, &v)| a + comp_weight(j * m) * v);
            let want_q = x
                .iter()
                .enumerate()
                .fold(Complex64::ZERO, |a, (j, &v)| a + (comp_weight(j * m) * v).scale(j as f64));
            assert!(p.approx_eq(want_p, 1e-12 * (n + 1) as f64), "n={n} m={m}");
            assert!(q.approx_eq(want_q, 1e-12 * ((n + 1) * (n + 1)) as f64), "n={n} m={m}");
        }
    }

    #[test]
    fn strided_matches_gathered() {
        let n = 60;
        let stride = 5;
        let x = uniform_signal(n * stride, 3);
        let gathered: Vec<_> = (0..n).map(|t| x[2 + t * stride]).collect();
        let a = weighted_sum_strided(&x, 2, stride, n);
        let b = weighted_sum(&gathered);
        assert!(a.approx_eq(b, 1e-12));
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(weighted_sum(&[]), Complex64::ZERO);
    }

    #[test]
    fn weights_cycle() {
        assert_eq!(comp_weight(0), comp_weight(3));
        assert_eq!(comp_weight(2), comp_weight(5));
    }
}
