//! The input checksum vector `rA` in closed form.
//!
//! With `A_{j,t} = ω_n^{jt}` and `r_j = ω₃^j`, the column sums telescope to
//! a geometric series (§7.1.1 of the paper):
//!
//! ```text
//! (rA)_t = Σ_j (ω₃ ω_n^t)^j = (1 − ω₃^n) / (1 − ω₃ ω_n^t)
//! ```
//!
//! with the degenerate case `ω₃ ω_n^t = 1` (possible only when `3 | n`)
//! giving `(rA)_t = n`. The *naive* generator evaluates `ω_n^t` by
//! `sin`/`cos` per element; the *optimized* generator advances `ω_n^t`
//! incrementally by one complex multiplication (27N ops in the paper's
//! accounting), re-anchoring periodically so the drift stays below the
//! detection thresholds. Drift matters most beside the pole
//! (`ω₃ ω_n^t ≈ 1`, at `t ≈ n/3` forward and `2n/3` inverse), where the
//! denominator `1 − ω₃ ω_n^t` is small and its relative error is amplified
//! up to ~`n/2`-fold, so the two entries next to the pole are re-anchored
//! too: periodic anchors alone let a 64-point vector meet its inverse pole
//! 43 steps past an anchor, which runs clean 2¹² checks at up to 0.92 of η;
//! with the pole anchors every clean check at 2⁴–2¹⁶ stays below 0.35 of η
//! (EXPERIMENTS.md).

use ftfft_fft::Direction;
use ftfft_numeric::{cis, omega3, omega3_pow, Complex64};

/// `ω₃^n` evaluated exactly from `n mod 3`.
fn omega3_to_n(n: usize) -> Complex64 {
    omega3_pow(n)
}

/// Index `t` (if any) where `ω₃·ω_n^t = 1`, i.e. the degenerate series.
/// Forward: `t = n/3`; inverse: `t = 2n/3`; only when `3 | n`.
fn degenerate_index(n: usize, dir: Direction) -> Option<usize> {
    if !n.is_multiple_of(3) {
        return None;
    }
    Some(match dir {
        Direction::Forward => n / 3,
        Direction::Inverse => 2 * n / 3,
    })
}

/// Optimized closed-form generator (incremental `ω_n^t`, re-anchored every
/// 64 steps and beside the pole). This is the paper's 27N-operation path.
pub fn input_checksum_vector(n: usize, dir: Direction) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; n];
    input_checksum_vector_into(n, dir, &mut out);
    out
}

/// Allocation-free form of [`input_checksum_vector`]: fills `out[..n]`.
/// The hot-path executors call this against plan-workspace buffers so
/// repeated executions allocate nothing.
///
/// # Panics
/// Panics if `n == 0` or `out.len() < n`.
pub fn input_checksum_vector_into(n: usize, dir: Direction, out: &mut [Complex64]) {
    assert!(n > 0);
    assert!(out.len() >= n, "rA buffer too small: {} < {n}", out.len());
    let numer = Complex64::ONE - omega3_to_n(n);
    let degen = degenerate_index(n, dir);
    let w3 = omega3();
    let step_angle = dir.sign() * 2.0 * std::f64::consts::PI / n as f64;
    let step = cis(step_angle);

    const RESYNC: usize = 64;
    // The two entries beside where `ω₃ ω_n^t = 1` would fall for a real
    // `t` (n/3 forward, 2n/3 inverse).
    let pole = match dir {
        Direction::Forward => n,
        Direction::Inverse => 2 * n,
    };
    let beside_pole = |t: usize| (3 * t).abs_diff(pole) < 3;
    for (chunk_i, chunk) in out[..n].chunks_mut(RESYNC).enumerate() {
        // Re-anchor the phase to keep incremental drift bounded.
        let t0 = chunk_i * RESYNC;
        let mut wt = w3 * cis(step_angle * t0 as f64);
        for (b, slot) in chunk.iter_mut().enumerate() {
            let t = t0 + b;
            if beside_pole(t) {
                wt = w3 * cis(step_angle * t as f64);
            }
            *slot = if Some(t) == degen {
                Complex64::new(n as f64, 0.0)
            } else {
                numer / (Complex64::ONE - wt)
            };
            wt *= step;
        }
    }
}

/// Naive generator: one `sin`/`cos` pair per element. Kept as the baseline
/// the paper's "Offline" (un-optimized) scheme pays for — Fig 7's first bar.
pub fn input_checksum_vector_naive(n: usize, dir: Direction) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; n];
    input_checksum_vector_naive_into(n, dir, &mut out);
    out
}

/// Allocation-free form of [`input_checksum_vector_naive`]: fills `out[..n]`.
///
/// # Panics
/// Panics if `n == 0` or `out.len() < n`.
pub fn input_checksum_vector_naive_into(n: usize, dir: Direction, out: &mut [Complex64]) {
    assert!(n > 0);
    assert!(out.len() >= n, "rA buffer too small: {} < {n}", out.len());
    let numer = Complex64::ONE - omega3_to_n(n);
    let degen = degenerate_index(n, dir);
    let w3 = omega3();
    for (t, slot) in out[..n].iter_mut().enumerate() {
        *slot = if Some(t) == degen {
            Complex64::new(n as f64, 0.0)
        } else {
            let wnt = cis(dir.sign() * 2.0 * std::f64::consts::PI * t as f64 / n as f64);
            numer / (Complex64::ONE - w3 * wnt)
        };
    }
}

/// Reference generator summing the definition column by column — `O(n²)`,
/// test oracle only.
pub fn input_checksum_vector_direct(n: usize, dir: Direction) -> Vec<Complex64> {
    (0..n)
        .map(|t| {
            let mut acc = Complex64::ZERO;
            for j in 0..n {
                let wnjt =
                    cis(dir.sign() * 2.0 * std::f64::consts::PI * ((j * t) % n) as f64 / n as f64);
                acc += omega3_pow(j) * wnjt;
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_numeric::Complex64;

    fn close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.approx_eq(*y, tol), "elem {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn closed_form_matches_direct_sum() {
        for n in [1usize, 2, 4, 8, 16, 64, 100, 128] {
            let got = input_checksum_vector(n, Direction::Forward);
            let want = input_checksum_vector_direct(n, Direction::Forward);
            close(&got, &want, 1e-8 * n as f64);
        }
    }

    #[test]
    fn naive_matches_optimized() {
        for n in [5usize, 32, 100, 4096] {
            let a = input_checksum_vector(n, Direction::Forward);
            let b = input_checksum_vector_naive(n, Direction::Forward);
            close(&a, &b, 1e-9 * n as f64);
        }
    }

    #[test]
    fn degenerate_multiple_of_three_forward() {
        for n in [3usize, 6, 12, 48, 96] {
            let got = input_checksum_vector(n, Direction::Forward);
            let want = input_checksum_vector_direct(n, Direction::Forward);
            close(&got, &want, 1e-8 * n as f64);
            // Only the degenerate slot survives, with value n.
            assert!(got[n / 3].approx_eq(Complex64::new(n as f64, 0.0), 1e-8));
            for (t, v) in got.iter().enumerate() {
                if t != n / 3 {
                    assert!(v.norm() < 1e-8, "n={n} t={t}");
                }
            }
        }
    }

    #[test]
    fn degenerate_multiple_of_three_inverse() {
        let n = 12;
        let got = input_checksum_vector(n, Direction::Inverse);
        let want = input_checksum_vector_direct(n, Direction::Inverse);
        close(&got, &want, 1e-8 * n as f64);
        assert!(got[2 * n / 3].approx_eq(Complex64::new(n as f64, 0.0), 1e-8));
    }

    #[test]
    fn inverse_direction_matches_direct() {
        for n in [8usize, 20, 128] {
            let got = input_checksum_vector(n, Direction::Inverse);
            let want = input_checksum_vector_direct(n, Direction::Inverse);
            close(&got, &want, 1e-8 * n as f64);
        }
    }

    #[test]
    fn large_size_stays_accurate_at_tail() {
        let n = 1 << 14;
        let v = input_checksum_vector(n, Direction::Forward);
        let naive = input_checksum_vector_naive(n, Direction::Forward);
        for idx in [n - 1, n - 2, n / 2 + 1] {
            assert!(v[idx].approx_eq(naive[idx], 1e-9), "idx={idx}");
        }
    }
}
