//! Batch-level two-sided checksums: protect `B` same-size transforms
//! with two checksum transforms (TurboFFT-style, see PAPERS.md).
//!
//! The DFT is linear, so for any weights `wᵢ` the identity
//! `FFT(Σᵢ wᵢ·xᵢ) = Σᵢ wᵢ·FFT(xᵢ)` holds exactly in real arithmetic.
//! Checksumming a *batch* amortizes the protection cost: two weighted
//! input combinations are transformed alongside the `B` members, and the
//! per-element residuals `d = FFT(c) − Σ wᵢ·Xᵢ` flag any computational
//! error in any member — O(n) detection work per member instead of a
//! per-transform checksum pipeline.
//!
//! Two *sides* (weight vectors) make detection localizing, exactly like
//! the §4.1 combined memory checksums inside one transform:
//!
//! * side 1: `w¹ᵢ = 1` — flags that *some* member (or the side-1
//!   checksum transform itself) is faulty;
//! * side 2: `w²ᵢ = i+1` — the residual ratio `d₂[p]/d₁[p] ≈ j+1`
//!   names the faulty member `j`.
//!
//! Faults striking the checksum transforms themselves are separable: a
//! side-1 fault leaves `d₂ ≈ 0`, a side-2 fault leaves `d₁ ≈ 0`, while a
//! member fault perturbs both sides with an integer ratio in `[1, B]`.
//! Two faults in *different* members at different frequency bins resolve
//! independently per bin; colliding same-bin faults (or a non-integer
//! ratio) come back [`BatchVerdict::Ambiguous`] and the caller recomputes
//! every member under a self-verifying per-transform scheme. This is the
//! two-vector special case of Roche's multi-vector extension — `k`
//! independent weight vectors would correct `k` colliding faults.
//!
//! The combine/accumulate kernels ride [`ftfft_numeric::simd::axpy2`]
//! (AVX+FMA with a bitwise-identical scalar fallback), one dual-AXPY
//! sweep per member per side pair.

use ftfft_numeric::simd::axpy2;
use ftfft_numeric::Complex64;

/// The two batch weights of member `i`: `(w¹ᵢ, w²ᵢ) = (1, i+1)`.
///
/// Real, small integers: exactly representable, cheap to apply, and the
/// side-2/side-1 residual ratio of a single member fault is exactly
/// `i+1` in real arithmetic.
#[inline]
pub fn batch_weight(i: usize) -> (Complex64, Complex64) {
    (Complex64::new(1.0, 0.0), Complex64::new((i + 1) as f64, 0.0))
}

/// Squared 2-norms of the two weight vectors over a `b`-member batch:
/// `(Σᵢ w¹ᵢ², Σᵢ w²ᵢ²) = (b, b(b+1)(2b+1)/6)` — the variance scale of
/// the combined signals, which the round-off threshold model needs.
#[inline]
pub fn batch_weight_norms_sq(b: usize) -> (f64, f64) {
    let bf = b as f64;
    (bf, bf * (bf + 1.0) * (2.0 * bf + 1.0) / 6.0)
}

/// Accumulates one member into both weighted combinations:
/// `acc1 += w¹ᵢ·x`, `acc2 += w²ᵢ·x`. Used identically on the input side
/// (building the checksum signals `c₁, c₂`) and on the output side
/// (building the reference sums `Σ wᵢ·Xᵢ`).
#[inline]
pub fn batch_accumulate(acc1: &mut [Complex64], acc2: &mut [Complex64], x: &[Complex64], i: usize) {
    let (w1, w2) = batch_weight(i);
    axpy2(acc1, acc2, x, w1, w2);
}

/// Accumulates one member into the side-1 sum alone: `acc1 += x`. The
/// side-1 weights are all 1, so the detection side costs one add-only
/// sweep per member — this is the whole per-member clean-path cost of a
/// lazily-localized batch check.
#[inline]
pub fn batch_accumulate_side1(acc1: &mut [Complex64], x: &[Complex64]) {
    debug_assert_eq!(acc1.len(), x.len());
    for (a, v) in acc1.iter_mut().zip(x.iter()) {
        *a += *v;
    }
}

/// Accumulates member `i` into the side-2 sum alone: `acc2 += (i+1)·x`.
/// The weight is a small real scalar, so this is two FMAs per element.
#[inline]
pub fn batch_accumulate_side2(acc2: &mut [Complex64], x: &[Complex64], i: usize) {
    debug_assert_eq!(acc2.len(), x.len());
    let w = (i + 1) as f64;
    for (a, v) in acc2.iter_mut().zip(x.iter()) {
        a.re += w * v.re;
        a.im += w * v.im;
    }
}

/// Builds the side-1 combination alone: `acc1 = Σᵢ members[i]`.
pub fn batch_combine_side1(acc1: &mut [Complex64], members: &[&[Complex64]]) {
    acc1.fill(Complex64::ZERO);
    for x in members {
        batch_accumulate_side1(acc1, x);
    }
}

/// Builds the side-2 combination alone: `acc2 = Σᵢ (i+1)·members[i]`.
pub fn batch_combine_side2(acc2: &mut [Complex64], members: &[&[Complex64]]) {
    acc2.fill(Complex64::ZERO);
    for (i, x) in members.iter().enumerate() {
        batch_accumulate_side2(acc2, x, i);
    }
}

/// Builds both weighted combinations of `members` from scratch:
/// `accs = Σᵢ wᵢ·members[i]` for both sides.
pub fn batch_combine(acc1: &mut [Complex64], acc2: &mut [Complex64], members: &[&[Complex64]]) {
    acc1.fill(Complex64::ZERO);
    acc2.fill(Complex64::ZERO);
    for (i, x) in members.iter().enumerate() {
        batch_accumulate(acc1, acc2, x, i);
    }
}

/// Largest residual magnitude `max_p |c[p] − acc[p]|` and its bin — the
/// detection scan of one side.
///
/// Fails closed on NaN: a NaN residual (a NaN member output or checksum
/// bin) is returned as the maximum, at the first NaN bin, so the caller's
/// `max <= eta` test reads it as a detection rather than a clean batch.
pub fn batch_residual_max(c: &[Complex64], acc: &[Complex64]) -> (f64, usize) {
    debug_assert_eq!(c.len(), acc.len());
    let mut max = 0.0f64;
    let mut at = 0usize;
    for (p, (a, b)) in c.iter().zip(acc.iter()).enumerate() {
        let d = (*a - *b).norm();
        // A NaN takes the max; once the max holds NaN nothing replaces
        // it (`d > NaN` is false). A clean bin costs two compares.
        if d > max || (d.is_nan() && !max.is_nan()) {
            max = d;
            at = p;
        }
    }
    (max, at)
}

/// What the two-sided residuals say about a flagged batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchVerdict {
    /// Every bin is within threshold on both sides.
    Clean,
    /// The implicated member indices (sorted, deduplicated). The members'
    /// outputs are suspect; the checksum transforms are consistent with
    /// exactly these members being wrong.
    Members(Vec<usize>),
    /// Only one checksum transform disagrees — the fault is in that
    /// side's combine/transform, not in any member. `side` is 1 or 2.
    ChecksumSide(u8),
    /// The residuals fit no single-member-per-bin explanation (colliding
    /// same-bin faults, non-integer ratio, out-of-range member index).
    /// The caller must treat every member as suspect.
    Ambiguous,
}

/// Two-sided localization over per-bin residuals `d₁ = c₁ − a₁`,
/// `d₂ = c₂ − a₂` with per-side thresholds `(eta1, eta2)` for a
/// `b`-member batch.
///
/// Per flagged bin: `|d₁| ≤ η₁` with `|d₂| > η₂` implicates side 2's
/// checksum path; `|d₂| ≤ η₂` with `|d₁| > η₁` implicates side 1's; both
/// above threshold implicates member `round(Re(d₂/d₁)) − 1` when that
/// ratio is integer-consistent (the residual `|d₂ − r·d₁|` must be small
/// relative to `|d₂|`) and in range. Bins that fit no explanation — or a
/// mix of member and checksum-side explanations — yield
/// [`BatchVerdict::Ambiguous`].
pub fn batch_localize(
    c1: &[Complex64],
    a1: &[Complex64],
    c2: &[Complex64],
    a2: &[Complex64],
    eta1: f64,
    eta2: f64,
    b: usize,
) -> BatchVerdict {
    debug_assert!(c1.len() == a1.len() && c2.len() == a2.len() && c1.len() == c2.len());
    let mut members: Vec<usize> = Vec::new();
    let mut side1 = false;
    let mut side2 = false;
    for p in 0..c1.len() {
        let d1 = c1[p] - a1[p];
        let d2 = c2[p] - a2[p];
        let (m1, m2) = (d1.norm(), d2.norm());
        if m1 <= eta1 && m2 <= eta2 {
            continue;
        }
        if m1 <= eta1 {
            side2 = true;
            continue;
        }
        if m2 <= eta2 {
            side1 = true;
            continue;
        }
        // Both sides moved: a member fault with ratio d₂/d₁ = j+1.
        let ratio = d2 / d1;
        let r = ratio.re.round();
        let consistent = (d2 - d1 * r).norm() <= (eta2 + r.abs() * eta1).max(m2 * 1e-6);
        if !consistent || ratio.im.abs() > 0.5 || r < 1.0 || r > b as f64 {
            return BatchVerdict::Ambiguous;
        }
        let j = r as usize - 1;
        if !members.contains(&j) {
            members.push(j);
        }
    }
    match (members.is_empty(), side1, side2) {
        (true, false, false) => BatchVerdict::Clean,
        (true, true, false) => BatchVerdict::ChecksumSide(1),
        (true, false, true) => BatchVerdict::ChecksumSide(2),
        // Checksum faults on both sides at once, or a member fault mixed
        // with a checksum-side fault: recompute everything.
        (true, true, true) => BatchVerdict::Ambiguous,
        (false, false, false) => {
            members.sort_unstable();
            BatchVerdict::Members(members)
        }
        (false, ..) => BatchVerdict::Ambiguous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_numeric::complex::c64;
    use ftfft_numeric::uniform_signal;

    const ETA: f64 = 1e-9;

    /// Builds (c, acc) pairs for a clean b-member "spectrum" set, then
    /// lets the caller perturb them.
    fn clean_sides(
        n: usize,
        b: usize,
    ) -> (Vec<Complex64>, Vec<Complex64>, Vec<Complex64>, Vec<Complex64>) {
        let members: Vec<Vec<Complex64>> =
            (0..b).map(|i| uniform_signal(n, 7 + i as u64)).collect();
        let refs: Vec<&[Complex64]> = members.iter().map(|m| m.as_slice()).collect();
        let mut a1 = vec![Complex64::ZERO; n];
        let mut a2 = vec![Complex64::ZERO; n];
        batch_combine(&mut a1, &mut a2, &refs);
        (a1.clone(), a1, a2.clone(), a2)
    }

    #[test]
    fn weights_and_norms() {
        assert_eq!(batch_weight(0), (c64(1.0, 0.0), c64(1.0, 0.0)));
        assert_eq!(batch_weight(3), (c64(1.0, 0.0), c64(4.0, 0.0)));
        let (w1, w2) = batch_weight_norms_sq(4);
        assert_eq!(w1, 4.0);
        assert_eq!(w2, 1.0 + 4.0 + 9.0 + 16.0);
    }

    #[test]
    fn combine_matches_scalar_reference() {
        let n = 33;
        let members: Vec<Vec<Complex64>> =
            (0..5).map(|i| uniform_signal(n, 100 + i as u64)).collect();
        let refs: Vec<&[Complex64]> = members.iter().map(|m| m.as_slice()).collect();
        let mut c1 = vec![Complex64::ZERO; n];
        let mut c2 = vec![Complex64::ZERO; n];
        batch_combine(&mut c1, &mut c2, &refs);
        for p in 0..n {
            let mut s1 = Complex64::ZERO;
            let mut s2 = Complex64::ZERO;
            for (i, m) in members.iter().enumerate() {
                let (w1, w2) = batch_weight(i);
                s1 += m[p] * w1;
                s2 += m[p] * w2;
            }
            assert!((c1[p] - s1).norm() < 1e-12);
            assert!((c2[p] - s2).norm() < 1e-12);
        }
    }

    #[test]
    fn side_split_combines_match_the_scalar_reference() {
        let n = 47;
        let members: Vec<Vec<Complex64>> =
            (0..6).map(|i| uniform_signal(n, 300 + i as u64)).collect();
        let refs: Vec<&[Complex64]> = members.iter().map(|m| m.as_slice()).collect();
        let mut s1 = vec![Complex64::ZERO; n];
        let mut s2 = vec![Complex64::ZERO; n];
        batch_combine_side1(&mut s1, &refs);
        batch_combine_side2(&mut s2, &refs);
        for p in 0..n {
            let mut r1 = Complex64::ZERO;
            let mut r2 = Complex64::ZERO;
            for (i, m) in members.iter().enumerate() {
                r1 += m[p];
                r2 += m[p] * (i + 1) as f64;
            }
            assert!((s1[p] - r1).norm() < 1e-12);
            assert!((s2[p] - r2).norm() < 1e-12);
        }
    }

    #[test]
    fn residual_max_finds_the_bin() {
        let n = 64;
        let a = uniform_signal(n, 1);
        let mut b = a.clone();
        b[17] += c64(0.5, 0.0);
        let (max, at) = batch_residual_max(&a, &b);
        assert_eq!(at, 17);
        assert!((max - 0.5).abs() < 1e-12);
    }

    #[test]
    fn residual_max_fails_closed_on_nan() {
        let n = 64;
        let a = uniform_signal(n, 2);
        let mut b = a.clone();
        b[9] = c64(f64::NAN, 0.0);
        b[30] += c64(1e3, 0.0); // a larger finite residual after the NaN
        b[41] = c64(0.0, f64::NAN);
        let (max, at) = batch_residual_max(&a, &b);
        assert!(max.is_nan());
        assert_eq!(at, 9, "first NaN bin");
        let clean = max <= ETA;
        assert!(!clean, "a NaN residual must not read as clean");
        // A finite maximum before any NaN is still overridden.
        let mut b = a.clone();
        b[3] += c64(1e3, 0.0);
        b[50] = c64(f64::NAN, f64::NAN);
        assert_eq!(batch_residual_max(&a, &b).1, 50);
        assert!(batch_residual_max(&a, &b).0.is_nan());
    }

    #[test]
    fn localize_clean() {
        let (c1, a1, c2, a2) = clean_sides(64, 4);
        assert_eq!(batch_localize(&c1, &a1, &c2, &a2, ETA, ETA, 4), BatchVerdict::Clean);
    }

    #[test]
    fn localize_single_member() {
        for j in [0usize, 1, 3] {
            let (c1, mut a1, c2, mut a2) = clean_sides(64, 4);
            // A fault of ε in member j's output at bin p shifts the
            // *accumulated* sums by wᵢ·ε each.
            let eps = c64(1e-3, 2e-3);
            a1[20] += eps;
            a2[20] += eps * (j + 1) as f64;
            assert_eq!(
                batch_localize(&c1, &a1, &c2, &a2, ETA, ETA, 4),
                BatchVerdict::Members(vec![j]),
                "member {j}"
            );
        }
    }

    #[test]
    fn localize_two_members_distinct_bins() {
        let (c1, mut a1, c2, mut a2) = clean_sides(64, 8);
        for (j, p) in [(2usize, 10usize), (5, 40)] {
            let eps = c64(5e-4, -1e-3);
            a1[p] += eps;
            a2[p] += eps * (j + 1) as f64;
        }
        assert_eq!(
            batch_localize(&c1, &a1, &c2, &a2, ETA, ETA, 8),
            BatchVerdict::Members(vec![2, 5])
        );
    }

    #[test]
    fn localize_checksum_sides() {
        let (mut c1, a1, c2, a2) = clean_sides(64, 4);
        c1[5] += c64(1e-3, 0.0);
        assert_eq!(batch_localize(&c1, &a1, &c2, &a2, ETA, ETA, 4), BatchVerdict::ChecksumSide(1));
        let (c1, a1, mut c2, a2) = clean_sides(64, 4);
        c2[5] += c64(1e-3, 0.0);
        assert_eq!(batch_localize(&c1, &a1, &c2, &a2, ETA, ETA, 4), BatchVerdict::ChecksumSide(2));
    }

    #[test]
    fn localize_colliding_faults_is_ambiguous() {
        let (c1, mut a1, c2, mut a2) = clean_sides(64, 4);
        // Members 1 and 3 hit at the *same* bin: the two-equation system
        // is underdetermined and the ratio is non-integer in general.
        for j in [1usize, 3] {
            let eps = if j == 1 { c64(1e-3, 0.0) } else { c64(7e-4, 3e-4) };
            a1[9] += eps;
            a2[9] += eps * (j + 1) as f64;
        }
        assert_eq!(batch_localize(&c1, &a1, &c2, &a2, ETA, ETA, 4), BatchVerdict::Ambiguous);
    }

    #[test]
    fn localize_out_of_range_ratio_is_ambiguous() {
        let (c1, mut a1, c2, mut a2) = clean_sides(64, 2);
        let eps = c64(1e-3, 0.0);
        a1[3] += eps;
        a2[3] += eps * 9.0; // "member 8" of a 2-member batch
        assert_eq!(batch_localize(&c1, &a1, &c2, &a2, ETA, ETA, 2), BatchVerdict::Ambiguous);
    }
}
