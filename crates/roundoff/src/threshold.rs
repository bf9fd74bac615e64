//! Detection-threshold (η) selection for the ABFT schemes.
//!
//! η trades throughput (fault-free runs flagged faulty → useless retries)
//! against coverage (real faults below η slip through). §8 sets
//! `η = 3·√size·σ_roe` per protected part, which the normal model puts at
//! ≈99.7% throughput. The *offline* scheme has one part of size N, so its η
//! is far larger than the online scheme's per-sub-FFT thresholds — the root
//! of the paper's Table 5 detectability gap.
//!
//! Every model function is linear in the input scale σ₀, so plans build
//! their thresholds once at σ₀ = 1 and each execution multiplies them by
//! the σ̂ it measured from its own input ([`input_sigma`]): the paper's
//! model evaluated at the true input scale, whatever that scale is.

use crate::model::{
    checksum_roundoff_std, checksum_roundoff_std_second, memory_sum_roundoff_std, F64_MANTISSA_BITS,
};

/// Calibration headroom on the §8 `3·√size·σ_roe` compute-check bound.
/// The Gentleman–Sande σ_ε is an *average-case* constant and the rA
/// weights near the geometric-series pole amplify individual terms, so
/// the raw 3σ bound sits within ~2× of real residuals. A fixed headroom
/// keeps throughput at ~100% (Table 4) while the detectability gap of
/// Table 5 (orders of magnitude) is unaffected.
pub const HEADROOM: f64 = 4.0;

/// Multiple of the memory-sum round-off std used as the memory-checksum
/// tolerance (6σ): the sums are cheap exact sums, so the model
/// underestimates relative to fused-multiply hardware; the headroom avoids
/// false positives without hurting coverage (deltas of interest are ≫
/// these scales).
pub const MEMORY_HEADROOM: f64 = 6.0;

/// The input-scale estimate `σ̂ = √(‖x‖²/2n)` for `n` complex values of
/// energy `‖x‖²` — the per-component standard deviation of a zero-mean
/// input, and the σ₀ every threshold is evaluated at. Non-finite when the
/// input holds a NaN/±Inf or its energy overflows; the executors then fail
/// closed, since no threshold can be set.
pub fn input_sigma(energy: f64, n: usize) -> f64 {
    (energy / (2 * n.max(1)) as f64).sqrt()
}

/// Thresholds for a two-layer online scheme (and the offline whole-FFT one).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// η for each first-part m-point FFT.
    pub eta1: f64,
    /// η for each second-part k-point FFT.
    pub eta2: f64,
    /// η for the offline whole-transform check (size N).
    pub eta_offline: f64,
    /// Tolerance for memory-checksum comparisons on the input scale.
    pub eta_mem_in: f64,
    /// Tolerance for memory-checksum comparisons on the intermediate scale
    /// (first-part outputs are √m larger).
    pub eta_mem_mid: f64,
    /// Tolerance for memory-checksum comparisons on the output scale.
    pub eta_mem_out: f64,
}

/// Model-based thresholds for an `N = k·m` split with input component
/// std-dev `sigma0`.
pub fn thresholds_for_split(n: usize, k: usize, m: usize, sigma0: f64) -> Thresholds {
    assert_eq!(k * m, n, "split mismatch");
    let t = F64_MANTISSA_BITS;
    let sroe1 = checksum_roundoff_std(m, sigma0, t);
    let sroe2 = checksum_roundoff_std_second(k, m, sigma0, t);
    // Offline: one check over the full N-point transform. Its inputs have
    // std σ0 and the transform is N-point, so the same bound with size N.
    let sroe_off = checksum_roundoff_std(n, sigma0, t);

    // Memory sums: input elements ~σ0, intermediate ~√m·σ0, output ~√N·σ0.
    let mem_in = memory_sum_roundoff_std(m.max(k), sigma0, t);
    let mem_mid = memory_sum_roundoff_std(m.max(k), (m as f64).sqrt() * sigma0, t);
    let mem_out = memory_sum_roundoff_std(n, (n as f64).sqrt() * sigma0, t);

    Thresholds {
        eta1: HEADROOM * 3.0 * (m as f64).sqrt() * sroe1,
        eta2: HEADROOM * 3.0 * (k as f64).sqrt() * sroe2,
        eta_offline: HEADROOM * 3.0 * (n as f64).sqrt() * sroe_off,
        eta_mem_in: MEMORY_HEADROOM * mem_in.max(f64::EPSILON),
        eta_mem_mid: MEMORY_HEADROOM * mem_mid.max(f64::EPSILON),
        eta_mem_out: MEMORY_HEADROOM * mem_out.max(f64::EPSILON),
    }
}

/// Per-side detection thresholds for the batch-linearity check of a
/// `b`-member batch of `n`-point transforms, given the squared 2-norms of
/// the two weight vectors (`Σᵢ wᵢ²` per side).
///
/// The batch check compares *every* output bin, so the flagging statistic
/// is the **maximum** of `n` per-bin residuals — a 3σ per-bin bound would
/// false-positive almost surely at large `n`. The Gaussian extremal bound
/// `E[max] ≈ √(2·ln n)·σ` replaces the 3 with `3 + √(2·ln n)`, and the
/// same empirical [`HEADROOM`] as [`thresholds_for_split`] absorbs the
/// model's average-case σ_ε. Floored at `f64::EPSILON` so degenerate
/// sizes never produce a zero threshold.
pub fn batch_thresholds(
    n: usize,
    sigma0: f64,
    weight_norm_sq_1: f64,
    weight_norm_sq_2: f64,
) -> (f64, f64) {
    let t = F64_MANTISSA_BITS;
    let extremal = 3.0 + (2.0 * (n.max(2) as f64).ln()).sqrt();
    let eta = |wsq: f64| {
        (HEADROOM * extremal * crate::model::batch_residual_std(n, wsq, sigma0, t))
            .max(f64::EPSILON)
    };
    (eta(weight_norm_sq_1), eta(weight_norm_sq_2))
}

/// Scales every threshold by `factor` — the plan's empirical
/// `threshold_scale`, and per execution the measured σ̂.
pub fn scaled(t: Thresholds, factor: f64) -> Thresholds {
    Thresholds {
        eta1: t.eta1 * factor,
        eta2: t.eta2 * factor,
        eta_offline: t.eta_offline * factor,
        eta_mem_in: t.eta_mem_in * factor,
        eta_mem_mid: t.eta_mem_mid * factor,
        eta_mem_out: t.eta_mem_out * factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_thresholds_are_far_below_offline() {
        let n = 1 << 20;
        let (k, m) = (1 << 10, 1 << 10);
        let t = thresholds_for_split(n, k, m, (1.0f64 / 3.0).sqrt());
        assert!(t.eta1 < t.eta_offline / 100.0, "eta1={} off={}", t.eta1, t.eta_offline);
        assert!(t.eta2 < t.eta_offline, "eta2={} off={}", t.eta2, t.eta_offline);
        assert!(t.eta1 > 0.0 && t.eta2 > 0.0);
    }

    #[test]
    fn second_part_threshold_dominates_first() {
        let t = thresholds_for_split(1 << 16, 1 << 8, 1 << 8, 1.0);
        assert!(t.eta2 > t.eta1);
    }

    #[test]
    fn memory_thresholds_ordered_by_scale() {
        let t = thresholds_for_split(1 << 16, 1 << 8, 1 << 8, 1.0);
        assert!(t.eta_mem_in < t.eta_mem_mid);
        assert!(t.eta_mem_mid < t.eta_mem_out);
    }

    #[test]
    fn input_sigma_is_the_component_std() {
        // 2n components of magnitude 3 → σ̂ = 3; all-zero → 0; overflow
        // and NaN stay non-finite so callers can fail closed.
        assert_eq!(input_sigma(2.0 * 8.0 * 9.0, 8), 3.0);
        assert_eq!(input_sigma(0.0, 8), 0.0);
        assert!(!input_sigma(f64::INFINITY, 8).is_finite());
        assert!(input_sigma(f64::NAN, 8).is_nan());
    }

    #[test]
    fn scaling() {
        let t = thresholds_for_split(1 << 10, 1 << 5, 1 << 5, 1.0);
        let s = scaled(t, 2.0);
        assert_eq!(s.eta1, 2.0 * t.eta1);
        assert_eq!(s.eta_mem_out, 2.0 * t.eta_mem_out);
    }
}
