//! Execution accounting.
//!
//! Every protected run returns an [`FtReport`]; the evaluation harness
//! cross-checks it against the injector's fault log (every injected fault
//! must surface as a detection) and uses the residual maxima for Table 4.

use ftfft_numeric::Complex64;

/// Counters and residual statistics from one protected execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FtReport {
    /// Computational errors detected by CCV or DMR mismatch.
    pub comp_detected: u32,
    /// Memory errors detected by any memory verification.
    pub mem_detected: u32,
    /// Memory errors located and repaired in place.
    pub mem_corrected: u32,
    /// DMR pass mismatches resolved by a tie-break vote.
    pub dmr_votes: u32,
    /// Sub-FFT recomputations (the online scheme's `O(√N log √N)` retries).
    pub subfft_recomputed: u32,
    /// Whole-transform recomputations (the offline scheme's penalty).
    pub full_recomputed: u32,
    /// Communication blocks found corrupted and repaired.
    pub comm_corrected: u32,
    /// Verifications performed (CCV + MCV count).
    pub checks: u32,
    /// Runs of a protected part that exhausted `max_retries` —
    /// the scheme gave up (should be 0 under the single-fault model).
    pub uncorrectable: u32,
    /// Largest residual among *accepted* first-part checks (Table 4 "Max 1").
    pub max_ok_residual_part1: f64,
    /// Largest residual among accepted second-part checks ("Max 2").
    pub max_ok_residual_part2: f64,
}

impl FtReport {
    /// Fresh all-zero report.
    pub fn new() -> Self {
        Self::default()
    }

    /// The report of a run that verified nothing because its input has no
    /// finite scale σ̂ (a NaN/±Inf element, or an energy that overflows):
    /// no threshold exists, so the run fails closed — one uncorrectable
    /// part, and `out` poisoned with NaN so no unverified number reads as
    /// a result.
    pub fn unverifiable(out: &mut [Complex64]) -> FtReport {
        out.fill(Complex64::new(f64::NAN, f64::NAN));
        FtReport { uncorrectable: 1, ..FtReport::new() }
    }

    /// Folds another report into this one (parallel rank merge, per-stream
    /// frame aggregation). Counters **saturate** at `u32::MAX` instead of
    /// wrapping: a long-running stream merges millions of per-frame
    /// reports, and `checks` alone grows by thousands per frame — a
    /// wrapped counter would silently report a poisoned stream as clean.
    pub fn merge(&mut self, other: &FtReport) {
        self.comp_detected = self.comp_detected.saturating_add(other.comp_detected);
        self.mem_detected = self.mem_detected.saturating_add(other.mem_detected);
        self.mem_corrected = self.mem_corrected.saturating_add(other.mem_corrected);
        self.dmr_votes = self.dmr_votes.saturating_add(other.dmr_votes);
        self.subfft_recomputed = self.subfft_recomputed.saturating_add(other.subfft_recomputed);
        self.full_recomputed = self.full_recomputed.saturating_add(other.full_recomputed);
        self.comm_corrected = self.comm_corrected.saturating_add(other.comm_corrected);
        self.checks = self.checks.saturating_add(other.checks);
        self.uncorrectable = self.uncorrectable.saturating_add(other.uncorrectable);
        self.max_ok_residual_part1 = self.max_ok_residual_part1.max(other.max_ok_residual_part1);
        self.max_ok_residual_part2 = self.max_ok_residual_part2.max(other.max_ok_residual_part2);
    }

    /// Total faults this run noticed (computational + memory + DMR + comm).
    /// Saturating, like [`merge`](FtReport::merge).
    pub fn total_detected(&self) -> u32 {
        self.comp_detected
            .saturating_add(self.mem_detected)
            .saturating_add(self.dmr_votes)
            .saturating_add(self.comm_corrected)
    }

    /// Total faults this run repaired (memory repairs, sub-FFT and whole
    /// recomputations, communication repairs). Saturating.
    pub fn total_corrected(&self) -> u32 {
        self.mem_corrected
            .saturating_add(self.subfft_recomputed)
            .saturating_add(self.full_recomputed)
            .saturating_add(self.comm_corrected)
    }

    /// `true` when nothing was detected and nothing recomputed.
    pub fn is_clean(&self) -> bool {
        self.total_detected() == 0
            && self.subfft_recomputed == 0
            && self.full_recomputed == 0
            && self.uncorrectable == 0
    }

    /// Record an accepted part-1 residual.
    pub fn note_ok_residual_part1(&mut self, r: f64) {
        if r > self.max_ok_residual_part1 {
            self.max_ok_residual_part1 = r;
        }
    }

    /// Record an accepted part-2 residual.
    pub fn note_ok_residual_part2(&mut self, r: f64) {
        if r > self.max_ok_residual_part2 {
            self.max_ok_residual_part2 = r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_maxes_residuals() {
        let mut a = FtReport {
            comp_detected: 1,
            checks: 10,
            max_ok_residual_part1: 1e-12,
            ..Default::default()
        };
        let b = FtReport {
            comp_detected: 2,
            mem_corrected: 1,
            mem_detected: 1,
            checks: 5,
            max_ok_residual_part1: 3e-12,
            max_ok_residual_part2: 1e-9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.comp_detected, 3);
        assert_eq!(a.mem_corrected, 1);
        assert_eq!(a.checks, 15);
        assert_eq!(a.max_ok_residual_part1, 3e-12);
        assert_eq!(a.max_ok_residual_part2, 1e-9);
        assert_eq!(a.total_detected(), 4);
        assert!(!a.is_clean());
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        // Aggregating per-frame reports over a long stream must never wrap
        // a counter back through zero (a wrapped `checks`/`comp_detected`
        // would make a poisoned stream look clean).
        let mut a = FtReport {
            checks: u32::MAX - 1,
            comp_detected: u32::MAX,
            mem_detected: 3,
            ..Default::default()
        };
        let b =
            FtReport { checks: 7, comp_detected: 2, mem_detected: u32::MAX, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.checks, u32::MAX);
        assert_eq!(a.comp_detected, u32::MAX);
        assert_eq!(a.mem_detected, u32::MAX);
        // The detected/corrected totals saturate too instead of wrapping.
        assert_eq!(a.total_detected(), u32::MAX);
        let c = FtReport { mem_corrected: u32::MAX, subfft_recomputed: 5, ..Default::default() };
        assert_eq!(c.total_corrected(), u32::MAX);
        assert!(!a.is_clean());
    }

    #[test]
    fn clean_report() {
        let mut r = FtReport::new();
        r.checks = 100;
        r.note_ok_residual_part1(1e-13);
        assert!(r.is_clean());
    }
}
