//! Offline ABFT FFT (Algorithm 1) — the prior-art baseline.
//!
//! One checksum vector of size N, one verification after the whole
//! transform. Detection latency is the full transform; recovery is a full
//! re-execution (the 2× penalty of Table 1). The `naive` flag selects the
//! trigonometric per-element `rA` generation (Fig 7's costliest bar); the
//! `memory` flag adds the §4.1 combined input/output memory checksums.

use ftfft_checksum::{
    combined_checksum, combined_sum1, combined_verify, weighted_sum, CombinedChecksum, MemVerdict,
};
use ftfft_fault::{FaultInjector, InjectionCtx, Site};
use ftfft_fft::TwoLayerScratch;
use ftfft_numeric::Complex64;

use crate::dmr::dmr_generate_ra_into;
use crate::plan::{FtFftPlan, Workspace};
use crate::report::FtReport;

pub(crate) fn run(
    plan: &FtFftPlan,
    x: &mut [Complex64],
    out: &mut [Complex64],
    injector: &dyn FaultInjector,
    ws: &mut Workspace,
    naive: bool,
    memory: bool,
) -> FtReport {
    let ctx = InjectionCtx::default();
    let mut rep = FtReport::new();
    let n = plan.n();
    let Some(th) = plan.thresholds_for_energy(ftfft_numeric::simd::energy(x)) else {
        return FtReport::unverifiable(out);
    };

    // Input checksum vector rA (size N!) under DMR, generated into the
    // workspace (no per-call allocation).
    dmr_generate_ra_into(
        n,
        plan.dir(),
        naive,
        injector,
        ctx,
        &mut rep,
        &mut ws.ra_full,
        &mut ws.ra_tmp,
    );
    let ra = &ws.ra_full[..n];

    // CCG — with memory protection the full combined pair, else sum1 only
    // (§4.2: the r′₂x pass is what the memory variant pays extra).
    let stored = if memory {
        combined_checksum(x, ra)
    } else {
        CombinedChecksum { sum1: combined_sum1(x, ra), sum2: Complex64::ZERO }
    };

    // Memory-fault window: input sits between checksum generation and use.
    injector.inject(ctx, Site::InputMemory, x);

    let mut scratch = TwoLayerScratch {
        y: std::mem::take(&mut ws.y),
        buf: std::mem::take(&mut ws.buf),
        fft: std::mem::take(&mut ws.fft),
    };

    let mut attempts = 0u32;
    loop {
        plan.two().execute(x, out, &mut scratch);
        injector.inject(ctx, Site::WholeFftCompute, out);
        if attempts == 0 {
            // Memory-fault window on the produced output.
            injector.inject(ctx, Site::OutputMemory, out);
        }
        rep.checks += 1;
        let residual = (weighted_sum(out) - stored.sum1).norm();
        if residual <= th.eta_offline {
            rep.note_ok_residual_part1(residual);
            break;
        }
        // Error detected only now — after the whole N-point transform.
        if memory {
            rep.checks += 1;
            match combined_verify(x, ra, stored, th.eta_mem_in) {
                MemVerdict::Located { index, delta } => {
                    rep.mem_detected += 1;
                    rep.mem_corrected += 1;
                    x[index] -= delta;
                }
                MemVerdict::Unlocatable => {
                    rep.mem_detected += 1;
                }
                MemVerdict::Clean => {
                    rep.comp_detected += 1;
                }
            }
        } else {
            rep.comp_detected += 1;
        }
        rep.full_recomputed += 1;
        attempts += 1;
        if attempts > plan.cfg().max_retries {
            rep.uncorrectable += 1;
            break;
        }
    }

    ws.y = scratch.y;
    ws.buf = scratch.buf;
    ws.fft = scratch.fft;
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FtConfig, Scheme};
    use ftfft_fault::{FaultKind, NoFaults, ScriptedFault, ScriptedInjector};
    use ftfft_fft::dft_naive;
    use ftfft_numeric::{max_abs_diff, uniform_signal};

    fn run_scheme(scheme: Scheme, n: usize, inj: &dyn FaultInjector) -> (Vec<Complex64>, FtReport) {
        let plan = FtFftPlan::new(n, ftfft_fft::Direction::Forward, FtConfig::new(scheme));
        let mut x = uniform_signal(n, 77);
        let mut out = vec![Complex64::ZERO; n];
        let mut ws = plan.make_workspace();
        let rep = plan.execute(&mut x, &mut out, inj, &mut ws);
        (out, rep)
    }

    #[test]
    fn fault_free_matches_dft_all_variants() {
        let n = 256;
        let want = dft_naive(&uniform_signal(n, 77), ftfft_fft::Direction::Forward);
        for s in [Scheme::OfflineNaive, Scheme::Offline, Scheme::OfflineMem] {
            let (out, rep) = run_scheme(s, n, &NoFaults);
            assert!(max_abs_diff(&out, &want) < 1e-9 * n as f64, "{s:?}");
            assert!(rep.is_clean(), "{s:?}: {rep:?}");
            assert!(rep.checks >= 1);
        }
    }

    #[test]
    fn computational_fault_forces_full_recomputation() {
        let n = 256;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::WholeFftCompute,
            13,
            FaultKind::AddDelta { re: 1e-2, im: 0.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 77), ftfft_fft::Direction::Forward);
        let (out, rep) = run_scheme(Scheme::Offline, n, &inj);
        assert_eq!(rep.comp_detected, 1);
        assert_eq!(rep.full_recomputed, 1);
        assert_eq!(rep.uncorrectable, 0);
        assert!(max_abs_diff(&out, &want) < 1e-9 * n as f64);
    }

    #[test]
    fn input_memory_fault_corrected_then_recomputed() {
        let n = 256;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::InputMemory,
            100,
            FaultKind::SetValue { re: 7.0, im: -7.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 77), ftfft_fft::Direction::Forward);
        let (out, rep) = run_scheme(Scheme::OfflineMem, n, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert!(rep.full_recomputed >= 1);
        assert!(max_abs_diff(&out, &want) < 1e-9 * n as f64);
    }

    #[test]
    fn output_memory_fault_triggers_recompute() {
        let n = 256;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::OutputMemory,
            5,
            FaultKind::SetValue { re: 100.0, im: 0.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 77), ftfft_fft::Direction::Forward);
        let (out, rep) = run_scheme(Scheme::OfflineMem, n, &inj);
        assert!(rep.full_recomputed >= 1);
        assert_eq!(rep.uncorrectable, 0);
        assert!(max_abs_diff(&out, &want) < 1e-9 * n as f64);
    }

    #[test]
    fn comp_only_offline_cannot_fix_persistent_input_corruption() {
        // Documented limitation: without memory checksums the offline scheme
        // detects but cannot repair a corrupted input — it exhausts retries.
        let n = 256;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::InputMemory,
            0,
            FaultKind::SetValue { re: 50.0, im: 0.0 },
        )]);
        let (_, rep) = run_scheme(Scheme::Offline, n, &inj);
        assert!(rep.comp_detected >= 1);
        assert_eq!(rep.uncorrectable, 1);
    }

    #[test]
    fn checksum_gen_fault_survived_by_dmr() {
        let n = 128;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::ChecksumGenPass { pass: 0 },
            64,
            FaultKind::AddDelta { re: 5.0, im: 5.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 77), ftfft_fft::Direction::Forward);
        let (out, rep) = run_scheme(Scheme::Offline, n, &inj);
        assert_eq!(rep.dmr_votes, 1);
        assert_eq!(rep.full_recomputed, 0);
        assert!(max_abs_diff(&out, &want) < 1e-9 * n as f64);
    }
}
