//! Online ABFT FFT (Algorithm 2) — computational fault tolerance.
//!
//! The two-layer decomposition is protected piecewise: each of the `k`
//! m-point FFTs and each of the `m` k-point FFTs carries its own
//! CCG/CCV pair with thresholds η₁/η₂; the twiddle stage and the two small
//! checksum-vector generations are DMR'd. An error is detected as soon as
//! the enclosing sub-FFT finishes and costs one `O(√N log √N)` sub-FFT
//! recomputation instead of a full restart.
//!
//! Two variants:
//! * **unoptimized** ("CFTO-Online"): checksum sums are taken over the
//!   strided source (a second cache-hostile pass) and the twiddle stage is
//!   a separate column-wise DMR pass at the start of part 2 — the layout
//!   the paper shows introduces "too much overhead" (§1);
//! * **optimized** ("Opt-Online"): §4.4 buffered gathers (checksums are
//!   computed on the contiguous gather buffer) and the twiddle DMR is fused
//!   row-wise at the end of each first-part FFT.

use ftfft_checksum::{ccv, combined_sum1, combined_sum1_strided};
use ftfft_fault::{FaultInjector, InjectionCtx, Part, Site};
use ftfft_numeric::simd::{self, DotAcc};
use ftfft_numeric::Complex64;

use crate::dmr::{dmr_generate_ra_into, dmr_twiddle, dmr_twiddle_into};
use crate::plan::{FtFftPlan, Workspace};
use crate::report::FtReport;

/// Executes one protected first-part (m-point) sub-FFT against the
/// per-execution threshold `eta1` (see
/// [`FtFftPlan::thresholds_for_energy`]): CCG over the
/// gathered stride-`k` input (fused with the gather when
/// `plan.fused_part1()`: the sum folds each natural-order block while the
/// gather stores it in the kernel's input order), the transform, the CCV
/// retry loop, and — in the optimized variant — the fused row-wise twiddle
/// under DMR. The finished row is written to `row[..m]`.
///
/// This is the unit of work the pooled executor
/// (`ftfft_parallel::PooledFtFft`) fans out across workers: it only reads
/// `x`, and all of its sites (`SubFftCompute`/`TwiddleDmrPass`) are visited
/// in a deterministic per-row order, so scripted faults at per-index sites
/// strike identically however rows are scheduled.
#[allow(clippy::too_many_arguments)]
pub fn part1_row(
    plan: &FtFftPlan,
    x: &[Complex64],
    ra_m: &[Complex64],
    eta1: f64,
    n1: usize,
    optimized: bool,
    row: &mut [Complex64],
    buf: &mut [Complex64],
    buf2: &mut [Complex64],
    fft: &mut [Complex64],
    injector: &dyn FaultInjector,
    ctx: InjectionCtx,
    rep: &mut FtReport,
) {
    let two = plan.two();
    let (k, m) = (two.k(), two.m());
    let fused = plan.fused_part1();
    let mut attempts = 0u32;
    loop {
        let cx = if optimized && fused {
            // One pass: gather into the kernel's input order, accumulate
            // the CCG over the same blocks, transform.
            let mut acc = DotAcc::new();
            two.inner_plan().execute_gathered_with(x, n1, k, &mut buf[..m], fft, |t, blk| {
                acc.accumulate(blk, &ra_m[t..t + blk.len()])
            });
            acc.finish()
        } else {
            let cx = if optimized {
                two.gather_first(x, n1, buf);
                combined_sum1(&buf[..m], ra_m)
            } else {
                // Unoptimized: checksum over the strided source, then a
                // separate gather for the transform (two strided reads).
                let cx = combined_sum1_strided(x, n1, k, ra_m);
                two.gather_first(x, n1, buf);
                cx
            };
            two.inner_fft(buf, fft);
            cx
        };
        injector.inject(ctx, Site::SubFftCompute { part: Part::First, index: n1 }, &mut buf[..m]);
        rep.checks += 1;
        let o = ccv(&buf[..m], cx, eta1);
        if o.ok {
            rep.note_ok_residual_part1(o.residual);
            break;
        }
        rep.comp_detected += 1;
        rep.subfft_recomputed += 1;
        attempts += 1;
        if attempts > plan.cfg().max_retries {
            rep.uncorrectable += 1;
            break;
        }
    }
    if optimized {
        // Fused row-wise twiddle under DMR.
        let w = two.twiddle_weights(n1);
        dmr_twiddle_into(&buf[..m], w, &mut row[..m], injector, ctx, rep, buf2);
    } else {
        row[..m].copy_from_slice(&buf[..m]);
    }
}

/// Executes one protected second-part (k-point) sub-FFT over column `j2`
/// of the intermediate matrix `y` against the threshold `eta2`: gather
/// (+ twiddle DMR in the unoptimized variant), CCG, transform, CCV retry
/// loop. The finished column is left in `buf[..k]` for the caller to
/// scatter.
#[allow(clippy::too_many_arguments)]
pub fn part2_col(
    plan: &FtFftPlan,
    y: &[Complex64],
    ra_k: &[Complex64],
    eta2: f64,
    j2: usize,
    optimized: bool,
    buf: &mut [Complex64],
    buf2: &mut [Complex64],
    fft: &mut [Complex64],
    injector: &dyn FaultInjector,
    ctx: InjectionCtx,
    rep: &mut FtReport,
) {
    let two = plan.two();
    let (k, m) = (two.k(), two.m());
    let fused = plan.fused_part2();
    let mut attempts = 0u32;
    loop {
        let cx2 = if optimized && fused {
            let mut acc = DotAcc::new();
            two.outer_plan().execute_gathered_with(y, j2, m, &mut buf[..k], fft, |t, blk| {
                acc.accumulate(blk, &ra_k[t..t + blk.len()])
            });
            acc.finish()
        } else {
            two.gather_second(y, j2, buf);
            if !optimized {
                // Algorithm 2 order: twiddle multiplication (DMR) applied
                // to the column right before the second-part FFT.
                let col = &mut buf[..k];
                dmr_twiddle(col, |n1| two.twiddle_weight(n1, j2), injector, ctx, rep, buf2);
            }
            let cx2 = combined_sum1(&buf[..k], ra_k);
            two.outer_fft(buf, fft);
            cx2
        };
        injector.inject(ctx, Site::SubFftCompute { part: Part::Second, index: j2 }, &mut buf[..k]);
        rep.checks += 1;
        let o = ccv(&buf[..k], cx2, eta2);
        if o.ok {
            rep.note_ok_residual_part2(o.residual);
            break;
        }
        rep.comp_detected += 1;
        rep.subfft_recomputed += 1;
        attempts += 1;
        if attempts > plan.cfg().max_retries {
            rep.uncorrectable += 1;
            break;
        }
    }
}

pub(crate) fn run_comp(
    plan: &FtFftPlan,
    x: &mut [Complex64],
    out: &mut [Complex64],
    injector: &dyn FaultInjector,
    ws: &mut Workspace,
    optimized: bool,
) -> FtReport {
    let ctx = InjectionCtx::default();
    let mut rep = FtReport::new();
    let two = plan.two();
    let (k, m) = (two.k(), two.m());

    // σ̂ needs a pre-pass here: the CCG rides each sub-FFT's gather, so no
    // earlier sweep reads all of `x`.
    let Some(th) = plan.thresholds_for_energy(simd::energy(x)) else {
        return FtReport::unverifiable(out);
    };

    // Input checksum vectors of size m and k — O(√N) work, DMR-protected,
    // generated into workspace buffers (no per-call allocation).
    dmr_generate_ra_into(
        m,
        plan.dir(),
        false,
        injector,
        ctx,
        &mut rep,
        &mut ws.ra_m,
        &mut ws.ra_tmp,
    );
    dmr_generate_ra_into(
        k,
        plan.dir(),
        false,
        injector,
        ctx,
        &mut rep,
        &mut ws.ra_k,
        &mut ws.ra_tmp,
    );

    // Memory window on the input (computational-only schemes cannot detect
    // this — §3.2 motivates the memory hierarchy; site kept for parity).
    injector.inject(ctx, Site::InputMemory, x);

    // ---- part 1: k m-point FFTs ----------------------------------------
    for (n1, row) in ws.y.chunks_exact_mut(m).take(k).enumerate() {
        part1_row(
            plan,
            x,
            &ws.ra_m[..m],
            th.eta1,
            n1,
            optimized,
            row,
            &mut ws.buf,
            &mut ws.buf2,
            &mut ws.fft,
            injector,
            ctx,
            &mut rep,
        );
    }

    // Memory window on the intermediate matrix.
    injector.inject(ctx, Site::IntermediateMemory, &mut ws.y);

    // ---- part 2: m k-point FFTs ----------------------------------------
    for j2 in 0..m {
        part2_col(
            plan,
            &ws.y,
            &ws.ra_k[..k],
            th.eta2,
            j2,
            optimized,
            &mut ws.buf,
            &mut ws.buf2,
            &mut ws.fft,
            injector,
            ctx,
            &mut rep,
        );
        two.scatter_output(out, j2, &ws.buf);
    }

    // Memory window on the final output (undetectable without the memory
    // hierarchy; kept for Table 5 parity).
    injector.inject(ctx, Site::OutputMemory, out);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FtConfig, Scheme};
    use ftfft_fault::{FaultKind, NoFaults, ScriptedFault, ScriptedInjector};
    use ftfft_fft::{dft_naive, Direction};
    use ftfft_numeric::{max_abs_diff, uniform_signal};

    fn run_scheme(scheme: Scheme, n: usize, inj: &dyn FaultInjector) -> (Vec<Complex64>, FtReport) {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
        let mut x = uniform_signal(n, 5);
        let mut out = vec![Complex64::ZERO; n];
        let mut ws = plan.make_workspace();
        let rep = plan.execute(&mut x, &mut out, inj, &mut ws);
        (out, rep)
    }

    #[test]
    fn fault_free_matches_dft_both_variants() {
        for n in [64usize, 256, 1024, 100] {
            let want = dft_naive(&uniform_signal(n, 5), Direction::Forward);
            for s in [Scheme::OnlineComp, Scheme::OnlineCompOpt] {
                let (out, rep) = run_scheme(s, n, &NoFaults);
                assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64, "{s:?} n={n}");
                assert!(rep.is_clean(), "{s:?} n={n}: {rep:?}");
                assert_eq!(rep.checks, plan_checks(n));
            }
        }
    }

    fn plan_checks(n: usize) -> u32 {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineCompOpt));
        (plan.two().k() + plan.two().m()) as u32
    }

    #[test]
    fn first_part_fault_recomputes_one_subfft() {
        let n = 1024;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::First, index: 3 },
            7,
            FaultKind::AddDelta { re: 1e-3, im: 0.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 5), Direction::Forward);
        let (out, rep) = run_scheme(Scheme::OnlineCompOpt, n, &inj);
        assert_eq!(rep.comp_detected, 1);
        assert_eq!(rep.subfft_recomputed, 1);
        assert_eq!(rep.full_recomputed, 0);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn second_part_fault_recomputes_one_subfft() {
        let n = 1024;
        for scheme in [Scheme::OnlineComp, Scheme::OnlineCompOpt] {
            let inj = ScriptedInjector::new(vec![ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: 17 },
                2,
                FaultKind::AddDelta { re: 0.0, im: 2e-4 },
            )]);
            let want = dft_naive(&uniform_signal(n, 5), Direction::Forward);
            let (out, rep) = run_scheme(scheme, n, &inj);
            assert_eq!(rep.comp_detected, 1, "{scheme:?}");
            assert_eq!(rep.subfft_recomputed, 1);
            assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
        }
    }

    #[test]
    fn multiple_faults_in_different_subffts_all_corrected() {
        let n = 1024;
        let inj = ScriptedInjector::new(vec![
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 0 },
                1,
                FaultKind::AddDelta { re: 1.0, im: 0.0 },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 9 },
                30,
                FaultKind::AddDelta { re: 0.0, im: -1.0 },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: 5 },
                2,
                FaultKind::AddDelta { re: 2.0, im: 2.0 },
            ),
        ]);
        let want = dft_naive(&uniform_signal(n, 5), Direction::Forward);
        let (out, rep) = run_scheme(Scheme::OnlineCompOpt, n, &inj);
        assert_eq!(rep.comp_detected, 3);
        assert_eq!(rep.subfft_recomputed, 3);
        assert_eq!(rep.uncorrectable, 0);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn twiddle_fault_survived_by_dmr_both_variants() {
        let n = 256;
        for scheme in [Scheme::OnlineComp, Scheme::OnlineCompOpt] {
            let inj = ScriptedInjector::new(vec![ScriptedFault::new(
                Site::TwiddleDmrPass { pass: 0 },
                4,
                FaultKind::SetValue { re: 1e6, im: 0.0 },
            )
            .at_occurrence(3)]);
            let want = dft_naive(&uniform_signal(n, 5), Direction::Forward);
            let (out, rep) = run_scheme(scheme, n, &inj);
            assert_eq!(rep.dmr_votes, 1, "{scheme:?}");
            assert_eq!(rep.subfft_recomputed, 0, "{scheme:?}");
            assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
        }
    }

    #[test]
    fn unoptimized_and_optimized_agree_bitwise_on_clean_runs() {
        let n = 512;
        let (a, _) = run_scheme(Scheme::OnlineComp, n, &NoFaults);
        let (b, _) = run_scheme(Scheme::OnlineCompOpt, n, &NoFaults);
        // Same arithmetic order inside sub-FFTs; twiddle application order
        // differs only in *when*, not *what* — results match to round-off.
        assert!(max_abs_diff(&a, &b) < 1e-12 * n as f64);
    }
}
