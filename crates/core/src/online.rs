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
//! * **optimized** ("Opt-Online"): §4.4 buffered access — each layer's
//!   sub-FFTs run block by block as one batched pass whose checksums are
//!   summed over contiguous input rows — and the twiddle DMR is fused
//!   row-wise at the end of each first-part FFT.

use ftfft_checksum::{ccv, combined_sum1, combined_sum1_strided};
use ftfft_fault::{FaultInjector, InjectionCtx, Part, Site};
use ftfft_numeric::simd;
use ftfft_numeric::Complex64;

use crate::dmr::{dmr_generate_ra_into, dmr_twiddle, dmr_twiddle_into};
use crate::plan::{FtFftPlan, Workspace};
use crate::report::FtReport;

/// Executes one protected first-part (m-point) sub-FFT against the
/// per-execution threshold `eta1` (see
/// [`FtFftPlan::thresholds_for_energy`]): CCG over the stride-`k` input
/// (in the optimized variant over the gathered buffer, in one strided
/// read), the transform, the CCV retry loop, and — in the optimized
/// variant — the fused row-wise twiddle under DMR. The finished row is
/// written to `row[..m]`.
///
/// This is the unit of work the pooled executor
/// (`ftfft_parallel::PooledFtFft`) fans out across workers: it only reads
/// `x`, and all of its sites (`SubFftCompute`/`TwiddleDmrPass`) are visited
/// in a deterministic per-row order, so scripted faults at per-index sites
/// strike identically however rows are scheduled. Its transform is the
/// width-1 column kernel, so a row has the same bits here as in the serial
/// executor's batched pass.
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
    let cols = SubFft { ra: ra_m, eta: eta1, index: n1, optimized, batched: None };
    part1_checked(plan, x, cols, row, buf, buf2, fft, injector, ctx, rep);
}

/// One protected sub-FFT's inputs: its checksum weights and threshold,
/// its index, the variant, and — when a batched pass already transformed
/// it — the CCG of its first attempt (its output is then in the buffer).
#[derive(Clone, Copy)]
struct SubFft<'a> {
    ra: &'a [Complex64],
    eta: f64,
    index: usize,
    optimized: bool,
    batched: Option<Complex64>,
}

/// Per-lane CCG step of a batched block, `acc[c] += row[c]·w`, in the
/// operation order of [`combined_sum1_strided`], so each lane sums exactly
/// as the single-column path does.
fn ccg_row(acc: &mut [Complex64], row: &[Complex64], w: Complex64) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a = a.mul_add(v, w);
    }
}

#[allow(clippy::too_many_arguments)]
fn part1_checked(
    plan: &FtFftPlan,
    x: &[Complex64],
    sub: SubFft<'_>,
    row: &mut [Complex64],
    buf: &mut [Complex64],
    buf2: &mut [Complex64],
    fft: &mut [Complex64],
    injector: &dyn FaultInjector,
    ctx: InjectionCtx,
    rep: &mut FtReport,
) {
    let two = plan.two();
    let (k, m, n1) = (two.k(), two.m(), sub.index);
    let mut batched = sub.batched;
    let mut attempts = 0u32;
    loop {
        let cx = match batched.take() {
            Some(cx) => cx,
            None if sub.optimized => {
                // One strided read: gather, checksum the contiguous buffer,
                // transform.
                two.gather_first(x, n1, buf);
                let cx = combined_sum1_strided(buf, 0, 1, sub.ra);
                two.inner_fft(buf, fft);
                cx
            }
            None => {
                // Unoptimized: checksum over the strided source, then a
                // separate gather for the transform (two strided reads).
                let cx = combined_sum1_strided(x, n1, k, sub.ra);
                two.gather_first(x, n1, buf);
                two.inner_fft(buf, fft);
                cx
            }
        };
        injector.inject(ctx, Site::SubFftCompute { part: Part::First, index: n1 }, &mut buf[..m]);
        rep.checks += 1;
        let o = ccv(&buf[..m], cx, sub.eta);
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
    if sub.optimized {
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
    let col = SubFft { ra: ra_k, eta: eta2, index: j2, optimized, batched: None };
    part2_checked(plan, y, col, buf, buf2, fft, injector, ctx, rep);
}

#[allow(clippy::too_many_arguments)]
fn part2_checked(
    plan: &FtFftPlan,
    y: &[Complex64],
    sub: SubFft<'_>,
    buf: &mut [Complex64],
    buf2: &mut [Complex64],
    fft: &mut [Complex64],
    injector: &dyn FaultInjector,
    ctx: InjectionCtx,
    rep: &mut FtReport,
) {
    let two = plan.two();
    let (k, j2) = (two.k(), sub.index);
    let mut batched = sub.batched;
    let mut attempts = 0u32;
    loop {
        let cx2 = match batched.take() {
            Some(cx2) => cx2,
            None if sub.optimized => {
                two.gather_second(y, j2, buf);
                let cx2 = combined_sum1_strided(buf, 0, 1, sub.ra);
                two.outer_fft(buf, fft);
                cx2
            }
            None => {
                two.gather_second(y, j2, buf);
                // Algorithm 2 order: twiddle multiplication (DMR) applied to
                // the column right before the second-part FFT.
                let col = &mut buf[..k];
                dmr_twiddle(col, |n1| two.twiddle_weight(n1, j2), injector, ctx, rep, buf2);
                let cx2 = combined_sum1(&buf[..k], sub.ra);
                two.outer_fft(buf, fft);
                cx2
            }
        };
        injector.inject(ctx, Site::SubFftCompute { part: Part::Second, index: j2 }, &mut buf[..k]);
        rep.checks += 1;
        let o = ccv(&buf[..k], cx2, sub.eta);
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
    // Optimized: block by block through the batched column kernel, each
    // column's CCG summed row by row while the block loads (the input is
    // read once, contiguously); then every column is checked on its own.
    let bw = if optimized { two.first_block_width() } else { 1 };
    for n1 in 0..k {
        let (c0, w) = (n1 - n1 % bw, bw.min(k - (n1 - n1 % bw)));
        let mut sub =
            SubFft { ra: &ws.ra_m[..m], eta: th.eta1, index: n1, optimized, batched: None };
        if optimized {
            if n1 == c0 {
                let acc = &mut ws.ccg[..w];
                acc.fill(Complex64::ZERO);
                let ra_m = &ws.ra_m;
                two.first_block(x, c0, w, &mut ws.block, |t, row| ccg_row(acc, row, ra_m[t]));
            }
            two.first_block_column(&mut ws.block, w, n1 - c0, &mut ws.buf);
            sub.batched = Some(ws.ccg[n1 - c0]);
        }
        part1_checked(
            plan,
            x,
            sub,
            &mut ws.y[n1 * m..(n1 + 1) * m],
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
    // Optimized: batched like part 1; each checked column goes back into
    // its block, whose rows are then output rows.
    let bw = if optimized { two.second_block_width() } else { 1 };
    for j2 in 0..m {
        let (c0, w) = (j2 - j2 % bw, bw.min(m - (j2 - j2 % bw)));
        let mut sub =
            SubFft { ra: &ws.ra_k[..k], eta: th.eta2, index: j2, optimized, batched: None };
        if optimized {
            if j2 == c0 {
                let acc = &mut ws.ccg[..w];
                acc.fill(Complex64::ZERO);
                let ra_k = &ws.ra_k;
                two.second_block(&ws.y, c0, w, &mut ws.block, |t, row| ccg_row(acc, row, ra_k[t]));
            }
            two.second_block_column(&mut ws.block, w, j2 - c0, &mut ws.buf);
            sub.batched = Some(ws.ccg[j2 - c0]);
        }
        part2_checked(
            plan,
            &ws.y,
            sub,
            &mut ws.buf,
            &mut ws.buf2,
            &mut ws.fft,
            injector,
            ctx,
            &mut rep,
        );
        if optimized {
            two.put_second_block_column(&mut ws.block, w, j2 - c0, &ws.buf);
            if j2 + 1 == c0 + w {
                two.store_second_block(&mut ws.block, c0, w, out);
            }
        } else {
            two.scatter_output(out, j2, &ws.buf);
        }
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
