//! Online ABFT with the *optimized* memory hierarchy (Fig 3, §4).
//!
//! All four sequential optimizations are in force:
//!
//! * **§4.1 combined checksums** — input pairs use weights `(rA)_t` /
//!   `(t+1)(rA)_t`, so the stored `sum1` doubles as the CCG value and the
//!   separate `r₁·x` pass disappears;
//! * **§4.2 verification & correction postponing** — no MCV before a
//!   sub-FFT; the CCV after it catches both computational and input-memory
//!   errors (discriminated by a recompute), and the `r′₂` decode runs only
//!   when an error is present. Output MCVs collapse into one final check;
//! * **§4.3 incremental generation** — second-part input checksums
//!   accumulate in per-column slots as first-part rows are produced, so the
//!   rearrangement needs no extra verify+regenerate pass;
//! * **§4.4 contiguous buffering** — the initial CMCG is a single forward
//!   scan of the input (k accumulators), and all per-sub-FFT checksums are
//!   computed on the gathered buffer. Each sub-FFT reads its strided input
//!   straight into the kernel's input order
//!   ([`ftfft_fft::TwoLayerPlan::first_fft`]), the twiddle DMR streams one
//!   row of the plan's twiddle matrix, and the part-2 CCV pass also yields
//!   the column's share of the final output checksum pair
//!   ([`ResidueSums`]).
//!
//! This is the paper's headline "Opt-Online" configuration.

use ftfft_checksum::{
    ccv, ccv_with_sum, combined_decode, gather_combined, weighted_sum, CombinedChecksum,
    MemVerdict, ResidueSums,
};
use ftfft_fault::{FaultInjector, InjectionCtx, Part, Site};
use ftfft_numeric::{omega3_pow, simd, Complex64};

use crate::dmr::{dmr_generate_ra_into, dmr_twiddle_into};
use crate::plan::{FtFftPlan, Workspace};
use crate::report::FtReport;

pub(crate) fn run(
    plan: &FtFftPlan,
    x: &mut [Complex64],
    out: &mut [Complex64],
    injector: &dyn FaultInjector,
    ws: &mut Workspace,
) -> FtReport {
    let ctx = InjectionCtx::default();
    let mut rep = FtReport::new();
    let two = plan.two();
    let (k, m) = (two.k(), two.m());
    let n = plan.n();

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
    let (ra_m, ra_k) = (&ws.ra_m[..m], &ws.ra_k[..k]);

    // ---- CMCG: one contiguous pass, k combined pairs (§4.1 + §4.4) ------
    // Row-wise over the m×k view of x: the inner accumulation runs over
    // contiguous accumulators with a constant weight — the vectorized
    // dual-AXPY kernel. Accumulators are processed in column blocks small
    // enough that both ck arrays stay L1-resident across all m row passes
    // (at k = 1024 an unblocked sweep streams 3×16 KB per row and thrashes
    // a 32 KB L1d). Each accumulator still sees the rows in order, so the
    // sums do not depend on the block size. The sweep also measures the
    // input energy for σ̂ while each row slice is in L1 — before the
    // input-memory window, so a strike cannot widen its own threshold.
    const CMCG_BLOCK: usize = 256;
    ws.ck1[..k].fill(Complex64::ZERO);
    ws.ck2[..k].fill(Complex64::ZERO);
    let mut energy = simd::EnergyAcc::new();
    let mut b0 = 0usize;
    while b0 < k {
        let b = CMCG_BLOCK.min(k - b0);
        for (t, row) in x.chunks_exact(k).enumerate() {
            let w1 = ra_m[t];
            let w2 = w1.scale((t + 1) as f64);
            let seg = &row[b0..b0 + b];
            simd::axpy2(&mut ws.ck1[b0..b0 + b], &mut ws.ck2[b0..b0 + b], seg, w1, w2);
            energy.accumulate(seg);
        }
        b0 += b;
    }
    let Some(th) = plan.thresholds_for_energy(energy.finish()) else {
        return FtReport::unverifiable(out);
    };
    for (p, (&s1, &s2)) in ws.in_ck.iter_mut().zip(ws.ck1.iter().zip(&ws.ck2)) {
        *p = CombinedChecksum { sum1: s1, sum2: s2 };
    }
    ws.slots.reset();

    injector.inject(ctx, Site::InputMemory, x);

    // ---- part 1: postponed verification (§4.2) --------------------------
    for n1 in 0..k {
        let mut attempts = 0u32;
        let mut mem_fixed = false;
        let mut saw_error = false;
        loop {
            two.first_fft(x, n1, &mut ws.buf, &mut ws.fft);
            injector.inject(
                ctx,
                Site::SubFftCompute { part: Part::First, index: n1 },
                &mut ws.buf[..m],
            );
            rep.checks += 1;
            // CCG was free: stored sum1 is the expected checksum.
            let o = ccv(&ws.buf[..m], ws.in_ck[n1].sum1, th.eta1);
            if o.ok {
                rep.note_ok_residual_part1(o.residual);
                if saw_error && !mem_fixed {
                    // Cured by recomputation alone — transient compute error.
                    rep.comp_detected += 1;
                }
                break;
            }
            saw_error = true;
            attempts += 1;
            if attempts == 1 {
                // First failure: assume a transient computational error and
                // recompute the sub-FFT.
                rep.subfft_recomputed += 1;
                continue;
            }
            {
                // Recompute also failed: suspect corrupted input. Decode
                // with the postponed r′₂ comparison (§4.2). Repeated on
                // every later failure: each Located round subtracts the
                // reconstructed delta, whose relative error is O(ε), so
                // huge corruptions (high exponent-bit flips) converge
                // geometrically instead of stalling after one repair.
                let observed = gather_combined(x, n1, k, ra_m, &mut ws.buf2[..m]);
                rep.checks += 1;
                match combined_decode(observed, ws.in_ck[n1], ra_m, m, th.eta1) {
                    MemVerdict::Located { index, delta } => {
                        if !mem_fixed {
                            rep.mem_detected += 1;
                        }
                        rep.mem_corrected += 1;
                        mem_fixed = true;
                        x[n1 + index * k] -= delta;
                        rep.subfft_recomputed += 1;
                        if attempts > plan.cfg().max_retries {
                            rep.uncorrectable += 1;
                            break;
                        }
                        continue;
                    }
                    MemVerdict::Unlocatable => {
                        if !mem_fixed {
                            rep.mem_detected += 1;
                        }
                    }
                    MemVerdict::Clean => {}
                }
            }
            rep.subfft_recomputed += 1;
            if attempts > plan.cfg().max_retries {
                rep.uncorrectable += 1;
                break;
            }
        }
        // Fused row twiddle under DMR, written straight to the row of `y`,
        // then incremental slot accumulation over it (§4.3).
        let row = &mut ws.y[n1 * m..(n1 + 1) * m];
        dmr_twiddle_into(
            &ws.buf[..m],
            two.twiddle_weights(n1),
            row,
            injector,
            ctx,
            &mut rep,
            &mut ws.buf2,
        );
        let w1 = ra_k[n1];
        let w2 = w1.scale((n1 + 1) as f64);
        ws.slots.accumulate_row(w1, w2, row);
    }

    injector.inject(ctx, Site::IntermediateMemory, &mut ws.y);

    // ---- part 2: slot-checked k-point FFTs -------------------------------
    // Global output pair `g1 = Σ ω₃^pos·X[pos]`, `g2 = Σ (pos+1)·ω₃^pos·X[pos]`
    // accumulated from each verified column before it is scattered; checked
    // once at the end (§4.2 postponed output MCV). Reading the column
    // *before* it reaches memory is what lets the final CMCV catch
    // output-memory corruption.
    let mut g1 = Complex64::ZERO;
    let mut g2 = Complex64::ZERO;
    for j2 in 0..m {
        let stored = ws.slots.column_checksum(j2);
        let mut attempts = 0u32;
        let mut mem_fixed = false;
        let mut saw_error = false;
        let sums = loop {
            two.second_fft(&ws.y, j2, &mut ws.buf, &mut ws.fft);
            injector.inject(
                ctx,
                Site::SubFftCompute { part: Part::Second, index: j2 },
                &mut ws.buf[..k],
            );
            rep.checks += 1;
            // One pass gives the CCV sum and the column's output-pair terms.
            let sums = ResidueSums::of(&ws.buf[..k]);
            let o = ccv_with_sum(sums.weighted(), stored.sum1, th.eta2);
            if o.ok {
                rep.note_ok_residual_part2(o.residual);
                if saw_error && !mem_fixed {
                    rep.comp_detected += 1;
                }
                break sums;
            }
            saw_error = true;
            attempts += 1;
            if attempts == 1 {
                rep.subfft_recomputed += 1;
                continue;
            }
            {
                let observed = gather_combined(&ws.y, j2, m, ra_k, &mut ws.buf2[..k]);
                rep.checks += 1;
                match combined_decode(observed, stored, ra_k, k, th.eta2) {
                    MemVerdict::Located { index, delta } => {
                        if !mem_fixed {
                            rep.mem_detected += 1;
                        }
                        rep.mem_corrected += 1;
                        mem_fixed = true;
                        ws.y[index * m + j2] -= delta;
                        rep.subfft_recomputed += 1;
                        if attempts > plan.cfg().max_retries {
                            rep.uncorrectable += 1;
                            break sums;
                        }
                        continue;
                    }
                    MemVerdict::Unlocatable => {
                        if !mem_fixed {
                            rep.mem_detected += 1;
                        }
                    }
                    MemVerdict::Clean => {}
                }
            }
            rep.subfft_recomputed += 1;
            if attempts > plan.cfg().max_retries {
                rep.uncorrectable += 1;
                break sums;
            }
        };
        // Position j1·m + j2 carries ω₃^{j2}·ω₃^{(m·j1) mod 3} and weight
        // j1·m + j2 + 1, so the column adds ω₃^{j2}·p to g1 and
        // ω₃^{j2}·(m·q + (j2+1)·p) to g2, (p, q) = sums.rotated(m).
        let (p, q) = sums.rotated(m);
        let w = omega3_pow(j2);
        g1 += w * p;
        g2 += w * (q.scale(m as f64) + p.scale((j2 + 1) as f64));
        two.scatter_output(out, j2, &ws.buf);
    }

    injector.inject(ctx, Site::OutputMemory, out);

    // ---- final CMCV over the output (§4.2) -------------------------------
    rep.checks += 1;
    let o1 = weighted_sum(out);
    let gate = ccv_with_sum(o1, g1, th.eta_mem_out);
    if !gate.ok {
        let mut o2 = Complex64::ZERO;
        for (pos, &v) in out.iter().enumerate() {
            o2 += (v * omega3_pow(pos)).scale((pos + 1) as f64);
        }
        let d1 = o1 - g1;
        let d2 = o2 - g2;
        let ratio = d2 / d1;
        let idx = ratio.re.round();
        let frac = (ratio.re - idx).abs().max(ratio.im.abs());
        if (1.0..=n as f64).contains(&idx) && frac <= 0.25 {
            let pos = idx as usize - 1;
            let delta = d1 / omega3_pow(pos);
            out[pos] -= delta;
            rep.mem_detected += 1;
            rep.mem_corrected += 1;
        } else {
            rep.mem_detected += 1;
            rep.uncorrectable += 1;
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FtConfig, Scheme};
    use ftfft_fault::{FaultKind, NoFaults, ScriptedFault, ScriptedInjector};
    use ftfft_fft::{dft_naive, Direction};
    use ftfft_numeric::{max_abs_diff, uniform_signal};

    fn run_opt(n: usize, inj: &dyn FaultInjector) -> (Vec<Complex64>, FtReport) {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
        let mut x = uniform_signal(n, 21);
        let mut out = vec![Complex64::ZERO; n];
        let mut ws = plan.make_workspace();
        let rep = plan.execute(&mut x, &mut out, inj, &mut ws);
        (out, rep)
    }

    #[test]
    fn fault_free_matches_dft() {
        for n in [64usize, 256, 1024, 4096] {
            let want = dft_naive(&uniform_signal(n, 21), Direction::Forward);
            let (out, rep) = run_opt(n, &NoFaults);
            assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64, "n={n}");
            assert!(rep.is_clean(), "n={n}: {rep:?}");
        }
    }

    #[test]
    fn input_memory_fault_detected_by_postponed_ccv_and_repaired() {
        let n = 1024;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::InputMemory,
            333,
            FaultKind::SetValue { re: -8.0, im: 3.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 21), Direction::Forward);
        let (out, rep) = run_opt(n, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn computational_fault_fixed_by_single_recompute() {
        let n = 1024;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::First, index: 12 },
            9,
            FaultKind::AddDelta { re: 5e-3, im: 0.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 21), Direction::Forward);
        let (out, rep) = run_opt(n, &inj);
        assert_eq!(rep.comp_detected, 1, "{rep:?}");
        assert_eq!(rep.subfft_recomputed, 1);
        assert_eq!(rep.mem_detected, 0);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn intermediate_fault_decoded_via_slots() {
        let n = 1024;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::IntermediateMemory,
            500,
            FaultKind::AddDelta { re: 2.0, im: -2.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 21), Direction::Forward);
        let (out, rep) = run_opt(n, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn output_fault_repaired_by_final_cmcv() {
        let n = 1024;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::OutputMemory,
            777,
            FaultKind::SetValue { re: 1.0, im: 1.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 21), Direction::Forward);
        let (out, rep) = run_opt(n, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn one_mem_plus_two_comp_faults_all_recovered() {
        // The Table 1 (1m + 2c) scenario.
        let n = 1024;
        let inj = ScriptedInjector::new(vec![
            ScriptedFault::new(Site::InputMemory, 100, FaultKind::SetValue { re: 3.0, im: 0.0 }),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 20 },
                1,
                FaultKind::AddDelta { re: 1e-2, im: 0.0 },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: 4 },
                8,
                FaultKind::AddDelta { re: 0.0, im: 1e-2 },
            ),
        ]);
        let want = dft_naive(&uniform_signal(n, 21), Direction::Forward);
        let (out, rep) = run_opt(n, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert_eq!(rep.comp_detected, 2);
        assert_eq!(rep.uncorrectable, 0);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn twiddle_fault_survived_by_dmr() {
        let n = 256;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::TwiddleDmrPass { pass: 0 },
            3,
            FaultKind::SetValue { re: 42.0, im: 0.0 },
        )
        .at_occurrence(5)]);
        let want = dft_naive(&uniform_signal(n, 21), Direction::Forward);
        let (out, rep) = run_opt(n, &inj);
        assert_eq!(rep.dmr_votes, 1, "{rep:?}");
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }
}
