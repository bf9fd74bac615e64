//! Online ABFT with the *unoptimized* memory hierarchy (Fig 2 of the paper).
//!
//! Classic `r₁/r₂` checksums, verify-before-use at every stage:
//!
//! ```text
//! MCG(inputs) → k × [MCV → CCG → m-FFT → CCV → MCG(row)]
//!            → MCV(rows) + MCG(columns)          // rearrangement re-checksum
//!            → m × [MCV(col) → TM(DMR) → CCG → k-FFT → CCV → MCG(out)]
//!            → final MCV(output)
//! ```
//!
//! Every element is read (at least) twice per boundary — the redundancy the
//! §4 optimizations remove. This scheme is the "Online" bar of Fig 7(b).

use ftfft_checksum::{
    ccv, combined_sum1, combined_sum1_strided, decode, mem_checksum, mem_checksum_strided,
    mem_verify,
};
use ftfft_fault::{FaultInjector, InjectionCtx, Part, Site};
use ftfft_numeric::Complex64;

use crate::dmr::{dmr_generate_ra_into, dmr_twiddle};
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
    let retries = plan.cfg().max_retries;
    // σ̂ from a streaming pre-pass: the input MCG below is k strided scans.
    let Some(th) = plan.thresholds_for_energy(ftfft_numeric::simd::energy(x)) else {
        return FtReport::unverifiable(out);
    };

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

    // MCG: classic checksum pair per m-point FFT input, strided scans.
    for n1 in 0..k {
        ws.in_mck[n1] = mem_checksum_strided(x, n1, k, m);
    }

    injector.inject(ctx, Site::InputMemory, x);

    // ---- part 1 ---------------------------------------------------------
    for n1 in 0..k {
        // MCV: verify (and repair) this FFT's input before use.
        let stored = ws.in_mck[n1];
        rep.repair_memory(
            x,
            |t| n1 + t * k,
            retries,
            |x| decode(mem_checksum_strided(x, n1, k, m), stored, m, th.eta_mem_in),
        );

        let cx = combined_sum1_strided(x, n1, k, ra_m);
        let mut attempts = 0u32;
        loop {
            two.gather_first(x, n1, &mut ws.buf);
            two.inner_fft(&mut ws.buf, &mut ws.fft);
            injector.inject(
                ctx,
                Site::SubFftCompute { part: Part::First, index: n1 },
                &mut ws.buf[..m],
            );
            rep.checks += 1;
            let o = ccv(&ws.buf[..m], cx, th.eta1);
            if o.ok {
                rep.note_ok_residual_part1(o.residual);
                break;
            }
            rep.comp_detected += 1;
            rep.subfft_recomputed += 1;
            attempts += 1;
            if attempts > retries {
                rep.uncorrectable += 1;
                break;
            }
        }
        // MCG of the produced (untwiddled) row.
        ws.row_ck[n1] = mem_checksum(&ws.buf[..m]);
        ws.y[n1 * m..(n1 + 1) * m].copy_from_slice(&ws.buf[..m]);
    }

    // ---- rearrangement re-checksum: MCV(rows) + MCG(columns) ------------
    for n1 in 0..k {
        let stored = ws.row_ck[n1];
        let row = &mut ws.y[n1 * m..(n1 + 1) * m];
        rep.repair_memory(row, |t| t, retries, |row| mem_verify(row, stored, th.eta_mem_mid));
    }
    for j2 in 0..m {
        ws.col_ck[j2] = mem_checksum_strided(&ws.y, j2, m, k);
    }

    injector.inject(ctx, Site::IntermediateMemory, &mut ws.y);

    // ---- part 2: groups of s k-point FFTs -------------------------------
    // Fig 2 verifies the second part in groups: one CCV covers `s` k-point
    // FFTs (their checksums are additive), so a detected error triggers
    // the recalculation of the whole group — the paper's "one error only
    // leads to a recalculation of … s k-point FFTs".
    let s = plan.cfg().batch_s.max(1);
    debug_assert!(ws.group_out.len() >= s * k);
    let eta_group = th.eta2 * (s as f64).sqrt();
    let mut j2_start = 0usize;
    while j2_start < m {
        let group = j2_start..(j2_start + s).min(m);
        // MCV of each column in the group before use.
        for j2 in group.clone() {
            let stored = ws.col_ck[j2];
            rep.repair_memory(
                &mut ws.y,
                |t| j2 + t * m,
                retries,
                |y| decode(mem_checksum_strided(y, j2, m, k), stored, k, th.eta_mem_mid),
            );
        }

        let mut attempts = 0u32;
        loop {
            let mut expected = Complex64::ZERO;
            let mut observed = Complex64::ZERO;
            for (gi, j2) in group.clone().enumerate() {
                two.gather_second(&ws.y, j2, &mut ws.buf);
                // Twiddle multiplication under DMR (Fig 2 places TM here).
                {
                    let col = &mut ws.buf[..k];
                    dmr_twiddle(
                        col,
                        |n1| two.twiddle_weight(n1, j2),
                        injector,
                        ctx,
                        &mut rep,
                        &mut ws.buf2,
                    );
                }
                expected += combined_sum1(&ws.buf[..k], ra_k);
                two.outer_fft(&mut ws.buf, &mut ws.fft);
                injector.inject(
                    ctx,
                    Site::SubFftCompute { part: Part::Second, index: j2 },
                    &mut ws.buf[..k],
                );
                observed += ftfft_checksum::weighted_sum(&ws.buf[..k]);
                ws.group_out[gi * k..(gi + 1) * k].copy_from_slice(&ws.buf[..k]);
            }
            rep.checks += 1;
            let o = ftfft_checksum::ccv_with_sum(observed, expected, eta_group);
            if o.ok {
                rep.note_ok_residual_part2(o.residual);
                break;
            }
            rep.comp_detected += 1;
            rep.subfft_recomputed += group.len() as u32;
            attempts += 1;
            if attempts > retries {
                rep.uncorrectable += 1;
                break;
            }
        }
        for (gi, j2) in group.clone().enumerate() {
            let seg = &ws.group_out[gi * k..(gi + 1) * k];
            ws.out_ck[j2] = mem_checksum(seg);
            two.scatter_output(out, j2, seg);
        }
        j2_start += s;
    }

    injector.inject(ctx, Site::OutputMemory, out);

    // ---- final MCV of the output ----------------------------------------
    for j2 in 0..m {
        let stored = ws.out_ck[j2];
        rep.repair_memory(
            out,
            |t| j2 + t * m,
            retries,
            |out| decode(mem_checksum_strided(out, j2, m, k), stored, k, th.eta_mem_out),
        );
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

    fn run_mem(n: usize, inj: &dyn FaultInjector) -> (Vec<Complex64>, FtReport) {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMem));
        let mut x = uniform_signal(n, 13);
        let mut out = vec![Complex64::ZERO; n];
        let mut ws = plan.make_workspace();
        let rep = plan.execute(&mut x, &mut out, inj, &mut ws);
        (out, rep)
    }

    #[test]
    fn fault_free_matches_dft() {
        for n in [64usize, 256, 1024] {
            let want = dft_naive(&uniform_signal(n, 13), Direction::Forward);
            let (out, rep) = run_mem(n, &NoFaults);
            assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64, "n={n}");
            assert!(rep.is_clean(), "n={n}: {rep:?}");
        }
    }

    #[test]
    fn input_memory_fault_located_and_corrected_before_use() {
        let n = 256;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::InputMemory,
            37,
            FaultKind::SetValue { re: 4.0, im: 4.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 13), Direction::Forward);
        let (out, rep) = run_mem(n, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert_eq!(rep.subfft_recomputed, 0, "repair happens before compute");
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn intermediate_memory_fault_corrected_by_column_mcv() {
        let n = 256;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::IntermediateMemory,
            100,
            FaultKind::AddDelta { re: -3.0, im: 1.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 13), Direction::Forward);
        let (out, rep) = run_mem(n, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn output_memory_fault_corrected_by_final_mcv() {
        let n = 256;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::OutputMemory,
            200,
            FaultKind::SetValue { re: 0.0, im: 0.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 13), Direction::Forward);
        let (out, rep) = run_mem(n, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn combined_memory_and_computational_faults() {
        let n = 1024;
        let inj = ScriptedInjector::new(vec![
            ScriptedFault::new(Site::InputMemory, 11, FaultKind::SetValue { re: 2.0, im: 2.0 }),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 7 },
                3,
                FaultKind::AddDelta { re: 1e-2, im: 0.0 },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: 20 },
                3,
                FaultKind::AddDelta { re: 0.0, im: 1e-2 },
            ),
            ScriptedFault::new(Site::OutputMemory, 900, FaultKind::SetValue { re: 9.0, im: 9.0 }),
        ]);
        let want = dft_naive(&uniform_signal(n, 13), Direction::Forward);
        let (out, rep) = run_mem(n, &inj);
        assert_eq!(rep.mem_detected, 2, "{rep:?}");
        assert_eq!(rep.mem_corrected, 2);
        assert_eq!(rep.comp_detected, 2);
        // One first-part redo plus one second-part *group* redo (s FFTs).
        assert_eq!(rep.subfft_recomputed, 1 + 8, "{rep:?}");
        assert_eq!(rep.uncorrectable, 0);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn batch_s_one_recomputes_single_subfft() {
        let n = 1024;
        let cfg = FtConfig::new(Scheme::OnlineMem).with_max_retries(3);
        let cfg = FtConfig { batch_s: 1, ..cfg };
        let plan = FtFftPlan::new(n, Direction::Forward, cfg);
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::Second, index: 20 },
            3,
            FaultKind::AddDelta { re: 1e-2, im: 0.0 },
        )]);
        let mut x = uniform_signal(n, 13);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute_alloc(&mut x, &mut out, &inj);
        assert_eq!(rep.comp_detected, 1, "{rep:?}");
        assert_eq!(rep.subfft_recomputed, 1);
        let want = dft_naive(&uniform_signal(n, 13), Direction::Forward);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn larger_batch_recomputes_whole_group() {
        let n = 1024;
        let cfg = FtConfig { batch_s: 4, ..FtConfig::new(Scheme::OnlineMem) };
        let plan = FtFftPlan::new(n, Direction::Forward, cfg);
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::Second, index: 9 },
            3,
            FaultKind::AddDelta { re: 1e-2, im: 0.0 },
        )]);
        let mut x = uniform_signal(n, 13);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute_alloc(&mut x, &mut out, &inj);
        assert_eq!(rep.comp_detected, 1, "{rep:?}");
        assert_eq!(rep.subfft_recomputed, 4, "group of s=4 redone");
        let want = dft_naive(&uniform_signal(n, 13), Direction::Forward);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }
}
