//! Protected **in-place** FFT (Fig 4, Fig 5, §5 of the paper).
//!
//! Parallel FFTW computes the per-processor `n`-point FFT (FFT 2) in place.
//! In-place execution breaks the restart-based recovery of the sequential
//! scheme: once a layer overwrites its input, a later detection cannot
//! recompute (Fig 5). The paper's fix for the `n = k·r·k` plan:
//!
//! * layers A and C (k-point FFTs) are ABFT-protected with *per-sub-FFT
//!   input backups* — verification happens **before** the output is
//!   scattered over the input slots (Fig 4's commit point);
//! * the small middle layer (r-point FFTs + twiddles, `r ∈ {1, 2, 8}`) is
//!   DMR-protected, so no restartable state is needed there;
//! * chunk-granular memory checksums accumulate incrementally during layer
//!   A so layer B can verify-before-use, and a whole-output pair is
//!   produced for the caller's final MCV.

use ftfft_checksum::{
    ccv, combined_checksum, combined_decode, combined_sum1, mem_checksum, mem_verify,
    CombinedChecksum, IncrementalSlots, MemChecksum, MemVerdict,
};
use ftfft_fault::{FaultInjector, InjectionCtx, Part, Site};
use ftfft_fft::{Direction, Planner, ThreeLayerPlan};
use ftfft_numeric::complex::c64;
use ftfft_numeric::{simd, Complex64};
use ftfft_roundoff::{
    checksum_roundoff_std, checksum_roundoff_std_second, input_sigma, memory_sum_roundoff_std,
    F64_MANTISSA_BITS, HEADROOM, MEMORY_HEADROOM,
};

use crate::dmr::dmr_generate_ra_into;
use crate::report::FtReport;

/// Plan for a protected in-place transform of size `n = k·r·k`.
pub struct InPlaceFtPlan {
    n: usize,
    three: ThreeLayerPlan,
    dir: Direction,
    max_retries: u32,
    /// η for layer-A k-point FFTs, at unit input scale.
    eta_a: f64,
    /// η for layer-C k-point FFTs, at unit input scale.
    eta_c: f64,
    /// Tolerance for chunk memory sums, at unit input scale.
    eta_mem: f64,
}

/// Working storage for [`InPlaceFtPlan::execute`].
pub struct InPlaceWorkspace {
    /// Gather/working buffer (`k.max(r)` long).
    pub buf: Vec<Complex64>,
    /// Backup buffer (`k` long) — Fig 4's input backup.
    pub backup: Vec<Complex64>,
    /// DMR first-pass buffer (`r·k` long).
    pub pass: Vec<Complex64>,
    /// DMR second-pass buffer (`r·k` long).
    pub pass_b: Vec<Complex64>,
    /// Sub-plan scratch.
    pub fft: Vec<Complex64>,
    /// Per-chunk classic memory checksum slots.
    pub chunk_ck: IncrementalSlots,
    /// Checksum vector for the k-point layers (generated per execute under
    /// DMR; cached here between retries).
    pub ra_k: Vec<Complex64>,
    /// Second DMR pass scratch for `rA` generation.
    pub ra_tmp: Vec<Complex64>,
}

impl InPlaceFtPlan {
    /// Plans a protected in-place FFT. Its thresholds are the §8 model at
    /// unit input scale; each execution scales them by the σ̂ of the data
    /// it is handed.
    pub fn new(n: usize, dir: Direction, max_retries: u32) -> Self {
        let planner = Planner::new();
        let three = ThreeLayerPlan::new(&planner, n, dir);
        let k = three.k();
        let r = three.r();
        let t = F64_MANTISSA_BITS;
        let sqrt_k = (k as f64).sqrt();
        let eta_a = HEADROOM * 3.0 * sqrt_k * checksum_roundoff_std(k, 1.0, t);
        let eta_c = HEADROOM * 3.0 * sqrt_k * checksum_roundoff_std_second(k, r * k, 1.0, t);
        let eta_mem = MEMORY_HEADROOM * memory_sum_roundoff_std(r * k, sqrt_k, t).max(f64::EPSILON);
        InPlaceFtPlan { n, three, dir, max_retries, eta_a, eta_c, eta_mem }
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The underlying three-layer decomposition.
    pub fn three(&self) -> &ThreeLayerPlan {
        &self.three
    }

    /// Layer-A detection threshold at unit input scale.
    pub fn eta_a(&self) -> f64 {
        self.eta_a
    }

    /// Layer-C detection threshold at unit input scale.
    pub fn eta_c(&self) -> f64 {
        self.eta_c
    }

    /// Allocates a workspace for this plan.
    pub fn make_workspace(&self) -> InPlaceWorkspace {
        let k = self.three.k();
        let r = self.three.r();
        InPlaceWorkspace {
            buf: vec![Complex64::ZERO; k.max(r)],
            backup: vec![Complex64::ZERO; k],
            pass: vec![Complex64::ZERO; r * k],
            pass_b: vec![Complex64::ZERO; r * k],
            fft: vec![
                Complex64::ZERO;
                self.three.k_plan().scratch_len().max(self.three.r_plan().scratch_len())
            ],
            chunk_ck: IncrementalSlots::new(k),
            ra_k: vec![Complex64::ZERO; k],
            ra_tmp: vec![Complex64::ZERO; k],
        }
    }

    /// Executes the protected in-place transform on `data`.
    ///
    /// `input_ck`, when provided, holds one combined checksum pair per
    /// layer-A sub-FFT (weights `rA_k`, as produced by
    /// [`ftfft_checksum::input_checksum_vector`] for size `k`), generated by
    /// the caller *before* the input was at risk — e.g. incrementally while
    /// receiving transpose-2 blocks (Fig 6's "MCV & TM & CMCG"). With the
    /// pairs, an input-memory corruption is located and repaired; without
    /// them the CCG is taken at gather time and earlier input corruption is
    /// outside the protection window (the caller's seals must cover it).
    ///
    /// Returns the report plus the whole-output classic checksum pair the
    /// caller can use for a postponed final MCV (e.g. after transpose 3 in
    /// the parallel scheme).
    pub fn execute(
        &self,
        data: &mut [Complex64],
        injector: &dyn FaultInjector,
        ws: &mut InPlaceWorkspace,
        rank: usize,
        input_ck: Option<&[CombinedChecksum]>,
    ) -> (FtReport, MemChecksum) {
        assert_eq!(data.len(), self.n);
        let ctx = InjectionCtx { rank };
        let mut rep = FtReport::new();
        let three = &self.three;
        let k = three.k();
        let r = three.r();
        let p = three.chunk_len();
        if let Some(cks) = input_ck {
            assert_eq!(cks.len(), p, "need one input pair per layer-A sub-FFT");
        }
        // σ̂ of the data handed in, before its input-memory window; no
        // finite scale means no threshold, so the run fails closed.
        let sigma = input_sigma(simd::energy(data), self.n);
        if !sigma.is_finite() {
            let rep = FtReport::unverifiable(data);
            return (rep, mem_checksum(data));
        }
        let (eta_a, eta_c, eta_mem) =
            (sigma * self.eta_a, sigma * self.eta_c, sigma * self.eta_mem);

        dmr_generate_ra_into(
            k,
            self.dir,
            false,
            injector,
            ctx,
            &mut rep,
            &mut ws.ra_k,
            &mut ws.ra_tmp,
        );
        ws.chunk_ck.reset();

        injector.inject(ctx, Site::InputMemory, data);

        // ---- layer A: P = r·k k-point FFTs, in place with backup ---------
        for p1 in 0..p {
            // The gather buffer *is* the backup: source slots stay intact
            // until the verified scatter below (Fig 4 commit protocol).
            three.gather_a(data, p1, &mut ws.backup);
            let stored = match input_ck {
                Some(cks) => cks[p1],
                None => CombinedChecksum {
                    sum1: combined_sum1(&ws.backup[..k], &ws.ra_k),
                    sum2: Complex64::ZERO,
                },
            };
            let mut attempts = 0u32;
            let mut mem_fixed = false;
            let mut saw_error = false;
            loop {
                ws.buf[..k].copy_from_slice(&ws.backup[..k]);
                {
                    let InPlaceWorkspace { buf, fft, .. } = ws;
                    three.fft_k_inplace(&mut buf[..k], fft);
                }
                injector.inject(
                    ctx,
                    Site::SubFftCompute { part: Part::First, index: p1 },
                    &mut ws.buf[..k],
                );
                rep.checks += 1;
                let o = ccv(&ws.buf[..k], stored.sum1, eta_a);
                if o.ok {
                    rep.note_ok_residual_part1(o.residual);
                    if saw_error && !mem_fixed {
                        rep.comp_detected += 1;
                    }
                    break;
                }
                saw_error = true;
                attempts += 1;
                if attempts == 1 {
                    rep.subfft_recomputed += 1;
                    continue;
                }
                if input_ck.is_some() {
                    // Persistent mismatch with caller-provided pairs:
                    // suspect corrupted input; decode, repair, re-gather.
                    // Iterated so huge deltas converge (see memory_ft_opt).
                    rep.checks += 1;
                    let observed = combined_checksum(&ws.backup[..k], &ws.ra_k);
                    match combined_decode(observed, stored, &ws.ra_k, k, eta_a) {
                        MemVerdict::Located { index, delta } => {
                            if !mem_fixed {
                                rep.mem_detected += 1;
                            }
                            rep.mem_corrected += 1;
                            mem_fixed = true;
                            data[index * p + p1] -= delta;
                            three.gather_a(data, p1, &mut ws.backup);
                            rep.subfft_recomputed += 1;
                            if attempts > self.max_retries {
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
                if attempts > self.max_retries {
                    rep.uncorrectable += 1;
                    break;
                }
            }
            // Verified: commit (overwrite the input slots) and fold into the
            // per-chunk memory slots.
            ws.chunk_ck.accumulate_row(Complex64::ONE, c64((p1 + 1) as f64, 0.0), &ws.buf[..k]);
            three.scatter_a(data, p1, &ws.buf);
        }

        injector.inject(ctx, Site::IntermediateMemory, data);

        // ---- layers B + C, chunk by chunk ---------------------------------
        let mut out_sum = Complex64::ZERO;
        let mut out_wsum = Complex64::ZERO;
        for j2 in 0..k {
            let chunk_range = j2 * p..(j2 + 1) * p;

            // MCV: verify the chunk against its incremental slot pair
            // before the middle layer consumes it.
            let stored = {
                let c = ws.chunk_ck.column_checksum(j2);
                MemChecksum { sum: c.sum1, wsum: c.sum2 }
            };
            let chunk = &mut data[chunk_range.clone()];
            rep.repair_memory(chunk, |t| t, self.max_retries, |c| mem_verify(c, stored, eta_mem));

            // Middle layer under DMR: twiddles + r-point FFTs (pure twiddle
            // when r == 1). Computed twice into `pass`, compared, voted.
            {
                let chunk = &mut data[chunk_range.clone()];
                self.middle_dmr(chunk, j2, injector, ctx, &mut rep, ws);
            }

            // Layer C: r contiguous k-point FFTs, each with backup + CCV.
            for j2r in 0..r {
                let seg_range = j2 * p + j2r * k..j2 * p + (j2r + 1) * k;
                ws.backup[..k].copy_from_slice(&data[seg_range.clone()]);
                let cx = combined_sum1(&ws.backup[..k], &ws.ra_k);
                let mut attempts = 0u32;
                loop {
                    ws.buf[..k].copy_from_slice(&ws.backup[..k]);
                    {
                        let InPlaceWorkspace { buf, fft, .. } = ws;
                        three.fft_k_inplace(&mut buf[..k], fft);
                    }
                    injector.inject(
                        ctx,
                        Site::SubFftCompute { part: Part::Second, index: j2 * r + j2r },
                        &mut ws.buf[..k],
                    );
                    rep.checks += 1;
                    let o = ccv(&ws.buf[..k], cx, eta_c);
                    if o.ok {
                        rep.note_ok_residual_part2(o.residual);
                        break;
                    }
                    rep.comp_detected += 1;
                    rep.subfft_recomputed += 1;
                    attempts += 1;
                    if attempts > self.max_retries {
                        rep.uncorrectable += 1;
                        break;
                    }
                }
                data[seg_range].copy_from_slice(&ws.buf[..k]);
            }

            // In-chunk unscramble.
            let chunk = &mut data[chunk_range];
            ftfft_fft::strided::transpose_inplace(chunk, r, k);
        }

        // Final global transpose to natural order, then the whole-output
        // pair for the caller's postponed MCV.
        three.final_transpose(data);
        for (g, &v) in data.iter().enumerate() {
            out_sum += v;
            out_wsum += v.scale((g + 1) as f64);
        }
        injector.inject(ctx, Site::OutputMemory, data);

        (rep, MemChecksum { sum: out_sum, wsum: out_wsum })
    }

    /// DMR-protected middle layer for one chunk.
    fn middle_dmr(
        &self,
        chunk: &mut [Complex64],
        j2: usize,
        injector: &dyn FaultInjector,
        ctx: InjectionCtx,
        rep: &mut FtReport,
        ws: &mut InPlaceWorkspace,
    ) {
        let three = &self.three;
        let p = three.chunk_len();
        debug_assert_eq!(chunk.len(), p);

        let compute = |ws: &mut InPlaceWorkspace, out: &mut [Complex64], chunk: &[Complex64]| {
            let k = three.k();
            let r = three.r();
            if r == 1 {
                for (p1, (o, &v)) in out.iter_mut().zip(chunk.iter()).enumerate() {
                    *o = v * three.twiddle_n_weight(p1, j2);
                }
                return;
            }
            for n1 in 0..k {
                for (t, slot) in ws.buf[..r].iter_mut().enumerate() {
                    let p1 = t * k + n1;
                    *slot = chunk[p1] * three.twiddle_n_weight(p1, j2);
                }
                {
                    let InPlaceWorkspace { buf, fft, .. } = ws;
                    three.fft_r_inplace(&mut buf[..r], fft);
                }
                for (j2r, &v) in ws.buf[..r].iter().enumerate() {
                    out[j2r * k + n1] = v * three.twiddle_p_weight(n1, j2r);
                }
            }
        };

        // Two redundant passes; either is injectable.
        let mut pass0 = std::mem::take(&mut ws.pass);
        compute(ws, &mut pass0[..p], chunk);
        injector.inject(
            ctx,
            Site::SubFftCompute { part: Part::Middle, index: j2 },
            &mut pass0[..p],
        );
        let mut pass1 = std::mem::take(&mut ws.pass_b);
        compute(ws, &mut pass1[..p], chunk);

        if pass0[..p] != pass1[..p] {
            rep.dmr_votes += 1;
            // Tie-break with a third pass (fault path only); majority vote.
            let mut pass2 = vec![Complex64::ZERO; p];
            compute(ws, &mut pass2[..p], chunk);
            for i in 0..p {
                chunk[i] = if pass0[i] == pass1[i] {
                    pass0[i]
                } else if pass1[i] == pass2[i] {
                    pass1[i]
                } else {
                    pass0[i]
                };
            }
        } else {
            chunk.copy_from_slice(&pass0[..p]);
        }
        ws.pass = pass0;
        ws.pass_b = pass1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_checksum::decode;
    use ftfft_fault::{FaultKind, NoFaults, ScriptedFault, ScriptedInjector};
    use ftfft_fft::dft_naive;
    use ftfft_numeric::{max_abs_diff, uniform_signal};

    fn run_inplace(n: usize, inj: &dyn FaultInjector) -> (Vec<Complex64>, FtReport) {
        let plan = InPlaceFtPlan::new(n, Direction::Forward, 3);
        let mut data = uniform_signal(n, 33);
        let mut ws = plan.make_workspace();
        let (rep, out_ck) = plan.execute(&mut data, inj, &mut ws, 0, None);
        // Caller-side final MCV.
        let observed = mem_checksum(&data);
        let v = decode(observed, out_ck, n, 1e-6);
        if let MemVerdict::Located { index, delta } = v {
            data[index] -= delta;
        }
        (data, rep)
    }

    #[test]
    fn fault_free_matches_dft_square_and_nonsquare() {
        for n in [64usize, 256, 512, 1024, 2048] {
            let want = dft_naive(&uniform_signal(n, 33), Direction::Forward);
            let (out, rep) = run_inplace(n, &NoFaults);
            assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64, "n={n}");
            assert!(rep.is_clean(), "n={n}: {rep:?}");
        }
    }

    #[test]
    fn layer_a_fault_recovered_from_backup() {
        let n = 512; // k=16, r=2
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::First, index: 5 },
            3,
            FaultKind::AddDelta { re: 1e-2, im: 0.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 33), Direction::Forward);
        let (out, rep) = run_inplace(n, &inj);
        assert_eq!(rep.comp_detected, 1, "{rep:?}");
        assert_eq!(rep.subfft_recomputed, 1);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn middle_layer_fault_survived_by_dmr() {
        let n = 512;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::Middle, index: 3 },
            7,
            FaultKind::SetValue { re: 5.0, im: 5.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 33), Direction::Forward);
        let (out, rep) = run_inplace(n, &inj);
        assert_eq!(rep.dmr_votes, 1, "{rep:?}");
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn layer_c_fault_recovered_from_backup() {
        let n = 1024;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::Second, index: 9 },
            11,
            FaultKind::AddDelta { re: 0.0, im: 3e-3 },
        )]);
        let want = dft_naive(&uniform_signal(n, 33), Direction::Forward);
        let (out, rep) = run_inplace(n, &inj);
        assert_eq!(rep.comp_detected, 1, "{rep:?}");
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn intermediate_memory_fault_corrected_by_chunk_mcv() {
        let n = 512;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::IntermediateMemory,
            77,
            FaultKind::AddDelta { re: 4.0, im: -4.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 33), Direction::Forward);
        let (out, rep) = run_inplace(n, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn output_memory_fault_corrected_by_caller_final_mcv() {
        let n = 512;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::OutputMemory,
            123,
            FaultKind::SetValue { re: -1.0, im: 1.0 },
        )]);
        let want = dft_naive(&uniform_signal(n, 33), Direction::Forward);
        let (out, _rep) = run_inplace(n, &inj);
        assert!(max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }
}
