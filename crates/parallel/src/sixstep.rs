//! The six-step parallel in-place FFT with online ABFT (§5–§6, Fig 6).
//!
//! Global layout: `N = p·n` with rank `r` owning `x[r·n .. (r+1)·n]`.
//! Using the split `N = n × p` (inner p-point DFTs over the rank axis):
//!
//! 1. **Tran1** — block transpose so rank `r` holds the `n/p` columns
//!    `c ∈ [r·n/p, (r+1)·n/p)` of the `p × n` matrix;
//! 2. **FFT1** — `n/p` p-point FFTs (stride `n/p`), each ABFT-protected in
//!    FT mode with incremental input pairs generated while receiving;
//! 3. **Tran2** — block transpose delivering `Z[c] = Y[c][rank]` for all
//!    `c`; the twiddle `ω_N^{c·rank}` (DMR in FT mode) and the FFT2 input
//!    CMCG are applied per received block — overlapped in `opt` modes;
//! 4. **FFT2** — the local n-point in-place transform: plain three-layer,
//!    or [`InPlaceFtPlan`] with per-sub-FFT backups and a DMR middle layer;
//! 5. **Tran3** — block transpose of the decimated output, followed by the
//!    local interleave `out[u·p + src] = block_src[u]`.
//!
//! Communication blocks carry two checksum words in FT mode (repair of
//! single in-flight corruptions); the pipelined transpose of Algorithm 3
//! hides block generation, verification, twiddles and CMCG behind the
//! in-flight windows.

use std::sync::Arc;

use ftfft_checksum::{
    ccv, combined_checksum, combined_decode, input_checksum_vector, mem_verify, CombinedChecksum,
    IncrementalSlots, MemVerdict,
};
use ftfft_core::{FtReport, InPlaceFtPlan};
use ftfft_fault::{FaultInjector, InjectionCtx, Part, Site};
use ftfft_fft::{Direction, FftPlan, Planner, ThreeLayerPlan};
use ftfft_numeric::simd::{self, EnergyAcc};
use ftfft_numeric::{cis, Complex64};
use ftfft_roundoff::{checksum_roundoff_std, input_sigma, F64_MANTISSA_BITS, HEADROOM};

use crate::machine::{run_ranks, Comm};
use crate::network::NetworkModel;
use crate::scheme::ParallelScheme;
use crate::transpose::{exchange, BlockProtection};

/// A reusable parallel FFT plan.
pub struct ParallelFft {
    n_total: usize,
    p: usize,
    scheme: ParallelScheme,
    network: Option<NetworkModel>,
    max_retries: u32,
    /// p-point sub-plan for FFT1.
    fft_p: Arc<FftPlan>,
    /// `rA` for the p-point FFTs.
    ra_p: Vec<Complex64>,
    /// Protected FFT2 plan (FT modes).
    inplace: Arc<InPlaceFtPlan>,
    /// Plain FFT2 plan.
    three: Arc<ThreeLayerPlan>,
    /// `rA` for FFT2's k-point layers (caller-side CMCG weights).
    ra_k2: Vec<Complex64>,
    /// CCV threshold for the p-point FFT1 transforms, at unit input scale.
    eta_fft1: f64,
}

/// Tolerance for communication-block and output memory sums, relative to
/// the input scale σ̂: generous (block sums over `n/p` values grow with
/// every stage) but still far below any injected fault.
const TOL_COMM: f64 = 1e-6;

impl ParallelFft {
    /// Plans a parallel FFT of `n_total` points over `p` ranks.
    ///
    /// # Panics
    /// Panics unless `p ≥ 1`, `p² | n_total` (the six-step layout needs
    /// `n/p` whole blocks per rank).
    pub fn new(
        n_total: usize,
        p: usize,
        scheme: ParallelScheme,
        network: Option<NetworkModel>,
        max_retries: u32,
    ) -> Self {
        assert!(p >= 1, "need at least one rank");
        assert!(
            n_total.is_multiple_of(p * p),
            "six-step layout needs p² | N (got N={n_total}, p={p})"
        );
        let n = n_total / p;
        let dir = Direction::Forward;
        let planner = Planner::new();
        let fft_p = planner.plan(p, dir);
        let ra_p = input_checksum_vector(p, dir);
        let inplace = Arc::new(InPlaceFtPlan::new(n, dir, max_retries));
        let three = Arc::new(ThreeLayerPlan::new(&planner, n, dir));
        let ra_k2 = input_checksum_vector(inplace.three().k(), dir);
        let t = F64_MANTISSA_BITS;
        let eta_fft1 =
            (HEADROOM * 3.0 * (p as f64).sqrt() * checksum_roundoff_std(p, 1.0, t)).max(1e-12);
        ParallelFft {
            n_total,
            p,
            scheme,
            network,
            max_retries,
            fft_p,
            ra_p,
            inplace,
            three,
            ra_k2,
            eta_fft1,
        }
    }

    /// Total transform size.
    pub fn n_total(&self) -> usize {
        self.n_total
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// Scheme in force.
    pub fn scheme(&self) -> ParallelScheme {
        self.scheme
    }

    /// Runs the transform on `input` (length `n_total`), returning the
    /// output in natural order and the merged per-rank report.
    pub fn run(
        &self,
        input: &[Complex64],
        injector: &dyn FaultInjector,
    ) -> (Vec<Complex64>, FtReport) {
        assert_eq!(input.len(), self.n_total);
        let n = self.n_total / self.p;
        let results = run_ranks(self.p, self.network, |comm| {
            let rank = comm.rank();
            let local = input[rank * n..(rank + 1) * n].to_vec();
            self.run_rank(&comm, local, injector)
        });
        let mut out = Vec::with_capacity(self.n_total);
        let mut rep = FtReport::new();
        for (local_out, local_rep) in results {
            out.extend_from_slice(&local_out);
            rep.merge(&local_rep);
        }
        (out, rep)
    }

    /// One rank's pipeline (exposed for the harness' per-rank timing).
    pub fn run_rank(
        &self,
        comm: &Comm,
        x: Vec<Complex64>,
        injector: &dyn FaultInjector,
    ) -> (Vec<Complex64>, FtReport) {
        let p = self.p;
        let rank = comm.rank();
        let n = self.n_total / p;
        let b = n / p;
        let ctx = InjectionCtx { rank };
        let ft = self.scheme.protected();
        let ov = self.scheme.overlap();
        let mut rep = FtReport::new();
        let protection = |phase: u8| {
            if ft {
                BlockProtection::Sealed { phase }
            } else {
                BlockProtection::None
            }
        };

        // ---- Tran1: gather this rank's columns -------------------------
        // Tran1's blocks carry this rank's input, so their tolerance is
        // relative to its σ̂; every later check is relative to the σ̂ of
        // the FFT1 input assembled here (measured while receiving, before
        // its input-memory window).
        let tol1 = input_sigma(simd::energy(&x), n) * TOL_COMM;
        let mut bmat = vec![Complex64::ZERO; n];
        let mut slots1 = IncrementalSlots::new(b);
        let mut energy = EnergyAcc::new();
        {
            let slots1 = &mut slots1;
            let energy = &mut energy;
            let ra_p = &self.ra_p;
            let r = exchange(
                comm,
                protection(1),
                tol1,
                ov,
                injector,
                |dest| x[dest * b..(dest + 1) * b].to_vec(),
                |src, payload| {
                    bmat[src * b..(src + 1) * b].copy_from_slice(payload);
                    energy.accumulate(payload);
                    if ft {
                        // Incremental CMCG for the p-point FFT inputs
                        // (Fig 6: "MCV & CMCG" overlapped with Tran1).
                        let w1 = ra_p[src];
                        let w2 = w1.scale((src + 1) as f64);
                        slots1.accumulate_row(w1, w2, payload);
                    }
                },
            );
            rep.merge(&r);
        }
        let sigma = input_sigma(energy.finish(), n);
        let (eta_fft1, tol_comm) = (sigma * self.eta_fft1, sigma * TOL_COMM);

        // Memory window on the assembled FFT1 input.
        injector.inject(ctx, Site::InputMemory, &mut bmat);

        // ---- FFT1: n/p p-point FFTs (stride n/p) ------------------------
        if !ft {
            // Unprotected path: the b stride-b column transforms are one
            // batched call — transpose the p×b block matrix so each
            // p-point input is contiguous, run the batch against a single
            // scratch, transpose back. Same transform values as the
            // per-column gather/FFT/scatter loop of the FT path, but two
            // linear passes replace b strided gather/scatter pairs.
            let mut cols = vec![Complex64::ZERO; n];
            ftfft_fft::strided::transpose_out_of_place(&bmat, &mut cols, p, b);
            let mut fft_scratch = vec![Complex64::ZERO; self.fft_p.scratch_len()];
            self.fft_p.execute_batch_inplace(&mut cols, &mut fft_scratch);
            ftfft_fft::strided::transpose_out_of_place(&cols, &mut bmat, b, p);
        } else {
            let mut buf = vec![Complex64::ZERO; p];
            let mut backup = vec![Complex64::ZERO; p];
            let mut fft_scratch = vec![Complex64::ZERO; self.fft_p.scratch_len()];
            for t in 0..b {
                ftfft_fft::strided::gather(&bmat, t, b, &mut backup);
                let stored = slots1.column_checksum(t);
                let mut attempts = 0u32;
                let mut mem_fixed = false;
                let mut saw_error = false;
                loop {
                    buf.copy_from_slice(&backup);
                    self.fft_p.execute_inplace(&mut buf, &mut fft_scratch);
                    injector.inject(
                        ctx,
                        Site::SubFftCompute { part: Part::First, index: t },
                        &mut buf,
                    );
                    rep.checks += 1;
                    let o = ccv(&buf, stored.sum1, eta_fft1);
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
                    {
                        rep.checks += 1;
                        let observed = combined_checksum(&backup, &self.ra_p);
                        match combined_decode(observed, stored, &self.ra_p, p, eta_fft1) {
                            MemVerdict::Located { index, delta } => {
                                if !mem_fixed {
                                    rep.mem_detected += 1;
                                }
                                rep.mem_corrected += 1;
                                mem_fixed = true;
                                bmat[t + index * b] -= delta;
                                ftfft_fft::strided::gather(&bmat, t, b, &mut backup);
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
                ftfft_fft::strided::scatter(&mut bmat, t, b, &buf);
            }
        }

        // ---- Tran2 + twiddle + FFT2 input CMCG ---------------------------
        let p2_chunks = self.inplace.three().chunk_len();
        let mut z = vec![Complex64::ZERO; n];
        let mut in_ck2 = vec![CombinedChecksum::default(); p2_chunks];
        // ω_N^{c·rank}, c walking each received block; incremental with
        // periodic re-anchoring (O(1) trig per 64 elements).
        let step = cis(-2.0 * std::f64::consts::PI * rank as f64 / self.n_total as f64);
        let mut tw_buf = vec![Complex64::ZERO; b];
        let mut dmr_scratch = vec![Complex64::ZERO; b];
        {
            let z = &mut z;
            let in_ck2 = &mut in_ck2;
            let mut tran2_rep = FtReport::new();
            let r = {
                let tran2_rep = &mut tran2_rep;
                exchange(
                    comm,
                    protection(2),
                    tol_comm,
                    ov,
                    injector,
                    |dest| bmat[dest * b..(dest + 1) * b].to_vec(),
                    |src, payload| {
                        // Twiddle weights for global columns c = src·b + u.
                        let c0 = src * b;
                        const RESYNC: usize = 64;
                        let mut u = 0usize;
                        while u < b {
                            let anchor = cis(-2.0
                                * std::f64::consts::PI
                                * ((c0 + u) as u128 * rank as u128 % self.n_total as u128) as f64
                                / self.n_total as f64);
                            let mut w = anchor;
                            let blocklen = RESYNC.min(b - u);
                            for v in tw_buf[u..u + blocklen].iter_mut() {
                                *v = w;
                                w *= step;
                            }
                            u += blocklen;
                        }
                        if ft {
                            ftfft_core::dmr::dmr_twiddle(
                                payload,
                                |j| tw_buf[j],
                                injector,
                                ctx,
                                tran2_rep,
                                &mut dmr_scratch,
                            );
                            // CMCG for FFT2's layer-A sub-FFTs.
                            for (u, &v) in payload.iter().enumerate() {
                                let g = c0 + u;
                                let p1 = g % p2_chunks;
                                let t2 = g / p2_chunks;
                                let w = self.ra_k2[t2];
                                let term = v * w;
                                in_ck2[p1].sum1 += term;
                                in_ck2[p1].sum2 += term.scale((t2 + 1) as f64);
                            }
                        } else {
                            for (v, &w) in payload.iter_mut().zip(tw_buf.iter()) {
                                *v *= w;
                            }
                        }
                        z[src * b..(src + 1) * b].copy_from_slice(payload);
                    },
                )
            };
            rep.merge(&r);
            rep.merge(&tran2_rep);
        }

        // ---- FFT2: local n-point in-place transform ----------------------
        let out_pair = if ft {
            let mut ws = self.inplace.make_workspace();
            let (r, pair) = self.inplace.execute(&mut z, injector, &mut ws, rank, Some(&in_ck2));
            rep.merge(&r);
            // Postponed MCV of the whole FFT2 output before it is scattered
            // (repairs e.g. the OutputMemory window inside execute).
            rep.repair_memory(&mut z, |i| i, self.max_retries, |z| mem_verify(z, pair, tol_comm));
            Some(pair)
        } else {
            let mut s = self.three.make_scratch();
            self.three.execute_inplace(&mut z, &mut s);
            None
        };
        let _ = out_pair;

        // ---- Tran3 + local interleave ------------------------------------
        let mut out = vec![Complex64::ZERO; n];
        {
            let out = &mut out;
            let r = exchange(
                comm,
                protection(3),
                tol_comm,
                ov,
                injector,
                |dest| z[dest * b..(dest + 1) * b].to_vec(),
                |src, payload| {
                    for (u, &v) in payload.iter().enumerate() {
                        out[u * p + src] = v;
                    }
                },
            );
            rep.merge(&r);
        }

        drop(x);
        (out, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_fault::{FaultKind, NoFaults, ScriptedFault, ScriptedInjector};
    use ftfft_fft::dft_naive;
    use ftfft_numeric::{max_abs_diff, uniform_signal};

    fn check_scheme(n: usize, p: usize, scheme: ParallelScheme) {
        let plan = ParallelFft::new(n, p, scheme, None, 3);
        let x = uniform_signal(n, 99);
        let want = dft_naive(&x, Direction::Forward);
        let (got, rep) = plan.run(&x, &NoFaults);
        assert!(
            max_abs_diff(&got, &want) < 1e-8 * n as f64,
            "{scheme:?} n={n} p={p}: err {}",
            max_abs_diff(&got, &want)
        );
        assert!(rep.is_clean(), "{scheme:?}: {rep:?}");
    }

    #[test]
    fn all_schemes_match_dft() {
        for scheme in ParallelScheme::ALL {
            check_scheme(1 << 10, 4, scheme);
        }
    }

    #[test]
    fn various_rank_counts() {
        for p in [1usize, 2, 4, 8] {
            check_scheme(1 << 12, p, ParallelScheme::OptFtFftw);
        }
    }

    #[test]
    fn non_power_of_two_ranks() {
        check_scheme(3 * 3 * 256, 3, ParallelScheme::OptFtFftw);
    }

    #[test]
    fn comm_fault_repaired() {
        let n = 1 << 10;
        let p = 4;
        let plan = ParallelFft::new(n, p, ParallelScheme::FtFftw, None, 3);
        let x = uniform_signal(n, 99);
        let want = dft_naive(&x, Direction::Forward);
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::CommBlock { from: 0, to: 2, phase: 2 },
            10,
            FaultKind::AddDelta { re: 3.0, im: -1.0 },
        )]);
        let (got, rep) = plan.run(&x, &inj);
        assert_eq!(rep.comm_corrected, 1, "{rep:?}");
        assert!(max_abs_diff(&got, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn fft1_compute_fault_recovered() {
        let n = 1 << 10;
        let p = 4;
        let plan = ParallelFft::new(n, p, ParallelScheme::OptFtFftw, None, 3);
        let x = uniform_signal(n, 99);
        let want = dft_naive(&x, Direction::Forward);
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::First, index: 5 },
            1,
            FaultKind::AddDelta { re: 1e-2, im: 0.0 },
        )
        .on_rank(2)]);
        let (got, rep) = plan.run(&x, &inj);
        assert!(rep.comp_detected >= 1, "{rep:?}");
        assert!(rep.subfft_recomputed >= 1);
        assert!(max_abs_diff(&got, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn fft1_input_memory_fault_located() {
        let n = 1 << 12;
        let p = 4;
        let plan = ParallelFft::new(n, p, ParallelScheme::FtFftw, None, 3);
        let x = uniform_signal(n, 99);
        let want = dft_naive(&x, Direction::Forward);
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::InputMemory,
            123,
            FaultKind::SetValue { re: 5.0, im: 5.0 },
        )
        .on_rank(1)]);
        let (got, rep) = plan.run(&x, &inj);
        assert_eq!(rep.mem_detected, 1, "{rep:?}");
        assert_eq!(rep.mem_corrected, 1);
        assert!(max_abs_diff(&got, &want) < 1e-8 * n as f64);
    }

    #[test]
    fn faults_on_every_rank_all_recovered() {
        // Table 2/3 scenario: 2 memory + 2 computational faults per rank.
        let n = 1 << 12;
        let p = 4;
        let plan = ParallelFft::new(n, p, ParallelScheme::OptFtFftw, None, 3);
        let x = uniform_signal(n, 99);
        let want = dft_naive(&x, Direction::Forward);
        let mut faults = Vec::new();
        for r in 0..p {
            faults.push(
                ScriptedFault::new(
                    Site::InputMemory,
                    7 + r,
                    FaultKind::SetValue { re: 2.0, im: 2.0 },
                )
                .on_rank(r),
            );
            faults.push(
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::First, index: 2 },
                    3,
                    FaultKind::AddDelta { re: 1e-2, im: 0.0 },
                )
                .on_rank(r),
            );
            faults.push(
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::Second, index: 1 },
                    2,
                    FaultKind::AddDelta { re: 0.0, im: 1e-2 },
                )
                .on_rank(r),
            );
            faults.push(
                ScriptedFault::new(
                    Site::IntermediateMemory,
                    50 + r,
                    FaultKind::AddDelta { re: 1.0, im: -1.0 },
                )
                .on_rank(r),
            );
        }
        let inj = ScriptedInjector::new(faults);
        let (got, rep) = plan.run(&x, &inj);
        assert_eq!(rep.uncorrectable, 0, "{rep:?}");
        assert!(rep.mem_corrected >= 2 * p as u32 - 1, "{rep:?}");
        assert!(max_abs_diff(&got, &want) < 1e-8 * n as f64);
    }
}
