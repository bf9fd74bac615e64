//! Double-modular-redundancy helpers.
//!
//! Algorithm 2 protects the two cheap-but-unverifiable stages with DMR:
//! input-checksum-vector generation (`O(√N)` work) and the twiddle
//! multiplication (memory-bound, `O(N)`). Each result is computed twice and
//! compared bit-for-bit; a mismatch triggers a third computation and a
//! majority vote (TMR tie-break), which corrects any single transient
//! error "in no time" (§7.1.2).

use ftfft_checksum::{input_checksum_vector_into, input_checksum_vector_naive_into};
use ftfft_fault::{FaultInjector, InjectionCtx, Site};
use ftfft_fft::Direction;
use ftfft_numeric::Complex64;

use crate::report::FtReport;

/// DMR-protected generation of the input checksum vector `rA`.
///
/// Allocating convenience wrapper over [`dmr_generate_ra_into`].
pub fn dmr_generate_ra(
    n: usize,
    dir: Direction,
    naive: bool,
    injector: &dyn FaultInjector,
    ctx: InjectionCtx,
    report: &mut FtReport,
) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; n];
    let mut tmp = vec![Complex64::ZERO; n];
    dmr_generate_ra_into(n, dir, naive, injector, ctx, report, &mut out, &mut tmp);
    out
}

/// DMR-protected generation of `rA` into `out[..n]`, using `tmp[..n]` for
/// the second pass — allocation-free on the clean path, so the hot-path
/// executors can run it against plan-workspace buffers every execute.
///
/// Both passes run the same generator; the injector may corrupt either
/// pass. On mismatch a third pass votes (this rare recovery path allocates
/// the tie-break vector). On return `out[..n]` holds the trusted vector.
#[allow(clippy::too_many_arguments)]
pub fn dmr_generate_ra_into(
    n: usize,
    dir: Direction,
    naive: bool,
    injector: &dyn FaultInjector,
    ctx: InjectionCtx,
    report: &mut FtReport,
    out: &mut [Complex64],
    tmp: &mut [Complex64],
) {
    let gen = |pass: u8, buf: &mut [Complex64]| {
        if naive {
            input_checksum_vector_naive_into(n, dir, buf);
        } else {
            input_checksum_vector_into(n, dir, buf);
        }
        injector.inject(ctx, Site::ChecksumGenPass { pass }, &mut buf[..n]);
    };
    gen(0, out);
    gen(1, tmp);
    if out[..n] != tmp[..n] {
        report.dmr_votes += 1;
        let mut c = vec![Complex64::ZERO; n];
        gen(2, &mut c);
        for ((va, &vb), &vc) in out[..n].iter_mut().zip(&tmp[..n]).zip(&c) {
            // Majority vote per element; with a single transient fault two
            // of the three passes agree.
            if *va != vb {
                *va = if vb == vc { vb } else { vc };
            }
        }
    }
}

/// DMR-protected pointwise multiply: `out[j] = data[j] · weight(j)`.
///
/// `scratch` must be at least `data.len()` long; the verified products are
/// written back into `data`.
pub fn dmr_twiddle(
    data: &mut [Complex64],
    weight: impl Fn(usize) -> Complex64,
    injector: &dyn FaultInjector,
    ctx: InjectionCtx,
    report: &mut FtReport,
    scratch: &mut [Complex64],
) {
    let n = data.len();
    debug_assert!(scratch.len() >= n);
    let pass0 = &mut scratch[..n];
    for (j, (s, &d)) in pass0.iter_mut().zip(data.iter()).enumerate() {
        *s = d * weight(j);
    }
    injector.inject(ctx, Site::TwiddleDmrPass { pass: 0 }, pass0);

    // Second pass computed element-wise against the first; the injector can
    // strike it through the single-value hook.
    for j in 0..n {
        let mut p1 = data[j] * weight(j);
        if j == 0 {
            injector.inject_value(ctx, Site::TwiddleDmrPass { pass: 1 }, &mut p1);
        }
        if p1 != pass0[j] {
            report.dmr_votes += 1;
            // Tie-break: third computation.
            let p2 = data[j] * weight(j);
            data[j] = if p2 == p1 { p1 } else { pass0[j] };
        } else {
            data[j] = p1;
        }
    }
}

/// [`dmr_twiddle`] over a contiguous weight slice, out of place:
/// `dst[j] = src[j] · weights[j]` — for the optimized executors, whose
/// twiddle weights are one row of the two-layer plan's twiddle matrix and
/// whose result goes straight to its row of the intermediate matrix.
///
/// Both passes compute the same operator product as [`dmr_twiddle`] (pass
/// 0 into `scratch[..n]`, pass 1 into `dst` with the comparison folded
/// into its loop), at the same `TwiddleDmrPass` sites. Only on a mismatch
/// does the per-element vote (third computation) run.
pub fn dmr_twiddle_into(
    src: &[Complex64],
    weights: &[Complex64],
    dst: &mut [Complex64],
    injector: &dyn FaultInjector,
    ctx: InjectionCtx,
    report: &mut FtReport,
    scratch: &mut [Complex64],
) {
    let n = dst.len();
    let (src, weights, pass0) = (&src[..n], &weights[..n], &mut scratch[..n]);
    for ((p0, &s), &w) in pass0.iter_mut().zip(src).zip(weights) {
        *p0 = s * w;
    }
    injector.inject(ctx, Site::TwiddleDmrPass { pass: 0 }, pass0);
    if n == 0 {
        return;
    }
    // Pass 1 straight into `dst`, folding the comparison into the same
    // loop; element 0 is peeled for the single-value fault hook.
    let mut p1 = src[0] * weights[0];
    injector.inject_value(ctx, Site::TwiddleDmrPass { pass: 1 }, &mut p1);
    dst[0] = p1;
    let mut mismatch = p1 != pass0[0];
    for ((d, &p0), (&s, &w)) in
        dst[1..].iter_mut().zip(&pass0[1..]).zip(src[1..].iter().zip(&weights[1..]))
    {
        let p1 = s * w;
        *d = p1;
        mismatch |= p1 != p0;
    }
    if mismatch {
        for ((d, &p0), (&s, &w)) in dst.iter_mut().zip(pass0.iter()).zip(src.iter().zip(weights)) {
            if *d != p0 {
                report.dmr_votes += 1;
                // Tie-break: third computation.
                let p2 = s * w;
                if p2 != *d {
                    *d = p0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_checksum::{input_checksum_vector, input_checksum_vector_naive};
    use ftfft_fault::{FaultKind, NoFaults, ScriptedFault, ScriptedInjector};
    use ftfft_numeric::complex::c64;
    use ftfft_numeric::uniform_signal;

    #[test]
    fn ra_generation_clean() {
        let mut rep = FtReport::new();
        let v = dmr_generate_ra(
            64,
            Direction::Forward,
            false,
            &NoFaults,
            InjectionCtx::default(),
            &mut rep,
        );
        assert_eq!(v, input_checksum_vector(64, Direction::Forward));
        assert_eq!(rep.dmr_votes, 0);
    }

    #[test]
    fn ra_generation_survives_pass0_fault() {
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::ChecksumGenPass { pass: 0 },
            7,
            FaultKind::AddDelta { re: 100.0, im: 0.0 },
        )]);
        let mut rep = FtReport::new();
        let v =
            dmr_generate_ra(64, Direction::Forward, false, &inj, InjectionCtx::default(), &mut rep);
        assert_eq!(v, input_checksum_vector(64, Direction::Forward));
        assert_eq!(rep.dmr_votes, 1);
    }

    #[test]
    fn ra_generation_survives_pass1_fault() {
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::ChecksumGenPass { pass: 1 },
            3,
            FaultKind::SetValue { re: 0.0, im: 0.0 },
        )]);
        let mut rep = FtReport::new();
        let v =
            dmr_generate_ra(32, Direction::Forward, true, &inj, InjectionCtx::default(), &mut rep);
        assert_eq!(v, input_checksum_vector_naive(32, Direction::Forward));
        assert_eq!(rep.dmr_votes, 1);
    }

    #[test]
    fn twiddle_clean_matches_direct_product() {
        let x = uniform_signal(16, 1);
        let w = |j: usize| c64(0.5, 0.0).scale(j as f64 + 1.0);
        let mut data = x.clone();
        let mut scratch = vec![Complex64::ZERO; 16];
        let mut rep = FtReport::new();
        dmr_twiddle(&mut data, w, &NoFaults, InjectionCtx::default(), &mut rep, &mut scratch);
        for (j, (&got, &orig)) in data.iter().zip(&x).enumerate() {
            assert_eq!(got, orig * w(j));
        }
        assert_eq!(rep.dmr_votes, 0);
    }

    #[test]
    fn slice_twiddle_clean_matches_closure_twiddle() {
        let x = uniform_signal(17, 1);
        let weights: Vec<_> = (0..17).map(|j| c64(0.5, -0.25).scale(j as f64 + 1.0)).collect();
        let mut a = x.clone();
        let mut b = vec![Complex64::ZERO; 17];
        let mut scratch = vec![Complex64::ZERO; 17];
        let mut rep = FtReport::new();
        let ctx = InjectionCtx::default();
        dmr_twiddle(&mut a, |j| weights[j], &NoFaults, ctx, &mut rep, &mut scratch);
        dmr_twiddle_into(&x, &weights, &mut b, &NoFaults, ctx, &mut rep, &mut scratch);
        assert_eq!(a, b);
        assert_eq!(rep.dmr_votes, 0);
    }

    #[test]
    fn twiddle_survives_pass0_fault() {
        let x = uniform_signal(16, 2);
        let weights = vec![c64(0.0, 1.0); 16];
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::TwiddleDmrPass { pass: 0 },
            5,
            FaultKind::AddDelta { re: -3.0, im: 7.0 },
        )]);
        let mut data = vec![Complex64::ZERO; 16];
        let mut scratch = vec![Complex64::ZERO; 16];
        let mut rep = FtReport::new();
        let ctx = InjectionCtx::default();
        dmr_twiddle_into(&x, &weights, &mut data, &inj, ctx, &mut rep, &mut scratch);
        for (&got, &orig) in data.iter().zip(&x) {
            assert_eq!(got, orig * c64(0.0, 1.0));
        }
        assert_eq!(rep.dmr_votes, 1);
    }

    #[test]
    fn twiddle_survives_pass1_fault() {
        let x = uniform_signal(8, 3);
        let weights = vec![c64(2.0, 0.0); 8];
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::TwiddleDmrPass { pass: 1 },
            0,
            FaultKind::AddDelta { re: 1.0, im: 1.0 },
        )]);
        let mut data = vec![Complex64::ZERO; 8];
        let mut scratch = vec![Complex64::ZERO; 8];
        let mut rep = FtReport::new();
        let ctx = InjectionCtx::default();
        dmr_twiddle_into(&x, &weights, &mut data, &inj, ctx, &mut rep, &mut scratch);
        for (&got, &orig) in data.iter().zip(&x) {
            assert_eq!(got, orig * c64(2.0, 0.0));
        }
        assert_eq!(rep.dmr_votes, 1);
    }
}
