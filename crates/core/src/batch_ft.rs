//! Batch-level two-sided checksum executor
//! ([`Scheme::BatchChecksum`](crate::Scheme::BatchChecksum)).
//!
//! Protects `B` same-size transforms with checksum transforms by FFT
//! linearity: a weighted input combination `c = Σᵢ wᵢ·xᵢ` is transformed
//! alongside the `B` members and `FFT(c) = Σᵢ wᵢ·FFT(xᵢ)` is verified
//! per frequency bin.
//!
//! The two sides are priced asymmetrically:
//!
//! * **Side 1** (`w¹ᵢ = 1`) is the *detection* side and the only
//!   clean-path cost: one extra transform amortized over the whole batch
//!   plus an add-only sweep per member — `1/B` transform overhead,
//!   versus the per-transform checksum pipeline Opt-Online weaves into
//!   every member.
//! * **Side 2** (`w²ᵢ = i+1`) is the *localization* side and is built
//!   **lazily**, only when side 1 flags a fault. The member inputs never
//!   change, so its combine + transform are computed once and stay valid
//!   across repair retries.
//!
//! Localization is the two-vector scheme of
//! [`ftfft_checksum::batch_localize`]: the side-2/side-1 residual ratio
//! names the faulty member, side-only residuals name a faulty checksum
//! transform, and anything inconsistent comes back
//! [`BatchVerdict::Ambiguous`]. Repair recomputes *only* the implicated
//! members, each under the plan's self-verifying Opt-Online repair plan
//! so a recomputed member is itself protected; a checksum-side fault
//! re-runs just that combine + FFT. Every repair is re-verified by the
//! next round of the detection loop, bounded by `cfg.max_retries`.
//!
//! Per-member [`FtReport`] attribution: member `j`'s report carries its
//! own `comp_detected`/`full_recomputed` (plus whatever its repair run
//! reports), so a service layer coalescing many tenants into one batch
//! can still bill faults to the request that suffered them.
//! Checksum-side repairs touch no member's data and are charged to the
//! batch leader (member 0) as a `subfft_recomputed`.

use ftfft_checksum::{
    batch_accumulate_side1, batch_accumulate_side2, batch_combine_side1, batch_combine_side2,
    batch_localize, batch_residual_max, batch_weight_norms_sq, BatchVerdict,
};
use ftfft_fault::{FaultInjector, InjectionCtx, Site};
use ftfft_fft::TwoLayerScratch;
use ftfft_numeric::simd::EnergyAcc;
use ftfft_numeric::Complex64;
use ftfft_roundoff::{batch_thresholds, input_sigma};

use crate::plan::{FtFftPlan, Workspace};
use crate::report::FtReport;

/// Working storage for the batch-checksum executor, preallocated by
/// [`FtFftPlan::make_workspace`] (inside [`Workspace::batch`]) so the
/// clean path allocates nothing.
pub struct BatchWorkspace {
    /// Side-1 weighted input combination `c₁ = Σᵢ xᵢ` (`n` long).
    pub c1: Vec<Complex64>,
    /// Side-2 weighted input combination `c₂ = Σᵢ (i+1)·xᵢ` (built
    /// lazily, on the fault path only).
    pub c2: Vec<Complex64>,
    /// Checksum spectrum `FFT(c₁)`.
    pub fc1: Vec<Complex64>,
    /// Checksum spectrum `FFT(c₂)` (lazy, fault path only).
    pub fc2: Vec<Complex64>,
    /// Side-1 reference sum `Σᵢ FFT(xᵢ)` over member outputs.
    pub acc1: Vec<Complex64>,
    /// Side-2 reference sum `Σᵢ (i+1)·FFT(xᵢ)` (lazy, fault path only).
    pub acc2: Vec<Complex64>,
    /// Staging copy of one member's input for a repair run (the repair
    /// plan's `execute` takes `&mut` input; batch members are shared).
    pub xrep: Vec<Complex64>,
    /// Workspace of the Opt-Online repair plan.
    pub repair_ws: Workspace,
}

impl BatchWorkspace {
    /// Builds the batch working storage for `plan` (which must carry a
    /// repair plan, i.e. be a batch-checksum plan).
    pub(crate) fn for_plan(plan: &FtFftPlan) -> Self {
        let n = plan.n();
        let repair = plan.repair_plan().expect("batch plan carries a repair plan");
        BatchWorkspace {
            c1: vec![Complex64::ZERO; n],
            c2: vec![Complex64::ZERO; n],
            fc1: vec![Complex64::ZERO; n],
            fc2: vec![Complex64::ZERO; n],
            acc1: vec![Complex64::ZERO; n],
            acc2: vec![Complex64::ZERO; n],
            xrep: vec![Complex64::ZERO; n],
            repair_ws: repair.make_workspace(),
        }
    }
}

/// Per-member injector lookup: one shared injector broadcasts to the
/// whole batch, otherwise each member brings its own.
#[inline]
fn member_injector<'a>(injectors: &'a [&'a dyn FaultInjector], j: usize) -> &'a dyn FaultInjector {
    if injectors.len() == 1 {
        injectors[0]
    } else {
        injectors[j]
    }
}

/// Consults every injector at a batch-level (non-member) site.
fn inject_batch_site(
    injectors: &[&dyn FaultInjector],
    ctx: InjectionCtx,
    site: Site,
    data: &mut [Complex64],
) {
    for inj in injectors {
        inj.inject(ctx, site, data);
    }
}

/// (Re)builds the side-1 (detection) combination and transforms it,
/// re-consulting the injectors at the batch sites.
fn compute_side1(
    plan: &FtFftPlan,
    xs: &[&[Complex64]],
    injectors: &[&dyn FaultInjector],
    ctx: InjectionCtx,
    bw: &mut BatchWorkspace,
    s: &mut TwoLayerScratch,
) {
    batch_combine_side1(&mut bw.c1, xs);
    inject_batch_site(injectors, ctx, Site::BatchCombine { side: 1 }, &mut bw.c1);
    plan.two().execute(&bw.c1, &mut bw.fc1, s);
    inject_batch_site(injectors, ctx, Site::BatchChecksumFft { side: 1 }, &mut bw.fc1);
}

/// (Re)builds the side-2 (localization) combination and transforms it.
/// Called lazily — first on the fault path, again only if the side-2
/// checksum itself is implicated.
fn compute_side2(
    plan: &FtFftPlan,
    xs: &[&[Complex64]],
    injectors: &[&dyn FaultInjector],
    ctx: InjectionCtx,
    bw: &mut BatchWorkspace,
    s: &mut TwoLayerScratch,
) {
    batch_combine_side2(&mut bw.c2, xs);
    inject_batch_site(injectors, ctx, Site::BatchCombine { side: 2 }, &mut bw.c2);
    plan.two().execute(&bw.c2, &mut bw.fc2, s);
    inject_batch_site(injectors, ctx, Site::BatchChecksumFft { side: 2 }, &mut bw.fc2);
}

/// Recomputes member `j` under the repair plan, merging the repair run's
/// own report into the member's and charging the detection to it.
fn repair_member(
    plan: &FtFftPlan,
    xs: &[&[Complex64]],
    outs: &mut [&mut [Complex64]],
    injectors: &[&dyn FaultInjector],
    reports: &mut [FtReport],
    bw: &mut BatchWorkspace,
    j: usize,
) {
    let repair = plan.repair_plan().expect("batch plan carries a repair plan");
    reports[j].comp_detected = reports[j].comp_detected.saturating_add(1);
    reports[j].full_recomputed = reports[j].full_recomputed.saturating_add(1);
    bw.xrep.copy_from_slice(xs[j]);
    let sub =
        repair.execute(&mut bw.xrep, outs[j], member_injector(injectors, j), &mut bw.repair_ws);
    reports[j].merge(&sub);
}

/// Runs the batch-checksum executor over `xs.len()` members.
///
/// `injectors` holds either one shared injector (broadcast to every
/// member and to the batch-level sites) or exactly one per member —
/// member `j`'s injector is consulted at its
/// [`Site::BatchMemberOutput`] and drives its repair run, while *every*
/// injector is consulted at the shared combine/checksum-FFT sites.
/// `reports` is overwritten with one per-member report.
pub(crate) fn run(
    plan: &FtFftPlan,
    xs: &[&[Complex64]],
    outs: &mut [&mut [Complex64]],
    injectors: &[&dyn FaultInjector],
    reports: &mut [FtReport],
    ws: &mut Workspace,
) {
    let n = plan.n();
    let b = xs.len();
    assert!(b >= 1, "empty batch");
    assert_eq!(outs.len(), b, "batch output count mismatch");
    assert_eq!(reports.len(), b, "batch report count mismatch");
    assert!(
        injectors.len() == 1 || injectors.len() == b,
        "injector count {} is neither 1 nor the batch size {}",
        injectors.len(),
        b
    );
    for (j, x) in xs.iter().enumerate() {
        assert_eq!(x.len(), n, "member {j} input length mismatch");
        assert_eq!(outs[j].len(), n, "member {j} output length mismatch");
    }
    for r in reports.iter_mut() {
        *r = FtReport::new();
    }

    let ctx = InjectionCtx::default();
    let mut bw = ws.batch.take().expect("batch workspace (built by make_workspace)");
    let mut s = TwoLayerScratch {
        y: std::mem::take(&mut ws.y),
        buf: std::mem::take(&mut ws.buf),
        block: std::mem::take(&mut ws.block),
    };

    // Fused first pass: fold each member's input into the side-1
    // combination while it is cache-resident, transform the member, and
    // fold its (possibly injected) output into the side-1 reference sum
    // while *it* is still hot — the add-only sweeps ride the member
    // FFT's own memory traffic instead of re-streaming the batch. Side 2
    // is not touched here: its combine + FFT are paid only if side 1
    // flags a fault. The side-1 input combine also sums the members'
    // energies (the batch's σ̂) in the same pass.
    bw.c1.fill(Complex64::ZERO);
    bw.acc1.fill(Complex64::ZERO);
    let mut energy = EnergyAcc::new();
    for j in 0..b {
        energy.add_assign(&mut bw.c1, xs[j]);
        plan.two().execute(xs[j], outs[j], &mut s);
        member_injector(injectors, j).inject(ctx, Site::BatchMemberOutput { index: j }, outs[j]);
        batch_accumulate_side1(&mut bw.acc1, outs[j]);
    }
    inject_batch_site(injectors, ctx, Site::BatchCombine { side: 1 }, &mut bw.c1);
    plan.two().execute(&bw.c1, &mut bw.fc1, &mut s);
    inject_batch_site(injectors, ctx, Site::BatchChecksumFft { side: 1 }, &mut bw.fc1);

    // Detection thresholds: the combined signals carry the weight-vector
    // variance, so their round-off floor scales with ‖w‖₂ (§8 model
    // extended to the batch identity), at the members' measured σ̂ and
    // times the plan's empirical scale. A batch with no finite scale
    // skips the joint check and runs its members singly.
    let sigma = input_sigma(energy.finish(), b * n);
    if !sigma.is_finite() {
        restore(ws, s, bw);
        return run_singly(plan, xs, outs, injectors, reports, ws);
    }
    let (w1sq, w2sq) = batch_weight_norms_sq(b);
    let (eta1, eta2) = batch_thresholds(n, 1.0, w1sq, w2sq);
    let scale = sigma * plan.cfg().threshold_scale;
    let (eta1, eta2) = (eta1 * scale, eta2 * scale);

    // Verify → localize → repair → re-verify, bounded by max_retries.
    // The member inputs never change, so FFT(c₂) stays valid once built;
    // it is rebuilt only when the side-2 path itself is implicated.
    let mut side2_built = false;
    let mut acc1_fresh = true; // built by the fused pass above
    let mut attempt: u32 = 0;
    loop {
        // Clean-path work beyond the fused pass: one residual scan. The
        // side-1 reference sum is rebuilt only after a repair changed
        // some member's output.
        if !acc1_fresh {
            bw.acc1.fill(Complex64::ZERO);
            for out in outs.iter() {
                batch_accumulate_side1(&mut bw.acc1, out);
            }
        }
        acc1_fresh = false;
        for r in reports.iter_mut() {
            r.checks = r.checks.saturating_add(1);
        }
        // NB: the observed residual is deliberately NOT recorded into
        // `max_ok_residual_*` — it is a batch-level quantity that depends
        // on how the work was grouped (a batch of 13 and thirteen
        // batches of 1 see different checksum sums over identical
        // members), and per-member reports must stay bitwise stable
        // across coalescing and scheduling choices.
        let (r1, _) = batch_residual_max(&bw.fc1, &bw.acc1);
        if r1 <= eta1 {
            break;
        }

        // Side 1 flagged: build the localization side lazily, then let
        // the two-sided test name the culprit.
        if !side2_built {
            compute_side2(plan, xs, injectors, ctx, &mut bw, &mut s);
            side2_built = true;
        }
        bw.acc2.fill(Complex64::ZERO);
        for (j, out) in outs.iter().enumerate() {
            batch_accumulate_side2(&mut bw.acc2, out, j);
        }
        for r in reports.iter_mut() {
            r.checks = r.checks.saturating_add(1);
        }
        let verdict = batch_localize(&bw.fc1, &bw.acc1, &bw.fc2, &bw.acc2, eta1, eta2, b);
        match verdict {
            // Unreachable in practice — the side-1 scan and the localizer
            // apply the same η₁ to the same residuals — but harmless.
            BatchVerdict::Clean => break,
            BatchVerdict::Members(members) if attempt < plan.cfg().max_retries => {
                for &j in &members {
                    repair_member(plan, xs, outs, injectors, reports, &mut bw, j);
                }
            }
            BatchVerdict::ChecksumSide(side) if attempt < plan.cfg().max_retries => {
                // No member data is wrong; redo the implicated checksum
                // path and charge the batch leader.
                reports[0].comp_detected = reports[0].comp_detected.saturating_add(1);
                reports[0].subfft_recomputed = reports[0].subfft_recomputed.saturating_add(1);
                if side == 1 {
                    compute_side1(plan, xs, injectors, ctx, &mut bw, &mut s);
                } else {
                    compute_side2(plan, xs, injectors, ctx, &mut bw, &mut s);
                }
            }
            BatchVerdict::Ambiguous if attempt < plan.cfg().max_retries => {
                // No single-member explanation: recompute every member
                // under the self-verifying repair plan *and* rebuild both
                // checksum transforms.
                for j in 0..b {
                    repair_member(plan, xs, outs, injectors, reports, &mut bw, j);
                }
                compute_side1(plan, xs, injectors, ctx, &mut bw, &mut s);
                compute_side2(plan, xs, injectors, ctx, &mut bw, &mut s);
            }
            // Retries exhausted: flag the implicated members (everyone,
            // when the evidence doesn't single anyone out) and deliver
            // the outputs as-is.
            BatchVerdict::Members(members) => {
                for &j in &members {
                    reports[j].uncorrectable = reports[j].uncorrectable.saturating_add(1);
                }
                break;
            }
            BatchVerdict::ChecksumSide(_) | BatchVerdict::Ambiguous => {
                for r in reports.iter_mut() {
                    r.uncorrectable = r.uncorrectable.saturating_add(1);
                }
                break;
            }
        }
        attempt += 1;
    }

    restore(ws, s, bw);
}

/// Hands the borrowed scratch and batch storage back to the workspace.
fn restore(ws: &mut Workspace, s: TwoLayerScratch, bw: Box<BatchWorkspace>) {
    ws.y = s.y;
    ws.buf = s.buf;
    ws.block = s.block;
    ws.batch = Some(bw);
}

/// Runs every member under the repair plan on its own — the path of a
/// batch whose inputs have no finite scale σ̂ (a NaN/±Inf member, or an
/// energy sum that overflows). Nothing in such a batch can be verified
/// jointly, so each member gets its own verdict: the members without a
/// finite scale fail closed and the rest are protected as usual.
fn run_singly(
    plan: &FtFftPlan,
    xs: &[&[Complex64]],
    outs: &mut [&mut [Complex64]],
    injectors: &[&dyn FaultInjector],
    reports: &mut [FtReport],
    ws: &mut Workspace,
) {
    let repair = plan.repair_plan().expect("batch plan carries a repair plan");
    let bw = ws.batch.as_mut().expect("batch workspace (built by make_workspace)");
    for (j, x) in xs.iter().enumerate() {
        bw.xrep.copy_from_slice(x);
        let inj = member_injector(injectors, j);
        reports[j] = repair.execute(&mut bw.xrep, outs[j], inj, &mut bw.repair_ws);
    }
}
