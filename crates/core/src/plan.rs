//! The fault-tolerant FFT plan — the crate's main entry point.

use ftfft_checksum::{CombinedChecksum, IncrementalSlots, MemChecksum};
use ftfft_fault::FaultInjector;
use ftfft_fft::{Direction, Layout, Planner, TwoLayerPlan, TwoLayerScratch};
use ftfft_numeric::Complex64;
use ftfft_roundoff::{input_sigma, scaled, thresholds_for_split, Thresholds};

use crate::batch_ft::{self, BatchWorkspace};
use crate::config::{FtConfig, PlanSpec, Scheme};
use crate::report::FtReport;
use crate::{memory_ft, memory_ft_opt, offline, online};

/// A reusable fault-tolerant FFT plan for one `(n, direction, config)`.
///
/// ```
/// use ftfft_core::{FtConfig, FtFftPlan, Scheme};
/// use ftfft_fault::NoFaults;
/// use ftfft_fft::Direction;
/// use ftfft_numeric::uniform_signal;
///
/// let n = 1 << 10;
/// let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
/// let mut x = uniform_signal(n, 42);
/// let mut out = vec![ftfft_numeric::Complex64::ZERO; n];
/// let mut ws = plan.make_workspace();
/// let report = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
/// assert!(report.is_clean());
/// ```
pub struct FtFftPlan {
    cfg: FtConfig,
    n: usize,
    dir: Direction,
    two: TwoLayerPlan,
    /// Thresholds at unit input scale (σ₀ = 1, `threshold_scale` applied);
    /// each execution multiplies them by its measured σ̂.
    thresholds: Thresholds,
    /// `fuses` resolved for the m-element part-1 columns.
    fused_part1: bool,
    /// `fuses` resolved for the k-element part-2 columns.
    fused_part2: bool,
    /// The resolved spec this plan was built from (env overrides already
    /// applied) — the canonical cache key for plan-sharing layers.
    spec: PlanSpec,
    /// Self-verifying per-transform fallback for [`Scheme::BatchChecksum`]
    /// plans: an Opt-Online plan over the same `(n, direction)` used to
    /// recompute implicated batch members (and to run members singly when
    /// a batch never fills). `None` for every other scheme.
    repair: Option<Box<FtFftPlan>>,
}

/// Whether a sub-FFT of `count` gathered elements whose sub-plan runs
/// `layout` takes the fused gather+checksum pass (§4.4 single-pass
/// buffering, SIMD-accumulated) instead of a gather followed by a separate
/// checksum pass. The two are bitwise identical, so this is purely a
/// performance rule. Below 16 elements the streaming accumulator's setup
/// outweighs the saved pass. SoA sub-plans never fuse: the strided fused
/// sweep measured 27–37% slower than the plane kernels' bulk conversion at
/// every size (2¹⁰–2¹⁶, radix-2 and radix-4).
fn fuses(count: usize, layout: Layout) -> bool {
    layout == Layout::Aos && count >= 16
}

/// Reusable working storage for [`FtFftPlan::execute`]. Allocation-free in
/// the hot path once built.
pub struct Workspace {
    /// Intermediate `k × m` matrix (rows = first-part outputs).
    pub y: Vec<Complex64>,
    /// Primary gather buffer, `max(k, m)` long.
    pub buf: Vec<Complex64>,
    /// Secondary buffer (DMR passes / backups), `max(k, m)` long.
    pub buf2: Vec<Complex64>,
    /// Sub-plan FFT scratch.
    pub fft: Vec<Complex64>,
    /// Per-first-part-FFT input checksum pairs (combined weights).
    pub in_ck: Vec<CombinedChecksum>,
    /// Per-first-part-FFT input classic memory checksums (Fig 2 hierarchy).
    pub in_mck: Vec<MemChecksum>,
    /// Per-row classic memory checksums (Fig 2 hierarchy).
    pub row_ck: Vec<MemChecksum>,
    /// Per-column classic memory checksums after the rearrangement (Fig 2).
    pub col_ck: Vec<MemChecksum>,
    /// Per-column output classic checksums (Fig 2).
    pub out_ck: Vec<MemChecksum>,
    /// Incremental slots for second-part input checksums (Fig 3, §4.3).
    pub slots: IncrementalSlots,
    /// DMR-generated `rA` for the m-point first-part FFTs (`m` long).
    pub ra_m: Vec<Complex64>,
    /// DMR-generated `rA` for the k-point second-part FFTs (`k` long).
    pub ra_k: Vec<Complex64>,
    /// Full-size `rA` for the offline schemes (`n` long there, else empty).
    pub ra_full: Vec<Complex64>,
    /// Second DMR pass scratch for `rA` generation.
    pub ra_tmp: Vec<Complex64>,
    /// CMCG `sum1` accumulators, one per first-part FFT (`k` long).
    pub ck1: Vec<Complex64>,
    /// CMCG `sum2` accumulators (`k` long).
    pub ck2: Vec<Complex64>,
    /// Group output staging for the Fig 2 batched second part
    /// (`batch_s·k` long for `OnlineMem`, else empty).
    pub group_out: Vec<Complex64>,
    /// Batch-checksum working set (combines, checksum spectra, reference
    /// sums, repair staging) — `Some` only for [`Scheme::BatchChecksum`]
    /// plans.
    pub batch: Option<Box<BatchWorkspace>>,
}

impl FtFftPlan {
    /// Plans the protected transform described by `spec` — the primary
    /// constructor. The spec is resolved here (env overrides applied
    /// exactly once, at build time); its pinned kernel/layout/strategy
    /// knobs propagate into every sub-FFT of the decomposition through a
    /// spec-templated [`Planner`], and whatever is left unset falls to the
    /// per-sub-plan-size heuristics.
    ///
    /// # Panics
    /// Panics if `spec.n() == 0` or an explicit `split_k` does not divide
    /// `n`.
    pub fn from_spec(spec: &PlanSpec) -> Self {
        let spec = spec.resolve();
        let cfg = spec.ft_config();
        let (n, dir) = (spec.n(), spec.direction());
        let planner = Planner::with_spec(spec.fft_template());
        let two = match cfg.split_k {
            Some(k) => TwoLayerPlan::with_split(&planner, n, k, dir),
            None => TwoLayerPlan::new(&planner, n, dir),
        };
        let thresholds =
            scaled(thresholds_for_split(n, two.k(), two.m(), 1.0), cfg.threshold_scale);
        // Part 1 gathers m-element columns into the inner (m-point) plan,
        // part 2 gathers k-element columns into the outer (k-point) plan.
        let fused_part1 = fuses(two.m(), two.inner_plan().layout());
        let fused_part2 = fuses(two.k(), two.outer_plan().layout());
        // Batch plans carry a per-transform Opt-Online sibling over the
        // same resolved spec: the repair path for implicated members and
        // the fallback when a batch never fills. Opt-Online is never
        // BatchChecksum itself, so the recursion is one level deep.
        let repair = (cfg.scheme == Scheme::BatchChecksum)
            .then(|| Box::new(FtFftPlan::from_spec(&spec.with_scheme(Scheme::OnlineCompOpt))));
        FtFftPlan { cfg, n, dir, two, thresholds, fused_part1, fused_part2, spec, repair }
    }

    /// Plans a protected transform of size `n` — a thin wrapper bridging
    /// `cfg` into a [`PlanSpec`] (see [`PlanSpec::from_config`]) for
    /// [`FtFftPlan::from_spec`].
    ///
    /// # Panics
    /// Panics if `n == 0` or an explicit `split_k` does not divide `n`.
    pub fn new(n: usize, dir: Direction, cfg: FtConfig) -> Self {
        Self::from_spec(&PlanSpec::from_config(n, dir, cfg))
    }

    /// The resolved spec this plan was built from — equal specs (after
    /// [`PlanSpec::resolve`]) build bitwise-interchangeable plans, which
    /// is what plan-sharing layers key on.
    pub fn spec(&self) -> &PlanSpec {
        &self.spec
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Transform direction.
    pub fn dir(&self) -> Direction {
        self.dir
    }

    /// Configuration this plan was built with.
    pub fn cfg(&self) -> &FtConfig {
        &self.cfg
    }

    /// The underlying two-layer decomposition.
    pub fn two(&self) -> &TwoLayerPlan {
        &self.two
    }

    /// Detection thresholds at unit input scale (σ₀ = 1). An execution
    /// uses them multiplied by the σ̂ of its own input — see
    /// [`thresholds_for`](FtFftPlan::thresholds_for).
    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// The thresholds an execution on `x` runs with: the unit thresholds
    /// times `σ̂ = √(‖x‖²/2n)` (non-finite when `x` has no finite scale).
    pub fn thresholds_for(&self, x: &[Complex64]) -> Thresholds {
        scaled(self.thresholds, input_sigma(ftfft_numeric::simd::energy(x), x.len()))
    }

    /// Per-execution thresholds for an `n`-point input of energy `energy`
    /// (`‖x‖²`, measured in the executor's first sweep over `x`), or
    /// `None` when σ̂ is not finite — a NaN/±Inf input or an energy that
    /// overflows. No threshold can be set then, and the executor must
    /// fail closed ([`FtReport::unverifiable`]).
    pub fn thresholds_for_energy(&self, energy: f64) -> Option<Thresholds> {
        let sigma = input_sigma(energy, self.n);
        sigma.is_finite().then(|| scaled(self.thresholds, sigma))
    }

    /// The per-transform Opt-Online repair/fallback plan of a
    /// [`Scheme::BatchChecksum`] plan (`None` for every other scheme).
    /// Service layers use it to run members singly when a batch never
    /// fills past the break-even point.
    pub fn repair_plan(&self) -> Option<&FtFftPlan> {
        self.repair.as_deref()
    }

    /// Whether part-1 (m-element) checksum gathers run the fused
    /// single-pass path — resolved per sub-plan size and layout at plan
    /// time.
    #[inline]
    pub(crate) fn fused_part1(&self) -> bool {
        self.fused_part1
    }

    /// Whether part-2 (k-element) checksum gathers run the fused path.
    #[inline]
    pub(crate) fn fused_part2(&self) -> bool {
        self.fused_part2
    }

    /// Allocates a workspace sized for this plan (and scheme): every buffer
    /// any execute path touches is allocated here, so repeated
    /// [`execute`](FtFftPlan::execute) calls allocate nothing on the clean
    /// path (asserted by `tests/no_alloc.rs`).
    pub fn make_workspace(&self) -> Workspace {
        let (k, m) = (self.two.k(), self.two.m());
        let lane = k.max(m);
        let offline =
            matches!(self.cfg.scheme, Scheme::OfflineNaive | Scheme::Offline | Scheme::OfflineMem);
        let group =
            if self.cfg.scheme == Scheme::OnlineMem { self.cfg.batch_s.max(1) * k } else { 0 };
        Workspace {
            y: vec![Complex64::ZERO; self.n],
            buf: vec![Complex64::ZERO; lane],
            buf2: vec![Complex64::ZERO; lane],
            fft: vec![
                Complex64::ZERO;
                self.two.inner_plan().scratch_len().max(self.two.outer_plan().scratch_len())
            ],
            in_ck: vec![CombinedChecksum::default(); k],
            in_mck: vec![MemChecksum { sum: Complex64::ZERO, wsum: Complex64::ZERO }; k],
            row_ck: vec![MemChecksum { sum: Complex64::ZERO, wsum: Complex64::ZERO }; k],
            col_ck: vec![MemChecksum { sum: Complex64::ZERO, wsum: Complex64::ZERO }; m],
            out_ck: vec![MemChecksum { sum: Complex64::ZERO, wsum: Complex64::ZERO }; m],
            slots: IncrementalSlots::new(m),
            ra_m: vec![Complex64::ZERO; m],
            ra_k: vec![Complex64::ZERO; k],
            ra_full: vec![Complex64::ZERO; if offline { self.n } else { 0 }],
            ra_tmp: vec![Complex64::ZERO; if offline { self.n } else { lane }],
            ck1: vec![Complex64::ZERO; k],
            ck2: vec![Complex64::ZERO; k],
            group_out: vec![Complex64::ZERO; group],
            batch: (self.cfg.scheme == Scheme::BatchChecksum)
                .then(|| Box::new(BatchWorkspace::for_plan(self))),
        }
    }

    /// Executes the protected transform: `out = FFT(x)`.
    ///
    /// `x` is mutable because memory-fault-tolerant schemes repair located
    /// corruption in place (on return `x` is logically unchanged). The
    /// `injector` is consulted at every instrumented site; pass
    /// [`ftfft_fault::NoFaults`] for a plain run.
    pub fn execute(
        &self,
        x: &mut [Complex64],
        out: &mut [Complex64],
        injector: &dyn FaultInjector,
        ws: &mut Workspace,
    ) -> FtReport {
        assert_eq!(x.len(), self.n, "input length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        match self.cfg.scheme {
            Scheme::Plain => {
                let mut s = TwoLayerScratch {
                    y: std::mem::take(&mut ws.y),
                    buf: std::mem::take(&mut ws.buf),
                    fft: std::mem::take(&mut ws.fft),
                };
                self.two.execute(x, out, &mut s);
                ws.y = s.y;
                ws.buf = s.buf;
                ws.fft = s.fft;
                FtReport::new()
            }
            Scheme::OfflineNaive => offline::run(self, x, out, injector, ws, true, false),
            Scheme::Offline => offline::run(self, x, out, injector, ws, false, false),
            Scheme::OfflineMem => offline::run(self, x, out, injector, ws, false, true),
            Scheme::OnlineComp => online::run_comp(self, x, out, injector, ws, false),
            Scheme::OnlineCompOpt => online::run_comp(self, x, out, injector, ws, true),
            Scheme::OnlineMem => memory_ft::run(self, x, out, injector, ws),
            Scheme::OnlineMemOpt => memory_ft_opt::run(self, x, out, injector, ws),
            // A single transform is a 1-member batch: two checksum
            // transforms verify one member. Throughput comes from
            // `execute_batch`/`execute_batch_members`, where the two
            // amortize over B members.
            Scheme::BatchChecksum => {
                let mut reports = [FtReport::new()];
                let xs: [&[Complex64]; 1] = [x];
                batch_ft::run(self, &xs, &mut [out], &[injector], &mut reports, ws);
                let [rep] = reports;
                rep
            }
        }
    }

    /// Batched protected transform: `xs` and `outs` hold `xs.len() / n`
    /// back-to-back signals; each is transformed with [`execute`]
    /// semantics against the *same* workspace — the throughput API for
    /// streaming workloads, avoiding the per-transform checksum-buffer
    /// and scratch allocations of [`execute_alloc`](FtFftPlan::execute_alloc).
    ///
    /// Returns the merged report across the batch. For the per-transform
    /// schemes the `injector` sees the batch as consecutive executions,
    /// so a scripted fault hits the same site visit whether the batch is
    /// run through this method or a hand-written loop over [`execute`].
    /// A [`Scheme::BatchChecksum`] plan instead protects the whole batch
    /// jointly — one detection checksum transform over all `B` members,
    /// plus a lazily built localization transform on a fault (see
    /// [`execute_batch_members`](FtFftPlan::execute_batch_members) for
    /// per-member reports).
    ///
    /// [`execute`]: FtFftPlan::execute
    ///
    /// # Panics
    /// Panics if `xs.len() != outs.len()` or the length is not a multiple
    /// of the plan size.
    pub fn execute_batch(
        &self,
        xs: &mut [Complex64],
        outs: &mut [Complex64],
        injector: &dyn FaultInjector,
        ws: &mut Workspace,
    ) -> FtReport {
        assert_eq!(xs.len(), outs.len(), "batch input/output length mismatch");
        assert!(
            xs.len().is_multiple_of(self.n),
            "batch length {} is not a multiple of plan size {}",
            xs.len(),
            self.n
        );
        if self.cfg.scheme == Scheme::BatchChecksum {
            let b = xs.len() / self.n;
            if b == 0 {
                return FtReport::new();
            }
            let xrefs: Vec<&[Complex64]> = xs.chunks_exact(self.n).collect();
            let mut orefs: Vec<&mut [Complex64]> = outs.chunks_exact_mut(self.n).collect();
            let mut reports = vec![FtReport::new(); b];
            batch_ft::run(self, &xrefs, &mut orefs, &[injector], &mut reports, ws);
            let mut rep = FtReport::new();
            for r in &reports {
                rep.merge(r);
            }
            return rep;
        }
        let mut rep = FtReport::new();
        for (x, out) in xs.chunks_exact_mut(self.n).zip(outs.chunks_exact_mut(self.n)) {
            rep.merge(&self.execute(x, out, injector, ws));
        }
        rep
    }

    /// Jointly protects `B = xs.len()` same-size transforms with the
    /// batch-checksum scheme, writing one [`FtReport`] per member — the
    /// entry point for service layers whose members live in separate
    /// allocations (per-request frames) and whose faults must be billed
    /// per request.
    ///
    /// `injectors` holds either one shared injector or exactly one per
    /// member: member `j`'s injector is consulted at its
    /// `BatchMemberOutput` site and drives its repair run, and every
    /// injector is consulted at the shared combine/checksum-transform
    /// sites.
    ///
    /// # Panics
    /// Panics unless this is a [`Scheme::BatchChecksum`] plan, the member
    /// counts of `xs`/`outs`/`reports` agree (and are nonzero), every
    /// slice is `n` long, and `injectors.len()` is 1 or the member count.
    pub fn execute_batch_members(
        &self,
        xs: &[&[Complex64]],
        outs: &mut [&mut [Complex64]],
        injectors: &[&dyn FaultInjector],
        reports: &mut [FtReport],
        ws: &mut Workspace,
    ) {
        assert_eq!(
            self.cfg.scheme,
            Scheme::BatchChecksum,
            "execute_batch_members requires a BatchChecksum plan"
        );
        batch_ft::run(self, xs, outs, injectors, reports, ws);
    }

    /// Convenience wrapper allocating a workspace per call.
    pub fn execute_alloc(
        &self,
        x: &mut [Complex64],
        out: &mut [Complex64],
        injector: &dyn FaultInjector,
    ) -> FtReport {
        let mut ws = self.make_workspace();
        self.execute(x, out, injector, &mut ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_rule_needs_aos_and_sixteen_elements() {
        assert!(fuses(16, Layout::Aos));
        assert!(fuses(1 << 20, Layout::Aos));
        assert!(!fuses(15, Layout::Aos));
        assert!(!fuses(1, Layout::Aos));
        assert!(!fuses(16, Layout::Soa));
        assert!(!fuses(1 << 20, Layout::Soa));
    }
}
