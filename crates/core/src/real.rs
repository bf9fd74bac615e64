//! Protected real-input transforms.
//!
//! [`RealFtFftPlan`] runs the packed half-size algorithm of
//! [`ftfft_fft::real`] with the half-size complex transform executed by a
//! protected [`FtFftPlan`] — so the ABFT checksums cover the *packed*
//! transform, which is where all the `O(n log n)` work (and therefore the
//! overwhelming majority of the soft-error cross-section) lives. The
//! `O(n)` pack/unpack passes stay unprotected, exactly like the paper's
//! unprotected strided rearrangement between the two checksummed parts.
//!
//! Real traffic halves the protected-work footprint: an `n`-point real
//! frame costs one `n/2`-point protected complex transform instead of the
//! real-extended `n`-point one. The packed transform inherits the
//! planner's data-layout knob (`FTFFT_LAYOUT`): when its sub-plans run
//! the split-complex engine, the protected executors gather straight into
//! SoA planes — bitwise identical spectra either way. This is the transform the streaming
//! engines in `ftfft-stream` run per frame; their hot loops are
//! allocation-free, so the batch entry points here take every buffer from
//! a pre-sized [`RealWorkspace`].

use ftfft_fault::FaultInjector;
use ftfft_fft::real::{pack_real, repack_spectrum, split_twiddles, unpack_real, unpack_spectrum};
use ftfft_fft::Direction;
use ftfft_numeric::Complex64;

use crate::config::{FtConfig, PlanSpec};
use crate::plan::{FtFftPlan, Workspace};
use crate::report::FtReport;

/// A reusable protected real-input FFT plan for one `(n, direction, config)`.
///
/// A `Forward` plan maps `n` real samples to the `n/2 + 1` non-redundant
/// bins (unnormalized); an `Inverse` plan maps bins back to samples
/// (normalized, so forward-then-inverse is the identity). Works with every
/// [`Scheme`](crate::Scheme), like the complex [`FtFftPlan`] it wraps.
pub struct RealFtFftPlan {
    n: usize,
    dir: Direction,
    plan: FtFftPlan,
    w: Vec<Complex64>,
}

/// Reusable working storage for [`RealFtFftPlan`], sized at creation for a
/// maximum number of back-to-back frames — the batch entry points are
/// allocation-free against it.
pub struct RealWorkspace {
    /// Packed half-size frames (`frames_cap · n/2`).
    packed: Vec<Complex64>,
    /// Half-size transform outputs (`frames_cap · n/2`).
    z: Vec<Complex64>,
    /// The wrapped complex plan's workspace (shared across the batch).
    inner: Workspace,
    frames_cap: usize,
}

impl RealWorkspace {
    /// Maximum number of frames a batch call may carry.
    pub fn frames_cap(&self) -> usize {
        self.frames_cap
    }
}

impl RealFtFftPlan {
    /// Plans the protected real transform described by `spec`, whose `n`
    /// is the *real* frame length: the wrapped complex plan is built from
    /// the same spec at size `n/2`, so pinned kernel/layout/strategy
    /// knobs carry into the packed transform's sub-plans.
    ///
    /// # Panics
    /// Panics if `spec.n()` is odd or smaller than 4 (the half-size
    /// protected transform needs at least 2 points).
    pub fn from_spec(spec: &PlanSpec) -> Self {
        let (n, dir) = (spec.n(), spec.direction());
        assert!(
            n >= 4 && n.is_multiple_of(2),
            "protected real FFT needs even length >= 4, got {n}"
        );
        RealFtFftPlan {
            n,
            dir,
            plan: FtFftPlan::from_spec(&spec.with_n(n / 2)),
            w: split_twiddles(n, dir),
        }
    }

    /// Plans a protected real transform of even size `n ≥ 4` — a thin
    /// wrapper bridging `cfg` into a [`PlanSpec`] for
    /// [`RealFtFftPlan::from_spec`].
    ///
    /// # Panics
    /// Panics if `n` is odd or smaller than 4.
    pub fn new(n: usize, dir: Direction, cfg: FtConfig) -> Self {
        Self::from_spec(&PlanSpec::from_config(n, dir, cfg))
    }

    /// Signal length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Transform direction.
    pub fn dir(&self) -> Direction {
        self.dir
    }

    /// Number of non-redundant spectrum bins, `n/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// The wrapped half-size protected plan.
    pub fn plan(&self) -> &FtFftPlan {
        &self.plan
    }

    /// Allocates a single-frame workspace.
    pub fn make_workspace(&self) -> RealWorkspace {
        self.make_workspace_for(1)
    }

    /// Allocates a workspace sized for batches of up to `frames` frames.
    pub fn make_workspace_for(&self, frames: usize) -> RealWorkspace {
        let frames = frames.max(1);
        let h = self.n / 2;
        RealWorkspace {
            packed: vec![Complex64::ZERO; frames * h],
            z: vec![Complex64::ZERO; frames * h],
            inner: self.plan.make_workspace(),
            frames_cap: frames,
        }
    }

    /// Protected forward transform: `spec = RFFT(x)` (`n/2 + 1` bins).
    pub fn forward(
        &self,
        x: &[f64],
        spec: &mut [Complex64],
        injector: &dyn FaultInjector,
        ws: &mut RealWorkspace,
    ) -> FtReport {
        self.forward_batch(x, spec, injector, ws)
    }

    /// Batched protected forward transform: `xs` holds `xs.len() / n`
    /// back-to-back real frames, `specs` the matching `n/2 + 1`-bin
    /// spectra. The packed half-size transforms run through
    /// [`FtFftPlan::execute_batch`] against the shared inner workspace;
    /// the merged report is returned.
    ///
    /// # Panics
    /// Panics on length mismatches, on a direction mismatch, or when the
    /// batch exceeds the workspace's [`frames_cap`](RealWorkspace::frames_cap).
    pub fn forward_batch(
        &self,
        xs: &[f64],
        specs: &mut [Complex64],
        injector: &dyn FaultInjector,
        ws: &mut RealWorkspace,
    ) -> FtReport {
        assert_eq!(self.dir, Direction::Forward, "forward on an inverse RealFtFftPlan");
        let h = self.n / 2;
        assert!(
            xs.len().is_multiple_of(self.n),
            "batch length {} is not a multiple of frame size {}",
            xs.len(),
            self.n
        );
        let frames = xs.len() / self.n;
        assert_eq!(specs.len(), frames * self.spectrum_len(), "spectrum length mismatch");
        assert!(frames <= ws.frames_cap, "batch of {frames} frames exceeds workspace capacity");
        for (frame, chunk) in xs.chunks_exact(self.n).enumerate() {
            pack_real(chunk, &mut ws.packed[frame * h..(frame + 1) * h]);
        }
        let rep = self.plan.execute_batch(
            &mut ws.packed[..frames * h],
            &mut ws.z[..frames * h],
            injector,
            &mut ws.inner,
        );
        for (frame, spec) in specs.chunks_exact_mut(self.spectrum_len()).enumerate() {
            unpack_spectrum(&ws.z[frame * h..(frame + 1) * h], &self.w, spec);
        }
        rep
    }

    /// Protected inverse transform: `x = IRFFT(spec)` (normalized).
    pub fn inverse(
        &self,
        spec: &[Complex64],
        x: &mut [f64],
        injector: &dyn FaultInjector,
        ws: &mut RealWorkspace,
    ) -> FtReport {
        self.inverse_batch(spec, x, injector, ws)
    }

    /// Batched protected inverse transform (see
    /// [`forward_batch`](RealFtFftPlan::forward_batch) for conventions).
    pub fn inverse_batch(
        &self,
        specs: &[Complex64],
        xs: &mut [f64],
        injector: &dyn FaultInjector,
        ws: &mut RealWorkspace,
    ) -> FtReport {
        assert_eq!(self.dir, Direction::Inverse, "inverse on a forward RealFtFftPlan");
        let h = self.n / 2;
        assert!(
            xs.len().is_multiple_of(self.n),
            "batch length {} is not a multiple of frame size {}",
            xs.len(),
            self.n
        );
        let frames = xs.len() / self.n;
        assert_eq!(specs.len(), frames * self.spectrum_len(), "spectrum length mismatch");
        assert!(frames <= ws.frames_cap, "batch of {frames} frames exceeds workspace capacity");
        for (frame, spec) in specs.chunks_exact(self.spectrum_len()).enumerate() {
            repack_spectrum(spec, &self.w, &mut ws.z[frame * h..(frame + 1) * h]);
        }
        let rep = self.plan.execute_batch(
            &mut ws.z[..frames * h],
            &mut ws.packed[..frames * h],
            injector,
            &mut ws.inner,
        );
        for (frame, chunk) in xs.chunks_exact_mut(self.n).enumerate() {
            unpack_real(&ws.packed[frame * h..(frame + 1) * h], chunk);
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use ftfft_fault::{FaultKind, NoFaults, Part, ScriptedFault, ScriptedInjector, Site};
    use ftfft_fft::dft_naive;
    use ftfft_numeric::complex::c64;

    fn real_signal(n: usize, seed: u64) -> Vec<f64> {
        ftfft_numeric::uniform_signal(n, seed).iter().map(|z| z.re).collect()
    }

    #[test]
    fn protected_rfft_matches_naive_every_scheme() {
        let n = 256;
        let x = real_signal(n, 3);
        let xc: Vec<Complex64> = x.iter().map(|&r| c64(r, 0.0)).collect();
        let want = dft_naive(&xc, Direction::Forward);
        for scheme in Scheme::ALL {
            let plan = RealFtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
            let mut ws = plan.make_workspace();
            let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
            let rep = plan.forward(&x, &mut spec, &NoFaults, &mut ws);
            assert_eq!(rep.uncorrectable, 0, "{scheme:?}");
            for j in 0..=n / 2 {
                assert!(
                    spec[j].approx_eq(want[j], 1e-9 * n as f64),
                    "{scheme:?} bin {j}: {:?} vs {:?}",
                    spec[j],
                    want[j]
                );
            }
        }
    }

    #[test]
    fn protected_round_trip_under_faults() {
        let n = 512;
        let x = real_signal(n, 9);
        let fwd = RealFtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
        let mut wsf = fwd.make_workspace();
        let mut spec = vec![Complex64::ZERO; fwd.spectrum_len()];
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::First, index: 2 },
            3,
            FaultKind::AddDelta { re: 1e-2, im: -1e-2 },
        )]);
        let rep = fwd.forward(&x, &mut spec, &inj, &mut wsf);
        assert!(inj.exhausted());
        assert!(rep.total_detected() >= 1);
        assert_eq!(rep.uncorrectable, 0);
        // The inverse sees a spectrum, ~√n louder than the time samples;
        // its thresholds follow from the σ̂ it measures.
        let inv = RealFtFftPlan::new(n, Direction::Inverse, FtConfig::new(Scheme::OnlineMemOpt));
        let mut wsi = inv.make_workspace();
        let mut back = vec![0.0; n];
        let rep2 = inv.inverse(&spec, &mut back, &NoFaults, &mut wsi);
        assert!(rep2.is_clean());
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn batch_matches_looped_single_frames_bitwise() {
        let n = 128;
        let frames = 3;
        let xs = real_signal(n * frames, 4);
        let plan = RealFtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineCompOpt));

        let mut batch_ws = plan.make_workspace_for(frames);
        let mut batched = vec![Complex64::ZERO; frames * plan.spectrum_len()];
        let rep = plan.forward_batch(&xs, &mut batched, &NoFaults, &mut batch_ws);
        assert_eq!(rep.uncorrectable, 0);

        let mut single_ws = plan.make_workspace();
        let mut looped = vec![Complex64::ZERO; frames * plan.spectrum_len()];
        for (x, spec) in xs.chunks_exact(n).zip(looped.chunks_exact_mut(plan.spectrum_len())) {
            plan.forward(x, spec, &NoFaults, &mut single_ws);
        }
        assert_eq!(batched, looped);
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn odd_length_rejected() {
        let _ = RealFtFftPlan::new(7, Direction::Forward, FtConfig::new(Scheme::Plain));
    }

    #[test]
    fn layouts_agree_bitwise_under_faults() {
        // The packed half-size protected transform inherits the layout
        // knob through its sub-plans; flipping it must not move a bit of
        // the spectrum or the report, even while a fault is corrected.
        use ftfft_fft::{force_layout, Layout};
        let _guard = crate::config::FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let n = 512;
        let x = real_signal(n, 6);
        let run = |layout: Layout| {
            force_layout(Some(layout));
            let plan =
                RealFtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
            force_layout(None);
            let inj = ScriptedInjector::new(vec![ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 3 },
                2,
                FaultKind::AddDelta { re: 2e-2, im: 0.0 },
            )]);
            let mut ws = plan.make_workspace();
            let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
            let rep = plan.forward(&x, &mut spec, &inj, &mut ws);
            assert!(inj.exhausted());
            (spec, rep)
        };
        let (spec_aos, rep_aos) = run(Layout::Aos);
        let (spec_soa, rep_soa) = run(Layout::Soa);
        assert_eq!(spec_aos, spec_soa);
        assert_eq!(rep_aos, rep_soa);
        assert_eq!(rep_soa.uncorrectable, 0);
    }
}
