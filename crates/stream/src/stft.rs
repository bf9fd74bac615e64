//! Protected STFT / spectrogram engine with overlap-add resynthesis.
//!
//! [`StftPlan`] slides a COLA analysis window over a real signal in
//! hop-sized steps, transforming each frame through the protected
//! real-input path ([`RealFtFftPlan`]: pack → checksummed half-size
//! complex FFT → split unpack), and resynthesizes by inverse transform +
//! plain overlap-add, normalized by the actual window stack at every
//! sample — so the round trip is exact (≤ 1e-10) wherever at least one
//! window covers the sample, not just in the COLA interior.
//!
//! Both directions are allocation-free against a pre-sized
//! [`StftWorkspace`] and batch their protected transforms through
//! `FtFftPlan::execute_batch` in groups (bitwise identical to one-at-a-
//! time execution).

use ftfft_core::{FtConfig, PlanSpec, RealFtFftPlan, RealWorkspace};
use ftfft_fault::FaultInjector;
use ftfft_fft::Direction;
use ftfft_numeric::Complex64;

use crate::report::StreamReport;
use crate::window::{cola_profile, Window};

/// Frames grouped per protected batch call (grouping is output-invisible).
const BATCH_FRAMES: usize = 4;

/// Relative overlap-add deviation above which a window/hop pair is
/// rejected as non-COLA.
const COLA_TOLERANCE: f64 = 1e-9;

/// A planned protected short-time Fourier transform for one
/// `(fft_size, hop, window, config)`.
pub struct StftPlan {
    n: usize,
    hop: usize,
    bins: usize,
    window_kind: Window,
    window: Vec<f64>,
    cola_gain: f64,
    fwd: RealFtFftPlan,
    inv: RealFtFftPlan,
}

/// Reusable working storage for [`StftPlan`]: staged (windowed) frames and
/// the protected plans' workspaces.
pub struct StftWorkspace {
    /// Windowed frame staging, `BATCH_FRAMES · n` reals.
    staged: Vec<f64>,
    /// Resynthesized time frames, `BATCH_FRAMES · n` reals.
    frames_out: Vec<f64>,
    ws_f: RealWorkspace,
    /// Inverse-plan workspace — `None` in single-frame (analysis-only)
    /// workspaces.
    ws_i: Option<RealWorkspace>,
}

impl StftPlan {
    /// Plans an STFT over `fft_size`-sample frames advancing by `hop` — a
    /// thin wrapper bridging `cfg` into a [`PlanSpec`] for
    /// [`StftPlan::from_spec`].
    ///
    /// # Panics
    /// Panics if `fft_size` is odd or `< 4`, `hop` is zero or exceeds
    /// `fft_size`, or the window/hop pair fails the COLA test (overlap-add
    /// resynthesis would ripple).
    pub fn new(fft_size: usize, hop: usize, window: Window, cfg: FtConfig) -> Self {
        Self::from_spec(&PlanSpec::from_config(fft_size, Direction::Forward, cfg), hop, window)
    }

    /// Plans the STFT described by `spec` (whose `n` is the frame/FFT
    /// size), advancing by `hop`. Both the analysis and synthesis plans
    /// are built from the spec — its direction is ignored.
    ///
    /// # Panics
    /// Same conditions as [`StftPlan::new`].
    pub fn from_spec(spec: &PlanSpec, hop: usize, window: Window) -> Self {
        let fft_size = spec.n();
        assert!(
            fft_size >= 4 && fft_size.is_multiple_of(2),
            "fft_size must be even and >= 4, got {fft_size}"
        );
        assert!(hop >= 1 && hop <= fft_size, "hop must be in 1..=fft_size, got {hop}");
        let mut w = vec![0.0; fft_size];
        window.fill(&mut w);
        let (gain, dev) = cola_profile(&w, hop);
        assert!(
            dev <= COLA_TOLERANCE,
            "{} window is not COLA at hop {hop}/{fft_size} (overlap-add deviation {dev:.2e}); \
             pick a hop dividing fft_size/2 (hann/hamming) or fft_size (rect)",
            window.name()
        );

        let fwd = RealFtFftPlan::from_spec(&spec.with_direction(Direction::Forward));
        let inv = RealFtFftPlan::from_spec(&spec.with_direction(Direction::Inverse));
        let bins = fwd.spectrum_len();
        StftPlan {
            n: fft_size,
            hop,
            bins,
            window_kind: window,
            window: w,
            cola_gain: gain,
            fwd,
            inv,
        }
    }

    /// Frame size (FFT length).
    pub fn fft_size(&self) -> usize {
        self.n
    }

    /// Analysis hop.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Spectrum bins per frame, `fft_size/2 + 1`.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// The analysis window shape.
    pub fn window(&self) -> Window {
        self.window_kind
    }

    /// The constant the shifted windows sum to (COLA gain).
    pub fn cola_gain(&self) -> f64 {
        self.cola_gain
    }

    /// Number of full frames a signal of `len` samples yields.
    pub fn num_frames(&self, len: usize) -> usize {
        if len < self.n {
            0
        } else {
            (len - self.n) / self.hop + 1
        }
    }

    /// Signal length covered by `frames` frames: `(frames−1)·hop + n`.
    pub fn signal_len(&self, frames: usize) -> usize {
        assert!(frames >= 1, "need at least one frame");
        (frames - 1) * self.hop + self.n
    }

    /// Allocates a workspace for the analysis/synthesis entry points.
    pub fn make_workspace(&self) -> StftWorkspace {
        StftWorkspace {
            staged: vec![0.0; BATCH_FRAMES * self.n],
            frames_out: vec![0.0; BATCH_FRAMES * self.n],
            ws_f: self.fwd.make_workspace_for(BATCH_FRAMES),
            ws_i: Some(self.inv.make_workspace_for(BATCH_FRAMES)),
        }
    }

    /// Allocates a workspace sized for the single-frame entry point
    /// ([`analyze_frame_into`](StftPlan::analyze_frame_into)) only — what
    /// a pooled worker needs, a fraction of [`make_workspace`]'s
    /// `BATCH_FRAMES`-deep buffers. Not valid for the batched
    /// `analyze_into`/`synthesize_into` paths.
    ///
    /// [`make_workspace`]: StftPlan::make_workspace
    pub fn make_frame_workspace(&self) -> StftWorkspace {
        StftWorkspace {
            staged: vec![0.0; self.n],
            frames_out: Vec::new(),
            ws_f: self.fwd.make_workspace_for(1),
            ws_i: None,
        }
    }

    /// Analyzes `x` into `num_frames(x.len())` spectrum frames of
    /// [`bins`](StftPlan::bins) bins each (row-major into `spec_frames`),
    /// batching the protected transforms. Returns the stream report.
    ///
    /// # Panics
    /// Panics if `spec_frames.len() != num_frames(x.len()) · bins`.
    pub fn analyze_into(
        &self,
        x: &[f64],
        spec_frames: &mut [Complex64],
        injector: &dyn FaultInjector,
        ws: &mut StftWorkspace,
    ) -> StreamReport {
        let frames = self.num_frames(x.len());
        assert_eq!(spec_frames.len(), frames * self.bins, "spectrogram length mismatch");
        let mut rep = StreamReport::new();
        let mut frame = 0;
        while frame < frames {
            let group = (frames - frame).min(BATCH_FRAMES);
            for g in 0..group {
                let offset = (frame + g) * self.hop;
                let staged = &mut ws.staged[g * self.n..(g + 1) * self.n];
                for (t, slot) in staged.iter_mut().enumerate() {
                    *slot = x[offset + t] * self.window[t];
                }
            }
            let ft = self.fwd.forward_batch(
                &ws.staged[..group * self.n],
                &mut spec_frames[frame * self.bins..(frame + group) * self.bins],
                injector,
                &mut ws.ws_f,
            );
            rep.merge_ft(&ft);
            frame += group;
        }
        rep.frames = frames as u64;
        rep.samples_in = x.len() as u64;
        rep.samples_out = (frames * self.bins) as u64;
        rep
    }

    /// Analyzes the single frame at `frame_idx · hop` — the entry point
    /// the pooled [`FrameScheduler`](crate::FrameScheduler) fans out
    /// (bitwise identical to the batched path).
    ///
    /// Returns the protected transform's [`FtReport`](ftfft_core::FtReport).
    pub fn analyze_frame_into(
        &self,
        x: &[f64],
        frame_idx: usize,
        spec: &mut [Complex64],
        injector: &dyn FaultInjector,
        ws: &mut StftWorkspace,
    ) -> ftfft_core::FtReport {
        let offset = frame_idx * self.hop;
        assert!(offset + self.n <= x.len(), "frame {frame_idx} overruns the signal");
        assert_eq!(spec.len(), self.bins, "spectrum length mismatch");
        let staged = &mut ws.staged[..self.n];
        for (t, slot) in staged.iter_mut().enumerate() {
            *slot = x[offset + t] * self.window[t];
        }
        self.fwd.forward_batch(&ws.staged[..self.n], spec, injector, &mut ws.ws_f)
    }

    /// Resynthesizes `out` (length `signal_len(frames)`) from spectrum
    /// frames by protected inverse transforms + overlap-add, normalizing
    /// by the actual window stack at every sample (zero where no window
    /// covers it, e.g. the very first Hann sample).
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn synthesize_into(
        &self,
        spec_frames: &[Complex64],
        out: &mut [f64],
        injector: &dyn FaultInjector,
        ws: &mut StftWorkspace,
    ) -> StreamReport {
        assert!(
            spec_frames.len().is_multiple_of(self.bins),
            "spectrogram length {} is not a multiple of bins {}",
            spec_frames.len(),
            self.bins
        );
        let frames = spec_frames.len() / self.bins;
        assert!(frames >= 1, "need at least one frame");
        assert_eq!(out.len(), self.signal_len(frames), "output length mismatch");

        out.fill(0.0);
        let ws_i = ws
            .ws_i
            .as_mut()
            .expect("synthesize_into needs a full workspace (StftPlan::make_workspace)");
        let mut rep = StreamReport::new();
        let mut frame = 0;
        while frame < frames {
            let group = (frames - frame).min(BATCH_FRAMES);
            let ft = self.inv.inverse_batch(
                &spec_frames[frame * self.bins..(frame + group) * self.bins],
                &mut ws.frames_out[..group * self.n],
                injector,
                ws_i,
            );
            rep.merge_ft(&ft);
            for g in 0..group {
                let offset = (frame + g) * self.hop;
                for (t, &v) in ws.frames_out[g * self.n..(g + 1) * self.n].iter().enumerate() {
                    out[offset + t] += v;
                }
            }
            frame += group;
        }

        // Normalize by the window stack at each sample. Interior samples
        // carry the full stack, which is the COLA constant by
        // construction — only the O(n) edge samples (partial stacks) pay
        // the per-position window sum.
        for (t, slot) in out.iter_mut().enumerate() {
            let full_stack = t >= self.n && t / self.hop < frames;
            let stack = if full_stack {
                self.cola_gain
            } else {
                let f_hi = (t / self.hop).min(frames - 1);
                let f_lo = if t < self.n { 0 } else { (t - self.n) / self.hop + 1 };
                let mut s = 0.0;
                for f in f_lo..=f_hi {
                    s += self.window[t - f * self.hop];
                }
                s
            };
            *slot = if stack > 1e-6 * self.cola_gain { *slot / stack } else { 0.0 };
        }
        rep.frames = frames as u64;
        rep.samples_in = (frames * self.bins) as u64;
        rep.samples_out = out.len() as u64;
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_core::Scheme;
    use ftfft_fault::NoFaults;
    use ftfft_numeric::uniform_signal;

    fn real_signal(n: usize, seed: u64) -> Vec<f64> {
        uniform_signal(n, seed).iter().map(|z| z.re).collect()
    }

    #[test]
    fn round_trip_is_exact_where_windows_cover() {
        for (window, hop) in [(Window::Hann, 64), (Window::Hamming, 32), (Window::Rect, 256)] {
            let plan = StftPlan::new(256, hop, window, FtConfig::new(Scheme::OnlineMemOpt));
            let len = plan.signal_len(17);
            let x = real_signal(len, 7);
            let mut ws = plan.make_workspace();
            let mut spec = vec![Complex64::ZERO; plan.num_frames(len) * plan.bins()];
            let rep = plan.analyze_into(&x, &mut spec, &NoFaults, &mut ws);
            assert!(rep.is_clean(), "{} hop={hop}: {:?}", window.name(), rep);
            assert_eq!(rep.frames, 17);

            let mut back = vec![0.0; len];
            let rep2 = plan.synthesize_into(&spec, &mut back, &NoFaults, &mut ws);
            assert!(rep2.is_clean());
            // Interior samples (full window stack) must round-trip ≤ 1e-10;
            // edge samples are normalized by the partial stack and
            // round-trip too wherever any window covers them.
            for t in 1..len - 1 {
                assert!(
                    (back[t] - x[t]).abs() < 1e-10,
                    "{} hop={hop} t={t}: {} vs {}",
                    window.name(),
                    back[t],
                    x[t]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not COLA")]
    fn non_cola_pair_rejected() {
        let _ = StftPlan::new(256, 100, Window::Hann, FtConfig::new(Scheme::Plain));
    }

    #[test]
    fn frame_accounting() {
        let plan = StftPlan::new(64, 16, Window::Hann, FtConfig::new(Scheme::Plain));
        assert_eq!(plan.num_frames(63), 0);
        assert_eq!(plan.num_frames(64), 1);
        assert_eq!(plan.num_frames(64 + 16), 2);
        assert_eq!(plan.signal_len(2), 80);
        assert_eq!(plan.bins(), 33);
    }

    #[test]
    fn single_frame_path_matches_batched_bitwise() {
        let plan = StftPlan::new(128, 32, Window::Hann, FtConfig::new(Scheme::OnlineCompOpt));
        let len = plan.signal_len(9);
        let x = real_signal(len, 3);
        let frames = plan.num_frames(len);
        let mut ws = plan.make_workspace();
        let mut batched = vec![Complex64::ZERO; frames * plan.bins()];
        plan.analyze_into(&x, &mut batched, &NoFaults, &mut ws);
        let mut single = vec![Complex64::ZERO; frames * plan.bins()];
        for f in 0..frames {
            let spec = &mut single[f * plan.bins()..(f + 1) * plan.bins()];
            plan.analyze_frame_into(&x, f, spec, &NoFaults, &mut ws);
        }
        assert_eq!(batched, single);
    }
}
