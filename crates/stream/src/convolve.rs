//! Overlap-save protected convolution of unbounded streams.
//!
//! [`StreamingConvolver`] FIR-filters a real-valued sample stream through
//! the classic overlap-save pipeline — ring-buffered history, hop-sized
//! frames, frequency-domain multiply — with every transform protected by
//! the ABFT schemes: the forward/inverse frame transforms run through
//! [`RealFtFftPlan`], whose checksummed region is the packed half-size
//! complex FFT, batched via `FtFftPlan::execute_batch`.
//! [`ComplexStreamingConvolver`] is the complex-sample counterpart running
//! [`FtFftPlan`] directly.
//!
//! Both are **allocation-free after construction**: every staging buffer
//! (frame ring, spectra, flush lanes) is sized in `new`, and the hot
//! `process_into` loop only copies, transforms, and multiplies — asserted
//! by `tests/no_alloc.rs`.
//!
//! Chunking-invariance contract: feeding the same samples in any split of
//! `process_into` calls produces **bitwise identical** output and an
//! identical [`StreamReport`], because frames are functions of absolute
//! stream position and the batched executors are bitwise equal to looped
//! single executions.

use ftfft_core::{FtConfig, FtFftPlan, PlanSpec, RealFtFftPlan, RealWorkspace, Workspace};
use ftfft_fault::{FaultInjector, NoFaults};
use ftfft_fft::Direction;
use ftfft_numeric::{simd, Complex64};

use crate::report::StreamReport;

/// Frames staged per protected batch call. Grouping is invisible in the
/// output (batch == looped execute, bitwise); it exists to amortize the
/// per-call overhead of the batched executors.
const BATCH_FRAMES: usize = 4;

/// Protected overlap-save FIR convolver for real sample streams.
///
/// Emits the linear convolution `y = x * taps` of everything pushed
/// through [`process_into`](StreamingConvolver::process_into), hop-sized
/// chunks at a time; [`flush_into`](StreamingConvolver::flush_into) drains
/// the `taps.len() − 1` tail and re-arms the stream.
pub struct StreamingConvolver {
    taps_len: usize,
    n: usize,
    hop: usize,
    bins: usize,
    fwd: RealFtFftPlan,
    inv: RealFtFftPlan,
    /// Protected forward transform of the zero-padded taps.
    h_spec: Vec<Complex64>,
    /// Trailing `taps_len − 1` input samples (the overlap).
    history: Vec<f64>,
    /// Partially filled next frame (`< hop` samples).
    pending: Vec<f64>,
    pending_len: usize,
    /// Staged full frames awaiting a batch flush (`BATCH_FRAMES · n`).
    staged: Vec<f64>,
    staged_frames: usize,
    specs: Vec<Complex64>,
    out_frames: Vec<f64>,
    ws_f: RealWorkspace,
    ws_i: RealWorkspace,
    /// Flush lanes: a hop of zeros and a hop of staging output.
    zeros: Vec<f64>,
    flush_buf: Vec<f64>,
    report: StreamReport,
}

impl StreamingConvolver {
    /// Builds a convolver with an automatic FFT size
    /// (`max(16, 4·taps.len())` rounded up to a power of two) — a thin
    /// wrapper bridging `cfg` into a [`PlanSpec`] for
    /// [`StreamingConvolver::from_spec`].
    pub fn new(taps: &[f64], cfg: FtConfig) -> Self {
        Self::from_spec(taps, &PlanSpec::from_config(0, Direction::Forward, cfg))
    }

    /// Builds a convolver from a spec with an automatic FFT size
    /// (`max(16, 4·taps.len())` rounded up to a power of two). The
    /// spec's `n` and direction are ignored — the frame size comes from
    /// the taps, and both directions are built.
    pub fn from_spec(taps: &[f64], spec: &PlanSpec) -> Self {
        let n = (4 * taps.len()).next_power_of_two().max(16);
        Self::from_spec_with_fft_size(taps, n, spec)
    }

    /// Builds a convolver over `fft_size`-sample frames — a thin wrapper
    /// bridging `cfg` into a [`PlanSpec`] for
    /// [`StreamingConvolver::from_spec_with_fft_size`].
    pub fn with_fft_size(taps: &[f64], fft_size: usize, cfg: FtConfig) -> Self {
        Self::from_spec_with_fft_size(
            taps,
            fft_size,
            &PlanSpec::from_config(fft_size, Direction::Forward, cfg),
        )
    }

    /// Builds a convolver from a spec over `fft_size`-sample frames
    /// (`hop = fft_size − taps.len() + 1` fresh samples per frame). The
    /// spec's `n` and direction are ignored.
    ///
    /// # Panics
    /// Panics if `taps` is empty, or `fft_size` is odd, `< 4`, or not
    /// larger than `taps.len()` (the hop must be ≥ 1; a hop of at least
    /// `taps.len()` is what makes the FFT pay for itself).
    pub fn from_spec_with_fft_size(taps: &[f64], fft_size: usize, spec: &PlanSpec) -> Self {
        assert!(!taps.is_empty(), "need at least one tap");
        assert!(
            fft_size >= 4 && fft_size.is_multiple_of(2) && fft_size > taps.len(),
            "fft_size {fft_size} must be even, >= 4 and > taps.len() ({})",
            taps.len()
        );
        let n = fft_size;
        let taps_len = taps.len();
        let hop = n - taps_len + 1;
        let fwd = RealFtFftPlan::from_spec(&spec.with_n(n).with_direction(Direction::Forward));
        let bins = fwd.spectrum_len();

        // Protected transform of the zero-padded taps (setup; may allocate).
        let mut padded = vec![0.0; n];
        padded[..taps_len].copy_from_slice(taps);
        let mut h_spec = vec![Complex64::ZERO; bins];
        let mut setup_ws = fwd.make_workspace();
        let rep = fwd.forward(&padded, &mut h_spec, &NoFaults, &mut setup_ws);
        assert_eq!(rep.uncorrectable, 0);

        let inv = RealFtFftPlan::from_spec(&spec.with_n(n).with_direction(Direction::Inverse));

        StreamingConvolver {
            taps_len,
            n,
            hop,
            bins,
            ws_f: fwd.make_workspace_for(BATCH_FRAMES),
            ws_i: inv.make_workspace_for(BATCH_FRAMES),
            fwd,
            inv,
            h_spec,
            history: vec![0.0; taps_len - 1],
            pending: vec![0.0; hop],
            pending_len: 0,
            staged: vec![0.0; BATCH_FRAMES * n],
            staged_frames: 0,
            specs: vec![Complex64::ZERO; BATCH_FRAMES * bins],
            out_frames: vec![0.0; BATCH_FRAMES * n],
            zeros: vec![0.0; hop],
            flush_buf: vec![0.0; hop],
            report: StreamReport::new(),
        }
    }

    /// Frame size (FFT length).
    pub fn fft_size(&self) -> usize {
        self.n
    }

    /// Fresh samples consumed (and outputs produced) per frame.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Filter length.
    pub fn taps_len(&self) -> usize {
        self.taps_len
    }

    /// Output samples the next `process_into(input)` call will produce.
    pub fn output_len_for(&self, input_len: usize) -> usize {
        ((self.pending_len + input_len) / self.hop) * self.hop
    }

    /// Accumulated per-stream telemetry.
    pub fn report(&self) -> &StreamReport {
        &self.report
    }

    /// Pushes `input` through the filter, writing every completed hop of
    /// convolved output to `out` and returning the sample count produced
    /// (exactly [`output_len_for`](StreamingConvolver::output_len_for)`(input.len())`;
    /// leftover samples wait in the ring for the next call).
    ///
    /// # Panics
    /// Panics if `out` is shorter than the samples this call produces.
    pub fn process_into(
        &mut self,
        input: &[f64],
        out: &mut [f64],
        injector: &dyn FaultInjector,
    ) -> usize {
        let will_produce = self.output_len_for(input.len());
        assert!(
            out.len() >= will_produce,
            "out holds {} samples, call produces {will_produce}",
            out.len()
        );
        let mut consumed = 0;
        let mut produced = 0;
        while consumed < input.len() {
            let take = (self.hop - self.pending_len).min(input.len() - consumed);
            self.pending[self.pending_len..self.pending_len + take]
                .copy_from_slice(&input[consumed..consumed + take]);
            self.pending_len += take;
            consumed += take;
            if self.pending_len == self.hop {
                self.stage_frame();
                if self.staged_frames == BATCH_FRAMES {
                    produced += self.flush_staged(&mut out[produced..], injector);
                }
            }
        }
        if self.staged_frames > 0 {
            produced += self.flush_staged(&mut out[produced..], injector);
        }
        self.report.samples_in = self.report.samples_in.saturating_add(input.len() as u64);
        debug_assert_eq!(produced, will_produce);
        produced
    }

    /// Drains the convolution tail: emits the remaining
    /// `pending + taps_len − 1` samples (zero-padding the stream), writes
    /// them to `out`, returns the count, and re-arms the convolver for a
    /// fresh stream (history cleared, telemetry kept).
    pub fn flush_into(&mut self, out: &mut [f64], injector: &dyn FaultInjector) -> usize {
        let remaining = self.pending_len + self.taps_len - 1;
        assert!(
            out.len() >= remaining,
            "out holds {} samples, flush produces {remaining}",
            out.len()
        );
        let samples_out_before = self.report.samples_out;
        let mut emitted = 0;
        while emitted < remaining {
            let fill = self.hop - self.pending_len;
            // zeros/flush_buf are separate lanes, temporarily moved out
            // of self so process_into can borrow them alongside &mut self.
            let zeros = std::mem::take(&mut self.zeros);
            let mut flush_buf = std::mem::take(&mut self.flush_buf);
            let produced = self.process_into(&zeros[..fill], &mut flush_buf, injector);
            debug_assert_eq!(produced, self.hop);
            let take = (remaining - emitted).min(self.hop);
            out[emitted..emitted + take].copy_from_slice(&flush_buf[..take]);
            self.zeros = zeros;
            self.flush_buf = flush_buf;
            emitted += take;
        }
        // The padded frames counted full hops of output; only the tail
        // samples actually left the stream.
        self.report.samples_out = samples_out_before.saturating_add(remaining as u64);
        self.history.fill(0.0);
        self.pending_len = 0;
        remaining
    }

    /// Copies `[history | pending]` into the staging ring and advances the
    /// history to the stream's trailing `taps_len − 1` samples.
    fn stage_frame(&mut self) {
        let hl = self.taps_len - 1;
        let frame =
            &mut self.staged[self.staged_frames * self.n..(self.staged_frames + 1) * self.n];
        frame[..hl].copy_from_slice(&self.history);
        frame[hl..].copy_from_slice(&self.pending[..self.hop]);
        if self.hop >= hl {
            self.history.copy_from_slice(&self.pending[self.hop - hl..self.hop]);
        } else {
            self.history.copy_within(self.hop.., 0);
            self.history[hl - self.hop..].copy_from_slice(&self.pending[..self.hop]);
        }
        self.pending_len = 0;
        self.staged_frames += 1;
    }

    /// Transforms the staged frames (batched), multiplies by the tap
    /// spectrum, inverse-transforms, and emits each frame's valid hop.
    fn flush_staged(&mut self, out: &mut [f64], injector: &dyn FaultInjector) -> usize {
        let f = self.staged_frames;
        let rep_f = self.fwd.forward_batch(
            &self.staged[..f * self.n],
            &mut self.specs[..f * self.bins],
            injector,
            &mut self.ws_f,
        );
        for spec in self.specs[..f * self.bins].chunks_exact_mut(self.bins) {
            simd::cmul_inplace(spec, &self.h_spec);
        }
        let rep_i = self.inv.inverse_batch(
            &self.specs[..f * self.bins],
            &mut self.out_frames[..f * self.n],
            injector,
            &mut self.ws_i,
        );
        for frame in 0..f {
            let valid = &self.out_frames[frame * self.n + self.taps_len - 1..(frame + 1) * self.n];
            out[frame * self.hop..(frame + 1) * self.hop].copy_from_slice(valid);
        }
        self.report.merge_ft(&rep_f);
        self.report.merge_ft(&rep_i);
        self.report.frames = self.report.frames.saturating_add(f as u64);
        self.report.samples_out = self.report.samples_out.saturating_add((f * self.hop) as u64);
        self.staged_frames = 0;
        f * self.hop
    }
}

/// Protected overlap-save FIR convolver for complex sample streams,
/// running the full-size [`FtFftPlan`] (batched) per frame.
///
/// Same ring/flush/report contract as [`StreamingConvolver`].
pub struct ComplexStreamingConvolver {
    taps_len: usize,
    n: usize,
    hop: usize,
    fwd: FtFftPlan,
    inv: FtFftPlan,
    h_spec: Vec<Complex64>,
    history: Vec<Complex64>,
    pending: Vec<Complex64>,
    pending_len: usize,
    staged: Vec<Complex64>,
    staged_frames: usize,
    specs: Vec<Complex64>,
    out_frames: Vec<Complex64>,
    ws_f: Workspace,
    ws_i: Workspace,
    zeros: Vec<Complex64>,
    flush_buf: Vec<Complex64>,
    report: StreamReport,
}

impl ComplexStreamingConvolver {
    /// Builds a complex convolver with an automatic power-of-two FFT size
    /// — a thin wrapper bridging `cfg` into a [`PlanSpec`] for
    /// [`ComplexStreamingConvolver::from_spec`].
    pub fn new(taps: &[Complex64], cfg: FtConfig) -> Self {
        Self::from_spec(taps, &PlanSpec::from_config(0, Direction::Forward, cfg))
    }

    /// Builds a complex convolver from a spec with an automatic
    /// power-of-two FFT size. The spec's `n` and direction are ignored —
    /// the frame size comes from the taps, and both directions are built.
    pub fn from_spec(taps: &[Complex64], spec: &PlanSpec) -> Self {
        let n = (4 * taps.len()).next_power_of_two().max(16);
        Self::from_spec_with_fft_size(taps, n, spec)
    }

    /// Builds a complex convolver over `fft_size`-sample frames — a thin
    /// wrapper bridging `cfg` into a [`PlanSpec`] for
    /// [`ComplexStreamingConvolver::from_spec_with_fft_size`].
    pub fn with_fft_size(taps: &[Complex64], fft_size: usize, cfg: FtConfig) -> Self {
        Self::from_spec_with_fft_size(
            taps,
            fft_size,
            &PlanSpec::from_config(fft_size, Direction::Forward, cfg),
        )
    }

    /// Builds a complex convolver from a spec over `fft_size`-sample
    /// frames. The spec's `n` and direction are ignored.
    ///
    /// # Panics
    /// Panics if `taps` is empty or `fft_size <= taps.len()`.
    pub fn from_spec_with_fft_size(taps: &[Complex64], fft_size: usize, spec: &PlanSpec) -> Self {
        assert!(!taps.is_empty(), "need at least one tap");
        assert!(fft_size > taps.len(), "fft_size {fft_size} must exceed taps.len()");
        let n = fft_size;
        let taps_len = taps.len();
        let hop = n - taps_len + 1;
        let fwd = FtFftPlan::from_spec(&spec.with_n(n).with_direction(Direction::Forward));

        let mut padded = vec![Complex64::ZERO; n];
        padded[..taps_len].copy_from_slice(taps);
        let mut h_spec = vec![Complex64::ZERO; n];
        let mut setup_ws = fwd.make_workspace();
        let rep = fwd.execute(&mut padded, &mut h_spec, &NoFaults, &mut setup_ws);
        assert_eq!(rep.uncorrectable, 0);

        let inv = FtFftPlan::from_spec(&spec.with_n(n).with_direction(Direction::Inverse));

        ComplexStreamingConvolver {
            taps_len,
            n,
            hop,
            ws_f: fwd.make_workspace(),
            ws_i: inv.make_workspace(),
            fwd,
            inv,
            h_spec,
            history: vec![Complex64::ZERO; taps_len - 1],
            pending: vec![Complex64::ZERO; hop],
            pending_len: 0,
            staged: vec![Complex64::ZERO; BATCH_FRAMES * n],
            staged_frames: 0,
            specs: vec![Complex64::ZERO; BATCH_FRAMES * n],
            out_frames: vec![Complex64::ZERO; BATCH_FRAMES * n],
            zeros: vec![Complex64::ZERO; hop],
            flush_buf: vec![Complex64::ZERO; hop],
            report: StreamReport::new(),
        }
    }

    /// Frame size (FFT length).
    pub fn fft_size(&self) -> usize {
        self.n
    }

    /// Fresh samples consumed (and outputs produced) per frame.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Output samples the next `process_into(input)` call will produce.
    pub fn output_len_for(&self, input_len: usize) -> usize {
        ((self.pending_len + input_len) / self.hop) * self.hop
    }

    /// Accumulated per-stream telemetry.
    pub fn report(&self) -> &StreamReport {
        &self.report
    }

    /// Pushes `input` through the filter (see
    /// [`StreamingConvolver::process_into`]).
    pub fn process_into(
        &mut self,
        input: &[Complex64],
        out: &mut [Complex64],
        injector: &dyn FaultInjector,
    ) -> usize {
        let will_produce = self.output_len_for(input.len());
        assert!(
            out.len() >= will_produce,
            "out holds {} samples, call produces {will_produce}",
            out.len()
        );
        let mut consumed = 0;
        let mut produced = 0;
        while consumed < input.len() {
            let take = (self.hop - self.pending_len).min(input.len() - consumed);
            self.pending[self.pending_len..self.pending_len + take]
                .copy_from_slice(&input[consumed..consumed + take]);
            self.pending_len += take;
            consumed += take;
            if self.pending_len == self.hop {
                self.stage_frame();
                if self.staged_frames == BATCH_FRAMES {
                    produced += self.flush_staged(&mut out[produced..], injector);
                }
            }
        }
        if self.staged_frames > 0 {
            produced += self.flush_staged(&mut out[produced..], injector);
        }
        self.report.samples_in = self.report.samples_in.saturating_add(input.len() as u64);
        debug_assert_eq!(produced, will_produce);
        produced
    }

    /// Drains the convolution tail and re-arms the stream (see
    /// [`StreamingConvolver::flush_into`]).
    pub fn flush_into(&mut self, out: &mut [Complex64], injector: &dyn FaultInjector) -> usize {
        let remaining = self.pending_len + self.taps_len - 1;
        assert!(
            out.len() >= remaining,
            "out holds {} samples, flush produces {remaining}",
            out.len()
        );
        let samples_out_before = self.report.samples_out;
        let mut emitted = 0;
        while emitted < remaining {
            let fill = self.hop - self.pending_len;
            let zeros = std::mem::take(&mut self.zeros);
            let mut flush_buf = std::mem::take(&mut self.flush_buf);
            let produced = self.process_into(&zeros[..fill], &mut flush_buf, injector);
            debug_assert_eq!(produced, self.hop);
            let take = (remaining - emitted).min(self.hop);
            out[emitted..emitted + take].copy_from_slice(&flush_buf[..take]);
            self.zeros = zeros;
            self.flush_buf = flush_buf;
            emitted += take;
        }
        // The padded frames counted full hops of output; only the tail
        // samples actually left the stream.
        self.report.samples_out = samples_out_before.saturating_add(remaining as u64);
        self.history.fill(Complex64::ZERO);
        self.pending_len = 0;
        remaining
    }

    fn stage_frame(&mut self) {
        let hl = self.taps_len - 1;
        let frame =
            &mut self.staged[self.staged_frames * self.n..(self.staged_frames + 1) * self.n];
        frame[..hl].copy_from_slice(&self.history);
        frame[hl..].copy_from_slice(&self.pending[..self.hop]);
        if self.hop >= hl {
            self.history.copy_from_slice(&self.pending[self.hop - hl..self.hop]);
        } else {
            self.history.copy_within(self.hop.., 0);
            self.history[hl - self.hop..].copy_from_slice(&self.pending[..self.hop]);
        }
        self.pending_len = 0;
        self.staged_frames += 1;
    }

    fn flush_staged(&mut self, out: &mut [Complex64], injector: &dyn FaultInjector) -> usize {
        let f = self.staged_frames;
        let rep_f = self.fwd.execute_batch(
            &mut self.staged[..f * self.n],
            &mut self.specs[..f * self.n],
            injector,
            &mut self.ws_f,
        );
        for spec in self.specs[..f * self.n].chunks_exact_mut(self.n) {
            simd::cmul_inplace(spec, &self.h_spec);
        }
        let rep_i = self.inv.execute_batch(
            &mut self.specs[..f * self.n],
            &mut self.out_frames[..f * self.n],
            injector,
            &mut self.ws_i,
        );
        let scale = 1.0 / self.n as f64;
        for frame in 0..f {
            let valid = &self.out_frames[frame * self.n + self.taps_len - 1..(frame + 1) * self.n];
            for (slot, &v) in out[frame * self.hop..(frame + 1) * self.hop].iter_mut().zip(valid) {
                *slot = v.scale(scale);
            }
        }
        self.report.merge_ft(&rep_f);
        self.report.merge_ft(&rep_i);
        self.report.frames = self.report.frames.saturating_add(f as u64);
        self.report.samples_out = self.report.samples_out.saturating_add((f * self.hop) as u64);
        self.staged_frames = 0;
        f * self.hop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_core::Scheme;
    use ftfft_numeric::uniform_signal;

    fn real_signal(n: usize, seed: u64) -> Vec<f64> {
        uniform_signal(n, seed).iter().map(|z| z.re).collect()
    }

    fn convolve_direct(x: &[f64], taps: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; x.len() + taps.len() - 1];
        for (i, &a) in x.iter().enumerate() {
            for (j, &b) in taps.iter().enumerate() {
                y[i + j] += a * b;
            }
        }
        y
    }

    #[test]
    fn matches_direct_convolution_with_flush() {
        let taps = real_signal(9, 1);
        let x = real_signal(300, 2);
        let want = convolve_direct(&x, &taps);

        let mut conv =
            StreamingConvolver::with_fft_size(&taps, 64, FtConfig::new(Scheme::OnlineMemOpt));
        let mut got = vec![0.0; want.len() + conv.hop()];
        let p = conv.process_into(&x, &mut got, &NoFaults);
        let tail = {
            let (_, rest) = got.split_at_mut(p);
            conv.flush_into(rest, &NoFaults)
        };
        assert_eq!(p + tail, want.len());
        for (t, (a, b)) in got[..want.len()].iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
        }
        assert!(conv.report().is_clean());
        assert_eq!(conv.report().frames, (p / conv.hop()) as u64 + 1);
        // samples_out counts what actually left the stream: the processed
        // hops plus the flush tail, not the flush frames' full hops.
        assert_eq!(conv.report().samples_out, want.len() as u64);
    }

    #[test]
    fn hop_smaller_than_history_still_correct() {
        // taps longer than half the frame: hop < taps_len − 1 exercises
        // the shifting history branch.
        let taps = real_signal(13, 3);
        let x = real_signal(120, 4);
        let want = convolve_direct(&x, &taps);
        let mut conv =
            StreamingConvolver::with_fft_size(&taps, 16, FtConfig::new(Scheme::OnlineCompOpt));
        assert!(conv.hop() < taps.len() - 1);
        let mut got = vec![0.0; want.len() + conv.hop()];
        let p = conv.process_into(&x, &mut got, &NoFaults);
        let (_, rest) = got.split_at_mut(p);
        conv.flush_into(rest, &NoFaults);
        for (t, (a, b)) in got[..want.len()].iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
        }
    }

    #[test]
    fn complex_convolver_matches_direct() {
        let taps: Vec<Complex64> = uniform_signal(7, 5).to_vec();
        let x: Vec<Complex64> = uniform_signal(200, 6).to_vec();
        let mut want = vec![Complex64::ZERO; x.len() + taps.len() - 1];
        for (i, &a) in x.iter().enumerate() {
            for (j, &b) in taps.iter().enumerate() {
                want[i + j] += a * b;
            }
        }
        let mut conv = ComplexStreamingConvolver::with_fft_size(
            &taps,
            32,
            FtConfig::new(Scheme::OnlineMemOpt),
        );
        let mut got = vec![Complex64::ZERO; want.len() + conv.hop()];
        let p = conv.process_into(&x, &mut got, &NoFaults);
        let (_, rest) = got.split_at_mut(p);
        conv.flush_into(rest, &NoFaults);
        for (t, (a, b)) in got[..want.len()].iter().zip(&want).enumerate() {
            assert!(a.approx_eq(*b, 1e-9), "t={t}: {a:?} vs {b:?}");
        }
        assert!(conv.report().is_clean());
    }
}
