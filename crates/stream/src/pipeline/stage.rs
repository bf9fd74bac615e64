//! Protected per-frame transform stages.
//!
//! A pipeline stage is a **pure, deterministic** function of its input
//! window: `history_len()` trailing samples of context plus `frame_len()`
//! fresh samples in, `output_len()` samples out, every FFT inside running
//! through the ABFT-protected plans. Purity is what makes the recovery
//! ladder honest — a frame recomputed after a caught panic or a CRC
//! detection must reproduce the original output *bitwise*, so a stage may
//! not keep evolving state across `apply` calls (scratch buffers are fine;
//! they are fully rewritten each call, which also makes a stage safe to
//! reuse after a mid-`apply` unwind).

use ftfft_core::{FtReport, PlanSpec, RealFtFftPlan, RealWorkspace};
use ftfft_fault::{FaultInjector, NoFaults};
use ftfft_fft::Direction;
use ftfft_numeric::{simd, Complex64};

/// One protected transform stage of the pipeline.
pub trait FrameTransform: Send {
    /// Fresh samples consumed per frame.
    fn frame_len(&self) -> usize;

    /// Trailing context samples required before each frame (0 for
    /// frame-independent stages).
    fn history_len(&self) -> usize {
        0
    }

    /// Samples produced per frame.
    fn output_len(&self) -> usize;

    /// Transforms one frame. `input` holds `history_len() + frame_len()`
    /// samples (context, then frame); `out` receives `output_len()`
    /// samples. Must be deterministic: identical input bits → identical
    /// output bits, including after a previous call panicked mid-way.
    fn apply(&mut self, input: &[f64], out: &mut [f64], injector: &dyn FaultInjector) -> FtReport;
}

/// Spectral-gate denoiser: protected forward transform → zero
/// sub-threshold bins → protected inverse. Frames are independent (no
/// history) and the round trip is exact — the rectangular-window STFT at
/// `hop = n`, run straight on the real plans: that STFT's overlap-add
/// would only divide every sample by a window stack of exactly 1.0.
pub struct StftDenoiseStage {
    fwd: RealFtFftPlan,
    inv: RealFtFftPlan,
    ws_f: RealWorkspace,
    ws_i: RealWorkspace,
    spec: Vec<Complex64>,
    gate: f64,
}

impl StftDenoiseStage {
    /// Builds the stage for `spec.n()`-sample frames; bins with magnitude
    /// `< gate` are zeroed (gate `0.0` keeps every bin — a pure protected
    /// round trip).
    ///
    /// # Panics
    /// Panics unless `spec.n()` is even and at least 4.
    pub fn new(spec: &PlanSpec, gate: f64) -> Self {
        let n = spec.n();
        assert!(n >= 4 && n.is_multiple_of(2), "frame size must be even and >= 4, got {n}");
        let fwd = RealFtFftPlan::from_spec(&spec.with_direction(Direction::Forward));
        let inv = RealFtFftPlan::from_spec(&spec.with_direction(Direction::Inverse));
        StftDenoiseStage {
            spec: vec![Complex64::ZERO; fwd.spectrum_len()],
            ws_f: fwd.make_workspace(),
            ws_i: inv.make_workspace(),
            fwd,
            inv,
            gate,
        }
    }
}

impl FrameTransform for StftDenoiseStage {
    fn frame_len(&self) -> usize {
        self.fwd.n()
    }

    fn output_len(&self) -> usize {
        self.fwd.n()
    }

    fn apply(&mut self, input: &[f64], out: &mut [f64], injector: &dyn FaultInjector) -> FtReport {
        let mut ft = self.fwd.forward(input, &mut self.spec, injector, &mut self.ws_f);
        if self.gate > 0.0 {
            let gate2 = self.gate * self.gate;
            for z in self.spec.iter_mut() {
                if z.norm_sqr() < gate2 {
                    *z = Complex64::ZERO;
                }
            }
        }
        ft.merge(&self.inv.inverse(&self.spec, out, injector, &mut self.ws_i));
        ft
    }
}

/// Protected FIR filter as a pure per-frame function: the pipeline feeds
/// the `taps.len() − 1` trailing history plus the fresh frame; one padded
/// protected forward, spectrum multiply, protected inverse, and the valid
/// (non-circular) samples come out — overlap-save with the overlap owned
/// by the caller, which is what keeps `apply` stateless and re-runnable.
pub struct FirFilterStage {
    taps_len: usize,
    n: usize,
    fwd: RealFtFftPlan,
    inv: RealFtFftPlan,
    h_spec: Vec<Complex64>,
    spec: Vec<Complex64>,
    time_out: Vec<f64>,
    ws_f: RealWorkspace,
    ws_i: RealWorkspace,
}

impl FirFilterStage {
    /// Builds the stage over `spec.n()`-sample FFT blocks.
    ///
    /// # Panics
    /// Panics if `taps` is empty or `spec.n()` is not larger than
    /// `taps.len()`.
    pub fn new(spec: &PlanSpec, taps: &[f64]) -> Self {
        let n = spec.n();
        assert!(!taps.is_empty(), "need at least one tap");
        assert!(
            n >= 4 && n.is_multiple_of(2) && n > taps.len(),
            "fft size {n} must be even, >= 4 and > taps.len() ({})",
            taps.len()
        );
        let fwd = RealFtFftPlan::from_spec(&spec.with_direction(Direction::Forward));
        let bins = fwd.spectrum_len();

        let mut padded = vec![0.0; n];
        padded[..taps.len()].copy_from_slice(taps);
        let mut h_spec = vec![Complex64::ZERO; bins];
        let mut setup_ws = fwd.make_workspace();
        let rep = fwd.forward(&padded, &mut h_spec, &NoFaults, &mut setup_ws);
        assert_eq!(rep.uncorrectable, 0);

        let inv = RealFtFftPlan::from_spec(&spec.with_direction(Direction::Inverse));

        FirFilterStage {
            taps_len: taps.len(),
            n,
            spec: vec![Complex64::ZERO; bins],
            time_out: vec![0.0; n],
            ws_f: fwd.make_workspace(),
            ws_i: inv.make_workspace(),
            fwd,
            inv,
            h_spec,
        }
    }
}

impl FrameTransform for FirFilterStage {
    fn frame_len(&self) -> usize {
        self.n - self.taps_len + 1
    }

    fn history_len(&self) -> usize {
        self.taps_len - 1
    }

    fn output_len(&self) -> usize {
        self.frame_len()
    }

    fn apply(&mut self, input: &[f64], out: &mut [f64], injector: &dyn FaultInjector) -> FtReport {
        debug_assert_eq!(input.len(), self.n);
        let mut ft = self.fwd.forward(input, &mut self.spec, injector, &mut self.ws_f);
        simd::cmul_inplace(&mut self.spec, &self.h_spec);
        let rep = self.inv.inverse(&self.spec, &mut self.time_out, injector, &mut self.ws_i);
        ft.merge(&rep);
        out.copy_from_slice(&self.time_out[self.taps_len - 1..]);
        ft
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolve::StreamingConvolver;
    use ftfft_core::{FtConfig, Scheme};
    use ftfft_numeric::uniform_signal;

    fn real_signal(len: usize, seed: u64) -> Vec<f64> {
        uniform_signal(len, seed).iter().map(|z| z.re).collect()
    }

    fn spec(n: usize, scheme: Scheme) -> PlanSpec {
        PlanSpec::from_config(n, Direction::Forward, FtConfig::new(scheme))
    }

    #[test]
    fn denoise_gate_zero_round_trips_exactly() {
        let mut stage = StftDenoiseStage::new(&spec(64, Scheme::OnlineMemOpt), 0.0);
        let x = real_signal(64, 3);
        let mut out = vec![0.0; 64];
        let ft = stage.apply(&x, &mut out, &NoFaults);
        assert!(ft.is_clean());
        for (a, b) in out.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn denoise_equals_the_rect_stft_round_trip_bitwise() {
        use crate::stft::StftPlan;
        use crate::window::Window;
        for (seed, gate, scheme) in [
            (1u64, 0.0, Scheme::OnlineMemOpt),
            (2, 0.05, Scheme::OnlineMemOpt),
            (3, 0.02, Scheme::OnlineCompOpt),
        ] {
            let s = spec(256, scheme);
            let mut stage = StftDenoiseStage::new(&s, gate);
            let x = real_signal(256, seed);
            let mut got = vec![0.0; 256];
            assert!(stage.apply(&x, &mut got, &NoFaults).is_clean());

            let stft = StftPlan::from_spec(&s, 256, Window::Rect);
            let mut ws = stft.make_workspace();
            let mut spec = vec![Complex64::ZERO; stft.bins()];
            stft.analyze_into(&x, &mut spec, &NoFaults, &mut ws);
            for z in spec.iter_mut() {
                if z.norm_sqr() < gate * gate {
                    *z = Complex64::ZERO;
                }
            }
            let mut want = vec![0.0; 256];
            stft.synthesize_into(&spec, &mut want, &NoFaults, &mut ws);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "seed {seed} gate {gate}"
            );
        }
    }

    #[test]
    fn apply_is_deterministic_bitwise() {
        let mut stage = StftDenoiseStage::new(&spec(64, Scheme::OnlineCompOpt), 0.02);
        let x = real_signal(64, 5);
        let mut a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        stage.apply(&x, &mut a, &NoFaults);
        stage.apply(&x, &mut b, &NoFaults);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fir_stage_matches_streaming_convolver() {
        // The stateless per-frame FIR must agree with the overlap-save
        // convolver on the steady-state samples (≤1e-9: same math, but
        // different batching may reorder roundoff-free identical ops —
        // they are in fact bitwise equal only per matching block sizes,
        // so compare numerically).
        let taps = [0.25, 0.5, -0.125, 0.0625, 0.3];
        let n = 32;
        let s = spec(n, Scheme::OnlineMemOpt);
        let mut stage = FirFilterStage::new(&s, &taps);
        let hop = stage.frame_len();
        assert_eq!(hop, n - taps.len() + 1);

        let frames = 5;
        let x = real_signal(hop * frames, 9);
        let mut ours = Vec::new();
        let mut history = vec![0.0; taps.len() - 1];
        let mut out = vec![0.0; hop];
        for f in 0..frames {
            let mut input = history.clone();
            input.extend_from_slice(&x[f * hop..(f + 1) * hop]);
            stage.apply(&input, &mut out, &NoFaults);
            ours.extend_from_slice(&out);
            history = input[input.len() - (taps.len() - 1)..].to_vec();
        }

        let mut conv =
            StreamingConvolver::with_fft_size(&taps, n, FtConfig::new(Scheme::OnlineMemOpt));
        let mut theirs = vec![0.0; hop * frames];
        let produced = conv.process_into(&x, &mut theirs, &NoFaults);
        assert_eq!(produced, hop * frames);
        for (t, (a, b)) in ours.iter().zip(&theirs).enumerate() {
            assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
        }
    }
}
