//! Streaming spectral denoising under a soft-error campaign.
//!
//! A noisy multi-tone stream runs through the fault-tolerant streaming
//! pipeline — STFT analysis → spectral gate (zero every bin below a
//! threshold) → overlap-add resynthesis — while scripted soft errors
//! strike the protected frame transforms. The online ABFT schemes detect
//! each fault inside the offending sub-FFT, recompute it, and the
//! denoised stream comes out identical to a fault-free run; the
//! [`StreamReport`] carries the per-stream telemetry a serving system
//! would export.
//!
//! ```text
//! cargo run --release --example streaming_denoise
//! ```

use ftfft::prelude::*;

/// Synthesizes `len` samples of three tones buried in uniform noise.
fn synthesize(len: usize, n_frame: usize, seed: u64) -> Vec<f64> {
    let tones: [(f64, f64); 3] = [(12.0, 1.0), (37.0, 0.6), (111.0, 0.35)];
    let noise = uniform_signal(len, seed);
    (0..len)
        .map(|t| {
            let mut s = 0.35 * noise[t].re;
            for &(bin, amp) in &tones {
                let phase = 2.0 * std::f64::consts::PI * bin * t as f64 / n_frame as f64;
                s += amp * phase.sin();
            }
            s
        })
        .collect()
}

fn rms(x: &[f64]) -> f64 {
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

fn main() {
    let n = 1 << 9; // 512-sample frames
    let hop = n / 2;
    // Each transform measures its input's scale itself; what the §8 model
    // cannot see is the shape. Tonal signals concentrate energy into
    // single bins (~N·amp instead of the √N·σ a random signal puts
    // there), so widen the model thresholds like every tonal pipeline
    // must; injected faults sit many orders of magnitude above even the
    // widened η.
    let spec = PlanSpec::builder(n)
        .scheme(Scheme::OnlineMemOpt)
        .threshold_scale((n as f64).sqrt())
        .build();
    let plan = StftPlan::from_spec(&spec, hop, Window::Hann);

    let frames = 40;
    let len = plan.signal_len(frames);
    let noisy = synthesize(len, n, 7);
    let clean_tones = {
        let mut pure = synthesize(len, n, 7);
        let noise = uniform_signal(len, 7);
        for (p, z) in pure.iter_mut().zip(&noise) {
            *p -= 0.35 * z.re;
        }
        pure
    };
    println!("streaming denoise: {frames} frames of {n} samples (hop {hop}), Hann window\n");

    // The fault campaign: computational bit flips and a memory fault
    // spread across the stream's protected frame transforms.
    let campaign = || {
        ScriptedInjector::new(vec![
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 3 },
                5,
                FaultKind::BitFlip { bit: 60, component: Component::Re },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: 1 },
                2,
                FaultKind::AddDelta { re: 0.0, im: 50.0 },
            )
            .at_occurrence(17),
            ScriptedFault::new(Site::InputMemory, 23, FaultKind::SetValue { re: 30.0, im: 30.0 })
                .at_occurrence(9),
        ])
    };

    let denoise = |injector: &dyn FaultInjector| -> (Vec<f64>, StreamReport) {
        let mut ws = plan.make_workspace();
        let mut spec = vec![Complex64::ZERO; plan.num_frames(len) * plan.bins()];
        let mut report = plan.analyze_into(&noisy, &mut spec, injector, &mut ws);

        // Spectral gate: keep only bins carrying real tone energy. A tone
        // of amplitude a lands ~a·n/4 in its Hann-windowed bin (≥ 45
        // here); the noise floor sits around σ·√(n·Σw²/n)/√2 ≈ 2.
        let gate = 0.04 * n as f64;
        for bin in spec.iter_mut() {
            if bin.norm() < gate {
                *bin = Complex64::ZERO;
            }
        }

        let mut out = vec![0.0; len];
        report.merge(&plan.synthesize_into(&spec, &mut out, injector, &mut ws));
        (out, report)
    };

    let (want, clean_rep) = denoise(&NoFaults);
    assert!(clean_rep.is_clean(), "fault-free run must be clean: {clean_rep:?}");

    let inj = campaign();
    let (got, rep) = denoise(&inj);
    assert!(inj.exhausted(), "every scripted fault must fire");

    let interior = hop..len - hop;
    let noise_before = rms(&noisy[interior.clone()]
        .iter()
        .zip(&clean_tones[interior.clone()])
        .map(|(a, b)| a - b)
        .collect::<Vec<_>>());
    let noise_after = rms(&got[interior.clone()]
        .iter()
        .zip(&clean_tones[interior.clone()])
        .map(|(a, b)| a - b)
        .collect::<Vec<_>>());

    println!("{:<34}{:>12}", "stream", "residual rms");
    println!("{:<34}{:>12.4}", "noisy input (vs pure tones)", noise_before);
    println!("{:<34}{:>12.4}", "denoised under fault campaign", noise_after);

    println!("\nStreamReport:");
    println!("  frames processed : {}", rep.frames);
    println!("  samples in / out : {} / {}", rep.samples_in, rep.samples_out);
    println!("  checks performed : {}", rep.ft.checks);
    println!("  faults detected  : {}", rep.detected());
    println!("  faults corrected : {}", rep.corrected());
    println!("  uncorrectable    : {}", rep.ft.uncorrectable);

    assert_eq!(rep.frames, 2 * frames as u64, "analysis + synthesis frames");
    assert!(rep.detected() >= 3, "all three campaign faults must be detected: {rep:?}");
    assert_eq!(rep.ft.uncorrectable, 0);
    // The gate strips the noise-only bins; what survives is the noise
    // inside the handful of kept tone bins.
    assert!(noise_after < 0.5 * noise_before, "gate must strip most of the noise");
    // The corrected stream equals the fault-free stream: computational
    // faults recompute bitwise, the memory repair reconstructs the struck
    // element from its checksum (exact to round-off).
    let max_diff = got.iter().zip(&want).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    assert!(max_diff < 1e-6, "corrected output must equal the fault-free run (diff {max_diff:e})");
    println!("\nall faults corrected online; denoised stream matches the fault-free one");
}
