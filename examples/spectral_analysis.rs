//! Spectral analysis under soft errors: find the tones buried in a noisy
//! signal while a bit flip strikes mid-transform.
//!
//! A plain FFT silently corrupts the spectrum (spurious peaks / wrong
//! magnitudes); the online ABFT transform detects the error in the
//! offending sub-FFT, recomputes it, and reports the same peaks as a clean
//! run.
//!
//! ```text
//! cargo run --release --example spectral_analysis
//! ```

use ftfft::prelude::*;

/// Synthesizes `n` samples of three tones plus uniform noise.
fn synthesize(n: usize, seed: u64) -> Vec<Complex64> {
    let tones: [(f64, f64); 3] = [(50.0, 1.0), (120.0, 0.7), (333.0, 0.4)];
    let noise = uniform_signal(n, seed);
    (0..n)
        .map(|t| {
            let mut s = noise[t].scale(0.05);
            for &(freq, amp) in &tones {
                let phase = 2.0 * std::f64::consts::PI * freq * t as f64 / n as f64;
                s += Complex64::new(amp * phase.cos(), amp * phase.sin());
            }
            s
        })
        .collect()
}

/// Returns the `count` strongest bins of a spectrum.
fn top_peaks(spectrum: &[Complex64], count: usize) -> Vec<(usize, f64)> {
    let mut mags: Vec<(usize, f64)> =
        spectrum.iter().enumerate().map(|(i, z)| (i, z.norm())).collect();
    mags.sort_by(|a, b| b.1.total_cmp(&a.1));
    mags.truncate(count);
    mags
}

fn main() {
    let n = 1 << 13;
    let signal = synthesize(n, 7);
    println!("spectral analysis of a {n}-sample signal with tones at bins 50, 120, 333\n");

    // Reference spectrum (no faults). Each execution measures the input
    // scale itself, so the loud tones + noise need no calibration. What
    // the §8 model cannot know is the signal's *shape*: a pure tone
    // concentrates the whole signal energy into one bin (|X| ~ N·amp
    // instead of the random-signal √N·σ the model assumes), so the
    // round-off floor of the affected sub-FFTs is ~√N× the model value;
    // widen the thresholds accordingly (without it, a single fault costs
    // recomputes of clean sub-FFTs too). Injected faults are many orders
    // of magnitude above even the widened η.
    let plan = FtFftPlan::from_spec(
        &PlanSpec::builder(n)
            .scheme(Scheme::OnlineMemOpt)
            .threshold_scale((n as f64).sqrt())
            .build(),
    );
    let mut ws = plan.make_workspace();
    let mut x = signal.clone();
    let mut clean = vec![Complex64::ZERO; n];
    plan.execute(&mut x, &mut clean, &NoFaults, &mut ws);

    // A high-bit flip strikes the intermediate result of a sub-FFT that
    // contributes to every output bin.
    let fault = || {
        ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::Second, index: 17 },
            5,
            FaultKind::BitFlip { bit: 61, component: Component::Im },
        )])
    };

    // 1. Unprotected run, fault silently corrupts the spectrum. The plain
    //    scheme ignores the injector, so emulate the damage through the
    //    online executor's sites on a no-retry config with a huge
    //    threshold: instead, simply flip the same bit in the clean result
    //    of the corresponding column to show the effect.
    let mut corrupted = clean.clone();
    {
        // The 17th second-part FFT writes bins { j1*m + 17 }.
        let m = plan.two().m();
        let victim = 3 * m + 17;
        FaultKind::BitFlip { bit: 61, component: Component::Im }.apply(&mut corrupted[victim]);
    }

    // 2. Protected run with the same class of fault injected mid-pipeline.
    let inj = fault();
    let mut x = signal.clone();
    let mut protected = vec![Complex64::ZERO; n];
    let report = plan.execute(&mut x, &mut protected, &inj, &mut ws);

    println!("{:<28}{:>10}{:>14}", "spectrum", "top bins", "rel. error");
    let show = |name: &str, spec: &[Complex64]| {
        let peaks = top_peaks(spec, 3);
        let bins: Vec<usize> = peaks.iter().map(|p| p.0).collect();
        let err = relative_error_inf(spec, &clean);
        println!("{name:<28}{:>10?}{err:>14.2e}", bins);
    };
    show("clean (reference)", &clean);
    show("plain FFT + bit flip", &corrupted);
    show("online ABFT + bit flip", &protected);

    println!(
        "\nprotected run report: {} detected, {} sub-FFT recomputed",
        report.total_detected(),
        report.subfft_recomputed
    );
    assert!(relative_error_inf(&protected, &clean) < 1e-10);
    let clean_peaks: Vec<usize> = top_peaks(&clean, 3).iter().map(|p| p.0).collect();
    let prot_peaks: Vec<usize> = top_peaks(&protected, 3).iter().map(|p| p.0).collect();
    assert_eq!(clean_peaks, prot_peaks, "peaks must survive the fault");
    println!("the protected spectrum is bit-for-bit usable; the plain one is corrupted");
}
