//! Threshold and round-off behaviour: no false positives across many
//! fault-free seeds, residuals within the §8 model, throughput accounting.

use ftfft::prelude::*;

#[test]
fn no_false_positives_over_many_seeds() {
    let n = 4096;
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
    let mut ws = plan.make_workspace();
    for seed in 0..40u64 {
        let mut x = uniform_signal(n, seed);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
        assert!(rep.is_clean(), "seed {seed}: {rep:?}");
    }
}

#[test]
fn no_false_positives_with_normal_inputs() {
    let n = 4096;
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
    let mut ws = plan.make_workspace();
    for seed in 0..20u64 {
        let mut x = ftfft::numeric::normal_signal(n, seed);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
        assert!(rep.is_clean(), "seed {seed}: {rep:?}");
    }
}

#[test]
fn observed_residuals_sit_below_model_thresholds() {
    let n = 4096;
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineCompOpt));
    let mut ws = plan.make_workspace();
    let mut max1 = 0.0f64;
    let mut max2 = 0.0f64;
    for seed in 100..130u64 {
        let mut x = uniform_signal(n, seed);
        // The η each run checks against: the model at the input's own σ̂.
        let th = plan.thresholds_for(&x);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
        let (r1, r2) = (rep.max_ok_residual_part1, rep.max_ok_residual_part2);
        assert!(r1 > 0.0 && r1 <= th.eta1, "seed {seed}: part1 {r1:.3e} vs η1 {:.3e}", th.eta1);
        assert!(r2 > 0.0 && r2 <= th.eta2, "seed {seed}: part2 {r2:.3e} vs η2 {:.3e}", th.eta2);
        max1 = max1.max(r1);
        max2 = max2.max(r2);
    }
    // Table 4's structure: the second part's residual floor is higher.
    assert!(max2 > max1, "second part carries larger values");
}

#[test]
fn threshold_scale_zero_forces_detection_storm() {
    // Degenerate setting: η = 0 turns every round-off wiggle into a
    // "detected error"; the executor must still terminate (bounded
    // retries) and report the failures as uncorrectable.
    let n = 256;
    let cfg = FtConfig::new(Scheme::OnlineCompOpt).with_threshold_scale(0.0).with_max_retries(1);
    let plan = FtFftPlan::new(n, Direction::Forward, cfg);
    let mut x = uniform_signal(n, 1);
    let mut out = vec![Complex64::ZERO; n];
    let rep = plan.execute_alloc(&mut x, &mut out, &NoFaults);
    assert!(rep.uncorrectable > 0);
    assert!(rep.subfft_recomputed > 0);
}

#[test]
fn throughput_model_matches_paper_constants() {
    // η = 3σ√N ⇒ 0.997 (§8.1).
    let t = throughput(3.0, 1.0);
    assert!((t - 0.997).abs() < 5e-4);
    // Campaign bookkeeping.
    assert!((ftfft::roundoff::empirical_throughput(997, 3) - 0.997).abs() < 1e-9);
}

#[test]
fn calibrator_reproduces_table6_protocol() {
    // Fault-free runs → max residual → η with headroom → no false alarms.
    let n = 1024;
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineCompOpt));
    let mut ws = plan.make_workspace();
    let mut cal = Calibrator::new();
    for seed in 0..10u64 {
        let mut x = uniform_signal(n, seed);
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
        cal.observe(rep.max_ok_residual_part1.max(rep.max_ok_residual_part2));
    }
    assert_eq!(cal.count(), 10);
    let eta = cal.eta(2.0);
    assert!(eta > 0.0);
    // The calibrated η must clear every observed residual.
    assert!(eta >= cal.max_residual());
}

#[test]
fn model_thresholds_scale_with_problem_size() {
    let sigma = SignalDist::Uniform.component_std_dev();
    let small = thresholds_for_split(1 << 10, 1 << 5, 1 << 5, sigma);
    let large = thresholds_for_split(1 << 20, 1 << 10, 1 << 10, sigma);
    assert!(large.eta1 > small.eta1);
    assert!(large.eta_offline > small.eta_offline);
    // The offline/online gap grows with N — the Table 5 story.
    assert!(large.eta_offline / large.eta2 > small.eta_offline / small.eta2);
}

// ---- input-scale invariance -------------------------------------------

fn scaled(x: &[Complex64], s: f64) -> Vec<Complex64> {
    x.iter().map(|z| z.scale(s)).collect()
}

fn scaled_re(x: &[f64], s: f64) -> Vec<f64> {
    x.iter().map(|v| v * s).collect()
}

/// A report with its residual maxima cleared: the part of it that must
/// not depend on the input scale at all.
fn counts(r: &FtReport) -> FtReport {
    FtReport { max_ok_residual_part1: 0.0, max_ok_residual_part2: 0.0, ..*r }
}

/// Asserts that `rep` is `base` run at `2^p` times the input scale:
/// identical counts, residual maxima exactly `s = 2^p` times larger.
fn assert_scaled_report(rep: &FtReport, base: &FtReport, s: f64, what: &str) {
    assert_eq!(counts(rep), counts(base), "{what}: counts moved with the input scale");
    assert_eq!(rep.max_ok_residual_part1, base.max_ok_residual_part1 * s, "{what}: part 1");
    assert_eq!(rep.max_ok_residual_part2, base.max_ok_residual_part2 * s, "{what}: part 2");
}

fn execute(
    plan: &FtFftPlan,
    x: &[Complex64],
    inj: &dyn FaultInjector,
) -> (Vec<Complex64>, FtReport) {
    let mut xin = x.to_vec();
    let mut out = vec![Complex64::ZERO; x.len()];
    let rep = plan.execute_alloc(&mut xin, &mut out, inj);
    (out, rep)
}

fn execute_batch(plan: &FtFftPlan, xs: &[Complex64]) -> (Vec<Complex64>, FtReport) {
    let mut xin = xs.to_vec();
    let mut out = vec![Complex64::ZERO; xs.len()];
    let mut ws = plan.make_workspace();
    let rep = plan.execute_batch(&mut xin, &mut out, &NoFaults, &mut ws);
    (out, rep)
}

/// The signals of the real-input, STFT and batch cases.
fn real_signal(len: usize, seed: u64) -> Vec<f64> {
    uniform_signal(len, seed).iter().map(|z| z.re).collect()
}

/// Forward then inverse real transform of `x`: the spectrum, the round
/// trip and both reports.
fn real_round_trip(
    n: usize,
    scheme: Scheme,
    x: &[f64],
) -> (Vec<Complex64>, Vec<f64>, FtReport, FtReport) {
    let fwd = RealFtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
    let inv = RealFtFftPlan::new(n, Direction::Inverse, FtConfig::new(scheme));
    let mut spec = vec![Complex64::ZERO; fwd.spectrum_len()];
    let rf = fwd.forward(x, &mut spec, &NoFaults, &mut fwd.make_workspace());
    let mut back = vec![0.0; n];
    let ri = inv.inverse(&spec, &mut back, &NoFaults, &mut inv.make_workspace());
    (spec, back, rf, ri)
}

/// STFT analysis + synthesis of `x` (Hann window, half-frame hop).
fn stft_round_trip(
    n: usize,
    scheme: Scheme,
    x: &[f64],
) -> (Vec<Complex64>, Vec<f64>, FtReport, FtReport) {
    let plan = StftPlan::new(n, n / 2, Window::Hann, FtConfig::new(scheme));
    let mut ws = plan.make_workspace();
    let mut spec = vec![Complex64::ZERO; plan.num_frames(x.len()) * plan.bins()];
    let ra = plan.analyze_into(x, &mut spec, &NoFaults, &mut ws);
    let mut back = vec![0.0; x.len()];
    let rs = plan.synthesize_into(&spec, &mut back, &NoFaults, &mut ws);
    (spec, back, ra.ft, rs.ft)
}

const POW2_SCALES: [i32; 4] = [20, -20, 40, -40];
const DECIMAL_SCALES: [f64; 4] = [1e-6, 1e-3, 1e3, 1e6];

#[test]
fn power_of_two_input_scales_scale_every_result_exactly() {
    // A 2^p input scale is exact in binary floating point, so a detector
    // that follows the input's own σ̂ must give bit-for-bit 2^p-scaled
    // outputs and residuals and *identical* counts.
    let n = 1 << 10;
    let x = uniform_signal(n, 21);
    let xs = uniform_signal(4 * n, 22);
    let xr = real_signal(n, 23);
    let xt = real_signal(4 * 256, 24);
    for scheme in Scheme::ALL {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
        let (out0, rep0) = execute(&plan, &x, &NoFaults);
        let (bout0, brep0) = execute_batch(&plan, &xs);
        let (rspec0, rback0, rf0, ri0) = real_round_trip(n, scheme, &xr);
        let (tspec0, tback0, tf0, ti0) = stft_round_trip(256, scheme, &xt);
        for p in POW2_SCALES {
            let s = 2f64.powi(p);
            let what = format!("{scheme:?} at 2^{p}");
            let (out, rep) = execute(&plan, &scaled(&x, s), &NoFaults);
            assert_eq!(out, scaled(&out0, s), "{what}: execute output");
            assert_scaled_report(&rep, &rep0, s, &what);
            let (bout, brep) = execute_batch(&plan, &scaled(&xs, s));
            assert_eq!(bout, scaled(&bout0, s), "{what}: execute_batch output");
            assert_scaled_report(&brep, &brep0, s, &format!("{what} batch"));
            let (rspec, rback, rf, ri) = real_round_trip(n, scheme, &scaled_re(&xr, s));
            assert_eq!(rspec, scaled(&rspec0, s), "{what}: real spectrum");
            assert_eq!(rback, scaled_re(&rback0, s), "{what}: real round trip");
            assert_scaled_report(&rf, &rf0, s, &format!("{what} real forward"));
            assert_scaled_report(&ri, &ri0, s, &format!("{what} real inverse"));
            let (tspec, tback, tf, ti) = stft_round_trip(256, scheme, &scaled_re(&xt, s));
            assert_eq!(tspec, scaled(&tspec0, s), "{what}: STFT spectrum");
            assert_eq!(tback, scaled_re(&tback0, s), "{what}: STFT resynthesis");
            assert_scaled_report(&tf, &tf0, s, &format!("{what} STFT analysis"));
            assert_scaled_report(&ti, &ti0, s, &format!("{what} STFT synthesis"));
        }
    }
}

#[test]
fn decimal_input_scales_raise_no_false_alarm() {
    // Fault-free 2^14 inputs from 1e-6 to 1e6 in every scheme, a B = 8
    // batch, and the real/STFT paths: no detection, recompute or
    // uncorrectable anywhere.
    let n = 1 << 14;
    let x = uniform_signal(n, 31);
    let xs = uniform_signal(8 * n, 32);
    let xr = real_signal(1 << 12, 33);
    let xt = real_signal(8 * 256, 34);
    for scheme in Scheme::ALL {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
        for s in DECIMAL_SCALES.into_iter().chain([1.0]) {
            let what = format!("{scheme:?} at {s:e}");
            let (_, rep) = execute(&plan, &scaled(&x, s), &NoFaults);
            assert!(rep.is_clean(), "{what}: {rep:?}");
            let (_, rep) = execute_batch(&plan, &scaled(&xs, s));
            assert!(rep.is_clean(), "{what} batch of 8: {rep:?}");
            let (_, _, rf, ri) = real_round_trip(1 << 12, scheme, &scaled_re(&xr, s));
            assert!(rf.is_clean() && ri.is_clean(), "{what} real: {rf:?} {ri:?}");
            let (_, _, tf, ti) = stft_round_trip(256, scheme, &scaled_re(&xt, s));
            assert!(tf.is_clean() && ti.is_clean(), "{what} STFT: {tf:?} {ti:?}");
        }
    }
}

#[test]
fn exponent_bit_flip_is_corrected_at_every_input_scale() {
    // A flipped exponent bit scales the struck word by 2^±256 — an error
    // relative to the word, like every real bit flip. It must be caught
    // and repaired at any input scale, leaving the clean output's bits.
    let n = 1 << 10;
    let x = uniform_signal(n, 41);
    let online =
        [Scheme::OnlineComp, Scheme::OnlineCompOpt, Scheme::OnlineMem, Scheme::OnlineMemOpt];
    for scheme in online {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
        for s in DECIMAL_SCALES.into_iter().chain([1.0, 2f64.powi(40), 2f64.powi(-40)]) {
            let xs = scaled(&x, s);
            let (clean, _) = execute(&plan, &xs, &NoFaults);
            for part in [Part::First, Part::Second] {
                let inj = ScriptedInjector::new(vec![ScriptedFault::new(
                    Site::SubFftCompute { part, index: 3 },
                    5,
                    FaultKind::BitFlip { bit: 60, component: Component::Re },
                )]);
                let (out, rep) = execute(&plan, &xs, &inj);
                let what = format!("{scheme:?} {part:?} at {s:e}");
                assert!(inj.exhausted(), "{what}: the flip must fire");
                assert!(rep.comp_detected >= 1, "{what}: undetected: {rep:?}");
                assert_eq!(rep.uncorrectable, 0, "{what}: {rep:?}");
                assert_eq!(out, clean, "{what}: output not restored");
            }
        }
    }
}

// ---- fail closed on inputs without a finite scale ----------------------

/// Every protected scheme (the unprotected `Plain` verifies nothing).
fn protected_schemes() -> impl Iterator<Item = Scheme> {
    Scheme::ALL.into_iter().filter(|&s| s != Scheme::Plain)
}

#[test]
fn nan_and_infinite_inputs_fail_closed() {
    let n = 256;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut x = uniform_signal(n, 51);
        x[17].im = bad;
        for scheme in protected_schemes() {
            let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
            let (out, rep) = execute(&plan, &x, &NoFaults);
            assert!(rep.uncorrectable > 0, "{scheme:?} with {bad}: {rep:?}");
            assert!(out.iter().all(|z| z.re.is_nan() && z.im.is_nan()), "{scheme:?}: unpoisoned");
        }
        // In a batch only the member without a finite scale fails; its
        // neighbours are verified on their own and keep their bits.
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::BatchChecksum));
        let members: Vec<Vec<Complex64>> =
            (0..4).map(|j| if j == 2 { x.clone() } else { uniform_signal(n, 60 + j) }).collect();
        let xs: Vec<&[Complex64]> = members.iter().map(|m| m.as_slice()).collect();
        let mut outs = vec![vec![Complex64::ZERO; n]; 4];
        let mut orefs: Vec<&mut [Complex64]> = outs.iter_mut().map(|o| o.as_mut_slice()).collect();
        let mut reports = vec![FtReport::new(); 4];
        let mut ws = plan.make_workspace();
        plan.execute_batch_members(&xs, &mut orefs, &[&NoFaults], &mut reports, &mut ws);
        for (j, rep) in reports.iter().enumerate() {
            if j == 2 {
                assert!(rep.uncorrectable > 0, "bad member with {bad}: {rep:?}");
            } else {
                assert!(rep.is_clean(), "member {j} beside a {bad} member: {rep:?}");
                assert_eq!(outs[j], execute(&plan, &members[j], &NoFaults).0, "member {j}");
            }
        }
    }
}

#[test]
fn overflowing_input_energy_fails_closed() {
    // Every element finite, but ‖x‖² overflows: σ̂ is infinite and no
    // threshold exists, so nothing may come back verified.
    let n = 256;
    let x = scaled(&uniform_signal(n, 52), 1e200);
    for scheme in protected_schemes() {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
        let (_, rep) = execute(&plan, &x, &NoFaults);
        assert!(rep.uncorrectable > 0, "{scheme:?}: {rep:?}");
    }
    let inplace = InPlaceFtPlan::new(n, Direction::Forward, 3);
    let mut data = x.clone();
    let (rep, _) = inplace.execute(&mut data, &NoFaults, &mut inplace.make_workspace(), 0, None);
    assert!(rep.uncorrectable > 0, "in-place: {rep:?}");
}

#[test]
fn service_rejects_inputs_without_a_finite_scale() {
    let n = 256;
    let svc = FftService::new(ServiceConfig::default().with_workers(1));
    let mut nan = uniform_signal(n, 53);
    nan[3].re = f64::NAN;
    let huge = scaled(&uniform_signal(n, 54), 1e200);
    for scheme in [Scheme::OnlineMemOpt, Scheme::BatchChecksum] {
        let spec = PlanSpec::builder(n).scheme(scheme).build();
        for input in [nan.clone(), huge.clone()] {
            let res = svc.submit("t", &spec, input).wait_result();
            assert!(
                matches!(res, Err(RequestError::Uncorrectable(c)) if c > 0),
                "{scheme:?}: a request without a finite scale must not come back Ok"
            );
        }
    }
    svc.quiesce();
}

#[test]
fn all_zero_input_stays_clean_in_every_scheme() {
    // σ̂ = 0 makes every η 0, and every residual of a zero input is
    // exactly 0: clean, not a detection storm.
    let n = 256;
    let zeros = vec![Complex64::ZERO; n];
    for scheme in Scheme::ALL {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
        let (out, rep) = execute(&plan, &zeros, &NoFaults);
        assert!(rep.is_clean(), "{scheme:?}: {rep:?}");
        assert!(out.iter().all(|z| *z == Complex64::ZERO), "{scheme:?}");
        let (_, rep) = execute_batch(&plan, &vec![Complex64::ZERO; 4 * n]);
        assert!(rep.is_clean(), "{scheme:?} batch: {rep:?}");
    }
    let inplace = InPlaceFtPlan::new(n, Direction::Forward, 3);
    let mut data = zeros.clone();
    let (rep, _) = inplace.execute(&mut data, &NoFaults, &mut inplace.make_workspace(), 0, None);
    assert!(rep.is_clean(), "in-place: {rep:?}");
    let (_, rep) = ParallelFft::new(1 << 10, 4, ParallelScheme::OptFtFftw, None, 3)
        .run(&vec![Complex64::ZERO; 1 << 10], &NoFaults);
    assert!(rep.is_clean(), "six-step: {rep:?}");
}

// ---- clean margins: residual / η --------------------------------------

/// Largest `residual/η` over every accepted sub-FFT check of `scheme` at
/// `2^lo..=2^hi`, both directions, `seeds` inputs each of uniform, normal
/// and real-valued data.
fn worst_margin(scheme: Scheme, lo: u32, hi: u32, seeds: u64) -> (f64, String) {
    let mut worst = (0.0f64, String::new());
    for log2n in lo..=hi {
        let n = 1usize << log2n;
        for dir in [Direction::Forward, Direction::Inverse] {
            let plan = FtFftPlan::new(n, dir, FtConfig::new(scheme));
            let mut ws = plan.make_workspace();
            let mut out = vec![Complex64::ZERO; n];
            for seed in 0..seeds {
                let inputs = [
                    ("uniform", uniform_signal(n, seed)),
                    ("normal", ftfft::numeric::normal_signal(n, seed)),
                    (
                        "real",
                        real_signal(n, seed).iter().map(|&r| Complex64::new(r, 0.0)).collect(),
                    ),
                ];
                for (kind, mut x) in inputs {
                    let th = plan.thresholds_for(&x);
                    let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
                    assert!(rep.is_clean(), "{scheme:?} 2^{log2n} {dir:?} {kind} {seed}: {rep:?}");
                    for (part, m) in [
                        (1, rep.max_ok_residual_part1 / th.eta1),
                        (2, rep.max_ok_residual_part2 / th.eta2),
                    ] {
                        if m > worst.0 {
                            worst =
                                (m, format!("2^{log2n} {dir:?} part {part} {kind} seed {seed}"));
                        }
                    }
                }
            }
        }
    }
    worst
}

/// Largest `residual/η` of the downlink STFT stage's two transforms
/// (2^12-sample frames of `U(-0.5, 0.5)` samples, rectangular window, a
/// 0.01 spectral gate) over `seeds` streams of `frames` frames: the
/// packed half-size transforms the protected real plans run.
fn downlink_worst_margin(seeds: u64, frames: usize) -> f64 {
    use ftfft::fft::real::{pack_real, repack_spectrum, split_twiddles, unpack_spectrum};
    let n = 1 << 12;
    let h = n / 2;
    let cfg = FtConfig::new(Scheme::OnlineMemOpt);
    let fwd = RealFtFftPlan::new(n, Direction::Forward, cfg);
    let inv = RealFtFftPlan::new(n, Direction::Inverse, cfg);
    let (wf, wi) = (split_twiddles(n, Direction::Forward), split_twiddles(n, Direction::Inverse));
    let (mut wsf, mut wsi) = (fwd.plan().make_workspace(), inv.plan().make_workspace());
    let (mut z, mut out) = (vec![Complex64::ZERO; h], vec![Complex64::ZERO; h]);
    let mut spec = vec![Complex64::ZERO; h + 1];
    let mut worst = 0.0f64;
    let mut check =
        |plan: &FtFftPlan, x: &mut Vec<Complex64>, ws: &mut Workspace, out: &mut [Complex64]| {
            let th = plan.thresholds_for(x);
            let rep = plan.execute(x, out, &NoFaults, ws);
            assert!(rep.is_clean(), "{rep:?}");
            worst = worst
                .max(rep.max_ok_residual_part1 / th.eta1)
                .max(rep.max_ok_residual_part2 / th.eta2);
        };
    for seed in 0..seeds {
        let signal: Vec<f64> = real_signal(n * frames, seed).iter().map(|v| v * 0.5).collect();
        for frame in signal.chunks_exact(n) {
            pack_real(frame, &mut z);
            check(fwd.plan(), &mut z, &mut wsf, &mut out);
            unpack_spectrum(&out, &wf, &mut spec);
            for b in spec.iter_mut() {
                if b.norm_sqr() < 0.01 * 0.01 {
                    *b = Complex64::ZERO;
                }
            }
            repack_spectrum(&spec, &wi, &mut z);
            check(inv.plan(), &mut z, &mut wsi, &mut out);
        }
    }
    worst
}

/// The worst clean check must keep half of η in reserve, so the margin
/// to a false alarm never rests on a lucky seed.
const MARGIN_LIMIT: f64 = 0.5;

#[test]
fn clean_margins_keep_half_of_eta_in_reserve() {
    for scheme in [Scheme::OnlineCompOpt, Scheme::OnlineMemOpt] {
        let (m, at) = worst_margin(scheme, 4, 13, 3);
        assert!(m <= MARGIN_LIMIT, "{scheme:?}: clean margin {m:.3} at {at}");
    }
    let m = downlink_worst_margin(2, 4);
    assert!(m <= MARGIN_LIMIT, "downlink STFT: clean margin {m:.3}");
}

/// The full sweep behind EXPERIMENTS.md's margin table (release CI step:
/// `cargo test --release --test thresholds -- --include-ignored`).
#[test]
#[ignore = "minutes in debug builds; run in release with --include-ignored"]
fn clean_margins_full_sweep() {
    for scheme in [Scheme::OnlineCompOpt, Scheme::OnlineMemOpt] {
        let (m, at) = worst_margin(scheme, 4, 16, 200);
        println!("{scheme:?}: worst clean margin {m:.3} at {at}");
        assert!(m <= MARGIN_LIMIT, "{scheme:?}: clean margin {m:.3} at {at}");
    }
    let m = downlink_worst_margin(50, 16);
    println!("downlink STFT: worst clean margin {m:.3}");
    assert!(m <= MARGIN_LIMIT, "downlink STFT: clean margin {m:.3}");
}
