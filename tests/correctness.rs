//! Cross-crate correctness: every scheme × assorted sizes against the
//! naive DFT oracle, both directions, round trips.

use ftfft::prelude::*;

fn reference(n: usize, seed: u64, dir: Direction) -> (Vec<Complex64>, Vec<Complex64>) {
    let x = uniform_signal(n, seed);
    let want = dft_naive(&x, dir);
    (x, want)
}

#[test]
fn all_schemes_match_naive_dft_power_of_two() {
    for n in [64usize, 256, 1024, 4096] {
        let (x, want) = reference(n, 5, Direction::Forward);
        for scheme in Scheme::ALL {
            let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
            let mut xin = x.clone();
            let mut out = vec![Complex64::ZERO; n];
            let rep = plan.execute_alloc(&mut xin, &mut out, &NoFaults);
            let err = ftfft::numeric::max_abs_diff(&out, &want);
            assert!(err < 1e-8 * n as f64, "{scheme:?} n={n}: err={err}");
            assert_eq!(rep.uncorrectable, 0, "{scheme:?} n={n}");
            assert!(rep.is_clean(), "{scheme:?} n={n}: {rep:?}");
        }
    }
}

#[test]
fn schemes_match_naive_dft_non_power_sizes() {
    // Composite sizes exercise the mixed-radix kernels under protection.
    // (Sizes divisible by 3 hit the degenerate rA case; the checksum
    // encoding itself is only fully effective for 3 ∤ n — the paper's
    // power-of-two regime. 100 = 10·10, 196 = 14·14, 484 = 22·22.)
    for n in [100usize, 196, 400, 484] {
        let (x, want) = reference(n, 9, Direction::Forward);
        for scheme in [Scheme::Offline, Scheme::OnlineCompOpt, Scheme::OnlineMemOpt] {
            let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
            let mut xin = x.clone();
            let mut out = vec![Complex64::ZERO; n];
            let rep = plan.execute_alloc(&mut xin, &mut out, &NoFaults);
            let err = ftfft::numeric::max_abs_diff(&out, &want);
            assert!(err < 1e-8 * n as f64, "{scheme:?} n={n}: err={err}");
            assert!(rep.is_clean(), "{scheme:?} n={n}: {rep:?}");
        }
    }
}

#[test]
fn inverse_direction_round_trip_through_protected_plans() {
    let n = 2048;
    let x = uniform_signal(n, 3);
    let fwd = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
    // The inverse transform's input is a forward-FFT output, √N larger
    // than the original signal; the inverse plan measures that scale
    // itself, so the same config serves both directions.
    let inv = FtFftPlan::new(n, Direction::Inverse, FtConfig::new(Scheme::OnlineMemOpt));
    let mut a = x.clone();
    let mut mid = vec![Complex64::ZERO; n];
    assert!(fwd.execute_alloc(&mut a, &mut mid, &NoFaults).is_clean());
    let mut back = vec![Complex64::ZERO; n];
    assert!(inv.execute_alloc(&mut mid, &mut back, &NoFaults).is_clean());
    normalize(&mut back);
    assert!(ftfft::numeric::max_abs_diff(&back, &x) < 1e-10);
}

#[test]
fn explicit_split_overrides_are_respected_and_correct() {
    let n = 4096;
    let (x, want) = reference(n, 8, Direction::Forward);
    for k in [2usize, 16, 64, 256] {
        let cfg = FtConfig::new(Scheme::OnlineMemOpt).with_split_k(k);
        let plan = FtFftPlan::new(n, Direction::Forward, cfg);
        assert_eq!(plan.two().k(), k);
        let mut xin = x.clone();
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute_alloc(&mut xin, &mut out, &NoFaults);
        assert!(rep.is_clean(), "k={k}: {rep:?}");
        assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * n as f64, "k={k}");
    }
}

#[test]
fn normal_distribution_inputs_also_clean() {
    let n = 1024;
    let x = normal_signal(n, 4);
    let want = dft_naive(&x, Direction::Forward);
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
    let mut xin = x.clone();
    let mut out = vec![Complex64::ZERO; n];
    let rep = plan.execute_alloc(&mut xin, &mut out, &NoFaults);
    assert!(rep.is_clean(), "{rep:?}");
    assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * n as f64);
}

#[test]
fn repeated_executions_reuse_workspace_deterministically() {
    let n = 512;
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
    let mut ws = plan.make_workspace();
    let x = uniform_signal(n, 6);
    let mut out1 = vec![Complex64::ZERO; n];
    let mut out2 = vec![Complex64::ZERO; n];
    let mut a = x.clone();
    plan.execute(&mut a, &mut out1, &NoFaults, &mut ws);
    let mut b = x.clone();
    plan.execute(&mut b, &mut out2, &NoFaults, &mut ws);
    assert_eq!(out1, out2, "workspace reuse must not change results");
}

use ftfft::numeric::normal_signal;
