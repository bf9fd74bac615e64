//! Parallel scheme integration: equivalence with the sequential library,
//! overlap == blocking results, fault recovery across ranks, network model.

use ftfft::prelude::*;

#[test]
fn parallel_equals_sequential_all_schemes() {
    let n = 1 << 12;
    let x = uniform_signal(n, 21);
    let want = fft(&x);
    for scheme in ParallelScheme::ALL {
        for p in [2usize, 4] {
            let plan = ParallelFft::new(n, p, scheme, None, 3);
            let (out, rep) = plan.run(&x, &NoFaults);
            assert!(
                relative_error_inf(&out, &want) < 1e-10,
                "{scheme:?} p={p}: err {}",
                relative_error_inf(&out, &want)
            );
            assert!(rep.is_clean(), "{scheme:?} p={p}: {rep:?}");
        }
    }
}

#[test]
fn overlap_and_blocking_produce_identical_transforms() {
    let n = 1 << 14;
    let x = uniform_signal(n, 5);
    let blocking = ParallelFft::new(n, 8, ParallelScheme::FtFftw, None, 3);
    let overlap = ParallelFft::new(n, 8, ParallelScheme::OptFtFftw, None, 3);
    let (a, _) = blocking.run(&x, &NoFaults);
    let (b, _) = overlap.run(&x, &NoFaults);
    assert_eq!(a, b, "overlap is a scheduling change, not a numeric one");
}

#[test]
fn single_rank_degenerates_to_sequential() {
    let n = 1 << 10;
    let x = uniform_signal(n, 9);
    let want = fft(&x);
    let plan = ParallelFft::new(n, 1, ParallelScheme::OptFtFftw, None, 3);
    let (out, rep) = plan.run(&x, &NoFaults);
    assert!(relative_error_inf(&out, &want) < 1e-10);
    assert!(rep.is_clean(), "{rep:?}");
}

#[test]
fn network_model_does_not_change_results() {
    let n = 1 << 10;
    let x = uniform_signal(n, 2);
    let plain = ParallelFft::new(n, 4, ParallelScheme::OptFtFftw, None, 3);
    let modeled =
        ParallelFft::new(n, 4, ParallelScheme::OptFtFftw, Some(NetworkModel::cluster()), 3);
    let (a, _) = plain.run(&x, &NoFaults);
    let (b, _) = modeled.run(&x, &NoFaults);
    assert_eq!(a, b);
}

#[test]
fn comm_corruption_on_each_transpose_phase_is_repaired() {
    let n = 1 << 12;
    let p = 4;
    let x = uniform_signal(n, 13);
    let want = fft(&x);
    for phase in [1u8, 2, 3] {
        let plan = ParallelFft::new(n, p, ParallelScheme::FtFftw, None, 3);
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::CommBlock { from: 1, to: 3, phase },
            20,
            FaultKind::AddDelta { re: 4.0, im: -4.0 },
        )]);
        let (out, rep) = plan.run(&x, &inj);
        assert_eq!(inj.log().len(), 1, "phase {phase}");
        assert_eq!(rep.comm_corrected, 1, "phase {phase}: {rep:?}");
        assert!(relative_error_inf(&out, &want) < 1e-10, "phase {phase}");
    }
}

#[test]
fn fft2_faults_inside_ranks_recovered() {
    let n = 1 << 12;
    let p = 4;
    let x = uniform_signal(n, 17);
    let want = fft(&x);
    let plan = ParallelFft::new(n, p, ParallelScheme::OptFtFftw, None, 3);
    let inj = ScriptedInjector::new(vec![
        // Middle DMR layer of FFT2 on rank 0.
        ScriptedFault::new(
            Site::SubFftCompute { part: Part::Middle, index: 2 },
            4,
            FaultKind::SetValue { re: 3.0, im: 3.0 },
        )
        .on_rank(0),
        // Layer-C compute fault on rank 3.
        ScriptedFault::new(
            Site::SubFftCompute { part: Part::Second, index: 6 },
            2,
            FaultKind::AddDelta { re: 1e-2, im: 0.0 },
        )
        .on_rank(3),
    ]);
    let (out, rep) = plan.run(&x, &inj);
    assert!(rep.dmr_votes >= 1, "{rep:?}");
    assert!(rep.comp_detected >= 1, "{rep:?}");
    assert_eq!(rep.uncorrectable, 0, "{rep:?}");
    assert!(relative_error_inf(&out, &want) < 1e-10);
}

#[test]
fn fault_storm_all_ranks_all_phases() {
    let n = 1 << 12;
    let p = 4;
    let x = uniform_signal(n, 23);
    let want = fft(&x);
    let plan = ParallelFft::new(n, p, ParallelScheme::OptFtFftw, None, 3);
    let mut faults = Vec::new();
    for r in 0..p {
        faults.push(
            ScriptedFault::new(
                Site::InputMemory,
                31 * (r + 1),
                FaultKind::SetValue { re: 2.0, im: 0.0 },
            )
            .on_rank(r),
        );
        faults.push(
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: r },
                r,
                FaultKind::AddDelta { re: 5e-3, im: 0.0 },
            )
            .on_rank(r),
        );
        faults.push(ScriptedFault::new(
            Site::CommBlock { from: r, to: (r + 1) % p, phase: 2 },
            3,
            FaultKind::AddDelta { re: 1.0, im: 1.0 },
        ));
    }
    let inj = ScriptedInjector::new(faults);
    let (out, rep) = plan.run(&x, &inj);
    assert_eq!(rep.uncorrectable, 0, "{rep:?}");
    assert_eq!(inj.unfired(), Vec::<usize>::new());
    assert!(relative_error_inf(&out, &want) < 1e-10);
}

#[test]
fn weak_scaling_shapes_hold_on_tiny_sizes() {
    // Smoke-check the harness path: time grows with N at fixed p and the
    // protected scheme is within a sane factor of plain.
    use std::time::Instant;
    let p = 4;
    let mut prev = 0.0;
    for log2n in [12u32, 14] {
        let n = 1 << log2n;
        let x = uniform_signal(n, 1);
        let plan = ParallelFft::new(n, p, ParallelScheme::OptFtFftw, None, 3);
        let t0 = Instant::now();
        let _ = plan.run(&x, &NoFaults);
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.0);
        if prev > 0.0 {
            assert!(dt > prev * 0.5, "time should not collapse as N grows");
        }
        prev = dt;
    }
}
