//! Memory-fault tolerance: location, sizing and repair of corrupted words
//! across input / intermediate / output regions, for both hierarchies
//! (Fig 2 and Fig 3) and the offline-with-memory baseline.

use ftfft::prelude::*;

const N: usize = 1024;

fn run_mem(
    scheme: Scheme,
    faults: Vec<ScriptedFault>,
) -> (Vec<Complex64>, Vec<Complex64>, FtReport) {
    let x = uniform_signal(N, 3);
    let want = dft_naive(&x, Direction::Forward);
    let plan = FtFftPlan::new(N, Direction::Forward, FtConfig::new(scheme));
    let inj = ScriptedInjector::new(faults);
    let mut xin = x;
    let mut out = vec![Complex64::ZERO; N];
    let rep = plan.execute_alloc(&mut xin, &mut out, &inj);
    assert_eq!(inj.unfired(), Vec::<usize>::new(), "all faults must fire");
    (out, want, rep)
}

#[test]
fn input_region_every_offset_class() {
    for element in [0usize, 1, 31, 32, 500, N - 1] {
        for scheme in [Scheme::OnlineMem, Scheme::OnlineMemOpt] {
            let (out, want, rep) = run_mem(
                scheme,
                vec![ScriptedFault::new(
                    Site::InputMemory,
                    element,
                    FaultKind::SetValue { re: 6.0, im: -6.0 },
                )],
            );
            assert_eq!(rep.mem_detected, 1, "{scheme:?} el={element}: {rep:?}");
            assert_eq!(rep.mem_corrected, 1, "{scheme:?} el={element}");
            assert!(
                ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64,
                "{scheme:?} el={element}"
            );
        }
    }
}

#[test]
fn intermediate_region_both_hierarchies() {
    for element in [0usize, 100, 777, N - 1] {
        for scheme in [Scheme::OnlineMem, Scheme::OnlineMemOpt] {
            let (out, want, rep) = run_mem(
                scheme,
                vec![ScriptedFault::new(
                    Site::IntermediateMemory,
                    element,
                    FaultKind::AddDelta { re: -2.5, im: 2.5 },
                )],
            );
            assert_eq!(rep.mem_detected, 1, "{scheme:?} el={element}: {rep:?}");
            assert_eq!(rep.mem_corrected, 1, "{scheme:?} el={element}");
            assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64);
        }
    }
}

#[test]
fn output_region_repair() {
    for scheme in [Scheme::OnlineMem, Scheme::OnlineMemOpt] {
        let (out, want, rep) = run_mem(
            scheme,
            vec![ScriptedFault::new(
                Site::OutputMemory,
                600,
                FaultKind::SetValue { re: 0.0, im: 0.0 },
            )],
        );
        assert_eq!(rep.mem_corrected, 1, "{scheme:?}: {rep:?}");
        assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64);
    }
}

#[test]
fn bit_flips_across_the_exponent_range() {
    // High bits (§9.4.3): everything from mid-mantissa up must be caught.
    // Correcting a delta of magnitude |e| from checksum differences leaves
    // an O(ε·|e|) residue, so the repair iterates (one round per factor of
    // ~1e16); give the retry loop budget for the big exponent bits.
    let x = uniform_signal(N, 3);
    let want = dft_naive(&x, Direction::Forward);
    let cfg = FtConfig::new(Scheme::OnlineMemOpt).with_max_retries(30);
    let plan = FtFftPlan::new(N, Direction::Forward, cfg);
    for bit in [52u8, 54, 56, 58, 60, 63] {
        for component in [Component::Re, Component::Im] {
            let inj = ScriptedInjector::new(vec![ScriptedFault::new(
                Site::InputMemory,
                321,
                FaultKind::BitFlip { bit, component },
            )]);
            let mut xin = x.clone();
            let mut out = vec![Complex64::ZERO; N];
            let rep = plan.execute_alloc(&mut xin, &mut out, &inj);
            assert!(rep.mem_detected >= 1, "bit={bit} {component:?}: {rep:?}");
            assert!(
                ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64,
                "bit={bit} {component:?}: {rep:?}"
            );
        }
    }
}

#[test]
fn overflow_class_bit_flips_detected_but_may_stay_uncorrected() {
    // Flipping the very top exponent bits of a ~1-magnitude value produces
    // ~1e300 corruptions whose FFT overflows to inf/NaN; the checksums
    // detect this but location/size decoding degenerates — the paper's
    // Table 6 "Uncorrected" bucket (2.5% for the online scheme).
    let x = uniform_signal(N, 3);
    let cfg = FtConfig::new(Scheme::OnlineMemOpt).with_max_retries(5);
    let plan = FtFftPlan::new(N, Direction::Forward, cfg);
    let inj = ScriptedInjector::new(vec![ScriptedFault::new(
        Site::InputMemory,
        321,
        FaultKind::BitFlip { bit: 62, component: Component::Re },
    )]);
    let mut xin = x;
    let mut out = vec![Complex64::ZERO; N];
    let rep = plan.execute_alloc(&mut xin, &mut out, &inj);
    // Never silent: the corruption is flagged one way or another.
    assert!(rep.mem_detected + rep.uncorrectable > 0, "{rep:?}");
}

#[test]
fn offline_memory_scheme_recovers_but_pays_full_recompute() {
    let (out, want, rep) = run_mem(
        Scheme::OfflineMem,
        vec![ScriptedFault::new(Site::InputMemory, 40, FaultKind::SetValue { re: 8.0, im: 8.0 })],
    );
    assert_eq!(rep.mem_corrected, 1, "{rep:?}");
    assert!(rep.full_recomputed >= 1, "offline recovery restarts the transform");
    assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64);
}

#[test]
fn two_memory_faults_in_different_subfft_regions() {
    // The model guarantees recovery as long as two faults do not strike
    // the same protected region; put them in different first-part inputs.
    let (out, want, rep) = run_mem(
        Scheme::OnlineMemOpt,
        vec![
            // Elements 5 and 6 fall in different stride-k columns.
            ScriptedFault::new(Site::InputMemory, 5, FaultKind::SetValue { re: 1.0, im: 1.0 }),
            ScriptedFault::new(Site::InputMemory, 6, FaultKind::SetValue { re: -1.0, im: -1.0 })
                .at_occurrence(0),
        ],
    );
    assert_eq!(rep.mem_detected, 2, "{rep:?}");
    assert_eq!(rep.mem_corrected, 2);
    assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64);
}

#[test]
fn tiny_memory_deltas_below_threshold_are_benign() {
    // A corruption below round-off scale is undetectable by design and
    // harmless: the output error it causes is below the accuracy floor.
    let (out, want, rep) = run_mem(
        Scheme::OnlineMemOpt,
        vec![ScriptedFault::new(Site::InputMemory, 10, FaultKind::AddDelta { re: 1e-15, im: 0.0 })],
    );
    assert_eq!(rep.uncorrectable, 0, "{rep:?}");
    assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * N as f64);
}

#[test]
fn in_place_plan_memory_protection() {
    use ftfft::checksum::{decode, mem_checksum, MemVerdict};
    let n = 2048;
    let x = uniform_signal(n, 11);
    let want = dft_naive(&x, Direction::Forward);
    let plan = InPlaceFtPlan::new(n, Direction::Forward, 3);
    let inj = ScriptedInjector::new(vec![
        ScriptedFault::new(Site::IntermediateMemory, 99, FaultKind::SetValue { re: 2.0, im: 2.0 }),
        ScriptedFault::new(Site::OutputMemory, 1500, FaultKind::AddDelta { re: 5.0, im: 0.0 }),
    ]);
    let mut data = x;
    let mut ws = plan.make_workspace();
    let (rep, pair) = plan.execute(&mut data, &inj, &mut ws, 0, None);
    // Caller-side final MCV repairs the output-region fault.
    let observed = mem_checksum(&data);
    if let MemVerdict::Located { index, delta } = decode(observed, pair, n, 1e-6) {
        data[index] -= delta;
    }
    assert!(rep.mem_corrected >= 1, "{rep:?}");
    assert!(ftfft::numeric::max_abs_diff(&data, &want) < 1e-8 * n as f64);
}

/// Opt-Online(m) folds the output checksum pair into the part-2 CCV pass
/// through residue-class sums whose weights depend on `m mod 3`. A
/// `SetValue` output-memory fault at *every* position must be located and
/// corrected, for splits with `m mod 3 = 0, 1, 2`; the clean run of each
/// split reports no detection.
#[test]
fn opt_online_output_fault_corrected_at_every_position() {
    let mut residues = Vec::new();
    for (n, k) in
        [(144usize, Some(12usize)), (360, Some(8)), (1024, None), (2048, None), (4096, None)]
    {
        let mut cfg = FtConfig::new(Scheme::OnlineMemOpt);
        cfg.split_k = k;
        let plan = FtFftPlan::new(n, Direction::Forward, cfg);
        let m = plan.two().m();
        residues.push(m % 3);
        let x = uniform_signal(n, 17);
        let mut ws = plan.make_workspace();
        let mut clean = vec![Complex64::ZERO; n];
        let rep = plan.execute(&mut x.clone(), &mut clean, &NoFaults, &mut ws);
        assert!(rep.is_clean(), "n={n} m={m}: clean run detected {rep:?}");
        let tol = 1e-9 * n as f64;
        let mut out = vec![Complex64::ZERO; n];
        for pos in 0..n {
            let inj = ScriptedInjector::new(vec![ScriptedFault::new(
                Site::OutputMemory,
                pos,
                FaultKind::SetValue { re: 3.5, im: -2.25 },
            )]);
            let rep = plan.execute(&mut x.clone(), &mut out, &inj, &mut ws);
            assert_eq!(
                (rep.mem_detected, rep.mem_corrected, rep.uncorrectable),
                (1, 1, 0),
                "n={n} m={m} (m mod 3 = {}) pos={pos}: {rep:?}",
                m % 3
            );
            assert!((out[pos] - clean[pos]).norm() < tol, "n={n} pos={pos} not repaired");
        }
    }
    residues.sort_unstable();
    residues.dedup();
    assert_eq!(residues, vec![0, 1, 2], "the splits must cover every m mod 3");
}
