//! Memory-fault tolerance: location, sizing and repair of corrupted words
//! across input / intermediate / output regions, for both hierarchies
//! (Fig 2 and Fig 3) and the offline-with-memory baseline.

use std::ops::Range;

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

/// Elements struck by the bit sweeps: both ends of the buffer and two
/// interior positions in different sub-FFT columns.
fn swept_elements(n: usize) -> [usize; 4] {
    [0, 7, 129, n - 1]
}

/// Single-bit strikes: every bit in `bits` of the real and imaginary part
/// of every swept element.
fn strikes(n: usize, bits: Range<u8>) -> impl Iterator<Item = (usize, FaultKind)> {
    swept_elements(n).into_iter().flat_map(move |element| {
        bits.clone().flat_map(move |bit| {
            [Component::Re, Component::Im]
                .map(move |component| (element, FaultKind::BitFlip { bit, component }))
        })
    })
}

/// How one struck run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// Detected, and the output is within 1e-9 of the fault-free run.
    Corrected,
    /// The report carries `uncorrectable > 0`: a typed failure.
    TypedError,
    /// Not a typed failure, and the output error is within the run's
    /// largest σ̂-scaled §8 threshold: below what the checks can resolve.
    BelowBound,
    /// Reported clean or corrected, but the output is wrong: silent data
    /// corruption.
    Sdc,
    /// The scheme never exposes this site, so the strike never fired.
    NotVisited,
}

impl Outcome {
    const ALL: [Outcome; 5] = [
        Outcome::Corrected,
        Outcome::TypedError,
        Outcome::BelowBound,
        Outcome::Sdc,
        Outcome::NotVisited,
    ];

    fn of(rep: &FtReport, fired: bool, err: f64, bound: f64) -> Outcome {
        if !fired {
            Outcome::NotVisited
        } else if rep.uncorrectable > 0 {
            Outcome::TypedError
        } else if rep.total_detected() > 0 && err <= 1e-9 {
            Outcome::Corrected
        } else if err <= bound.max(1e-9) {
            Outcome::BelowBound
        } else {
            Outcome::Sdc
        }
    }
}

/// Strikes `bits` at every swept element of `site` of a `2^log2n` plan
/// under `scheme` and returns every run's outcome. A memory-protected
/// scheme must never end in SDC.
fn sweep_scheme(scheme: Scheme, log2n: u32, site: Site, bits: Range<u8>) -> Vec<Outcome> {
    let n = 1usize << log2n;
    let x = uniform_signal(n, 0x5EED + log2n as u64);
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
    let th = plan.thresholds_for(&x);
    let offline = if scheme.is_online() { 0.0 } else { th.eta_offline };
    let bound = [th.eta1, th.eta2, offline, th.eta_mem_in, th.eta_mem_mid, th.eta_mem_out]
        .into_iter()
        .fold(0.0, f64::max);
    let mut ws = plan.make_workspace();
    let mut clean = vec![Complex64::ZERO; n];
    assert!(plan.execute(&mut x.clone(), &mut clean, &NoFaults, &mut ws).is_clean());
    let mut out = vec![Complex64::ZERO; n];
    strikes(n, bits)
        .map(|(element, kind)| {
            let inj = ScriptedInjector::new(vec![ScriptedFault::new(site, element, kind)]);
            let rep = plan.execute(&mut x.clone(), &mut out, &inj, &mut ws);
            let err = ftfft::numeric::max_abs_diff(&out, &clean);
            let outcome = Outcome::of(&rep, inj.exhausted(), err, bound);
            assert!(
                outcome != Outcome::Sdc || !scheme.protects_memory(),
                "{scheme:?} n={n} {site:?} el={element} {kind:?}: err {err:e} \
                 (bound {bound:e}) with {rep:?}"
            );
            outcome
        })
        .collect()
}

/// [`sweep_scheme`] for [`InPlaceFtPlan`], which checks only its
/// intermediate chunks itself (the output pair goes back to the caller).
fn sweep_in_place(log2n: u32, bits: Range<u8>) -> Vec<Outcome> {
    let n = 1usize << log2n;
    let x = uniform_signal(n, 0x5EED + log2n as u64);
    let plan = InPlaceFtPlan::new(n, Direction::Forward, 3);
    let sigma = ftfft::roundoff::input_sigma(ftfft::numeric::simd::energy(&x), n);
    let bound = sigma * plan.eta_a().max(plan.eta_c());
    let mut ws = plan.make_workspace();
    let mut clean = x.clone();
    assert!(plan.execute(&mut clean, &NoFaults, &mut ws, 0, None).0.is_clean());
    strikes(n, bits)
        .map(|(element, kind)| {
            let inj = ScriptedInjector::new(vec![ScriptedFault::new(
                Site::IntermediateMemory,
                element,
                kind,
            )]);
            let mut data = x.clone();
            let (rep, _) = plan.execute(&mut data, &inj, &mut ws, 0, None);
            let err = ftfft::numeric::max_abs_diff(&data, &clean);
            let outcome = Outcome::of(&rep, inj.exhausted(), err, bound);
            assert!(
                outcome != Outcome::Sdc,
                "in-place n={n} el={element} {kind:?}: err {err:e} (bound {bound:e}) with {rep:?}"
            );
            outcome
        })
        .collect()
}

const MEMORY_SITES: [Site; 3] = [Site::InputMemory, Site::IntermediateMemory, Site::OutputMemory];

/// Exponent and sign bits: a strike there either changes the value by at
/// least a factor of two or flips its sign.
const HIGH_BITS: Range<u8> = 52..64;

/// Asserts that every high-bit strike ended repaired or typed.
fn assert_repaired_or_typed(what: &str, outcomes: &[Outcome]) {
    for o in outcomes {
        assert!(matches!(o, Outcome::Corrected | Outcome::TypedError), "{what}: {o:?}");
    }
}

/// A memory strike on any exponent or sign bit must be repaired — output
/// within 1e-9 of the fault-free run — or surface as a typed failure
/// (`uncorrectable > 0`). An exponent strike can make the decoded delta
/// 2^32 times the value or more, so a single `x -= delta` leaves an error
/// of order ε·|delta|: each repair must re-verify before it counts.
#[test]
fn high_bit_strikes_on_online_mem_are_repaired_or_typed() {
    for log2n in [10, 12] {
        for site in MEMORY_SITES {
            let outcomes = sweep_scheme(Scheme::OnlineMem, log2n, site, HIGH_BITS);
            assert_repaired_or_typed(&format!("2^{log2n} {site:?}"), &outcomes);
        }
    }
}

/// The same sweep for Opt-Online(m), whose output check is one CMCV over
/// the whole transform.
#[test]
fn high_bit_strikes_on_opt_online_mem_are_repaired_or_typed() {
    for log2n in [10, 12] {
        for site in MEMORY_SITES {
            let outcomes = sweep_scheme(Scheme::OnlineMemOpt, log2n, site, HIGH_BITS);
            assert_repaired_or_typed(&format!("2^{log2n} {site:?}"), &outcomes);
        }
    }
}

/// At the output sites every exponent and sign strike ends repaired, none
/// typed: the decode sizes a ~1e154–1e308 corruption with a scaled norm
/// and division, where squaring it overflowed.
#[test]
fn high_bit_output_strikes_are_repaired_not_typed() {
    for scheme in [Scheme::OnlineMem, Scheme::OnlineMemOpt] {
        for log2n in [10, 12] {
            let outcomes = sweep_scheme(scheme, log2n, Site::OutputMemory, HIGH_BITS);
            for o in outcomes {
                assert_eq!(o, Outcome::Corrected, "{scheme:?} 2^{log2n}");
            }
        }
    }
}

/// The same sweep for the in-place plan's intermediate chunk checks.
#[test]
fn high_bit_strikes_on_in_place_chunks_are_repaired_or_typed() {
    for log2n in [10, 12] {
        assert_repaired_or_typed(&format!("2^{log2n}"), &sweep_in_place(log2n, HIGH_BITS));
    }
}

/// Every bit 0–63 × Re/Im at every memory site of every scheme with a
/// memory check, plus the computational-only schemes for the record
/// (memory strikes are outside their fault model), at 2^10 and 2^12 —
/// the outcome table EXPERIMENTS.md publishes. The memory-protected
/// schemes must show zero SDC. Run with
/// `cargo test --release --test memory_faults -- --include-ignored --nocapture`.
#[test]
#[ignore = "full 0-63 bit sweep; run in release"]
fn memory_strike_full_bit_sweep() {
    let schemes = [
        Scheme::OnlineMem,
        Scheme::OnlineMemOpt,
        Scheme::OfflineMem,
        Scheme::OnlineComp,
        Scheme::OnlineCompOpt,
    ];
    let mut rows: Vec<(String, Vec<Outcome>)> = Vec::new();
    for scheme in schemes {
        for site in MEMORY_SITES {
            let outcomes = [10, 12].into_iter().flat_map(|l| sweep_scheme(scheme, l, site, 0..64));
            rows.push((format!("{scheme:?} {site:?}"), outcomes.collect()));
        }
    }
    let in_place = [10, 12].into_iter().flat_map(|l| sweep_in_place(l, 0..64));
    rows.push(("InPlace IntermediateMemory".into(), in_place.collect()));

    println!(
        "{:<34}{:>6}{:>11}{:>7}{:>7}{:>5}{:>10}",
        "scheme site", "runs", "corrected", "typed", "below", "SDC", "unvisited"
    );
    for (name, outcomes) in &rows {
        let counts = Outcome::ALL.map(|o| outcomes.iter().filter(|&&x| x == o).count());
        println!(
            "{:<34}{:>6}{:>11}{:>7}{:>7}{:>5}{:>10}",
            name,
            outcomes.len(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4]
        );
    }
}
