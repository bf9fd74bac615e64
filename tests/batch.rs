//! Batch-level two-sided checksum scheme: clean-path bitwise identity,
//! scripted fault campaigns with per-member localization, false-positive
//! behaviour, per-member report attribution, and the service-layer joint
//! dispatch.

use std::sync::Arc;

use ftfft::prelude::*;

/// Fault-free reference: the outputs the per-transform Opt-Online scheme
/// produces for each member (bitwise identical to every other scheme's
/// clean output, including the plain FFT the batch path runs).
fn reference_outputs(n: usize, members: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
    let plan = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(Scheme::OnlineCompOpt).build());
    let mut ws = plan.make_workspace();
    members
        .iter()
        .map(|m| {
            let mut x = m.clone();
            let mut out = vec![Complex64::ZERO; n];
            let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
            assert!(rep.is_clean());
            out
        })
        .collect()
}

fn batch_plan(n: usize) -> FtFftPlan {
    FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(Scheme::BatchChecksum).build())
}

fn signals(n: usize, b: usize, seed: u64) -> Vec<Vec<Complex64>> {
    (0..b).map(|i| uniform_signal(n, seed + i as u64)).collect()
}

/// Runs the joint batch executor over `members` with per-member scripted
/// injectors (`None` = fault free), returning outputs and reports.
fn run_members(
    plan: &FtFftPlan,
    members: &[Vec<Complex64>],
    injectors: &[&dyn FaultInjector],
) -> (Vec<Vec<Complex64>>, Vec<FtReport>) {
    let n = plan.n();
    let b = members.len();
    let mut ws = plan.make_workspace();
    let mut outputs = vec![vec![Complex64::ZERO; n]; b];
    let mut reports = vec![FtReport::new(); b];
    {
        let xs: Vec<&[Complex64]> = members.iter().map(|m| m.as_slice()).collect();
        let mut outs: Vec<&mut [Complex64]> =
            outputs.iter_mut().map(|o| o.as_mut_slice()).collect();
        plan.execute_batch_members(&xs, &mut outs, injectors, &mut reports, &mut ws);
    }
    (outputs, reports)
}

#[test]
fn clean_batch_is_bitwise_identical_to_opt_online_across_sizes() {
    let n = 256;
    for b in [1usize, 2, 8, 32] {
        let members = signals(n, b, 11);
        let want = reference_outputs(n, &members);
        let plan = batch_plan(n);
        let nofaults = NoFaults;
        let injectors: [&dyn FaultInjector; 1] = [&nofaults];
        let (outputs, reports) = run_members(&plan, &members, &injectors);
        for j in 0..b {
            assert_eq!(outputs[j], want[j], "B={b} member {j} must be bitwise identical");
            assert!(reports[j].is_clean(), "B={b} member {j}: {:?}", reports[j]);
            // Lazy localization: a clean batch pays exactly the one
            // side-1 detection check, never the side-2 transform.
            assert_eq!(reports[j].checks, 1, "clean batch must run only the side-1 check");
        }
    }
}

#[test]
fn single_member_fault_is_localized_repaired_and_bitwise_clean() {
    let (n, b) = (256, 8);
    let members = signals(n, b, 23);
    let want = reference_outputs(n, &members);
    let plan = batch_plan(n);
    for victim in [0usize, 3, 7] {
        let scripted: Vec<ScriptedInjector> = (0..b)
            .map(|j| {
                let faults = if j == victim {
                    vec![ScriptedFault::new(
                        Site::BatchMemberOutput { index: victim },
                        17,
                        FaultKind::AddDelta { re: 1.0, im: -0.5 },
                    )]
                } else {
                    vec![]
                };
                ScriptedInjector::new(faults)
            })
            .collect();
        let injectors: Vec<&dyn FaultInjector> =
            scripted.iter().map(|s| s as &dyn FaultInjector).collect();
        let (outputs, reports) = run_members(&plan, &members, &injectors);
        assert!(scripted[victim].exhausted(), "the scripted fault must fire");
        for j in 0..b {
            assert_eq!(outputs[j], want[j], "victim {victim}, member {j}");
            if j == victim {
                assert_eq!(reports[j].comp_detected, 1, "detection billed to member {victim}");
                assert_eq!(reports[j].full_recomputed, 1, "repair billed to member {victim}");
                assert_eq!(reports[j].uncorrectable, 0);
            } else {
                assert!(reports[j].is_clean(), "member {j} must not be billed: {:?}", reports[j]);
            }
        }
    }
}

#[test]
fn two_member_faults_at_distinct_bins_both_localized() {
    let (n, b) = (256, 8);
    let members = signals(n, b, 31);
    let want = reference_outputs(n, &members);
    let plan = batch_plan(n);
    let victims = [(1usize, 5usize), (4, 200)];
    let scripted: Vec<ScriptedInjector> = (0..b)
        .map(|j| {
            let faults = victims
                .iter()
                .filter(|(v, _)| *v == j)
                .map(|(v, bin)| {
                    ScriptedFault::new(
                        Site::BatchMemberOutput { index: *v },
                        *bin,
                        FaultKind::AddDelta { re: 2.0, im: 1.0 },
                    )
                })
                .collect();
            ScriptedInjector::new(faults)
        })
        .collect();
    let injectors: Vec<&dyn FaultInjector> =
        scripted.iter().map(|s| s as &dyn FaultInjector).collect();
    let (outputs, reports) = run_members(&plan, &members, &injectors);
    for j in 0..b {
        assert_eq!(outputs[j], want[j], "member {j}");
        let faulted = victims.iter().any(|(v, _)| *v == j);
        if faulted {
            assert_eq!(reports[j].comp_detected, 1, "member {j}");
            assert_eq!(reports[j].full_recomputed, 1, "member {j}");
        } else {
            assert!(reports[j].is_clean(), "member {j}: {:?}", reports[j]);
        }
    }
}

#[test]
fn checksum_side_faults_touch_no_member_and_are_charged_to_the_leader() {
    let (n, b) = (256, 4);
    let members = signals(n, b, 47);
    let want = reference_outputs(n, &members);
    let plan = batch_plan(n);
    // Side-1 (detection) faults: flagged by the side-1 scan, localized by
    // the lazily-built side 2, repaired by redoing just the side-1
    // combine + FFT, and charged to the batch leader.
    for site in [Site::BatchCombine { side: 1 }, Site::BatchChecksumFft { side: 1 }] {
        let scripted = ScriptedInjector::new(vec![ScriptedFault::new(
            site,
            9,
            FaultKind::AddDelta { re: 3.0, im: 0.0 },
        )]);
        let injectors: [&dyn FaultInjector; 1] = [&scripted];
        let (outputs, reports) = run_members(&plan, &members, &injectors);
        assert!(scripted.exhausted(), "{site:?} must fire");
        for j in 0..b {
            assert_eq!(outputs[j], want[j], "{site:?} member {j}");
        }
        assert_eq!(reports[0].comp_detected, 1, "{site:?} charged to the leader");
        assert_eq!(reports[0].subfft_recomputed, 1, "{site:?} is a checksum recompute");
        assert_eq!(reports[0].full_recomputed, 0, "{site:?}: no member recomputed");
        for (j, r) in reports.iter().enumerate().skip(1) {
            assert!(r.is_clean(), "{site:?} member {j}: {r:?}");
        }
    }
    // Side-2 (localization) faults alone: the lazy side is never built on
    // a clean batch, so the fault has nothing to strike — outputs and
    // reports stay clean and the scripted fault never fires.
    for site in [Site::BatchCombine { side: 2 }, Site::BatchChecksumFft { side: 2 }] {
        let scripted = ScriptedInjector::new(vec![ScriptedFault::new(
            site,
            9,
            FaultKind::AddDelta { re: 3.0, im: 0.0 },
        )]);
        let injectors: [&dyn FaultInjector; 1] = [&scripted];
        let (outputs, reports) = run_members(&plan, &members, &injectors);
        assert!(!scripted.exhausted(), "{site:?} must stay dormant on a clean batch");
        for j in 0..b {
            assert_eq!(outputs[j], want[j], "{site:?} member {j}");
            assert!(reports[j].is_clean(), "{site:?} member {j}: {:?}", reports[j]);
        }
    }
}

#[test]
fn side2_fault_during_localization_degrades_to_ambiguous_repair() {
    // A member fault forces the lazy side-2 build, and a scripted fault
    // strikes that build: the evidence (member bin moved on both sides,
    // another bin moved on side 2 alone) fits no single-member story, so
    // the verdict is Ambiguous — every member is recomputed under the
    // self-verifying repair plan and both checksum sides rebuilt, and the
    // outputs still come back bitwise identical to the fault-free run.
    let (n, b) = (256, 4);
    let members = signals(n, b, 59);
    let want = reference_outputs(n, &members);
    let plan = batch_plan(n);
    let scripted = ScriptedInjector::new(vec![
        ScriptedFault::new(
            Site::BatchMemberOutput { index: 1 },
            30,
            FaultKind::AddDelta { re: 2.0, im: 0.0 },
        ),
        ScriptedFault::new(
            Site::BatchChecksumFft { side: 2 },
            77,
            FaultKind::AddDelta { re: 3.0, im: 0.0 },
        ),
    ]);
    let injectors: [&dyn FaultInjector; 1] = [&scripted];
    let (outputs, reports) = run_members(&plan, &members, &injectors);
    assert!(scripted.exhausted(), "both scripted faults must fire");
    for j in 0..b {
        assert_eq!(outputs[j], want[j], "member {j}");
        assert_eq!(reports[j].full_recomputed, 1, "ambiguity recomputes every member ({j})");
        assert_eq!(reports[j].uncorrectable, 0, "member {j}");
    }
}

#[test]
fn colliding_same_bin_faults_are_ambiguous_and_still_repaired() {
    let (n, b) = (256, 4);
    let members = signals(n, b, 53);
    let want = reference_outputs(n, &members);
    let plan = batch_plan(n);
    // Members 0 and 2 struck at the same output bin with incommensurate
    // deltas: the two-equation residual system is underdetermined, so the
    // verdict must be Ambiguous and every member recomputed.
    let scripted: Vec<ScriptedInjector> = (0..b)
        .map(|j| {
            let faults = match j {
                0 => vec![ScriptedFault::new(
                    Site::BatchMemberOutput { index: 0 },
                    7,
                    FaultKind::AddDelta { re: 1.0, im: 0.0 },
                )],
                2 => vec![ScriptedFault::new(
                    Site::BatchMemberOutput { index: 2 },
                    7,
                    FaultKind::AddDelta { re: 0.6, im: 0.3 },
                )],
                _ => vec![],
            };
            ScriptedInjector::new(faults)
        })
        .collect();
    let injectors: Vec<&dyn FaultInjector> =
        scripted.iter().map(|s| s as &dyn FaultInjector).collect();
    let (outputs, reports) = run_members(&plan, &members, &injectors);
    for j in 0..b {
        assert_eq!(outputs[j], want[j], "member {j}");
        assert_eq!(reports[j].full_recomputed, 1, "ambiguity recomputes every member ({j})");
        assert_eq!(reports[j].uncorrectable, 0, "member {j}");
    }
}

#[test]
fn nan_member_output_is_detected_and_repaired_bitwise() {
    // A NaN member output makes the side-1 residual NaN at that bin. The
    // detection scan must read it as a fault (not as "no residual above
    // eta"), and the repair must hand back the fault-free bits.
    let (n, b) = (256, 8);
    let members = signals(n, b, 61);
    let want = reference_outputs(n, &members);
    let plan = batch_plan(n);
    for (victim, value) in [(0usize, (f64::NAN, 0.0)), (5, (1.0, f64::NAN))] {
        let scripted: Vec<ScriptedInjector> = (0..b)
            .map(|j| {
                let faults = if j == victim {
                    vec![ScriptedFault::new(
                        Site::BatchMemberOutput { index: victim },
                        21,
                        FaultKind::SetValue { re: value.0, im: value.1 },
                    )]
                } else {
                    vec![]
                };
                ScriptedInjector::new(faults)
            })
            .collect();
        let injectors: Vec<&dyn FaultInjector> =
            scripted.iter().map(|s| s as &dyn FaultInjector).collect();
        let (outputs, reports) = run_members(&plan, &members, &injectors);
        assert!(scripted[victim].exhausted(), "the scripted NaN must fire");
        let detected: u32 = reports.iter().map(|r| r.total_detected()).sum();
        assert!(detected > 0, "victim {victim}: NaN went undetected: {reports:?}");
        for j in 0..b {
            assert_eq!(outputs[j], want[j], "victim {victim}, member {j}");
            assert_eq!(reports[j].uncorrectable, 0, "victim {victim}, member {j}");
        }
        assert!(reports[victim].full_recomputed >= 1, "victim {victim} must be recomputed");
    }
}

#[test]
fn clean_batches_never_false_positive() {
    // 20 batches across two sizes and both signal shapes: no clean batch
    // may trip the two-sided test (threshold calibration property).
    for n in [256usize, 1024] {
        let plan = batch_plan(n);
        let nofaults = NoFaults;
        let injectors: [&dyn FaultInjector; 1] = [&nofaults];
        for round in 0..10u64 {
            let members: Vec<Vec<Complex64>> = (0..8)
                .map(|i| {
                    if (i + round as usize).is_multiple_of(2) {
                        uniform_signal(n, 1000 + round * 8 + i as u64)
                    } else {
                        normal_signal(n, 2000 + round * 8 + i as u64)
                    }
                })
                .collect();
            let (_, reports) = run_members(&plan, &members, &injectors);
            for (j, r) in reports.iter().enumerate() {
                assert!(r.is_clean(), "n={n} round={round} member {j}: {r:?}");
                // The batch residual is a batch-level, composition-
                // dependent quantity and is deliberately not attributed
                // to per-member reports (they must stay bitwise stable
                // across coalescing choices).
                assert_eq!(r.max_ok_residual_part1, 0.0, "member {j} residual attribution");
            }
        }
    }
}

#[test]
fn execute_and_execute_batch_merge_member_attribution() {
    // The contiguous execute_batch API must agree with the per-member
    // API: same outputs, and its merged report must equal the manual
    // merge of the per-member reports (satellite: FtReport::merge
    // attribution for batch executors).
    let (n, b) = (256, 8);
    let members = signals(n, b, 61);
    let plan = batch_plan(n);
    let fault = || {
        ScriptedInjector::new(vec![ScriptedFault::new(
            Site::BatchMemberOutput { index: 2 },
            40,
            FaultKind::AddDelta { re: 1.5, im: 0.0 },
        )])
    };

    let shared = fault();
    let injectors: [&dyn FaultInjector; 1] = [&shared];
    let (outputs, reports) = run_members(&plan, &members, &injectors);
    let mut manual = FtReport::new();
    for r in &reports {
        manual.merge(r);
    }

    let mut xs: Vec<Complex64> = members.iter().flatten().copied().collect();
    let mut outs = vec![Complex64::ZERO; n * b];
    let mut ws = plan.make_workspace();
    let merged = plan.execute_batch(&mut xs, &mut outs, &fault(), &mut ws);
    assert_eq!(merged, manual, "execute_batch must merge exactly the per-member reports");
    let flat: Vec<Complex64> = outputs.iter().flatten().copied().collect();
    assert_eq!(outs, flat, "contiguous and per-member APIs must agree bitwise");
    assert_eq!(merged.comp_detected, 1);
    assert_eq!(merged.full_recomputed, 1);

    // And a single-member execute is a 1-member batch.
    let mut x1 = members[0].clone();
    let mut o1 = vec![Complex64::ZERO; n];
    let rep = plan.execute(&mut x1, &mut o1, &NoFaults, &mut ws);
    assert!(rep.is_clean());
    assert_eq!(o1, outputs[0], "B=1 execute must match the batch member output");
}

#[test]
fn service_joint_dispatch_is_bitwise_clean_under_member_fault() {
    let n = 1024usize;
    let frames = 8usize; // ≥ batch_break_even(1024) = 4 → joint path
    assert!(frames >= batch_break_even(n));
    let members = signals(n, frames, 71);
    let want = reference_outputs(n, &members);
    let want_flat: Vec<Complex64> = want.iter().flatten().copied().collect();
    let input: Vec<Complex64> = members.iter().flatten().copied().collect();
    let spec = PlanSpec::builder(n).scheme(Scheme::BatchChecksum).build();

    let svc = FftService::new(ServiceConfig::default().with_workers(1));
    // Clean request first: joint path, bitwise-identical output.
    let resp = svc.submit("clean", &spec, input.clone()).wait();
    assert_eq!(resp.output, want_flat, "clean joint dispatch must be bitwise identical");
    assert!(resp.report.is_clean());

    // Faulted member 5 via this request's own injector: repaired output
    // must be bitwise identical to the fault-free run, and the report
    // must carry the detection.
    let chaos: Arc<ScriptedInjector> = Arc::new(ScriptedInjector::new(vec![ScriptedFault::new(
        Site::BatchMemberOutput { index: 5 },
        100,
        FaultKind::AddDelta { re: 2.0, im: 2.0 },
    )]));
    let resp = svc.submit_injected("faulty", &spec, input.clone(), chaos.clone()).wait();
    assert!(chaos.exhausted(), "scripted member fault must fire in the joint path");
    assert_eq!(resp.output, want_flat, "repaired joint dispatch must be bitwise identical");
    assert_eq!(resp.report.comp_detected, 1);
    assert_eq!(resp.report.full_recomputed, 1);
    assert_eq!(resp.report.uncorrectable, 0);

    // A single-frame request sits under break-even → per-transform
    // fallback, still bitwise identical.
    let resp = svc.submit("small", &spec, members[0].clone()).wait();
    assert_eq!(resp.output, want[0]);

    svc.quiesce();
    let stats = svc.stats();
    assert_eq!(stats.batch_protected, 2, "two requests through the joint path");
    assert_eq!(stats.batch_fallback, 1, "one request under break-even");
    assert_eq!(stats.failed, 0);
}
