//! Multi-tenant service layer, end to end: concurrent tenants through the
//! coalescing admission queue must get outputs and reports **bitwise
//! identical** to fresh per-caller plans, at any worker count, including
//! under scripted fault campaigns.

use std::sync::Arc;
use std::time::Duration;

use ftfft::prelude::*;

const TENANTS: usize = 8;

/// The mixed workload every tenant drives: two pow2 sizes, one non-pow2,
/// across detection/correction schemes.
fn mixed_specs() -> Vec<PlanSpec> {
    let mut specs = Vec::new();
    for &n in &[256usize, 1024] {
        for &s in &[Scheme::Offline, Scheme::OnlineCompOpt, Scheme::OnlineMemOpt] {
            specs.push(PlanSpec::builder(n).scheme(s).build());
        }
    }
    specs.push(PlanSpec::builder(400).scheme(Scheme::OnlineMemOpt).build());
    specs
}

/// Reference: a fresh private plan + workspace, serial direct execution.
fn direct(spec: &PlanSpec, input: &[Complex64]) -> (Vec<Complex64>, FtReport) {
    let plan = FtFftPlan::from_spec(spec);
    let mut ws = plan.make_workspace();
    let mut x = input.to_vec();
    let mut out = vec![Complex64::ZERO; x.len()];
    let rep = plan.execute_batch(&mut x, &mut out, &NoFaults, &mut ws);
    (out, rep)
}

#[test]
fn concurrent_tenants_bitwise_identical_at_any_worker_count() {
    let specs = mixed_specs();
    for workers in [1usize, 2, 8] {
        let svc = FftService::new(
            ServiceConfig::default()
                .with_workers(workers)
                .with_max_batch(4)
                .with_max_wait(Duration::from_millis(2)),
        );
        std::thread::scope(|scope| {
            for t in 0..TENANTS {
                let (svc, specs) = (&svc, &specs);
                scope.spawn(move || {
                    for (i, spec) in specs.iter().enumerate() {
                        let frames = 1 + i % 2;
                        let input = uniform_signal(spec.n() * frames, (t * 100 + i) as u64);
                        let resp = svc.submit(&format!("tenant-{t}"), spec, input.clone()).wait();
                        let (want, want_rep) = direct(spec, &input);
                        assert_eq!(
                            resp.output, want,
                            "workers={workers} tenant={t} spec#{i}: output diverged"
                        );
                        assert_eq!(resp.report, want_rep);
                        assert!(resp.batched_with >= 1 && resp.batched_with <= 4);
                    }
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.requests as usize, TENANTS * specs.len());
        assert_eq!(stats.distinct_plans, specs.len(), "one shared plan per resolved spec");
        assert_eq!(stats.cache_misses as usize, specs.len());
        // 7 misses out of 56 lookups → 0.875; everything else must hit.
        assert!(stats.hit_rate > 0.85, "workers={workers}: hit rate {}", stats.hit_rate);
        assert!(stats.batches >= 1 && stats.mean_batch >= 1.0);
        assert_eq!(stats.report.uncorrectable, 0);
    }
}

#[test]
fn per_tenant_attribution_and_report_merge() {
    let spec = PlanSpec::builder(256).scheme(Scheme::OnlineMemOpt).build();
    let svc = FftService::new(ServiceConfig::default().with_workers(2));
    let mut responses = Vec::new();
    for i in 0..4u64 {
        let input = uniform_signal(256, i);
        let ticket = if i % 2 == 0 {
            // Even requests carry a memory fault the scheme must repair.
            let inj = Arc::new(ScriptedInjector::new(vec![ScriptedFault::new(
                Site::InputMemory,
                100,
                FaultKind::SetValue { re: 3.0, im: 3.0 },
            )]));
            svc.submit_injected("alice", &spec, input, inj)
        } else {
            svc.submit("alice", &spec, input)
        };
        responses.push(ticket.wait());
    }
    let stats = svc.tenant_stats("alice").expect("alice has traffic");
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.frames, 4);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 3);
    let mut want = FtReport::new();
    for r in &responses {
        want.merge(&r.report);
    }
    assert_eq!(stats.report, want, "tenant report must be the merge of its requests");
    assert!(stats.report.mem_detected >= 2, "both injected faults attributed: {want:?}");
    assert_eq!(stats.report.uncorrectable, 0);
    assert_eq!(stats.latency().count, 4);
    assert!(stats.latency().max >= stats.latency().p50);
}

#[test]
fn scripted_fault_campaign_matches_direct_execution() {
    const N: usize = 1024;
    let spec = PlanSpec::builder(N).scheme(Scheme::OnlineCompOpt).build();
    let script = || {
        vec![
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 2 },
                5,
                FaultKind::AddDelta { re: 1.0, im: -0.5 },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: 3 },
                7,
                FaultKind::AddDelta { re: 0.0, im: 2e-3 },
            ),
        ]
    };
    let input = uniform_signal(N, 99);

    let svc = FftService::new(ServiceConfig::default().with_workers(2));
    let inj = Arc::new(ScriptedInjector::new(script()));
    let resp = svc.submit_injected("faulty", &spec, input.clone(), inj.clone()).wait();
    assert!(inj.exhausted(), "campaign must strike through the service path");

    // The same campaign against a fresh private plan is fully
    // deterministic, so the service must reproduce it bit for bit.
    let plan = FtFftPlan::from_spec(&spec);
    let mut ws = plan.make_workspace();
    let direct_inj = ScriptedInjector::new(script());
    let mut x = input.clone();
    let mut want = vec![Complex64::ZERO; N];
    let want_rep = plan.execute(&mut x, &mut want, &direct_inj, &mut ws);
    assert_eq!(resp.output, want, "faulty runs must match direct execution bitwise");
    assert_eq!(resp.report, want_rep);
    assert_eq!(resp.report.comp_detected, 2);
    assert_eq!(resp.report.uncorrectable, 0);

    // And recovery must still deliver the correct transform.
    let clean = dft_naive(&input, Direction::Forward);
    assert!(ftfft::numeric::max_abs_diff(&resp.output, &clean) < 1e-8 * N as f64);
}

#[test]
fn uncorrectable_fault_fails_closed_with_typed_error() {
    // One sub-FFT struck on its first attempt and on every retry: the
    // recompute budget runs out, so the service must not hand the
    // unverified output back as `Ok`.
    const N: usize = 1024;
    let spec = PlanSpec::builder(N).scheme(Scheme::OnlineCompOpt).build();
    let retries = FtFftPlan::from_spec(&spec).cfg().max_retries;
    let script: Vec<ScriptedFault> = (0..=retries)
        .map(|occ| {
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 4 },
                9,
                FaultKind::AddDelta { re: 0.5, im: 0.5 },
            )
            .at_occurrence(occ)
        })
        .collect();
    let svc = FftService::new(ServiceConfig::default().with_workers(2));
    let inj = Arc::new(ScriptedInjector::new(script));
    let res = svc.submit_injected("doomed", &spec, uniform_signal(N, 5), inj.clone()).wait_result();
    assert!(inj.exhausted(), "every retry must be struck");
    assert_eq!(res.err(), Some(RequestError::Uncorrectable(1)));

    // The queue keeps serving, and a clean request still gets `Ok`.
    let ok = svc.submit("clean", &spec, uniform_signal(N, 6)).wait_result();
    assert!(ok.is_ok_and(|r| r.report.is_clean()));
    svc.quiesce();
    assert_eq!(svc.stats().failed, 0, "an uncorrectable result is not a worker panic");
}

#[test]
fn service_reuses_one_plan_across_tenants() {
    let spec = PlanSpec::builder(512).scheme(Scheme::OnlineMemOpt).build();
    let svc = FftService::new(
        ServiceConfig::default()
            .with_workers(4)
            .with_max_batch(8)
            .with_max_wait(Duration::from_millis(1)),
    );
    std::thread::scope(|scope| {
        for t in 0..TENANTS {
            let (svc, spec) = (&svc, &spec);
            scope.spawn(move || {
                for r in 0..4u64 {
                    let input = uniform_signal(512, t as u64 * 17 + r);
                    let resp = svc.submit(&format!("t{t}"), spec, input.clone()).wait();
                    let (want, _) = direct(spec, &input);
                    assert_eq!(resp.output, want);
                }
            });
        }
    });
    let stats = svc.stats();
    assert_eq!(stats.requests, (TENANTS * 4) as u64);
    assert_eq!(stats.distinct_plans, 1);
    assert_eq!(stats.cache_misses, 1, "exactly one plan build for 32 requests");
    assert!(stats.hit_rate > 0.9);
    for (name, t) in svc.all_tenant_stats() {
        assert_eq!(t.requests, 4, "{name}");
        assert_eq!(t.frames, 4, "{name}");
    }
}
