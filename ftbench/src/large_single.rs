//! `large_single`: one caller runs Opt-Online(m) back to back at n = 2^18.
//!
//! Each buffer is 4 MiB (the L2 of one core), so the two-layer
//! gather/scatter and the checksum sweeps run memory-bound. Every op
//! draws one input from a seeded pool; its output is checked against a
//! fault-free serial bare `FftPlan` computed before timing.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ftfft::checksum::{gather_sum1, input_checksum_vector};
use ftfft::prelude::*;

use crate::reference::{bare_kernel, Reference, TOL};
use crate::stats::median;
use crate::sys::{sub_seed, SplitMix};
use crate::trace::{SpanId, Tracer};
use crate::{Budget, Metric, Run, Verdict};

const LOG2N: usize = 18;
const N: usize = 1 << LOG2N;
/// Seeded inputs an op draws from: 4 × 4 MiB, so consecutive ops do not
/// find their input already in L2.
const POOL: usize = 4;

/// The protected plans run single-threaded and serial, pinned through
/// the spec so no environment variable can change what is measured.
fn spec(scheme: Scheme) -> PlanSpec {
    PlanSpec::builder(N).scheme(scheme).threads(1).strategy(Strategy::Serial).build()
}

/// The seeded input pool.
fn inputs(seed: u64) -> Vec<Vec<Complex64>> {
    (0..POOL).map(|i| uniform_signal(N, sub_seed(seed, i as u64))).collect()
}

struct Ready {
    plan: FtFftPlan,
    ws: Workspace,
    out: Vec<Complex64>,
}

/// Plan build, workspace allocation, and the first (cache-missing) call.
fn set_up(x: &mut [Complex64]) -> Ready {
    let plan = FtFftPlan::from_spec(&spec(Scheme::OnlineMemOpt));
    let mut ws = plan.make_workspace();
    let mut out = vec![Complex64::ZERO; N];
    plan.execute(x, &mut out, &NoFaults, &mut ws);
    Ready { plan, ws, out }
}

#[derive(Default)]
struct Loop {
    lat_ms: Vec<f32>,
    attempted: u64,
    failed: u64,
    busy: Duration,
    checks: u64,
    detected: u64,
}

/// Runs ops back to back for `secs`. Verification follows each op,
/// outside its span and outside the busy time.
fn timed_loop(
    r: &mut Ready,
    pool: &mut [Vec<Complex64>],
    refs: &[Reference],
    rng: &mut SplitMix,
    secs: f64,
    tracer: &mut Tracer,
) -> Loop {
    let mut l = Loop::default();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < deadline {
        let i = rng.below(POOL);
        let t0 = Instant::now();
        let rep = r.plan.execute(&mut pool[i], &mut r.out, &NoFaults, &mut r.ws);
        let t1 = Instant::now();
        tracer.record("core.execute", SpanId::NONE, l.attempted, t0, t1);
        l.busy += t1 - t0;
        l.lat_ms.push((t1 - t0).as_secs_f32() * 1e3);
        l.attempted += 1;
        l.checks += u64::from(rep.checks);
        l.detected += u64::from(rep.total_detected());
        let ok = rep.uncorrectable == 0 && refs[i].matches(&r.out);
        l.failed += u64::from(!ok);
    }
    l
}

pub fn run(seed: u64, budget: Budget, tracer: &mut Tracer) -> Run {
    let mut pool = inputs(seed);
    let refs = Reference::for_inputs(&pool);

    let (setup_s, mut r) = budget.repeat_setup(|| set_up(&mut pool[0]));
    let mut rng = SplitMix::new(sub_seed(seed, 100));
    let mut off = Tracer::new(false);
    let warm = timed_loop(&mut r, &mut pool, &refs, &mut rng, budget.warmup_secs, &mut off);
    let mut verdict = Verdict { attempted: warm.attempted, failed: warm.failed };

    let mut layers = Vec::new();
    let mut untraced_ms = None;
    if tracer.on() {
        // Same loop with tracing off first: the difference is what the
        // spans cost.
        let l = timed_loop(&mut r, &mut pool, &refs, &mut rng, budget.e2e_secs, &mut off);
        verdict.add(l.attempted, l.failed);
        untraced_ms = Some(l.busy.as_secs_f64() * 1e3 / l.attempted as f64);
    }
    let l = timed_loop(&mut r, &mut pool, &refs, &mut rng, budget.e2e_secs, tracer);
    verdict.add(l.attempted, l.failed);
    if let Some(off_ms) = untraced_ms {
        let on_ms = l.busy.as_secs_f64() * 1e3 / l.attempted as f64;
        layers.push(Metric::new("bench.trace_overhead", on_ms - off_ms, "ms"));
        layers.push(Metric::new(
            "core.checks_per_op",
            l.checks as f64 / l.attempted as f64,
            "count",
        ));
        layers.push(Metric::new(
            "core.false_alarm_frac",
            l.detected as f64 / l.checks.max(1) as f64,
            "fraction",
        ));
        layers.extend(probe_layers(&mut r, &mut pool[0], budget.probe_secs, tracer));
    }
    Run {
        setup_s,
        lat_ms: l.lat_ms,
        completed: l.attempted,
        wall_s: l.busy.as_secs_f64(),
        verdict,
        layers,
        notes: vec![format!(
            "large_single: n=2^{LOG2N}, scheme {}, pool {POOL}, tolerance {TOL:e} (relative inf-norm vs serial bare FftPlan)",
            Scheme::OnlineMemOpt.name()
        )],
    }
}

/// Interleaved rounds timing each layer through its public entry point:
/// the bare kernel, two-layer Plain, the k + m sub-FFT batches, the fused
/// gather+checksum over all part-1 columns, and the protected call. The
/// order rotates every round so no probe always runs after the same one.
fn probe_layers(r: &mut Ready, x: &mut [Complex64], secs: f64, tracer: &mut Tracer) -> Vec<Metric> {
    let kernel = bare_kernel(N);
    let plain = FtFftPlan::from_spec(&spec(Scheme::Plain));
    let mut plain_ws = plain.make_workspace();
    let two = r.plan.two();
    let (k, m) = (two.k(), two.m());
    let (inner, outer) = (two.inner_plan(), two.outer_plan());
    let mut kscratch = vec![Complex64::ZERO; kernel.scratch_len()];
    let mut sscratch = vec![Complex64::ZERO; inner.scratch_len().max(outer.scratch_len()).max(1)];
    let ra = input_checksum_vector(m, Direction::Forward);
    let mut gbuf = vec![Complex64::ZERO; m];
    let mut mid = vec![Complex64::ZERO; N];
    let mut out = vec![Complex64::ZERO; N];

    const PROBES: [&str; 5] =
        ["fft.kernel", "fft.two_layer", "fft.subfft", "checksum.ccg", "core.protected"];
    let mut per_round: Vec<[f64; 5]> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    while per_round.len() < 5 || Instant::now() < deadline {
        let round = per_round.len();
        let root = tracer.begin("probe.round", SpanId::NONE, round as u64);
        let mut ms = [0.0; 5];
        for j in 0..PROBES.len() {
            let p = (j + round) % PROBES.len();
            let t0 = Instant::now();
            let span = tracer.begin(PROBES[p], root, round as u64);
            match p {
                0 => kernel.execute(x, &mut out, &mut kscratch),
                1 => {
                    plain.execute(x, &mut out, &NoFaults, &mut plain_ws);
                }
                2 => {
                    let s = tracer.begin("fft.subfft.inner", span, round as u64);
                    inner.execute_batch(x, &mut mid, &mut sscratch);
                    tracer.end(s);
                    let s = tracer.begin("fft.subfft.outer", span, round as u64);
                    outer.execute_batch(&mid, &mut out, &mut sscratch);
                    tracer.end(s);
                }
                3 => {
                    let mut acc = Complex64::ZERO;
                    for n1 in 0..k {
                        acc += gather_sum1(x, n1, k, &ra, &mut gbuf);
                    }
                    black_box(acc);
                }
                _ => {
                    r.plan.execute(x, &mut out, &NoFaults, &mut r.ws);
                }
            }
            black_box(&out);
            tracer.end(span);
            ms[p] = t0.elapsed().as_secs_f64() * 1e3;
        }
        tracer.end(root);
        per_round.push(ms);
    }
    let med = |p: usize| median(&per_round.iter().map(|r| r[p]).collect::<Vec<_>>());
    let protect: Vec<f64> = per_round.iter().map(|r| r[4] - r[1]).collect();
    let (kernel_ms, two_ms, prot_ms) = (med(0), med(1), med(4));
    vec![
        Metric::new("fft.kernel_ms", kernel_ms, "ms"),
        Metric::new("fft.two_layer_ms", two_ms, "ms"),
        Metric::new("fft.subfft_ms", med(2), "ms"),
        Metric::new("checksum.ccg_ms", med(3), "ms"),
        Metric::new("core.protect_ms", median(&protect), "ms"),
        Metric::new("fft.two_layer_over_kernel", two_ms / kernel_ms, "ratio"),
        Metric::new("core.overhead_vs_kernel", prot_ms / kernel_ms, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_pool_is_seeded() {
        let (a, b, c) = (inputs(5), inputs(5), inputs(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), POOL);
        assert!(a.iter().all(|x| x.len() == N));
        assert_ne!(a[0], a[1], "pool members must differ");
    }
}
