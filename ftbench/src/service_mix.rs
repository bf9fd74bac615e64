//! `service_mix`: one generator thread keeps 32 requests in flight
//! against `FftService` with two workers.
//!
//! Half the requests are `batch` at 2^10, a quarter `batch` at 2^12 and a
//! quarter `online-mem-opt` at 2^12. These transforms stay in L2, so
//! queueing, coalescing, the plan cache and the batch-checksum executor
//! dominate. Each request gets a fresh copy of a seeded pooled input; its
//! output is checked against a fault-free serial bare `FftPlan` computed
//! before timing.

use std::time::{Duration, Instant};

use ftfft::prelude::*;

use crate::reference::{Reference, TOL};
use crate::stats::{median, quantile_sorted};
use crate::sys::{sub_seed, threads_cpu_ns, SplitMix};
use crate::trace::{SpanId, Tracer};
use crate::{Budget, Metric, Run, Verdict};

const IN_FLIGHT: usize = 32;
/// How long the generator sleeps when no request has completed.
const POLL: Duration = Duration::from_micros(20);
const WORKERS: usize = 2;
/// Pooled inputs per transform size.
const POOL: usize = 32;
const LOG2NS: [usize; 2] = [10, 12];
/// `(scheme, index into LOG2NS)` of the three request kinds.
const KINDS: [(Scheme, usize); 3] =
    [(Scheme::BatchChecksum, 0), (Scheme::BatchChecksum, 1), (Scheme::OnlineMemOpt, 1)];
/// Thread-name prefix of the service's workers.
const WORKER_PREFIX: &str = "ftfft-svc";

fn spec(kind: usize) -> PlanSpec {
    let (scheme, size) = KINDS[kind];
    PlanSpec::builder(1 << LOG2NS[size])
        .scheme(scheme)
        .threads(1)
        .strategy(Strategy::Serial)
        .build()
}

fn config() -> ServiceConfig {
    ServiceConfig::default().with_workers(WORKERS)
}

/// The request stream: which kind (1/2, 1/4, 1/4) and which pooled input.
fn draw(rng: &mut SplitMix) -> (usize, usize) {
    let kind = match rng.below(4) {
        0 | 1 => 0,
        2 => 1,
        _ => 2,
    };
    (kind, rng.below(POOL))
}

/// Seeded input pools, one per transform size.
fn inputs(seed: u64) -> Vec<Vec<Vec<Complex64>>> {
    LOG2NS
        .iter()
        .enumerate()
        .map(|(s, &l)| {
            (0..POOL)
                .map(|i| uniform_signal(1 << l, sub_seed(seed, (s * POOL + i) as u64)))
                .collect()
        })
        .collect()
}

/// Service spin-up plus one first-touch request per spec (each a plan
/// cache miss and a worker workspace allocation).
fn set_up(pools: &[Vec<Vec<Complex64>>]) -> FftService {
    let svc = FftService::new(config());
    for kind in 0..KINDS.len() {
        let input = pools[KINDS[kind].1][0].clone();
        svc.submit("setup", &spec(kind), input).wait_result().expect("set-up request must succeed");
    }
    svc
}

#[derive(Clone, Copy)]
struct Req {
    kind: usize,
    idx: usize,
    span: SpanId,
}

struct Pending {
    ticket: Ticket,
    req: Req,
}

#[derive(Default)]
struct Loop {
    lat_ms: Vec<f32>,
    in_window: u64,
    window_s: f64,
    attempted: u64,
    failed: u64,
    submit_us: Vec<f64>,
}

struct Env<'a> {
    svc: &'a FftService,
    pools: &'a [Vec<Vec<Complex64>>],
    refs: &'a [Vec<Reference>],
}

/// Closed loop for `secs`: every observed completion is verified and
/// replaced by a new submission. Completions observed after the window
/// (the drain) are verified but not timed.
fn closed_loop(env: &Env, rng: &mut SplitMix, secs: f64, tracer: &mut Tracer) -> Loop {
    let mut l = Loop::default();
    let mut inflight: Vec<Pending> = Vec::with_capacity(IN_FLIGHT);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut op = 0u64;
    let mut submit = |inflight: &mut Vec<Pending>, l: &mut Loop, tracer: &mut Tracer| {
        let (kind, idx) = draw(rng);
        let input = env.pools[KINDS[kind].1][idx].clone();
        let span = tracer.begin("svc.request", SpanId::NONE, op);
        let t0 = Instant::now();
        let ticket = env.svc.submit("bench", &spec(kind), input);
        let t1 = Instant::now();
        if tracer.on() {
            tracer.record("svc.submit", span, op, t0, t1);
            l.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        inflight.push(Pending { ticket, req: Req { kind, idx, span } });
        op += 1;
    };
    let complete = |p: Req,
                    res: Result<ServiceResponse, RequestError>,
                    timed: bool,
                    l: &mut Loop,
                    tracer: &mut Tracer| {
        tracer.end(p.span);
        l.attempted += 1;
        let ok = match res {
            Ok(resp) => {
                if timed {
                    l.in_window += 1;
                    l.lat_ms.push(resp.latency.as_secs_f32() * 1e3);
                }
                let want = &env.refs[KINDS[p.kind].1][p.idx];
                resp.report.uncorrectable == 0 && want.matches(&resp.output)
            }
            Err(_) => false,
        };
        l.failed += u64::from(!ok);
    };

    while inflight.len() < IN_FLIGHT {
        submit(&mut inflight, &mut l, tracer);
    }
    // Every completion is replaced at once, whichever request it is: the
    // generator polls all tickets and, when none is ready, sleeps briefly
    // so that both CPUs stay with the workers.
    while Instant::now() < deadline {
        let before = inflight.len();
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].ticket.try_take() {
                Some(res) => {
                    let p = inflight.swap_remove(i);
                    complete(p.req, res, true, &mut l, tracer);
                }
                None => i += 1,
            }
        }
        if inflight.len() == before {
            std::thread::sleep(POLL);
        }
        while inflight.len() < IN_FLIGHT {
            submit(&mut inflight, &mut l, tracer);
        }
    }
    l.window_s = start.elapsed().as_secs_f64();
    for p in inflight.drain(..) {
        let res = p.ticket.wait_result();
        complete(p.req, res, false, &mut l, tracer);
    }
    l
}

/// Microseconds of the `q`-quantile of one of the service's own latency
/// histograms in the global metrics registry.
fn service_hist_us(snap: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, h)| h.percentile(q).as_secs_f64() * 1e6)
}

pub fn run(seed: u64, budget: Budget, tracer: &mut Tracer) -> Run {
    let pools = inputs(seed);
    let refs: Vec<Vec<Reference>> = pools.iter().map(|p| Reference::for_inputs(p)).collect();
    // Set-up traffic stays out of the service's histograms in the traced
    // run; the end-to-end run keeps the library's default recording.
    let obs_default = ftfft::obs::enabled();
    if tracer.on() {
        ftfft::obs::set_enabled(false);
    }
    let (setup_s, svc) = budget.repeat_setup(|| set_up(&pools));
    let env = Env { svc: &svc, pools: &pools, refs: &refs };
    let mut rng = SplitMix::new(sub_seed(seed, 100));
    let mut off = Tracer::new(false);
    let warm = closed_loop(&env, &mut rng, budget.warmup_secs, &mut off);
    let mut verdict = Verdict { attempted: warm.attempted, failed: warm.failed };

    let mut layers = Vec::new();
    let mut untraced = None;
    if tracer.on() {
        ftfft::obs::set_enabled(true);
        let l = closed_loop(&env, &mut rng, budget.e2e_secs, &mut off);
        verdict.add(l.attempted, l.failed);
        untraced = Some(l.window_s / l.in_window as f64);
    }
    let before = svc.stats();
    let cpu_before = threads_cpu_ns(WORKER_PREFIX);
    let t = Instant::now();
    let l = closed_loop(&env, &mut rng, budget.e2e_secs, tracer);
    let wall = t.elapsed().as_secs_f64();
    let busy_frac =
        (threads_cpu_ns(WORKER_PREFIX) - cpu_before) as f64 * 1e-9 / (WORKERS as f64 * wall);
    let after = svc.stats();
    verdict.add(l.attempted, l.failed);
    let batched = |s: &ServiceStats| s.mean_batch * s.batches as f64;
    let mean_batch = (batched(&after) - batched(&before)) / (after.batches - before.batches) as f64;
    let joint = after.batch_protected - before.batch_protected;
    let fallback = after.batch_fallback - before.batch_fallback;

    if let Some(off_s) = untraced {
        let snap = ftfft::obs::global().snapshot();
        let on_s = l.window_s / l.in_window as f64;
        let mut submit_us = l.submit_us.clone();
        submit_us.sort_by(f64::total_cmp);
        layers.extend([
            Metric::new("bench.trace_overhead", (on_s - off_s) * 1e3, "ms"),
            Metric::new("service.submit_us_p50", quantile_sorted(&submit_us, 0.5), "us"),
            Metric::new(
                "service.queue_wait_us_p50",
                service_hist_us(&snap, "ftfft_service_queue_wait_ns", 0.50),
                "us",
            ),
            Metric::new(
                "service.queue_wait_us_p99",
                service_hist_us(&snap, "ftfft_service_queue_wait_ns", 0.99),
                "us",
            ),
            Metric::new(
                "service.execute_us_p50",
                service_hist_us(&snap, "ftfft_service_execute_ns", 0.50),
                "us",
            ),
            Metric::new("service.worker_busy_frac", busy_frac, "fraction"),
            Metric::new("service.mean_batch", mean_batch, "count"),
            Metric::new("service.joint_frac", joint as f64 / (joint + fallback) as f64, "fraction"),
            Metric::new("service.cache_hit_rate", after.hit_rate, "fraction"),
        ]);
        layers.extend(probe_batch(&pools[0], budget.probe_secs, tracer));
    }
    ftfft::obs::set_enabled(obs_default);
    drop(svc);

    let mut notes = vec![format!(
        "service_mix: {IN_FLIGHT} in flight, {WORKERS} workers, 1/2 batch@2^10 + 1/4 batch@2^12 + 1/4 {}@2^12, tolerance {TOL:e}",
        Scheme::OnlineMemOpt.name()
    )];
    notes.push(format!(
        "service_mix: mean batch {mean_batch:.2}, joint {joint} / fallback {fallback} requests, cache hit rate {:.5}",
        after.hit_rate
    ));
    Run {
        setup_s,
        lat_ms: l.lat_ms,
        completed: l.in_window,
        wall_s: l.window_s,
        verdict,
        layers,
        notes,
    }
}

/// Direct `execute_batch` of B = 8 transforms at 2^10 under the batch
/// scheme against the same 8 under per-transform Opt-Online(c), timed in
/// interleaved rounds.
fn probe_batch(pool: &[Vec<Complex64>], secs: f64, tracer: &mut Tracer) -> Vec<Metric> {
    const B: usize = 8;
    let n = pool[0].len();
    let batch = FtFftPlan::from_spec(&spec(0));
    let online = FtFftPlan::from_spec(&spec(0).with_scheme(Scheme::OnlineCompOpt));
    let (mut bws, mut ows) = (batch.make_workspace(), online.make_workspace());
    let mut xs: Vec<Complex64> = pool.iter().take(B).flatten().copied().collect();
    let mut outs = vec![Complex64::ZERO; B * n];
    let (mut batch_us, mut online_us) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    while batch_us.len() < 5 || Instant::now() < deadline {
        let round = batch_us.len() as u64;
        let root = tracer.begin("probe.round", SpanId::NONE, round);
        for j in 0..2 {
            let use_batch = (j + round as usize).is_multiple_of(2);
            let (plan, ws, name) = if use_batch {
                (&batch, &mut bws, "core.batch8")
            } else {
                (&online, &mut ows, "core.online8")
            };
            let t0 = Instant::now();
            plan.execute_batch(&mut xs, &mut outs, &NoFaults, ws);
            let t1 = Instant::now();
            tracer.record(name, root, round, t0, t1);
            let us = (t1 - t0).as_secs_f64() * 1e6;
            if use_batch {
                batch_us.push(us);
            } else {
                online_us.push(us);
            }
        }
        tracer.end(root);
    }
    let (b, o) = (median(&batch_us), median(&online_us));
    vec![
        Metric::new("core.batch_member_us", b / B as f64, "us"),
        Metric::new("core.batch_vs_online", b / o, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_seeded_and_mixed() {
        let stream = |seed| {
            let mut rng = SplitMix::new(seed);
            (0..4000).map(|_| draw(&mut rng)).collect::<Vec<_>>()
        };
        let a = stream(3);
        assert_eq!(a, stream(3));
        assert_ne!(a, stream(4));
        let share = |k| a.iter().filter(|d| d.0 == k).count() as f64 / a.len() as f64;
        assert!((share(0) - 0.5).abs() < 0.03, "{}", share(0));
        assert!((share(1) - 0.25).abs() < 0.03);
        assert!((share(2) - 0.25).abs() < 0.03);
        assert!(a.iter().all(|&(_, i)| i < POOL));
    }

    #[test]
    fn input_pools_are_seeded() {
        let (a, b) = (inputs(1), inputs(1));
        assert_eq!(a, b);
        assert_ne!(a, inputs(2));
        assert_eq!(a[0][0].len(), 1 << 10);
        assert_eq!(a[1][0].len(), 1 << 12);
    }
}
