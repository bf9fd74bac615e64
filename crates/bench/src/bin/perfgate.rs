//! Machine-readable perf harness and CI regression gate.
//!
//! Times four matrices over seeded inputs at `--log2ns` sizes and writes
//! everything to `BENCH_PR.json`:
//!
//! 1. **Kernel matrix** — radix-2 vs radix-4 vs split-radix, each as (a)
//!    the bare kernel in every data layout it has an engine for (AoS
//!    interleaved, plus the SoA split-complex engine for radix-2 and
//!    radix-4 — `soa_speedup` column, `"skipped"` for split-radix; the
//!    `layout` column records what the planner picks), (b) the
//!    unprotected two-layer scheme ("FFTW" baseline), and (c) the
//!    paper's Opt-Online(m) protected scheme.
//! 2. **CCG kernel bench** — the fused SIMD gather+checksum
//!    ([`gather_sum1`]) against the PR-2 scalar path (strided gather, then
//!    [`combined_sum1_ref`]) over one part-1's worth of strided traffic.
//! 3. **Thread matrix** — the pooled batched executor
//!    ([`PooledFtFft::execute_batch`]) at `threads = 1` vs `threads = N`
//!    (`N` from `FTFFT_THREADS` / available parallelism).
//! 4. **Streaming matrix** — the STFT engine's sustained frames/sec
//!    ([`ftfft_bench::time_streaming`]): plain vs Opt-Online(m), scheduled
//!    at 1 worker vs `N` workers.
//! 5. **Parallel-strategy matrix** — the two-halves parallel DIT
//!    (`Strategy::Parallel`) against the serial radix-2 plan it is
//!    bitwise-identical to, plus what the `FTFFT_STRATEGY=auto` heuristic
//!    would pick at this `(n, threads)`.
//! 6. **Service workload** — the multi-tenant [`FftService`] driven by
//!    [`ftfft_bench::run_service_load`] with a mixed size × scheme
//!    workload: requests/sec, plan-cache hit rate, coalesced batch
//!    statistics, and p50/p99/p999 request latency.
//! 7. **Pipeline matrix** — the end-to-end protected telemetry pipeline
//!    ([`ftfft_bench::PipelineRun`]): sustained frames/sec with the
//!    cold-buffer CRC guard off, on, and on under a seeded fault
//!    campaign, at sizes capped to 2¹⁴ (the pipeline is a frame path,
//!    not a big-transform path). The CRC on/off pair is a paired
//!    interleaved A/B ([`ftfft_bench::paired_ab`]).
//! 8. **Observability A/B** — the same pipeline and service workloads
//!    timed with `ftfft-obs` recording enabled vs disabled through the
//!    runtime kill switch (`ftfft::obs::set_enabled`), both sides in one
//!    process. Runtime-off takes the same early-out branches the `no-obs`
//!    feature compiles away, so this ratio is the measured cost of
//!    leaving instrumentation on.
//! 9. **Batch-checksum matrix** — `B` same-size transforms protected by
//!    the batch-level two-sided checksum scheme (`Scheme::BatchChecksum`:
//!    one detection checksum transform amortized over the whole batch,
//!    the localization side built lazily on a fault) against
//!    `B` per-transform Opt-Online(c) executes and `B` unprotected plain
//!    executes, at `B ∈ {1, 2, 4, 8, 16, 32}` and sizes capped to 2¹⁴
//!    (batch protection is a many-small-transforms path).
//!
//! On a box with no parallelism to measure (`threads = 1`, e.g. a
//! single-CPU runner), every `threads = N` column is **skipped** — recorded
//! as the string `"skipped"` in the JSON instead of silently duplicating
//! the 1-worker time as a fake 1.00x speedup — and only the
//! correctness/serial gates apply.
//!
//! The gate (against the committed `crates/bench/baseline.json`, which
//! must carry every key below — a missing key fails the parse rather than
//! silently skipping its gate):
//!
//! * the worst Opt-Online overhead ratio must not exceed
//!   `overhead_optonline · (1 + tolerance)` — any mode;
//! * in full mode, every kernel-matrix cell at sizes `≥ 2^16` that has an
//!   SoA sibling must run its planner-chosen layout no more than
//!   `max_sibling_loss` slower than the sibling layout — the planner must
//!   never pick a losing cell (generous bound: the sibling A/B shares one
//!   run's noise);
//! * in **full** (non-smoke) mode, the fused CCG speedup at every size
//!   `≥ 2^16` must meet `min_ccg_speedup` (smoke sizes are too
//!   small/noisy to gate kernels on);
//! * in full mode, the *best* kernel's SoA/AoS speedup at every size
//!   `≥ 2^16` must meet `min_soa_speedup` (a structural SoA regression —
//!   plane kernels silently scalar, packs mis-built — drops every kernel
//!   to ~1.0×);
//! * every streaming 1-worker Opt-Online overhead must stay within
//!   `overhead_stream · (1 + tolerance)`;
//! * the service workload's plan-cache hit rate must meet
//!   `min_cache_hit_rate` — any mode (the rate is a count ratio, not a
//!   timing, so smoke runs gate it too);
//! * every pipeline row's CRC-on/CRC-off time ratio (median of the paired
//!   per-round ratios) must stay within
//!   `overhead_pipeline_crc · (1 + tolerance)` — any mode, but only in
//!   **optimized** builds (the debug profile inflates the byte-level CRC
//!   relative to the f64 transform and the ratio stops meaning anything);
//! * every observability A/B row's enabled/disabled throughput ratio must
//!   stay within `overhead_obs` — any mode, **optimized** builds only,
//!   and deliberately *without* the tolerance multiplier: the bound
//!   (1.05×) already is the budget, and both sides time in one process so
//!   runner speed cancels;
//! * every batch-checksum cell at `B ≥ 8` must run the whole batch strictly
//!   faster than `B` per-transform Opt-Online(c) executes *and* within
//!   the baseline's `t(batch)/t(B × Opt-Online(c))` bound — any mode,
//!   **optimized** builds only, without the tolerance multiplier (the
//!   bound carries its own slack and must stay below 1.0 for "strictly
//!   cheaper" to mean anything). The ratio is the median of paired
//!   per-round ratios ([`ftfft_bench::paired_ab`]), like the CRC and
//!   observability rows.
//!
//! ```text
//! cargo run -p ftfft-bench --release --bin perfgate -- \
//!     [--smoke] [--log2ns 10,12,...] [--runs N] [--out BENCH_PR.json] \
//!     [--baseline path/to/baseline.json] [--no-gate]
//! ```
//!
//! `--smoke` shrinks the matrix to 2¹⁰/2¹² (the CI and `bin_smoke`
//! configuration); kernel selection is pinned per column via
//! `PlanSpec::builder(..).kernel(..)`, exactly the A/B switch users have.

use std::fmt::Write as _;
use std::process::ExitCode;

use ftfft::checksum::{combined_sum1_ref, gather_sum1, input_checksum_vector};
use ftfft::fft::strided::gather;
use ftfft::prelude::*;
use ftfft_bench::{
    gflops, median_secs, paired_ab, run_service_load, time_pipeline, time_pooled_batch,
    time_scheme_spec, time_streaming, Args, BaselineSpec, PipelineRun, ServiceLoad,
    ServiceLoadReport,
};

/// One timed cell of the kernel matrix.
struct Case {
    kernel: Pow2Kernel,
    log2n: u32,
    /// Layout the planner picks for this (kernel, size).
    layout: Layout,
    /// Bare kernel in the planner's layout, out-of-place `FftPlan::execute`.
    plain_kernel_secs: f64,
    /// Bare kernel pinned to AoS (interleaved `Complex64`).
    plain_kernel_aos_secs: f64,
    /// Bare kernel pinned to the SoA split-complex engine (`None` for a
    /// kernel with no SoA engine, whose SoA pin builds the AoS plan).
    plain_kernel_soa_secs: Option<f64>,
    /// Unprotected two-layer scheme (the "FFTW" bar of Fig 7).
    plain_scheme_secs: f64,
    /// Opt-Online(m): computational + memory FT, all §4 optimizations.
    opt_online_secs: f64,
}

impl Case {
    fn overhead_ratio(&self) -> f64 {
        self.opt_online_secs / self.plain_scheme_secs
    }

    /// Split-complex engine speedup over the interleaved kernel.
    fn soa_speedup(&self) -> Option<f64> {
        self.plain_kernel_soa_secs.map(|soa| self.plain_kernel_aos_secs / soa)
    }
}

/// One timed CCG kernel comparison (per size, kernel-independent).
struct CcgCase {
    log2n: u32,
    /// Fused SIMD gather+checksum over one part-1's worth of columns.
    fused_secs: f64,
    /// PR-2 scalar path: strided gather, then scalar fold.
    scalar_secs: f64,
}

impl CcgCase {
    fn speedup(&self) -> f64 {
        self.scalar_secs / self.fused_secs
    }
}

/// One timed streaming row (per size): STFT analysis frames/sec, plain vs
/// Opt-Online(m), at 1 worker vs N workers. The `N`-worker columns are
/// `None` ("skipped") when there is no parallelism to measure.
struct StreamCase {
    log2n: u32,
    frames: usize,
    threads: usize,
    plain_t1_secs: f64,
    opt_t1_secs: f64,
    plain_tn_secs: Option<f64>,
    opt_tn_secs: Option<f64>,
}

impl StreamCase {
    fn fps(&self, secs: f64) -> f64 {
        if secs <= 0.0 {
            0.0
        } else {
            self.frames as f64 / secs
        }
    }

    /// Protection overhead of the streaming engine at 1 worker.
    fn overhead_t1(&self) -> f64 {
        self.opt_t1_secs / self.plain_t1_secs
    }
}

/// One timed pooled-batch comparison (per size). `tn_secs` is `None`
/// ("skipped") when there is no parallelism to measure.
struct BatchCase {
    log2n: u32,
    threads: usize,
    /// `batch` transforms on 1 worker.
    t1_secs: f64,
    /// Same batch on `threads` workers.
    tn_secs: Option<f64>,
}

impl BatchCase {
    fn speedup(&self) -> Option<f64> {
        self.tn_secs.map(|tn| self.t1_secs / tn)
    }
}

/// One serial-vs-parallel single-transform comparison (per size): the
/// two-halves parallel DIT against the serial radix-2 AoS plan whose
/// output it reproduces bitwise. `parallel_secs` is `None` ("skipped")
/// when there is no parallelism to measure.
struct ParCase {
    log2n: u32,
    threads: usize,
    /// What `FTFFT_STRATEGY=auto` picks at this `(n, threads)`.
    strategy: &'static str,
    serial_secs: f64,
    parallel_secs: Option<f64>,
}

impl ParCase {
    fn speedup(&self) -> Option<f64> {
        self.parallel_secs.map(|p| self.serial_secs / p)
    }
}

/// One timed protected-pipeline row (per size): sustained frames/sec
/// through sync → protected STFT → CRC-guarded cold ring → sink, with the
/// CRC guard off, on, and on under a seeded fault campaign.
struct PipelineCase {
    log2n: u32,
    frames: usize,
    /// Per-side minima across the paired CRC A/B rounds.
    nocrc_secs: f64,
    crc_secs: f64,
    /// Median of the per-round CRC-on/CRC-off ratios (the gated number).
    crc_ratio: f64,
    campaign_secs: f64,
}

impl PipelineCase {
    fn fps(&self, secs: f64) -> f64 {
        if secs <= 0.0 {
            0.0
        } else {
            self.frames as f64 / secs
        }
    }

    /// Cost of the cold-buffer CRC guard (the gated ratio).
    fn crc_overhead(&self) -> f64 {
        self.crc_ratio
    }

    /// Cost of guard + an active fault campaign's recovery ladder.
    fn campaign_overhead(&self) -> f64 {
        self.campaign_secs / self.nocrc_secs
    }
}

/// One observability A/B row: the same workload timed with `ftfft-obs`
/// recording enabled vs disabled via the runtime kill switch, in one
/// process (so runner speed cancels and the ratio is pure
/// instrumentation cost).
struct ObsCase {
    /// Which workload: `"pipeline"` or `"service"`.
    name: &'static str,
    log2n: u32,
    /// Per-side minimum across the A/B rounds (the floor estimate).
    on_secs: f64,
    off_secs: f64,
    /// Median of the per-round on/off ratios (the gated number).
    overhead: f64,
}

/// Frames per timed run in the observability A/B (more than
/// [`PIPE_FRAMES`]: the instrumentation cost is per-frame and small, so
/// the A/B needs a longer run to rise above timer noise).
const OBS_FRAMES: usize = 512;

/// A/B rounds per observability workload and per pipeline CRC row. Each
/// round times both switch positions back to back (order alternating
/// round to round), yielding one on/off ratio per round; the gated
/// overhead is the **median of the per-round ratios**
/// ([`ftfft_bench::paired_ab`]).
///
/// Optimized builds, where these ratios are gated, run 41 rounds: the
/// service A/B's per-round ratios scatter by several percent around a
/// ~1.01 centre, and over 1000 rounds split into windows the 21-round
/// median crossed the tolerance-free 1.05 bound in 3 of 47 windows, the
/// 41-round median in none of 24 (max 1.037). Debug builds only report
/// the ratios and keep 11 rounds.
const OBS_AB_ROUNDS: usize = if cfg!(debug_assertions) { 11 } else { 41 };

/// Runs one observability A/B over `rounds` paired timings of `work`,
/// flipping the runtime kill switch between the sides; returns
/// `(on_min, off_min, median per-round on/off ratio)`.
fn obs_ab(rounds: usize, mut work: impl FnMut() -> f64) -> (f64, f64, f64) {
    paired_ab(rounds, |enable| {
        ftfft::obs::set_enabled(enable);
        work()
    })
}

/// Times the observability A/B rows. Saves and restores the process-wide
/// switch state so the A/B cannot leak into later measurements.
fn time_obs_cases(runs: usize) -> Vec<ObsCase> {
    let prior = ftfft::obs::enabled();
    let rounds = OBS_AB_ROUNDS.max(runs);
    let mut cases = Vec::new();

    // Pipeline side: CRC guard on, no fault campaign (the hot path a
    // healthy deployment runs), at a frame-sized transform.
    let pipe_log2n = 10;
    let mut pipe = PipelineRun::new(1 << pipe_log2n, OBS_FRAMES, true, false);
    let (pipe_on, pipe_off, pipe_ovh) = obs_ab(rounds, || pipe.run());
    cases.push(ObsCase {
        name: "pipeline",
        log2n: pipe_log2n,
        on_secs: pipe_on,
        off_secs: pipe_off,
        overhead: pipe_ovh,
    });

    // Service side: a modest mixed workload, wall-clock per run. Long
    // enough (~240 requests) that worker-pool scheduling jitter averages
    // out inside each sample instead of dominating the ratio, and the
    // worker count follows the machine — oversubscribing a single-CPU
    // runner would add context-switch noise to both sides of the A/B.
    let svc_log2n: u32 = 8;
    let svc_workers = resolve_threads(None).clamp(1, 2);
    let svc_load = || ServiceLoad {
        tenants: 4,
        requests_per_tenant: 150,
        log2ns: vec![svc_log2n as usize],
        schemes: vec![Scheme::OnlineMemOpt],
        rate: None,
        service: ServiceConfig::default()
            .with_workers(svc_workers)
            .with_max_batch(4)
            .with_max_wait(std::time::Duration::from_micros(200)),
    };
    let (svc_on, svc_off, svc_ovh) = obs_ab(rounds, || {
        let t = std::time::Instant::now();
        let _ = run_service_load(&svc_load());
        t.elapsed().as_secs_f64()
    });
    cases.push(ObsCase {
        name: "service",
        log2n: svc_log2n,
        on_secs: svc_on,
        off_secs: svc_off,
        overhead: svc_ovh,
    });

    ftfft::obs::set_enabled(prior);
    cases
}

/// The multi-tenant service workload row: configuration + the
/// [`ServiceLoadReport`] it produced.
struct ServiceCase {
    tenants: usize,
    requests_per_tenant: usize,
    workers: usize,
    max_batch: usize,
    report: ServiceLoadReport,
}

/// Drives the mixed service workload. Worker count follows the machine
/// (the batching/caching logic is what's under test, and a 1-worker
/// single-CPU run still exercises all of it); the hit-rate gate is a
/// count ratio, so the same bound applies in smoke and full mode.
fn run_service_case(smoke: bool, threads: usize) -> ServiceCase {
    let (tenants, requests_per_tenant, log2ns) =
        if smoke { (4, 40, vec![8, 10]) } else { (8, 60, vec![10, 12, 14]) };
    let workers = threads.clamp(1, 4);
    let max_batch = 4;
    let report = run_service_load(&ServiceLoad {
        tenants,
        requests_per_tenant,
        log2ns,
        schemes: vec![Scheme::Plain, Scheme::OnlineCompOpt, Scheme::OnlineMemOpt],
        rate: None,
        service: ServiceConfig::default()
            .with_workers(workers)
            .with_max_batch(max_batch)
            .with_max_wait(std::time::Duration::from_micros(200)),
    });
    ServiceCase { tenants, requests_per_tenant, workers, max_batch, report }
}

/// Formats an optional seconds/ratio column for the JSON artifact:
/// `"skipped"` when there was nothing to measure.
fn json_opt(v: Option<f64>, decimals: usize) -> String {
    match v {
        Some(x) => format!("{x:.decimals$}"),
        None => "\"skipped\"".to_string(),
    }
}

/// Same for the human tables.
fn table_opt(v: Option<f64>, decimals: usize) -> String {
    match v {
        Some(x) => format!("{x:.decimals$}"),
        None => "skipped".to_string(),
    }
}

/// Batch items used by the thread matrix.
const BATCH: usize = 4;

/// Frames per timed stream in the streaming matrix.
const STREAM_FRAMES: usize = 24;

/// Frames per timed run in the pipeline matrix.
const PIPE_FRAMES: usize = 24;

/// The pipeline is a frame path (telemetry frames, not big transforms);
/// rows above this size would only time memory traffic.
const PIPE_MAX_LOG2N: u32 = 14;

/// Batch sizes the batch-checksum matrix sweeps.
const BATCH_CHK_BS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Like the pipeline, batch protection is a many-small-transforms path;
/// rows above this size would only time memory traffic.
const BATCH_CHK_MAX_LOG2N: u32 = 14;

/// Paired rounds per batch-checksum cell for the batch vs Opt-Online(c)
/// ratio ([`ftfft_bench::paired_ab`]): 15 in optimized builds, where the
/// ratio is gated; debug builds only report it and keep 5.
const BATCH_AB_ROUNDS: usize = if cfg!(debug_assertions) { 5 } else { 15 };

/// One batch-checksum cell: `b` same-size transforms run as one
/// protected batch vs `b` per-transform Opt-Online(c) executes vs `b`
/// unprotected plain executes. All three columns share one process and
/// one seeded source, so the gated ratio is insensitive to runner speed.
struct BatchChkCase {
    log2n: u32,
    b: usize,
    plain_secs: f64,
    optonline_secs: f64,
    batch_secs: f64,
    /// Median of the paired per-round `t(batch)/t(b × Opt-Online(c))`
    /// ratios — the gated number.
    vs_optonline: f64,
}

impl BatchChkCase {
    /// `t(batch) / t(b × plain)` — what the paper reports as overhead.
    fn batch_overhead(&self) -> f64 {
        self.batch_secs / self.plain_secs
    }

    /// `t(b × Opt-Online(c)) / t(b × plain)` — the per-transform
    /// protection cost the batch scheme must undercut.
    fn optonline_overhead(&self) -> f64 {
        self.optonline_secs / self.plain_secs
    }
}

/// Times one batch-checksum cell. The gated batch vs Opt-Online(c) ratio
/// is a paired interleaved A/B ([`paired_ab`]: median of per-round
/// ratios, order alternating), so a runner-load spike shifts both halves
/// of a round instead of one column's minimum; the plain column (report
/// only) is the minimum over its own rounds after a warm-up. Every timed
/// run restores the same seeded source outside the timed window and
/// drives the batch through [`FtFftPlan::execute_batch`], so the only
/// timed variable is the scheme.
fn time_batch_chk(log2n: u32, b: usize, runs: usize) -> BatchChkCase {
    let n = 1usize << log2n;
    let src = uniform_signal(n * b, 42);
    let mut xs = src.clone();
    let mut outs = vec![Complex64::ZERO; n * b];
    let schemes = [Scheme::Plain, Scheme::OnlineCompOpt, Scheme::BatchChecksum];
    let plans: Vec<FtFftPlan> = schemes
        .iter()
        .map(|&s| FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(s).build()))
        .collect();
    let mut wss: Vec<_> = plans.iter().map(|p| p.make_workspace()).collect();
    let mut run = |k: usize| {
        xs.copy_from_slice(&src);
        let t0 = std::time::Instant::now();
        let rep = plans[k].execute_batch(&mut xs, &mut outs, &NoFaults, &mut wss[k]);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(rep.uncorrectable, 0);
        dt
    };
    let (batch_secs, optonline_secs, vs_optonline) =
        paired_ab(BATCH_AB_ROUNDS.max(runs), |batch| run(if batch { 2 } else { 1 }));
    let plain_secs = (0..runs.max(4) + 1).map(|_| run(0)).skip(1).fold(f64::INFINITY, f64::min);
    BatchChkCase { log2n, b, plain_secs, optonline_secs, batch_secs, vs_optonline }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let smoke = args.has_flag("smoke");
    let default_sizes = if smoke { vec![10, 12] } else { vec![10, 12, 14, 16, 18, 20] };
    let log2ns: Vec<u32> = args.get_list("log2ns").unwrap_or(default_sizes);
    let runs: usize = args.get("runs").unwrap_or(3);
    let out_path: String = args.get("out").unwrap_or_else(|| "BENCH_PR.json".to_string());
    let baseline_path: String = args
        .get("baseline")
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json").to_string());
    let gate = !args.has_flag("no-gate");

    let mut cases = Vec::new();
    for kernel in Pow2Kernel::ALL {
        for &log2n in &log2ns {
            cases.push(time_case(kernel, log2n, runs));
        }
    }

    let ccg: Vec<CcgCase> = log2ns.iter().map(|&l| time_ccg(l, runs)).collect();
    let threads_n = resolve_threads(None);
    let single_cpu =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) == 1 || threads_n <= 1;
    if single_cpu {
        println!(
            "perfgate: no parallelism to measure (threads={threads_n}); \
             threads=N columns will be marked \"skipped\""
        );
    }
    let batches: Vec<BatchCase> =
        log2ns.iter().map(|&l| time_batch(l, threads_n, single_cpu, runs)).collect();
    let streams: Vec<StreamCase> =
        log2ns.iter().map(|&l| time_stream(l, threads_n, single_cpu, runs)).collect();
    let pars: Vec<ParCase> =
        log2ns.iter().map(|&l| time_parallel_dit(l, threads_n, single_cpu, runs)).collect();
    let service = run_service_case(smoke, threads_n);
    let pipes: Vec<PipelineCase> = log2ns
        .iter()
        .filter(|&&l| l <= PIPE_MAX_LOG2N)
        .map(|&l| time_pipeline_case(l, runs))
        .collect();
    let obs = time_obs_cases(runs);
    let batch_chk: Vec<BatchChkCase> = log2ns
        .iter()
        .filter(|&&l| l <= BATCH_CHK_MAX_LOG2N)
        .flat_map(|&l| BATCH_CHK_BS.iter().map(move |&b| (l, b)))
        .map(|(l, b)| time_batch_chk(l, b, runs))
        .collect();

    print_tables(
        &cases, &ccg, &batches, &streams, &pars, &service, &pipes, &obs, &batch_chk, runs, smoke,
    );

    let verdict = if gate {
        Some(check_gate(
            &cases,
            &ccg,
            &streams,
            &service,
            &pipes,
            &obs,
            &batch_chk,
            smoke,
            &baseline_path,
        ))
    } else {
        None
    };
    let json = render_json(
        &cases,
        &ccg,
        &batches,
        &streams,
        &pars,
        &service,
        &pipes,
        &obs,
        &batch_chk,
        threads_n,
        single_cpu,
        runs,
        smoke,
        verdict.as_ref(),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwrote {out_path} ({} cases)", cases.len());

    match verdict {
        Some(v) if !v.pass => {
            for line in &v.failures {
                eprintln!("PERF GATE FAILED: {line}");
            }
            ExitCode::FAILURE
        }
        Some(v) => {
            println!(
                "perf gate OK: worst Opt-Online overhead {:.2}x ({}) within limit {:.2}x{}",
                v.worst,
                v.worst_case,
                v.limit,
                v.ccg_note.as_deref().unwrap_or("")
            );
            ExitCode::SUCCESS
        }
        None => {
            println!("perf gate skipped (--no-gate)");
            ExitCode::SUCCESS
        }
    }
}

/// Times one (kernel, size) cell. The bare kernel is timed through the
/// spec API in each layout it has an engine for (the layout A/B the SoA
/// gates ride on); the scheme rows pin the same kernel onto every
/// power-of-two sub-FFT via `PlanSpec::builder(..).kernel(..)` and leave
/// the layout to the planner — exactly the configuration users get.
fn time_case(kernel: Pow2Kernel, log2n: u32, runs: usize) -> Case {
    let n = 1usize << log2n;

    // Strategy pinned serial: this is a kernel/layout A/B, and at the
    // full-mode sizes the Auto heuristic would otherwise hand 2^18+ to the
    // parallel DIT (which ignores both knobs).
    let spec =
        FftSpec::new(n, Direction::Forward).with_kernel(kernel).with_strategy(Strategy::Serial);
    let time_plan = |plan: &FftPlan| {
        let x = uniform_signal(n, 42);
        let mut dst = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        median_secs(runs, || plan.execute(&x, &mut dst, &mut scratch))
    };
    let layout = FftPlan::from_spec(&spec).layout();
    let plain_kernel_aos_secs = time_plan(&FftPlan::from_spec(&spec.with_layout(Layout::Aos)));
    let soa = FftPlan::from_spec(&spec.with_layout(Layout::Soa));
    let plain_kernel_soa_secs = (soa.layout() == Layout::Soa).then(|| time_plan(&soa));
    let plain_kernel_secs = match layout {
        Layout::Aos => plain_kernel_aos_secs,
        Layout::Soa => plain_kernel_soa_secs.expect("the planner picked SoA, so the engine exists"),
    };

    // The spec template propagates the pinned kernel into every
    // power-of-two sub-FFT the scheme plans.
    let base = PlanSpec::builder(n).kernel(kernel);
    let plain_scheme_secs = time_scheme_spec(&base.scheme(Scheme::Plain).build(), runs);
    let opt_online_secs = time_scheme_spec(&base.scheme(Scheme::OnlineMemOpt).build(), runs);

    Case {
        kernel,
        log2n,
        layout,
        plain_kernel_secs,
        plain_kernel_aos_secs,
        plain_kernel_soa_secs,
        plain_scheme_secs,
        opt_online_secs,
    }
}

/// Times the CCG kernels over one part-1's worth of gathers: `k` columns
/// of `m = n/k` stride-`k` elements each (the balanced split the plans
/// use), checksum per column — the exact traffic pattern of the hot path.
fn time_ccg(log2n: u32, runs: usize) -> CcgCase {
    let n = 1usize << log2n;
    let k = 1usize << (log2n / 2);
    let m = n / k;
    let src = uniform_signal(n, 42);
    let ra = input_checksum_vector(m, Direction::Forward);
    let mut buf = vec![Complex64::ZERO; m];
    let mut sink = Complex64::ZERO;

    let fused_secs = median_secs(runs, || {
        for n1 in 0..k {
            sink += gather_sum1(&src, n1, k, &ra, &mut buf);
        }
    });
    let scalar_secs = median_secs(runs, || {
        for n1 in 0..k {
            gather(&src, n1, k, &mut buf);
            sink += combined_sum1_ref(&buf, &ra);
        }
    });
    assert!(sink.is_finite());
    CcgCase { log2n, fused_secs, scalar_secs }
}

/// Times the pooled batched executor at 1 vs `threads` workers.
fn time_batch(log2n: u32, threads: usize, single_cpu: bool, runs: usize) -> BatchCase {
    let n = 1usize << log2n;
    let t1_secs = time_pooled_batch(n, 1, BATCH, runs);
    let tn_secs = (!single_cpu).then(|| time_pooled_batch(n, threads, BATCH, runs));
    BatchCase { log2n, threads, t1_secs, tn_secs }
}

/// Times the streaming STFT engine (`n`-sample frames, half-frame hop):
/// plain vs Opt-Online(m) at 1 worker vs `threads`.
fn time_stream(log2n: u32, threads: usize, single_cpu: bool, runs: usize) -> StreamCase {
    let n = 1usize << log2n;
    let plain_t1_secs = time_streaming(n, Scheme::Plain, 1, STREAM_FRAMES, runs);
    let opt_t1_secs = time_streaming(n, Scheme::OnlineMemOpt, 1, STREAM_FRAMES, runs);
    let plain_tn_secs =
        (!single_cpu).then(|| time_streaming(n, Scheme::Plain, threads, STREAM_FRAMES, runs));
    let opt_tn_secs = (!single_cpu)
        .then(|| time_streaming(n, Scheme::OnlineMemOpt, threads, STREAM_FRAMES, runs));
    StreamCase {
        log2n,
        frames: STREAM_FRAMES,
        threads,
        plain_t1_secs,
        opt_t1_secs,
        plain_tn_secs,
        opt_tn_secs,
    }
}

/// Times one serial-vs-parallel single-transform row: the serial radix-2
/// AoS plan against the two-halves parallel DIT at `threads` workers
/// (bitwise-identical outputs — this is a pure schedule A/B).
fn time_parallel_dit(log2n: u32, threads: usize, single_cpu: bool, runs: usize) -> ParCase {
    let n = 1usize << log2n;
    let x = uniform_signal(n, 42);
    let mut dst = vec![Complex64::ZERO; n];

    let serial_plan = FftPlan::from_spec(
        &FftSpec::new(n, Direction::Forward)
            .with_kernel(Pow2Kernel::Radix2)
            .with_layout(Layout::Aos)
            .with_strategy(Strategy::Serial),
    );
    let mut scratch = vec![Complex64::ZERO; serial_plan.scratch_len()];
    let serial_secs = median_secs(runs, || serial_plan.execute(&x, &mut dst, &mut scratch));

    let parallel_secs = (!single_cpu).then(|| {
        let plan = FftPlan::from_spec(
            &FftSpec::new(n, Direction::Forward)
                .with_strategy(Strategy::Parallel)
                .with_threads(threads),
        );
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        median_secs(runs, || plan.execute(&x, &mut dst, &mut scratch))
    });

    let strategy = if Strategy::Auto.picks_parallel(n, threads) { "parallel" } else { "serial" };
    ParCase { log2n, threads, strategy, serial_secs, parallel_secs }
}

/// Times one pipeline row. The CRC-on/CRC-off pair is one built pipeline
/// per side, timed as a paired interleaved A/B ([`paired_ab`]) so the
/// gated ratio is the median of per-round ratios, insensitive to runner
/// speed and drift. The campaign column is a plain median (reported, not
/// gated).
fn time_pipeline_case(log2n: u32, runs: usize) -> PipelineCase {
    let n = 1usize << log2n;
    let mut on = PipelineRun::new(n, PIPE_FRAMES, true, false);
    let mut off = PipelineRun::new(n, PIPE_FRAMES, false, false);
    let (crc_secs, nocrc_secs, crc_ratio) =
        paired_ab(OBS_AB_ROUNDS.max(runs), |crc| if crc { on.run() } else { off.run() });
    let campaign_secs = time_pipeline(n, PIPE_FRAMES, true, true, runs);
    PipelineCase { log2n, frames: PIPE_FRAMES, nocrc_secs, crc_secs, crc_ratio, campaign_secs }
}

#[allow(clippy::too_many_arguments)]
fn print_tables(
    cases: &[Case],
    ccg: &[CcgCase],
    batches: &[BatchCase],
    streams: &[StreamCase],
    pars: &[ParCase],
    service: &ServiceCase,
    pipes: &[PipelineCase],
    obs: &[ObsCase],
    batch_chk: &[BatchChkCase],
    runs: usize,
    smoke: bool,
) {
    println!(
        "perfgate: kernel matrix, median of {runs} run(s){}, simd={}",
        if smoke { " [smoke]" } else { "" },
        simd_level().name()
    );
    println!(
        "{:<13}{:>7}{:>7}{:>12}{:>9}{:>8}{:>12}{:>14}{:>10}",
        "kernel",
        "n",
        "layout",
        "kernel(s)",
        "GFLOP/s",
        "soa+",
        "plain(s)",
        "opt-online(s)",
        "overhead"
    );
    for c in cases {
        println!(
            "{:<13}{:>7}{:>7}{:>12.6}{:>9.3}{:>8}{:>12.6}{:>14.6}{:>9.2}x",
            c.kernel.name(),
            format!("2^{}", c.log2n),
            c.layout.name(),
            c.plain_kernel_secs,
            gflops(1 << c.log2n, c.plain_kernel_secs),
            table_opt(c.soa_speedup(), 2),
            c.plain_scheme_secs,
            c.opt_online_secs,
            c.overhead_ratio()
        );
    }
    println!("\nccg kernels (fused SIMD gather+checksum vs PR-2 scalar two-pass):");
    println!("{:>7}{:>14}{:>14}{:>10}", "n", "fused(s)", "scalar(s)", "speedup");
    for c in ccg {
        println!(
            "{:>7}{:>14.6}{:>14.6}{:>9.2}x",
            format!("2^{}", c.log2n),
            c.fused_secs,
            c.scalar_secs,
            c.speedup()
        );
    }
    println!("\npooled batch ({BATCH}x Opt-Online(m)), threads=1 vs threads=N:");
    println!("{:>7}{:>9}{:>14}{:>14}{:>10}", "n", "threads", "t1(s)", "tN(s)", "speedup");
    for b in batches {
        println!(
            "{:>7}{:>9}{:>14.6}{:>14}{:>10}",
            format!("2^{}", b.log2n),
            b.threads,
            b.t1_secs,
            table_opt(b.tn_secs, 6),
            table_opt(b.speedup(), 2),
        );
    }
    println!(
        "\nstreaming STFT ({STREAM_FRAMES} frames, hop n/2, hann), frames/sec, \
         plain vs Opt-Online(m), threads 1 vs N:"
    );
    println!(
        "{:>7}{:>9}{:>13}{:>13}{:>13}{:>13}{:>10}",
        "n", "threads", "plain@1", "opt@1", "plain@N", "opt@N", "overhead"
    );
    for s in streams {
        println!(
            "{:>7}{:>9}{:>13.1}{:>13.1}{:>13}{:>13}{:>9.2}x",
            format!("2^{}", s.log2n),
            s.threads,
            s.fps(s.plain_t1_secs),
            s.fps(s.opt_t1_secs),
            table_opt(s.plain_tn_secs.map(|t| s.fps(t)), 1),
            table_opt(s.opt_tn_secs.map(|t| s.fps(t)), 1),
            s.overhead_t1()
        );
    }
    println!(
        "\nparallel strategy (two-halves DIT vs serial radix-2 AoS, one transform, \
         bitwise-identical outputs):"
    );
    println!(
        "{:>7}{:>9}{:>10}{:>14}{:>14}{:>10}",
        "n", "threads", "auto", "serial(s)", "parallel(s)", "speedup"
    );
    for p in pars {
        println!(
            "{:>7}{:>9}{:>10}{:>14.6}{:>14}{:>10}",
            format!("2^{}", p.log2n),
            p.threads,
            p.strategy,
            p.serial_secs,
            table_opt(p.parallel_secs, 6),
            table_opt(p.speedup(), 2),
        );
    }
    let st = &service.report.stats;
    println!(
        "\nservice workload ({} tenants x {} reqs, {} distinct specs, {} workers, \
         max_batch {}):",
        service.tenants,
        service.requests_per_tenant,
        service.report.distinct_specs,
        service.workers,
        service.max_batch
    );
    println!(
        "  {} requests in {:.3}s ({:.0} req/s), hit rate {:.4}, mean batch {:.2} \
         (max {}), p50/p99/p999 {:.0}/{:.0}/{:.0} us",
        st.requests,
        service.report.elapsed,
        service.report.throughput,
        st.hit_rate,
        st.mean_batch,
        st.max_batch,
        st.latency.p50.as_secs_f64() * 1e6,
        st.latency.p99.as_secs_f64() * 1e6,
        st.latency.p999.as_secs_f64() * 1e6,
    );
    println!(
        "\nprotected pipeline ({PIPE_FRAMES} frames, Opt-Online(m) STFT stage), frames/sec, \
         CRC guard off vs on vs on+campaign (crc ovh: median of {OBS_AB_ROUNDS}+ paired rounds):"
    );
    println!(
        "{:>7}{:>13}{:>13}{:>13}{:>10}{:>11}",
        "n", "nocrc", "crc", "campaign", "crc ovh", "camp ovh"
    );
    for p in pipes {
        println!(
            "{:>7}{:>13.1}{:>13.1}{:>13.1}{:>9.2}x{:>10.2}x",
            format!("2^{}", p.log2n),
            p.fps(p.nocrc_secs),
            p.fps(p.crc_secs),
            p.fps(p.campaign_secs),
            p.crc_overhead(),
            p.campaign_overhead()
        );
    }
    println!(
        "\nobservability overhead (recording on vs kill-switch off, interleaved A/B, \
         min of {OBS_AB_ROUNDS}+ rounds per side):"
    );
    println!("{:<10}{:>7}{:>13}{:>13}{:>10}", "workload", "n", "on(s)", "off(s)", "overhead");
    for c in obs {
        println!(
            "{:<10}{:>7}{:>13.6}{:>13.6}{:>9.3}x",
            c.name,
            format!("2^{}", c.log2n),
            c.on_secs,
            c.off_secs,
            c.overhead
        );
    }
    println!(
        "\nbatch checksum (B transforms + 1 detection checksum FFT, vs B x \
         Opt-Online(c) and B x plain; b/opt: median of {BATCH_AB_ROUNDS}+ paired rounds):"
    );
    println!(
        "{:>7}{:>5}{:>13}{:>13}{:>13}{:>10}{:>11}{:>9}",
        "n", "B", "plain(s)", "opt(s)", "batch(s)", "opt ovh", "batch ovh", "b/opt"
    );
    for c in batch_chk {
        println!(
            "{:>7}{:>5}{:>13.6}{:>13.6}{:>13.6}{:>9.2}x{:>10.2}x{:>9.3}",
            format!("2^{}", c.log2n),
            c.b,
            c.plain_secs,
            c.optonline_secs,
            c.batch_secs,
            c.optonline_overhead(),
            c.batch_overhead(),
            c.vs_optonline
        );
    }
}

struct GateVerdict {
    baseline: f64,
    tolerance: f64,
    limit: f64,
    worst: f64,
    worst_case: String,
    pass: bool,
    failures: Vec<String>,
    ccg_note: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn check_gate(
    cases: &[Case],
    ccg: &[CcgCase],
    streams: &[StreamCase],
    service: &ServiceCase,
    pipes: &[PipelineCase],
    obs: &[ObsCase],
    batch_chk: &[BatchChkCase],
    smoke: bool,
    baseline_path: &str,
) -> GateVerdict {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let spec = BaselineSpec::parse(&text)
        .unwrap_or_else(|| panic!("malformed or incomplete baseline {baseline_path}"));
    let baseline = spec.overhead_optonline;
    let tolerance = spec.tolerance;
    let limit = baseline * (1.0 + tolerance);
    let worst = cases
        .iter()
        .max_by(|a, b| a.overhead_ratio().total_cmp(&b.overhead_ratio()))
        .expect("no cases timed");

    let mut failures = Vec::new();
    if worst.overhead_ratio() > limit {
        failures.push(format!(
            "worst Opt-Online overhead {:.2}x ({}@2^{}) exceeds limit {:.2}x (baseline {:.2}x, \
             tolerance {:.0}%)",
            worst.overhead_ratio(),
            worst.kernel.name(),
            worst.log2n,
            limit,
            baseline,
            tolerance * 100.0
        ));
    }
    // CCG kernel gate: full mode only, sizes ≥ 2^16 (smoke sizes fit in
    // L1/L2 where the two-pass penalty is noise-sized).
    let mut ccg_note = None;
    if !smoke {
        let min_speedup = spec.min_ccg_speedup;
        for c in ccg.iter().filter(|c| c.log2n >= 16) {
            if c.speedup() < min_speedup {
                failures.push(format!(
                    "fused CCG speedup {:.2}x at 2^{} below required {min_speedup:.2}x",
                    c.speedup(),
                    c.log2n
                ));
            }
        }
        if failures.is_empty() {
            ccg_note = Some(format!("; ccg speedups ≥ {min_speedup:.2}x at 2^16+"));
        }
        // SoA engine gate: at every size ≥ 2^16 the best kernel's SoA/AoS
        // speedup must clear the bar. Gating the best (not each) kernel is
        // deliberate: the structural failure this guards against — plane
        // kernels silently scalar, stage packs mis-built, COBRA reversal
        // regressed — flattens *every* kernel's ratio to ~1.0 at once.
        let min_soa = spec.min_soa_speedup;
        let mut sizes: Vec<u32> = cases.iter().map(|c| c.log2n).filter(|&l| l >= 16).collect();
        sizes.sort_unstable();
        sizes.dedup();
        for l in sizes {
            let best = cases
                .iter()
                .filter(|c| c.log2n == l)
                .filter_map(Case::soa_speedup)
                .fold(f64::NEG_INFINITY, f64::max);
            if best < min_soa {
                failures.push(format!(
                    "best SoA speedup {best:.2}x at 2^{l} below required {min_soa:.2}x"
                ));
            }
        }
        // Sibling-cell gate: the layout the planner picked must not lose
        // to the other layout of the same (kernel, size) cell by more than
        // the allowed fraction. Sizes ≥ 2^16 only and a generous bound —
        // both siblings are timed in the same process so runner speed
        // cancels, but individual cells still carry noise.
        let max_loss = spec.max_sibling_loss;
        for c in cases.iter().filter(|c| c.log2n >= 16) {
            let Some(soa_secs) = c.plain_kernel_soa_secs else { continue };
            let sibling = match c.layout {
                Layout::Aos => soa_secs,
                Layout::Soa => c.plain_kernel_aos_secs,
            };
            if c.plain_kernel_secs > sibling * (1.0 + max_loss) {
                failures.push(format!(
                    "planner layout {} for {}@2^{} is {:.0}% slower than its sibling \
                     (allowed {:.0}%)",
                    c.layout.name(),
                    c.kernel.name(),
                    c.log2n,
                    (c.plain_kernel_secs / sibling - 1.0) * 100.0,
                    max_loss * 100.0
                ));
            }
        }
    }
    // Streaming gate: the 1-worker Opt-Online(m) frames/sec overhead over
    // plain must stay within the baseline's `overhead_stream` bound (the
    // same tolerance; ratios, so runner speed cancels out).
    let stream_limit = spec.overhead_stream * (1.0 + tolerance);
    for s in streams {
        if s.overhead_t1() > stream_limit {
            failures.push(format!(
                "streaming Opt-Online overhead {:.2}x at 2^{} exceeds limit {:.2}x \
                 (baseline {:.2}x, tolerance {:.0}%)",
                s.overhead_t1(),
                s.log2n,
                stream_limit,
                spec.overhead_stream,
                tolerance * 100.0
            ));
        }
    }
    // Service cache gate: a count ratio (hits / lookups), so it applies in
    // every mode — a hit rate below the bound means the canonical-spec
    // keying broke (same-spec tenants no longer share plans).
    let (hit_rate, min_hit_rate) = (service.report.stats.hit_rate, spec.min_cache_hit_rate);
    if hit_rate < min_hit_rate {
        failures.push(format!(
            "service plan-cache hit rate {hit_rate:.4} below required {min_hit_rate:.2} \
             ({} requests, {} distinct specs)",
            service.report.stats.requests, service.report.distinct_specs
        ));
    }
    // Pipeline CRC gate: the cold-buffer guard must stay cheap relative
    // to the transform work it protects. A paired same-process ratio, so
    // it applies in every mode; blowing the bound means the guard started
    // re-hashing hot-path data (or the ring stopped amortizing) rather
    // than runner noise. Optimized builds only: debug slows the
    // byte-level CRC far more than the f64 transform, so an unoptimized
    // run would fail on profile, not regression.
    let pipe_gate = if cfg!(debug_assertions) { None } else { Some(spec.overhead_pipeline_crc) };
    if let Some(pipe_baseline) = pipe_gate {
        let pipe_limit = pipe_baseline * (1.0 + tolerance);
        for p in pipes {
            if p.crc_overhead() > pipe_limit {
                failures.push(format!(
                    "pipeline CRC overhead {:.2}x at 2^{} exceeds limit {:.2}x \
                     (baseline {:.2}x, tolerance {:.0}%)",
                    p.crc_overhead(),
                    p.log2n,
                    pipe_limit,
                    pipe_baseline,
                    tolerance * 100.0
                ));
            }
        }
    }
    // Observability gate: leaving instrumentation enabled must cost next
    // to nothing — the whole design (relaxed atomic adds, early-out
    // timers) exists for that bound. No tolerance multiplier: both sides
    // of each ratio time in one process, and the 1.05× budget *is* the
    // contract. Optimized builds only, like the pipeline gate: debug
    // inflates the branch/atomic cost relative to the transform work.
    let obs_gate = if cfg!(debug_assertions) { None } else { Some(spec.overhead_obs) };
    if let Some(max_ovh) = obs_gate {
        for c in obs {
            if c.overhead > max_ovh {
                failures.push(format!(
                    "observability overhead {:.3}x on the {} workload at 2^{} exceeds \
                     limit {max_ovh:.2}x",
                    c.overhead, c.name, c.log2n
                ));
            }
        }
    }
    // Batch-checksum gate: at B ≥ 8 the batch scheme must run the whole
    // batch strictly faster than B per-transform Opt-Online(c) executes —
    // amortizing the checksum verification over the batch is the scheme's
    // entire value proposition — and within the baseline's ratio bound.
    // Optimized builds only, like the pipeline gate: both sides share one
    // process so runner speed cancels, but the debug profile distorts the
    // checksum-combine / transform balance. No tolerance multiplier: the
    // bound carries its own slack and must stay below 1.0 for "strictly
    // cheaper" to mean anything.
    let batch_gate = if cfg!(debug_assertions) { None } else { Some(spec.max_batch_vs_optonline) };
    if let Some(max_ratio) = batch_gate {
        for c in batch_chk.iter().filter(|c| c.b >= 8) {
            if c.vs_optonline >= 1.0 {
                failures.push(format!(
                    "batch-checksum batch at B={} 2^{} costs {:.3}x of per-transform \
                     Opt-Online — must be strictly below 1.0",
                    c.b, c.log2n, c.vs_optonline
                ));
            } else if c.vs_optonline > max_ratio {
                failures.push(format!(
                    "batch-checksum/Opt-Online ratio {:.3} at B={} 2^{} exceeds \
                     limit {max_ratio:.2}",
                    c.vs_optonline, c.b, c.log2n
                ));
            }
        }
    }
    GateVerdict {
        baseline,
        tolerance,
        limit,
        worst: worst.overhead_ratio(),
        worst_case: format!("{}@2^{}", worst.kernel.name(), worst.log2n),
        pass: failures.is_empty(),
        failures,
        ccg_note,
    }
}

/// Renders `BENCH_PR.json`. Schema v10: v9 minus the kernel matrix's
/// fused-vs-unfused Opt-Online columns, with
/// `plain_kernel_soa_secs`/`soa_speedup` `"skipped"` for a kernel with no
/// SoA engine (split-radix). (v9 added the `batch_checksum` section from
/// [`time_batch_chk`]; v8 the `observability` section from
/// [`time_obs_cases`].)
/// `"release"` for optimized builds, `"debug"` otherwise — a record's
/// timings only compare against records of the same profile.
fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The source revision the binary was run from (`git describe --always
/// --dirty`, so uncommitted edits show as `-dirty`), or `"unknown"`
/// outside a git checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty() && v.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'))
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPUs available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    cases: &[Case],
    ccg: &[CcgCase],
    batches: &[BatchCase],
    streams: &[StreamCase],
    pars: &[ParCase],
    service: &ServiceCase,
    pipes: &[PipelineCase],
    obs: &[ObsCase],
    batch_chk: &[BatchChkCase],
    threads: usize,
    single_cpu: bool,
    runs: usize,
    smoke: bool,
    verdict: Option<&GateVerdict>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema_version\": 10,");
    let _ = writeln!(s, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    let _ = writeln!(s, "  \"profile\": \"{}\",", build_profile());
    let _ = writeln!(s, "  \"git_rev\": \"{}\",", git_revision());
    let _ = writeln!(s, "  \"nproc\": {},", nproc());
    let _ = writeln!(s, "  \"runs\": {runs},");
    let _ = writeln!(s, "  \"simd\": \"{}\",", simd_level().name());
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(s, "  \"single_cpu\": {single_cpu},");
    let _ = writeln!(s, "  \"flop_convention\": \"5 n log2 n\",");
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let n = 1usize << c.log2n;
        s.push_str("    {");
        let _ = write!(
            s,
            "\"kernel\": \"{}\", \"log2n\": {}, \"layout\": \"{}\", \
             \"plain_kernel_secs\": {:.9}, \"plain_kernel_gflops\": {:.6}, \
             \"plain_kernel_aos_secs\": {:.9}, \"plain_kernel_soa_secs\": {}, \
             \"soa_speedup\": {}, \
             \"plain_scheme_secs\": {:.9}, \"opt_online_secs\": {:.9}, \
             \"overhead_ratio\": {:.6}",
            c.kernel.name(),
            c.log2n,
            c.layout.name(),
            c.plain_kernel_secs,
            gflops(n, c.plain_kernel_secs),
            c.plain_kernel_aos_secs,
            json_opt(c.plain_kernel_soa_secs, 9),
            json_opt(c.soa_speedup(), 6),
            c.plain_scheme_secs,
            c.opt_online_secs,
            c.overhead_ratio()
        );
        s.push_str(if i + 1 < cases.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"ccg_kernels\": [\n");
    for (i, c) in ccg.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(
            s,
            "\"log2n\": {}, \"fused_secs\": {:.9}, \"scalar_secs\": {:.9}, \"speedup\": {:.6}",
            c.log2n,
            c.fused_secs,
            c.scalar_secs,
            c.speedup()
        );
        s.push_str(if i + 1 < ccg.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"pooled_batch\": [\n");
    for (i, b) in batches.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(
            s,
            "\"log2n\": {}, \"batch\": {BATCH}, \"threads\": {}, \"t1_secs\": {:.9}, \
             \"tn_secs\": {}, \"speedup\": {}",
            b.log2n,
            b.threads,
            b.t1_secs,
            json_opt(b.tn_secs, 9),
            json_opt(b.speedup(), 6)
        );
        s.push_str(if i + 1 < batches.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"streaming\": [\n");
    for (i, c) in streams.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(
            s,
            "\"log2n\": {}, \"frames\": {}, \"threads\": {}, \
             \"plain_fps_t1\": {:.3}, \"optonline_fps_t1\": {:.3}, \
             \"plain_fps_tn\": {}, \"optonline_fps_tn\": {}, \
             \"overhead_t1\": {:.6}",
            c.log2n,
            c.frames,
            c.threads,
            c.fps(c.plain_t1_secs),
            c.fps(c.opt_t1_secs),
            json_opt(c.plain_tn_secs.map(|t| c.fps(t)), 3),
            json_opt(c.opt_tn_secs.map(|t| c.fps(t)), 3),
            c.overhead_t1()
        );
        s.push_str(if i + 1 < streams.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"parallel_strategy\": [\n");
    for (i, p) in pars.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(
            s,
            "\"log2n\": {}, \"threads\": {}, \"auto_picks\": \"{}\", \
             \"serial_secs\": {:.9}, \"parallel_secs\": {}, \"speedup\": {}",
            p.log2n,
            p.threads,
            p.strategy,
            p.serial_secs,
            json_opt(p.parallel_secs, 9),
            json_opt(p.speedup(), 6)
        );
        s.push_str(if i + 1 < pars.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n");
    {
        let st = &service.report.stats;
        s.push_str("  \"service\": {");
        let _ = write!(
            s,
            "\"tenants\": {}, \"requests_per_tenant\": {}, \"workers\": {}, \
             \"max_batch\": {}, \"requests\": {}, \"distinct_specs\": {}, \
             \"elapsed_secs\": {:.6}, \"throughput_rps\": {:.3}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.6}, \
             \"batches\": {}, \"mean_batch\": {:.6}, \"max_batch_seen\": {}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"max_us\": {:.3}",
            service.tenants,
            service.requests_per_tenant,
            service.workers,
            service.max_batch,
            st.requests,
            service.report.distinct_specs,
            service.report.elapsed,
            service.report.throughput,
            st.cache_hits,
            st.cache_misses,
            st.hit_rate,
            st.batches,
            st.mean_batch,
            st.max_batch,
            st.latency.p50.as_secs_f64() * 1e6,
            st.latency.p99.as_secs_f64() * 1e6,
            st.latency.p999.as_secs_f64() * 1e6,
            st.latency.max.as_secs_f64() * 1e6,
        );
        s.push_str("},\n");
    }
    s.push_str("  \"pipeline\": [\n");
    for (i, p) in pipes.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(
            s,
            "\"log2n\": {}, \"frames\": {}, \"fps_nocrc\": {:.3}, \"fps_crc\": {:.3}, \
             \"fps_campaign\": {:.3}, \"crc_overhead\": {:.6}, \"campaign_overhead\": {:.6}",
            p.log2n,
            p.frames,
            p.fps(p.nocrc_secs),
            p.fps(p.crc_secs),
            p.fps(p.campaign_secs),
            p.crc_overhead(),
            p.campaign_overhead()
        );
        s.push_str(if i + 1 < pipes.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"observability\": [\n");
    for (i, c) in obs.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(
            s,
            "\"workload\": \"{}\", \"log2n\": {}, \"on_secs\": {:.9}, \"off_secs\": {:.9}, \
             \"overhead\": {:.6}",
            c.name, c.log2n, c.on_secs, c.off_secs, c.overhead
        );
        s.push_str(if i + 1 < obs.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"batch_checksum\": [\n");
    for (i, c) in batch_chk.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(
            s,
            "\"log2n\": {}, \"batch\": {}, \"plain_secs\": {:.9}, \
             \"optonline_secs\": {:.9}, \"batch_secs\": {:.9}, \
             \"optonline_overhead\": {:.6}, \"batch_overhead\": {:.6}, \
             \"batch_vs_optonline\": {:.6}",
            c.log2n,
            c.b,
            c.plain_secs,
            c.optonline_secs,
            c.batch_secs,
            c.optonline_overhead(),
            c.batch_overhead(),
            c.vs_optonline
        );
        s.push_str(if i + 1 < batch_chk.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ],\n");
    match verdict {
        Some(v) => {
            s.push_str("  \"gate\": {");
            let _ = write!(
                s,
                "\"baseline_overhead\": {:.6}, \"tolerance\": {:.6}, \"limit\": {:.6}, \
                 \"worst_overhead\": {:.6}, \"worst_case\": \"{}\", \"pass\": {}",
                v.baseline, v.tolerance, v.limit, v.worst, v.worst_case, v.pass
            );
            s.push_str("}\n");
        }
        None => s.push_str("  \"gate\": null\n"),
    }
    s.push_str("}\n");
    s
}
