//! Shared helpers for the evaluation harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's §9. Sizes default to laptop scale (the paper ran 2²⁵–2²⁸ on
//! TIANHE-2) and are overridable via CLI flags; results are printed as the
//! same rows/series the paper reports, for transcription into
//! `EXPERIMENTS.md`.

use std::time::{Duration, Instant};

use ftfft::prelude::*;

/// Simple `--flag value` CLI parser shared by the harness binaries.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Args::from_vec(std::env::args().skip(1).collect())
    }

    /// Builds from an explicit token list (testing and embedding).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// `true` when the bare flag `--name` is present (with or without a
    /// following value).
    pub fn has_flag(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// Positional argument `idx` after stripping `--flag value` pairs.
    ///
    /// A token opening with `--` consumes the following token as its value
    /// unless that token is itself a flag, so positionals may appear
    /// before, between, or after flag pairs. A trailing bare flag
    /// (`--smoke`) consumes nothing.
    pub fn positional(&self, idx: usize) -> Option<&str> {
        let mut remaining = idx;
        let mut i = 0;
        while i < self.raw.len() {
            if self.raw[i].starts_with("--") {
                // Skip the flag and its value (if any).
                i += if self.raw.get(i + 1).is_some_and(|v| !v.starts_with("--")) { 2 } else { 1 };
                continue;
            }
            if remaining == 0 {
                return Some(self.raw[i].as_str());
            }
            remaining -= 1;
            i += 1;
        }
        None
    }

    /// Value of `--name` parsed as `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// `--name v1,v2,v3` parsed as a list.
    pub fn get_list<T: std::str::FromStr>(&self, name: &str) -> Option<Vec<T>> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect())
    }
}

/// Median wall-clock seconds of `runs` executions of `f` (one warm-up).
pub fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: plans, caches, page faults
    let mut times: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Percentage overhead of `t` over baseline `t0`.
pub fn overhead_pct(t: f64, t0: f64) -> f64 {
    (t / t0 - 1.0) * 100.0
}

/// Nominal GFLOP/s of an `n`-point complex transform in `secs` seconds,
/// using the standard `5·n·log₂n` flop convention (what FFTW's own
/// benchmarks report), so rates are comparable across kernels even though
/// split-radix performs fewer actual operations.
pub fn gflops(n: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    5.0 * n as f64 * (n as f64).log2() / secs / 1e9
}

/// Times one sequential scheme at size `n` (median of `runs`).
pub fn time_scheme(n: usize, scheme: Scheme, runs: usize) -> f64 {
    time_scheme_spec(&PlanSpec::builder(n).scheme(scheme).build(), runs)
}

/// Times one sequential scheme from a full [`PlanSpec`] (median of
/// `runs`) — the builder-API hook the perf harness uses to pin kernels
/// and layouts per column without touching process environment.
pub fn time_scheme_spec(spec: &PlanSpec, runs: usize) -> f64 {
    let n = spec.n();
    let plan = FtFftPlan::from_spec(spec);
    let mut ws = plan.make_workspace();
    let x = uniform_signal(n, 42);
    let mut xin = x.clone();
    let mut out = vec![Complex64::ZERO; n];
    median_secs(runs, || {
        xin.copy_from_slice(&x);
        let rep = plan.execute(&mut xin, &mut out, &NoFaults, &mut ws);
        assert_eq!(rep.uncorrectable, 0);
    })
}

/// Times the pooled batched executor: `batch` back-to-back `n`-point
/// Opt-Online(m) transforms on `threads` workers (median of `runs`).
pub fn time_pooled_batch(n: usize, threads: usize, batch: usize, runs: usize) -> f64 {
    let cfg = FtConfig::new(Scheme::OnlineMemOpt).with_threads(threads);
    let pooled = PooledFtFft::new(FtFftPlan::new(n, Direction::Forward, cfg));
    let mut ws = pooled.make_batch_workspace();
    let src = uniform_signal(n * batch, 42);
    let mut xs = src.clone();
    let mut outs = vec![Complex64::ZERO; n * batch];
    median_secs(runs, || {
        xs.copy_from_slice(&src);
        let rep = pooled.execute_batch(&mut xs, &mut outs, &NoFaults, &mut ws);
        assert_eq!(rep.uncorrectable, 0);
    })
}

/// Times the streaming STFT engine: analysis of a `frames`-frame stream
/// (`n`-sample frames, half-frame hop, Hann window) under `scheme`, fanned
/// over `threads` workers by the [`FrameScheduler`] (median of `runs`).
/// The perf harness' frames/sec column divides `frames` by this.
pub fn time_streaming(n: usize, scheme: Scheme, threads: usize, frames: usize, runs: usize) -> f64 {
    let plan = StftPlan::new(n, n / 2, Window::Hann, FtConfig::new(scheme));
    let sched = FrameScheduler::new(Some(threads));
    let mut wss = sched.make_stft_workspaces(&plan);
    let len = plan.signal_len(frames);
    let x: Vec<f64> = uniform_signal(len, 42).iter().map(|z| z.re).collect();
    let mut spec = vec![Complex64::ZERO; frames * plan.bins()];
    median_secs(runs, || {
        let rep = sched.analyze(&plan, &x, &mut spec, &NoFaults, &mut wss);
        assert_eq!(rep.ft.uncorrectable, 0);
    })
}

/// Workload description for [`run_service_load`]: `tenants` closed-loop
/// clients each issuing `requests_per_tenant` requests, cycling through
/// the cartesian product of `log2ns` × `schemes`, optionally paced at
/// `rate` requests/sec per tenant (unpaced when `None`).
pub struct ServiceLoad {
    /// Concurrent tenant threads.
    pub tenants: usize,
    /// Requests each tenant issues.
    pub requests_per_tenant: usize,
    /// Transform sizes as log₂(n).
    pub log2ns: Vec<usize>,
    /// Protection schemes in the mix.
    pub schemes: Vec<Scheme>,
    /// Per-tenant request rate in requests/sec (`None` = as fast as the
    /// service completes them).
    pub rate: Option<f64>,
    /// Service tuning (workers, batch bound, coalescing deadline, shards).
    pub service: ServiceConfig,
}

/// What [`run_service_load`] hands back to loadgen and perfgate.
pub struct ServiceLoadReport {
    /// Final service-wide counters and latency percentiles.
    pub stats: ServiceStats,
    /// Distinct specs in the workload (the expected cache-miss count).
    pub distinct_specs: usize,
    /// Wall-clock seconds for the whole run.
    pub elapsed: f64,
    /// Completed requests per second.
    pub throughput: f64,
}

/// Drives a mixed multi-tenant workload through one [`FftService`] and
/// returns the aggregate statistics. Every tenant validates its own
/// responses (clean reports), so a run that returns also certifies the
/// service path end to end.
pub fn run_service_load(load: &ServiceLoad) -> ServiceLoadReport {
    let specs: Vec<PlanSpec> = load
        .log2ns
        .iter()
        .flat_map(|&l| {
            load.schemes.iter().map(move |&s| PlanSpec::builder(1 << l).scheme(s).build())
        })
        .collect();
    assert!(!specs.is_empty(), "empty workload");
    let svc = FftService::new(load.service);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..load.tenants {
            let (svc, specs) = (&svc, &specs);
            let (reqs, rate) = (load.requests_per_tenant, load.rate);
            scope.spawn(move || {
                let tenant = format!("tenant-{t}");
                let start = Instant::now();
                for r in 0..reqs {
                    if let Some(rate) = rate {
                        let due = start + Duration::from_secs_f64(r as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                    }
                    // Offset by tenant so concurrent tenants overlap on
                    // every spec rather than marching in lockstep.
                    let spec = &specs[(t + r) % specs.len()];
                    let input = uniform_signal(spec.n(), (t * 1009 + r) as u64);
                    let resp = svc.submit(&tenant, spec, input).wait();
                    assert_eq!(resp.report.uncorrectable, 0, "tenant {t} request {r}");
                    assert_eq!(resp.output.len(), spec.n());
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = svc.stats();
    ServiceLoadReport {
        throughput: if elapsed > 0.0 { stats.requests as f64 / elapsed } else { 0.0 },
        distinct_specs: specs.len(),
        stats,
        elapsed,
    }
}

/// The end-to-end protected telemetry pipeline, built once: `frames`
/// frames of `n` samples, CCSDS-style encoded, through sync → protected
/// STFT stage (Opt-Online(m)) → CRC-guarded cold ring → sink. `crc`
/// toggles the cold-buffer guard (the overhead the perf gate bounds);
/// `campaign` additionally runs a seeded compute-fault + cold-strike
/// campaign per run, pricing the recovery ladder itself. Injectors are
/// recreated per run so every run pays the same fault load.
pub struct PipelineRun {
    pipeline: ProtectedPipeline,
    stream: Vec<u8>,
    frames: usize,
    campaign: bool,
    run_seed: u64,
    sink: Vec<DeliveredFrame>,
}

impl PipelineRun {
    /// Encodes the stream and builds the pipeline (not timed).
    pub fn new(n: usize, frames: usize, crc: bool, campaign: bool) -> Self {
        let spec = PlanSpec::builder(n).scheme(Scheme::OnlineMemOpt).build();
        let signal: Vec<f64> = uniform_signal(n * frames, 42).iter().map(|z| z.re * 0.5).collect();
        PipelineRun {
            pipeline: PipelineBuilder::new(&spec)
                .queue_capacity(frames)
                .ring_capacity(frames)
                .crc(crc)
                .build(),
            stream: encode_stream(&signal, n),
            frames,
            campaign,
            run_seed: 0,
            sink: Vec::with_capacity(frames),
        }
    }

    /// Pushes the whole stream through once; returns the wall seconds.
    ///
    /// # Panics
    /// Panics if any frame is not delivered.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        self.sink.clear();
        if self.campaign {
            self.run_seed += 1;
            let comp = RandomInjector::new(
                42 ^ self.run_seed,
                0.05,
                RandomKind::BitFlipInRange { lo: 52, hi: 62 },
                8,
            )
            .with_site_filter(|site| matches!(site, Site::SubFftCompute { .. }));
            let mem = RandomByteInjector::new(99 ^ self.run_seed, 0.25, ByteFaultKind::BitFlip, 8)
                .with_region_filter(|r| matches!(r, ByteRegion::ColdSlot { .. }));
            self.pipeline.process(&self.stream, &comp, &mem, &mut self.sink);
        } else {
            self.pipeline.process(&self.stream, &NoFaults, &NoByteFaults, &mut self.sink);
        }
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(self.sink.len(), self.frames, "pipeline must deliver every frame");
        secs
    }
}

/// Median seconds of `runs` passes through one [`PipelineRun`] (see
/// [`median_secs`]).
pub fn time_pipeline(n: usize, frames: usize, crc: bool, campaign: bool, runs: usize) -> f64 {
    let mut run = PipelineRun::new(n, frames, crc, campaign);
    median_secs(runs, || {
        run.run();
    })
}

/// Paired, interleaved A/B timing: each of `rounds` rounds times side A
/// (`side(true)`) and side B (`side(false)`) back to back, alternating
/// which goes first, and yields one A/B ratio per round. Returns
/// `(a_min, b_min, median per-round A/B ratio)`; the median ratio is the
/// number to gate on.
///
/// The pairing is what makes the ratio trustworthy on a loaded box: a
/// single A-median vs B-median pair swings by tens of percent, but slow
/// drift hits both halves of a back-to-back pair equally, so each
/// round's ratio is unbiased, the order alternation cancels a fixed
/// warm-cache edge for whichever side runs second, and the median
/// discards the rounds a scheduler hiccup did hit. One untimed warm-up
/// per side runs first.
pub fn paired_ab(rounds: usize, mut side: impl FnMut(bool) -> f64) -> (f64, f64, f64) {
    side(true);
    side(false);
    let (mut a_min, mut b_min) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(rounds.max(1));
    for round in 0..rounds.max(1) {
        let (a, b) = if round % 2 == 0 {
            let a = side(true);
            (a, side(false))
        } else {
            let b = side(false);
            (side(true), b)
        };
        a_min = a_min.min(a);
        b_min = b_min.min(b);
        ratios.push(a / b);
    }
    ratios.sort_by(f64::total_cmp);
    (a_min, b_min, ratios[ratios.len() / 2])
}

/// Times one sequential scheme with a scripted fault set built per run.
pub fn time_scheme_with_faults(
    n: usize,
    scheme: Scheme,
    runs: usize,
    make_faults: impl Fn() -> Vec<ScriptedFault>,
) -> f64 {
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
    let mut ws = plan.make_workspace();
    let x = uniform_signal(n, 42);
    let mut xin = x.clone();
    let mut out = vec![Complex64::ZERO; n];
    median_secs(runs, || {
        xin.copy_from_slice(&x);
        let inj = ScriptedInjector::new(make_faults());
        let rep = plan.execute(&mut xin, &mut out, &inj, &mut ws);
        assert_eq!(rep.uncorrectable, 0, "scheme {scheme:?} failed to recover");
    })
}

/// Times one parallel scheme (median of `runs`).
pub fn time_parallel(
    n: usize,
    p: usize,
    scheme: ParallelScheme,
    network: Option<NetworkModel>,
    runs: usize,
    make_faults: impl Fn() -> Vec<ScriptedFault>,
) -> f64 {
    let plan = ParallelFft::new(n, p, scheme, network, 3);
    let x = uniform_signal(n, 42);
    median_secs(runs, || {
        let inj = ScriptedInjector::new(make_faults());
        let (_, rep) = plan.run(&x, &inj);
        assert_eq!(rep.uncorrectable, 0);
    })
}

/// Parses a *flat* JSON object of numeric and string fields
/// (`{"a": 1, "note": "…", "b": 2.5}`) into key → number pairs — enough
/// for `baseline.json` without a JSON dependency (the container is
/// offline; see `vendor/`). String fields are skipped (escapes are not
/// interpreted); nested objects/arrays are rejected.
pub fn parse_flat_json_numbers(s: &str) -> Option<Vec<(String, f64)>> {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && (b[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    /// Consumes a `"…"` literal starting at the opening quote, returning
    /// (contents, index past the closing quote). `\"` stays escaped.
    fn take_string<'a>(s: &'a str, b: &[u8], start: usize) -> Option<(&'a str, usize)> {
        if b.get(start) != Some(&b'"') {
            return None;
        }
        let mut i = start + 1;
        while i < b.len() {
            match b[i] {
                b'\\' => i += 2,
                b'"' => return Some((&s[start + 1..i], i + 1)),
                _ => i += 1,
            }
        }
        None
    }

    let b = s.as_bytes();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i = skip_ws(b, i + 1);
    let mut out = Vec::new();
    if b.get(i) == Some(&b'}') {
        return Some(out);
    }
    loop {
        let (key, next) = take_string(s, b, i)?;
        i = skip_ws(b, next);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(b, i + 1);
        match b.get(i)? {
            b'"' => {
                let (_, next) = take_string(s, b, i)?;
                i = next;
            }
            b'{' | b'[' => return None,
            _ => {
                let end = s[i..]
                    .find(|c: char| c == ',' || c == '}' || c.is_ascii_whitespace())
                    .map_or(s.len(), |off| i + off);
                out.push((key.to_string(), s[i..end].parse().ok()?));
                i = end;
            }
        }
        i = skip_ws(b, i);
        match b.get(i)? {
            b',' => i = skip_ws(b, i + 1),
            b'}' => return Some(out),
            _ => return None,
        }
    }
}

/// Looks up a key parsed by [`parse_flat_json_numbers`].
pub fn json_number(fields: &[(String, f64)], key: &str) -> Option<f64> {
    fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

/// Parsed `baseline.json` gate bounds.
///
/// Every key is required: a baseline that lacks one fails to parse, so a
/// gate can never be skipped silently by a missing or misspelled key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineSpec {
    /// Worst tolerated `t(Opt-Online(m)) / t(Plain)` ratio.
    pub overhead_optonline: f64,
    /// Relative slack applied to the overhead bounds.
    pub tolerance: f64,
    /// Minimum fused-CCG speedup at sizes ≥ 2¹⁶ (full mode).
    pub min_ccg_speedup: f64,
    /// Streaming 1-worker overhead bound.
    pub overhead_stream: f64,
    /// Minimum best-kernel SoA/AoS plain-kernel speedup at sizes ≥ 2¹⁶
    /// (full mode).
    pub min_soa_speedup: f64,
    /// Largest fraction by which the planner-chosen layout of any
    /// kernel-matrix cell at sizes ≥ 2¹⁶ may lose to its sibling layout
    /// (full mode).
    pub max_sibling_loss: f64,
    /// Minimum plan-cache hit rate of the multi-tenant service workload
    /// (all modes).
    pub min_cache_hit_rate: f64,
    /// Largest tolerated CRC-on/CRC-off throughput ratio of the protected
    /// telemetry pipeline (optimized builds).
    pub overhead_pipeline_crc: f64,
    /// Largest tolerated instrumented/`no-obs`-equivalent throughput
    /// ratio of the observability layer (optimized builds).
    pub overhead_obs: f64,
    /// Largest tolerated `t(BatchChecksum batch) / t(B × Opt-Online(c))`
    /// ratio at batch sizes `B ≥ 8` (optimized builds). Must sit below
    /// 1.0: the batch scheme's whole point is amortizing two checksum
    /// transforms over the batch instead of paying per-transform
    /// verification.
    pub max_batch_vs_optonline: f64,
}

impl BaselineSpec {
    /// Parses a baseline file's text; `None` when the JSON is malformed or
    /// any gate key is missing.
    pub fn parse(text: &str) -> Option<BaselineSpec> {
        let fields = parse_flat_json_numbers(text)?;
        let key = |name: &str| json_number(&fields, name);
        Some(BaselineSpec {
            overhead_optonline: key("overhead_optonline")?,
            tolerance: key("tolerance")?,
            min_ccg_speedup: key("min_ccg_speedup")?,
            overhead_stream: key("overhead_stream")?,
            min_soa_speedup: key("min_soa_speedup")?,
            max_sibling_loss: key("max_sibling_loss")?,
            min_cache_hit_rate: key("min_cache_hit_rate")?,
            overhead_pipeline_crc: key("overhead_pipeline_crc")?,
            overhead_obs: key("overhead_obs")?,
            max_batch_vs_optonline: key("max_batch_vs_optonline")?,
        })
    }
}

/// One experiment binary of the harness, with its argument sets for both
/// run modes.
pub struct HarnessBin {
    /// Binary name under `src/bin/`.
    pub name: &'static str,
    /// Laptop-scale arguments (`reproduce_all` default mode).
    pub full_args: &'static [&'static str],
    /// Tiny arguments (`n = 2^10`, 1–5 trials, 1–2 ranks) for
    /// `reproduce_all --smoke` and `tests/bin_smoke.rs`.
    pub smoke_args: &'static [&'static str],
}

/// Every experiment binary, in `reproduce_all` execution order — the
/// single registry both run modes and the smoke tests derive from, so a
/// binary cannot be orchestrated in one mode and forgotten in the other.
pub const HARNESS_BINS: &[HarnessBin] = &[
    HarnessBin {
        name: "fig7",
        full_args: &["both"],
        smoke_args: &["both", "--log2ns", "10", "--runs", "1"],
    },
    HarnessBin { name: "table1", full_args: &[], smoke_args: &["--log2ns", "10", "--runs", "1"] },
    HarnessBin {
        name: "fig8",
        full_args: &["both"],
        smoke_args: &["both", "--log2ns", "10", "--log2n", "10", "--ranks", "1,2", "--runs", "1"],
    },
    HarnessBin {
        name: "table2",
        full_args: &[],
        smoke_args: &["--log2n", "10", "--ranks", "1,2", "--runs", "1"],
    },
    HarnessBin {
        name: "table3",
        full_args: &[],
        smoke_args: &["--log2ns", "10", "--p", "2", "--runs", "1"],
    },
    HarnessBin {
        name: "table4",
        full_args: &["--runs", "100"],
        smoke_args: &["--log2n", "10", "--runs", "2"],
    },
    HarnessBin { name: "table5", full_args: &[], smoke_args: &["--log2n", "10"] },
    HarnessBin {
        name: "table6",
        full_args: &["--runs", "200"],
        smoke_args: &["--log2n", "10", "--runs", "5"],
    },
    HarnessBin { name: "opcount", full_args: &[], smoke_args: &["--log2n", "10", "--runs", "1"] },
    HarnessBin { name: "loadgen", full_args: &[], smoke_args: &["--smoke"] },
    HarnessBin { name: "downlink_demo", full_args: &[], smoke_args: &["--smoke"] },
    HarnessBin { name: "perfgate", full_args: &[], smoke_args: &["--smoke"] },
];

/// Smoke arguments for one binary (panics on an unknown name so a
/// renamed binary breaks loudly in every consumer).
pub fn smoke_args(bin: &str) -> &'static [&'static str] {
    HARNESS_BINS
        .iter()
        .find(|b| b.name == bin)
        .map(|b| b.smoke_args)
        .unwrap_or_else(|| panic!("no smoke args registered for binary {bin}"))
}

/// Standard per-rank fault set for the Table 2/3 rows: `mem` memory and
/// `comp` computational faults spread across ranks.
pub fn parallel_fault_set(p: usize, mem: usize, comp: usize) -> Vec<ScriptedFault> {
    let mut faults = Vec::new();
    for r in 0..p {
        for i in 0..mem {
            let site = if i % 2 == 0 { Site::InputMemory } else { Site::IntermediateMemory };
            faults.push(
                ScriptedFault::new(
                    site,
                    17 * (r + 1) + i,
                    FaultKind::SetValue { re: 3.0, im: -3.0 },
                )
                .on_rank(r),
            );
        }
        for i in 0..comp {
            let part = if i % 2 == 0 { Part::First } else { Part::Second };
            faults.push(
                ScriptedFault::new(
                    Site::SubFftCompute { part, index: i + 1 },
                    3 + i,
                    FaultKind::AddDelta { re: 1e-2, im: 0.0 },
                )
                .on_rank(r),
            );
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_secs_runs_the_closure() {
        let mut count = 0;
        let t = median_secs(3, || count += 1);
        assert_eq!(count, 4); // 1 warm-up + 3 timed
        assert!(t >= 0.0);
    }

    #[test]
    fn overhead_math() {
        assert!((overhead_pct(1.5, 1.0) - 50.0).abs() < 1e-12);
        assert!((overhead_pct(1.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn fault_set_shape() {
        let f = parallel_fault_set(4, 2, 2);
        assert_eq!(f.len(), 16);
        assert!(f.iter().all(|x| x.rank.is_some()));
    }

    #[test]
    fn scheme_timer_smoke() {
        let t = time_scheme(1 << 10, Scheme::OnlineMemOpt, 1);
        assert!(t > 0.0);
    }

    #[test]
    fn streaming_timer_smoke() {
        let t = time_streaming(1 << 8, Scheme::OnlineMemOpt, 2, 3, 1);
        assert!(t > 0.0);
    }

    fn args_of(tokens: &[&str]) -> Args {
        Args::from_vec(tokens.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn positional_skips_leading_flag_value_pair() {
        // The regression: a leading `--flag value` made `value` count as
        // the first positional.
        let a = args_of(&["--runs", "3", "both"]);
        assert_eq!(a.positional(0), Some("both"));
        assert_eq!(a.positional(1), None);
        assert_eq!(a.get::<usize>("runs"), Some(3));
    }

    #[test]
    fn positional_collects_across_interleaved_flags() {
        let a = args_of(&["seq", "--log2n", "10", "par", "--runs", "2", "tail"]);
        assert_eq!(a.positional(0), Some("seq"));
        assert_eq!(a.positional(1), Some("par"));
        assert_eq!(a.positional(2), Some("tail"));
        assert_eq!(a.positional(3), None);
    }

    #[test]
    fn bare_trailing_flag_consumes_nothing() {
        let a = args_of(&["--smoke"]);
        assert_eq!(a.positional(0), None);
        assert!(a.has_flag("smoke"));
        assert!(!a.has_flag("runs"));
    }

    #[test]
    fn adjacent_flags_do_not_swallow_each_other() {
        let a = args_of(&["--smoke", "--runs", "5", "x"]);
        assert_eq!(a.positional(0), Some("x"));
        assert_eq!(a.get::<usize>("runs"), Some(5));
    }

    #[test]
    fn flat_json_parser_reads_baseline_shape() {
        let fields = parse_flat_json_numbers(
            r#"{
                "schema_version": 1,
                "comment": "ratios, measured: on the CI runner {braces}, commas",
                "overhead_optonline": 3.25,
                "tolerance": 0.6
            }"#,
        )
        .expect("parse");
        assert_eq!(json_number(&fields, "schema_version"), Some(1.0));
        assert_eq!(json_number(&fields, "overhead_optonline"), Some(3.25));
        assert_eq!(json_number(&fields, "tolerance"), Some(0.6));
        assert_eq!(json_number(&fields, "comment"), None);
        assert_eq!(json_number(&fields, "missing"), None);
    }

    #[test]
    fn baseline_spec_requires_every_gate_key() {
        // The committed baseline parses, and dropping any one of its
        // numeric keys (except the schema tag) makes the parse fail — a
        // missing key must never silently skip its gate, and the file
        // carries no key that no gate reads.
        let committed = include_str!("../baseline.json");
        assert!(BaselineSpec::parse(committed).is_some(), "committed baseline must parse");
        let fields = parse_flat_json_numbers(committed).expect("committed baseline is flat JSON");
        let render = |fields: &[&(String, f64)]| {
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{{}}}", body.join(", "))
        };
        let all: Vec<&(String, f64)> = fields.iter().collect();
        assert!(BaselineSpec::parse(&render(&all)).is_some(), "re-rendered baseline must parse");
        for (key, _) in fields.iter().filter(|(k, _)| k != "schema_version") {
            let without: Vec<&(String, f64)> = fields.iter().filter(|(k, _)| k != key).collect();
            assert_eq!(BaselineSpec::parse(&render(&without)), None, "parsed without {key}");
        }
        assert_eq!(BaselineSpec::parse("not json"), None);
    }

    #[test]
    fn service_stats_flat_json_round_trips_through_the_parser() {
        let rep = run_service_load(&ServiceLoad {
            tenants: 2,
            requests_per_tenant: 4,
            log2ns: vec![7],
            schemes: vec![Scheme::OnlineCompOpt],
            rate: None,
            service: ServiceConfig::default().with_workers(2),
        });
        let fields = parse_flat_json_numbers(&rep.stats.to_flat_json())
            .expect("ServiceStats::to_flat_json must satisfy the flat-JSON grammar");
        assert_eq!(json_number(&fields, "requests"), Some(rep.stats.requests as f64));
        assert_eq!(json_number(&fields, "cache_misses"), Some(rep.stats.cache_misses as f64));
        assert_eq!(json_number(&fields, "report.checks"), Some(rep.stats.report.checks as f64));
        assert_eq!(json_number(&fields, "latency.count"), Some(rep.stats.latency.count as f64));
    }

    #[test]
    fn pipeline_report_flat_json_round_trips_through_the_parser() {
        let spec = PlanSpec::builder(64).scheme(Scheme::OnlineMemOpt).build();
        let signal: Vec<f64> = uniform_signal(64 * 8, 3).iter().map(|z| z.re).collect();
        let stream = ftfft::stream::encode_stream(&signal, 64);
        let mut p = PipelineBuilder::new(&spec).build();
        let mut sink = Vec::new();
        p.process(&stream, &NoFaults, &NoByteFaults, &mut sink);
        let rep = p.report();
        let fields = parse_flat_json_numbers(&rep.to_flat_json())
            .expect("PipelineReport::to_flat_json must satisfy the flat-JSON grammar");
        assert_eq!(json_number(&fields, "sink.delivered"), Some(rep.sink.delivered as f64));
        assert_eq!(
            json_number(&fields, "transform.processed"),
            Some(rep.transform.processed as f64)
        );
        assert_eq!(json_number(&fields, "detected"), Some(rep.detected() as f64));
        assert_eq!(json_number(&fields, "dropped"), Some(rep.dropped() as f64));
    }

    #[test]
    fn pipeline_timer_smoke() {
        let t = time_pipeline(1 << 6, 4, true, true, 1);
        assert!(t > 0.0);
    }

    #[test]
    fn paired_ab_alternates_order_and_reports_the_median_ratio() {
        // Side A always costs 3 units and side B 2, except one outlier
        // round: the median ratio ignores it, the minima track each side.
        let mut calls = Vec::new();
        let (a, b, ratio) = paired_ab(5, |is_a| {
            calls.push(is_a);
            let round = calls.len();
            match (is_a, round) {
                (true, 7) => 30.0,
                (true, _) => 3.0,
                (false, _) => 2.0,
            }
        });
        assert_eq!((a, b, ratio), (3.0, 2.0, 1.5));
        // Warm-up A, B; then rounds alternate A-first / B-first.
        assert_eq!(
            calls,
            [true, false, true, false, false, true, true, false, false, true, true, false]
        );
    }

    #[test]
    fn service_load_smoke() {
        let rep = run_service_load(&ServiceLoad {
            tenants: 2,
            requests_per_tenant: 6,
            log2ns: vec![8],
            schemes: vec![Scheme::OnlineMemOpt],
            rate: None,
            service: ServiceConfig::default()
                .with_workers(2)
                .with_max_batch(2)
                .with_max_wait(Duration::from_micros(100)),
        });
        assert_eq!(rep.stats.requests, 12);
        assert_eq!(rep.distinct_specs, 1);
        assert_eq!(rep.stats.cache_misses, 1);
        assert!(rep.stats.hit_rate > 0.9, "11/12 lookups must hit: {}", rep.stats.hit_rate);
        assert!(rep.throughput > 0.0);
        assert!(rep.stats.latency.p50 <= rep.stats.latency.p999);
    }

    #[test]
    fn flat_json_parser_rejects_malformed_input() {
        assert!(parse_flat_json_numbers("not json").is_none());
        assert!(parse_flat_json_numbers(r#"{"nested": {"a": 1}}"#).is_none());
        assert!(parse_flat_json_numbers(r#"{"a": what}"#).is_none());
        assert_eq!(parse_flat_json_numbers("{}"), Some(vec![]));
    }

    #[test]
    fn gflops_scale() {
        // 2^20 points in 1 second = 5·2^20·20 flops ≈ 0.105 GFLOP/s.
        let g = gflops(1 << 20, 1.0);
        assert!((g - 5.0 * (1u64 << 20) as f64 * 20.0 / 1e9).abs() < 1e-12);
        assert_eq!(gflops(1 << 10, 0.0), 0.0);
    }
}
