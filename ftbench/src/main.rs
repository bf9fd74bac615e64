//! The ftfft benchmark: one command runs a seeded workload against the
//! library's public API, checks every output, and prints each metric by
//! name with its unit. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path ftbench/Cargo.toml -- \
//!     --workload large_single|service_mix|downlink_faults \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` records spans around every call into a layer and reports
//! the per-layer metrics instead: the named workload runs for the full
//! time, the other two for a short fixed time so that every per-layer
//! metric is present. Spans are written to
//! `.bench_trace/<workload>-<seed>.tsv` when the run ends.

mod downlink;
mod large_single;
mod reference;
mod service_mix;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// Every workload the command runs. `BENCHMARK.json` lists all but
/// `large_single`: its memory-bound timings drifted past the bounds between
/// runs on a shared 2-vCPU box. It still runs by name, and as a section of
/// every traced run, which reports its per-layer metrics.
pub const WORKLOADS: [&str; 3] = ["large_single", "service_mix", "downlink_faults"];

/// `(name, unit)` of every end-to-end metric in the JSON result, in
/// output order. `op_p99_ms` and `failed_frac` are printed on lines of
/// their own: the p99 of `service_mix` drifted past the largest bound
/// between runs on a shared 2-vCPU box, and `failed_frac` is 0.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// `(name, unit)` of every per-layer metric of the traced run.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("fft.kernel_ms", "ms"),
    ("fft.two_layer_ms", "ms"),
    ("fft.subfft_ms", "ms"),
    ("checksum.ccg_ms", "ms"),
    ("core.protect_ms", "ms"),
    ("fft.two_layer_over_kernel", "ratio"),
    ("core.overhead_vs_kernel", "ratio"),
    ("core.checks_per_op", "count"),
    ("core.false_alarm_frac", "fraction"),
    ("service.submit_us_p50", "us"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.execute_us_p50", "us"),
    ("service.worker_busy_frac", "fraction"),
    ("service.mean_batch", "count"),
    ("service.joint_frac", "fraction"),
    ("service.cache_hit_rate", "fraction"),
    ("core.batch_member_us", "us"),
    ("core.batch_vs_online", "ratio"),
    ("stream.sync_us", "us"),
    ("stream.transform_us", "us"),
    ("stream.deliver_us", "us"),
    ("checksum.crc_gbps", "GB/s"),
    ("core.recompute_per_fault", "ratio"),
    ("core.detected_frac", "fraction"),
    ("stream.healed_frac", "fraction"),
    ("fault.injected_per_run", "count"),
    ("bench.trace_overhead", "ms"),
];

/// Set-ups per end-to-end run (at least this many, for at least
/// `SETUP_SECS`); `setup_s` is their median.
const SETUPS: usize = 21;
const SETUP_SECS: f64 = 1.0;
/// Length of the traced run of the workloads not named on the command line.
const SIDE_SECONDS: f64 = 3.0;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Ops attempted and failed (wrong output, uncorrectable report, request
/// error, or a dropped frame).
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

impl Verdict {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// How a workload spends its time.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub setups: usize,
    pub setup_secs: f64,
    /// Untimed steady-state ramp before measuring.
    pub warmup_secs: f64,
    /// The timed end-to-end phase (run twice, untraced then traced, in a
    /// traced run).
    pub e2e_secs: f64,
    /// Layer probes (traced run only).
    pub probe_secs: f64,
}

impl Budget {
    fn end_to_end(secs: f64) -> Budget {
        Budget {
            setups: SETUPS,
            setup_secs: SETUP_SECS,
            warmup_secs: 0.5,
            e2e_secs: secs,
            probe_secs: 0.0,
        }
    }

    fn traced(secs: f64) -> Budget {
        Budget {
            setups: 1,
            setup_secs: 0.0,
            warmup_secs: 0.2,
            e2e_secs: 0.3 * secs,
            probe_secs: 0.4 * secs,
        }
    }

    /// Runs `set_up` at least `setups` times and for at least
    /// `setup_secs`, returning every duration in seconds and the last
    /// result. The previous result is dropped before the next set-up
    /// starts, so teardown is never timed and only one is alive at once.
    pub fn repeat_setup<T>(&self, mut set_up: impl FnMut() -> T) -> (Vec<f64>, T) {
        let start = Instant::now();
        let mut times = Vec::new();
        let mut last = None;
        while times.len() < self.setups.max(1) || start.elapsed().as_secs_f64() < self.setup_secs {
            drop(last.take());
            let t = Instant::now();
            let ready = set_up();
            times.push(t.elapsed().as_secs_f64());
            last = Some(ready);
        }
        (times, last.expect("at least one set-up"))
    }
}

/// What one workload measured.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub lat_ms: Vec<f32>,
    /// Ops completed in the timed phase and its length.
    pub completed: u64,
    pub wall_s: f64,
    pub verdict: Verdict,
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

fn run_workload(name: &str, seed: u64, budget: Budget, tracer: &mut Tracer) -> Result<Run, String> {
    match name {
        "large_single" => Ok(large_single::run(seed, budget, tracer)),
        "service_mix" => Ok(service_mix::run(seed, budget, tracer)),
        "downlink_faults" => downlink::run(seed, budget, tracer),
        other => Err(format!("unknown workload {other:?}")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: ftbench --workload <large_single|service_mix|downlink_faults> --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// End-to-end metrics of one untraced run, with the human-readable lines
/// that carry their sample counts.
fn end_to_end(run: &mut Run, lines: &mut Vec<String>) -> Vec<Metric> {
    let rss = sys::peak_rss_mb();
    let setup = stats::median(&run.setup_s);
    let t = stats::tail(&mut run.lat_ms);
    let ops_per_s = run.completed as f64 / run.wall_s;
    let v = run.verdict;
    lines.push(format!("setup_s     = {setup:.6} s (median of {} set-ups)", run.setup_s.len()));
    lines.push(format!(
        "ops_per_s   = {ops_per_s:.3} 1/s ({} ops in {:.3} s)",
        run.completed, run.wall_s
    ));
    lines.push(format!("op_p50_ms   = {:.6} ms (n={} samples)", t.p50, t.count));
    lines.push(format!(
        "op_p99_ms   = {:.6} ms (n={} samples, {} beyond p99{})",
        t.p99,
        t.count,
        t.beyond_p99,
        if t.beyond_p99 < 10 { "; fewer than ten, the tail is not resolved" } else { "" }
    ));
    lines.push(format!(
        "failed_frac = {} ({} of {} ops failed)",
        v.failed as f64 / v.attempted.max(1) as f64,
        v.failed,
        v.attempted
    ));
    lines.push(format!("peak_rss_mb = {rss:.3} MiB (VmHWM)"));
    vec![
        Metric::new("setup_s", setup, "s"),
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("op_p50_ms", t.p50, "ms"),
        Metric::new("peak_rss_mb", rss, "MiB"),
    ]
}

/// Checks that `metrics` holds exactly the `expected` names and units,
/// each once, with finite values.
fn check_metrics(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    for (name, unit) in expected {
        let hits: Vec<&Metric> = metrics.iter().filter(|m| m.name == *name).collect();
        match hits.as_slice() {
            [m] if m.unit == *unit && m.value.is_finite() => {}
            [m] => return Err(format!("metric {name}: {} {} is invalid", m.value, m.unit)),
            _ => return Err(format!("metric {name} reported {} times", hits.len())),
        }
    }
    if metrics.len() != expected.len() {
        return Err(format!("{} metrics reported, {} expected", metrics.len(), expected.len()));
    }
    Ok(())
}

fn json_line(correct: bool, v: Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.attempted,
        v.failed,
        body.join(", ")
    )
}

fn execute(args: &Args) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release".into());
    }
    let env = sys::ftfft_env_vars();
    if !env.is_empty() {
        return Err(format!(
            "unset {} first: the benchmark pins every knob itself",
            env.join(", ")
        ));
    }
    let stamp = format!(
        "# stamp: profile={} rev={} nproc={} simd={} seed={} workload={} seconds={} trace={}",
        sys::build_profile(),
        sys::git_revision(),
        sys::nproc(),
        ftfft::numeric::simd_level().name(),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{stamp}");
    let mut tracer = Tracer::new(args.trace);
    let mut lines = Vec::new();
    let mut verdict = Verdict::default();
    let metrics = if args.trace {
        let mut layers = Vec::new();
        for w in WORKLOADS {
            let primary = w == args.workload;
            let secs = if primary { args.seconds } else { SIDE_SECONDS.min(args.seconds) };
            let run = run_workload(w, args.seed, Budget::traced(secs), &mut tracer)?;
            lines.extend(run.notes);
            verdict.add(run.verdict.attempted, run.verdict.failed);
            layers.extend(
                run.layers.into_iter().filter(|m| primary || m.name != "bench.trace_overhead"),
            );
        }
        for m in &layers {
            lines.push(format!("{:<26} = {} {}", m.name, m.value, m.unit));
        }
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-{}.tsv", args.workload, args.seed));
        tracer
            .write_tsv(&path, &stamp)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        lines.push(format!("{} spans written to {}", tracer.spans().len(), path.display()));
        check_metrics(&layers, &PER_LAYER)?;
        layers
    } else {
        let mut run =
            run_workload(&args.workload, args.seed, Budget::end_to_end(args.seconds), &mut tracer)?;
        lines.extend(run.notes.iter().cloned());
        verdict = run.verdict;
        let m = end_to_end(&mut run, &mut lines);
        check_metrics(&m, &END_TO_END)?;
        m
    };
    for l in &lines {
        println!("{l}");
    }
    println!("{}", json_line(verdict.failed == 0 && verdict.attempted > 0, verdict, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ftbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// Extracts every `"name": "<value>"` string of a JSON array section,
    /// in order (enough JSON for the repository's own `BENCHMARK.json`).
    fn names_in(section: &str, key: &str) -> Vec<String> {
        let pat = format!("\"{key}\":");
        let mut out = Vec::new();
        let mut rest = section;
        while let Some(i) = rest.find(&pat) {
            rest = rest[i + pat.len()..].trim_start();
            let v = rest.strip_prefix('"').expect("string value");
            let end = v.find('"').expect("closing quote");
            out.push(v[..end].to_string());
            rest = &v[end..];
        }
        out
    }

    fn section<'a>(json: &'a str, key: &str) -> &'a str {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        &json[open..close]
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().map(|m| m.0));
        all.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names must be unique");
        for (_, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_unit(u), "{u}");
        }
    }

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let workloads = names_in(section(&json, "workloads"), "name");
        assert_eq!(workloads, WORKLOADS[1..], "every workload but large_single is listed");
        let e2e = section(&json, "end_to_end");
        assert_eq!(names_in(e2e, "name"), END_TO_END.map(|m| m.0));
        assert_eq!(names_in(e2e, "unit"), END_TO_END.map(|m| m.1));
        let layer = section(&json, "per_layer");
        assert_eq!(names_in(layer, "name"), PER_LAYER.map(|m| m.0));
        assert_eq!(names_in(layer, "unit"), PER_LAYER.map(|m| m.1));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload service_mix --seed 7 --seconds 2 --trace 1"))
            .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("service_mix", 7, 2.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(
            parse_args(&argv("--workload large_single --seed x --seconds 1 --trace 0")).is_err()
        );
        assert!(
            parse_args(&argv("--workload large_single --seed 1 --seconds 1 --trace 2")).is_err()
        );
        assert!(parse_args(&argv("--workload large_single --seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn metric_check_catches_gaps_and_junk() {
        let good: Vec<Metric> = END_TO_END.iter().map(|&(n, u)| Metric::new(n, 1.0, u)).collect();
        assert!(check_metrics(&good, &END_TO_END).is_ok());
        assert!(check_metrics(&good[1..], &END_TO_END).is_err());
        let mut nan = good.clone();
        nan[0].value = f64::NAN;
        assert!(check_metrics(&nan, &END_TO_END).is_err());
        let mut extra = good.clone();
        extra.push(Metric::new("x", 1.0, "s"));
        assert!(check_metrics(&extra, &END_TO_END).is_err());
    }

    #[test]
    fn json_line_shape() {
        let v = Verdict { attempted: 3, failed: 0 };
        let s = json_line(true, v, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            s,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
