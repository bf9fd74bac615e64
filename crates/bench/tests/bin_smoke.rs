//! Smoke tests for the reproduction harness binaries.
//!
//! Each `src/bin/` target runs once at a tiny problem size (`n = 2^10`,
//! one trial) so the harness cannot silently rot: any panic, bad CLI
//! parse, or scheme regression fails `cargo test`. Timing *values* are
//! not asserted — only that every binary completes and prints its table.
//!
//! The per-binary argument sets come from [`ftfft_bench::HARNESS_BINS`],
//! the same registry `reproduce_all` derives both its run modes from.

use std::process::Command;
use std::sync::RwLock;

use ftfft_bench::smoke_args;

/// Turns for the smoke binaries. The two whose runs evaluate perfgate's
/// debug timing gates (`perfgate_smoke`, and `reproduce_all_smoke`, which
/// runs perfgate too) hold it exclusively; every other smoke binary holds
/// it shared. A gate run timing beside another binary on a small box
/// reads that binary's load as overhead.
static TIMING_GATES: RwLock<()> = RwLock::new(());

/// Runs a smoke binary; others may run beside it, but no timing gate.
fn run_ok(name: &str, exe: &str, args: &[&str]) -> String {
    let _turn = TIMING_GATES.read().unwrap_or_else(|e| e.into_inner());
    run(name, exe, args)
}

/// Runs a binary that evaluates perfgate's timing gates, alone.
fn run_timed(name: &str, exe: &str, args: &[&str]) -> String {
    let _turn = TIMING_GATES.write().unwrap_or_else(|e| e.into_inner());
    run(name, exe, args)
}

/// Runs `exe` with `args`, asserting success and non-empty stdout. The
/// working directory is the system temp dir, so a binary's default
/// output file (perfgate's `BENCH_PR.json`, when `reproduce_all` runs it)
/// never overwrites the committed one in the package directory.
fn run(name: &str, exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{name} {args:?} exited with {}:\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.trim().is_empty(), "{name} printed nothing");
    stdout
}

#[test]
fn fig7_smoke() {
    let out = run_ok("fig7", env!("CARGO_BIN_EXE_fig7"), smoke_args("fig7"));
    assert!(out.contains("Fig 7"), "unexpected output:\n{out}");
}

#[test]
fn fig8_smoke() {
    run_ok("fig8", env!("CARGO_BIN_EXE_fig8"), smoke_args("fig8"));
}

#[test]
fn table1_smoke() {
    let out = run_ok("table1", env!("CARGO_BIN_EXE_table1"), smoke_args("table1"));
    assert!(out.contains("Table 1"), "unexpected output:\n{out}");
}

#[test]
fn table2_smoke() {
    run_ok("table2", env!("CARGO_BIN_EXE_table2"), smoke_args("table2"));
}

#[test]
fn table3_smoke() {
    run_ok("table3", env!("CARGO_BIN_EXE_table3"), smoke_args("table3"));
}

#[test]
fn table4_smoke() {
    run_ok("table4", env!("CARGO_BIN_EXE_table4"), smoke_args("table4"));
}

#[test]
fn table5_smoke() {
    run_ok("table5", env!("CARGO_BIN_EXE_table5"), smoke_args("table5"));
}

#[test]
fn table6_smoke() {
    run_ok("table6", env!("CARGO_BIN_EXE_table6"), smoke_args("table6"));
}

#[test]
fn opcount_smoke() {
    run_ok("opcount", env!("CARGO_BIN_EXE_opcount"), smoke_args("opcount"));
}

#[test]
fn loadgen_smoke() {
    let out = run_ok("loadgen", env!("CARGO_BIN_EXE_loadgen"), smoke_args("loadgen"));
    assert!(out.contains("hit rate"), "cache stats missing:\n{out}");
    assert!(out.contains("p999"), "latency percentiles missing:\n{out}");
    assert!(out.contains("req/s sustained"), "throughput missing:\n{out}");
}

#[test]
fn downlink_demo_smoke() {
    let out =
        run_ok("downlink_demo", env!("CARGO_BIN_EXE_downlink_demo"), smoke_args("downlink_demo"));
    assert!(out.contains("bitwise identical to reference: yes"), "identity proof missing:\n{out}");
    assert!(out.contains("zero undetected corruptions"), "verdict line missing:\n{out}");
}

#[test]
fn perfgate_smoke() {
    // Write BENCH_PR.json into the test temp dir; assert the gate verdict
    // and the stable schema header are present.
    let out = std::env::temp_dir().join(format!("BENCH_PR_smoke_{}.json", std::process::id()));
    let out_str = out.to_str().expect("utf-8 temp path").to_string();
    let mut args: Vec<&str> = smoke_args("perfgate").to_vec();
    args.extend_from_slice(&["--out", &out_str]);
    let stdout = run_timed("perfgate", env!("CARGO_BIN_EXE_perfgate"), &args);
    assert!(stdout.contains("perf gate OK"), "unexpected output:\n{stdout}");
    let json = std::fs::read_to_string(&out).expect("perfgate wrote BENCH_PR.json");
    let _ = std::fs::remove_file(&out);
    assert!(json.contains("\"schema_version\": 11"), "schema header missing:\n{json}");
    for stamp in ["\"profile\": ", "\"git_rev\": ", "\"nproc\": "] {
        assert!(json.contains(stamp), "record stamp {stamp} missing:\n{json}");
    }
    assert!(json.contains("\"threads\""), "threads column missing:\n{json}");
    assert!(json.contains("\"single_cpu\""), "single_cpu column missing:\n{json}");
    assert!(json.contains("\"overhead_ratio\""), "cases missing:\n{json}");
    assert!(json.contains("\"layout\""), "layout column missing:\n{json}");
    assert!(json.contains("\"soa_speedup\""), "soa speedup column missing:\n{json}");
    assert!(json.contains("\"ccg_kernels\""), "ccg section missing:\n{json}");
    assert!(json.contains("\"pooled_batch\""), "batch section missing:\n{json}");
    assert!(json.contains("\"streaming\""), "streaming section missing:\n{json}");
    assert!(json.contains("\"optonline_fps_t1\""), "streaming fps column missing:\n{json}");
    assert!(json.contains("\"service\""), "service section missing:\n{json}");
    assert!(json.contains("\"cache_hit_rate\""), "cache hit rate missing:\n{json}");
    assert!(json.contains("\"p999_us\""), "latency percentiles missing:\n{json}");
    assert!(json.contains("\"pipeline\""), "pipeline section missing:\n{json}");
    assert!(json.contains("\"fps_crc\""), "pipeline fps column missing:\n{json}");
    assert!(json.contains("\"crc_overhead\""), "pipeline overhead column missing:\n{json}");
    // v8 observability section: the instrumented-vs-disabled A/B must be
    // present and parse (the ≤1.05x gate itself only arms in optimized
    // builds — this smoke runs the debug profile).
    assert!(json.contains("\"observability\""), "observability section missing:\n{json}");
    assert!(json.contains("\"workload\": \"pipeline\""), "obs pipeline row missing:\n{json}");
    assert!(json.contains("\"workload\": \"service\""), "obs service row missing:\n{json}");
    assert!(json.contains("\"on_secs\""), "obs on_secs column missing:\n{json}");
    assert!(json.contains("\"off_secs\""), "obs off_secs column missing:\n{json}");
    // v9 batch-checksum section: present in every mode (its ratio gate,
    // like the obs gate, only arms in optimized builds).
    assert!(json.contains("\"batch_checksum\""), "batch_checksum section missing:\n{json}");
    assert!(json.contains("\"batch_overhead\""), "batch overhead column missing:\n{json}");
    assert!(json.contains("\"batch_vs_optonline\""), "batch ratio column missing:\n{json}");
    assert!(json.contains("\"pass\": true"), "gate block missing:\n{json}");
}

#[test]
fn smoke_tests_cover_every_orchestrated_binary() {
    // reproduce_all drives exactly HARNESS_BINS (both modes); the literal
    // list below mirrors the per-binary `#[test]`s above, which must name
    // each binary via `env!(CARGO_BIN_EXE_..)` at compile time. Adding a
    // binary to the registry without a matching smoke test fails here.
    let names: Vec<&str> = ftfft_bench::HARNESS_BINS.iter().map(|b| b.name).collect();
    assert_eq!(
        names,
        [
            "fig7",
            "table1",
            "fig8",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "opcount",
            "loadgen",
            "downlink_demo",
            "perfgate"
        ]
    );
}

#[test]
fn reproduce_all_smoke() {
    // End-to-end: the orchestrator finds its sibling binaries and drives
    // every experiment at smoke scale.
    let out = run_timed("reproduce_all", env!("CARGO_BIN_EXE_reproduce_all"), &["--smoke"]);
    assert!(out.contains("All experiments reproduced"), "unexpected output:\n{out}");
}
