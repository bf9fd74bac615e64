//! Table 4 — round-off error approximation: measured max checksum
//! residuals vs the §8 model estimates, with throughput, for `U(-1,1)` and
//! `N(0,1)` inputs, each at input scales 1e-6, 1 and 1e6.
//!
//! Columns per part: `Max` (largest fault-free residual over all sub-FFT
//! checks in all runs), `Est` (the η the model sets at each run's measured
//! input scale σ̂, averaged over the runs), `Thput` (fraction of checks
//! that did not false-alarm). Every row at one scale is the unscaled row
//! times that scale: the thresholds follow the input.
//!
//! ```text
//! cargo run -p ftfft-bench --release --bin table4 -- [--log2n 16] [--runs 200]
//! ```

use ftfft::prelude::*;
use ftfft_bench::Args;

fn main() {
    let args = Args::parse();
    let log2n: u32 = args.get("log2n").unwrap_or(16);
    let runs: usize = args.get("runs").unwrap_or(200);
    let n = 1usize << log2n;

    println!("=== Table 4: round-off approximation, N = 2^{log2n}, {runs} runs ===\n");
    println!(
        "{:<10}{:>7}{:>12}{:>12}{:>9}{:>12}{:>12}{:>9}",
        "Input", "Scale", "Max 1", "Est 1", "Thput 1", "Max 2", "Est 2", "Thput 2"
    );

    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineCompOpt));
    let mut ws = plan.make_workspace();
    let (k, m) = (plan.two().k(), plan.two().m());
    for dist in [SignalDist::Uniform, SignalDist::Normal] {
        for scale in [1e-6, 1.0, 1e6] {
            let mut max1 = 0.0f64;
            let mut max2 = 0.0f64;
            let (mut est1, mut est2) = (0.0f64, 0.0f64);
            let mut false_alarms = 0u64;
            let mut checks = 0u64;
            for seed in 0..runs as u64 {
                let mut x: Vec<Complex64> =
                    dist.generate(n, seed).iter().map(|z| z.scale(scale)).collect();
                let th = plan.thresholds_for(&x);
                est1 += th.eta1 / runs as f64;
                est2 += th.eta2 / runs as f64;
                let mut out = vec![Complex64::ZERO; n];
                let rep = plan.execute(&mut x, &mut out, &NoFaults, &mut ws);
                max1 = max1.max(rep.max_ok_residual_part1);
                max2 = max2.max(rep.max_ok_residual_part2);
                // In a fault-free run every recomputation is a false alarm.
                false_alarms += rep.subfft_recomputed as u64;
                checks += (k + m) as u64;
            }
            let thput = ftfft::roundoff::empirical_throughput(checks, false_alarms);
            let label = match dist {
                SignalDist::Uniform => "U(-1,1)",
                SignalDist::Normal => "N(0,1)",
            };
            println!(
                "{label:<10}{scale:>7.0e}{max1:>12.2e}{est1:>12.2e}{:>8.2}%{max2:>12.2e}{est2:>12.2e}{:>8.2}%",
                100.0 * thput,
                100.0 * thput
            );
        }
    }
    println!(
        "\n(paper: Est within ~one order of Max, throughput ≈ 100%; the second part's\n residuals are larger because its inputs are √m bigger)"
    );
}
