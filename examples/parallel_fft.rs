//! Parallel in-place FT-FFT on the simulated message-passing machine:
//! 8 ranks, checksummed transposes, communication–computation overlap, and
//! faults injected on every rank (the Table 2/3 scenario).
//!
//! ```text
//! cargo run --release --example parallel_fft [log2n] [ranks]
//! ```

use std::time::Instant;

use ftfft::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let log2n: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(18);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let n = 1usize << log2n;

    println!("parallel FT-FFT: 2^{log2n} points on {p} simulated ranks\n");
    let x = uniform_signal(n, 3);

    // Reference from the sequential library.
    let reference = fft(&x);

    println!(
        "{:<14}{:>12}{:>10}{:>12}{:>10}",
        "scheme", "time (ms)", "checks", "corrected", "rel.err"
    );
    for scheme in ParallelScheme::ALL {
        let plan = ParallelFft::new(n, p, scheme, Some(NetworkModel::cluster()), 3);
        let t0 = Instant::now();
        let (out, rep) = plan.run(&x, &NoFaults);
        let dt = t0.elapsed();
        let err = relative_error_inf(&out, &reference);
        println!(
            "{:<14}{:>12.2}{:>10}{:>12}{:>10.1e}",
            scheme.label(),
            dt.as_secs_f64() * 1e3,
            rep.checks,
            rep.mem_corrected + rep.comm_corrected,
            err
        );
        assert!(err < 1e-9, "{scheme:?} diverged");
    }

    // Now strike every rank with 2 memory + 2 computational faults.
    println!("\ninjecting 2 memory + 2 computational faults on each of the {p} ranks:");
    let mut faults = Vec::new();
    for r in 0..p {
        faults.push(
            ScriptedFault::new(
                Site::InputMemory,
                13 * (r + 1),
                FaultKind::BitFlip { bit: 59, component: Component::Re },
            )
            .on_rank(r),
        );
        faults.push(
            ScriptedFault::new(
                Site::IntermediateMemory,
                7 * (r + 1),
                FaultKind::SetValue { re: 4.0, im: -4.0 },
            )
            .on_rank(r),
        );
        faults.push(
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 1 },
                2,
                FaultKind::AddDelta { re: 1e-2, im: 0.0 },
            )
            .on_rank(r),
        );
        faults.push(
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: 0 },
                1,
                FaultKind::AddDelta { re: 0.0, im: 1e-2 },
            )
            .on_rank(r),
        );
    }
    let inj = ScriptedInjector::new(faults);
    let plan = ParallelFft::new(n, p, ParallelScheme::OptFtFftw, Some(NetworkModel::cluster()), 3);
    let t0 = Instant::now();
    let (out, rep) = plan.run(&x, &inj);
    let dt = t0.elapsed();
    let err = relative_error_inf(&out, &reference);
    println!(
        "  opt-FT-FFTW with {} injected faults: {:.2} ms, err {:.1e}",
        inj.log().len(),
        dt.as_secs_f64() * 1e3,
        err
    );
    println!(
        "  detected: {} comp / {} mem; corrected: {} mem; recomputed sub-FFTs: {}; uncorrectable: {}",
        rep.comp_detected, rep.mem_detected, rep.mem_corrected, rep.subfft_recomputed, rep.uncorrectable
    );
    assert!(err < 1e-9, "faulty run must still produce a correct transform");
    assert_eq!(rep.uncorrectable, 0);
    println!("\nall faults recovered locally — no rank restarted its transform");
}
