//! Fault-tolerant fast convolution: polynomial multiplication via protected
//! forward and inverse FFTs, validated against the direct O(n²) product.
//!
//! Exercises both transform directions of the public API and shows that a
//! convolution pipeline stays correct when soft errors strike any of its
//! three stages (forward FFT of either operand, or the inverse FFT).
//!
//! ```text
//! cargo run --release --example convolution
//! ```

use ftfft::prelude::*;

/// Direct (schoolbook) linear convolution — the correctness oracle.
fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// FFT-based linear convolution with every transform protected by the
/// online ABFT scheme. Returns the product and the merged fault report.
fn convolve_protected(a: &[f64], b: &[f64], injector: &dyn FaultInjector) -> (Vec<f64>, FtReport) {
    let out_len = a.len() + b.len() - 1;
    let n = out_len.next_power_of_two();

    let pad = |v: &[f64]| -> Vec<Complex64> {
        let mut c = vec![Complex64::ZERO; n];
        for (slot, &x) in c.iter_mut().zip(v) {
            *slot = Complex64::new(x, 0.0);
        }
        c
    };

    let fwd = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(Scheme::OnlineMemOpt).build());
    let mut ws = fwd.make_workspace();
    let mut report = FtReport::new();

    let mut fa = vec![Complex64::ZERO; n];
    let mut fb = vec![Complex64::ZERO; n];
    let mut xa = pad(a);
    let mut xb = pad(b);
    report.merge(&fwd.execute(&mut xa, &mut fa, injector, &mut ws));
    report.merge(&fwd.execute(&mut xb, &mut fb, injector, &mut ws));

    // Pointwise product, then the protected inverse transform. Its input
    // (a product of two spectra) is far louder than the time samples; the
    // inverse plan's thresholds follow the scale it measures.
    let mut prod: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| x * y).collect();
    let inv = FtFftPlan::from_spec(
        &PlanSpec::builder(n).direction(Direction::Inverse).scheme(Scheme::OnlineMemOpt).build(),
    );
    let mut time = vec![Complex64::ZERO; n];
    let mut ws_inv = inv.make_workspace();
    report.merge(&inv.execute(&mut prod, &mut time, injector, &mut ws_inv));

    let scale = 1.0 / n as f64;
    (time[..out_len].iter().map(|z| z.re * scale).collect(), report)
}

fn main() {
    // Two pseudo-random polynomials of degree 2999.
    let len = 3000;
    let a: Vec<f64> = uniform_signal(len, 11).iter().map(|z| z.re).collect();
    let b: Vec<f64> = uniform_signal(len, 22).iter().map(|z| z.im).collect();
    println!("fault-tolerant convolution of two degree-{} polynomials\n", len - 1);

    let want = convolve_direct(&a, &b);

    // Fault-free.
    let (got, rep) = convolve_protected(&a, &b, &NoFaults);
    let err = got.iter().zip(&want).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
    println!("fault-free : max abs error vs direct = {err:.3e} ({} checks)", rep.checks);
    assert!(err < 1e-8);

    // One fault in each of the three protected transforms.
    let inj = ScriptedInjector::new(vec![
        ScriptedFault::new(
            Site::SubFftCompute { part: Part::First, index: 3 },
            10,
            FaultKind::AddDelta { re: 1e-2, im: 0.0 },
        ),
        ScriptedFault::new(
            Site::SubFftCompute { part: Part::Second, index: 8 },
            4,
            FaultKind::AddDelta { re: 0.0, im: 1e-2 },
        )
        .at_occurrence(1),
        ScriptedFault::new(Site::InputMemory, 555, FaultKind::SetValue { re: 9.0, im: 9.0 })
            .at_occurrence(2),
    ]);
    let (got, rep) = convolve_protected(&a, &b, &inj);
    let err = got.iter().zip(&want).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
    println!(
        "3 faults   : max abs error vs direct = {err:.3e} (detected {}, recomputed {}, mem corrected {})",
        rep.total_detected(),
        rep.subfft_recomputed,
        rep.mem_corrected
    );
    assert!(err < 1e-8, "convolution must stay correct under faults");
    assert!(rep.total_detected() >= 3);
    println!("\nall three faults corrected online; product matches the direct convolution");
}
