//! No-allocation assertion for the hot path.
//!
//! A counting global allocator verifies that, once a plan and its
//! workspace exist, repeated clean `execute` calls allocate **nothing** —
//! across every scheme and across sub-plan kinds (power-of-two, mixed-
//! radix, and Bluestein sub-FFTs), and for the plain `FftPlan` paths.
//! Recovery paths (a detected fault's tie-break vote) may allocate; the
//! clean path must not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ftfft::fft::Layout as DataLayout;
use ftfft::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates everything to `System`, only adding a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-global, so the tests in this binary must not
/// overlap at all (the harness runs tests concurrently on multi-core
/// machines, and even a sibling test's *setup* allocations would pollute
/// a measurement window): every test body below holds this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` several times and returns the *minimum* allocation count of
/// any run — a deterministic zero for a truly allocation-free `f`, while
/// immune to one-off pollution from harness-internal threads.
fn alloc_count(mut f: impl FnMut()) -> usize {
    (0..5)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            f();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

/// Sizes covering every sub-plan kind the two-layer split produces:
/// 1024 = 32×32 (power-of-two kernels), 100 = 10×10 (mixed-radix),
/// 202 = 2×101 (Bluestein inner sub-plan).
const SIZES: [usize; 3] = [1024, 100, 202];

#[test]
fn protected_execute_is_allocation_free_after_warmup() {
    let _serial = serialized();
    for scheme in Scheme::ALL {
        for n in SIZES {
            let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
            let mut ws = plan.make_workspace();
            let x = uniform_signal(n, 7);
            let mut xin = x.clone();
            let mut out = vec![Complex64::ZERO; n];
            // Warm-up: first call may lazily initialize (SIMD dispatch
            // decision reads the environment, etc.).
            plan.execute(&mut xin, &mut out, &NoFaults, &mut ws);
            let count = alloc_count(|| {
                for _ in 0..3 {
                    xin.copy_from_slice(&x);
                    let rep = plan.execute(&mut xin, &mut out, &NoFaults, &mut ws);
                    assert_eq!(rep.uncorrectable, 0);
                }
            });
            assert_eq!(count, 0, "{scheme:?} n={n}: {count} allocations in hot path");
        }
    }
}

#[test]
fn plain_fft_plan_execute_is_allocation_free() {
    let _serial = serialized();
    // 97 is prime → Bluestein; 360 → mixed-radix; 4096 → pow2.
    for n in [97usize, 360, 4096] {
        let plan = FftPlan::new(n, Direction::Forward);
        let x = uniform_signal(n, 3);
        let mut dst = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.execute(&x, &mut dst, &mut scratch);
        let count = alloc_count(|| {
            for _ in 0..3 {
                plan.execute(&x, &mut dst, &mut scratch);
            }
        });
        assert_eq!(count, 0, "FftPlan n={n} ({}): {count} allocations", plan.kernel_name());
    }
}

#[test]
fn soa_layout_plans_are_allocation_free() {
    let _serial = serialized();
    // Plain plans pinned to the split-complex engine: the deinterleave /
    // bit-reversal planes are carved from the caller's complex scratch,
    // so repeated executes must allocate nothing. Split-radix has no SoA
    // engine, so its SoA pin builds (and here checks) the AoS plan.
    for kernel in Pow2Kernel::ALL {
        let n = 1 << 10;
        let plan = FftPlan::from_spec(
            &FftSpec::new(n, Direction::Forward).with_kernel(kernel).with_layout(DataLayout::Soa),
        );
        assert_eq!(plan.supports_split(), kernel != Pow2Kernel::SplitRadix);
        let x = uniform_signal(n, 11);
        let mut dst = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.execute(&x, &mut dst, &mut scratch);
        let count = alloc_count(|| {
            for _ in 0..3 {
                plan.execute(&x, &mut dst, &mut scratch);
            }
        });
        assert_eq!(count, 0, "SoA FftPlan ({}): {count} allocations", plan.kernel_name());
    }

    // Protected execution with SoA sub-plans: the split gather planes
    // come out of the pre-sized workspace buffers (buf2 + fft scratch),
    // so the clean path stays allocation-free end to end.
    force_layout(Some(DataLayout::Soa));
    let n = 1024;
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
    force_layout(None);
    assert!(plan.two().inner_plan().supports_split(), "sub-plan should be SoA under forcing");
    let mut ws = plan.make_workspace();
    let x = uniform_signal(n, 12);
    let mut xin = x.clone();
    let mut out = vec![Complex64::ZERO; n];
    plan.execute(&mut xin, &mut out, &NoFaults, &mut ws);
    let count = alloc_count(|| {
        for _ in 0..3 {
            xin.copy_from_slice(&x);
            let rep = plan.execute(&mut xin, &mut out, &NoFaults, &mut ws);
            assert_eq!(rep.uncorrectable, 0);
        }
    });
    assert_eq!(count, 0, "SoA protected execute: {count} allocations in hot path");
}

#[test]
fn real_plan_forward_is_allocation_free() {
    let _serial = serialized();
    let n = 512;
    let plan = RealFtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
    let mut ws = plan.make_workspace();
    let x: Vec<f64> = uniform_signal(n, 2).iter().map(|z| z.re).collect();
    let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
    plan.forward(&x, &mut spec, &NoFaults, &mut ws);
    let count = alloc_count(|| {
        for _ in 0..3 {
            let rep = plan.forward(&x, &mut spec, &NoFaults, &mut ws);
            assert_eq!(rep.uncorrectable, 0);
        }
    });
    assert_eq!(count, 0, "RealFtFftPlan::forward: {count} allocations in hot path");
}

#[test]
fn streaming_convolver_hot_loop_is_allocation_free() {
    let _serial = serialized();
    let taps: Vec<f64> = uniform_signal(9, 3).iter().map(|z| z.re).collect();
    let mut conv =
        StreamingConvolver::with_fft_size(&taps, 64, FtConfig::new(Scheme::OnlineMemOpt));
    let x: Vec<f64> = uniform_signal(10 * conv.hop(), 4).iter().map(|z| z.re).collect();
    let mut out = vec![0.0; x.len() + conv.hop()];
    // Warm-up covers lazy SIMD dispatch and the first batch flush.
    conv.process_into(&x, &mut out, &NoFaults);
    let count = alloc_count(|| {
        // Mixed chunk sizes: partial fills, batch flushes, ring wraps.
        let n1 = conv.process_into(&x[..37], &mut out, &NoFaults);
        let n2 = conv.process_into(&x[37..], &mut out[n1..], &NoFaults);
        // x.len() is a hop multiple and the ring is drained after each
        // pass, so every sample comes back out within the measurement.
        assert_eq!(n1 + n2, x.len());
    });
    assert_eq!(count, 0, "StreamingConvolver::process_into: {count} allocations in hot loop");
}

#[test]
fn stft_analysis_and_synthesis_are_allocation_free() {
    let _serial = serialized();
    let plan = StftPlan::new(256, 128, Window::Hann, FtConfig::new(Scheme::OnlineMemOpt));
    let len = plan.signal_len(9);
    let x: Vec<f64> = uniform_signal(len, 5).iter().map(|z| z.re).collect();
    let mut ws = plan.make_workspace();
    let mut spec = vec![Complex64::ZERO; plan.num_frames(len) * plan.bins()];
    let mut back = vec![0.0; len];
    plan.analyze_into(&x, &mut spec, &NoFaults, &mut ws);
    plan.synthesize_into(&spec, &mut back, &NoFaults, &mut ws);
    let count = alloc_count(|| {
        let a = plan.analyze_into(&x, &mut spec, &NoFaults, &mut ws);
        let s = plan.synthesize_into(&spec, &mut back, &NoFaults, &mut ws);
        assert!(a.is_clean() && s.is_clean());
    });
    assert_eq!(count, 0, "StftPlan analyze+synthesize: {count} allocations in hot loop");
}

#[test]
fn batched_execute_is_allocation_free() {
    let _serial = serialized();
    let n = 256;
    let batch = 4;
    let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
    let mut ws = plan.make_workspace();
    let src = uniform_signal(n * batch, 5);
    let mut xs = src.clone();
    let mut outs = vec![Complex64::ZERO; n * batch];
    plan.execute_batch(&mut xs, &mut outs, &NoFaults, &mut ws);
    let count = alloc_count(|| {
        xs.copy_from_slice(&src);
        let rep = plan.execute_batch(&mut xs, &mut outs, &NoFaults, &mut ws);
        assert_eq!(rep.uncorrectable, 0);
    });
    assert_eq!(count, 0, "execute_batch: {count} allocations in hot path");
}
