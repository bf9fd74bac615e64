//! End-to-end precedence of the `FTFFT_*` environment tier through
//! [`FftSpec::resolve`]: **explicit builder > env > heuristic**, the
//! contract documented on [`FftSpec`].
//!
//! The unit tests inside the crate exercise the `force_*` atomics (safe
//! under the parallel test harness); this integration binary is the one
//! place that actually mutates the process environment, so the tests
//! serialize on [`ENV_LOCK`] — the harness runs them on separate threads
//! and `set_var`/`remove_var` are process-global.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use ftfft_fft::{
    Direction, FftPlan, FftSpec, Layout, Pow2Kernel, Strategy, KERNEL_ENV, LAYOUT_ENV,
    STRATEGY_ENV, THREADS_ENV,
};
use ftfft_numeric::Complex64;

static ENV_LOCK: Mutex<()> = Mutex::new(());

const ALL_VARS: [&str; 4] = [KERNEL_ENV, LAYOUT_ENV, STRATEGY_ENV, THREADS_ENV];

fn clear_env() {
    for var in ALL_VARS {
        std::env::remove_var(var);
    }
}

/// Runs `f` with the given `FTFFT_*` variables set and everything else
/// cleared, restoring a clean environment afterwards (even on panic the
/// next scenario re-clears, so a failed assertion cannot cascade).
fn with_env(vars: &[(&str, &str)], f: impl FnOnce()) {
    clear_env();
    for (k, v) in vars {
        std::env::set_var(k, v);
    }
    f();
    clear_env();
}

/// Asserts that `f` panics, without letting the default hook spray a
/// backtrace into the test output.
fn assert_panics(f: impl FnOnce()) {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    assert!(result.is_err(), "expected a panic on an invalid FTFFT_* value");
}

#[test]
fn env_tier_precedence_through_resolve() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // n = 2^14 sits in the regime where the heuristic picks radix-4 over
    // SoA planes, so every override below is observable as a change.
    let n = 1 << 14;
    let spec = || FftSpec::new(n, Direction::Forward);

    // Baseline: no env, no pins — the pure heuristic tier.
    with_env(&[], || {
        let r = spec().resolve();
        assert_eq!(r.kernel, Some(Pow2Kernel::Radix4));
        assert_eq!(r.layout, Some(Layout::Soa));
        assert_eq!(r.strategy, Some(Strategy::Serial));
        assert!(r.threads.is_some());
    });

    // Env kernel fills the unset knob, and steers the layout pick: the
    // planner pins split-radix AoS even though the heuristic would have
    // said SoA at this size.
    with_env(&[(KERNEL_ENV, "split-radix")], || {
        let r = spec().resolve();
        assert_eq!(r.kernel, Some(Pow2Kernel::SplitRadix));
        assert_eq!(r.layout, Some(Layout::Aos));
    });

    // An explicit builder kernel is never overwritten by the env.
    with_env(&[(KERNEL_ENV, "split-radix")], || {
        let r = spec().with_kernel(Pow2Kernel::Radix2).resolve();
        assert_eq!(r.kernel, Some(Pow2Kernel::Radix2));
    });

    // Env layout steers the kernel heuristic the same way an explicit
    // layout would: pinned AoS at 2^14 flips the pick to split-radix.
    with_env(&[(LAYOUT_ENV, "aos")], || {
        let r = spec().resolve();
        assert_eq!(r.kernel, Some(Pow2Kernel::SplitRadix));
        assert_eq!(r.layout, Some(Layout::Aos));
    });

    // An explicit builder layout beats the env layout.
    with_env(&[(LAYOUT_ENV, "aos")], || {
        let r = spec().with_layout(Layout::Soa).resolve();
        assert_eq!(r.layout, Some(Layout::Soa));
        assert_eq!(r.kernel, Some(Pow2Kernel::Radix4));
    });

    // `FTFFT_LAYOUT=auto` (and empty) defer to the heuristic rather than
    // pinning anything.
    with_env(&[(LAYOUT_ENV, "auto")], || {
        assert_eq!(spec().resolve().layout, Some(Layout::Soa));
    });

    // Split-radix has no SoA engine: an SoA layout from any tier —
    // explicit builder or env — resolves AoS.
    with_env(&[(LAYOUT_ENV, "soa")], || {
        let r = spec().with_kernel(Pow2Kernel::SplitRadix).with_layout(Layout::Soa).resolve();
        assert_eq!(r.kernel, Some(Pow2Kernel::SplitRadix));
        assert_eq!(r.layout, Some(Layout::Aos));
        let r = spec().with_kernel(Pow2Kernel::SplitRadix).resolve();
        assert_eq!(r.layout, Some(Layout::Aos));
    });
}

#[test]
fn env_strategy_and_threads_through_resolve() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // n = 2^10 is far below PARALLEL_MIN, so Auto resolves Serial and any
    // Parallel outcome below is attributable to the override under test.
    let n = 1 << 10;
    let spec = || FftSpec::new(n, Direction::Forward);

    // Env strategy forces the parallel DIT where Auto would never go;
    // the canonical form clears kernel/layout (they cannot matter).
    with_env(&[(STRATEGY_ENV, "parallel")], || {
        let r = spec().resolve();
        assert_eq!(r.strategy, Some(Strategy::Parallel));
        assert_eq!(r.kernel, None);
        assert_eq!(r.layout, None);
    });

    // An explicit builder strategy beats the env strategy.
    with_env(&[(STRATEGY_ENV, "parallel")], || {
        let r = spec().with_strategy(Strategy::Serial).resolve();
        assert_eq!(r.strategy, Some(Strategy::Serial));
        assert!(r.kernel.is_some() && r.layout.is_some());
    });

    // Env threads fill the unset count; an explicit count wins.
    with_env(&[(THREADS_ENV, "3")], || {
        assert_eq!(spec().resolve().threads, Some(3));
        assert_eq!(spec().with_threads(5).resolve().threads, Some(5));
    });

    // A plan built under env overrides computes the same transform as the
    // default plan: overrides select an implementation, never a result.
    with_env(&[(STRATEGY_ENV, "parallel"), (THREADS_ENV, "2")], || {
        let forced = FftPlan::from_spec(&spec());
        let mut a: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((0.3 * i as f64).sin(), (0.7 * i as f64).cos()))
            .collect();
        let mut b = a.clone();
        let mut scratch = vec![Complex64::new(0.0, 0.0); forced.scratch_len()];
        forced.execute_inplace(&mut a, &mut scratch);
        clear_env();
        let default = FftPlan::new(n, Direction::Forward);
        let mut scratch = vec![Complex64::new(0.0, 0.0); default.scratch_len()];
        default.execute_inplace(&mut b, &mut scratch);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).norm_sqr() < 1e-18 * (n * n) as f64, "{x:?} != {y:?}");
        }
    });
}

#[test]
fn invalid_env_values_panic_loudly() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A silent typo in an A/B run would invalidate the experiment, so
    // every variable rejects unknown values with a panic at resolve time.
    let resolve = || {
        FftSpec::new(1 << 12, Direction::Forward).resolve();
    };
    with_env(&[(KERNEL_ENV, "radix8")], || assert_panics(resolve));
    with_env(&[(LAYOUT_ENV, "planar")], || assert_panics(resolve));
    with_env(&[(STRATEGY_ENV, "gpu")], || assert_panics(resolve));
    with_env(&[(THREADS_ENV, "many")], || assert_panics(resolve));
    // The environment is clean again; resolution succeeds.
    resolve();
}
