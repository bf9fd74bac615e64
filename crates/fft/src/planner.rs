//! Single-size FFT plans and the caching planner.
//!
//! [`FftPlan`] dispatches to the fastest kernel for a size: one of the
//! power-of-two family ([`Pow2Kernel`]: radix-2, radix-4, split-radix,
//! chosen by a size heuristic overridable via `FTFFT_KERNEL`), recursive
//! mixed-radix for smooth composites, Bluestein otherwise. [`Planner`]
//! memoizes plans per `(n, direction)` the way FFTW caches wisdom, so
//! repeated sub-FFT sizes (the k- and m-point transforms of the
//! decomposition) are planned exactly once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::bitrev::bit_reverse_table;
use crate::bluestein::BluesteinPlan;
use crate::direction::Direction;
use crate::factor::{is_power_of_two, is_smooth};
use crate::mixed::MixedPlan;
use crate::parallel_dit::{resolve_threads, ParallelDitPlan};
use crate::radix2::{fft_radix2_inplace, radix2_stages};
use crate::radix4::{fft_radix4_inplace, radix4_stages};
use crate::soa::{fft_radix2_soa, fft_radix4_soa};
use crate::split_radix::{fft_split_radix, fft_split_radix_inplace};
use crate::strided::gather_blocks;
use crate::twiddle_table::{SoaRadix2Twiddles, SoaRadix4Twiddles, TwiddleTable};
use ftfft_numeric::simd;
use ftfft_numeric::Complex64;

/// Largest prime factor handled by the mixed-radix kernel before the
/// planner switches to Bluestein.
pub const SMOOTH_LIMIT: usize = 61;

/// Environment variable overriding the power-of-two kernel heuristic
/// (`radix2` | `radix4` | `split-radix`) — the A/B switch the perf harness
/// uses to time one kernel against another.
pub const KERNEL_ENV: &str = "FTFFT_KERNEL";

/// Environment variable overriding the data-layout heuristic
/// (`soa` | `aos` | `auto`) — the A/B switch for the split-complex engine.
pub const LAYOUT_ENV: &str = "FTFFT_LAYOUT";

/// Environment variable overriding the execution-strategy heuristic
/// (`parallel` | `serial` | `auto`) — the A/B switch for the two-halves
/// parallel DIT on single large power-of-two transforms.
pub const STRATEGY_ENV: &str = "FTFFT_STRATEGY";

/// Smallest power-of-two size at which the `auto` strategy runs a single
/// transform through the two-halves parallel DIT: below this the five-phase
/// pipeline's extra permutation passes and per-execute worker spawns
/// outweigh the butterfly-work split (each half is only `t/2 ≈ 9` stages
/// at the cutoff).
pub const PARALLEL_MIN: usize = 1 << 18;

/// Execution strategy for a single power-of-two transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Size- and thread-aware heuristic: the two-halves parallel DIT for
    /// `n ≥ 2^18` when more than one worker is available, serial kernels
    /// otherwise.
    Auto,
    /// Always the serial kernel family ([`Pow2Kernel`] + [`Layout`]).
    Serial,
    /// Always the two-halves parallel DIT ([`crate::parallel_dit`]).
    Parallel,
}

impl Strategy {
    /// Stable lowercase name (accepted back through [`STRATEGY_ENV`]).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Serial => "serial",
            Strategy::Parallel => "parallel",
        }
    }

    /// Parses a strategy name.
    pub fn parse(name: &str) -> Option<Strategy> {
        match name.to_ascii_lowercase().as_str() {
            "auto" | "" => Some(Strategy::Auto),
            "serial" => Some(Strategy::Serial),
            "parallel" => Some(Strategy::Parallel),
            _ => None,
        }
    }

    /// The override tier of strategy resolution: a [`force_strategy`]
    /// pin first, then the `FTFFT_STRATEGY` variable (panicking on an
    /// unknown name — a silent typo would invalidate an A/B run), `None`
    /// when neither is set and the heuristic should decide.
    pub fn env_or_forced() -> Option<Strategy> {
        match FORCED_STRATEGY.load(Ordering::Relaxed) {
            1 => return Some(Strategy::Auto),
            2 => return Some(Strategy::Serial),
            3 => return Some(Strategy::Parallel),
            _ => {}
        }
        match std::env::var(STRATEGY_ENV) {
            Ok(v) => Some(
                Strategy::parse(&v)
                    .unwrap_or_else(|| panic!("{STRATEGY_ENV}={v:?} is not parallel|serial|auto")),
            ),
            Err(_) => None,
        }
    }

    /// The strategy in force: [`Strategy::env_or_forced`] when set,
    /// [`Strategy::Auto`] otherwise.
    pub fn choose() -> Strategy {
        Strategy::env_or_forced().unwrap_or(Strategy::Auto)
    }

    /// Whether this strategy routes an `n`-point power-of-two transform
    /// with `threads` available workers to the parallel DIT.
    pub fn picks_parallel(self, n: usize, threads: usize) -> bool {
        match self {
            Strategy::Serial => false,
            Strategy::Parallel => true,
            Strategy::Auto => n >= PARALLEL_MIN && threads > 1,
        }
    }
}

/// Smallest power-of-two size at which the layout heuristic picks the
/// split-complex engine for the radix-4 kernel: below this the two O(n)
/// boundary conversions eat the per-stage SIMD win (only ~log₂ n stages
/// share the cost). From the perfgate matrix (EXPERIMENTS.md): radix-4
/// SoA is 1.3–1.6× AoS from 2¹² up and *loses* at 2¹⁰.
const SOA_MIN_RADIX4: usize = 1 << 12;

/// Radix-2's SoA crossover sits one octave higher: its per-stage plane
/// work is half radix-4's, so the boundary conversions amortize later —
/// best-of-5 A/B on the CI-class AVX box puts radix-2 SoA at only ~1.05×
/// at 2¹² (within run-to-run noise of losing) but a solid win from 2¹³.
/// The heuristic must never auto-pick a cell that can lose to its AoS
/// sibling (the perfgate sibling-cell gate), hence the split constants.
const SOA_MIN_RADIX2: usize = 1 << 13;

/// Data layout a power-of-two plan executes in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Interleaved `Complex64` (array-of-structures) — the classic layout.
    Aos,
    /// Split `re[]`/`im[]` planes (structure-of-arrays): every stage runs
    /// the 4-complex-per-instruction plane kernels; a one-pass
    /// deinterleave/interleave converts at the plan boundary. Bitwise
    /// identical results to [`Layout::Aos`].
    Soa,
}

/// 0 = no override, 1 = aos, 2 = soa.
static FORCED_LAYOUT: AtomicU8 = AtomicU8::new(0);

/// 0 = no override, 1 = auto, 2 = serial, 3 = parallel.
static FORCED_STRATEGY: AtomicU8 = AtomicU8::new(0);

/// Process-wide execution-strategy override: `Some(s)` makes every
/// subsequent plan construction use `s` regardless of `FTFFT_STRATEGY`
/// (`None` re-enables env + heuristic). Intended for tests that must pin
/// the serial schedule — e.g. the no-allocation assertions, since the
/// multi-worker parallel schedule spawns scoped threads per execute by
/// design. Safe to flip concurrently because both strategies produce
/// bitwise-identical transforms.
pub fn force_strategy(strategy: Option<Strategy>) {
    let v = match strategy {
        None => 0,
        Some(Strategy::Auto) => 1,
        Some(Strategy::Serial) => 2,
        Some(Strategy::Parallel) => 3,
    };
    FORCED_STRATEGY.store(v, Ordering::Relaxed);
}

impl Layout {
    /// Both layouts, in `BENCH_PR.json` reporting order.
    pub const ALL: [Layout; 2] = [Layout::Aos, Layout::Soa];

    /// Stable lowercase name (accepted back through [`LAYOUT_ENV`]).
    pub fn name(self) -> &'static str {
        match self {
            Layout::Aos => "aos",
            Layout::Soa => "soa",
        }
    }

    /// Parses a layout name.
    pub fn parse(name: &str) -> Option<Layout> {
        match name.to_ascii_lowercase().as_str() {
            "aos" => Some(Layout::Aos),
            "soa" => Some(Layout::Soa),
            _ => None,
        }
    }

    /// The planner's layout heuristic for `kernel` at a power-of-two size
    /// `n`. The iterative kernels go SoA once the transform is deep enough
    /// to amortize the boundary conversion — radix-4 from 2¹², radix-2
    /// only from 2¹³ (its shallower per-stage plane win amortizes the
    /// conversions one octave later); the recursive split-radix kernel
    /// stays AoS — its strided leaf gathers and conjugate-pair index
    /// wraps defeat the plane kernels (measured *slower* SoA at 2¹⁸–2²⁰,
    /// see EXPERIMENTS.md).
    pub fn heuristic(kernel: Pow2Kernel, n: usize) -> Layout {
        debug_assert!(is_power_of_two(n));
        match kernel {
            Pow2Kernel::Radix2 if n >= SOA_MIN_RADIX2 => Layout::Soa,
            Pow2Kernel::Radix4 if n >= SOA_MIN_RADIX4 => Layout::Soa,
            _ => Layout::Aos,
        }
    }

    /// The override tier of layout resolution: a [`force_layout`] pin
    /// first, then the `FTFFT_LAYOUT` variable (panicking on an unknown
    /// name — a silent typo would invalidate an A/B run; `auto` and the
    /// empty string defer), `None` when the heuristic should decide.
    pub fn env_or_forced() -> Option<Layout> {
        match FORCED_LAYOUT.load(Ordering::Relaxed) {
            1 => return Some(Layout::Aos),
            2 => return Some(Layout::Soa),
            _ => {}
        }
        match std::env::var(LAYOUT_ENV) {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "auto" | "" => None,
                other => Some(
                    Layout::parse(other)
                        .unwrap_or_else(|| panic!("{LAYOUT_ENV}={v:?} is not soa|aos|auto")),
                ),
            },
            Err(_) => None,
        }
    }

    /// The layout the planner will use for `kernel` at a power-of-two size
    /// `n`: [`Layout::Aos`] for a kernel with no SoA engine (split-radix),
    /// else [`Layout::env_or_forced`] when set, then the heuristic.
    pub fn choose(kernel: Pow2Kernel, n: usize) -> Layout {
        if !kernel.has_soa_engine() {
            return Layout::Aos;
        }
        Layout::env_or_forced().unwrap_or_else(|| Layout::heuristic(kernel, n))
    }
}

/// Forces the layout for subsequently-built power-of-two plans (`None`
/// re-enables env + heuristic). Intended for tests and the perf harness;
/// affects the whole process. Safe to flip concurrently because both
/// layouts produce bitwise-identical transforms.
pub fn force_layout(layout: Option<Layout>) {
    let v = match layout {
        None => 0,
        Some(Layout::Aos) => 1,
        Some(Layout::Soa) => 2,
    };
    FORCED_LAYOUT.store(v, Ordering::Relaxed);
}

/// Smallest batch size `B` at which the batch-checksum scheme's cost
/// model beats per-transform Opt-Online protection for `n`-point
/// transforms — the plan-time break-even the service layer consults
/// before routing a coalesced batch through the joint scheme.
///
/// Cost model: the batch scheme runs `B + 2` plain transforms (`B`
/// members + two weighted-combination checksums) plus ~6 O(n) sweeps per
/// member (two-sided combine, accumulate, compare), i.e. a relative
/// overhead of `(B+2)/B + γ/log₂n` against `B` plain transforms with
/// `γ ≈ 1.2` linear-sweep units per transform unit. Per-transform
/// Opt-Online measures ≈1.7× (EXPERIMENTS.md worst case 1.67–1.84×), so
/// batching wins when `2/B < 0.7 − γ/log₂n`. Small transforms (where the
/// linear sweeps rival the n·log₂n transform itself) break even later;
/// the result is clamped to `[2, 16]` — `B = 1` never amortizes anything.
pub fn batch_break_even(n: usize) -> usize {
    let log2n = (n.max(4) as f64).log2();
    let margin = 0.7 - 1.2 / log2n;
    if margin <= 0.0 {
        return 16;
    }
    ((2.0 / margin).ceil() as usize).clamp(2, 16)
}

/// The power-of-two kernel family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pow2Kernel {
    /// Iterative radix-2 ([`crate::radix2`]) — lowest fixed overhead.
    Radix2,
    /// Iterative radix-4 ([`crate::radix4`]) — half the passes of radix-2.
    Radix4,
    /// Recursive conjugate-pair split-radix ([`crate::split_radix`]) —
    /// fewest multiplications, cache-blocked recursion.
    SplitRadix,
}

impl Pow2Kernel {
    /// All kernels, in the order the perf harness reports them.
    pub const ALL: [Pow2Kernel; 3] =
        [Pow2Kernel::Radix2, Pow2Kernel::Radix4, Pow2Kernel::SplitRadix];

    /// Stable lowercase name (accepted back by [`Pow2Kernel::parse`] and
    /// the `FTFFT_KERNEL` variable, emitted into `BENCH_PR.json`).
    pub fn name(self) -> &'static str {
        match self {
            Pow2Kernel::Radix2 => "radix2",
            Pow2Kernel::Radix4 => "radix4",
            Pow2Kernel::SplitRadix => "split-radix",
        }
    }

    /// Parses a kernel name (accepts `split-radix`/`split_radix`/`splitradix`).
    pub fn parse(name: &str) -> Option<Pow2Kernel> {
        match name.to_ascii_lowercase().as_str() {
            "radix2" => Some(Pow2Kernel::Radix2),
            "radix4" => Some(Pow2Kernel::Radix4),
            "split-radix" | "split_radix" | "splitradix" => Some(Pow2Kernel::SplitRadix),
            _ => None,
        }
    }

    /// The planner's cost heuristic for an `n`-point transform.
    ///
    /// Cutoffs from the perfgate matrix (see `EXPERIMENTS.md`): at n ≤ 8
    /// every kernel is a handful of butterflies and radix-2 has the least
    /// bookkeeping; through the cache-resident sizes radix-4's fused
    /// stages win (~1.4–1.5× radix-2). For large transforms the choice is
    /// layout-coupled: when the split-complex engine is available
    /// ([`Layout::choose`] says SoA), radix-4 over planes is the fastest
    /// kernel outright (1.2–1.6× the AoS split-radix recursion at
    /// 2¹⁴–2²⁰); when the layout is pinned to AoS, split-radix's lower
    /// multiplication count and depth-first locality keep the old win.
    pub fn heuristic(n: usize) -> Pow2Kernel {
        Pow2Kernel::heuristic_for(n, None)
    }

    /// [`Pow2Kernel::heuristic`] with the large-size layout coupling
    /// resolved against an already-pinned layout instead of
    /// [`Layout::choose`] — used by [`FftSpec::resolve`] so an explicit
    /// builder layout steers the kernel pick the same way an env override
    /// would.
    pub fn heuristic_for(n: usize, layout: Option<Layout>) -> Pow2Kernel {
        debug_assert!(is_power_of_two(n));
        if n <= 8 {
            Pow2Kernel::Radix2
        } else if n <= 1 << 13
            || layout.unwrap_or_else(|| Layout::choose(Pow2Kernel::Radix4, n)) == Layout::Soa
        {
            Pow2Kernel::Radix4
        } else {
            Pow2Kernel::SplitRadix
        }
    }

    /// The override tier of kernel resolution: the `FTFFT_KERNEL`
    /// variable when set (panicking on an unknown name — a silent typo
    /// would invalidate an A/B run), `None` when the heuristic should
    /// decide.
    pub fn env_override() -> Option<Pow2Kernel> {
        match std::env::var(KERNEL_ENV) {
            Ok(v) => {
                Some(Pow2Kernel::parse(&v).unwrap_or_else(|| {
                    panic!("{KERNEL_ENV}={v:?} is not radix2|radix4|split-radix")
                }))
            }
            Err(_) => None,
        }
    }

    /// The kernel the planner will use for size `n`:
    /// [`Pow2Kernel::env_override`] when set, the heuristic otherwise.
    pub fn choose(n: usize) -> Pow2Kernel {
        Pow2Kernel::env_override().unwrap_or_else(|| Pow2Kernel::heuristic(n))
    }

    /// Whether this kernel has a split-complex (SoA) engine. The recursive
    /// split-radix kernel does not: its strided leaf gathers and
    /// conjugate-pair index wraps defeat the plane kernels (a plane mirror
    /// measured 0.68–1.10× its AoS sibling), so every split-radix layout
    /// resolves AoS.
    fn has_soa_engine(self) -> bool {
        self != Pow2Kernel::SplitRadix
    }
}

/// A canonical, hashable description of one FFT plan: size and direction
/// plus every planner knob, each either pinned explicitly (the builder
/// tier) or left `None` for the env/heuristic tiers to fill.
///
/// `FftSpec` is the raw-FFT half of the unified spec API; the protected
/// plans in `ftfft-core` wrap it in a `PlanSpec` that adds the scheme and
/// threshold knobs. Resolution order is **explicit > env/forced >
/// heuristic**, applied by [`FftSpec::resolve`] when the plan is built —
/// after construction a plan never re-reads the environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FftSpec {
    /// Transform size (`n ≥ 1`).
    pub n: usize,
    /// Transform direction.
    pub dir: Direction,
    /// Power-of-two kernel; `None` defers to `FTFFT_KERNEL`, then the
    /// size heuristic.
    pub kernel: Option<Pow2Kernel>,
    /// Data layout; `None` defers to `force_layout`/`FTFFT_LAYOUT`, then
    /// the size heuristic. Split-radix has no SoA engine, so resolution
    /// sets its layout to [`Layout::Aos`] whichever tier chose it.
    pub layout: Option<Layout>,
    /// Execution strategy; `None` defers to
    /// `force_strategy`/`FTFFT_STRATEGY`, then [`Strategy::Auto`].
    pub strategy: Option<Strategy>,
    /// Worker count for the parallel strategy; `None` defers to
    /// `FTFFT_THREADS`, then hardware parallelism.
    pub threads: Option<usize>,
}

impl FftSpec {
    /// A spec with every knob unset: resolution reproduces exactly what
    /// [`FftPlan::new`] picks.
    pub fn new(n: usize, dir: Direction) -> FftSpec {
        FftSpec { n, dir, kernel: None, layout: None, strategy: None, threads: None }
    }

    /// Pins the power-of-two kernel.
    pub fn with_kernel(mut self, kernel: Pow2Kernel) -> FftSpec {
        self.kernel = Some(kernel);
        self
    }

    /// Pins the data layout.
    pub fn with_layout(mut self, layout: Layout) -> FftSpec {
        self.layout = Some(layout);
        self
    }

    /// Pins the execution strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> FftSpec {
        self.strategy = Some(strategy);
        self
    }

    /// Pins the worker count.
    pub fn with_threads(mut self, threads: usize) -> FftSpec {
        self.threads = Some(threads.max(1));
        self
    }

    /// The env/forced tier of resolution: fills every still-unset knob
    /// from its `FTFFT_*` variable or `force_*` override (and the thread
    /// count from `FTFFT_THREADS`/hardware parallelism), leaving knobs
    /// with no override unset for the heuristic tier. This is the single
    /// point where the environment enters spec resolution; explicit
    /// builder choices are never overwritten.
    pub fn from_env_overrides(mut self) -> FftSpec {
        if is_power_of_two(self.n) {
            self.kernel = self.kernel.or_else(Pow2Kernel::env_override);
            self.layout = self.layout.or_else(Layout::env_or_forced);
            self.strategy = self.strategy.or_else(Strategy::env_or_forced);
        }
        self.threads = self.threads.or_else(|| Some(resolve_threads(None)));
        self
    }

    /// Full resolution: [`FftSpec::from_env_overrides`], then the planner
    /// heuristics fill whatever is still unset. The result is canonical —
    /// every knob that matters for the built plan is `Some`, and knobs
    /// that cannot matter are cleared or pinned (`kernel`/`layout` under
    /// the parallel strategy, all three for non-power-of-two sizes, the
    /// layout of split-radix to AoS), so equal resolved specs build
    /// identical plans.
    pub fn resolve(self) -> FftSpec {
        let mut s = self.from_env_overrides();
        if !is_power_of_two(s.n) {
            s.kernel = None;
            s.layout = None;
            s.strategy = None;
            return s;
        }
        let threads = s.threads.unwrap_or(1);
        let strategy = s.strategy.unwrap_or(Strategy::Auto);
        let strategy = if strategy.picks_parallel(s.n, threads) {
            Strategy::Parallel
        } else {
            Strategy::Serial
        };
        s.strategy = Some(strategy);
        if strategy == Strategy::Parallel {
            s.kernel = None;
            s.layout = None;
            return s;
        }
        let kernel = s.kernel.unwrap_or_else(|| Pow2Kernel::heuristic_for(s.n, s.layout));
        s.kernel = Some(kernel);
        s.layout = Some(if kernel.has_soa_engine() {
            s.layout.unwrap_or_else(|| Layout::heuristic(kernel, s.n))
        } else {
            Layout::Aos
        });
        s
    }
}

#[derive(Clone, Debug)]
enum Kernel {
    /// The table, and the bit-reversal store order of the gathered entry.
    Radix2(TwiddleTable, Vec<u32>),
    /// The table, and the bit-reversal store order of the gathered entry.
    Radix4(TwiddleTable, Vec<u32>),
    SplitRadix(TwiddleTable),
    Radix2Soa(SoaRadix2Twiddles),
    Radix4Soa(SoaRadix4Twiddles),
    Mixed(MixedPlan),
    Bluestein(BluesteinPlan),
    ParallelDit(ParallelDitPlan),
}

/// An executable FFT plan for one size and direction.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    dir: Direction,
    kernel: Kernel,
}

impl FftPlan {
    /// Plans the transform described by `spec`: unset knobs are filled
    /// from the `FTFFT_*` environment and the planner heuristics by
    /// [`FftSpec::resolve`] — exactly once, here — then the plan is built
    /// with every choice pinned. This is the primary constructor.
    ///
    /// # Panics
    /// Panics if `spec.n == 0`, or if an explicit kernel/layout is pinned
    /// for a non-power-of-two size.
    pub fn from_spec(spec: &FftSpec) -> Self {
        assert!(spec.n > 0, "cannot plan a 0-point FFT");
        if !is_power_of_two(spec.n) {
            assert!(
                spec.kernel.is_none() && spec.layout.is_none(),
                "explicit kernel/layout needs a power of two, got {}",
                spec.n
            );
        }
        let r = spec.resolve();
        if is_power_of_two(r.n) {
            if r.strategy == Some(Strategy::Parallel) {
                let threads = r.threads.unwrap_or(1);
                let kernel = Kernel::ParallelDit(ParallelDitPlan::new(r.n, r.dir, threads));
                return FftPlan { n: r.n, dir: r.dir, kernel };
            }
            Self::new_with_kernel_layout(
                r.n,
                r.dir,
                r.kernel.expect("resolved serial spec pins a kernel"),
                r.layout.expect("resolved serial spec pins a layout"),
            )
        } else if is_smooth(r.n, SMOOTH_LIMIT) {
            FftPlan { n: r.n, dir: r.dir, kernel: Kernel::Mixed(MixedPlan::new(r.n, r.dir)) }
        } else {
            FftPlan {
                n: r.n,
                dir: r.dir,
                kernel: Kernel::Bluestein(BluesteinPlan::new(r.n, r.dir)),
            }
        }
    }

    /// Plans a transform of size `n ≥ 1` with every knob resolved by the
    /// env overrides and heuristics — shorthand for
    /// [`FftPlan::from_spec`] on [`FftSpec::new`]: single large
    /// power-of-two transforms go to the two-halves parallel DIT when
    /// more than one worker is available, everything else to the fastest
    /// serial kernel for the size.
    pub fn new(n: usize, dir: Direction) -> Self {
        Self::from_spec(&FftSpec::new(n, dir))
    }

    /// Builds a serial power-of-two plan for a resolved `(kernel, layout)`
    /// pair (split-radix is always AoS after [`FftSpec::resolve`]).
    fn new_with_kernel_layout(
        n: usize,
        dir: Direction,
        kernel: Pow2Kernel,
        layout: Layout,
    ) -> Self {
        let table = TwiddleTable::new(n, dir);
        let kernel = match (kernel, layout) {
            (Pow2Kernel::Radix2, Layout::Aos) => Kernel::Radix2(table, bit_reverse_table(n)),
            (Pow2Kernel::Radix4, Layout::Aos) => Kernel::Radix4(table, bit_reverse_table(n)),
            (Pow2Kernel::Radix2, Layout::Soa) => Kernel::Radix2Soa(SoaRadix2Twiddles::new(&table)),
            (Pow2Kernel::Radix4, Layout::Soa) => Kernel::Radix4Soa(SoaRadix4Twiddles::new(&table)),
            (Pow2Kernel::SplitRadix, _) => Kernel::SplitRadix(table),
        };
        FftPlan { n, dir, kernel }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (`n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transform direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The kernel this plan dispatches to (`"radix2"`, `"radix4"`,
    /// `"split-radix"`, `"mixed"`, or `"bluestein"`).
    pub fn kernel_name(&self) -> &'static str {
        match &self.kernel {
            Kernel::Radix2(..) | Kernel::Radix2Soa(_) => Pow2Kernel::Radix2.name(),
            Kernel::Radix4(..) | Kernel::Radix4Soa(_) => Pow2Kernel::Radix4.name(),
            Kernel::SplitRadix(_) => Pow2Kernel::SplitRadix.name(),
            Kernel::Mixed(_) => "mixed",
            Kernel::Bluestein(_) => "bluestein",
            Kernel::ParallelDit(_) => "parallel-dit",
        }
    }

    /// Worker count for the parallel-DIT strategy (`None` for the serial
    /// kernels).
    pub fn strategy_threads(&self) -> Option<usize> {
        match &self.kernel {
            Kernel::ParallelDit(p) => Some(p.threads()),
            _ => None,
        }
    }

    /// The data layout this plan executes in (non-power-of-two kernels are
    /// always [`Layout::Aos`]).
    pub fn layout(&self) -> Layout {
        match &self.kernel {
            Kernel::Radix2Soa(_) | Kernel::Radix4Soa(_) => Layout::Soa,
            _ => Layout::Aos,
        }
    }

    /// Stable name of [`layout`](FftPlan::layout) (`"soa"` / `"aos"`).
    pub fn layout_name(&self) -> &'static str {
        self.layout().name()
    }

    /// `true` when this plan can run directly on split `re[]`/`im[]`
    /// planes via [`execute_split`](FftPlan::execute_split).
    pub fn supports_split(&self) -> bool {
        self.layout() == Layout::Soa
    }

    /// Scratch length required by the execute methods.
    pub fn scratch_len(&self) -> usize {
        match &self.kernel {
            Kernel::Radix2(..) | Kernel::Radix4(..) => 0,
            // Split-radix is out-of-place; in-place runs stage a copy.
            Kernel::SplitRadix(_) => self.n,
            // SoA kernels stage through two plane pairs carved from
            // ordinary complex scratch (n complex = one n-long plane pair).
            Kernel::Radix2Soa(_) | Kernel::Radix4Soa(_) => 2 * self.n,
            // Mixed and Bluestein stage an input copy for in-place runs.
            Kernel::Mixed(p) => self.n + p.scratch_len(),
            Kernel::Bluestein(p) => self.n + p.scratch_len(),
            // The five-phase parallel pipeline stages through two buffers.
            Kernel::ParallelDit(p) => p.scratch_len(),
        }
    }

    /// In-place transform. `scratch.len() ≥ self.scratch_len()`.
    pub fn execute_inplace(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(data.len(), self.n);
        match &self.kernel {
            Kernel::Radix2(t, _) => fft_radix2_inplace(data, t),
            Kernel::Radix4(t, _) => fft_radix4_inplace(data, t),
            Kernel::SplitRadix(t) => fft_split_radix_inplace(data, t, scratch),
            Kernel::Radix2Soa(_) | Kernel::Radix4Soa(_) => {
                let n = self.n;
                let (a, b) = scratch[..2 * n].split_at_mut(n);
                let (a_re, a_im) = simd::planes_mut(a);
                simd::deinterleave(data, a_re, a_im);
                let (b_re, b_im) = simd::planes_mut(b);
                self.execute_split(a_re, a_im, b_re, b_im);
                simd::interleave(b_re, b_im, data);
            }
            Kernel::Mixed(p) => {
                let (copy, rest) = scratch.split_at_mut(self.n);
                copy.copy_from_slice(data);
                p.execute(copy, data, rest);
            }
            Kernel::Bluestein(p) => {
                let (copy, rest) = scratch.split_at_mut(self.n);
                copy.copy_from_slice(data);
                p.execute(copy, data, rest);
            }
            Kernel::ParallelDit(p) => p.execute_inplace(data, scratch),
        }
    }

    /// Out-of-place transform (`dst` and `src` must not alias).
    pub fn execute(&self, src: &[Complex64], dst: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(src.len(), self.n);
        assert_eq!(dst.len(), self.n);
        match &self.kernel {
            Kernel::Radix2(t, _) => {
                dst.copy_from_slice(src);
                fft_radix2_inplace(dst, t);
            }
            Kernel::Radix4(t, _) => {
                dst.copy_from_slice(src);
                fft_radix4_inplace(dst, t);
            }
            Kernel::SplitRadix(t) => fft_split_radix(src, dst, t),
            Kernel::Radix2Soa(_) | Kernel::Radix4Soa(_) => {
                let n = self.n;
                let (a, b) = scratch[..2 * n].split_at_mut(n);
                let (a_re, a_im) = simd::planes_mut(a);
                simd::deinterleave(src, a_re, a_im);
                let (b_re, b_im) = simd::planes_mut(b);
                self.execute_split(a_re, a_im, b_re, b_im);
                simd::interleave(b_re, b_im, dst);
            }
            Kernel::Mixed(p) => p.execute(src, dst, &mut scratch[..p.scratch_len()]),
            Kernel::Bluestein(p) => p.execute(src, dst, scratch),
            Kernel::ParallelDit(p) => p.execute(src, dst, scratch),
        }
    }

    /// Out-of-place transform of the decimation `src[offset + t·stride]`,
    /// `t < n`, into `out` — the buffered sub-FFT of a two-layer
    /// decomposition (§4.4). Bitwise equal to gathering into `out` and
    /// running [`execute_inplace`](FftPlan::execute_inplace), with the
    /// same `scratch` requirement, but it skips passes that pair makes:
    /// the radix-2/4 AoS kernels receive the decimation straight in their
    /// bit-reversed input order (no separate permutation pass), the SoA
    /// kernels receive it straight in split planes, and the out-of-place
    /// kernels gather into their staging copy.
    pub fn execute_gathered(
        &self,
        src: &[Complex64],
        offset: usize,
        stride: usize,
        out: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        self.execute_gathered_with(src, offset, stride, out, scratch, |_, _| {});
    }

    /// [`execute_gathered`](FftPlan::execute_gathered) that also hands
    /// every gathered input block to `visit(t0, block)` in natural `t`
    /// order (blocks of [`crate::strided::GATHER_BLOCK`] elements, the
    /// last may be shorter) before it is stored — the hook a checksum
    /// generation rides to read each input element exactly once.
    pub fn execute_gathered_with(
        &self,
        src: &[Complex64],
        offset: usize,
        stride: usize,
        out: &mut [Complex64],
        scratch: &mut [Complex64],
        mut visit: impl FnMut(usize, &[Complex64]),
    ) {
        let n = self.n;
        assert_eq!(out.len(), n);
        assert!(offset + (n - 1) * stride < src.len(), "decimation overruns src");
        match &self.kernel {
            Kernel::Radix2(t, rev) => {
                gather_reversed(src, offset, stride, rev, out, visit);
                radix2_stages(out, t, 1);
            }
            Kernel::Radix4(t, rev) => {
                gather_reversed(src, offset, stride, rev, out, visit);
                radix4_stages(out, t, 1);
            }
            Kernel::Radix2Soa(_) | Kernel::Radix4Soa(_) => {
                let (a, b) = scratch[..2 * n].split_at_mut(n);
                let (a_re, a_im) = simd::planes_mut(a);
                gather_blocks(src, offset, stride, n, |t0, blk| {
                    visit(t0, blk);
                    for (i, v) in blk.iter().enumerate() {
                        a_re[t0 + i] = v.re;
                        a_im[t0 + i] = v.im;
                    }
                });
                let (b_re, b_im) = simd::planes_mut(b);
                self.execute_split(a_re, a_im, b_re, b_im);
                simd::interleave(b_re, b_im, out);
            }
            Kernel::SplitRadix(t) => {
                let copy = &mut scratch[..n];
                gather_natural(src, offset, stride, copy, visit);
                fft_split_radix(copy, out, t);
            }
            Kernel::Mixed(p) => {
                let (copy, rest) = scratch.split_at_mut(n);
                gather_natural(src, offset, stride, copy, visit);
                p.execute(copy, out, rest);
            }
            Kernel::Bluestein(p) => {
                let (copy, rest) = scratch.split_at_mut(n);
                gather_natural(src, offset, stride, copy, visit);
                p.execute(copy, out, rest);
            }
            Kernel::ParallelDit(p) => {
                gather_natural(src, offset, stride, out, visit);
                p.execute_inplace(out, scratch);
            }
        }
    }

    /// Out-of-place transform directly on split planes, skipping the
    /// boundary conversion — for callers (the protected executors, fused
    /// checksum gathers) that already hold SoA data. `dst` and `src` must
    /// not alias; no scratch is needed.
    ///
    /// # Panics
    /// Panics unless [`supports_split`](FftPlan::supports_split) (the plan
    /// must have been built with [`Layout::Soa`]) or on length mismatch.
    pub fn execute_split(
        &self,
        src_re: &[f64],
        src_im: &[f64],
        dst_re: &mut [f64],
        dst_im: &mut [f64],
    ) {
        match &self.kernel {
            Kernel::Radix2Soa(tw) => fft_radix2_soa(src_re, src_im, dst_re, dst_im, tw),
            Kernel::Radix4Soa(tw) => fft_radix4_soa(src_re, src_im, dst_re, dst_im, tw),
            _ => panic!(
                "execute_split needs an SoA-layout plan (this one is {})",
                self.layout_name()
            ),
        }
    }

    /// Batched out-of-place transform: `src` and `dst` hold `src.len()/n`
    /// back-to-back signals; each is transformed independently with the
    /// single `scratch` buffer reused across the batch (the throughput
    /// API — one plan, one scratch, many transforms).
    ///
    /// # Panics
    /// Panics if `src.len() != dst.len()` or the length is not a multiple
    /// of the plan size.
    pub fn execute_batch(
        &self,
        src: &[Complex64],
        dst: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        assert_eq!(src.len(), dst.len(), "batch src/dst length mismatch");
        assert!(
            src.len().is_multiple_of(self.n),
            "batch length {} is not a multiple of plan size {}",
            src.len(),
            self.n
        );
        for (s, d) in src.chunks_exact(self.n).zip(dst.chunks_exact_mut(self.n)) {
            self.execute(s, d, scratch);
        }
    }

    /// Batched in-place transform over `data.len()/n` back-to-back signals.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the plan size.
    pub fn execute_batch_inplace(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        assert!(
            data.len().is_multiple_of(self.n),
            "batch length {} is not a multiple of plan size {}",
            data.len(),
            self.n
        );
        for chunk in data.chunks_exact_mut(self.n) {
            self.execute_inplace(chunk, scratch);
        }
    }
}

/// Gathers `src[offset + t·stride]` into `out[rev[t]]` — the bit-reversed
/// input order of the iterative kernels — showing each natural-order
/// block to `visit` first.
fn gather_reversed(
    src: &[Complex64],
    offset: usize,
    stride: usize,
    rev: &[u32],
    out: &mut [Complex64],
    mut visit: impl FnMut(usize, &[Complex64]),
) {
    gather_blocks(src, offset, stride, out.len(), |t0, blk| {
        visit(t0, blk);
        for (&r, &v) in rev[t0..t0 + blk.len()].iter().zip(blk) {
            out[r as usize] = v;
        }
    });
}

/// Gathers `src[offset + t·stride]` into `out[t]`, showing each block to
/// `visit` first.
fn gather_natural(
    src: &[Complex64],
    offset: usize,
    stride: usize,
    out: &mut [Complex64],
    mut visit: impl FnMut(usize, &[Complex64]),
) {
    gather_blocks(src, offset, stride, out.len(), |t0, blk| {
        visit(t0, blk);
        out[t0..t0 + blk.len()].copy_from_slice(blk);
    });
}

/// A caching planner: one plan per `(n, direction)`.
#[derive(Default)]
pub struct Planner {
    cache: Mutex<HashMap<(usize, Direction), Arc<FftPlan>>>,
    template: Option<FftSpec>,
}

impl Planner {
    /// Creates an empty planner whose plans resolve every knob from the
    /// env overrides and heuristics.
    pub fn new() -> Self {
        Planner::default()
    }

    /// Creates an empty planner whose plans inherit `template`'s pinned
    /// knobs (kernel, layout, strategy, threads); the template's `n` and
    /// `dir` are replaced per [`Planner::plan`] call, and unset knobs
    /// still resolve per size. This is how a `PlanSpec`'s choices
    /// propagate into every sub-FFT of a decomposition.
    pub fn with_spec(template: FftSpec) -> Self {
        Planner { cache: Mutex::new(HashMap::new()), template: Some(template) }
    }

    /// Returns (building if needed) the plan for `(n, dir)`.
    pub fn plan(&self, n: usize, dir: Direction) -> Arc<FftPlan> {
        let mut cache = self.cache.lock();
        cache
            .entry((n, dir))
            .or_insert_with(|| match self.template {
                Some(t) => Arc::new(FftPlan::from_spec(&FftSpec { n, dir, ..t })),
                None => Arc::new(FftPlan::new(n, dir)),
            })
            .clone()
    }

    /// Number of distinct plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.lock().len()
    }
}

/// One-shot convenience: forward FFT of `x` into a fresh vector.
pub fn fft(x: &[Complex64]) -> Vec<Complex64> {
    run(x, Direction::Forward)
}

/// One-shot convenience: unnormalized inverse FFT of `x`.
pub fn ifft(x: &[Complex64]) -> Vec<Complex64> {
    run(x, Direction::Inverse)
}

fn run(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
    if x.is_empty() {
        return Vec::new();
    }
    let plan = FftPlan::new(x.len(), dir);
    let mut dst = vec![Complex64::ZERO; x.len()];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    plan.execute(x, &mut dst, &mut scratch);
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::dft_naive;
    use ftfft_numeric::{max_abs_diff, uniform_signal};

    /// A forward serial plan with the kernel and layout pinned.
    fn pinned(n: usize, kernel: Pow2Kernel, layout: Layout) -> FftPlan {
        FftPlan::from_spec(
            &FftSpec::new(n, Direction::Forward)
                .with_kernel(kernel)
                .with_layout(layout)
                .with_strategy(Strategy::Serial),
        )
    }

    /// A forward serial plan with the kernel pinned and the layout left to
    /// the env/heuristic tiers.
    fn pinned_kernel(n: usize, kernel: Pow2Kernel) -> FftPlan {
        FftPlan::from_spec(
            &FftSpec::new(n, Direction::Forward)
                .with_kernel(kernel)
                .with_strategy(Strategy::Serial),
        )
    }

    #[test]
    fn plan_dispatch_matches_naive_for_all_kernel_classes() {
        // radix-2, smooth mixed, bluestein (large prime).
        for n in [64usize, 360, 101, 2 * 67 * 3, 997] {
            let x = uniform_signal(n, n as u64);
            let plan = FftPlan::new(n, Direction::Forward);
            let mut dst = vec![Complex64::ZERO; n];
            let mut s = vec![Complex64::ZERO; plan.scratch_len()];
            plan.execute(&x, &mut dst, &mut s);
            let want = dft_naive(&x, Direction::Forward);
            assert!(max_abs_diff(&dst, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn inplace_equals_out_of_place() {
        for n in [128usize, 120, 97] {
            let x = uniform_signal(n, 7);
            let plan = FftPlan::new(n, Direction::Forward);
            let mut s = vec![Complex64::ZERO; plan.scratch_len()];
            let mut oop = vec![Complex64::ZERO; n];
            plan.execute(&x, &mut oop, &mut s);
            let mut ip = x.clone();
            plan.execute_inplace(&mut ip, &mut s);
            assert!(max_abs_diff(&ip, &oop) < 1e-12 * n as f64, "n={n}");
        }
    }

    #[test]
    fn planner_caches() {
        let p = Planner::new();
        let a = p.plan(256, Direction::Forward);
        let b = p.plan(256, Direction::Forward);
        assert!(Arc::ptr_eq(&a, &b));
        let _ = p.plan(256, Direction::Inverse);
        let _ = p.plan(128, Direction::Forward);
        assert_eq!(p.cached_plans(), 3);
    }

    #[test]
    fn explicit_kernels_all_match_naive() {
        for kernel in Pow2Kernel::ALL {
            for n in [2usize, 16, 128, 1024] {
                let x = uniform_signal(n, n as u64);
                let plan = pinned_kernel(n, kernel);
                assert_eq!(plan.kernel_name(), kernel.name());
                let mut dst = vec![Complex64::ZERO; n];
                let mut s = vec![Complex64::ZERO; plan.scratch_len()];
                plan.execute(&x, &mut dst, &mut s);
                let want = dft_naive(&x, Direction::Forward);
                assert!(max_abs_diff(&dst, &want) < 1e-9 * n as f64, "{} n={n}", kernel.name());
            }
        }
    }

    /// Serializes the tests that flip the process-global
    /// [`force_layout`] override *and* assert layout-dependent outcomes,
    /// so they cannot observe each other's transient pins.
    static FORCE_LAYOUT_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn heuristic_covers_every_size_class() {
        let _guard = FORCE_LAYOUT_LOCK.lock();
        assert_eq!(Pow2Kernel::heuristic(2), Pow2Kernel::Radix2);
        assert_eq!(Pow2Kernel::heuristic(8), Pow2Kernel::Radix2);
        assert_eq!(Pow2Kernel::heuristic(16), Pow2Kernel::Radix4);
        assert_eq!(Pow2Kernel::heuristic(1 << 13), Pow2Kernel::Radix4);
        // Large sizes are layout-coupled: with the SoA engine in force
        // (the default), radix-4 over planes beats the AoS split-radix
        // recursion; pinning AoS restores the old split-radix choice.
        force_layout(Some(Layout::Soa));
        assert_eq!(Pow2Kernel::heuristic(1 << 16), Pow2Kernel::Radix4);
        force_layout(Some(Layout::Aos));
        assert_eq!(Pow2Kernel::heuristic(1 << 16), Pow2Kernel::SplitRadix);
        force_layout(None);
    }

    #[test]
    fn layout_heuristic_and_names() {
        assert_eq!(Layout::heuristic(Pow2Kernel::Radix4, 1 << 10), Layout::Aos);
        assert_eq!(Layout::heuristic(Pow2Kernel::Radix4, 1 << 12), Layout::Soa);
        // Radix-2 crosses over one octave later than radix-4: 2¹² is a
        // coin-flip cell on the reference box, and the heuristic must
        // never pick a cell that can lose to its sibling.
        assert_eq!(Layout::heuristic(Pow2Kernel::Radix2, 1 << 12), Layout::Aos);
        assert_eq!(Layout::heuristic(Pow2Kernel::Radix2, 1 << 13), Layout::Soa);
        assert_eq!(Layout::heuristic(Pow2Kernel::Radix2, 1 << 16), Layout::Soa);
        assert_eq!(Layout::heuristic(Pow2Kernel::SplitRadix, 1 << 20), Layout::Aos);
        for l in Layout::ALL {
            assert_eq!(Layout::parse(l.name()), Some(l));
        }
        assert_eq!(Layout::parse("AOS"), Some(Layout::Aos));
        assert_eq!(Layout::parse("planes"), None);
    }

    #[test]
    fn batch_break_even_shape() {
        // Monotone non-increasing in n: bigger transforms amortize the
        // linear sweeps sooner.
        let mut prev = usize::MAX;
        for log2n in [4u32, 8, 10, 12, 14, 16, 20] {
            let b = batch_break_even(1 << log2n);
            assert!((2..=16).contains(&b), "B={b} at 2^{log2n}");
            assert!(b <= prev, "break-even must not grow with n");
            prev = b;
        }
        // The acceptance point: a coalesced batch of 8 frame-sized
        // transforms must qualify for the joint scheme.
        assert!(batch_break_even(1 << 10) <= 8);
        // Degenerate sizes stay in range instead of dividing by ~zero.
        assert_eq!(batch_break_even(1), 16);
    }

    #[test]
    fn soa_layout_plans_execute_bitwise_equal_to_aos() {
        for kernel in Pow2Kernel::ALL {
            for n in [4usize, 64, 512, 4096] {
                let x = uniform_signal(n, n as u64 + 9);
                let mut outs = Vec::new();
                for layout in Layout::ALL {
                    let plan = pinned(n, kernel, layout);
                    // Split-radix has no SoA engine: both pins build AoS.
                    let want = if kernel == Pow2Kernel::SplitRadix { Layout::Aos } else { layout };
                    assert_eq!(plan.layout(), want);
                    assert_eq!(plan.supports_split(), want == Layout::Soa);
                    assert_eq!(plan.kernel_name(), kernel.name());
                    let mut dst = vec![Complex64::ZERO; n];
                    let mut s = vec![Complex64::ZERO; plan.scratch_len()];
                    plan.execute(&x, &mut dst, &mut s);
                    let mut ip = x.clone();
                    plan.execute_inplace(&mut ip, &mut s);
                    assert_eq!(ip, dst, "{} {} n={n} in-place", kernel.name(), layout.name());
                    outs.push(dst);
                }
                assert_eq!(outs[0], outs[1], "{} n={n} layouts disagree", kernel.name());
            }
        }
    }

    #[test]
    fn execute_split_skips_boundary_conversion() {
        let n = 1 << 9;
        let x = uniform_signal(n, 31);
        let plan = pinned(n, Pow2Kernel::Radix4, Layout::Soa);
        let mut want = vec![Complex64::ZERO; n];
        let mut s = vec![Complex64::ZERO; plan.scratch_len()];
        plan.execute(&x, &mut want, &mut s);

        let src_re: Vec<f64> = x.iter().map(|z| z.re).collect();
        let src_im: Vec<f64> = x.iter().map(|z| z.im).collect();
        let mut dre = vec![0.0; n];
        let mut dim = vec![0.0; n];
        plan.execute_split(&src_re, &src_im, &mut dre, &mut dim);
        for i in 0..n {
            assert_eq!((dre[i], dim[i]), (want[i].re, want[i].im), "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "execute_split needs an SoA-layout plan")]
    fn execute_split_rejects_aos_plans() {
        let plan = pinned(16, Pow2Kernel::Radix2, Layout::Aos);
        let re = vec![0.0; 16];
        let im = vec![0.0; 16];
        let mut dre = vec![0.0; 16];
        let mut dim = vec![0.0; 16];
        plan.execute_split(&re, &im, &mut dre, &mut dim);
    }

    #[test]
    fn split_radix_layout_is_pinned_aos_in_choose() {
        // The pin precedes the forcing and env checks, so it holds under
        // any FTFFT_LAYOUT and any concurrent force_layout call.
        assert_eq!(Layout::choose(Pow2Kernel::SplitRadix, 1 << 16), Layout::Aos);
        assert_eq!(Layout::choose(Pow2Kernel::SplitRadix, 1 << 20), Layout::Aos);
    }

    #[test]
    fn strategy_names_round_trip_and_heuristic() {
        for s in [Strategy::Auto, Strategy::Serial, Strategy::Parallel] {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
        assert_eq!(Strategy::parse("PARALLEL"), Some(Strategy::Parallel));
        assert_eq!(Strategy::parse("threads"), None);
        assert!(!Strategy::Serial.picks_parallel(1 << 20, 8));
        assert!(Strategy::Parallel.picks_parallel(1 << 4, 1));
        assert!(Strategy::Auto.picks_parallel(PARALLEL_MIN, 2));
        assert!(!Strategy::Auto.picks_parallel(PARALLEL_MIN, 1));
        assert!(!Strategy::Auto.picks_parallel(PARALLEL_MIN / 2, 8));
    }

    #[test]
    fn force_strategy_overrides_env_and_heuristic() {
        // The override must beat both the heuristic (Auto would say
        // serial at this tiny size) and whatever FTFFT_STRATEGY the
        // surrounding test run exported. Restore the default before
        // returning so concurrent tests see no lasting pin (both
        // strategies are bitwise-identical, so a transient flip is
        // harmless to them).
        force_strategy(Some(Strategy::Parallel));
        assert_eq!(Strategy::choose(), Strategy::Parallel);
        force_strategy(Some(Strategy::Serial));
        assert_eq!(Strategy::choose(), Strategy::Serial);
        force_strategy(None);
    }

    #[test]
    fn parallel_plan_dispatches_and_matches_serial_radix2() {
        let n = 1 << 10;
        let x = uniform_signal(n, 5);
        let serial = pinned(n, Pow2Kernel::Radix2, Layout::Aos);
        let mut want = vec![Complex64::ZERO; n];
        let mut s = vec![Complex64::ZERO; serial.scratch_len()];
        serial.execute(&x, &mut want, &mut s);
        for threads in [1usize, 4] {
            let plan = FftPlan::from_spec(
                &FftSpec::new(n, Direction::Forward)
                    .with_strategy(Strategy::Parallel)
                    .with_threads(threads),
            );
            assert_eq!(plan.kernel_name(), "parallel-dit");
            assert_eq!(plan.layout(), Layout::Aos);
            assert!(!plan.supports_split());
            assert_eq!(plan.strategy_threads(), Some(threads));
            let mut dst = vec![Complex64::ZERO; n];
            let mut s = vec![Complex64::ZERO; plan.scratch_len()];
            plan.execute(&x, &mut dst, &mut s);
            assert_eq!(dst, want, "threads={threads}");
            let mut ip = x.clone();
            plan.execute_inplace(&mut ip, &mut s);
            assert_eq!(ip, want, "threads={threads} in-place");
        }
    }

    #[test]
    fn spec_resolution_prefers_explicit_over_heuristic() {
        // Heuristic at 2^16 would pick radix-4 (SoA engine in force by
        // default); an explicit builder kernel wins.
        let spec = FftSpec::new(1 << 16, Direction::Forward)
            .with_kernel(Pow2Kernel::Radix2)
            .with_strategy(Strategy::Serial);
        let r = spec.resolve();
        assert_eq!(r.kernel, Some(Pow2Kernel::Radix2));
        assert_eq!(r.strategy, Some(Strategy::Serial));
        assert!(r.layout.is_some() && r.threads.is_some(), "resolution is total");
    }

    #[test]
    fn spec_resolution_honors_forced_tier_only_when_unset() {
        // force_layout sits in the env/forced tier: it fills an unset
        // layout but must not overwrite an explicit builder layout.
        let _guard = FORCE_LAYOUT_LOCK.lock();
        force_layout(Some(Layout::Aos));
        let forced = FftSpec::new(1 << 12, Direction::Forward)
            .with_kernel(Pow2Kernel::Radix4)
            .with_strategy(Strategy::Serial)
            .resolve();
        assert_eq!(forced.layout, Some(Layout::Aos));
        let explicit = FftSpec::new(1 << 12, Direction::Forward)
            .with_kernel(Pow2Kernel::Radix4)
            .with_layout(Layout::Soa)
            .with_strategy(Strategy::Serial)
            .resolve();
        assert_eq!(explicit.layout, Some(Layout::Soa));
        force_layout(None);
    }

    #[test]
    fn spec_resolution_is_idempotent_and_canonical() {
        for n in [8usize, 1 << 12, 1 << 19, 360, 997] {
            let r = FftSpec::new(n, Direction::Forward).resolve();
            assert_eq!(r, r.resolve(), "n={n} resolve must be a fixpoint");
            if !is_power_of_two(n) {
                assert_eq!((r.kernel, r.layout, r.strategy), (None, None, None), "n={n}");
            }
        }
        // Parallel resolutions clear the serial-only knobs so equal
        // resolved specs build identical plans.
        let par = FftSpec::new(1 << 10, Direction::Forward)
            .with_strategy(Strategy::Parallel)
            .with_threads(2)
            .resolve();
        assert_eq!(par.strategy, Some(Strategy::Parallel));
        assert_eq!((par.kernel, par.layout), (None, None));
    }

    #[test]
    fn split_radix_layouts_resolve_to_one_aos_plan() {
        // Split-radix has no SoA engine, so an explicit SoA pin resolves
        // exactly like an explicit AoS pin — whatever FTFFT_LAYOUT says.
        let spec = |layout| {
            FftSpec::new(1 << 10, Direction::Forward)
                .with_kernel(Pow2Kernel::SplitRadix)
                .with_layout(layout)
                .with_strategy(Strategy::Serial)
        };
        let (soa, aos) = (spec(Layout::Soa).resolve(), spec(Layout::Aos).resolve());
        assert_eq!(soa, aos);
        assert_eq!(soa.layout, Some(Layout::Aos));
        let (a, b) =
            (FftPlan::from_spec(&spec(Layout::Soa)), FftPlan::from_spec(&spec(Layout::Aos)));
        assert_eq!(a.kernel_name(), b.kernel_name());
        assert_eq!(a.layout(), b.layout());
        assert_eq!(a.layout(), Layout::Aos);
    }

    #[test]
    fn planner_with_spec_pins_sub_plan_knobs() {
        let template = FftSpec::new(0, Direction::Forward)
            .with_kernel(Pow2Kernel::Radix2)
            .with_layout(Layout::Aos)
            .with_strategy(Strategy::Serial);
        let p = Planner::with_spec(template);
        for n in [64usize, 4096] {
            let plan = p.plan(n, Direction::Forward);
            assert_eq!(plan.kernel_name(), "radix2", "n={n}");
            assert_eq!(plan.layout(), Layout::Aos, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "needs a power of two")]
    fn from_spec_rejects_explicit_kernel_for_non_pow2() {
        let _ = FftPlan::from_spec(
            &FftSpec::new(360, Direction::Forward).with_kernel(Pow2Kernel::Radix4),
        );
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in Pow2Kernel::ALL {
            assert_eq!(Pow2Kernel::parse(k.name()), Some(k));
        }
        assert_eq!(Pow2Kernel::parse("split_radix"), Some(Pow2Kernel::SplitRadix));
        assert_eq!(Pow2Kernel::parse("SPLITRADIX"), Some(Pow2Kernel::SplitRadix));
        assert_eq!(Pow2Kernel::parse("radix8"), None);
    }

    #[test]
    fn batch_equals_looped_execute() {
        for kernel in Pow2Kernel::ALL {
            let n = 256;
            let batch = 5;
            let plan = pinned_kernel(n, kernel);
            let src = uniform_signal(n * batch, 11);
            let mut s = vec![Complex64::ZERO; plan.scratch_len()];

            let mut batched = vec![Complex64::ZERO; n * batch];
            plan.execute_batch(&src, &mut batched, &mut s);

            let mut looped = vec![Complex64::ZERO; n * batch];
            for (xs, ys) in src.chunks_exact(n).zip(looped.chunks_exact_mut(n)) {
                plan.execute(xs, ys, &mut s);
            }
            assert_eq!(batched, looped, "{}", kernel.name());

            let mut inplace = src.clone();
            plan.execute_batch_inplace(&mut inplace, &mut s);
            assert_eq!(inplace, looped, "{} in-place", kernel.name());
        }
    }

    #[test]
    fn batch_handles_non_power_of_two_plans() {
        let n = 60; // mixed-radix path
        let plan = FftPlan::new(n, Direction::Forward);
        let src = uniform_signal(n * 3, 2);
        let mut s = vec![Complex64::ZERO; plan.scratch_len()];
        let mut dst = vec![Complex64::ZERO; n * 3];
        plan.execute_batch(&src, &mut dst, &mut s);
        for (xs, ys) in src.chunks_exact(n).zip(dst.chunks_exact(n)) {
            let want = dft_naive(xs, Direction::Forward);
            assert!(max_abs_diff(ys, &want) < 1e-9 * n as f64);
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn batch_rejects_ragged_length() {
        let plan = FftPlan::new(16, Direction::Forward);
        let src = vec![Complex64::ZERO; 24];
        let mut dst = vec![Complex64::ZERO; 24];
        plan.execute_batch(&src, &mut dst, &mut []);
    }

    #[test]
    fn convenience_round_trip() {
        let x = uniform_signal(48, 3);
        let y = fft(&x);
        let mut z = ifft(&y);
        crate::direction::normalize(&mut z);
        assert!(max_abs_diff(&z, &x) < 1e-11);
        assert!(fft(&[]).is_empty());
    }
}
