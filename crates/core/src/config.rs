//! Scheme selection and executor configuration, and the canonical
//! [`PlanSpec`] every protected plan is built from.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU8, Ordering};

use ftfft_fft::{resolve_threads, Direction, FftSpec, Layout, Pow2Kernel, Strategy};
use ftfft_numeric::{simd_level, SimdLevel};

/// Which fault-tolerance scheme wraps the FFT.
///
/// The names mirror the bars of Fig 7 and the rows of Tables 1/5/6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unprotected two-layer FFT — the "FFTW" baseline.
    Plain,
    /// Algorithm 1 with naive (`sin`/`cos` per element) checksum-vector
    /// generation — Fig 7's "Offline" bar.
    OfflineNaive,
    /// Algorithm 1 with the optimized closed-form generator —
    /// "Opt-Offline", computational FT only.
    Offline,
    /// Algorithm 2 without the §4 optimizations — "CFTO-Online":
    /// strided checksum passes and a separate column-wise twiddle stage.
    OnlineComp,
    /// Algorithm 2 with the §4 optimizations (buffered gathers, fused
    /// row-wise twiddle DMR) — "Opt-Online", computational FT only.
    OnlineCompOpt,
    /// Offline scheme with combined memory checksums on input/output —
    /// "Opt-Offline" of Fig 7(b) / Table 1.
    OfflineMem,
    /// Online scheme with the *unoptimized* memory hierarchy of Fig 2
    /// (classic r₁/r₂ checksums, separate MCG/MCV at every stage) —
    /// "Online" of Fig 7(b).
    OnlineMem,
    /// Online scheme with the optimized hierarchy of Fig 3 (§4.1 combined
    /// checksums, §4.2 postponing, §4.3 incremental slots, §4.4 buffering)
    /// — "Opt-Online" of Fig 7(b) / Tables 1, 5, 6.
    OnlineMemOpt,
    /// Batch-level two-sided checksums (TurboFFT-style, beyond the
    /// paper): `B` same-size transforms run *plain* and a weighted input
    /// combination is transformed alongside them; the linearity identity
    /// `FFT(Σ wᵢxᵢ) = Σ wᵢFFT(xᵢ)` detects any computational error at
    /// O(n) cost per member, a second (lazily built, fault-path-only)
    /// weighted combination gives the two-sided residual ratio that
    /// localizes the faulty member, and only implicated members are
    /// recomputed under [`Scheme::OnlineCompOpt`]. Amortizes protection
    /// across the batch — clean-path overhead `(B+1)/B + O(1/log n)`
    /// instead of the per-transform ~1.7×.
    BatchChecksum,
}

impl Scheme {
    /// `true` for schemes that detect errors before the transform finishes.
    /// The batch scheme is *not* online: like the offline schemes it
    /// verifies after its transforms complete (once per batch).
    pub fn is_online(self) -> bool {
        matches!(
            self,
            Scheme::OnlineComp | Scheme::OnlineCompOpt | Scheme::OnlineMem | Scheme::OnlineMemOpt
        )
    }

    /// `true` for schemes that also protect stored data against memory
    /// faults (not just computational errors).
    pub fn protects_memory(self) -> bool {
        matches!(self, Scheme::OfflineMem | Scheme::OnlineMem | Scheme::OnlineMemOpt)
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Plain => "FFTW",
            Scheme::OfflineNaive => "Offline",
            Scheme::Offline => "Opt-Offline",
            Scheme::OnlineComp => "CFTO-Online",
            Scheme::OnlineCompOpt => "Opt-Online",
            Scheme::OfflineMem => "Opt-Offline(m)",
            Scheme::OnlineMem => "Online(m)",
            Scheme::OnlineMemOpt => "Opt-Online(m)",
            Scheme::BatchChecksum => "Batch-Checksum",
        }
    }

    /// Stable lowercase name (accepted back by [`Scheme::parse`] — the
    /// loadgen harness' `--schemes` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Plain => "plain",
            Scheme::OfflineNaive => "offline-naive",
            Scheme::Offline => "offline",
            Scheme::OnlineComp => "online-comp",
            Scheme::OnlineCompOpt => "online-comp-opt",
            Scheme::OfflineMem => "offline-mem",
            Scheme::OnlineMem => "online-mem",
            Scheme::OnlineMemOpt => "online-mem-opt",
            Scheme::BatchChecksum => "batch",
        }
    }

    /// Parses a scheme name (accepts `-`/`_` interchangeably).
    pub fn parse(name: &str) -> Option<Scheme> {
        let name = name.to_ascii_lowercase().replace('_', "-");
        Scheme::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// All schemes, in Fig 7 presentation order (the batch scheme, which
    /// is beyond the paper's figures, comes last).
    pub const ALL: [Scheme; 9] = [
        Scheme::Plain,
        Scheme::OfflineNaive,
        Scheme::Offline,
        Scheme::OnlineComp,
        Scheme::OnlineCompOpt,
        Scheme::OfflineMem,
        Scheme::OnlineMem,
        Scheme::OnlineMemOpt,
        Scheme::BatchChecksum,
    ];
}

/// Environment variable selecting the *default* protection scheme
/// (consulted by [`PlanSpec::from_env_overrides`]): any [`Scheme::name`]
/// (`-`/`_` interchangeable); `auto` and the empty string defer. Like the
/// planner's `FTFFT_*` knobs it fills the default only — a spec whose
/// scheme was set to anything other than [`Scheme::Plain`] is never
/// overridden, so protected A/B harnesses and scheme-specific tests keep
/// their explicit choices while `FTFFT_SCHEME=batch` re-runs every
/// default-configured (plain) plan under batch protection.
pub const SCHEME_ENV: &str = "FTFFT_SCHEME";

/// 0 = no override, else 1 + index into [`Scheme::ALL`].
static FORCED_SCHEME: AtomicU8 = AtomicU8::new(0);

/// Serializes this crate's tests that flip a process-global `force_*`
/// override with the ones that resolve a spec twice and compare, so none
/// of them observes another's transient pin.
#[cfg(test)]
pub(crate) static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Process-wide default-scheme override: `Some(s)` makes every
/// subsequently-resolved spec whose scheme is still [`Scheme::Plain`]
/// use `s` regardless of [`SCHEME_ENV`] (`None` re-enables env).
/// Intended for tests — mutating the process environment is racy under
/// the parallel test runner.
pub fn force_scheme(scheme: Option<Scheme>) {
    let v = match scheme {
        None => 0,
        Some(s) => {
            1 + Scheme::ALL.iter().position(|x| *x == s).expect("scheme is in Scheme::ALL") as u8
        }
    };
    FORCED_SCHEME.store(v, Ordering::Relaxed);
}

/// The override tier of default-scheme resolution: a [`force_scheme`]
/// pin first, then [`SCHEME_ENV`] (panicking on an unknown name — a
/// silent typo would invalidate a forced-scheme CI leg).
fn scheme_env_or_forced() -> Option<Scheme> {
    match FORCED_SCHEME.load(Ordering::Relaxed) {
        0 => {}
        v => return Some(Scheme::ALL[(v - 1) as usize]),
    }
    match std::env::var(SCHEME_ENV) {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "auto" | "" => None,
            other => Some(
                Scheme::parse(other)
                    .unwrap_or_else(|| panic!("{SCHEME_ENV}={v:?} is not a scheme name")),
            ),
        },
        Err(_) => None,
    }
}

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct FtConfig {
    /// Scheme to run.
    pub scheme: Scheme,
    /// Bound on recomputations of any one protected part before the run is
    /// declared uncorrectable (the paper's `while` loops retry forever;
    /// transient-fault semantics make a small bound equivalent).
    pub max_retries: u32,
    /// Multiplier applied to all model thresholds (empirical calibration).
    /// The input scale needs no knob: every execution measures σ̂ from its
    /// own input and evaluates the §8 model there.
    pub threshold_scale: f64,
    /// Explicit first-layer count `k` (None = balanced split).
    pub split_k: Option<usize>,
    /// Second-part batch size `s` (k-point FFTs per verification group in
    /// the memory hierarchies).
    pub batch_s: usize,
    /// Worker count for the pooled executors (`ftfft_parallel::PooledFtFft`):
    /// `None` defers to the `FTFFT_THREADS` environment variable, falling
    /// back to the machine's available parallelism. Plain `execute` ignores
    /// this and stays single-threaded.
    pub threads: Option<usize>,
}

impl FtConfig {
    /// Defaults for a scheme: 3 retries, no scaling, balanced split,
    /// `s = 8`.
    pub fn new(scheme: Scheme) -> Self {
        FtConfig {
            scheme,
            max_retries: 3,
            threshold_scale: 1.0,
            split_k: None,
            batch_s: 8,
            threads: None,
        }
    }

    /// Overrides the threshold scale factor.
    pub fn with_threshold_scale(mut self, s: f64) -> Self {
        self.threshold_scale = s;
        self
    }

    /// Overrides the split.
    pub fn with_split_k(mut self, k: usize) -> Self {
        self.split_k = Some(k);
        self
    }

    /// Overrides the retry bound.
    pub fn with_max_retries(mut self, r: u32) -> Self {
        self.max_retries = r;
        self
    }

    /// Pins the pooled-executor worker count (overrides `FTFFT_THREADS`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }
}

/// The canonical description of a protected FFT plan — size, direction,
/// scheme, every planner knob, and every threshold knob — and the single
/// public way to configure one: build it with [`PlanSpec::builder`], then
/// hand it to any `from_spec` constructor (`FtFftPlan`, `RealFtFftPlan`,
/// the stream plans) or to the `ftfft-service` layer, which uses the
/// resolved spec as its plan-cache key.
///
/// Unset knobs resolve in the fixed order **explicit builder > env/forced
/// override > heuristic**, applied once at plan-build time by
/// [`PlanSpec::resolve`] — a built plan never re-reads the environment.
/// `Hash`/`Eq` are bit-exact (the `f64` threshold scale compares by bits),
/// so two specs are equal exactly when they build interchangeable plans.
#[derive(Clone, Copy, Debug)]
pub struct PlanSpec {
    n: usize,
    dir: Direction,
    scheme: Scheme,
    kernel: Option<Pow2Kernel>,
    layout: Option<Layout>,
    threads: Option<usize>,
    /// SIMD dispatch level recorded at resolution (`FTFFT_SIMD` routes
    /// through the same process-global detection every kernel uses; the
    /// spec records it so cache keys and telemetry distinguish runs, not
    /// to steer per-plan dispatch — that is process-wide by design).
    simd: Option<SimdLevel>,
    max_retries: u32,
    batch_s: usize,
    split_k: Option<usize>,
    threshold_scale: f64,
}

impl PlanSpec {
    /// Starts a builder for an `n`-point forward transform of the
    /// unprotected [`Scheme::Plain`]; every other knob starts at the
    /// [`FtConfig::new`] defaults.
    pub fn builder(n: usize) -> PlanSpecBuilder {
        PlanSpecBuilder {
            spec: PlanSpec::from_config(n, Direction::Forward, FtConfig::new(Scheme::Plain)),
        }
    }

    /// Bridges a legacy [`FtConfig`] into a spec — what the thin
    /// `FtFftPlan::new`-style wrappers call.
    pub fn from_config(n: usize, dir: Direction, cfg: FtConfig) -> PlanSpec {
        PlanSpec {
            n,
            dir,
            scheme: cfg.scheme,
            kernel: None,
            layout: None,
            threads: cfg.threads,
            simd: None,
            max_retries: cfg.max_retries,
            batch_s: cfg.batch_s,
            split_k: cfg.split_k,
            threshold_scale: cfg.threshold_scale,
        }
    }

    /// The env/forced tier, and the **single point where the `FTFFT_*`
    /// environment enters protected-plan resolution**: fills every
    /// still-unset planner knob from `FTFFT_KERNEL` / `FTFFT_LAYOUT` (via
    /// [`FftSpec::from_env_overrides`], which also honors the `force_*`
    /// test overrides), the pooled executors' worker count from
    /// `FTFFT_THREADS` / hardware parallelism ([`resolve_threads`]), and
    /// records the `FTFFT_SIMD`-resolved dispatch level. Explicit builder
    /// choices are never overwritten; knobs with no override stay unset
    /// for the per-sub-plan heuristics.
    pub fn from_env_overrides(mut self) -> PlanSpec {
        let f = self.fft_template().from_env_overrides();
        self.kernel = f.kernel;
        self.layout = f.layout;
        self.threads = self.threads.or_else(|| Some(resolve_threads(None)));
        self.simd = self.simd.or_else(|| Some(simd_level()));
        // The scheme knob has no unset state, so [`Scheme::Plain`] (the
        // builder default) is what "unset" looks like: `FTFFT_SCHEME` /
        // `force_scheme` fill it, and any explicitly-protected choice
        // wins over the environment like every other knob.
        if self.scheme == Scheme::Plain {
            if let Some(s) = scheme_env_or_forced() {
                self.scheme = s;
            }
        }
        self
    }

    /// Canonical resolution: [`PlanSpec::from_env_overrides`] applied
    /// exactly once, at plan-build time. The remaining `None` knobs are
    /// deliberate — they mean "per-sub-plan heuristic", which the
    /// decomposition applies per sub-FFT *size* through
    /// [`FftSpec::resolve`] when each sub-plan is built. Because those
    /// heuristics are pure functions of (size, resolved knobs), two specs
    /// that are equal after `resolve` build bitwise-interchangeable plans
    /// — which is why the service layer keys its plan cache on the
    /// resolved spec.
    pub fn resolve(self) -> PlanSpec {
        self.from_env_overrides()
    }

    /// The raw-FFT half of this spec: the template every sub-FFT of the
    /// decomposition inherits its pinned knobs from (`n`/`dir` are
    /// replaced per sub-plan).
    pub fn fft_template(&self) -> FftSpec {
        FftSpec { n: self.n, dir: self.dir, kernel: self.kernel, layout: self.layout }
    }

    /// Reconstructs the executor configuration this spec describes.
    pub fn ft_config(&self) -> FtConfig {
        FtConfig {
            scheme: self.scheme,
            max_retries: self.max_retries,
            threshold_scale: self.threshold_scale,
            split_k: self.split_k,
            batch_s: self.batch_s,
            threads: self.threads,
        }
    }

    /// Same spec for a different size (used by the real-input and stream
    /// plans, which derive inner complex sizes from the caller's).
    pub fn with_n(mut self, n: usize) -> PlanSpec {
        self.n = n;
        self
    }

    /// Same spec for a different direction.
    pub fn with_direction(mut self, dir: Direction) -> PlanSpec {
        self.dir = dir;
        self
    }

    /// Same spec under a different scheme (used by the batch executor to
    /// derive its [`Scheme::OnlineCompOpt`] repair plan from the batch
    /// plan's own spec, keeping every planner/threshold knob aligned).
    pub fn with_scheme(mut self, scheme: Scheme) -> PlanSpec {
        self.scheme = scheme;
        self
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Transform direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Fault-tolerance scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Pinned power-of-two kernel, if any.
    pub fn kernel(&self) -> Option<Pow2Kernel> {
        self.kernel
    }

    /// Pinned data layout, if any.
    pub fn layout(&self) -> Option<Layout> {
        self.layout
    }

    /// Pinned worker count, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// SIMD dispatch level recorded at resolution (`None` before
    /// [`PlanSpec::resolve`]).
    pub fn simd(&self) -> Option<SimdLevel> {
        self.simd
    }

    /// Retry bound.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Second-part batch size `s`.
    pub fn batch_s(&self) -> usize {
        self.batch_s
    }

    /// Explicit first-layer split, if any.
    pub fn split_k(&self) -> Option<usize> {
        self.split_k
    }

    /// Threshold scale factor.
    pub fn threshold_scale(&self) -> f64 {
        self.threshold_scale
    }

    /// Everything that distinguishes two specs, with the `f64` knob in
    /// bit form so the derived-looking `Eq`/`Hash` below are total.
    #[allow(clippy::type_complexity)]
    fn key(
        &self,
    ) -> (
        (usize, Direction, Scheme, Option<Pow2Kernel>, Option<Layout>),
        (Option<usize>, Option<SimdLevel>, u32, usize, Option<usize>),
        u64,
    ) {
        (
            (self.n, self.dir, self.scheme, self.kernel, self.layout),
            (self.threads, self.simd, self.max_retries, self.batch_s, self.split_k),
            self.threshold_scale.to_bits(),
        )
    }
}

impl PartialEq for PlanSpec {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for PlanSpec {}

impl Hash for PlanSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// Fluent constructor for [`PlanSpec`] — the builder API every example
/// and harness goes through. Knobs left untouched resolve from the env
/// overrides and the planner heuristics at build time.
#[derive(Clone, Copy, Debug)]
pub struct PlanSpecBuilder {
    spec: PlanSpec,
}

impl PlanSpecBuilder {
    /// Sets the transform direction (default forward).
    pub fn direction(mut self, dir: Direction) -> Self {
        self.spec.dir = dir;
        self
    }

    /// Sets the fault-tolerance scheme (default [`Scheme::Plain`]).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.spec.scheme = scheme;
        self
    }

    /// Pins the power-of-two kernel for every sub-FFT (default: the
    /// `FTFFT_KERNEL` override, then the size heuristic per sub-plan).
    pub fn kernel(mut self, kernel: Pow2Kernel) -> Self {
        self.spec.kernel = Some(kernel);
        self
    }

    /// Pins the data layout (default: `FTFFT_LAYOUT`, then the size
    /// heuristic per sub-plan). Explicit layouts beat both; split-radix
    /// sub-plans have no SoA engine and always run AoS.
    pub fn layout(mut self, layout: Layout) -> Self {
        self.spec.layout = Some(layout);
        self
    }

    /// No-op: every sub-FFT runs the serial kernel family. Kept only for
    /// the benchmark package (`ftbench/`), which still pins
    /// [`Strategy::Serial`]; goes with the next change to that package.
    pub fn strategy(self, _strategy: Strategy) -> Self {
        self
    }

    /// Pins the pooled executors' worker count (default: `FTFFT_THREADS`,
    /// then hardware parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = Some(threads.max(1));
        self
    }

    /// Overrides the retry bound.
    pub fn max_retries(mut self, r: u32) -> Self {
        self.spec.max_retries = r;
        self
    }

    /// Overrides the threshold scale factor.
    pub fn threshold_scale(mut self, s: f64) -> Self {
        self.spec.threshold_scale = s;
        self
    }

    /// Overrides the first-layer split.
    pub fn split_k(mut self, k: usize) -> Self {
        self.spec.split_k = Some(k);
        self
    }

    /// Overrides the second-part batch size `s`.
    pub fn batch_s(mut self, s: usize) -> Self {
        self.spec.batch_s = s;
        self
    }

    /// Finishes the build. The spec is *not* yet resolved — resolution
    /// (env + heuristics) happens once, inside the `from_spec`
    /// constructor that consumes it.
    pub fn build(self) -> PlanSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_predicates() {
        assert!(!Scheme::Plain.is_online());
        assert!(!Scheme::Offline.is_online());
        assert!(Scheme::OnlineCompOpt.is_online());
        assert!(Scheme::OnlineMemOpt.protects_memory());
        assert!(!Scheme::OnlineCompOpt.protects_memory());
        // The batch scheme verifies once per batch, after its transforms
        // complete (offline-flavored), and covers compute only.
        assert!(!Scheme::BatchChecksum.is_online());
        assert!(!Scheme::BatchChecksum.protects_memory());
        assert_eq!(Scheme::ALL.len(), 9);
    }

    #[test]
    fn config_builders() {
        let c = FtConfig::new(Scheme::OnlineMemOpt)
            .with_threshold_scale(2.0)
            .with_split_k(64)
            .with_max_retries(5)
            .with_threads(4);
        assert_eq!(c.threshold_scale, 2.0);
        assert_eq!(c.split_k, Some(64));
        assert_eq!(c.max_retries, 5);
        assert_eq!(c.threads, Some(4));
        assert_eq!(FtConfig::new(Scheme::Plain).with_threads(0).threads, Some(1));
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::parse(s.name()), Some(s));
        }
        assert_eq!(Scheme::parse("online_mem_opt"), Some(Scheme::OnlineMemOpt));
        assert_eq!(Scheme::parse("ONLINE-COMP"), Some(Scheme::OnlineComp));
        assert_eq!(Scheme::parse("batch"), Some(Scheme::BatchChecksum));
        assert_eq!(Scheme::parse("fftw"), None);
    }

    #[test]
    fn forced_scheme_fills_default_but_never_explicit() {
        let _guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Plain is the builder default, so it is what the env/forced tier
        // fills; an explicitly-protected spec is never overridden.
        force_scheme(Some(Scheme::BatchChecksum));
        assert_eq!(PlanSpec::builder(64).build().resolve().scheme(), Scheme::BatchChecksum);
        assert_eq!(
            PlanSpec::builder(64).scheme(Scheme::OnlineMemOpt).build().resolve().scheme(),
            Scheme::OnlineMemOpt
        );
        force_scheme(None);
        // Back on the env tier: the default resolves to FTFFT_SCHEME when
        // the suite runs under a forced-scheme CI leg, Plain otherwise.
        let env_default = scheme_env_or_forced().unwrap_or(Scheme::Plain);
        assert_eq!(PlanSpec::builder(64).build().resolve().scheme(), env_default);
        // with_scheme swaps the scheme and nothing else.
        let spec = PlanSpec::builder(64).scheme(Scheme::BatchChecksum).split_k(8).build();
        let repair = spec.with_scheme(Scheme::OnlineCompOpt);
        assert_eq!(repair.scheme(), Scheme::OnlineCompOpt);
        assert_eq!(repair.split_k(), Some(8));
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let spec = PlanSpec::builder(1 << 12)
            .direction(Direction::Inverse)
            .scheme(Scheme::OnlineMemOpt)
            .kernel(Pow2Kernel::Radix4)
            .layout(Layout::Soa)
            .threads(4)
            .max_retries(5)
            .threshold_scale(2.0)
            .split_k(64)
            .batch_s(16)
            .build();
        assert_eq!(spec.n(), 1 << 12);
        assert_eq!(spec.direction(), Direction::Inverse);
        assert_eq!(spec.scheme(), Scheme::OnlineMemOpt);
        assert_eq!(spec.kernel(), Some(Pow2Kernel::Radix4));
        assert_eq!(spec.layout(), Some(Layout::Soa));
        assert_eq!(spec.threads(), Some(4));
        assert_eq!(spec.max_retries(), 5);
        assert_eq!(spec.threshold_scale(), 2.0);
        assert_eq!(spec.split_k(), Some(64));
        assert_eq!(spec.batch_s(), 16);
        let cfg = spec.ft_config();
        assert_eq!(cfg.scheme, Scheme::OnlineMemOpt);
        assert_eq!(cfg.split_k, Some(64));
        assert_eq!(cfg.threads, Some(4));
    }

    #[test]
    fn spec_precedence_explicit_beats_forced_beats_heuristic() {
        use ftfft_fft::force_layout;
        let _guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Heuristic tier: nothing set, nothing forced — resolution leaves
        // the knob for the per-sub-plan heuristic.
        let heuristic = PlanSpec::builder(1 << 12).build();
        // Env/forced tier beats heuristic…
        force_layout(Some(Layout::Aos));
        assert_eq!(heuristic.resolve().layout(), Some(Layout::Aos));
        // …but never an explicit builder choice.
        let explicit = PlanSpec::builder(1 << 12).layout(Layout::Soa).build();
        assert_eq!(explicit.resolve().layout(), Some(Layout::Soa));
        force_layout(None);
    }

    #[test]
    fn spec_resolution_records_simd_and_is_idempotent() {
        let _guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let spec = PlanSpec::builder(256).scheme(Scheme::OnlineCompOpt).build();
        assert_eq!(spec.simd(), None);
        let r = spec.resolve();
        assert!(r.simd().is_some(), "resolution records the dispatch level");
        assert!(r.threads().is_some(), "resolution pins the worker count");
        assert_eq!(r, r.resolve(), "resolve is a fixpoint");
    }

    #[test]
    fn spec_hash_eq_distinguish_every_knob() {
        use std::collections::HashSet;
        let base = || PlanSpec::builder(1 << 10).scheme(Scheme::OnlineMemOpt);
        let specs = [
            base().build(),
            base().direction(Direction::Inverse).build(),
            base().scheme(Scheme::Plain).build(),
            base().kernel(Pow2Kernel::Radix2).build(),
            base().layout(Layout::Aos).build(),
            base().threads(2).build(),
            base().max_retries(9).build(),
            base().threshold_scale(3.0).build(),
            base().split_k(32).build(),
            base().batch_s(4).build(),
        ];
        let set: HashSet<PlanSpec> = specs.iter().copied().collect();
        assert_eq!(set.len(), specs.len(), "every knob must key the hash");
        assert_eq!(specs[0], base().build(), "equal specs stay equal");
    }
}
