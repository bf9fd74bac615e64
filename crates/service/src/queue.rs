//! The admission queue and worker pool behind [`FftService`].
//!
//! Requests enter `submit`, which looks up (or builds) the shared plan
//! and parks the request in a per-spec pending batch. A batch is
//! dispatched to the worker pool when it reaches `max_batch` requests or
//! its `max_wait` deadline expires, whichever comes first. Workers pull
//! whole batches, so every request in a batch runs against one warm
//! workspace — the plan/twiddle/workspace amortization the paper's
//! throughput model assumes.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ftfft_core::{FtFftPlan, FtReport, PlanSpec, Scheme, Workspace};
use ftfft_fault::{FaultInjector, NoFaults};
use ftfft_fft::{batch_break_even, resolve_threads};
use ftfft_numeric::Complex64;
use ftfft_obs::{EventKind, FlightRecorder, Timer};

use crate::cache::PlanCache;
use crate::telemetry::{LatencySummary, Telemetry, TenantStats};

/// A fault injector that can be shared across the submit thread and the
/// worker executing the request.
pub type SharedInjector = Arc<dyn FaultInjector + Send + Sync>;

/// Tuning knobs for [`FftService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing batches. Defaults to the `FTFFT_THREADS` /
    /// available-parallelism resolution used by the parallel planner.
    pub workers: usize,
    /// Requests coalesced into one dispatch per spec before the queue
    /// stops waiting. `1` disables coalescing entirely.
    pub max_batch: usize,
    /// How long the first request of a batch may wait for companions.
    pub max_wait: Duration,
    /// Shard count for the plan cache.
    pub cache_shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: resolve_threads(None),
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            cache_shards: 16,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the coalescing bound (clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the coalescing deadline.
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Sets the plan-cache shard count (clamped to ≥ 1).
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }
}

/// What a tenant gets back for one request.
#[derive(Clone, Debug)]
pub struct ServiceResponse {
    /// Transformed frames, same layout as the submitted input.
    pub output: Vec<Complex64>,
    /// Merged fault report across this request's frames only.
    pub report: FtReport,
    /// Submit-to-completion wall time.
    pub latency: Duration,
    /// Requests dispatched in the same coalesced batch (including this one).
    pub batched_with: usize,
    /// Whether the plan was already cached at submit time.
    pub cache_hit: bool,
}

/// Why a request failed without producing a response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The request's execution panicked; the worker caught the unwind,
    /// failed *this request only*, and kept serving the queue. The
    /// payload is the panic message.
    Panicked(String),
    /// The request ran to completion, but its report counts this many
    /// uncorrectable faults: the output is not verified, so it is not
    /// delivered (fail closed). The report still reaches telemetry.
    Uncorrectable(u32),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Panicked(msg) => write!(f, "request execution panicked: {msg}"),
            RequestError::Uncorrectable(count) => {
                write!(f, "request output unverified: {count} uncorrectable fault(s)")
            }
        }
    }
}

impl std::error::Error for RequestError {}

#[derive(Default)]
struct ResponseSlot {
    filled: Mutex<Option<Result<ServiceResponse, RequestError>>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn deliver(&self, resp: Result<ServiceResponse, RequestError>) {
        *self.filled.lock().unwrap() = Some(resp);
        self.cv.notify_all();
    }
}

/// Handle to an in-flight request; redeem with [`Ticket::wait`] or
/// [`Ticket::wait_result`].
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the service has executed the request.
    ///
    /// # Panics
    /// Re-panics (on *this* thread) if the request failed — e.g. its
    /// execution panicked in a worker. Use
    /// [`wait_result`](Ticket::wait_result) to observe failures as values.
    pub fn wait(self) -> ServiceResponse {
        self.wait_result().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Blocks until the service has executed the request; a worker-side
    /// panic surfaces as [`RequestError::Panicked`] instead of unwinding,
    /// and an output with uncorrectable faults as
    /// [`RequestError::Uncorrectable`].
    pub fn wait_result(self) -> Result<ServiceResponse, RequestError> {
        let mut g = self.slot.filled.lock().unwrap();
        loop {
            match g.take() {
                Some(resp) => return resp,
                None => g = self.slot.cv.wait(g).unwrap(),
            }
        }
    }

    /// Returns the outcome if it is already available.
    pub fn try_take(&self) -> Option<Result<ServiceResponse, RequestError>> {
        self.slot.filled.lock().unwrap().take()
    }
}

struct Request {
    tenant: String,
    input: Vec<Complex64>,
    injector: Option<SharedInjector>,
    slot: Arc<ResponseSlot>,
    submitted: Instant,
    cache_hit: bool,
}

struct PendingBatch {
    spec: PlanSpec,
    plan: Arc<FtFftPlan>,
    reqs: Vec<Request>,
    deadline: Instant,
}

#[derive(Default)]
struct QueueState {
    pending: HashMap<PlanSpec, PendingBatch>,
    ready: VecDeque<PendingBatch>,
    shutdown: bool,
}

/// Handles into the global metrics registry, resolved once at service
/// construction so the worker-side record path is a relaxed atomic add.
struct ObsHandles {
    queue_wait: Arc<ftfft_obs::Histogram>,
    batch_build: Arc<ftfft_obs::Histogram>,
    execute: Arc<ftfft_obs::Histogram>,
    requests: Arc<ftfft_obs::Counter>,
    failed: Arc<ftfft_obs::Counter>,
    batch_protected: Arc<ftfft_obs::Counter>,
    batch_fallback: Arc<ftfft_obs::Counter>,
}

impl ObsHandles {
    fn new() -> ObsHandles {
        let reg = ftfft_obs::global();
        ObsHandles {
            queue_wait: reg.histogram("ftfft_service_queue_wait_ns"),
            batch_build: reg.histogram("ftfft_service_batch_build_ns"),
            execute: reg.histogram("ftfft_service_execute_ns"),
            requests: reg.counter("ftfft_service_requests_total"),
            failed: reg.counter("ftfft_service_failed_total"),
            batch_protected: reg.counter("ftfft_service_batch_protected_total"),
            batch_fallback: reg.counter("ftfft_service_batch_fallback_total"),
        }
    }
}

struct Inner {
    state: Mutex<QueueState>,
    cv: Condvar,
    cache: PlanCache,
    telemetry: Telemetry,
    cfg: ServiceConfig,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch_seen: AtomicU64,
    /// Requests whose execution panicked (isolated; see [`run_batch`]).
    failed: AtomicU64,
    /// Requests served through the joint batch-checksum path.
    batch_protected: AtomicU64,
    /// Batch-checksum requests served per-transform instead (batch below
    /// break-even, or a joint execution that panicked and was retried
    /// request-by-request).
    batch_fallback: AtomicU64,
    obs: ObsHandles,
    recorder: FlightRecorder,
}

/// Cross-service aggregate snapshot (see [`FftService::stats`]).
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Requests completed across all tenants.
    pub requests: u64,
    /// Transform frames executed.
    pub frames: u64,
    /// Dispatched batches.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch: f64,
    /// Largest batch dispatched.
    pub max_batch: u64,
    /// Requests that failed by worker-side panic (each failed only
    /// itself; the queue kept serving).
    pub failed: u64,
    /// Requests served through the joint batch-checksum path (their
    /// frames shared one pair of checksum transforms).
    pub batch_protected: u64,
    /// Batch-checksum requests that fell back to the per-transform
    /// repair plan (batch under break-even, or joint-path panic retry).
    pub batch_fallback: u64,
    /// Plan-cache hits at submit time.
    pub cache_hits: u64,
    /// Plan-cache misses (plan builds).
    pub cache_misses: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// Distinct plans resident in the cache.
    pub distinct_plans: usize,
    /// Cross-tenant latency percentiles.
    pub latency: LatencySummary,
    /// All tenants' fault reports merged.
    pub report: FtReport,
}

impl ServiceStats {
    /// Renders the snapshot as flat JSON — one level of `"key": number`
    /// pairs with dotted paths, the convention `ftfft-bench`'s
    /// `parse_flat_json_numbers` consumes.
    pub fn to_flat_json(&self) -> String {
        let r = &self.report;
        let l = &self.latency;
        format!(
            "{{\n  \"requests\": {},\n  \"frames\": {},\n  \"batches\": {},\n  \
             \"mean_batch\": {},\n  \"max_batch\": {},\n  \"failed\": {},\n  \
             \"batch_protected\": {},\n  \"batch_fallback\": {},\n  \
             \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"hit_rate\": {},\n  \
             \"distinct_plans\": {},\n  \"latency.count\": {},\n  \"latency.p50_ns\": {},\n  \
             \"latency.p99_ns\": {},\n  \"latency.p999_ns\": {},\n  \"latency.max_ns\": {},\n  \
             \"report.checks\": {},\n  \"report.comp_detected\": {},\n  \
             \"report.mem_detected\": {},\n  \"report.mem_corrected\": {},\n  \
             \"report.dmr_votes\": {},\n  \"report.subfft_recomputed\": {},\n  \
             \"report.full_recomputed\": {},\n  \"report.comm_corrected\": {},\n  \
             \"report.uncorrectable\": {}\n}}\n",
            self.requests,
            self.frames,
            self.batches,
            self.mean_batch,
            self.max_batch,
            self.failed,
            self.batch_protected,
            self.batch_fallback,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate,
            self.distinct_plans,
            l.count,
            l.p50.as_nanos(),
            l.p99.as_nanos(),
            l.p999.as_nanos(),
            l.max.as_nanos(),
            r.checks,
            r.comp_detected,
            r.mem_detected,
            r.mem_corrected,
            r.dmr_votes,
            r.subfft_recomputed,
            r.full_recomputed,
            r.comm_corrected,
            r.uncorrectable,
        )
    }
}

/// Multi-tenant FFT front end: plan cache + coalescing admission queue +
/// worker pool. See the crate docs for the execution model and the
/// bitwise-identity contract.
pub struct FftService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl FftService {
    /// Spawns the worker pool and returns the service handle. Dropping
    /// the handle drains every queued request, then joins the workers.
    pub fn new(cfg: ServiceConfig) -> Self {
        let cfg = ServiceConfig {
            workers: cfg.workers.max(1),
            max_batch: cfg.max_batch.max(1),
            max_wait: cfg.max_wait,
            cache_shards: cfg.cache_shards.max(1),
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            cache: PlanCache::new(cfg.cache_shards),
            telemetry: Telemetry::default(),
            cfg,
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch_seen: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batch_protected: AtomicU64::new(0),
            batch_fallback: AtomicU64::new(0),
            obs: ObsHandles::new(),
            recorder: FlightRecorder::new(128),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("ftfft-svc-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        FftService { inner, workers }
    }

    /// Submits `input` (one or more back-to-back frames of `spec.n()`
    /// samples) for a clean run.
    ///
    /// # Panics
    /// Panics if `input` is empty or not a multiple of the spec size.
    pub fn submit(&self, tenant: &str, spec: &PlanSpec, input: Vec<Complex64>) -> Ticket {
        self.submit_impl(tenant, spec, input, None)
    }

    /// Like [`submit`](FftService::submit), but every frame of this
    /// request runs under `injector`. The injector sees this request's
    /// frames as consecutive executions (never interleaved with other
    /// tenants), so scripted campaigns behave exactly as they would
    /// against a private plan.
    pub fn submit_injected(
        &self,
        tenant: &str,
        spec: &PlanSpec,
        input: Vec<Complex64>,
        injector: SharedInjector,
    ) -> Ticket {
        self.submit_impl(tenant, spec, input, Some(injector))
    }

    fn submit_impl(
        &self,
        tenant: &str,
        spec: &PlanSpec,
        input: Vec<Complex64>,
        injector: Option<SharedInjector>,
    ) -> Ticket {
        let resolved = spec.resolve();
        let n = resolved.n();
        assert!(!input.is_empty(), "empty submission");
        assert!(
            input.len().is_multiple_of(n),
            "submission length {} is not a multiple of spec size {n}",
            input.len()
        );
        let (plan, cache_hit) = self.inner.cache.get(&resolved);
        let slot = Arc::new(ResponseSlot::default());
        let req = Request {
            tenant: tenant.to_owned(),
            input,
            injector,
            slot: slot.clone(),
            submitted: Instant::now(),
            cache_hit,
        };
        {
            let mut st = self.inner.state.lock().unwrap();
            assert!(!st.shutdown, "submit on a shut-down service");
            if self.inner.cfg.max_batch <= 1 {
                st.ready.push_back(PendingBatch {
                    spec: resolved,
                    plan,
                    reqs: vec![req],
                    deadline: req_deadline(self.inner.cfg.max_wait),
                });
            } else {
                match st.pending.entry(resolved) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        e.get_mut().reqs.push(req);
                        if e.get().reqs.len() >= self.inner.cfg.max_batch {
                            let b = e.remove();
                            st.ready.push_back(b);
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(PendingBatch {
                            spec: resolved,
                            plan,
                            reqs: vec![req],
                            deadline: req_deadline(self.inner.cfg.max_wait),
                        });
                    }
                }
            }
        }
        self.inner.cv.notify_all();
        Ticket { slot }
    }

    /// Global plan-cache hit rate so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.inner.cache.hit_rate()
    }

    /// Telemetry for one tenant, if it has completed any requests.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.inner.telemetry.tenant(tenant)
    }

    /// All tenants' telemetry, sorted by tenant name.
    pub fn all_tenant_stats(&self) -> Vec<(String, TenantStats)> {
        self.inner.telemetry.all()
    }

    /// Aggregate snapshot across tenants, the cache, and the batcher.
    pub fn stats(&self) -> ServiceStats {
        let g = self.inner.telemetry.global();
        let batches = self.inner.batches.load(Ordering::Relaxed);
        let batched = self.inner.batched_requests.load(Ordering::Relaxed);
        ServiceStats {
            requests: g.requests,
            frames: g.frames,
            batches,
            mean_batch: if batches == 0 { 0.0 } else { batched as f64 / batches as f64 },
            max_batch: self.inner.max_batch_seen.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            batch_protected: self.inner.batch_protected.load(Ordering::Relaxed),
            batch_fallback: self.inner.batch_fallback.load(Ordering::Relaxed),
            cache_hits: self.inner.cache.hits(),
            cache_misses: self.inner.cache.misses(),
            hit_rate: self.inner.cache.hit_rate(),
            distinct_plans: self.inner.cache.len(),
            latency: g.latency(),
            report: g.report,
        }
    }

    /// The service's fault flight recorder. Worker panics land here as
    /// [`EventKind::WorkerPanic`] (and trip its automatic dump).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Blocks until every request submitted so far has completed.
    pub fn quiesce(&self) {
        loop {
            {
                let st = self.inner.state.lock().unwrap();
                if st.pending.is_empty() && st.ready.is_empty() {
                    // Queue empty; in-flight batches are counted below.
                    // Panicked requests never reach telemetry, so they
                    // complete the tally through the failed counter.
                    let submitted = self.inner.cache.hits() + self.inner.cache.misses();
                    let done = self.inner.telemetry.global().requests
                        + self.inner.failed.load(Ordering::Relaxed);
                    if done == submitted {
                        return;
                    }
                }
            }
            std::thread::yield_now();
        }
    }
}

fn req_deadline(max_wait: Duration) -> Instant {
    Instant::now().checked_add(max_wait).unwrap_or_else(Instant::now)
}

impl Drop for FftService {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
        }
        self.inner.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    // One workspace per spec this worker has executed, reused across
    // batches — the whole point of coalescing.
    let mut workspaces: HashMap<PlanSpec, Workspace> = HashMap::new();
    loop {
        let batch = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some(b) = st.ready.pop_front() {
                    break b;
                }
                let now = Instant::now();
                let expired: Vec<PlanSpec> = st
                    .pending
                    .iter()
                    .filter(|(_, b)| b.deadline <= now || st.shutdown)
                    .map(|(k, _)| *k)
                    .collect();
                if !expired.is_empty() {
                    for k in expired {
                        let b = st.pending.remove(&k).expect("expired key present");
                        st.ready.push_back(b);
                    }
                    continue;
                }
                if st.shutdown {
                    return;
                }
                match st.pending.values().map(|b| b.deadline).min() {
                    Some(d) => {
                        let (g, _) =
                            inner.cv.wait_timeout(st, d.saturating_duration_since(now)).unwrap();
                        st = g;
                    }
                    None => st = inner.cv.wait(st).unwrap(),
                }
            }
        };
        run_batch(inner, batch, &mut workspaces);
    }
}

fn run_batch(inner: &Inner, batch: PendingBatch, workspaces: &mut HashMap<PlanSpec, Workspace>) {
    let plan = &batch.plan;
    let n = batch.spec.n();
    let build = Timer::start();
    let ws = workspaces.entry(batch.spec).or_insert_with(|| plan.make_workspace());
    build.stop(&inner.obs.batch_build);
    let size = batch.reqs.len();
    inner.batches.fetch_add(1, Ordering::Relaxed);
    inner.batched_requests.fetch_add(size as u64, Ordering::Relaxed);
    inner.max_batch_seen.fetch_max(size as u64, Ordering::Relaxed);
    if plan.cfg().scheme == Scheme::BatchChecksum {
        run_batch_checksum(inner, plan, n, batch.reqs, size, ws);
        return;
    }
    for mut req in batch.reqs {
        if ftfft_obs::enabled() {
            inner.obs.queue_wait.record(req.submitted.elapsed());
        }
        let mut output = vec![Complex64::ZERO; req.input.len()];
        // Panic isolation: a panicking execution (a scripted chaos
        // injector, a latent plan bug) must fail only its own request.
        // Catch the unwind, deliver the error to this ticket, and keep
        // the worker serving the queue. The workspace is safe to reuse —
        // every execution fully rewrites the scratch it reads.
        let exec = Timer::start();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &req.injector {
                Some(inj) => plan.execute_batch(&mut req.input, &mut output, inj.as_ref(), ws),
                None => plan.execute_batch(&mut req.input, &mut output, &NoFaults, ws),
            }));
        exec.stop(&inner.obs.execute);
        match caught {
            Ok(report) => deliver_ok(inner, req, output, report, size, n),
            Err(payload) => deliver_err(inner, req, &*payload, n),
        }
    }
}

/// Completes one executed request: telemetry, per-tenant counters, and
/// the ticket — `Ok` only when every fault was corrected, otherwise
/// [`RequestError::Uncorrectable`].
fn deliver_ok(
    inner: &Inner,
    req: Request,
    output: Vec<Complex64>,
    report: FtReport,
    size: usize,
    n: usize,
) {
    let latency = req.submitted.elapsed();
    let frames = (req.input.len() / n) as u64;
    inner.obs.requests.inc();
    if ftfft_obs::enabled() {
        // Per-tenant request counter; the scratch keeps this
        // allocation-free per record, the registry lookup is
        // the price of a dynamic tenant set.
        ftfft_obs::with_scratch(|name| {
            name.push_str("ftfft_service_tenant_requests_total.");
            name.push_str(&req.tenant);
            ftfft_obs::global().counter(name).inc();
        });
    }
    inner.telemetry.record(&req.tenant, latency, frames, req.cache_hit, &report);
    if report.uncorrectable > 0 {
        req.slot.deliver(Err(RequestError::Uncorrectable(report.uncorrectable)));
        return;
    }
    req.slot.deliver(Ok(ServiceResponse {
        output,
        report,
        latency,
        batched_with: size,
        cache_hit: req.cache_hit,
    }));
}

/// Fails one request with the panic payload of its execution.
fn deliver_err(inner: &Inner, req: Request, payload: &(dyn std::any::Any + Send), n: usize) {
    let frames = (req.input.len() / n) as u64;
    inner.failed.fetch_add(1, Ordering::Relaxed);
    inner.obs.failed.inc();
    inner.recorder.record(EventKind::WorkerPanic, frames);
    req.slot.deliver(Err(RequestError::Panicked(panic_message(payload))));
}

/// Dispatch for [`Scheme::BatchChecksum`] plans.
///
/// When the coalesced batch carries at least
/// [`batch_break_even`]`(n)` member frames, every frame of every
/// request runs under ONE pair of checksum transforms
/// ([`FtFftPlan::execute_batch_members`]) — the whole point of the
/// scheme: `2/B` protection overhead instead of a per-transform
/// checksum pipeline. Faults stay billed per request because the joint
/// executor reports per member and each member carries its own
/// request's injector.
///
/// Under break-even (or when a joint execution panics), requests fall
/// back to the plan's per-transform Opt-Online repair plan — same
/// bitwise outputs, per-request panic isolation.
fn run_batch_checksum(
    inner: &Inner,
    plan: &FtFftPlan,
    n: usize,
    reqs: Vec<Request>,
    size: usize,
    ws: &mut Workspace,
) {
    static NO_FAULTS: NoFaults = NoFaults;
    let members: usize = reqs.iter().map(|r| r.input.len() / n).sum();
    if ftfft_obs::enabled() {
        for req in &reqs {
            inner.obs.queue_wait.record(req.submitted.elapsed());
        }
    }
    if members >= batch_break_even(n) {
        let mut outputs: Vec<Vec<Complex64>> =
            reqs.iter().map(|r| vec![Complex64::ZERO; r.input.len()]).collect();
        let mut reports = vec![FtReport::new(); members];
        let exec = Timer::start();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let xs: Vec<&[Complex64]> = reqs.iter().flat_map(|r| r.input.chunks_exact(n)).collect();
            let mut outs: Vec<&mut [Complex64]> =
                outputs.iter_mut().flat_map(|o| o.chunks_exact_mut(n)).collect();
            let injectors: Vec<&dyn FaultInjector> = reqs
                .iter()
                .flat_map(|r| {
                    let inj: &dyn FaultInjector = match &r.injector {
                        Some(i) => i.as_ref(),
                        None => &NO_FAULTS,
                    };
                    std::iter::repeat_n(inj, r.input.len() / n)
                })
                .collect();
            plan.execute_batch_members(&xs, &mut outs, &injectors, &mut reports, ws);
        }));
        exec.stop(&inner.obs.execute);
        if caught.is_ok() {
            inner.batch_protected.fetch_add(size as u64, Ordering::Relaxed);
            inner.obs.batch_protected.add(size as u64);
            let mut member = 0;
            for (req, output) in reqs.into_iter().zip(outputs) {
                let frames = req.input.len() / n;
                let mut report = FtReport::new();
                for _ in 0..frames {
                    report.merge(&reports[member]);
                    member += 1;
                }
                if report.total_detected() > 0 {
                    inner.recorder.record(EventKind::BatchRepair, frames as u64);
                }
                deliver_ok(inner, req, output, report, size, n);
            }
            return;
        }
        // Joint execution panicked (a chaos injector striking during the
        // shared phase): retry request-by-request below so only the
        // panicking request fails.
    }
    let repair = plan.repair_plan().expect("batch plan carries a repair plan");
    let mut bw = ws.batch.take().expect("batch plan workspace carries the repair workspace");
    for mut req in reqs {
        let mut output = vec![Complex64::ZERO; req.input.len()];
        let exec = Timer::start();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &req.injector {
                Some(inj) => repair.execute_batch(
                    &mut req.input,
                    &mut output,
                    inj.as_ref(),
                    &mut bw.repair_ws,
                ),
                None => {
                    repair.execute_batch(&mut req.input, &mut output, &NoFaults, &mut bw.repair_ws)
                }
            }));
        exec.stop(&inner.obs.execute);
        match caught {
            Ok(report) => {
                inner.batch_fallback.fetch_add(1, Ordering::Relaxed);
                inner.obs.batch_fallback.inc();
                deliver_ok(inner, req, output, report, size, n);
            }
            Err(payload) => deliver_err(inner, req, &*payload, n),
        }
    }
    ws.batch = Some(bw);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_core::Scheme;
    use ftfft_numeric::uniform_signal;

    fn direct(spec: &PlanSpec, input: &[Complex64]) -> (Vec<Complex64>, FtReport) {
        let plan = FtFftPlan::from_spec(spec);
        let mut ws = plan.make_workspace();
        let mut x = input.to_vec();
        let mut out = vec![Complex64::ZERO; x.len()];
        let rep = plan.execute_batch(&mut x, &mut out, &NoFaults, &mut ws);
        (out, rep)
    }

    #[test]
    fn single_request_matches_direct_execution() {
        let svc = FftService::new(ServiceConfig::default().with_workers(1));
        let spec = PlanSpec::builder(128).scheme(Scheme::OnlineCompOpt).build();
        let input = uniform_signal(128, 42);
        let resp = svc.submit("t0", &spec, input.clone()).wait();
        let (want, want_rep) = direct(&spec, &input);
        assert_eq!(resp.output, want, "service output must be bitwise identical");
        assert_eq!(resp.report, want_rep);
        assert!(!resp.cache_hit);
    }

    #[test]
    fn multi_frame_request_is_one_request_many_frames() {
        let svc = FftService::new(ServiceConfig::default().with_workers(2));
        let spec = PlanSpec::builder(64).scheme(Scheme::Offline).build();
        let input = uniform_signal(64 * 5, 3);
        let resp = svc.submit("t0", &spec, input.clone()).wait();
        let (want, _) = direct(&spec, &input);
        assert_eq!(resp.output, want);
        svc.quiesce();
        let stats = svc.tenant_stats("t0").unwrap();
        assert_eq!((stats.requests, stats.frames), (1, 5));
    }

    #[test]
    fn coalescing_respects_max_batch() {
        // One worker + long max_wait: first submit parks, next submits
        // coalesce; max_batch=4 forces dispatch without waiting out the
        // deadline.
        let svc = FftService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_max_batch(4)
                .with_max_wait(Duration::from_secs(5)),
        );
        let spec = PlanSpec::builder(64).scheme(Scheme::OnlineMemOpt).build();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| svc.submit(&format!("t{i}"), &spec, uniform_signal(64, i as u64)))
            .collect();
        for t in tickets {
            let resp = t.wait();
            assert!(resp.batched_with <= 4, "batch bound violated: {}", resp.batched_with);
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, 8);
        assert!(stats.max_batch <= 4);
        assert!(stats.batches >= 2, "8 requests can't fit one batch of 4");
    }

    #[test]
    fn deadline_flushes_partial_batches() {
        let svc = FftService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_max_batch(64)
                .with_max_wait(Duration::from_millis(5)),
        );
        let spec = PlanSpec::builder(64).scheme(Scheme::Plain).build();
        // A single request can never fill max_batch; only the deadline
        // (or drop-drain) can dispatch it. wait() returning proves the
        // deadline path works.
        let resp = svc.submit("t0", &spec, uniform_signal(64, 0)).wait();
        assert_eq!(resp.batched_with, 1);
    }

    #[test]
    fn drop_drains_queued_requests() {
        let svc = FftService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_max_batch(16)
                .with_max_wait(Duration::from_secs(30)),
        );
        let spec = PlanSpec::builder(64).scheme(Scheme::OnlineComp).build();
        let t = svc.submit("t0", &spec, uniform_signal(64, 9));
        drop(svc); // must flush the parked batch, not strand the ticket
        let resp = t.wait();
        assert_eq!(resp.output.len(), 64);
    }

    #[test]
    fn per_tenant_attribution_is_separate() {
        let svc = FftService::new(ServiceConfig::default().with_workers(2));
        let spec = PlanSpec::builder(64).scheme(Scheme::OnlineMemOpt).build();
        let ta: Vec<Ticket> =
            (0..3).map(|i| svc.submit("alice", &spec, uniform_signal(64, i))).collect();
        let tb: Vec<Ticket> =
            (0..5).map(|i| svc.submit("bob", &spec, uniform_signal(64, 100 + i))).collect();
        ta.into_iter().for_each(|t| drop(t.wait()));
        tb.into_iter().for_each(|t| drop(t.wait()));
        svc.quiesce();
        assert_eq!(svc.tenant_stats("alice").unwrap().requests, 3);
        assert_eq!(svc.tenant_stats("bob").unwrap().requests, 5);
        assert!(svc.tenant_stats("carol").is_none());
        let names: Vec<String> = svc.all_tenant_stats().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alice", "bob"]);
    }

    #[test]
    fn panicking_request_fails_alone_queue_keeps_serving() {
        use ftfft_fault::{PanicInjector, PanicPoint};
        let svc = FftService::new(ServiceConfig::default().with_workers(1));
        let spec = PlanSpec::builder(64).scheme(Scheme::OnlineCompOpt).build();

        // This request's injector panics at its first callback — from
        // inside the protected executor, on the worker thread.
        let chaos: SharedInjector =
            Arc::new(PanicInjector::new(NoFaults, vec![PanicPoint::any(1)]));
        let doomed = svc.submit_injected("mallory", &spec, uniform_signal(64, 1), chaos);
        match doomed.wait_result() {
            Err(RequestError::Panicked(msg)) => {
                assert!(msg.contains("injected stage panic"), "unexpected message: {msg}")
            }
            other => panic!("panicking request must fail as Panicked, got {other:?}"),
        }

        // The same worker must still be alive and correct for the next
        // tenant — bitwise identical to direct execution.
        let input = uniform_signal(64, 2);
        let resp = svc.submit("alice", &spec, input.clone()).wait();
        let (want, _) = direct(&spec, &input);
        assert_eq!(resp.output, want);

        svc.quiesce(); // must terminate: failed requests count as done
        let stats = svc.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.requests, 1, "panicked request must not reach telemetry");
        if ftfft_obs::enabled() {
            assert_eq!(svc.flight_recorder().total(EventKind::WorkerPanic), 1);
        }
    }

    #[test]
    fn stats_flat_json_is_one_level_and_numeric() {
        let svc = FftService::new(ServiceConfig::default().with_workers(1));
        let spec = PlanSpec::builder(64).scheme(Scheme::OnlineCompOpt).build();
        svc.submit("t0", &spec, uniform_signal(64 * 2, 4)).wait();
        svc.quiesce();
        let json = svc.stats().to_flat_json();
        assert!(json.contains("\"requests\": 1"));
        assert!(json.contains("\"frames\": 2"));
        assert!(json.contains("\"latency.count\": 1"));
        assert_eq!(json.matches('{').count(), 1);
        assert_eq!(json.matches('}').count(), 1);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_misaligned_input() {
        let svc = FftService::new(ServiceConfig::default().with_workers(1));
        let spec = PlanSpec::builder(64).scheme(Scheme::Plain).build();
        let _ = svc.submit("t0", &spec, vec![Complex64::ZERO; 63]);
    }
}
