//! Multi-tenant FFT service layer.
//!
//! The paper's online ABFT schemes only pay off at scale when plans,
//! twiddle tables, and workspaces are amortized across many requests.
//! This crate turns the library into that substrate:
//!
//! * [`PlanCache`] — a sharded concurrent plan cache keyed by the
//!   *resolved* [`PlanSpec`](ftfft_core::PlanSpec) (equal resolved specs
//!   build bitwise-interchangeable plans, so sharing is sound);
//! * [`FftService`] — an admission queue that coalesces same-spec
//!   requests into `execute_batch` calls with a bounded batch size and a
//!   max-wait deadline, executed by a worker pool that reuses one
//!   workspace per (worker, spec);
//! * per-tenant telemetry ([`TenantStats`]) — request counts, merged
//!   [`FtReport`](ftfft_core::FtReport)s, and log-bucketed latency
//!   histograms with p50/p99/p999 summaries.
//!
//! Correctness contract: the service path is **bitwise identical** to
//! direct serial execution at any worker count — coalescing only changes
//! *when* a request runs, never its plan, workspace semantics, or fault
//! handling (each request's injector sees exactly its own executions, in
//! submission order within the request).
//!
//! ```
//! use ftfft_core::{PlanSpec, Scheme};
//! use ftfft_numeric::uniform_signal;
//! use ftfft_service::{FftService, ServiceConfig};
//!
//! let svc = FftService::new(ServiceConfig::default().with_workers(2));
//! let spec = PlanSpec::builder(256).scheme(Scheme::OnlineMemOpt).build();
//! let ticket = svc.submit("tenant-a", &spec, uniform_signal(256, 7));
//! let resp = ticket.wait();
//! assert_eq!(resp.report.uncorrectable, 0);
//! assert_eq!(resp.output.len(), 256);
//! ```

pub mod cache;
pub mod queue;
pub mod telemetry;

pub use cache::PlanCache;
pub use queue::{FftService, RequestError, ServiceConfig, ServiceResponse, ServiceStats, Ticket};
pub use telemetry::{LatencyHistogram, LatencySummary, TenantStats};
