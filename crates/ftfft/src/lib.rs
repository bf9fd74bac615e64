//! # ftfft — fault-tolerant FFT
//!
//! A from-scratch Rust reproduction of **"Correcting Soft Errors Online in
//! Fast Fourier Transform"** (Liang et al., SC '17): an FFT library whose
//! transforms detect and correct transient soft errors *while they run*,
//! using algorithm-based fault tolerance (ABFT) checksums woven into the
//! Cooley–Tukey decomposition.
//!
//! ## Quick start
//!
//! ```
//! use ftfft::prelude::*;
//!
//! let n = 1 << 12;
//! let mut signal = uniform_signal(n, 7);
//! let mut spectrum = vec![Complex64::ZERO; n];
//!
//! // Plan a protected transform (the paper's "Opt-Online" scheme:
//! // computational + memory fault tolerance, all §4 optimizations).
//! let plan = FtFftPlan::from_spec(&PlanSpec::builder(n).scheme(Scheme::OnlineMemOpt).build());
//! let mut ws = plan.make_workspace();
//! let report = plan.execute(&mut signal, &mut spectrum, &NoFaults, &mut ws);
//! assert!(report.is_clean());
//! ```
//!
//! ## Crate map
//!
//! | Sub-crate | Contents |
//! |---|---|
//! | [`numeric`] | complex arithmetic, SIMD micro-kernels, statistics, `erf`/Φ, signal generators |
//! | [`fft`] | the FFT library (planner, kernels, two-/three-layer plans) |
//! | [`checksum`] | ABFT encodings (computational, memory, combined, blocks) + CRC-32 for cold buffers |
//! | [`fault`] | soft-error injection framework: element faults, byte/bit strikes on raw buffers, scripted stage panics |
//! | [`roundoff`] | §8 threshold model and throughput analysis |
//! | [`core`] | the protected sequential schemes (offline/online × comp/mem) |
//! | [`obs`] | unified observability: spans/timers, metrics registry + Prometheus/flat-JSON exposition, fault flight recorder, `FTFFT_OBS`/`no-obs` kill switches |
//! | [`parallel`] | simulated-MPI six-step parallel scheme with overlap; thread pool + pooled executors |
//! | [`stream`] | streaming engines: overlap-save protected convolution, STFT/spectrogram, frame scheduler, end-to-end protected telemetry pipeline |
//! | [`service`] | multi-tenant service layer: `PlanSpec`-keyed plan cache, coalescing admission queue, per-tenant telemetry |

pub use ftfft_checksum as checksum;
pub use ftfft_core as core;
pub use ftfft_fault as fault;
pub use ftfft_fft as fft;
pub use ftfft_numeric as numeric;
pub use ftfft_obs as obs;
pub use ftfft_parallel as parallel;
pub use ftfft_roundoff as roundoff;
pub use ftfft_service as service;
pub use ftfft_stream as stream;

/// One-stop imports for applications.
pub mod prelude {
    pub use ftfft_checksum::{crc32, crc32_f64s, Crc32};
    pub use ftfft_core::{
        BatchWorkspace, FtConfig, FtFftPlan, FtReport, InPlaceFtPlan, PlanSpec, PlanSpecBuilder,
        RealFtFftPlan, RealWorkspace, Scheme, Workspace,
    };
    pub use ftfft_fault::{
        ByteFaultInjector, ByteFaultKind, ByteRegion, Component, FaultInjector, FaultKind,
        InjectionCtx, NoByteFaults, NoFaults, PanicInjector, PanicPoint, Part, RandomByteInjector,
        RandomInjector, RandomKind, ScriptedFault, ScriptedInjector, Site,
    };
    pub use ftfft_fft::{
        batch_break_even, dft_naive, fft, force_layout, force_strategy, ifft, irfft, normalize,
        rfft, Direction, FftPlan, FftSpec, Layout, Planner, Pow2Kernel, RealFftPlan, Strategy,
        KERNEL_ENV, LAYOUT_ENV, PARALLEL_MIN, STRATEGY_ENV,
    };
    pub use ftfft_numeric::{
        inf_norm, normal_signal, relative_error_inf, simd_level, uniform_signal, Complex64,
        SignalDist, SimdLevel, SIMD_ENV,
    };
    pub use ftfft_obs::{
        EventKind, FlightEvent, FlightRecorder, LatencyHistogram, MetricsSnapshot, Registry, Span,
        Timer, OBS_ENV,
    };
    pub use ftfft_parallel::{
        resolve_threads, NetworkModel, ParallelFft, ParallelScheme, PooledFtFft, PooledWorkspace,
        ThreadPool, THREADS_ENV,
    };
    pub use ftfft_roundoff::{thresholds_for_split, throughput, Calibrator, Thresholds};
    pub use ftfft_service::{
        FftService, LatencySummary, PlanCache, RequestError, ServiceConfig, ServiceResponse,
        ServiceStats, TenantStats, Ticket,
    };
    pub use ftfft_stream::{
        encode_stream, ComplexStreamingConvolver, DeliveredFrame, FirFilterStage, FrameScheduler,
        FrameSync, FrameTransform, PipelineBuilder, PipelineReport, ProtectedPipeline,
        StftDenoiseStage, StftPlan, StftWorkspace, StreamReport, StreamingConvolver, Window,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let n = 256;
        let mut x = uniform_signal(n, 1);
        let mut out = vec![Complex64::ZERO; n];
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineCompOpt));
        let rep = plan.execute_alloc(&mut x, &mut out, &NoFaults);
        assert!(rep.is_clean());
        let want = dft_naive(&x, Direction::Forward);
        assert!(ftfft_numeric::max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }
}
