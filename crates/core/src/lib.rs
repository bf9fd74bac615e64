//! Online ABFT FFT — the primary contribution of Liang et al. (SC '17).
//!
//! This crate weaves checksum-based fault tolerance into the two-layer
//! Cooley–Tukey decomposition so soft errors are detected *online* — as
//! soon as the enclosing sub-FFT finishes — and corrected by recomputing
//! only that `O(√N)`-point transform, instead of the offline approach's
//! verify-at-the-end / restart-everything cycle.
//!
//! Entry point: [`FtFftPlan`] with a [`Scheme`]:
//!
//! | Scheme | Paper name | Protects |
//! |---|---|---|
//! | [`Scheme::Plain`] | FFTW | — |
//! | [`Scheme::OfflineNaive`] | Offline | compute |
//! | [`Scheme::Offline`] | Opt-Offline | compute |
//! | [`Scheme::OnlineComp`] | CFTO-Online | compute |
//! | [`Scheme::OnlineCompOpt`] | Opt-Online | compute |
//! | [`Scheme::OfflineMem`] | Opt-Offline (mem) | compute + memory |
//! | [`Scheme::OnlineMem`] | Online (Fig 2) | compute + memory |
//! | [`Scheme::OnlineMemOpt`] | Opt-Online (Fig 3) | compute + memory |
//! | [`Scheme::BatchChecksum`] | Batch two-sided (TurboFFT-style) | compute, across B transforms |
//!
//! [`InPlaceFtPlan`] protects the in-place `n = k·r·k` transform used by
//! the parallel scheme (§5), with per-sub-FFT backups (Fig 4) and a
//! DMR-protected middle layer (the Fig 5 fix).

pub mod batch_ft;
pub mod config;
pub mod dmr;
pub mod inplace;
pub mod memory_ft;
pub mod memory_ft_opt;
pub mod offline;
pub mod online;
pub mod plan;
pub mod real;
pub mod report;

pub use batch_ft::BatchWorkspace;
pub use config::{FtConfig, PlanSpec, PlanSpecBuilder, Scheme};
pub use inplace::{InPlaceFtPlan, InPlaceWorkspace};
pub use plan::{FtFftPlan, Workspace};
pub use real::{RealFtFftPlan, RealWorkspace};
pub use report::FtReport;
