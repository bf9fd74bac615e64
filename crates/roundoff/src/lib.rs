//! Round-off error analysis and detection-threshold selection (§8 of
//! Liang et al., SC '17).
//!
//! Finite-precision FFTs leave nonzero checksum residuals even when fault
//! free; thresholds η must sit above the round-off floor of each protected
//! part but as low as possible for coverage. This crate provides:
//!
//! * [`model`] — Weinstein/Gentleman-Sande noise propagation for the
//!   first-part, second-part, offline, and memory checksums;
//! * [`threshold`] — the paper's `η = 3√size·σ_roe` selection per part;
//! * [`mod@throughput`] — the `1/(3−2Φ(·))` throughput model (Table 4);
//! * [`calibrate`] — empirical calibration from fault-free runs (Table 6's
//!   protocol).

pub mod calibrate;
pub mod model;
pub mod threshold;
pub mod throughput;

pub use calibrate::Calibrator;
pub use model::{
    batch_residual_std, checksum_roundoff_std, checksum_roundoff_std_second,
    memory_sum_roundoff_std, output_roundoff_std, sigma_eps, F64_MANTISSA_BITS,
};
pub use threshold::{
    batch_thresholds, input_sigma, scaled, thresholds_for_split, Thresholds, HEADROOM,
    MEMORY_HEADROOM,
};
pub use throughput::{empirical_throughput, throughput};
