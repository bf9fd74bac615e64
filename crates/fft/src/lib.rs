//! From-scratch FFT library for the ft-fft workspace.
//!
//! This crate is the FFTW stand-in of the reproduction: a planner-based FFT
//! with the decomposition structure that the online ABFT scheme of
//! Liang et al. (SC '17) protects. The ABFT executors in `ftfft-core` do not
//! treat the transform as a black box — they drive the stage primitives of
//! [`TwoLayerPlan`] and [`ThreeLayerPlan`] directly, inserting checksum
//! generation/verification between stages exactly as the paper weaves them
//! into FFTW.
//!
//! Kernels:
//! * [`naive::dft_naive`] — `O(n²)` oracle;
//! * [`radix2`] — iterative power-of-two kernel;
//! * [`radix4`] — iterative fused-stage radix-4 kernel;
//! * [`split_radix`] — recursive conjugate-pair split-radix kernel;
//! * [`mixed::MixedPlan`] — recursive mixed-radix for smooth sizes;
//! * [`bluestein::BluesteinPlan`] — chirp-z for large prime factors;
//! * [`planner::FftPlan`]/[`planner::Planner`] — dispatch and caching
//!   (power-of-two kernel chosen by [`planner::Pow2Kernel`]'s heuristic,
//!   overridable via the `FTFFT_KERNEL` environment variable);
//! * [`two_layer::TwoLayerPlan`] — `N = k·m` out-of-place decomposition
//!   (Fig 1 of the paper);
//! * [`three_layer::ThreeLayerPlan`] — `n = k·r·k` in-place decomposition
//!   (§5 of the paper);
//! * [`real`] — planned real-input transforms ([`real::RealFftPlan`]:
//!   pack → half-size complex FFT → split unpack) plus the `rfft`/`irfft`
//!   compatibility wrappers.
//!
//! Transforms are unnormalized in both directions
//! (`inverse(forward(x)) = n·x`); see [`direction::normalize`].

pub mod bitrev;
pub mod bluestein;
mod column;
pub mod direction;
pub mod factor;
pub mod mixed;
pub mod naive;
pub mod planner;
pub mod radix2;
pub mod radix4;
pub mod real;
pub mod soa;
pub mod split_radix;
pub mod strided;
pub mod threads;
pub mod three_layer;
pub mod twiddle_table;
pub mod two_layer;

pub use bluestein::BluesteinPlan;
pub use direction::{normalize, Direction};
pub use factor::{factorize, is_power_of_two, split_balanced, split_three};
pub use mixed::MixedPlan;
pub use naive::dft_naive;
pub use planner::{
    batch_break_even, fft, force_layout, ifft, FftPlan, FftSpec, Layout, Planner, Pow2Kernel,
    Strategy, KERNEL_ENV, LAYOUT_ENV,
};
pub use real::{irfft, rfft, RealFftPlan};
pub use threads::{chunk_range, resolve_threads, THREADS_ENV};
pub use three_layer::{ThreeLayerPlan, ThreeLayerScratch};
pub use twiddle_table::TwiddleTable;
pub use two_layer::{TwoLayerPlan, TwoLayerScratch};
