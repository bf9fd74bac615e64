//! ABFT checksum encodings for FFT (Liang et al., SC '17).
//!
//! The protection invariant: for the DFT in matrix form `X = Ax` and the
//! Wang–Jha weight vector `r = (ω₃⁰, …, ω₃^{N-1})`, the identity
//! `r·X = (rA)·x` holds exactly in real arithmetic; a violation beyond the
//! round-off threshold η reveals a computational error. Memory errors are
//! covered by duplicated weighted sums that locate and size a single
//! corrupted element.
//!
//! * [`batch`] — batch-level two-sided checksums: `B` same-size
//!   transforms protected by two weighted-combination transforms via
//!   FFT linearity (`FFT(Σ wᵢxᵢ) = Σ wᵢFFT(xᵢ)`), with residual-ratio
//!   localization of the faulty member;
//! * [`weights`] — `r` and the grouped `r·X` evaluation (`≈2N` ops);
//! * [`input_vector`] — `rA` in closed form, naive/optimized/oracle;
//! * [`mod@ccv`] — computational checksum verification;
//! * [`memory`] — classic `r₁/r₂` memory checksums with locate+repair;
//! * [`crc32`](mod@crc32) — CRC-32 integrity words for *cold* buffered
//!   data (detect-and-recompute, bitwise; complements the arithmetic
//!   memory checksums that repair *hot* resident data);
//! * [`combined`] — §4.1 combined weights `r′₁ = rA`, `r′₂ = j·(rA)_j`;
//! * [`fused`] — gather+CCG in one pass over the strided source (the
//!   vectorized §4.4 hot path);
//! * [`incremental`] — §4.3 per-column slot accumulation;
//! * [`block`] — sealed communication blocks for the parallel scheme;
//! * [`blocked`] — fixed-block CCG partials whose merged value is
//!   independent of the worker partition (the multi-core substrate).
//!
//! The dot-product and weighted-sum cores dispatch through
//! [`ftfft_numeric::simd`] (AVX+FMA with a bitwise-identical scalar
//! fallback, `FTFFT_SIMD` override).

pub mod batch;
pub mod block;
pub mod blocked;
pub mod ccv;
pub mod combined;
pub mod crc32;
pub mod fused;
pub mod incremental;
pub mod input_vector;
pub mod memory;
pub mod weights;

pub use batch::{
    batch_accumulate, batch_accumulate_side1, batch_accumulate_side2, batch_combine,
    batch_combine_side1, batch_combine_side2, batch_localize, batch_residual_max, batch_weight,
    batch_weight_norms_sq, BatchVerdict,
};
pub use block::{open_block, seal_block, sealed_message, BLOCK_CHECKSUM_WORDS};
pub use blocked::{
    combined_sum1_blocked, merge_partials, num_blocks, sum1_block_partial, sum1_partials_into,
    CCG_BLOCK,
};
pub use ccv::{ccv, ccv_with_sum, CcvOutcome};
pub use combined::{
    combined_checksum, combined_checksum_ref, combined_decode, combined_sum1, combined_sum1_ref,
    combined_sum1_strided, combined_verify, CombinedChecksum,
};
pub use crc32::{crc32, crc32_f64s, Crc32};
pub use fused::{gather_combined, gather_sum1};
pub use incremental::IncrementalSlots;
pub use input_vector::{
    input_checksum_vector, input_checksum_vector_direct, input_checksum_vector_into,
    input_checksum_vector_naive, input_checksum_vector_naive_into,
};
pub use memory::{
    decode, mem_checksum, mem_checksum_strided, mem_correct, mem_verify, verify_and_correct,
    MemChecksum, MemVerdict,
};
pub use weights::{
    comp_weight, weighted_sum, weighted_sum_direct, weighted_sum_strided, ResidueSums,
};
