//! Fused gather + checksum generation.
//!
//! §4.4 of the paper buffers each sub-FFT's strided input into contiguous
//! scratch and computes the CCG on the buffer. Until this module, that was
//! still *two* passes over the buffer (fill, then dot-product). The fused
//! routines here compute the checksum **in the same pass that fills the
//! gather buffer**, so each strided source element is read exactly once and
//! the checksum arithmetic rides on data already in registers.
//!
//! **Bitwise contract**: the fused routines stream gathered blocks through
//! the same two-lane SIMD accumulators ([`ftfft_numeric::simd::DotAcc`] /
//! [`DotPairAcc`]) that the one-shot
//! [`combined_sum1`](crate::combined_sum1) /
//! [`combined_checksum`](crate::combined_checksum) use, so
//! `gather_sum1(...)` equals `gather(...); combined_sum1(buf, ra)`
//! bit-for-bit — at either SIMD dispatch level. The property suite asserts
//! this exactly.

use crate::combined::CombinedChecksum;
use ftfft_fft::strided::gather_blocks;
use ftfft_numeric::simd::{DotAcc, DotPairAcc};
use ftfft_numeric::Complex64;

/// Fills `buf[..count]` with `src[offset + t·stride]` (`count = buf.len()`)
/// and returns the CCG `Σ_t buf[t]·ra[t]` computed in the same pass.
///
/// Bitwise equal to a separate gather followed by
/// [`combined_sum1`](crate::combined_sum1).
pub fn gather_sum1(
    src: &[Complex64],
    offset: usize,
    stride: usize,
    ra: &[Complex64],
    buf: &mut [Complex64],
) -> Complex64 {
    debug_assert!(stride >= 1);
    debug_assert!(ra.len() >= buf.len());
    let mut acc = DotAcc::new();
    gather_blocks(src, offset, stride, buf.len(), |t, blk| {
        acc.accumulate(blk, &ra[t..t + blk.len()]);
        buf[t..t + blk.len()].copy_from_slice(blk);
    });
    acc.finish()
}

/// Fills `buf[..count]` like [`gather_sum1`] and returns the full combined
/// pair `(Σ buf·ra, Σ (t+1)·buf·ra)` from the same pass.
///
/// Bitwise equal to a separate gather followed by
/// [`combined_checksum`](crate::combined_checksum).
pub fn gather_combined(
    src: &[Complex64],
    offset: usize,
    stride: usize,
    ra: &[Complex64],
    buf: &mut [Complex64],
) -> CombinedChecksum {
    debug_assert!(stride >= 1);
    debug_assert!(ra.len() >= buf.len());
    let mut acc = DotPairAcc::new();
    gather_blocks(src, offset, stride, buf.len(), |t, blk| {
        acc.accumulate(blk, &ra[t..t + blk.len()]);
        buf[t..t + blk.len()].copy_from_slice(blk);
    });
    let (sum1, sum2) = acc.finish();
    CombinedChecksum { sum1, sum2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combined::{combined_checksum, combined_sum1};
    use crate::input_vector::input_checksum_vector;
    use ftfft_fft::strided::gather;
    use ftfft_fft::Direction;
    use ftfft_numeric::uniform_signal;

    #[test]
    fn fused_sum1_bitwise_equals_separate_passes() {
        for (count, stride, offset) in
            [(7usize, 3usize, 1usize), (64, 8, 0), (100, 5, 4), (257, 2, 1)]
        {
            let src = uniform_signal(offset + count * stride, count as u64);
            let ra = input_checksum_vector(count, Direction::Forward);

            let mut fused_buf = vec![Complex64::ZERO; count];
            let fused = gather_sum1(&src, offset, stride, &ra, &mut fused_buf);

            let mut sep_buf = vec![Complex64::ZERO; count];
            gather(&src, offset, stride, &mut sep_buf);
            let separate = combined_sum1(&sep_buf, &ra);

            assert_eq!(fused_buf, sep_buf, "count={count} stride={stride}");
            assert_eq!(fused, separate, "count={count} stride={stride}");
        }
    }

    #[test]
    fn fused_pair_bitwise_equals_separate_passes() {
        for (count, stride) in [(5usize, 7usize), (63, 3), (128, 4), (200, 9)] {
            let src = uniform_signal(count * stride, 77);
            let ra = input_checksum_vector(count, Direction::Forward);

            let mut fused_buf = vec![Complex64::ZERO; count];
            let fused = gather_combined(&src, 0, stride, &ra, &mut fused_buf);

            let mut sep_buf = vec![Complex64::ZERO; count];
            gather(&src, 0, stride, &mut sep_buf);
            let separate = combined_checksum(&sep_buf, &ra);

            assert_eq!(fused_buf, sep_buf, "count={count} stride={stride}");
            assert_eq!(fused, separate, "count={count} stride={stride}");
        }
    }

    #[test]
    fn unit_stride_is_a_plain_copy() {
        let src = uniform_signal(40, 3);
        let ra = input_checksum_vector(40, Direction::Forward);
        let mut buf = vec![Complex64::ZERO; 40];
        let s = gather_sum1(&src, 0, 1, &ra, &mut buf);
        assert_eq!(buf, src);
        assert_eq!(s, combined_sum1(&src, &ra));
    }
}
