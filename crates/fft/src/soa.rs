//! Split-complex (SoA) execution drivers for the iterative power-of-two
//! kernels.
//!
//! Every stage of the AoS kernels ([`crate::radix2`], [`crate::radix4`])
//! walks interleaved `Complex64` data, which caps AVX at two complex
//! elements per 256-bit register and forces shuffle-heavy complex
//! products. The drivers here run the *same* butterfly schedules over
//! separate `re[]`/`im[]` planes, so the [`ftfft_numeric::simd`] plane
//! kernels touch **four** complex elements per instruction with no
//! shuffles — across every stage, not just the final one.
//!
//! The recursive split-radix kernel ([`crate::split_radix`]) has no SoA
//! engine: its strided leaf gathers and conjugate-pair index wraps defeat
//! the plane kernels (a plane mirror measured 0.68–1.10× its AoS sibling),
//! so [`crate::FftSpec::resolve`] resolves every split-radix layout to
//! [`crate::Layout::Aos`].
//!
//! **Bitwise contract.** Each driver performs element-for-element the
//! identical arithmetic of its AoS mirror: the same butterfly order, the
//! same separately-rounded operator products in generic stages, the same
//! fused products where the AoS kernel dispatches its SIMD final stage, and
//! twiddle factors copied verbatim into the stage packs
//! ([`crate::twiddle_table::SoaRadix2Twiddles`],
//! [`crate::twiddle_table::SoaRadix4Twiddles`]). A transform run SoA
//! therefore equals the AoS run *bit for bit*, at either SIMD dispatch
//! level — which is what lets the planner flip layouts per size without
//! disturbing a single checksum, threshold, or fault signature.
//!
//! All drivers are out-of-place over planes (`src` read, `dst` written) and
//! allocation-free; the bit-reversal copy is cache-blocked
//! ([`crate::bitrev::bit_reverse_copy_f64`], COBRA tiles) so large-`n`
//! reversals stream cache lines instead of thrashing.

use crate::bitrev::bit_reverse_copy_f64;
use crate::twiddle_table::{SoaRadix2Twiddles, SoaRadix4Twiddles};
use ftfft_numeric::simd;

/// Quarter/half length below which a stage runs its inline scalar loop
/// instead of per-block SIMD kernel calls (the blocks are shorter than one
/// vector, so dispatch overhead would dominate).
const VEC_MIN: usize = 4;

/// Out-of-place SoA radix-2 FFT: bit-reversal copy (COBRA-blocked), then
/// every stage over planes. Bitwise equal to
/// [`crate::radix2::fft_radix2_inplace`] on the interleaved equivalent.
///
/// # Panics
/// Panics if the plane lengths disagree with the pack size.
pub fn fft_radix2_soa(
    src_re: &[f64],
    src_im: &[f64],
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    tw: &SoaRadix2Twiddles,
) {
    let n = tw.len();
    assert!(
        src_re.len() == n && src_im.len() == n && dst_re.len() == n && dst_im.len() == n,
        "SoA radix-2: plane length mismatch with pack size {n}"
    );
    bit_reverse_copy_f64(src_re, dst_re);
    bit_reverse_copy_f64(src_im, dst_im);
    let mut len = 2usize;
    for stage in tw.stages() {
        let half = len / 2;
        if half < VEC_MIN {
            // Inline scalar mirror of the SIMD butterflies (identical
            // formulas; avoids a kernel call per 2–4 elements).
            for base in (0..n).step_by(len) {
                for j in 0..half {
                    let (wr, wi) = (stage.w.re[j], stage.w.im[j]);
                    let (lo, hi) = (base + j, base + half + j);
                    let (hr, hi_) = (dst_re[hi], dst_im[hi]);
                    let (vr, vi) = if stage.fma {
                        (f64::mul_add(hr, wr, -(hi_ * wi)), f64::mul_add(hi_, wr, hr * wi))
                    } else {
                        (hr * wr - hi_ * wi, hr * wi + hi_ * wr)
                    };
                    let (ur, ui) = (dst_re[lo], dst_im[lo]);
                    dst_re[lo] = ur + vr;
                    dst_im[lo] = ui + vi;
                    dst_re[hi] = ur - vr;
                    dst_im[hi] = ui - vi;
                }
            }
        } else {
            for base in (0..n).step_by(len) {
                let (lo_re, hi_re) = dst_re[base..base + len].split_at_mut(half);
                let (lo_im, hi_im) = dst_im[base..base + len].split_at_mut(half);
                if stage.fma {
                    simd::butterfly_soa_fma(lo_re, lo_im, hi_re, hi_im, &stage.w.re, &stage.w.im);
                } else {
                    simd::butterfly_soa_mul(lo_re, lo_im, hi_re, hi_im, &stage.w.re, &stage.w.im);
                }
            }
        }
        len <<= 1;
    }
}

/// Runs the radix-4 stage schedule in place over bit-reversed planes
/// (also the width-1 case of the column kernel, [`crate::column`]).
pub(crate) fn radix4_stages(re: &mut [f64], im: &mut [f64], tw: &SoaRadix4Twiddles) {
    let l = tw.len();
    if l == 1 {
        return;
    }
    let s = tw.direction().sign();
    if tw.unpaired() {
        // Twiddle-free radix-2 alignment pass (len = 2 butterflies).
        for base in (0..l).step_by(2) {
            let (ar, ai) = (re[base], im[base]);
            let (br, bi) = (re[base + 1], im[base + 1]);
            re[base] = ar + br;
            im[base] = ai + bi;
            re[base + 1] = ar - br;
            im[base + 1] = ai - bi;
        }
    }
    for stage in tw.stages() {
        let q = stage.quarter;
        let block = q * 4;
        if q < VEC_MIN {
            // Inline scalar mirror of the SIMD radix-4 butterfly.
            for base in (0..l).step_by(block) {
                for j in 0..q {
                    let (i0, i1, i2, i3) =
                        (base + j, base + q + j, base + 2 * q + j, base + 3 * q + j);
                    let (ar, ai) = (re[i0], im[i0]);
                    let br = re[i1] * stage.w2.re[j] - im[i1] * stage.w2.im[j];
                    let bi = re[i1] * stage.w2.im[j] + im[i1] * stage.w2.re[j];
                    let cr = re[i2] * stage.w1.re[j] - im[i2] * stage.w1.im[j];
                    let ci = re[i2] * stage.w1.im[j] + im[i2] * stage.w1.re[j];
                    let dr = re[i3] * stage.w3.re[j] - im[i3] * stage.w3.im[j];
                    let di = re[i3] * stage.w3.im[j] + im[i3] * stage.w3.re[j];
                    let (t0r, t0i) = (ar + br, ai + bi);
                    let (t1r, t1i) = (ar - br, ai - bi);
                    let (t2r, t2i) = (cr + dr, ci + di);
                    let (t3r, t3i) = (cr - dr, ci - di);
                    let (rtr, rti) = (-s * t3i, s * t3r);
                    re[i0] = t0r + t2r;
                    im[i0] = t0i + t2i;
                    re[i2] = t0r - t2r;
                    im[i2] = t0i - t2i;
                    re[i1] = t1r + rtr;
                    im[i1] = t1i + rti;
                    re[i3] = t1r - rtr;
                    im[i3] = t1i - rti;
                }
            }
        } else {
            for base in (0..l).step_by(block) {
                let (a_re, rest_re) = re[base..base + block].split_at_mut(q);
                let (b_re, rest_re) = rest_re.split_at_mut(q);
                let (c_re, d_re) = rest_re.split_at_mut(q);
                let (a_im, rest_im) = im[base..base + block].split_at_mut(q);
                let (b_im, rest_im) = rest_im.split_at_mut(q);
                let (c_im, d_im) = rest_im.split_at_mut(q);
                simd::butterfly4_soa(
                    s,
                    a_re,
                    a_im,
                    b_re,
                    b_im,
                    c_re,
                    c_im,
                    d_re,
                    d_im,
                    &stage.w1.re,
                    &stage.w1.im,
                    &stage.w2.re,
                    &stage.w2.im,
                    &stage.w3.re,
                    &stage.w3.im,
                );
            }
        }
    }
}

/// Out-of-place SoA radix-4 FFT. Bitwise equal to
/// [`crate::radix4::fft_radix4_inplace`] on the interleaved equivalent.
///
/// # Panics
/// Panics if the plane lengths disagree with the pack size.
pub fn fft_radix4_soa(
    src_re: &[f64],
    src_im: &[f64],
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    tw: &SoaRadix4Twiddles,
) {
    let n = tw.len();
    assert!(
        src_re.len() == n && src_im.len() == n && dst_re.len() == n && dst_im.len() == n,
        "SoA radix-4: plane length mismatch with pack size {n}"
    );
    bit_reverse_copy_f64(src_re, dst_re);
    bit_reverse_copy_f64(src_im, dst_im);
    radix4_stages(dst_re, dst_im, tw);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use crate::radix2::fft_radix2_inplace;
    use crate::radix4::fft_radix4_inplace;
    use crate::twiddle_table::TwiddleTable;
    use ftfft_numeric::{uniform_signal, Complex64};

    fn planes_of(x: &[Complex64]) -> (Vec<f64>, Vec<f64>) {
        (x.iter().map(|z| z.re).collect(), x.iter().map(|z| z.im).collect())
    }

    fn assert_planes_eq(re: &[f64], im: &[f64], want: &[Complex64], ctx: &str) {
        for (i, w) in want.iter().enumerate() {
            assert_eq!((re[i], im[i]), (w.re, w.im), "{ctx} i={i}");
        }
    }

    #[test]
    fn soa_radix2_bitwise_equals_aos_both_directions() {
        for dir in [Direction::Forward, Direction::Inverse] {
            for log2n in 0..=12 {
                let n = 1usize << log2n;
                let x = uniform_signal(n, 200 + log2n as u64);
                let table = TwiddleTable::new(n, dir);
                let mut want = x.clone();
                fft_radix2_inplace(&mut want, &table);
                let pack = SoaRadix2Twiddles::new(&table);
                let (sre, sim) = planes_of(&x);
                let mut dre = vec![0.0; n];
                let mut dim = vec![0.0; n];
                fft_radix2_soa(&sre, &sim, &mut dre, &mut dim, &pack);
                assert_planes_eq(&dre, &dim, &want, &format!("radix2 {dir:?} n={n}"));
            }
        }
    }

    #[test]
    fn soa_radix4_bitwise_equals_aos_both_parities() {
        for dir in [Direction::Forward, Direction::Inverse] {
            for log2n in 0..=12 {
                let n = 1usize << log2n;
                let x = uniform_signal(n, 300 + log2n as u64);
                let table = TwiddleTable::new(n, dir);
                let mut want = x.clone();
                fft_radix4_inplace(&mut want, &table);
                let pack = SoaRadix4Twiddles::new(&table);
                let (sre, sim) = planes_of(&x);
                let mut dre = vec![0.0; n];
                let mut dim = vec![0.0; n];
                fft_radix4_soa(&sre, &sim, &mut dre, &mut dim, &pack);
                assert_planes_eq(&dre, &dim, &want, &format!("radix4 {dir:?} n={n}"));
            }
        }
    }
}
