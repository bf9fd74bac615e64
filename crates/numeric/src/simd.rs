//! Runtime-dispatched SIMD micro-kernels for the ABFT hot path.
//!
//! The checksum passes (CCG dot-products, ω₃-weighted CCV sums, incremental
//! slot accumulation) and the twiddle/butterfly primitives all reduce to a
//! handful of complex micro-kernels over `&[Complex64]`. This module
//! provides them twice — a portable scalar implementation and an x86_64
//! AVX+FMA implementation — behind one runtime dispatch.
//!
//! **Bitwise contract.** Both implementations produce *bit-for-bit
//! identical* results. The scalar code mirrors the vector code exactly:
//! complex products use the same fused-multiply-add structure the
//! `vfmaddsub` instruction applies (via [`f64::mul_add`], which is
//! correctly rounded on every platform), and reductions keep the same
//! two-lane partial accumulators a 256-bit register holds, folding them in
//! the same order. Tests can therefore assert exact equality between
//! dispatch levels, protected transforms are reproducible across machines,
//! and a fault signature never depends on which unit computed the checksum.
//!
//! Dispatch is decided once (first use) from CPU features, overridable via
//! the [`SIMD_ENV`] environment variable (`scalar` | `avx` | `auto`) or
//! programmatically with [`force_level`] — the A/B switch the perf harness
//! and the CI scalar-fallback job use.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::complex::{c64, Complex64};

/// Environment variable overriding SIMD dispatch: `scalar` forces the
/// portable fallback, `avx` requires AVX+FMA (panics if unavailable),
/// `auto`/unset detects.
pub const SIMD_ENV: &str = "FTFFT_SIMD";

/// Available dispatch levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar mirror (exact same results as the vector path).
    Scalar,
    /// 256-bit AVX with FMA (`vfmaddsub`-based complex products).
    Avx,
}

impl SimdLevel {
    /// Stable lowercase name (accepted back through [`SIMD_ENV`]).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx => "avx",
        }
    }
}

/// 0 = undecided, 1 = scalar, 2 = avx.
static LEVEL: AtomicU8 = AtomicU8::new(0);

fn hardware_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx;
        }
    }
    SimdLevel::Scalar
}

fn decide() -> SimdLevel {
    match std::env::var(SIMD_ENV) {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "scalar" => SimdLevel::Scalar,
            "avx" | "avx2" | "simd" => {
                assert!(
                    hardware_level() == SimdLevel::Avx,
                    "{SIMD_ENV}={v} but this CPU lacks AVX+FMA"
                );
                SimdLevel::Avx
            }
            "auto" | "" => hardware_level(),
            other => panic!("{SIMD_ENV}={other:?} is not scalar|avx|auto"),
        },
        Err(_) => hardware_level(),
    }
}

/// The dispatch level in force (decided on first call, then cached).
#[inline]
pub fn simd_level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx,
        _ => {
            let l = decide();
            LEVEL.store(if l == SimdLevel::Scalar { 1 } else { 2 }, Ordering::Relaxed);
            l
        }
    }
}

/// Forces a dispatch level (`None` re-detects from env + CPU). Intended
/// for tests and the perf harness; affects the whole process.
pub fn force_level(level: Option<SimdLevel>) {
    let v = match level {
        None => 0,
        Some(SimdLevel::Scalar) => 1,
        Some(SimdLevel::Avx) => {
            assert!(hardware_level() == SimdLevel::Avx, "AVX+FMA unavailable on this CPU");
            2
        }
    };
    LEVEL.store(v, Ordering::Relaxed);
}

/// The micro-kernels' complex product: `a·b` with the `vfmaddsub` fusion
/// pattern (`re = fma(aᵣ, bᵣ, −aᵢbᵢ)`, `im = fma(aᵢ, bᵣ, aᵣbᵢ)`).
///
/// This is the definitional primitive every kernel below builds on; using
/// it scalar-side is what makes scalar and AVX results bitwise identical.
#[inline(always)]
pub fn cmul(a: Complex64, b: Complex64) -> Complex64 {
    c64(f64::mul_add(a.re, b.re, -(a.im * b.im)), f64::mul_add(a.im, b.re, a.re * b.im))
}

/// Reinterprets a `Complex64` buffer's memory as two `f64` planes.
///
/// This is a *storage* view, not a per-element one: the first half of the
/// buffer's bytes become the `re` plane and the second half the `im` plane
/// (each `buf.len()` doubles long). It is how the split-complex (SoA)
/// execution engine carves its scratch planes out of ordinary
/// `Complex64` workspace buffers without allocating. The returned planes
/// hold whatever bytes the buffer held; fill them with [`deinterleave`].
#[inline]
pub fn planes_mut(buf: &mut [Complex64]) -> (&mut [f64], &mut [f64]) {
    let n = buf.len();
    // SAFETY: Complex64 is #[repr(C)] { re: f64, im: f64 }, so its size is
    // exactly two f64s and its alignment is that of f64; any Complex64
    // buffer is therefore a valid f64 buffer of twice the length.
    let flat = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut f64, 2 * n) };
    flat.split_at_mut(n)
}

// ---------------------------------------------------------------------------
// Scalar reference implementations (the semantics both levels must match).
// ---------------------------------------------------------------------------

mod scalar {
    use super::{cmul, Complex64};

    #[inline]
    pub fn deinterleave(src: &[Complex64], re: &mut [f64], im: &mut [f64]) {
        for (i, z) in src.iter().enumerate() {
            re[i] = z.re;
            im[i] = z.im;
        }
    }

    #[inline]
    pub fn interleave(re: &[f64], im: &[f64], dst: &mut [Complex64]) {
        for (i, z) in dst.iter_mut().enumerate() {
            z.re = re[i];
            z.im = im[i];
        }
    }

    /// Split-complex radix-2 butterfly with the *plain* product formula
    /// (`re = hᵣwᵣ − hᵢwᵢ`) — the elementwise mirror of the AoS kernels'
    /// `Complex64::mul` operator, used by every non-final stage.
    #[inline]
    pub fn bf2_soa_mul(
        lo_re: &mut [f64],
        lo_im: &mut [f64],
        hi_re: &mut [f64],
        hi_im: &mut [f64],
        w_re: &[f64],
        w_im: &[f64],
    ) {
        for j in 0..lo_re.len() {
            let vr = hi_re[j] * w_re[j] - hi_im[j] * w_im[j];
            let vi = hi_re[j] * w_im[j] + hi_im[j] * w_re[j];
            let ur = lo_re[j];
            let ui = lo_im[j];
            lo_re[j] = ur + vr;
            lo_im[j] = ui + vi;
            hi_re[j] = ur - vr;
            hi_im[j] = ui - vi;
        }
    }

    /// Split-complex radix-2 butterfly with the fused product formula of
    /// [`cmul`] — the elementwise mirror of the AoS final-stage
    /// [`super::butterfly`] kernel.
    #[inline]
    pub fn bf2_soa_fma(
        lo_re: &mut [f64],
        lo_im: &mut [f64],
        hi_re: &mut [f64],
        hi_im: &mut [f64],
        w_re: &[f64],
        w_im: &[f64],
    ) {
        for j in 0..lo_re.len() {
            let vr = f64::mul_add(hi_re[j], w_re[j], -(hi_im[j] * w_im[j]));
            let vi = f64::mul_add(hi_im[j], w_re[j], hi_re[j] * w_im[j]);
            let ur = lo_re[j];
            let ui = lo_im[j];
            lo_re[j] = ur + vr;
            lo_im[j] = ui + vi;
            hi_re[j] = ur - vr;
            hi_im[j] = ui - vi;
        }
    }

    /// Split-complex radix-4 butterfly over four quarter segments —
    /// the elementwise mirror of the AoS radix-4 stage body (plain
    /// products, quarter-turn rotation by `s = ±1`).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn bf4_soa(
        s: f64,
        a_re: &mut [f64],
        a_im: &mut [f64],
        b_re: &mut [f64],
        b_im: &mut [f64],
        c_re: &mut [f64],
        c_im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        w1_re: &[f64],
        w1_im: &[f64],
        w2_re: &[f64],
        w2_im: &[f64],
        w3_re: &[f64],
        w3_im: &[f64],
    ) {
        for j in 0..a_re.len() {
            let ar = a_re[j];
            let ai = a_im[j];
            let br = b_re[j] * w2_re[j] - b_im[j] * w2_im[j];
            let bi = b_re[j] * w2_im[j] + b_im[j] * w2_re[j];
            let cr = c_re[j] * w1_re[j] - c_im[j] * w1_im[j];
            let ci = c_re[j] * w1_im[j] + c_im[j] * w1_re[j];
            let dr = d_re[j] * w3_re[j] - d_im[j] * w3_im[j];
            let di = d_re[j] * w3_im[j] + d_im[j] * w3_re[j];
            let t0r = ar + br;
            let t0i = ai + bi;
            let t1r = ar - br;
            let t1i = ai - bi;
            let t2r = cr + dr;
            let t2i = ci + di;
            let t3r = cr - dr;
            let t3i = ci - di;
            // rot·t3 with rot = s·i, written exactly as the AoS kernel does.
            let rtr = -s * t3i;
            let rti = s * t3r;
            a_re[j] = t0r + t2r;
            a_im[j] = t0i + t2i;
            c_re[j] = t0r - t2r;
            c_im[j] = t0i - t2i;
            b_re[j] = t1r + rtr;
            b_im[j] = t1i + rti;
            d_re[j] = t1r - rtr;
            d_im[j] = t1i - rti;
        }
    }

    /// Split-complex radix-4 butterfly over four rows with one broadcast
    /// twiddle triple `tw = [w1ᵣ, w1ᵢ, w2ᵣ, w2ᵢ, w3ᵣ, w3ᵢ]` — per lane the
    /// arithmetic of [`bf4_soa`].
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn bf4_rows(
        s: f64,
        a_re: &mut [f64],
        a_im: &mut [f64],
        b_re: &mut [f64],
        b_im: &mut [f64],
        c_re: &mut [f64],
        c_im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        tw: [f64; 6],
    ) {
        let [w1r, w1i, w2r, w2i, w3r, w3i] = tw;
        for j in 0..a_re.len() {
            let ar = a_re[j];
            let ai = a_im[j];
            let br = b_re[j] * w2r - b_im[j] * w2i;
            let bi = b_re[j] * w2i + b_im[j] * w2r;
            let cr = c_re[j] * w1r - c_im[j] * w1i;
            let ci = c_re[j] * w1i + c_im[j] * w1r;
            let dr = d_re[j] * w3r - d_im[j] * w3i;
            let di = d_re[j] * w3i + d_im[j] * w3r;
            let t0r = ar + br;
            let t0i = ai + bi;
            let t1r = ar - br;
            let t1i = ai - bi;
            let t2r = cr + dr;
            let t2i = ci + di;
            let t3r = cr - dr;
            let t3i = ci - di;
            let rtr = -s * t3i;
            let rti = s * t3r;
            a_re[j] = t0r + t2r;
            a_im[j] = t0i + t2i;
            c_re[j] = t0r - t2r;
            c_im[j] = t0i - t2i;
            b_re[j] = t1r + rtr;
            b_im[j] = t1i + rti;
            d_re[j] = t1r - rtr;
            d_im[j] = t1i - rti;
        }
    }

    /// Two-lane accumulation step shared by `dot` and `DotAcc`: folds an
    /// *even-length* prefix, then at most one tail element into lane 0.
    #[inline]
    pub fn dot_accumulate(acc: &mut [Complex64; 2], x: &[Complex64], w: &[Complex64]) {
        for (xc, wc) in x.chunks_exact(2).zip(w.chunks_exact(2)) {
            acc[0] += cmul(xc[0], wc[0]);
            acc[1] += cmul(xc[1], wc[1]);
        }
        if x.len() % 2 == 1 {
            acc[0] += cmul(x[x.len() - 1], w[x.len() - 1]);
        }
    }

    #[inline]
    pub fn dot_pair_accumulate(
        acc1: &mut [Complex64; 2],
        acc2: &mut [Complex64; 2],
        base: usize,
        x: &[Complex64],
        w: &[Complex64],
    ) {
        for (i, (xc, wc)) in x.chunks_exact(2).zip(w.chunks_exact(2)).enumerate() {
            let j = base + 2 * i;
            let t0 = cmul(xc[0], wc[0]);
            acc1[0] += t0;
            acc2[0] += t0.scale((j + 1) as f64);
            let t1 = cmul(xc[1], wc[1]);
            acc1[1] += t1;
            acc2[1] += t1.scale((j + 2) as f64);
        }
        if x.len() % 2 == 1 {
            let last = x.len() - 1;
            let t = cmul(x[last], w[last]);
            acc1[0] += t;
            acc2[0] += t.scale((base + x.len()) as f64);
        }
    }

    #[inline]
    pub fn axpy2(
        acc1: &mut [Complex64],
        acc2: &mut [Complex64],
        x: &[Complex64],
        w1: Complex64,
        w2: Complex64,
    ) {
        for ((a1, a2), &v) in acc1.iter_mut().zip(acc2.iter_mut()).zip(x) {
            *a1 += cmul(v, w1);
            *a2 += cmul(v, w2);
        }
    }

    #[inline]
    pub fn cmul_inplace(a: &mut [Complex64], b: &[Complex64]) {
        for (av, &bv) in a.iter_mut().zip(b) {
            *av = cmul(*av, bv);
        }
    }

    #[inline]
    pub fn butterfly(lo: &mut [Complex64], hi: &mut [Complex64], tw: &[Complex64]) {
        for ((l, h), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let u = *l;
            let v = cmul(*h, w);
            *l = u + v;
            *h = u - v;
        }
    }

    /// Energy step shared by `energy` and `EnergyAcc`: each eight-element
    /// group folds `re²`/`im²` of element `i` into lanes `2i`/`2i+1` (four
    /// 256-bit registers' worth of independent chains), then the tail
    /// folds into lanes 0/1 in order.
    #[inline]
    pub fn energy_accumulate(acc: &mut [f64; 16], x: &[Complex64]) {
        let groups = x.chunks_exact(8);
        let rem = groups.remainder();
        for g in groups {
            for (i, v) in g.iter().enumerate() {
                acc[2 * i] += v.re * v.re;
                acc[2 * i + 1] += v.im * v.im;
            }
        }
        for v in rem {
            acc[0] += v.re * v.re;
            acc[1] += v.im * v.im;
        }
    }

    /// `dst += x` fused with [`energy_accumulate`] over `x` (same lanes,
    /// same order).
    #[inline]
    pub fn add_energy_accumulate(acc: &mut [f64; 16], dst: &mut [Complex64], x: &[Complex64]) {
        for (d, v) in dst.iter_mut().zip(x) {
            *d += *v;
        }
        energy_accumulate(acc, x);
    }

    /// Six-element group accumulation for the ω₃-weighted sum; returns the
    /// three group sums `Σ_{j≡c (mod 3)} x_j` in lane-reduced order.
    #[inline]
    pub fn sum3_groups(x: &[Complex64]) -> [Complex64; 3] {
        let mut a = [Complex64::ZERO; 2];
        let mut b = [Complex64::ZERO; 2];
        let mut c = [Complex64::ZERO; 2];
        let chunks = x.chunks_exact(6);
        let rem = chunks.remainder();
        for v in chunks {
            a[0] += v[0];
            a[1] += v[1];
            b[0] += v[2];
            b[1] += v[3];
            c[0] += v[4];
            c[1] += v[5];
        }
        let mut s = [a[0] + b[1], a[1] + c[0], b[0] + c[1]];
        for (i, &v) in rem.iter().enumerate() {
            s[i % 3] += v;
        }
        s
    }
}

// ---------------------------------------------------------------------------
// AVX+FMA implementations (x86_64 only). Each mirrors the scalar routine
// lane-for-lane; see the module docs for the bitwise argument.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::Complex64;
    use std::arch::x86_64::*;

    #[inline(always)]
    unsafe fn load2(p: *const Complex64) -> __m256d {
        _mm256_loadu_pd(p as *const f64)
    }

    #[inline(always)]
    unsafe fn store2(p: *mut Complex64, v: __m256d) {
        _mm256_storeu_pd(p as *mut f64, v)
    }

    /// Two interleaved complex products via `vfmaddsub`.
    #[inline(always)]
    unsafe fn cmul2(a: __m256d, b: __m256d) -> __m256d {
        let bre = _mm256_movedup_pd(b); // [br0, br0, br1, br1]
        let bim = _mm256_permute_pd(b, 0xF); // [bi0, bi0, bi1, bi1]
        let aswap = _mm256_permute_pd(a, 0x5); // [ai0, ar0, ai1, ar1]
        _mm256_fmaddsub_pd(a, bre, _mm256_mul_pd(aswap, bim))
    }

    #[inline(always)]
    unsafe fn to_lanes(v: __m256d) -> [Complex64; 2] {
        let mut out = [Complex64::ZERO; 2];
        store2(out.as_mut_ptr(), v);
        out
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn dot_accumulate(acc: &mut [Complex64; 2], x: &[Complex64], w: &[Complex64]) {
        let pairs = x.len() / 2;
        let mut vacc = load2(acc.as_ptr());
        for i in 0..pairs {
            let xv = load2(x.as_ptr().add(2 * i));
            let wv = load2(w.as_ptr().add(2 * i));
            vacc = _mm256_add_pd(vacc, cmul2(xv, wv));
        }
        *acc = to_lanes(vacc);
        if x.len() % 2 == 1 {
            acc[0] += super::cmul(x[x.len() - 1], w[x.len() - 1]);
        }
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn dot_pair_accumulate(
        acc1: &mut [Complex64; 2],
        acc2: &mut [Complex64; 2],
        base: usize,
        x: &[Complex64],
        w: &[Complex64],
    ) {
        let pairs = x.len() / 2;
        let mut v1 = load2(acc1.as_ptr());
        let mut v2 = load2(acc2.as_ptr());
        // [j+1, j+1, j+2, j+2] advancing by 2 per iteration.
        let mut idx = _mm256_set_pd(
            (base + 2) as f64,
            (base + 2) as f64,
            (base + 1) as f64,
            (base + 1) as f64,
        );
        let two = _mm256_set1_pd(2.0);
        for i in 0..pairs {
            let t = cmul2(load2(x.as_ptr().add(2 * i)), load2(w.as_ptr().add(2 * i)));
            v1 = _mm256_add_pd(v1, t);
            v2 = _mm256_add_pd(v2, _mm256_mul_pd(t, idx));
            idx = _mm256_add_pd(idx, two);
        }
        *acc1 = to_lanes(v1);
        *acc2 = to_lanes(v2);
        if x.len() % 2 == 1 {
            let last = x.len() - 1;
            let t = super::cmul(x[last], w[last]);
            acc1[0] += t;
            acc2[0] += t.scale((base + x.len()) as f64);
        }
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn axpy2(
        acc1: &mut [Complex64],
        acc2: &mut [Complex64],
        x: &[Complex64],
        w1: Complex64,
        w2: Complex64,
    ) {
        let n = x.len();
        let pairs = n / 2;
        let w1re = _mm256_set1_pd(w1.re);
        let w1im = _mm256_set1_pd(w1.im);
        let w2re = _mm256_set1_pd(w2.re);
        let w2im = _mm256_set1_pd(w2.im);
        for i in 0..pairs {
            let xv = load2(x.as_ptr().add(2 * i));
            let xswap = _mm256_permute_pd(xv, 0x5);
            let t1 = _mm256_fmaddsub_pd(xv, w1re, _mm256_mul_pd(xswap, w1im));
            let t2 = _mm256_fmaddsub_pd(xv, w2re, _mm256_mul_pd(xswap, w2im));
            let a1p = acc1.as_mut_ptr().add(2 * i);
            let a2p = acc2.as_mut_ptr().add(2 * i);
            store2(a1p, _mm256_add_pd(load2(a1p), t1));
            store2(a2p, _mm256_add_pd(load2(a2p), t2));
        }
        if n % 2 == 1 {
            let v = x[n - 1];
            acc1[n - 1] += super::cmul(v, w1);
            acc2[n - 1] += super::cmul(v, w2);
        }
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn cmul_inplace(a: &mut [Complex64], b: &[Complex64]) {
        let n = a.len();
        let pairs = n / 2;
        for i in 0..pairs {
            let ap = a.as_mut_ptr().add(2 * i);
            store2(ap, cmul2(load2(ap), load2(b.as_ptr().add(2 * i))));
        }
        if n % 2 == 1 {
            a[n - 1] = super::cmul(a[n - 1], b[n - 1]);
        }
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn butterfly(lo: &mut [Complex64], hi: &mut [Complex64], tw: &[Complex64]) {
        let n = lo.len();
        let pairs = n / 2;
        for i in 0..pairs {
            let lp = lo.as_mut_ptr().add(2 * i);
            let hp = hi.as_mut_ptr().add(2 * i);
            let u = load2(lp);
            let v = cmul2(load2(hp), load2(tw.as_ptr().add(2 * i)));
            store2(lp, _mm256_add_pd(u, v));
            store2(hp, _mm256_sub_pd(u, v));
        }
        if n % 2 == 1 {
            let u = lo[n - 1];
            let v = super::cmul(hi[n - 1], tw[n - 1]);
            lo[n - 1] = u + v;
            hi[n - 1] = u - v;
        }
    }

    /// Splits 4 interleaved complex values (two 256-bit registers) into a
    /// (re, im) register pair — AVX1 only (`vperm2f128` + unpacks).
    #[inline(always)]
    unsafe fn split4(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        let x = _mm256_permute2f128_pd(a, b, 0x20); // [r0,i0,r2,i2]
        let y = _mm256_permute2f128_pd(a, b, 0x31); // [r1,i1,r3,i3]
        (_mm256_unpacklo_pd(x, y), _mm256_unpackhi_pd(x, y))
    }

    /// Inverse of [`split4`]: recombines (re, im) registers into two
    /// interleaved complex registers.
    #[inline(always)]
    unsafe fn join4(re: __m256d, im: __m256d) -> (__m256d, __m256d) {
        let x = _mm256_unpacklo_pd(re, im); // [r0,i0,r2,i2]
        let y = _mm256_unpackhi_pd(re, im); // [r1,i1,r3,i3]
        (_mm256_permute2f128_pd(x, y, 0x20), _mm256_permute2f128_pd(x, y, 0x31))
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn deinterleave(src: &[Complex64], re: &mut [f64], im: &mut [f64]) {
        let n = src.len();
        let quads = n / 4;
        for q in 0..quads {
            let p = src.as_ptr().add(4 * q) as *const f64;
            let (r, i) = split4(_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)));
            _mm256_storeu_pd(re.as_mut_ptr().add(4 * q), r);
            _mm256_storeu_pd(im.as_mut_ptr().add(4 * q), i);
        }
        for j in quads * 4..n {
            re[j] = src[j].re;
            im[j] = src[j].im;
        }
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn interleave(re: &[f64], im: &[f64], dst: &mut [Complex64]) {
        let n = dst.len();
        let quads = n / 4;
        for q in 0..quads {
            let r = _mm256_loadu_pd(re.as_ptr().add(4 * q));
            let i = _mm256_loadu_pd(im.as_ptr().add(4 * q));
            let (a, b) = join4(r, i);
            let p = dst.as_mut_ptr().add(4 * q) as *mut f64;
            _mm256_storeu_pd(p, a);
            _mm256_storeu_pd(p.add(4), b);
        }
        for j in quads * 4..n {
            dst[j].re = re[j];
            dst[j].im = im[j];
        }
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn bf2_soa_mul(
        lo_re: &mut [f64],
        lo_im: &mut [f64],
        hi_re: &mut [f64],
        hi_im: &mut [f64],
        w_re: &[f64],
        w_im: &[f64],
    ) {
        let n = lo_re.len();
        let quads = n / 4;
        for q in 0..quads {
            let o = 4 * q;
            let hr = _mm256_loadu_pd(hi_re.as_ptr().add(o));
            let hi_ = _mm256_loadu_pd(hi_im.as_ptr().add(o));
            let wr = _mm256_loadu_pd(w_re.as_ptr().add(o));
            let wi = _mm256_loadu_pd(w_im.as_ptr().add(o));
            // Plain product: same separately-rounded mul/sub/add sequence
            // as the scalar operator — bitwise identical lanes.
            let vr = _mm256_sub_pd(_mm256_mul_pd(hr, wr), _mm256_mul_pd(hi_, wi));
            let vi = _mm256_add_pd(_mm256_mul_pd(hr, wi), _mm256_mul_pd(hi_, wr));
            let ur = _mm256_loadu_pd(lo_re.as_ptr().add(o));
            let ui = _mm256_loadu_pd(lo_im.as_ptr().add(o));
            _mm256_storeu_pd(lo_re.as_mut_ptr().add(o), _mm256_add_pd(ur, vr));
            _mm256_storeu_pd(lo_im.as_mut_ptr().add(o), _mm256_add_pd(ui, vi));
            _mm256_storeu_pd(hi_re.as_mut_ptr().add(o), _mm256_sub_pd(ur, vr));
            _mm256_storeu_pd(hi_im.as_mut_ptr().add(o), _mm256_sub_pd(ui, vi));
        }
        if quads * 4 < n {
            super::scalar::bf2_soa_mul(
                &mut lo_re[quads * 4..],
                &mut lo_im[quads * 4..],
                &mut hi_re[quads * 4..],
                &mut hi_im[quads * 4..],
                &w_re[quads * 4..],
                &w_im[quads * 4..],
            );
        }
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn bf2_soa_fma(
        lo_re: &mut [f64],
        lo_im: &mut [f64],
        hi_re: &mut [f64],
        hi_im: &mut [f64],
        w_re: &[f64],
        w_im: &[f64],
    ) {
        let n = lo_re.len();
        let quads = n / 4;
        for q in 0..quads {
            let o = 4 * q;
            let hr = _mm256_loadu_pd(hi_re.as_ptr().add(o));
            let hi_ = _mm256_loadu_pd(hi_im.as_ptr().add(o));
            let wr = _mm256_loadu_pd(w_re.as_ptr().add(o));
            let wi = _mm256_loadu_pd(w_im.as_ptr().add(o));
            // fmsub(a,b,c) = round(ab−c) = mul_add(a, b, −c): the exact
            // scalar cmul formula, lane for lane.
            let vr = _mm256_fmsub_pd(hr, wr, _mm256_mul_pd(hi_, wi));
            let vi = _mm256_fmadd_pd(hi_, wr, _mm256_mul_pd(hr, wi));
            let ur = _mm256_loadu_pd(lo_re.as_ptr().add(o));
            let ui = _mm256_loadu_pd(lo_im.as_ptr().add(o));
            _mm256_storeu_pd(lo_re.as_mut_ptr().add(o), _mm256_add_pd(ur, vr));
            _mm256_storeu_pd(lo_im.as_mut_ptr().add(o), _mm256_add_pd(ui, vi));
            _mm256_storeu_pd(hi_re.as_mut_ptr().add(o), _mm256_sub_pd(ur, vr));
            _mm256_storeu_pd(hi_im.as_mut_ptr().add(o), _mm256_sub_pd(ui, vi));
        }
        if quads * 4 < n {
            super::scalar::bf2_soa_fma(
                &mut lo_re[quads * 4..],
                &mut lo_im[quads * 4..],
                &mut hi_re[quads * 4..],
                &mut hi_im[quads * 4..],
                &w_re[quads * 4..],
                &w_im[quads * 4..],
            );
        }
    }

    /// Plain split-complex product of a (re,im) register pair by a twiddle
    /// register pair — the vector form of the scalar operator expansion.
    #[inline(always)]
    unsafe fn cmul_soa(ar: __m256d, ai: __m256d, wr: __m256d, wi: __m256d) -> (__m256d, __m256d) {
        (
            _mm256_sub_pd(_mm256_mul_pd(ar, wr), _mm256_mul_pd(ai, wi)),
            _mm256_add_pd(_mm256_mul_pd(ar, wi), _mm256_mul_pd(ai, wr)),
        )
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx,fma")]
    pub unsafe fn bf4_soa(
        s: f64,
        a_re: &mut [f64],
        a_im: &mut [f64],
        b_re: &mut [f64],
        b_im: &mut [f64],
        c_re: &mut [f64],
        c_im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        w1_re: &[f64],
        w1_im: &[f64],
        w2_re: &[f64],
        w2_im: &[f64],
        w3_re: &[f64],
        w3_im: &[f64],
    ) {
        let n = a_re.len();
        let quads = n / 4;
        let sneg = _mm256_set1_pd(-s);
        let spos = _mm256_set1_pd(s);
        for q in 0..quads {
            let o = 4 * q;
            let ar = _mm256_loadu_pd(a_re.as_ptr().add(o));
            let ai = _mm256_loadu_pd(a_im.as_ptr().add(o));
            let (br, bi) = cmul_soa(
                _mm256_loadu_pd(b_re.as_ptr().add(o)),
                _mm256_loadu_pd(b_im.as_ptr().add(o)),
                _mm256_loadu_pd(w2_re.as_ptr().add(o)),
                _mm256_loadu_pd(w2_im.as_ptr().add(o)),
            );
            let (cr, ci) = cmul_soa(
                _mm256_loadu_pd(c_re.as_ptr().add(o)),
                _mm256_loadu_pd(c_im.as_ptr().add(o)),
                _mm256_loadu_pd(w1_re.as_ptr().add(o)),
                _mm256_loadu_pd(w1_im.as_ptr().add(o)),
            );
            let (dr, di) = cmul_soa(
                _mm256_loadu_pd(d_re.as_ptr().add(o)),
                _mm256_loadu_pd(d_im.as_ptr().add(o)),
                _mm256_loadu_pd(w3_re.as_ptr().add(o)),
                _mm256_loadu_pd(w3_im.as_ptr().add(o)),
            );
            let t0r = _mm256_add_pd(ar, br);
            let t0i = _mm256_add_pd(ai, bi);
            let t1r = _mm256_sub_pd(ar, br);
            let t1i = _mm256_sub_pd(ai, bi);
            let t2r = _mm256_add_pd(cr, dr);
            let t2i = _mm256_add_pd(ci, di);
            let t3r = _mm256_sub_pd(cr, dr);
            let t3i = _mm256_sub_pd(ci, di);
            let rtr = _mm256_mul_pd(sneg, t3i);
            let rti = _mm256_mul_pd(spos, t3r);
            _mm256_storeu_pd(a_re.as_mut_ptr().add(o), _mm256_add_pd(t0r, t2r));
            _mm256_storeu_pd(a_im.as_mut_ptr().add(o), _mm256_add_pd(t0i, t2i));
            _mm256_storeu_pd(c_re.as_mut_ptr().add(o), _mm256_sub_pd(t0r, t2r));
            _mm256_storeu_pd(c_im.as_mut_ptr().add(o), _mm256_sub_pd(t0i, t2i));
            _mm256_storeu_pd(b_re.as_mut_ptr().add(o), _mm256_add_pd(t1r, rtr));
            _mm256_storeu_pd(b_im.as_mut_ptr().add(o), _mm256_add_pd(t1i, rti));
            _mm256_storeu_pd(d_re.as_mut_ptr().add(o), _mm256_sub_pd(t1r, rtr));
            _mm256_storeu_pd(d_im.as_mut_ptr().add(o), _mm256_sub_pd(t1i, rti));
        }
        if quads * 4 < n {
            let t = quads * 4;
            super::scalar::bf4_soa(
                s,
                &mut a_re[t..],
                &mut a_im[t..],
                &mut b_re[t..],
                &mut b_im[t..],
                &mut c_re[t..],
                &mut c_im[t..],
                &mut d_re[t..],
                &mut d_im[t..],
                &w1_re[t..],
                &w1_im[t..],
                &w2_re[t..],
                &w2_im[t..],
                &w3_re[t..],
                &w3_im[t..],
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx,fma")]
    pub unsafe fn bf4_rows(
        s: f64,
        a_re: &mut [f64],
        a_im: &mut [f64],
        b_re: &mut [f64],
        b_im: &mut [f64],
        c_re: &mut [f64],
        c_im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        tw: [f64; 6],
    ) {
        let n = a_re.len();
        let quads = n / 4;
        let sneg = _mm256_set1_pd(-s);
        let spos = _mm256_set1_pd(s);
        let (w1r, w1i) = (_mm256_set1_pd(tw[0]), _mm256_set1_pd(tw[1]));
        let (w2r, w2i) = (_mm256_set1_pd(tw[2]), _mm256_set1_pd(tw[3]));
        let (w3r, w3i) = (_mm256_set1_pd(tw[4]), _mm256_set1_pd(tw[5]));
        for q in 0..quads {
            let o = 4 * q;
            let ar = _mm256_loadu_pd(a_re.as_ptr().add(o));
            let ai = _mm256_loadu_pd(a_im.as_ptr().add(o));
            let (br, bi) = cmul_soa(
                _mm256_loadu_pd(b_re.as_ptr().add(o)),
                _mm256_loadu_pd(b_im.as_ptr().add(o)),
                w2r,
                w2i,
            );
            let (cr, ci) = cmul_soa(
                _mm256_loadu_pd(c_re.as_ptr().add(o)),
                _mm256_loadu_pd(c_im.as_ptr().add(o)),
                w1r,
                w1i,
            );
            let (dr, di) = cmul_soa(
                _mm256_loadu_pd(d_re.as_ptr().add(o)),
                _mm256_loadu_pd(d_im.as_ptr().add(o)),
                w3r,
                w3i,
            );
            let t0r = _mm256_add_pd(ar, br);
            let t0i = _mm256_add_pd(ai, bi);
            let t1r = _mm256_sub_pd(ar, br);
            let t1i = _mm256_sub_pd(ai, bi);
            let t2r = _mm256_add_pd(cr, dr);
            let t2i = _mm256_add_pd(ci, di);
            let t3r = _mm256_sub_pd(cr, dr);
            let t3i = _mm256_sub_pd(ci, di);
            let rtr = _mm256_mul_pd(sneg, t3i);
            let rti = _mm256_mul_pd(spos, t3r);
            _mm256_storeu_pd(a_re.as_mut_ptr().add(o), _mm256_add_pd(t0r, t2r));
            _mm256_storeu_pd(a_im.as_mut_ptr().add(o), _mm256_add_pd(t0i, t2i));
            _mm256_storeu_pd(c_re.as_mut_ptr().add(o), _mm256_sub_pd(t0r, t2r));
            _mm256_storeu_pd(c_im.as_mut_ptr().add(o), _mm256_sub_pd(t0i, t2i));
            _mm256_storeu_pd(b_re.as_mut_ptr().add(o), _mm256_add_pd(t1r, rtr));
            _mm256_storeu_pd(b_im.as_mut_ptr().add(o), _mm256_add_pd(t1i, rti));
            _mm256_storeu_pd(d_re.as_mut_ptr().add(o), _mm256_sub_pd(t1r, rtr));
            _mm256_storeu_pd(d_im.as_mut_ptr().add(o), _mm256_sub_pd(t1i, rti));
        }
        if quads * 4 < n {
            let t = quads * 4;
            super::scalar::bf4_rows(
                s,
                &mut a_re[t..],
                &mut a_im[t..],
                &mut b_re[t..],
                &mut b_im[t..],
                &mut c_re[t..],
                &mut c_im[t..],
                &mut d_re[t..],
                &mut d_im[t..],
                tw,
            );
        }
    }

    /// Plain multiply then add (no FMA), so every lane matches the scalar
    /// `acc += v * v` bit for bit.
    #[target_feature(enable = "avx,fma")]
    pub unsafe fn energy_accumulate(acc: &mut [f64; 16], x: &[Complex64]) {
        let a = acc.as_mut_ptr();
        let mut e = [
            _mm256_loadu_pd(a),
            _mm256_loadu_pd(a.add(4)),
            _mm256_loadu_pd(a.add(8)),
            _mm256_loadu_pd(a.add(12)),
        ];
        let groups = x.len() / 8;
        for i in 0..groups {
            for (q, ev) in e.iter_mut().enumerate() {
                let xv = load2(x.as_ptr().add(8 * i + 2 * q));
                *ev = _mm256_add_pd(*ev, _mm256_mul_pd(xv, xv));
            }
        }
        for (q, ev) in e.iter().enumerate() {
            _mm256_storeu_pd(a.add(4 * q), *ev);
        }
        for v in &x[groups * 8..] {
            acc[0] += v.re * v.re;
            acc[1] += v.im * v.im;
        }
    }

    /// One pass of `dst += x` that also folds `x` into the energy lanes.
    #[target_feature(enable = "avx,fma")]
    pub unsafe fn add_energy_accumulate(
        acc: &mut [f64; 16],
        dst: &mut [Complex64],
        x: &[Complex64],
    ) {
        let a = acc.as_mut_ptr();
        let mut e = [
            _mm256_loadu_pd(a),
            _mm256_loadu_pd(a.add(4)),
            _mm256_loadu_pd(a.add(8)),
            _mm256_loadu_pd(a.add(12)),
        ];
        let groups = x.len() / 8;
        for i in 0..groups {
            for (q, ev) in e.iter_mut().enumerate() {
                let xv = load2(x.as_ptr().add(8 * i + 2 * q));
                let dp = dst.as_mut_ptr().add(8 * i + 2 * q);
                store2(dp, _mm256_add_pd(load2(dp), xv));
                *ev = _mm256_add_pd(*ev, _mm256_mul_pd(xv, xv));
            }
        }
        for (q, ev) in e.iter().enumerate() {
            _mm256_storeu_pd(a.add(4 * q), *ev);
        }
        for (d, v) in dst[groups * 8..].iter_mut().zip(&x[groups * 8..]) {
            *d += *v;
            acc[0] += v.re * v.re;
            acc[1] += v.im * v.im;
        }
    }

    #[target_feature(enable = "avx,fma")]
    pub unsafe fn sum3_groups(x: &[Complex64]) -> [Complex64; 3] {
        let mut va = _mm256_setzero_pd();
        let mut vb = _mm256_setzero_pd();
        let mut vc = _mm256_setzero_pd();
        let sextets = x.len() / 6;
        for i in 0..sextets {
            let p = x.as_ptr().add(6 * i);
            va = _mm256_add_pd(va, load2(p));
            vb = _mm256_add_pd(vb, load2(p.add(2)));
            vc = _mm256_add_pd(vc, load2(p.add(4)));
        }
        let a = to_lanes(va);
        let b = to_lanes(vb);
        let c = to_lanes(vc);
        let mut s = [a[0] + b[1], a[1] + c[0], b[0] + c[1]];
        for (i, &v) in x[sextets * 6..].iter().enumerate() {
            s[i % 3] += v;
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Public dispatched kernels.
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($($args:expr),*; $fn_name:ident) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if simd_level() == SimdLevel::Avx {
                // SAFETY: simd_level() returned Avx only after verifying
                // the avx and fma CPU features are present.
                return unsafe { avx::$fn_name($($args),*) };
            }
        }
        scalar::$fn_name($($args),*)
    }};
}

/// Weighted dot-product `Σ_j x_j·w_j` (`w.len() ≥ x.len()`), the CCG core.
#[inline]
pub fn dot(x: &[Complex64], w: &[Complex64]) -> Complex64 {
    debug_assert!(w.len() >= x.len());
    let mut acc = DotAcc::new();
    acc.accumulate(x, &w[..x.len()]);
    acc.finish()
}

/// Combined dot-product pair `(Σ_j x_j·w_j, Σ_j (j+1)·x_j·w_j)` — the §4.1
/// combined checksum in one pass.
#[inline]
pub fn dot_pair(x: &[Complex64], w: &[Complex64]) -> (Complex64, Complex64) {
    debug_assert!(w.len() >= x.len());
    let mut acc = DotPairAcc::new();
    acc.accumulate(x, &w[..x.len()]);
    acc.finish()
}

/// Dual complex AXPY: `acc1[i] += x[i]·w1`, `acc2[i] += x[i]·w2` — the
/// incremental-slot / CMCG row accumulation kernel.
#[inline]
pub fn axpy2(
    acc1: &mut [Complex64],
    acc2: &mut [Complex64],
    x: &[Complex64],
    w1: Complex64,
    w2: Complex64,
) {
    debug_assert!(acc1.len() >= x.len() && acc2.len() >= x.len());
    let n = x.len();
    dispatch!(&mut acc1[..n], &mut acc2[..n], x, w1, w2; axpy2)
}

/// Pointwise complex multiply `a[i] *= b[i]` — the twiddle / convolution
/// workhorse.
#[inline]
pub fn cmul_inplace(a: &mut [Complex64], b: &[Complex64]) {
    debug_assert!(b.len() >= a.len());
    let n = a.len();
    dispatch!(a, &b[..n]; cmul_inplace)
}

/// Radix-2 butterfly over matched halves with contiguous twiddles:
/// `(lo, hi) ← (lo + tw·hi, lo − tw·hi)`.
#[inline]
pub fn butterfly(lo: &mut [Complex64], hi: &mut [Complex64], tw: &[Complex64]) {
    assert_eq!(lo.len(), hi.len());
    debug_assert!(tw.len() >= lo.len());
    let n = lo.len();
    dispatch!(lo, hi, &tw[..n]; butterfly)
}

/// Group sums `Σ_{j≡c (mod 3)} x_j` feeding [`weighted_sum3`].
#[inline]
fn sum3_groups(x: &[Complex64]) -> [Complex64; 3] {
    dispatch!(x; sum3_groups)
}

// ---------------------------------------------------------------------------
// Split-complex (SoA) plane kernels. All are purely elementwise, so scalar
// and AVX lanes perform identical independent arithmetic — the bitwise
// contract holds with no lane-ordering argument needed.
// ---------------------------------------------------------------------------

/// One-pass AoS → SoA conversion: `re[i] = src[i].re`, `im[i] = src[i].im`.
#[inline]
pub fn deinterleave(src: &[Complex64], re: &mut [f64], im: &mut [f64]) {
    assert!(re.len() >= src.len() && im.len() >= src.len());
    let n = src.len();
    dispatch!(src, &mut re[..n], &mut im[..n]; deinterleave)
}

/// One-pass SoA → AoS conversion: `dst[i] = (re[i], im[i])`.
#[inline]
pub fn interleave(re: &[f64], im: &[f64], dst: &mut [Complex64]) {
    assert!(re.len() >= dst.len() && im.len() >= dst.len());
    let n = dst.len();
    dispatch!(&re[..n], &im[..n], dst; interleave)
}

/// Split-complex radix-2 butterfly with the plain (separately rounded)
/// product — the SoA mirror of the AoS kernels' `Complex64` operator
/// multiply used by every non-final stage:
/// `(lo, hi) ← (lo + w·hi, lo − w·hi)` over matched plane segments.
#[inline]
pub fn butterfly_soa_mul(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    w_re: &[f64],
    w_im: &[f64],
) {
    let n = lo_re.len();
    assert!(lo_im.len() == n && hi_re.len() == n && hi_im.len() == n);
    debug_assert!(w_re.len() >= n && w_im.len() >= n);
    dispatch!(lo_re, lo_im, hi_re, hi_im, &w_re[..n], &w_im[..n]; bf2_soa_mul)
}

/// Split-complex radix-2 butterfly with the fused [`cmul`] product — the
/// SoA mirror of the final-stage [`butterfly`] kernel.
#[inline]
pub fn butterfly_soa_fma(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    w_re: &[f64],
    w_im: &[f64],
) {
    let n = lo_re.len();
    assert!(lo_im.len() == n && hi_re.len() == n && hi_im.len() == n);
    debug_assert!(w_re.len() >= n && w_im.len() >= n);
    dispatch!(lo_re, lo_im, hi_re, hi_im, &w_re[..n], &w_im[..n]; bf2_soa_fma)
}

/// Split-complex radix-4 butterfly over four quarter plane segments — the
/// SoA mirror of the AoS radix-4 stage body. `s` is the direction sign
/// (`rot = s·i`); `w1/w2/w3` are the packed per-stage twiddle planes.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn butterfly4_soa(
    s: f64,
    a_re: &mut [f64],
    a_im: &mut [f64],
    b_re: &mut [f64],
    b_im: &mut [f64],
    c_re: &mut [f64],
    c_im: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    w1_re: &[f64],
    w1_im: &[f64],
    w2_re: &[f64],
    w2_im: &[f64],
    w3_re: &[f64],
    w3_im: &[f64],
) {
    let n = a_re.len();
    assert!(
        a_im.len() == n
            && b_re.len() == n
            && b_im.len() == n
            && c_re.len() == n
            && c_im.len() == n
            && d_re.len() == n
            && d_im.len() == n
    );
    debug_assert!(w1_re.len() >= n && w2_re.len() >= n && w3_re.len() >= n);
    dispatch!(
        s, a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im,
        &w1_re[..n], &w1_im[..n], &w2_re[..n], &w2_im[..n], &w3_re[..n], &w3_im[..n];
        bf4_soa
    )
}

/// Radix-4 butterfly over four plane rows with one broadcast twiddle per
/// row — the row butterfly of the column-batched two-layer kernel, where
/// every lane is a different sub-FFT at the same butterfly. `tw` is
/// `[w1ᵣ, w1ᵢ, w2ᵣ, w2ᵢ, w3ᵣ, w3ᵢ]`; `b` is multiplied by `w2`, `c` by
/// `w1` and `d` by `w3`, exactly as in [`butterfly4_soa`], so each lane
/// runs the AoS radix-4 arithmetic on its own column. Rows narrower than
/// one vector run the scalar code directly (the same bits either way).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn butterfly4_rows(
    s: f64,
    a_re: &mut [f64],
    a_im: &mut [f64],
    b_re: &mut [f64],
    b_im: &mut [f64],
    c_re: &mut [f64],
    c_im: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    tw: [f64; 6],
) {
    let n = a_re.len();
    assert!(
        a_im.len() == n
            && b_re.len() == n
            && b_im.len() == n
            && c_re.len() == n
            && c_im.len() == n
            && d_re.len() == n
            && d_im.len() == n
    );
    if n < 4 {
        return scalar::bf4_rows(s, a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im, tw);
    }
    dispatch!(s, a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im, tw; bf4_rows)
}

/// The ω₃-weighted CCV sum `Σ_j w^j·x_j` for a period-3 weight (`w1 = w¹`,
/// `w2 = w²`): group sums by `j mod 3`, then two multiplications.
#[inline]
pub fn weighted_sum3(x: &[Complex64], w1: Complex64, w2: Complex64) -> Complex64 {
    let s = sum3_groups(x);
    s[0] + cmul(s[1], w1) + cmul(s[2], w2)
}

/// Energy `‖x‖² = Σ_j |x_j|²` — the input-scale measurement every
/// protected executor derives its round-off thresholds from.
#[inline]
pub fn energy(x: &[Complex64]) -> f64 {
    let mut acc = EnergyAcc::new();
    acc.accumulate(x);
    acc.finish()
}

/// Streaming [`energy`] accumulator, for folding the measurement into a
/// sweep that already reads the data. Sixteen independent lanes keep the
/// sum streaming-speed; the result depends on how the data was split
/// across calls, never on the dispatch level.
#[derive(Clone, Copy, Debug)]
pub struct EnergyAcc {
    lanes: [f64; 16],
}

impl EnergyAcc {
    /// Fresh zeroed accumulator.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        EnergyAcc { lanes: [0.0; 16] }
    }

    /// Folds `Σ |x_j|²` into the accumulator.
    #[inline]
    pub fn accumulate(&mut self, x: &[Complex64]) {
        let lanes = &mut self.lanes;
        dispatch!(lanes, x; energy_accumulate)
    }

    /// `dst += x` in the same pass that folds `Σ |x_j|²` into the
    /// accumulator — for a sweep that adds the data somewhere anyway.
    #[inline]
    pub fn add_assign(&mut self, dst: &mut [Complex64], x: &[Complex64]) {
        assert_eq!(dst.len(), x.len());
        let lanes = &mut self.lanes;
        dispatch!(lanes, dst, x; add_energy_accumulate)
    }

    /// The accumulated energy (lanes summed in index order).
    #[inline]
    pub fn finish(self) -> f64 {
        self.lanes.iter().sum()
    }
}

/// Streaming [`dot`] accumulator for fused gather+checksum loops.
///
/// Feeding any sequence of even-length slices (the final slice may be odd)
/// produces a result bitwise equal to one `dot` over their concatenation —
/// at either dispatch level.
#[derive(Clone, Copy, Debug)]
pub struct DotAcc {
    lanes: [Complex64; 2],
}

impl DotAcc {
    /// Fresh zeroed accumulator.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        DotAcc { lanes: [Complex64::ZERO; 2] }
    }

    /// Folds `Σ x_j·w_j` into the accumulator. All calls but the last must
    /// pass an even number of elements.
    #[inline]
    pub fn accumulate(&mut self, x: &[Complex64], w: &[Complex64]) {
        debug_assert_eq!(x.len(), w.len());
        let lanes = &mut self.lanes;
        dispatch!(lanes, x, w; dot_accumulate)
    }

    /// The accumulated sum (lane 0 + lane 1).
    #[inline]
    pub fn finish(self) -> Complex64 {
        self.lanes[0] + self.lanes[1]
    }
}

/// Streaming [`dot_pair`] accumulator (tracks the global element index for
/// the `(j+1)` weights).
#[derive(Clone, Copy, Debug)]
pub struct DotPairAcc {
    l1: [Complex64; 2],
    l2: [Complex64; 2],
    base: usize,
}

impl DotPairAcc {
    /// Fresh zeroed accumulator starting at index 0.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        DotPairAcc { l1: [Complex64::ZERO; 2], l2: [Complex64::ZERO; 2], base: 0 }
    }

    /// Folds the next `x.len()` elements. All calls but the last must pass
    /// an even number of elements.
    #[inline]
    pub fn accumulate(&mut self, x: &[Complex64], w: &[Complex64]) {
        debug_assert_eq!(x.len(), w.len());
        let (l1, l2, base) = (&mut self.l1, &mut self.l2, self.base);
        self.base += x.len();
        dispatch!(l1, l2, base, x, w; dot_pair_accumulate)
    }

    /// The accumulated `(sum1, sum2)` pair.
    #[inline]
    pub fn finish(self) -> (Complex64, Complex64) {
        (self.l1[0] + self.l1[1], self.l2[0] + self.l2[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::uniform_signal;

    fn sig(n: usize, seed: u64) -> Vec<Complex64> {
        uniform_signal(n, seed)
    }

    /// Runs `f` at every available level, asserting all outputs are equal.
    fn for_each_level<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
        let prior = simd_level();
        force_level(Some(SimdLevel::Scalar));
        let scalar = f();
        if hardware_level() == SimdLevel::Avx {
            force_level(Some(SimdLevel::Avx));
            let avx = f();
            assert_eq!(scalar, avx, "scalar and AVX kernels disagree bitwise");
        }
        force_level(Some(prior));
        scalar
    }

    #[test]
    fn cmul_matches_complex_mul_closely() {
        let a = c64(1.25, -0.5);
        let b = c64(-2.0, 3.5);
        let got = cmul(a, b);
        let want = a * b;
        assert!(got.approx_eq(want, 1e-14), "{got:?} vs {want:?}");
    }

    #[test]
    fn dot_matches_naive_and_is_level_stable() {
        for n in [0usize, 1, 2, 3, 7, 8, 64, 101, 1000] {
            let x = sig(n, n as u64 + 1);
            let w = sig(n, n as u64 + 1000);
            let got = for_each_level(|| dot(&x, &w));
            let want = x.iter().zip(&w).fold(Complex64::ZERO, |acc, (&a, &b)| acc + a * b);
            assert!(got.approx_eq(want, 1e-10 * (n as f64 + 1.0)), "n={n}");
        }
    }

    #[test]
    fn dot_pair_matches_naive() {
        for n in [1usize, 2, 5, 33, 128] {
            let x = sig(n, 3);
            let w = sig(n, 4);
            let (s1, s2) = for_each_level(|| dot_pair(&x, &w));
            let mut w1 = Complex64::ZERO;
            let mut w2 = Complex64::ZERO;
            for (j, (&a, &b)) in x.iter().zip(&w).enumerate() {
                let t = a * b;
                w1 += t;
                w2 += t.scale((j + 1) as f64);
            }
            assert!(s1.approx_eq(w1, 1e-10 * n as f64), "n={n}");
            assert!(s2.approx_eq(w2, 1e-8 * n as f64 * n as f64), "n={n}");
        }
    }

    #[test]
    fn axpy2_matches_naive() {
        for n in [1usize, 2, 9, 64, 65] {
            let x = sig(n, 7);
            let w1 = c64(0.5, -1.5);
            let w2 = c64(2.0, 0.25);
            let (acc1, acc2) = for_each_level(|| {
                let mut a1 = sig(n, 8);
                let mut a2 = sig(n, 9);
                axpy2(&mut a1, &mut a2, &x, w1, w2);
                (a1, a2)
            });
            let base1 = sig(n, 8);
            let base2 = sig(n, 9);
            for i in 0..n {
                assert!(acc1[i].approx_eq(base1[i] + x[i] * w1, 1e-12), "n={n} i={i}");
                assert!(acc2[i].approx_eq(base2[i] + x[i] * w2, 1e-12), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn cmul_inplace_matches_operator() {
        for n in [1usize, 2, 3, 16, 31] {
            let b = sig(n, 21);
            let got = for_each_level(|| {
                let mut a = sig(n, 20);
                cmul_inplace(&mut a, &b);
                a
            });
            let a0 = sig(n, 20);
            for i in 0..n {
                assert!(got[i].approx_eq(a0[i] * b[i], 1e-13), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn butterfly_matches_naive() {
        for n in [1usize, 2, 5, 32] {
            let tw = sig(n, 33);
            let (lo, hi) = for_each_level(|| {
                let mut lo = sig(n, 31);
                let mut hi = sig(n, 32);
                butterfly(&mut lo, &mut hi, &tw);
                (lo, hi)
            });
            let l0 = sig(n, 31);
            let h0 = sig(n, 32);
            for i in 0..n {
                let v = h0[i] * tw[i];
                assert!(lo[i].approx_eq(l0[i] + v, 1e-13), "n={n} i={i}");
                assert!(hi[i].approx_eq(l0[i] - v, 1e-13), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn weighted_sum3_matches_direct() {
        use crate::twiddle::omega3_pow;
        for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 11, 12, 96, 97, 1000] {
            let x = sig(n, 40 + n as u64);
            let got = for_each_level(|| weighted_sum3(&x, omega3_pow(1), omega3_pow(2)));
            let want =
                x.iter().enumerate().fold(Complex64::ZERO, |acc, (j, &v)| acc + omega3_pow(j) * v);
            assert!(got.approx_eq(want, 1e-10 * (n as f64 + 1.0)), "n={n}");
        }
    }

    #[test]
    fn energy_matches_naive_and_is_level_stable() {
        for n in [0usize, 1, 7, 8, 9, 64, 101, 1000] {
            let x = sig(n, n as u64 + 7);
            let got = for_each_level(|| energy(&x));
            let want: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            assert!((got - want).abs() <= 1e-13 * (want + 1.0), "n={n}: {got} vs {want}");
        }
        // Split streaming, and the fused add, are level-stable too; the
        // fused add leaves the plain sum and the same energy.
        let x = sig(300, 1);
        let split = for_each_level(|| {
            let mut acc = EnergyAcc::new();
            for c in x.chunks(37) {
                acc.accumulate(c);
            }
            acc.finish()
        });
        let fused = for_each_level(|| {
            let mut acc = EnergyAcc::new();
            let mut dst = sig(300, 2);
            for (d, c) in dst.chunks_mut(37).zip(x.chunks(37)) {
                acc.add_assign(d, c);
            }
            (dst, acc.finish())
        });
        let want: Vec<Complex64> = sig(300, 2).iter().zip(&x).map(|(&a, &b)| a + b).collect();
        assert_eq!(fused, (want, split));
    }

    #[test]
    fn streaming_dot_equals_one_shot_bitwise() {
        let n = 257;
        let x = sig(n, 50);
        let w = sig(n, 51);
        let whole = for_each_level(|| dot(&x, &w));
        let split = for_each_level(|| {
            let mut acc = DotAcc::new();
            acc.accumulate(&x[..64], &w[..64]);
            acc.accumulate(&x[64..192], &w[64..192]);
            acc.accumulate(&x[192..], &w[192..]);
            acc.finish()
        });
        assert_eq!(whole, split);
    }

    #[test]
    fn streaming_dot_pair_equals_one_shot_bitwise() {
        let n = 101;
        let x = sig(n, 60);
        let w = sig(n, 61);
        let whole = for_each_level(|| dot_pair(&x, &w));
        let split = for_each_level(|| {
            let mut acc = DotPairAcc::new();
            acc.accumulate(&x[..40], &w[..40]);
            acc.accumulate(&x[40..], &w[40..]);
            acc.finish()
        });
        assert_eq!(whole, split);
    }

    #[test]
    fn unaligned_views_are_level_stable() {
        // Slices starting at odd offsets exercise unaligned vector loads.
        let x = sig(130, 70);
        let w = sig(130, 71);
        for off in 0..4 {
            let xs = &x[off..];
            let ws = &w[off..];
            for_each_level(|| dot(xs, ws));
            for_each_level(|| weighted_sum3(xs, c64(0.5, 0.5), c64(-0.5, 0.5)));
        }
    }

    #[test]
    fn level_name_round_trip() {
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx.name(), "avx");
    }

    fn planes_of(x: &[Complex64]) -> (Vec<f64>, Vec<f64>) {
        (x.iter().map(|z| z.re).collect(), x.iter().map(|z| z.im).collect())
    }

    #[test]
    fn deinterleave_interleave_round_trip_all_levels() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 64, 101] {
            let x = sig(n, 80 + n as u64);
            let (re, im) = for_each_level(|| {
                let mut re = vec![0.0; n];
                let mut im = vec![0.0; n];
                deinterleave(&x, &mut re, &mut im);
                (re, im)
            });
            let (wre, wim) = planes_of(&x);
            assert_eq!(re, wre, "n={n}");
            assert_eq!(im, wim, "n={n}");
            let back = for_each_level(|| {
                let mut dst = vec![Complex64::ZERO; n];
                interleave(&re, &im, &mut dst);
                dst
            });
            assert_eq!(back, x, "n={n}");
        }
    }

    #[test]
    fn butterfly_soa_mul_matches_aos_operator_bitwise() {
        for n in [1usize, 2, 3, 4, 5, 8, 33, 64] {
            let lo0 = sig(n, 90);
            let hi0 = sig(n, 91);
            let tw = sig(n, 92);
            let (wre, wim) = planes_of(&tw);
            let (lo_re, lo_im, hi_re, hi_im) = for_each_level(|| {
                let (mut lre, mut lim) = planes_of(&lo0);
                let (mut hre, mut him) = planes_of(&hi0);
                butterfly_soa_mul(&mut lre, &mut lim, &mut hre, &mut him, &wre, &wim);
                (lre, lim, hre, him)
            });
            // The AoS reference: the operator-multiply butterfly the
            // iterative kernels' generic stages perform.
            for j in 0..n {
                let v = hi0[j] * tw[j];
                let lo = lo0[j] + v;
                let hi = lo0[j] - v;
                assert_eq!((lo_re[j], lo_im[j]), (lo.re, lo.im), "n={n} j={j}");
                assert_eq!((hi_re[j], hi_im[j]), (hi.re, hi.im), "n={n} j={j}");
            }
        }
    }

    #[test]
    fn butterfly_soa_fma_matches_aos_butterfly_bitwise() {
        for n in [1usize, 2, 5, 8, 32, 65] {
            let lo0 = sig(n, 95);
            let hi0 = sig(n, 96);
            let tw = sig(n, 97);
            let (wre, wim) = planes_of(&tw);
            let (lo_re, lo_im, hi_re, hi_im) = for_each_level(|| {
                let (mut lre, mut lim) = planes_of(&lo0);
                let (mut hre, mut him) = planes_of(&hi0);
                butterfly_soa_fma(&mut lre, &mut lim, &mut hre, &mut him, &wre, &wim);
                (lre, lim, hre, him)
            });
            let (want_lo, want_hi) = for_each_level(|| {
                let mut lo = lo0.clone();
                let mut hi = hi0.clone();
                butterfly(&mut lo, &mut hi, &tw);
                (lo, hi)
            });
            for j in 0..n {
                assert_eq!((lo_re[j], lo_im[j]), (want_lo[j].re, want_lo[j].im), "n={n} j={j}");
                assert_eq!((hi_re[j], hi_im[j]), (want_hi[j].re, want_hi[j].im), "n={n} j={j}");
            }
        }
    }

    #[test]
    fn butterfly4_soa_matches_aos_radix4_body_bitwise() {
        for (n, s) in [(1usize, 1.0f64), (4, -1.0), (7, -1.0), (16, 1.0), (33, -1.0)] {
            let segs: Vec<Vec<Complex64>> = (0..4).map(|i| sig(n, 100 + i)).collect();
            let tws: Vec<Vec<Complex64>> = (0..3).map(|i| sig(n, 110 + i)).collect();
            let tp: Vec<(Vec<f64>, Vec<f64>)> = tws.iter().map(|t| planes_of(t)).collect();
            let got = for_each_level(|| {
                let (mut a_re, mut a_im) = planes_of(&segs[0]);
                let (mut b_re, mut b_im) = planes_of(&segs[1]);
                let (mut c_re, mut c_im) = planes_of(&segs[2]);
                let (mut d_re, mut d_im) = planes_of(&segs[3]);
                butterfly4_soa(
                    s, &mut a_re, &mut a_im, &mut b_re, &mut b_im, &mut c_re, &mut c_im, &mut d_re,
                    &mut d_im, &tp[0].0, &tp[0].1, &tp[1].0, &tp[1].1, &tp[2].0, &tp[2].1,
                );
                vec![(a_re, a_im), (b_re, b_im), (c_re, c_im), (d_re, d_im)]
            });
            // AoS reference: the radix-4 stage body, element by element.
            for j in 0..n {
                let a = segs[0][j];
                let b = segs[1][j] * tws[1][j];
                let c = segs[2][j] * tws[0][j];
                let d = segs[3][j] * tws[2][j];
                let t0 = a + b;
                let t1 = a - b;
                let t2 = c + d;
                let t3 = c - d;
                let t3 = c64(-s * t3.im, s * t3.re);
                let want = [t0 + t2, t1 + t3, t0 - t2, t1 - t3];
                for (seg, w) in got.iter().zip(want) {
                    assert_eq!((seg.0[j], seg.1[j]), (w.re, w.im), "n={n} j={j}");
                }
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn butterfly4_rows_matches_aos_radix4_body_bitwise() {
        for (n, s) in [(1usize, 1.0f64), (3, -1.0), (4, 1.0), (9, -1.0), (32, 1.0)] {
            let segs: Vec<Vec<Complex64>> = (0..4).map(|i| sig(n, 200 + i)).collect();
            let w = sig(3, 210);
            let tw = [w[0].re, w[0].im, w[1].re, w[1].im, w[2].re, w[2].im];
            let got = for_each_level(|| {
                let (mut a_re, mut a_im) = planes_of(&segs[0]);
                let (mut b_re, mut b_im) = planes_of(&segs[1]);
                let (mut c_re, mut c_im) = planes_of(&segs[2]);
                let (mut d_re, mut d_im) = planes_of(&segs[3]);
                butterfly4_rows(
                    s, &mut a_re, &mut a_im, &mut b_re, &mut b_im, &mut c_re, &mut c_im, &mut d_re,
                    &mut d_im, tw,
                );
                vec![(a_re, a_im), (b_re, b_im), (c_re, c_im), (d_re, d_im)]
            });
            for j in 0..n {
                let a = segs[0][j];
                let b = segs[1][j] * w[1];
                let c = segs[2][j] * w[0];
                let d = segs[3][j] * w[2];
                let (t0, t1, t2, t3) = (a + b, a - b, c + d, c - d);
                let t3 = c64(-s * t3.im, s * t3.re);
                let want = [t0 + t2, t1 + t3, t0 - t2, t1 - t3];
                for (seg, w) in got.iter().zip(want) {
                    assert_eq!((seg.0[j], seg.1[j]), (w.re, w.im), "n={n} j={j}");
                }
            }
        }
    }

    #[test]
    fn planes_mut_views_buffer_memory_as_two_planes() {
        let mut buf = vec![Complex64::ZERO; 4];
        {
            let (re, im) = planes_mut(&mut buf);
            assert_eq!(re.len(), 4);
            assert_eq!(im.len(), 4);
            for j in 0..4 {
                re[j] = j as f64;
                im[j] = -(j as f64);
            }
        }
        // The planes live in the buffer's own memory: first half re-plane.
        assert_eq!(buf[0], c64(0.0, 1.0));
        assert_eq!(buf[3], c64(-2.0, -3.0));
        let mut out = vec![Complex64::ZERO; 4];
        let (re, im) = planes_mut(&mut buf);
        interleave(re, im, &mut out);
        assert_eq!(out[2], c64(2.0, -2.0));
    }
}
