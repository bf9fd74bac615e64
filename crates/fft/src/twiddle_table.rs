//! Precomputed twiddle-factor tables.
//!
//! A table for size `n` stores `ω_n^t` for `t ∈ [0, n)`, generated once per
//! plan. Sub-transforms of size `n/s` reuse the parent table through a
//! stride (`ω_{n/s}^t = ω_n^{t·s}`), which is how the recursive mixed-radix
//! kernel avoids re-deriving tables at every level.

use crate::direction::Direction;
use ftfft_numeric::{cis, Complex64};

/// Precomputed `ω_n^t` for one direction.
#[derive(Clone, Debug)]
pub struct TwiddleTable {
    n: usize,
    dir: Direction,
    w: Vec<Complex64>,
}

impl TwiddleTable {
    /// Builds the table for size `n` and direction `dir`.
    ///
    /// Generation walks the unit circle in blocks re-anchored by direct
    /// `sin`/`cos` evaluation every `RESYNC` steps: incremental complex
    /// multiplication alone drifts at `O(n·ε)`, which would pollute the
    /// checksum residuals that the ABFT thresholds are calibrated against.
    pub fn new(n: usize, dir: Direction) -> Self {
        assert!(n > 0, "twiddle table of size 0");
        const RESYNC: usize = 64;
        let step_angle = dir.sign() * 2.0 * std::f64::consts::PI / n as f64;
        let step = cis(step_angle);
        let mut w = vec![Complex64::ZERO; n];
        for (block, chunk) in w.chunks_mut(RESYNC).enumerate() {
            let mut cur = cis(step_angle * (block * RESYNC) as f64);
            for slot in chunk.iter_mut() {
                *slot = cur;
                cur *= step;
            }
        }
        TwiddleTable { n, dir, w }
    }

    /// Table size `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when `n == 0` (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Direction this table was generated for.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// `ω_n^t` for `t < n`.
    #[inline(always)]
    pub fn get(&self, t: usize) -> Complex64 {
        self.w[t]
    }

    /// `ω_n^t` with `t` reduced modulo `n` (for twiddle products `n1·j2`).
    #[inline(always)]
    pub fn get_mod(&self, t: usize) -> Complex64 {
        self.w[t % self.n]
    }

    /// Raw table slice.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.w
    }

    /// The table's storage, `ω_n^t` at index `t`.
    pub fn into_vec(self) -> Vec<Complex64> {
        self.w
    }
}

// ---------------------------------------------------------------------------
// Pre-split (SoA) twiddle packs for the split-complex stage kernels.
//
// The AoS kernels read `ω_n^t` on the fly with a per-stage stride; the SoA
// kernels instead consume *stage-major packed planes*: for every stage the
// exact twiddle sequence that stage's butterflies walk, stored as separate
// contiguous `re[]`/`im[]` arrays so a 256-bit load grabs four consecutive
// twiddles. Pack entries are copied verbatim from a `TwiddleTable`, so the
// SoA kernels see bit-identical factors to their AoS mirrors.
// ---------------------------------------------------------------------------

/// A contiguous pair of twiddle planes (`re[j]`, `im[j]`).
#[derive(Clone, Debug, Default)]
pub struct SplitTwiddles {
    /// Real plane.
    pub re: Vec<f64>,
    /// Imaginary plane.
    pub im: Vec<f64>,
}

impl SplitTwiddles {
    fn gather(table: &TwiddleTable, count: usize, step: usize) -> Self {
        let mut re = Vec::with_capacity(count);
        let mut im = Vec::with_capacity(count);
        for j in 0..count {
            let w = table.get(j * step);
            re.push(w.re);
            im.push(w.im);
        }
        SplitTwiddles { re, im }
    }

    /// Number of packed twiddles.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// `true` when no twiddles are packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }
}

/// One packed radix-2 stage: `half` twiddles plus the product-formula flag
/// mirroring the AoS kernel's final-stage SIMD dispatch (`tw_step == 1`).
#[derive(Clone, Debug)]
pub struct SoaRadix2Stage {
    /// `ω^{j·tw_step}` for `j < len/2`.
    pub w: SplitTwiddles,
    /// `true` when the AoS kernel would take its fused-multiply final-stage
    /// path for this stage (contiguous table, `tw_step == 1`).
    pub fma: bool,
}

/// Stage-major packed twiddles for the SoA radix-2 kernel
/// (`Σ len/2 = n−1` twiddles total).
#[derive(Clone, Debug)]
pub struct SoaRadix2Twiddles {
    n: usize,
    dir: Direction,
    stages: Vec<SoaRadix2Stage>,
}

impl SoaRadix2Twiddles {
    /// Packs every stage of an `n`-point radix-2 transform from `table`
    /// (`table.len() == n`, stride 1).
    pub fn new(table: &TwiddleTable) -> Self {
        let n = table.len();
        assert!(n.is_power_of_two(), "SoA radix-2 pack needs a power of two, got {n}");
        let mut stages = Vec::new();
        let mut len = 2usize;
        while len <= n {
            let tw_step = n / len;
            stages.push(SoaRadix2Stage {
                w: SplitTwiddles::gather(table, len / 2, tw_step),
                fma: tw_step == 1,
            });
            len <<= 1;
        }
        SoaRadix2Twiddles { n, dir: table.direction(), stages }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never true (`n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Direction the pack was generated for.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The packed stages, innermost (`len = 2`) first.
    #[inline]
    pub fn stages(&self) -> &[SoaRadix2Stage] {
        &self.stages
    }
}

/// One packed radix-4 stage: the three twiddle sequences
/// (`w1 = ω^{j·e}`, `w2 = ω^{2j·e}`, `w3 = ω^{3j·e}`) for `j < quarter`.
#[derive(Clone, Debug)]
pub struct SoaRadix4Stage {
    /// Butterfly quarter length of the stage.
    pub quarter: usize,
    /// `ω^{j·e}` plane pair.
    pub w1: SplitTwiddles,
    /// `ω^{2j·e}` plane pair.
    pub w2: SplitTwiddles,
    /// `ω^{3j·e}` plane pair.
    pub w3: SplitTwiddles,
}

/// Stage-major packed twiddles for the SoA radix-4 kernel of an `l`-point
/// transform.
#[derive(Clone, Debug)]
pub struct SoaRadix4Twiddles {
    l: usize,
    dir: Direction,
    unpaired: bool,
    stages: Vec<SoaRadix4Stage>,
}

impl SoaRadix4Twiddles {
    /// Packs every stage of an `l == table.len()`-point radix-4 transform.
    pub fn new(table: &TwiddleTable) -> Self {
        let l = table.len();
        assert!(l.is_power_of_two(), "SoA radix-4 pack needs a power of two, got {l}");
        let unpaired = l.trailing_zeros() % 2 == 1;
        let mut stages = Vec::new();
        let mut len = if unpaired { 2usize } else { 1 };
        while len < l {
            let block = len * 4;
            let e = l / block;
            stages.push(SoaRadix4Stage {
                quarter: len,
                w1: SplitTwiddles::gather(table, len, e),
                w2: SplitTwiddles::gather(table, len, 2 * e),
                w3: SplitTwiddles::gather(table, len, 3 * e),
            });
            len = block;
        }
        SoaRadix4Twiddles { l, dir: table.direction(), unpaired, stages }
    }

    /// Transform size `l`.
    #[inline]
    pub fn len(&self) -> usize {
        self.l
    }

    /// Never true (`l ≥ 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Direction the pack was generated for.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// `true` when `log₂ l` is odd and the kernel opens with the
    /// twiddle-free radix-2 alignment pass.
    #[inline]
    pub fn unpaired(&self) -> bool {
        self.unpaired
    }

    /// The packed stages, innermost first.
    #[inline]
    pub fn stages(&self) -> &[SoaRadix4Stage] {
        &self.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_numeric::omega;

    #[test]
    fn forward_table_matches_direct_evaluation() {
        let n = 1000;
        let t = TwiddleTable::new(n, Direction::Forward);
        for k in [0usize, 1, 63, 64, 65, 500, 999] {
            assert!(
                t.get(k).approx_eq(omega(n, k), 1e-13),
                "k={k}: {:?} vs {:?}",
                t.get(k),
                omega(n, k)
            );
        }
    }

    #[test]
    fn inverse_table_is_conjugate() {
        let n = 256;
        let f = TwiddleTable::new(n, Direction::Forward);
        let i = TwiddleTable::new(n, Direction::Inverse);
        for k in 0..n {
            assert!(i.get(k).approx_eq(f.get(k).conj(), 1e-13), "k={k}");
        }
    }

    #[test]
    fn get_mod_reduces() {
        let n = 16;
        let t = TwiddleTable::new(n, Direction::Forward);
        assert!(t.get_mod(5 + 3 * n).approx_eq(t.get(5), 1e-15));
    }

    #[test]
    fn soa_radix2_pack_copies_table_values_exactly() {
        let n = 64;
        let t = TwiddleTable::new(n, Direction::Forward);
        let p = SoaRadix2Twiddles::new(&t);
        assert_eq!(p.len(), n);
        assert_eq!(p.stages().len(), 6);
        let total: usize = p.stages().iter().map(|s| s.w.len()).sum();
        assert_eq!(total, n - 1);
        let mut len = 2usize;
        for stage in p.stages() {
            let step = n / len;
            assert_eq!(stage.fma, step == 1);
            for j in 0..len / 2 {
                let w = t.get(j * step);
                assert_eq!((stage.w.re[j], stage.w.im[j]), (w.re, w.im), "len={len} j={j}");
            }
            len <<= 1;
        }
    }

    #[test]
    fn soa_radix4_pack_matches_table_reads() {
        let l = 128; // odd log2: unpaired leading pass
        let t = TwiddleTable::new(l, Direction::Inverse);
        let p = SoaRadix4Twiddles::new(&t);
        assert!(p.unpaired());
        assert_eq!(p.direction(), Direction::Inverse);
        let mut len = 2usize;
        for stage in p.stages() {
            let e = l / (len * 4);
            assert_eq!(stage.quarter, len);
            for j in 0..len {
                assert_eq!(stage.w1.re[j], t.get(j * e).re, "len={len} j={j}");
                assert_eq!(stage.w2.im[j], t.get(2 * j * e).im, "len={len} j={j}");
                assert_eq!(stage.w3.re[j], t.get(3 * j * e).re, "len={len} j={j}");
            }
            len *= 4;
        }
    }

    #[test]
    fn large_table_stays_accurate() {
        // Drift check at the far end of a big table.
        let n = 1 << 16;
        let t = TwiddleTable::new(n, Direction::Forward);
        let k = n - 1;
        assert!(t.get(k).approx_eq(omega(n, k), 1e-12));
        assert!((t.get(k).norm() - 1.0).abs() < 1e-12);
    }
}
