//! Column-batched radix-4 kernel for the layers of a power-of-two
//! two-layer decomposition.
//!
//! Each layer of [`crate::TwoLayerPlan`] is many equal-size short FFTs
//! whose inputs are the columns of a row-major matrix. Run one at a time,
//! each pays its own short stages. This kernel runs a block of `w` columns
//! at once instead: the block is held as split `re`/`im` planes of `l`
//! rows × `w` lanes, the bit reversal becomes a row permutation applied
//! while the block is loaded, and every butterfly combines whole rows with
//! one broadcast twiddle ([`simd::butterfly4_rows`]).
//!
//! **One operation sequence per lane.** Every lane runs exactly the
//! arithmetic of the AoS radix-4 kernel ([`crate::radix4`]) on its own
//! column: the same twiddle values, the same separately rounded products,
//! the same unpaired radix-2 pass, and no arithmetic across lanes. A block
//! of any width therefore gives each column the same bits, width 1
//! included — which is what lets a protected executor recompute one
//! flagged column and get the bits the batched pass would have produced.

use crate::bitrev::bit_reverse_table;
use crate::direction::Direction;
use crate::soa::radix4_stages;
use crate::twiddle_table::{SoaRadix4Twiddles, TwiddleTable};
use ftfft_numeric::complex::c64;
use ftfft_numeric::simd;
use ftfft_numeric::Complex64;

/// Complex elements of an L1-resident block (32 KiB of planes): while
/// at least [`MIN_LANES`] columns fit, a block stays in a 48 KiB L1d
/// across all its stages and the per-column checks that follow.
const L1_BLOCK: usize = 1 << 11;

/// Complex elements of an L2-resident block (512 KiB of planes, a quarter
/// of a 2 MiB L2), for columns too long to batch [`MIN_LANES`] of in L1.
const L2_BLOCK: usize = 1 << 15;

/// Fewest lanes worth a row butterfly: narrower rows leave the vector
/// units idle and read the input a cache line or less per row.
const MIN_LANES: usize = 16;

/// Radix-4 DIT over the columns of a plane block, for one size `l`.
#[derive(Clone, Debug)]
pub(crate) struct ColumnFft {
    tw: SoaRadix4Twiddles,
    rev: Vec<u32>,
}

impl ColumnFft {
    /// Plans `l`-point columns (`l` a power of two).
    pub(crate) fn new(l: usize, dir: Direction) -> Self {
        ColumnFft {
            tw: SoaRadix4Twiddles::new(&TwiddleTable::new(l, dir)),
            rev: bit_reverse_table(l),
        }
    }

    /// Column length `l`.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.tw.len()
    }

    /// Lanes per block for `cols` columns: as many as fit [`L1_BLOCK`]
    /// when that is at least [`MIN_LANES`], else as many as fit
    /// [`L2_BLOCK`]; at least one, at most `cols`. Measured (2 vCPUs, 48 KiB
    /// L1d, 2 MiB L2): L1 blocks ran Opt-Online(m) 1.3–1.5× faster than
    /// 512 KiB blocks at 2^12–2^15; at 2^16 and above L1 blocks are under
    /// 16 lanes wide and ran up to 2× slower.
    pub(crate) fn block_width(&self, cols: usize) -> usize {
        let l = self.len();
        let lanes = if L1_BLOCK / l >= MIN_LANES { L1_BLOCK / l } else { L2_BLOCK / l };
        lanes.clamp(1, cols.max(1))
    }

    /// Loads lanes `c0..c0 + w` of the `l`-row matrix `src` (row `t` starts
    /// at `t·stride`) into the planes, row `t` landing on plane row
    /// `rev[t]`. `visit(t, row)` sees each input row segment in natural
    /// order before it is stored.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn load(
        &self,
        src: &[Complex64],
        stride: usize,
        c0: usize,
        w: usize,
        re: &mut [f64],
        im: &mut [f64],
        mut visit: impl FnMut(usize, &[Complex64]),
    ) {
        for (t, &r) in self.rev.iter().enumerate() {
            let row = &src[t * stride + c0..t * stride + c0 + w];
            visit(t, row);
            let r = r as usize * w;
            if w == 1 {
                re[r] = row[0].re;
                im[r] = row[0].im;
            } else {
                simd::deinterleave(row, &mut re[r..r + w], &mut im[r..r + w]);
            }
        }
    }

    /// Runs every stage in place over `w`-lane planes whose rows are in
    /// bit-reversed order (as [`load`](Self::load) leaves them).
    pub(crate) fn run(&self, re: &mut [f64], im: &mut [f64], w: usize) {
        let l = self.len();
        let (re, im) = (&mut re[..l * w], &mut im[..l * w]);
        if w == 1 {
            // One lane is a plain SoA transform: the plane kernel runs the
            // same per-element arithmetic, vectorized along the column.
            return radix4_stages(re, im, &self.tw);
        }
        if self.tw.unpaired() {
            // Twiddle-free radix-2 alignment pass over row pairs.
            for (pr, pi) in re.chunks_exact_mut(2 * w).zip(im.chunks_exact_mut(2 * w)) {
                let (ar, br) = pr.split_at_mut(w);
                let (ai, bi) = pi.split_at_mut(w);
                for j in 0..w {
                    let (xr, xi, yr, yi) = (ar[j], ai[j], br[j], bi[j]);
                    ar[j] = xr + yr;
                    ai[j] = xi + yi;
                    br[j] = xr - yr;
                    bi[j] = xi - yi;
                }
            }
        }
        let s = self.tw.direction().sign();
        for stage in self.tw.stages() {
            let q = stage.quarter;
            let span = q * w;
            for (blk_re, blk_im) in re.chunks_exact_mut(4 * span).zip(im.chunks_exact_mut(4 * span))
            {
                let (a_re, rest) = blk_re.split_at_mut(span);
                let (b_re, rest) = rest.split_at_mut(span);
                let (c_re, d_re) = rest.split_at_mut(span);
                let (a_im, rest) = blk_im.split_at_mut(span);
                let (b_im, rest) = rest.split_at_mut(span);
                let (c_im, d_im) = rest.split_at_mut(span);
                for j in 0..q {
                    let rows = j * w..(j + 1) * w;
                    let tw = [
                        stage.w1.re[j],
                        stage.w1.im[j],
                        stage.w2.re[j],
                        stage.w2.im[j],
                        stage.w3.re[j],
                        stage.w3.im[j],
                    ];
                    simd::butterfly4_rows(
                        s,
                        &mut a_re[rows.clone()],
                        &mut a_im[rows.clone()],
                        &mut b_re[rows.clone()],
                        &mut b_im[rows.clone()],
                        &mut c_re[rows.clone()],
                        &mut c_im[rows.clone()],
                        &mut d_re[rows.clone()],
                        &mut d_im[rows],
                        tw,
                    );
                }
            }
        }
    }

    /// Copies lane `c` of a `w`-lane block (the finished column) into
    /// `out[..l]`.
    pub(crate) fn column(&self, re: &[f64], im: &[f64], w: usize, c: usize, out: &mut [Complex64]) {
        for (j, o) in out[..self.len()].iter_mut().enumerate() {
            *o = c64(re[j * w + c], im[j * w + c]);
        }
    }

    /// Writes `vals[..l]` back into lane `c` of a `w`-lane block.
    pub(crate) fn put_column(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        w: usize,
        c: usize,
        vals: &[Complex64],
    ) {
        for (j, v) in vals[..self.len()].iter().enumerate() {
            re[j * w + c] = v.re;
            im[j * w + c] = v.im;
        }
    }

    /// Stores the block's rows as lanes `c0..c0 + w` of the `l`-row matrix
    /// `dst` (row `j` starts at `j·stride`).
    pub(crate) fn store(
        &self,
        re: &[f64],
        im: &[f64],
        w: usize,
        dst: &mut [Complex64],
        stride: usize,
        c0: usize,
    ) {
        for j in 0..self.len() {
            let row = &mut dst[j * stride + c0..j * stride + c0 + w];
            simd::interleave(&re[j * w..(j + 1) * w], &im[j * w..(j + 1) * w], row);
        }
    }

    /// One column end to end: the `l` values `src[offset + t·stride]`,
    /// transformed into `out[..l]` through a width-1 block carved from
    /// `work` (`l` elements).
    pub(crate) fn single(
        &self,
        src: &[Complex64],
        offset: usize,
        stride: usize,
        out: &mut [Complex64],
        work: &mut [Complex64],
    ) {
        let l = self.len();
        let (re, im) = simd::planes_mut(&mut work[..l]);
        self.load(src, stride, offset, 1, re, im, |_, _| {});
        self.run(re, im, 1);
        self.column(re, im, 1, 0, out);
    }
}
