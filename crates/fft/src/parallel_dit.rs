//! Two-halves communication-free parallel radix-2 DIT for one large
//! transform.
//!
//! A single `2^t`-point DIT pass structure decomposes into two
//! independent halves around the bit-reversal permutation (the
//! decomposition popularized by Plonky3's `Radix2DitParallel`):
//!
//! 1. **Pass A** — bit-reverse copy `src → s1` (COBRA tiles,
//!    parallelized over tile rows).
//! 2. **First half** — stages `len = 2 ..= 2^t1` (`t1 = ⌊t/2⌋`) touch only
//!    elements within the same contiguous `2^t1`-sized block of `s1`, so
//!    the `2^t2` blocks run on separate workers with no communication.
//! 3. **Pass C** — bit-reverse copy `s1 → s2`, mapping the remaining
//!    long-stride butterflies into *contiguous* runs ("z-space").
//! 4. **Second half** — stages `s = t1+1 ..= t` in z-space: stage `s`
//!    processes runs of length `2^{t-s+1}` that each use **one** twiddle
//!    `brtw[g] = ω^{rev_{t-1}(g)}` (because `rev_{s-1}(g)·2^{t-s} =
//!    rev_{t-1}(g)` for `g < 2^{s-1}`), and every run lies inside one
//!    contiguous `2^t2`-sized block — again no communication.
//! 5. **Pass E** — bit-reverse copy `s2 → dst` restores natural order.
//!
//! **Bitwise contract.** The arithmetic is element-for-element the same
//! as the serial iterative radix-2 kernel ([`crate::radix2`]): every
//! non-final stage multiplies with the plain `Complex64` operator product
//! and the final stage uses the fused [`simd::cmul`] exactly as
//! `simd::butterfly` does (data operand first, twiddle second). Butterfly
//! blocks are data-independent, so the output is bitwise identical to
//! serial radix-2 — in either layout, at either SIMD level — at **any**
//! worker count, including under a scripted fault campaign (fault sites
//! are positional, not schedule-dependent).
//!
//! With `threads == 1` the plan runs a spawn-free inline path that
//! allocates nothing after construction; with `threads > 1` each
//! `execute` spawns `threads - 1` scoped workers that ride the five
//! phases with a [`Barrier`] between each.

use std::ops::Range;
use std::sync::Barrier;

use crate::bitrev::{
    bit_reverse_copy_c64, bit_reverse_copy_c64_outer, cobra_outer_blocks, reverse_bits,
};
use crate::direction::Direction;
use crate::twiddle_table::TwiddleTable;
use ftfft_numeric::{simd, Complex64};

/// Environment variable overriding the worker-thread count used by the
/// parallel strategy and the `ftfft-parallel` pool (`FTFFT_THREADS`).
pub const THREADS_ENV: &str = "FTFFT_THREADS";

/// Resolves a worker count: `explicit` when given, else the
/// [`THREADS_ENV`] variable (panicking on a non-numeric value — a silent
/// typo would invalidate a scaling run), else
/// `std::thread::available_parallelism()`. Always at least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(t) = explicit {
        return t.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        match v.parse::<usize>() {
            Ok(t) if t >= 1 => return t,
            _ => panic!("{THREADS_ENV}={v:?} is not a positive integer"),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Balanced static partition of `items` into `parts`: chunk `idx` gets
/// `items/parts` items plus one of the `items % parts` remainder items,
/// remainder-first — so chunk sizes never differ by more than one and no
/// worker idles while another double-loads.
pub fn chunk_range(items: usize, parts: usize, idx: usize) -> Range<usize> {
    debug_assert!(parts > 0 && idx < parts);
    let base = items / parts;
    let rem = items % parts;
    let start = idx * base + idx.min(rem);
    start..start + base + usize::from(idx < rem)
}

/// Raw buffer handles shared by the scoped workers. Disjointness of the
/// concurrent writes is argued per phase at the use sites; the barrier
/// between phases provides the happens-before edges.
struct Bufs {
    src: *const Complex64,
    s1: *mut Complex64,
    s2: *mut Complex64,
    dst: *mut Complex64,
    n: usize,
}

// SAFETY: the pointers outlive the scope (they borrow from the caller's
// slices) and every phase partitions its writes disjointly across workers.
unsafe impl Send for Bufs {}
unsafe impl Sync for Bufs {}

/// An executable two-halves parallel DIT plan for one power-of-two size
/// and direction.
#[derive(Clone, Debug)]
pub struct ParallelDitPlan {
    n: usize,
    t: u32,
    /// First-half stage count; the first half runs on `2^t2` contiguous
    /// blocks of `2^t1` elements each.
    t1: u32,
    /// Second-half stage count; the second half runs on `2^t1` contiguous
    /// z-space blocks of `2^t2` elements each.
    t2: u32,
    threads: usize,
    table: TwiddleTable,
    /// `brtw[g] = ω^{rev_{t-1}(g)}` — the one twiddle of z-space run `g`,
    /// shared by every second-half stage.
    brtw: Vec<Complex64>,
}

impl ParallelDitPlan {
    /// Plans an `n`-point transform run by `threads` workers
    /// (`threads == 1` selects the spawn-free inline path).
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize, dir: Direction, threads: usize) -> Self {
        assert!(n.is_power_of_two(), "parallel DIT needs a power of two, got {n}");
        let t = n.trailing_zeros();
        let t1 = t / 2;
        let t2 = t - t1;
        let table = TwiddleTable::new(n, dir);
        let half_bits = t.saturating_sub(1);
        let brtw = (0..n / 2).map(|g| table.get(reverse_bits(g, half_bits))).collect();
        ParallelDitPlan { n, t, t1, t2, threads: threads.max(1), table, brtw }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (`n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transform direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.table.direction()
    }

    /// Worker count this plan executes with.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Scratch length required by the execute methods: the two staging
    /// buffers (`s1`, `s2`) of the five-phase pipeline.
    pub fn scratch_len(&self) -> usize {
        2 * self.n
    }

    /// Out-of-place transform (`dst` and `src` must not alias).
    pub fn execute(&self, src: &[Complex64], dst: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(src.len(), self.n);
        assert_eq!(dst.len(), self.n);
        if self.n <= 2 {
            // 1- and 2-point: run the inline path (no benefit in spawning).
            self.run_inline(src, dst, scratch);
            return;
        }
        if self.threads == 1 {
            self.run_inline(src, dst, scratch);
        } else {
            self.run_parallel(src.as_ptr(), dst.as_mut_ptr(), scratch);
        }
    }

    /// In-place transform. `scratch.len() ≥ self.scratch_len()`.
    ///
    /// `data` is only *read* in pass A and only *written* in pass E, so
    /// the same five-phase pipeline serves with `src == dst`.
    pub fn execute_inplace(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(data.len(), self.n);
        if self.n <= 2 || self.threads == 1 {
            let (s1, rest) = scratch[..2 * self.n].split_at_mut(self.n);
            bit_reverse_copy_c64(data, s1);
            self.halves_inline(s1, rest);
            bit_reverse_copy_c64(rest, data);
            return;
        }
        self.run_parallel(data.as_ptr(), data.as_mut_ptr(), scratch);
    }

    /// Spawn-free path: identical arithmetic to the worker path (the
    /// butterfly blocks are data-independent), zero allocations.
    fn run_inline(&self, src: &[Complex64], dst: &mut [Complex64], scratch: &mut [Complex64]) {
        if self.n == 1 {
            dst[0] = src[0];
            return;
        }
        let (s1, s2) = scratch[..2 * self.n].split_at_mut(self.n);
        bit_reverse_copy_c64(src, s1);
        self.halves_inline(s1, s2);
        bit_reverse_copy_c64(s2, dst);
    }

    /// First half on `s1`, pass C, second half on `s2` — serially.
    fn halves_inline(&self, s1: &mut [Complex64], s2: &mut [Complex64]) {
        let blen1 = 1usize << self.t1;
        for block in s1.chunks_exact_mut(blen1) {
            self.first_half_block(block);
        }
        bit_reverse_copy_c64(s1, s2);
        let blen2 = 1usize << self.t2;
        for (k, block) in s2.chunks_exact_mut(blen2).enumerate() {
            self.second_half_block(block, k);
        }
    }

    /// Scoped-worker path: `threads - 1` spawned workers plus the calling
    /// thread ride the five phases with a barrier between each.
    fn run_parallel(&self, src: *const Complex64, dst: *mut Complex64, scratch: &mut [Complex64]) {
        let n = self.n;
        let (s1, s2) = scratch[..2 * n].split_at_mut(n);
        let bufs = Bufs { src, s1: s1.as_mut_ptr(), s2: s2.as_mut_ptr(), dst, n };
        let workers = self.threads;
        let barrier = Barrier::new(workers);
        std::thread::scope(|scope| {
            let bufs = &bufs;
            let barrier = &barrier;
            for w in 1..workers {
                scope.spawn(move || self.worker(bufs, barrier, w, workers));
            }
            self.worker(bufs, barrier, 0, workers);
        });
    }

    /// One worker's slice of all five phases.
    fn worker(&self, bufs: &Bufs, barrier: &Barrier, w: usize, workers: usize) {
        let n = bufs.n;
        // Pass A: src → s1. No writer of src exists; s1 writes disjoint.
        // SAFETY: src is borrowed from the caller for the whole scope.
        self.br_pass(unsafe { std::slice::from_raw_parts(bufs.src, n) }, bufs.s1, w, workers);
        barrier.wait();

        // First half: disjoint contiguous block ranges of s1.
        let blen1 = 1usize << self.t1;
        let r = chunk_range(n >> self.t1, workers, w);
        if !r.is_empty() {
            // SAFETY: workers' ranges partition s1; barrier ordered pass A.
            let mine = unsafe {
                std::slice::from_raw_parts_mut(bufs.s1.add(r.start * blen1), r.len() * blen1)
            };
            for block in mine.chunks_exact_mut(blen1) {
                self.first_half_block(block);
            }
        }
        barrier.wait();

        // Pass C: s1 → s2. Everyone reads s1, writes s2 disjointly.
        // SAFETY: no writer of s1 in this phase; barrier ordered the half.
        self.br_pass(unsafe { std::slice::from_raw_parts(bufs.s1, n) }, bufs.s2, w, workers);
        barrier.wait();

        // Second half: disjoint contiguous z-space block ranges of s2.
        let blen2 = 1usize << self.t2;
        let r = chunk_range(n >> self.t2, workers, w);
        if !r.is_empty() {
            // SAFETY: workers' ranges partition s2; barrier ordered pass C.
            let mine = unsafe {
                std::slice::from_raw_parts_mut(bufs.s2.add(r.start * blen2), r.len() * blen2)
            };
            for (i, block) in mine.chunks_exact_mut(blen2).enumerate() {
                self.second_half_block(block, r.start + i);
            }
        }
        barrier.wait();

        // Pass E: s2 → dst. Everyone reads s2, writes dst disjointly
        // (dst may alias src — src is dead after pass A).
        // SAFETY: no writer of s2 in this phase; barrier ordered the half.
        self.br_pass(unsafe { std::slice::from_raw_parts(bufs.s2, n) }, bufs.dst, w, workers);
    }

    /// One worker's slice of a bit-reversal pass: a chunk of the COBRA
    /// outer loop, or (for sizes below the COBRA threshold) the whole
    /// fallback copy on worker 0 while the rest skip to the barrier.
    fn br_pass(&self, src: &[Complex64], dst: *mut Complex64, w: usize, workers: usize) {
        match cobra_outer_blocks(self.t) {
            Some(blocks) => {
                let r = chunk_range(blocks, workers, w);
                if !r.is_empty() {
                    // SAFETY: outer ranges partition the pass; distinct
                    // ranges write disjoint dst indices (bitrev contract).
                    unsafe { bit_reverse_copy_c64_outer(src, dst, r) }
                }
            }
            None => {
                if w == 0 {
                    // SAFETY: only worker 0 touches dst in this phase.
                    let dst = unsafe { std::slice::from_raw_parts_mut(dst, src.len()) };
                    bit_reverse_copy_c64(src, dst);
                }
            }
        }
    }

    /// Stages `len = 2 ..= 2^t1` on one contiguous block — the same loop
    /// body as the serial radix-2 kernel (operator product: every one of
    /// these stages has twiddle stride `n/len ≥ 2^t2 > 1` there too).
    fn first_half_block(&self, block: &mut [Complex64]) {
        let blen = block.len();
        let mut len = 2usize;
        while len <= blen {
            let half = len / 2;
            let tw_step = self.n / len;
            let mut base = 0usize;
            while base < blen {
                let (lo, hi) = block[base..base + len].split_at_mut(half);
                let mut ti = 0usize;
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let w = self.table.get(ti);
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                    ti += tw_step;
                }
                base += len;
            }
            len <<= 1;
        }
    }

    /// Stages `s = t1+1 ..= t` on z-space block `k`: stage `s` splits the
    /// block into runs of `2^{t-s+1}` elements, run `r` using the single
    /// twiddle `brtw[k·2^{s-1-t1} + r]`. The final stage (`s = t`) is
    /// adjacent pairs with the fused [`simd::cmul`] — matching the serial
    /// kernel's `simd::butterfly` final stage bit for bit.
    fn second_half_block(&self, block: &mut [Complex64], k: usize) {
        for s in self.t1 + 1..=self.t {
            let hs = 1usize << (self.t - s);
            let runs = block.len() >> (self.t - s + 1);
            let gbase = k * runs;
            if hs == 1 {
                for (r, pair) in block.chunks_exact_mut(2).enumerate() {
                    let w = self.brtw[gbase + r];
                    let u = pair[0];
                    let v = simd::cmul(pair[1], w);
                    pair[0] = u + v;
                    pair[1] = u - v;
                }
            } else {
                for (r, run) in block.chunks_exact_mut(hs << 1).enumerate() {
                    let w = self.brtw[gbase + r];
                    let (lo, hi) = run.split_at_mut(hs);
                    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                        let u = *a;
                        let v = *b * w;
                        *a = u + v;
                        *b = u - v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{FftPlan, FftSpec, Layout, Pow2Kernel, Strategy};
    use ftfft_numeric::uniform_signal;

    fn serial_radix2(n: usize, dir: Direction, x: &[Complex64]) -> Vec<Complex64> {
        let plan = FftPlan::from_spec(
            &FftSpec::new(n, dir)
                .with_kernel(Pow2Kernel::Radix2)
                .with_layout(Layout::Aos)
                .with_strategy(Strategy::Serial),
        );
        let mut dst = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.execute(x, &mut dst, &mut scratch);
        dst
    }

    #[test]
    fn matches_serial_radix2_bitwise_single_worker() {
        for t in 0u32..=13 {
            let n = 1usize << t;
            let x = uniform_signal(n, t as u64 + 1);
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = serial_radix2(n, dir, &x);
                let plan = ParallelDitPlan::new(n, dir, 1);
                let mut dst = vec![Complex64::ZERO; n];
                let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
                plan.execute(&x, &mut dst, &mut scratch);
                assert_eq!(dst, want, "t={t} dir={dir:?}");
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_bits() {
        for t in [6u32, 9, 11, 13] {
            let n = 1usize << t;
            let x = uniform_signal(n, 40 + t as u64);
            let want = serial_radix2(n, Direction::Forward, &x);
            for threads in 2..=8 {
                let plan = ParallelDitPlan::new(n, Direction::Forward, threads);
                let mut dst = vec![Complex64::ZERO; n];
                let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
                plan.execute(&x, &mut dst, &mut scratch);
                assert_eq!(dst, want, "t={t} threads={threads}");
            }
        }
    }

    #[test]
    fn inplace_equals_out_of_place() {
        for threads in [1usize, 3] {
            let n = 1 << 12;
            let x = uniform_signal(n, 77);
            let plan = ParallelDitPlan::new(n, Direction::Forward, threads);
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            let mut oop = vec![Complex64::ZERO; n];
            plan.execute(&x, &mut oop, &mut scratch);
            let mut ip = x.clone();
            plan.execute_inplace(&mut ip, &mut scratch);
            assert_eq!(ip, oop, "threads={threads}");
        }
    }

    #[test]
    fn chunk_range_is_balanced_partition() {
        for items in 0usize..40 {
            for parts in 1usize..=8 {
                let mut total = 0;
                let mut prev_end = 0;
                let mut sizes = Vec::new();
                for idx in 0..parts {
                    let r = chunk_range(items, parts, idx);
                    assert_eq!(r.start, prev_end, "items={items} parts={parts} idx={idx}");
                    prev_end = r.end;
                    total += r.len();
                    sizes.push(r.len());
                }
                assert_eq!(prev_end, items);
                assert_eq!(total, items);
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "items={items} parts={parts}: {sizes:?}");
            }
        }
    }

    #[test]
    fn resolve_threads_explicit_wins_and_clamps() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
    }
}
