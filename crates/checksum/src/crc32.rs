//! CRC-32 (IEEE 802.3) integrity words for *cold* buffered data.
//!
//! The ABFT memory checksums (`r₁`/`r₂`, [`crate::memory`]) guard the data
//! resident inside a protected transform: they locate and *repair* a
//! corrupted element, but the repair reconstructs the value arithmetically
//! — exact only to round-off. Cold data (ring-buffered history, staged
//! pipeline frames) does not need arithmetic at all: it is guarded through
//! its bit representation. A CRC is the detector for that regime — cheap,
//! detects every single-bit error and every burst up to 32 bits, and says
//! nothing about the value's arithmetic meaning because it doesn't need
//! to. Repair also works on the bits: the pipeline's cold ring keeps an
//! XOR parity over the words' bit patterns beside the CRC, which restores
//! a single struck word *exactly* (XOR has no round-off), and the CRC then
//! verifies the repaired frame. Where the parity cannot place the strike,
//! the original bits still exist upstream and the frame is recomputed
//! bitwise.
//!
//! This module implements the reflected CRC-32 with polynomial
//! `0xEDB88320` (zlib/PNG/Ethernet) in two interchangeable kernels that
//! produce the same 32-bit word for every input:
//!
//! * **Carry-less-multiply folding** (x86_64, `PCLMULQDQ`). The message is
//!   read as a polynomial over GF(2); four 128-bit accumulators each
//!   absorb the next 64 bytes per step by multiplying their two halves
//!   with `x^(512±32) mod P` and XORing in the new block, so four
//!   independent `clmul` chains run per 64 bytes instead of one table
//!   lookup per byte. The accumulators then fold into one, shrink to 64
//!   bits, and a Barrett reduction by `P(x)` yields the 32-bit state. The
//!   fold covers the 16-byte-aligned body of inputs of at least 128
//!   bytes; the unaligned head and the sub-block tail go through the
//!   tables.
//! * **Slice-by-8 tables** (eight compile-time tables, one lookup per
//!   byte but eight bytes per dependency chain). They hash the head and
//!   tail around the fold, every input shorter than 128 bytes, every
//!   input on other targets, and serve as the tests' reference.
//!
//! Dispatch follows the workspace SIMD switch: the fold runs when
//! [`ftfft_numeric::simd::simd_level`] is `Avx` and the CPU reports
//! `pclmulqdq` and `sse4.1`, so forcing the scalar level (`FTFFT_SIMD=scalar`)
//! exercises the table path end to end.
//!
//! The module exposes a streaming [`Crc32`] hasher and word-oriented
//! helpers for `f64` buffers (hashing the IEEE-754 bit patterns, so two
//! buffers agree iff they are bitwise identical — `0.0` vs `-0.0` and NaN
//! payloads included). The cold-ring guard hashes two full frames per
//! stored frame and re-hashes one at delivery (a second time after an
//! in-place repair), so the guard runs at the fold's memory speed rather
//! than the tables' byte rate.

/// The reflected CRC-32 polynomial `P(x)` (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables for the reflected polynomial `0xEDB88320`,
/// generated at compile time. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[j][b]` advances byte `b` through `j` additional zero
/// bytes, so eight lookups fold eight message bytes with one 32-bit
/// state dependency between iterations instead of eight.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            tables[j][i] = (tables[j - 1][i] >> 8) ^ tables[0][(tables[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// Slice-by-8 update of the raw (pre-inversion) state.
fn update_tables(mut state: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Carry-less-multiply folding kernel (see the module docs).
#[cfg(target_arch = "x86_64")]
mod fold {
    use super::{update_tables, POLY};
    use ftfft_numeric::simd::{simd_level, SimdLevel};
    use std::arch::x86_64::*;

    /// Fold key `x^k mod P(x)`, bit-reflected and shifted left by one —
    /// the layout a reflected 64×64 `clmul` expects.
    const fn key(k: u32) -> i64 {
        // Reflected domain: bit 31 is x^0 and multiplying by x is a right
        // shift with conditional reduction.
        let mut r: u32 = 1 << 31;
        let mut i = 0;
        while i < k {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        ((r as u64) << 1) as i64
    }

    /// Barrett constant `μ = ⌊x^64 / P(x)⌋`, bit-reflected over 33 bits.
    const fn barrett_mu() -> i64 {
        let p = (POLY.reverse_bits() as u128) | (1 << 32);
        let mut rem: u128 = 1 << 64;
        let mut q: u64 = 0;
        let mut d: i32 = 32;
        while d >= 0 {
            if rem & (1u128 << (d + 32)) != 0 {
                rem ^= p << d;
                q |= 1 << d;
            }
            d -= 1;
        }
        (q.reverse_bits() >> 31) as i64
    }

    /// Shortest input the fold takes: one full 4×128-bit step.
    pub(super) const MIN_LEN: usize = 128;

    /// Four-lane fold distance: 4·128 bits, one key per 64-bit half.
    pub(super) const K1: i64 = key(4 * 128 + 32);
    pub(super) const K2: i64 = key(4 * 128 - 32);
    /// One-lane fold distance: 128 bits.
    pub(super) const K3: i64 = key(128 + 32);
    pub(super) const K4: i64 = key(128 - 32);
    /// 96 → 64-bit reduction.
    pub(super) const K5: i64 = key(64);
    /// `P(x)` bit-reflected over 33 bits.
    pub(super) const P: i64 = ((POLY as u64) << 1 | 1) as i64;
    pub(super) const MU: i64 = barrett_mu();

    /// `true` when the fold may run: the workspace SIMD level is `Avx`
    /// and the CPU has the carry-less multiply and SSE4.1 extract.
    #[inline]
    pub(super) fn available() -> bool {
        simd_level() == SimdLevel::Avx
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
    }

    /// `a·x^(distance) ⊕ b`: folds accumulator `a` forward over the
    /// block `b` with the key pair `keys = (lo-half key, hi-half key)`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Folds `bytes` into the raw state: tables for the unaligned head
    /// and the sub-block tail, carry-less folding for the aligned body.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(state: u32, bytes: &[u8]) -> u32 {
        // SAFETY: every 16-byte pattern is a valid `__m128i`; `align_to`
        // only hands out the correctly aligned middle.
        let (head, body, tail) = unsafe { bytes.align_to::<__m128i>() };
        if body.len() < 8 {
            return update_tables(state, bytes);
        }
        let state = update_tables(state, head);

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut x0 = _mm_xor_si128(body[0], _mm_cvtsi32_si128(state as i32));
        let (mut x1, mut x2, mut x3) = (body[1], body[2], body[3]);
        let mut steps = body[4..].chunks_exact(4);
        for c in &mut steps {
            x0 = fold(x0, c[0], k1k2);
            x1 = fold(x1, c[1], k1k2);
            x2 = fold(x2, c[2], k1k2);
            x3 = fold(x3, c[3], k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        for &b in steps.remainder() {
            x = fold(x, b, k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32 bits (reflected variant: the result
        // sits in the upper half of the low quadword).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        update_tables(state, tail)
    }
}

/// Incremental CRC-32 hasher over a byte stream.
///
/// `Crc32::new().update(a).update(b).finish()` equals
/// [`crc32`]`(a ++ b)` — chunking is invisible, so callers can hash
/// structured data (sequence numbers, then samples) without staging a
/// contiguous byte buffer.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh hasher (initial state all-ones, per the IEEE convention).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum; returns `self` for chaining.
    pub fn update(mut self, bytes: &[u8]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= fold::MIN_LEN && fold::available() {
            // SAFETY: `available()` verified pclmulqdq and sse4.1.
            self.state = unsafe { fold::update(self.state, bytes) };
            return self;
        }
        self.state = update_tables(self.state, bytes);
        self
    }

    /// Folds one `u64` (little-endian bytes) into the checksum.
    pub fn update_u64(self, word: u64) -> Self {
        self.update(&word.to_le_bytes())
    }

    /// Folds a buffer of `f64` words via their IEEE-754 bit patterns —
    /// two buffers hash equal iff they are *bitwise* identical. Each word
    /// contributes its little-endian bytes, so on little-endian targets
    /// the buffer is hashed in place as one byte slice.
    pub fn update_f64s(self, words: &[f64]) -> Self {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: any initialized memory is a valid `u8` slice, and on
            // a little-endian target an `f64`'s in-memory bytes are exactly
            // `to_bits().to_le_bytes()`.
            let bytes = unsafe {
                std::slice::from_raw_parts(
                    words.as_ptr().cast::<u8>(),
                    std::mem::size_of_val(words),
                )
            };
            self.update(bytes)
        }
        #[cfg(not(target_endian = "little"))]
        {
            words.iter().fold(self, |h, w| h.update_u64(w.to_bits()))
        }
    }

    /// Final (bit-inverted) checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// One-shot CRC-32 of an `f64` buffer's bit patterns (see
/// [`Crc32::update_f64s`]).
pub fn crc32_f64s(words: &[f64]) -> u32 {
    Crc32::new().update_f64s(words).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_check_value() {
        // The CRC-32/IEEE check value: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, data.len() - 1, data.len()] {
            let inc = Crc32::new().update(&data[..split]).update(&data[split..]).finish();
            assert_eq!(inc, crc32(data), "split at {split}");
        }
    }

    #[test]
    fn f64_hash_is_bit_exact() {
        // 0.0 and -0.0 compare equal as floats but differ bitwise — the
        // CRC must see the difference (that is the whole point of hashing
        // bit patterns, not values).
        assert_ne!(crc32_f64s(&[0.0]), crc32_f64s(&[-0.0]));
        let a = [1.0, std::f64::consts::PI, -3.5e-9];
        assert_eq!(crc32_f64s(&a), crc32_f64s(a.as_ref()));
        assert_eq!(crc32_f64s(&a), Crc32::new().update_f64s(&a[..1]).update_f64s(&a[1..]).finish());
    }

    /// Byte-at-a-time fold against `TABLES[0]` only: the reference every
    /// fast path must match.
    fn reference(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state ^ 0xFFFF_FFFF
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    /// Every kernel this CPU can run on `bytes`, raw state in and out:
    /// the tables always, the carry-less fold whenever the CPU has it —
    /// independent of the dispatch level, so scalar-forced runs still
    /// check the fold itself.
    fn kernels(bytes: &[u8]) -> Vec<u32> {
        #[allow(unused_mut)]
        let mut out = vec![update_tables(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            // SAFETY: features checked just above.
            out.push(unsafe { fold::update(0xFFFF_FFFF, bytes) } ^ 0xFFFF_FFFF);
        }
        out
    }

    #[test]
    fn every_kernel_matches_byte_at_a_time_at_every_length() {
        // Lengths 0..=1024 cover every head/body/tail split of the fold,
        // both sides of its 128-byte cutoff, and every table remainder.
        let data = seeded_bytes(1024 + 16, 1);
        for len in 0..=1024 {
            let want = reference(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "dispatched, length {len}");
            for (k, got) in kernels(&data[..len]).into_iter().enumerate() {
                assert_eq!(got, want, "kernel {k}, length {len}");
            }
        }
    }

    #[test]
    fn every_kernel_matches_at_misaligned_starts() {
        let data = seeded_bytes(1024 + 16, 2);
        for start in 1..16 {
            for len in [0, 1, 15, 16, 127, 128, 129, 143, 144, 511, 512, 777, 1024] {
                let bytes = &data[start..start + len];
                let want = reference(bytes);
                assert_eq!(crc32(bytes), want, "dispatched, start {start} length {len}");
                for (k, got) in kernels(bytes).into_iter().enumerate() {
                    assert_eq!(got, want, "kernel {k}, start {start} length {len}");
                }
            }
        }
    }

    #[test]
    fn one_mebibyte_buffer_matches_the_reference() {
        let data = seeded_bytes(1 << 20, 3);
        let want = reference(&data);
        assert_eq!(crc32(&data), want);
        for (k, got) in kernels(&data).into_iter().enumerate() {
            assert_eq!(got, want, "kernel {k}");
        }
    }

    #[test]
    fn incremental_splits_around_the_fold_cutoff() {
        // One side of each split is short (tables), the other long enough
        // to fold; the chained state must carry across either way.
        let data = seeded_bytes(700, 4);
        let want = reference(&data);
        let len = data.len();
        for split in
            [1, 8, 15, 16, 17, 112, 127, 128, 129, 130, 256, len - 129, len - 128, len - 127]
        {
            let inc = Crc32::new().update(&data[..split]).update(&data[split..]).finish();
            assert_eq!(inc, want, "split at {split}");
        }
        let three = Crc32::new()
            .update(&data[..127])
            .update(&data[127..127 + 129])
            .update(&data[127 + 129..])
            .finish();
        assert_eq!(three, want);
    }

    #[test]
    fn f64_words_hash_as_their_little_endian_bytes() {
        let words: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_bits().to_le_bytes()).collect();
        for len in [0, 1, 15, 16, 17, 300] {
            assert_eq!(crc32_f64s(&words[..len]), reference(&bytes[..8 * len]), "{len} words");
        }
        let seq = 42u64;
        let sealed = Crc32::new().update_u64(seq).update_f64s(&words).finish();
        let mut framed = seq.to_le_bytes().to_vec();
        framed.extend_from_slice(&bytes);
        assert_eq!(sealed, reference(&framed));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_match_the_published_values() {
        // The const-fn derivations against the values used by the
        // reference PCLMULQDQ CRC-32 implementations.
        assert_eq!(fold::K1, 0x1_5444_2BD4);
        assert_eq!(fold::K2, 0x1_C6E4_1596);
        assert_eq!(fold::K3, 0x1_7519_97D0);
        assert_eq!(fold::K4, 0x0_CCAA_009E);
        assert_eq!(fold::K5, 0x1_63CD_6124);
        assert_eq!(fold::P, 0x1_DB71_0641);
        assert_eq!(fold::MU, 0x1_F701_1641);
    }

    #[test]
    fn every_single_bit_flip_is_detected_in_a_word_buffer() {
        // CRC-32 detects all single-bit errors by construction; sweep every
        // bit of a small f64 buffer to pin the property end to end.
        let buf = [0.125f64, -7.25, 3.0e17, 0.0];
        let clean = crc32_f64s(&buf);
        for word in 0..buf.len() {
            for bit in 0..64 {
                let mut corrupted = buf;
                corrupted[word] = f64::from_bits(corrupted[word].to_bits() ^ (1u64 << bit));
                assert_ne!(
                    crc32_f64s(&corrupted),
                    clean,
                    "flip of word {word} bit {bit} went undetected"
                );
            }
        }
    }
}
