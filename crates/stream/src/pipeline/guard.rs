//! CRC-guarded cold ring between the transform stage and the sink.
//!
//! Processed frames wait here (cold, at rest) until the sink drains them —
//! the residency window where a memory strike would otherwise slip
//! downstream silently. Each slot seals two CRC-32 words at store time:
//! one over the processed output, one over the **retained input** (the
//! recompute source). Both CRCs bind the frame's sequence number, so a
//! slot shuffle is as detectable as a bit flip.
//!
//! The output is also sealed with a two-dimensional XOR parity of its
//! `u64` bit patterns: the words are laid out in rows of 64, and the
//! slot keeps one parity word per row and one per column (a
//! 4096-word frame keeps 64 + 64 words, 3% of the frame). Delivery
//! verifies the output CRC and, on mismatch, climbs a ladder:
//!
//! 1. **Heal in place.** Recompute the parity. If exactly one row and one
//!    column differ, by the same XOR delta, the strike hit the one word at
//!    their crossing: flip it back, and accept the frame only if its
//!    re-sealed CRC verifies. XOR over the bit patterns restores the word
//!    exactly (Elliott & Hoemmen's "exploit the data representation"
//!    regime), so no round-off enters.
//! 2. **Recompute.** Otherwise (several words struck, a parity word
//!    struck, or the re-seal failed) undo the flip and verify the retained
//!    input; if intact, the frame is recomputed *bitwise* — the regime the
//!    module-level discussion in [`ftfft_checksum::crc32()`] lays out.
//! 3. **Quarantine** when the retained input is corrupt as well.
//!
//! A parity mismatch can only route a frame down the ladder; no frame
//! leaves the ring without a verified CRC.

use ftfft_checksum::Crc32;
use ftfft_fault::bytes::{ByteFaultInjector, ByteRegion};

use super::report::ColdStats;
use std::collections::VecDeque;

/// Words per row of the output's XOR parity grid.
const PARITY_ROW: usize = 64;

/// Delivery-time verdict on the ring's oldest slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontVerdict {
    /// Output CRC verified (or guarding disabled) — safe to deliver.
    OutputOk,
    /// Output CRC tripped on a single-word strike; the XOR parity located
    /// the word, it was flipped back, and the re-sealed CRC verified —
    /// safe to deliver as recovered.
    CorrectedInPlace,
    /// Output corrupted beyond the parity's reach, retained input intact —
    /// recompute bitwise.
    RecomputeFromInput,
    /// Output corrupted *and* retained input corrupted — quarantine; the
    /// frame is unrecoverable but the loss is detected and counted.
    Unrecoverable,
}

struct Slot {
    seq: u64,
    input: Vec<f64>,
    output: Vec<f64>,
    input_crc: u32,
    output_crc: u32,
    /// Row parities of the output, then [`PARITY_ROW`] column parities
    /// (empty with guarding off).
    parity: Vec<u64>,
}

impl Slot {
    /// Seals the output's CRC and XOR parity.
    fn seal_output(&mut self) {
        self.output_crc = seal(self.seq, &self.output);
        xor_parity(&self.output, &mut self.parity);
    }
}

/// Bounded ring of CRC-sealed (input, output) frame pairs.
pub struct GuardedRing {
    slots: VecDeque<Slot>,
    capacity: usize,
    crc: bool,
    /// Parity of the front output as it stands at delivery (reused).
    parity_now: Vec<u64>,
    stored: u64,
    high_water: u64,
    crc_checks: u64,
    crc_detected: u64,
    retention_detected: u64,
    corrected: u64,
    recomputed: u64,
    quarantined: u64,
}

fn seal(seq: u64, words: &[f64]) -> u32 {
    Crc32::new().update_u64(seq).update_f64s(words).finish()
}

/// Two-dimensional XOR parity of `words`' bit patterns into `parity`:
/// one word per row of [`PARITY_ROW`] words, then [`PARITY_ROW`] column
/// words (a short last row leaves its missing columns untouched).
fn xor_parity(words: &[f64], parity: &mut Vec<u64>) {
    let mut cols = [0u64; PARITY_ROW];
    parity.clear();
    parity.extend(words.chunks(PARITY_ROW).map(|row| {
        let mut acc = 0;
        for (c, w) in cols.iter_mut().zip(row) {
            *c ^= w.to_bits();
            acc ^= w.to_bits();
        }
        acc
    }));
    parity.extend_from_slice(&cols);
}

/// The single word a parity mismatch points at: `(index, xor delta)` when
/// exactly one row and one column differ between `sealed` and `now`, by
/// the same delta, at an index inside a `len`-word frame.
fn locate_strike(sealed: &[u64], now: &[u64], len: usize) -> Option<(usize, u64)> {
    let rows = len.div_ceil(PARITY_ROW);
    let lone = |range: std::ops::Range<usize>| {
        let mut hit = None;
        for i in range {
            let delta = sealed[i] ^ now[i];
            if delta != 0 {
                if hit.is_some() {
                    return None;
                }
                hit = Some((i, delta));
            }
        }
        hit
    };
    let (row, row_delta) = lone(0..rows)?;
    let (col, col_delta) = lone(rows..rows + PARITY_ROW)?;
    let index = row * PARITY_ROW + (col - rows);
    (row_delta == col_delta && index < len).then_some((index, row_delta))
}

fn flip(word: &mut f64, delta: u64) {
    *word = f64::from_bits(word.to_bits() ^ delta);
}

impl GuardedRing {
    /// Creates a ring holding at most `capacity` frames; `crc` enables
    /// the integrity words and the output parity (off = bare buffering,
    /// for overhead baselines).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, crc: bool) -> Self {
        assert!(capacity >= 1, "ring capacity must be >= 1");
        GuardedRing {
            slots: VecDeque::with_capacity(capacity),
            capacity,
            crc,
            parity_now: Vec::new(),
            stored: 0,
            high_water: 0,
            crc_checks: 0,
            crc_detected: 0,
            retention_detected: 0,
            corrected: 0,
            recomputed: 0,
            quarantined: 0,
        }
    }

    /// `true` when a store would exceed capacity (backpressure signal).
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// `true` when no frame is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Frames currently resident.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Seals `(input, output)` for frame `seq` into the ring. The retained
    /// input is moved in; the output is copied.
    ///
    /// # Panics
    /// Panics when full — callers must check [`is_full`](Self::is_full)
    /// first (the pipeline turns fullness into backpressure, not loss).
    pub fn store(&mut self, seq: u64, input: Vec<f64>, output: &[f64]) {
        assert!(!self.is_full(), "GuardedRing::store on a full ring");
        let mut slot = Slot {
            seq,
            input_crc: 0,
            output_crc: 0,
            input,
            output: output.to_vec(),
            parity: Vec::new(),
        };
        if self.crc {
            slot.input_crc = seal(seq, &slot.input);
            slot.seal_output();
        }
        self.slots.push_back(slot);
        self.stored += 1;
        self.high_water = self.high_water.max(self.slots.len() as u64);
    }

    /// Exposes the newest slot's buffers to a byte-level injector — the
    /// campaign's hook for striking data at rest. Output words are struck
    /// as [`ByteRegion::ColdSlot`], retained input as
    /// [`ByteRegion::Retention`]. Returns the number of faults injected.
    pub fn corrupt_back(&mut self, injector: &dyn ByteFaultInjector) -> usize {
        let Some(slot) = self.slots.back_mut() else { return 0 };
        injector.corrupt_words(ByteRegion::ColdSlot { seq: slot.seq }, &mut slot.output)
            + injector.corrupt_words(ByteRegion::Retention { seq: slot.seq }, &mut slot.input)
    }

    /// Verifies the oldest slot's CRCs and renders the delivery verdict,
    /// healing a single-word output strike in place (see the module doc's
    /// ladder). With guarding disabled this always says
    /// [`FrontVerdict::OutputOk`] — whatever the bits are, they ship (the
    /// unprotected baseline).
    pub fn verify_front(&mut self) -> Option<FrontVerdict> {
        let slot = self.slots.front_mut()?;
        if !self.crc {
            return Some(FrontVerdict::OutputOk);
        }
        self.crc_checks += 1;
        if seal(slot.seq, &slot.output) == slot.output_crc {
            return Some(FrontVerdict::OutputOk);
        }
        self.crc_detected += 1;
        xor_parity(&slot.output, &mut self.parity_now);
        if let Some((i, delta)) = locate_strike(&slot.parity, &self.parity_now, slot.output.len()) {
            flip(&mut slot.output[i], delta);
            self.crc_checks += 1;
            if seal(slot.seq, &slot.output) == slot.output_crc {
                self.corrected += 1;
                return Some(FrontVerdict::CorrectedInPlace);
            }
            flip(&mut slot.output[i], delta);
        }
        self.crc_checks += 1;
        if seal(slot.seq, &slot.input) == slot.input_crc {
            Some(FrontVerdict::RecomputeFromInput)
        } else {
            self.retention_detected += 1;
            Some(FrontVerdict::Unrecoverable)
        }
    }

    /// The oldest slot's sequence number.
    pub fn front_seq(&self) -> Option<u64> {
        self.slots.front().map(|s| s.seq)
    }

    /// Copies the oldest slot's retained input into `buf`.
    pub fn front_input_to(&self, buf: &mut Vec<f64>) {
        let slot = self.slots.front().expect("front_input_to on an empty ring");
        buf.clear();
        buf.extend_from_slice(&slot.input);
    }

    /// Replaces the oldest slot's output with a recomputed buffer and
    /// reseals its CRC and parity (counted as a recompute recovery).
    pub fn replace_front_output(&mut self, output: &[f64]) {
        let crc = self.crc;
        let slot = self.slots.front_mut().expect("replace_front_output on an empty ring");
        slot.output.clear();
        slot.output.extend_from_slice(output);
        if crc {
            slot.seal_output();
        }
        self.recomputed += 1;
    }

    /// Delivers the oldest slot: removes it and returns `(seq, output)`.
    pub fn pop_front(&mut self) -> Option<(u64, Vec<f64>)> {
        self.slots.pop_front().map(|s| (s.seq, s.output))
    }

    /// Discards the oldest slot as unrecoverable (counted).
    pub fn quarantine_front(&mut self) {
        if self.slots.pop_front().is_some() {
            self.quarantined += 1;
        }
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> ColdStats {
        ColdStats {
            capacity: self.capacity as u64,
            stored: self.stored,
            high_water: self.high_water,
            crc_checks: self.crc_checks,
            crc_detected: self.crc_detected,
            retention_detected: self.retention_detected,
            corrected: self.corrected,
            recomputed: self.recomputed,
            quarantined: self.quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_fault::bytes::{ByteFaultKind, RandomByteInjector};

    /// SplitMix64 step: seeded, varied bit patterns (NaN payloads included).
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn frame(len: usize, salt: u64) -> Vec<f64> {
        (0..len as u64).map(|i| f64::from_bits(mix(salt ^ (i << 20)))).collect()
    }

    fn bits(words: &[f64]) -> Vec<u64> {
        words.iter().map(|w| w.to_bits()).collect()
    }

    /// A one-slot ring sealing `output` (and a short retained input).
    fn sealed(output: &[f64]) -> GuardedRing {
        let mut ring = GuardedRing::new(1, true);
        ring.store(3, frame(16, 77), output);
        ring
    }

    fn strike(ring: &mut GuardedRing, index: usize, mask: u64) {
        flip(&mut ring.slots[0].output[index], mask);
    }

    fn front_bits(ring: &GuardedRing) -> Vec<u64> {
        bits(&ring.slots[0].output)
    }

    #[test]
    fn clean_slots_verify_and_deliver_in_order() {
        let mut ring = GuardedRing::new(4, true);
        for seq in 0..3u64 {
            ring.store(seq, vec![seq as f64; 8], &[seq as f64 + 0.5; 8]);
        }
        for seq in 0..3u64 {
            assert_eq!(ring.verify_front(), Some(FrontVerdict::OutputOk));
            let (s, out) = ring.pop_front().unwrap();
            assert_eq!(s, seq);
            assert_eq!(out, vec![seq as f64 + 0.5; 8]);
        }
        assert!(ring.is_empty());
        assert_eq!(ring.verify_front(), None);
        let st = ring.stats();
        assert_eq!((st.stored, st.high_water, st.crc_detected), (3, 3, 0));
    }

    #[test]
    fn parity_is_one_word_per_row_and_per_column() {
        for (len, rows) in [(0, 0), (1, 1), (61, 1), (64, 1), (65, 2), (100, 2), (4096, 64)] {
            let words = frame(len, 5);
            let mut parity = Vec::new();
            xor_parity(&words, &mut parity);
            assert_eq!(parity.len(), rows + PARITY_ROW, "len {len}");
            let mut want = vec![0u64; rows + PARITY_ROW];
            for (i, w) in bits(&words).into_iter().enumerate() {
                want[i / PARITY_ROW] ^= w;
                want[rows + i % PARITY_ROW] ^= w;
            }
            assert_eq!(parity, want, "len {len}");
        }
    }

    #[test]
    fn single_word_strikes_heal_in_place_bitwise() {
        for len in [61usize, 64, 100, 4096] {
            let original = frame(len, len as u64);
            let want = bits(&original);
            let mut ring = sealed(&original);
            let mut positions = vec![0, len - 1];
            for r in 1..len.div_ceil(PARITY_ROW) {
                positions.extend([r * PARITY_ROW - 1, r * PARITY_ROW]);
            }
            positions.extend(
                (0..32).map(|k| (mix(0xF1A5 ^ k ^ ((len as u64) << 32)) % len as u64) as usize),
            );
            // Every single-bit flip at every position, then bursts of
            // 2..=64 bits inside one word at a few of them.
            let mut strikes = Vec::new();
            for &i in &positions {
                strikes.extend((0..64).map(|b| (i, 1u64 << b)));
            }
            for &i in positions.iter().step_by(7) {
                for run in 2..=64u32 {
                    let mask = u64::MAX >> (64 - run);
                    let shift = (mix(i as u64 ^ u64::from(run)) % u64::from(65 - run)) as u32;
                    strikes.extend([(i, mask), (i, mask << (64 - run)), (i, mask << shift)]);
                }
            }
            // The parity pins every strike to its word and delta.
            let mut words = original.clone();
            let mut now = Vec::new();
            for &(i, mask) in &strikes {
                flip(&mut words[i], mask);
                xor_parity(&words, &mut now);
                let located = locate_strike(&ring.slots[0].parity, &now, len);
                assert_eq!(located, Some((i, mask)), "len {len}, word {i}");
                flip(&mut words[i], mask);
            }
            // Through the ring (failed CRC, flip, re-seal): every strike on
            // the short frames, a spread sample on the 4096-word one (the
            // table CRC of unoptimized scalar builds is slow).
            let stride = if len > 100 { 97 } else { 1 };
            let through_ring: Vec<_> = strikes.iter().step_by(stride).collect();
            let checks_before = ring.stats().crc_checks;
            for &&(i, mask) in &through_ring {
                strike(&mut ring, i, mask);
                assert_eq!(
                    ring.verify_front(),
                    Some(FrontVerdict::CorrectedInPlace),
                    "len {len}, word {i}, mask {mask:#x}"
                );
                assert_eq!(front_bits(&ring), want, "len {len}, word {i}, mask {mask:#x}");
            }
            assert_eq!(ring.verify_front(), Some(FrontVerdict::OutputOk));
            let st = ring.stats();
            let n = through_ring.len() as u64;
            assert_eq!((st.crc_detected, st.corrected, st.recomputed), (n, n, 0));
            assert_eq!(st.retention_detected, 0);
            // One failed check, one re-seal per strike, plus the final check.
            assert_eq!(st.crc_checks - checks_before, 2 * n + 1);
            let (_, out) = ring.pop_front().unwrap();
            assert_eq!(bits(&out), want);
        }
    }

    #[test]
    fn output_corruption_is_detected_and_recomputable() {
        // Two struck output words in different rows and columns: the
        // parity sees two rows and two columns, so it stays out of it.
        let original = frame(200, 1);
        let mut ring = sealed(&original);
        strike(&mut ring, 3, 1 << 52);
        strike(&mut ring, 2 * PARITY_ROW + 10, 1 << 7);
        let struck = front_bits(&ring);
        assert_eq!(ring.verify_front(), Some(FrontVerdict::RecomputeFromInput));
        assert_eq!(front_bits(&ring), struck, "a fallback leaves the output as it was");
        let mut input = Vec::new();
        ring.front_input_to(&mut input);
        assert_eq!(bits(&input), bits(&frame(16, 77)));
        ring.replace_front_output(&original);
        assert_eq!(ring.verify_front(), Some(FrontVerdict::OutputOk));
        let (_, out) = ring.pop_front().unwrap();
        assert_eq!(bits(&out), bits(&original));
        let st = ring.stats();
        assert_eq!(
            (st.crc_detected, st.corrected, st.recomputed, st.retention_detected),
            (1, 0, 1, 0)
        );
    }

    #[test]
    fn a_misdirected_parity_fix_is_undone_by_the_reseal() {
        // Three equal strikes on three corners of a rectangle leave one
        // row and one column differing by the same delta: the parity
        // points at the fourth corner, the re-sealed CRC refuses it, and
        // the flip is undone before the ladder falls through.
        let original = frame(4096, 2);
        let mut ring = sealed(&original);
        let (r1, r2, c1, c2) = (5, 40, 9, 33);
        let d = 1u64 << 61;
        for (r, c) in [(r1, c1), (r1, c2), (r2, c2)] {
            strike(&mut ring, r * PARITY_ROW + c, d);
        }
        let struck = front_bits(&ring);
        assert_eq!(ring.verify_front(), Some(FrontVerdict::RecomputeFromInput));
        assert_eq!(front_bits(&ring), struck);
        let st = ring.stats();
        assert_eq!((st.crc_detected, st.corrected, st.crc_checks), (1, 0, 3));
    }

    #[test]
    fn unequal_row_and_column_deltas_flip_nothing() {
        // A struck row parity word beside a struck output word of the same
        // row: one row and one column differ, but by different deltas, so
        // no word is flipped and no re-seal is spent.
        let mut ring = sealed(&frame(300, 6));
        strike(&mut ring, PARITY_ROW + 6, 1 << 9);
        let struck = front_bits(&ring);
        ring.slots[0].parity[1] ^= 1 << 33;
        assert_eq!(ring.verify_front(), Some(FrontVerdict::RecomputeFromInput));
        assert_eq!(front_bits(&ring), struck);
        assert_eq!(ring.stats().crc_checks, 2, "output check and input check only");
    }

    #[test]
    fn struck_parity_never_delivers_wrong_bits() {
        let original = frame(1000, 3);
        let want = bits(&original);
        let rows = original.len().div_ceil(PARITY_ROW);
        for case in 0..400u64 {
            let mut ring = sealed(&original);
            let i = (mix(case) % original.len() as u64) as usize;
            let d = 1u64 << (mix(case ^ 0xAB) % 64);
            strike(&mut ring, i, d);
            let (r, c) = (i / PARITY_ROW, i % PARITY_ROW);
            // Half the cases aim the parity strike at the struck word's own
            // row or column, and some reuse its delta.
            let p = match case % 4 {
                0 => r,
                1 => rows + c,
                _ => (mix(case ^ 0xCD) % (rows + PARITY_ROW) as u64) as usize,
            };
            let e = if case % 3 == 0 { d } else { 1u64 << (mix(case ^ 0xEF) % 64) };
            ring.slots[0].parity[p] ^= e;
            if case % 5 == 0 {
                // A second parity strike that could steer the fix elsewhere.
                let q = (mix(case ^ 0x11) % rows as u64) as usize;
                ring.slots[0].parity[q] ^= d;
            }
            match ring.verify_front() {
                Some(FrontVerdict::OutputOk) => {
                    panic!("case {case}: a struck frame passed the CRC")
                }
                Some(FrontVerdict::CorrectedInPlace) => {
                    assert_eq!(front_bits(&ring), want, "case {case}: healed to wrong bits")
                }
                Some(FrontVerdict::RecomputeFromInput) => {
                    let mut struck = want.clone();
                    struck[i] ^= d;
                    assert_eq!(front_bits(&ring), struck, "case {case}: fallback moved bits");
                }
                other => panic!("case {case}: unexpected verdict {other:?}"),
            }
        }
    }

    #[test]
    fn output_and_input_strikes_heal_in_place() {
        // The parity rung needs no recompute source, so a struck retained
        // input no longer costs the frame.
        let original = frame(4096, 4);
        let mut ring = sealed(&original);
        strike(&mut ring, 1234, 1 << 40);
        let inj = RandomByteInjector::new(8, 1.0, ByteFaultKind::BitFlip, 1)
            .with_region_filter(|r| matches!(r, ByteRegion::Retention { .. }));
        assert_eq!(ring.corrupt_back(&inj), 1);
        assert_eq!(ring.verify_front(), Some(FrontVerdict::CorrectedInPlace));
        let (_, out) = ring.pop_front().unwrap();
        assert_eq!(bits(&out), bits(&original));
        let st = ring.stats();
        assert_eq!((st.corrected, st.retention_detected, st.quarantined), (1, 0, 0));
    }

    #[test]
    fn double_corruption_is_unrecoverable_but_detected() {
        // Two output words (different row and column) plus the retained
        // input: beyond the parity, and no intact recompute source.
        let mut ring = sealed(&frame(300, 5));
        strike(&mut ring, 7, 1 << 3);
        strike(&mut ring, 3 * PARITY_ROW + 20, 1 << 55);
        let inj = RandomByteInjector::new(5, 1.0, ByteFaultKind::BitFlip, 1)
            .with_region_filter(|r| matches!(r, ByteRegion::Retention { .. }));
        assert_eq!(ring.corrupt_back(&inj), 1);
        assert_eq!(ring.verify_front(), Some(FrontVerdict::Unrecoverable));
        ring.quarantine_front();
        assert!(ring.is_empty());
        let st = ring.stats();
        assert_eq!((st.crc_detected, st.retention_detected, st.quarantined), (1, 1, 1));
        assert_eq!(st.corrected, 0);
    }

    #[test]
    fn crc_off_ships_whatever_the_bits_are() {
        let mut ring = GuardedRing::new(2, false);
        ring.store(0, vec![1.0], &[2.0]);
        let inj = RandomByteInjector::new(3, 1.0, ByteFaultKind::BitFlip, 1)
            .with_region_filter(|r| matches!(r, ByteRegion::ColdSlot { .. }));
        ring.corrupt_back(&inj);
        assert_eq!(ring.verify_front(), Some(FrontVerdict::OutputOk));
        assert_eq!(ring.stats().crc_checks, 0);
        assert!(ring.slots[0].parity.is_empty(), "no parity without guarding");
    }

    #[test]
    fn sequence_number_is_bound_into_the_seal() {
        // Same bytes, different seq → different CRC (slot shuffle detection).
        assert_ne!(seal(1, &[5.0, 6.0]), seal(2, &[5.0, 6.0]));
    }
}
