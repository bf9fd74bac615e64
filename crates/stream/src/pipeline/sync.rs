//! Raw-sample ingestion: frame synchronization and derandomization.
//!
//! Models a CCSDS-style downlink framing just deeply enough to exercise
//! the pipeline's ingress hazards: each frame is an attached sync marker
//! ([`ASM`]) followed by a whitened payload of little-endian `i16`
//! samples. The synchronizer hunts for the marker byte-by-byte, locks,
//! decodes frames, and — when corruption eats an expected marker — counts
//! a sync loss and re-hunts, discarding bytes (counted) until lock
//! returns. [`whiten`] is the self-inverse LFSR randomizer applied to
//! every payload, reset per frame so one lost frame never desynchronizes
//! the next.

use super::report::SyncStats;

/// Attached sync marker preceding every frame (the CCSDS 32-bit ASM).
pub const ASM: [u8; 4] = [0x1A, 0xCF, 0xFC, 0x1D];

/// Quantization scale: sample `x` travels as `round(x · SAMPLE_SCALE)`
/// clamped to `i16`.
pub const SAMPLE_SCALE: f64 = 4096.0;

/// Byte period of the randomizer keystream (the LFSR's maximal period).
const KEY_PERIOD: usize = 255;

/// One period of the randomizer keystream, built at compile time.
const KEYSTREAM: [u8; KEY_PERIOD] = keystream();

/// The same keystream paired up per `i16` sample: entry `j` is the
/// little-endian key word for payload bytes `2j, 2j+1`. The pairing
/// repeats every 255 samples (510 bytes), since 255 is odd.
const SAMPLE_KEYS: [u16; KEY_PERIOD] = sample_keys();

/// Runs the 8-bit Fibonacci LFSR (seeded all-ones, taps at bits 7, 6, 4,
/// 2; output bit 7, MSB first) for one byte period. The LFSR is maximal,
/// so its bit sequence repeats every 255 steps and — 8 and 255 being
/// coprime — its byte sequence every 255 bytes.
const fn keystream() -> [u8; KEY_PERIOD] {
    let mut ks = [0u8; KEY_PERIOD];
    let mut state: u8 = 0xFF;
    let mut i = 0;
    while i < KEY_PERIOD {
        let mut key = 0u8;
        let mut bit = 0;
        while bit < 8 {
            let out = state >> 7;
            let fb = ((state >> 7) ^ (state >> 6) ^ (state >> 4) ^ (state >> 2)) & 1;
            state = (state << 1) | fb;
            key = (key << 1) | out;
            bit += 1;
        }
        ks[i] = key;
        i += 1;
    }
    ks
}

const fn sample_keys() -> [u16; KEY_PERIOD] {
    let mut keys = [0u16; KEY_PERIOD];
    let mut j = 0;
    while j < KEY_PERIOD {
        let lo = KEYSTREAM[(2 * j) % KEY_PERIOD];
        let hi = KEYSTREAM[(2 * j + 1) % KEY_PERIOD];
        keys[j] = u16::from_le_bytes([lo, hi]);
        j += 1;
    }
    keys
}

/// Applies the frame-synchronous pseudo-randomizer (self-inverse).
///
/// Keystream: an 8-bit Fibonacci LFSR seeded all-ones per frame, taps at
/// bits 7, 6, 4, 2 — XORed over the payload so long runs of constant
/// samples still toggle the line. The LFSR is maximal, so its byte
/// stream has period exactly 255; one period is tabulated at compile
/// time and the payload is XORed against it 255 bytes at a time, with
/// no per-bit stepping. Applying it twice restores the input bitwise;
/// the per-frame reset keeps frames independently decodable.
pub fn whiten(payload: &mut [u8]) {
    for block in payload.chunks_mut(KEY_PERIOD) {
        for (b, k) in block.iter_mut().zip(&KEYSTREAM) {
            *b ^= k;
        }
    }
}

/// Dewhitens and dequantizes one whitened payload in a single pass:
/// sample `j` is `(le_i16(bytes 2j, 2j+1) ⊕ key_j) / SAMPLE_SCALE`.
fn decode_payload(payload: &[u8], out: &mut [f64]) {
    debug_assert_eq!(payload.len(), 2 * out.len());
    for (bytes, samples) in payload.chunks(2 * KEY_PERIOD).zip(out.chunks_mut(KEY_PERIOD)) {
        for ((pair, s), k) in bytes.chunks_exact(2).zip(samples).zip(&SAMPLE_KEYS) {
            let q = u16::from_le_bytes([pair[0], pair[1]]) ^ k;
            *s = q as i16 as f64 / SAMPLE_SCALE;
        }
    }
}

/// Encodes one frame of samples into `out`: ASM, then the whitened
/// little-endian `i16` payload (quantized by [`SAMPLE_SCALE`], clamped).
pub fn encode_frame(samples: &[f64], out: &mut Vec<u8>) {
    out.extend_from_slice(&ASM);
    let start = out.len();
    for &x in samples {
        let q = (x * SAMPLE_SCALE).round().clamp(i16::MIN as f64, i16::MAX as f64) as i16;
        out.extend_from_slice(&q.to_le_bytes());
    }
    whiten(&mut out[start..]);
}

/// Encodes `signal` as consecutive `frame_len`-sample frames (trailing
/// partial frame dropped) — the byte stream a clean downlink would carry.
pub fn encode_stream(signal: &[f64], frame_len: usize) -> Vec<u8> {
    assert!(frame_len >= 1, "frame_len must be >= 1");
    let mut out = Vec::with_capacity((signal.len() / frame_len) * (4 + 2 * frame_len));
    for frame in signal.chunks_exact(frame_len) {
        encode_frame(frame, &mut out);
    }
    out
}

/// Streaming frame synchronizer: bytes in, decoded sample frames out.
#[derive(Debug)]
pub struct FrameSync {
    frame_len: usize,
    /// Unconsumed bytes start at `buf[pos]`; the consumed prefix is
    /// dropped once per [`push`](FrameSync::push), not once per frame.
    buf: Vec<u8>,
    pos: usize,
    locked: bool,
    bytes_in: u64,
    bytes_skipped: u64,
    frames_synced: u64,
    sync_losses: u64,
}

impl FrameSync {
    /// Creates a synchronizer for `frame_len`-sample frames.
    pub fn new(frame_len: usize) -> Self {
        assert!(frame_len >= 1, "frame_len must be >= 1");
        FrameSync {
            frame_len,
            buf: Vec::new(),
            pos: 0,
            locked: false,
            bytes_in: 0,
            bytes_skipped: 0,
            frames_synced: 0,
            sync_losses: 0,
        }
    }

    /// Samples per frame.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> SyncStats {
        SyncStats {
            bytes_in: self.bytes_in,
            bytes_skipped: self.bytes_skipped,
            frames_synced: self.frames_synced,
            sync_losses: self.sync_losses,
            locked: self.locked,
        }
    }

    /// Feeds `bytes` in; calls `emit` once per fully synchronized frame,
    /// in stream order, with the dewhitened, dequantized samples.
    ///
    /// Chunking-invariant: any split of the same byte stream produces the
    /// same emitted frames and final stats.
    pub fn push(&mut self, bytes: &[u8], emit: &mut dyn FnMut(Vec<f64>)) {
        self.bytes_in += bytes.len() as u64;
        self.buf.extend_from_slice(bytes);
        self.scan(emit);
        // One compaction per push keeps a many-frame push linear.
        self.buf.drain(..self.pos);
        self.pos = 0;
    }

    /// Decodes every complete frame from `buf[pos..]`, advancing `pos`.
    fn scan(&mut self, emit: &mut dyn FnMut(Vec<f64>)) {
        let payload = 2 * self.frame_len;
        loop {
            let rest = &self.buf[self.pos..];
            if !self.locked {
                match find_asm(rest) {
                    Some(i) => {
                        self.bytes_skipped += i as u64;
                        self.pos += i;
                        self.locked = true;
                    }
                    None => {
                        // Keep the last 3 bytes — a marker may straddle
                        // this chunk boundary.
                        let skip = rest.len() - rest.len().min(ASM.len() - 1);
                        self.bytes_skipped += skip as u64;
                        self.pos += skip;
                        return;
                    }
                }
                continue;
            }
            if rest.len() < ASM.len() {
                return;
            }
            if rest[..ASM.len()] != ASM {
                // The expected marker is gone — corruption in the marker
                // itself or a truncated frame. Count the loss, shed one
                // byte, and re-hunt.
                self.sync_losses += 1;
                self.locked = false;
                self.bytes_skipped += 1;
                self.pos += 1;
                continue;
            }
            if rest.len() < ASM.len() + payload {
                return;
            }
            let mut samples = vec![0.0; self.frame_len];
            decode_payload(&rest[ASM.len()..ASM.len() + payload], &mut samples);
            self.pos += ASM.len() + payload;
            self.frames_synced += 1;
            emit(samples);
        }
    }
}

fn find_asm(buf: &[u8]) -> Option<usize> {
    buf.windows(ASM.len()).position(|w| w == ASM)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize) -> Vec<f64> {
        (0..len).map(|i| (i as f64 - len as f64 / 2.0) / SAMPLE_SCALE).collect()
    }

    fn collect_frames(sync: &mut FrameSync, bytes: &[u8], chunk: usize) -> Vec<Vec<f64>> {
        let mut frames = Vec::new();
        for c in bytes.chunks(chunk.max(1)) {
            sync.push(c, &mut |f| frames.push(f));
        }
        frames
    }

    /// The original bit-serial randomizer: eight dependent LFSR steps per
    /// byte. The tabulated keystream must reproduce it exactly.
    fn whiten_bit_serial(payload: &mut [u8]) {
        let mut state: u8 = 0xFF;
        for byte in payload {
            let mut key = 0u8;
            for _ in 0..8 {
                let out = state >> 7;
                let fb = ((state >> 7) ^ (state >> 6) ^ (state >> 4) ^ (state >> 2)) & 1;
                state = (state << 1) | fb;
                key = (key << 1) | out;
            }
            *byte ^= key;
        }
    }

    #[test]
    fn keystream_table_matches_the_bit_serial_lfsr() {
        let data: Vec<u8> = (0..511u32).map(|i| (i.wrapping_mul(151) >> 2) as u8).collect();
        for len in 0..=data.len() {
            let mut want = data[..len].to_vec();
            whiten_bit_serial(&mut want);
            let mut got = data[..len].to_vec();
            whiten(&mut got);
            assert_eq!(got, want, "length {len}");
        }
        // The byte period is exactly 255: no shorter period divides it.
        let mut zeros = vec![0u8; 2 * KEY_PERIOD];
        whiten_bit_serial(&mut zeros);
        assert_eq!(zeros[..KEY_PERIOD], zeros[KEY_PERIOD..]);
        for p in [3, 5, 15, 17, 51, 85] {
            assert_ne!(zeros[..p], zeros[p..2 * p], "period {p}");
        }
    }

    #[test]
    fn fused_decode_matches_whiten_then_dequantize() {
        // Odd and even sample counts around the 255-sample key period.
        for samples in [0usize, 1, 127, 128, 254, 255, 256, 510, 511, 1000] {
            let payload: Vec<u8> =
                (0..2 * samples as u32).map(|i| (i.wrapping_mul(89) ^ (i >> 3)) as u8).collect();
            let mut plain = payload.clone();
            whiten_bit_serial(&mut plain);
            let want: Vec<f64> = plain
                .chunks_exact(2)
                .map(|b| i16::from_le_bytes([b[0], b[1]]) as f64 / SAMPLE_SCALE)
                .collect();
            let mut got = vec![f64::NAN; samples];
            decode_payload(&payload, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{samples} samples");
        }
    }

    #[test]
    fn whiten_is_an_involution_and_not_identity() {
        let original: Vec<u8> = (0..=255).collect();
        let mut buf = original.clone();
        whiten(&mut buf);
        assert_ne!(buf, original);
        whiten(&mut buf);
        assert_eq!(buf, original);
    }

    #[test]
    fn round_trip_is_exact_for_quantized_samples() {
        // Samples on the quantization grid survive the i16 link bitwise.
        let signal = ramp(64);
        let stream = encode_stream(&signal, 16);
        let mut sync = FrameSync::new(16);
        let frames = collect_frames(&mut sync, &stream, usize::MAX);
        assert_eq!(frames.len(), 4);
        let decoded: Vec<f64> = frames.concat();
        assert_eq!(decoded, signal);
        let s = sync.stats();
        assert_eq!(s.frames_synced, 4);
        assert_eq!(s.sync_losses, 0);
        assert_eq!(s.bytes_skipped, 0);
        assert!(s.locked);
    }

    #[test]
    fn chunking_invariant() {
        let signal = ramp(96);
        let mut stream = vec![0xAB, 0xCD]; // leading garbage before first ASM
        stream.extend(encode_stream(&signal, 24));
        let reference = {
            let mut sync = FrameSync::new(24);
            (collect_frames(&mut sync, &stream, usize::MAX), sync.stats())
        };
        for chunk in [1, 3, 7, 50] {
            let mut sync = FrameSync::new(24);
            let frames = collect_frames(&mut sync, &stream, chunk);
            assert_eq!((frames, sync.stats()), reference, "chunk={chunk}");
        }
        assert_eq!(reference.1.bytes_skipped, 2);

        // 300 frames in a single push (the compaction must stay once per
        // push) against one push per frame, with garbage up front and a
        // marker-straddling tail left for the next push.
        let frame_len = 20;
        let frames = 300;
        let signal = ramp(frame_len * frames);
        let mut stream = vec![0x00, 0x1A, 0xCF];
        stream.extend(encode_stream(&signal, frame_len));
        stream.extend_from_slice(&ASM[..3]);
        let mut whole = FrameSync::new(frame_len);
        let got = collect_frames(&mut whole, &stream, usize::MAX);
        let frame_bytes = ASM.len() + 2 * frame_len;
        let mut per_frame = FrameSync::new(frame_len);
        let mut want = collect_frames(&mut per_frame, &stream[..3], usize::MAX);
        for c in stream[3..].chunks(frame_bytes) {
            per_frame.push(c, &mut |f| want.push(f));
        }
        assert_eq!(got.len(), frames);
        assert_eq!((got, whole.stats()), (want, per_frame.stats()));
        assert_eq!(whole.stats().bytes_skipped, 3);
        assert_eq!(whole.buf.len() - whole.pos, 3, "straddling marker bytes kept");
    }

    #[test]
    fn corrupted_marker_loses_one_frame_then_resyncs() {
        let signal = ramp(80);
        let mut stream = encode_stream(&signal, 16); // 5 frames
        let frame_bytes = 4 + 2 * 16;
        stream[2 * frame_bytes] ^= 0xFF; // kill frame 2's ASM byte 0
        let mut sync = FrameSync::new(16);
        let frames = collect_frames(&mut sync, &stream, 11);
        // Frames 0,1 then 3,4 decode; frame 2 is lost to the hunt.
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0], signal[..16].to_vec());
        assert_eq!(frames[2], signal[48..64].to_vec());
        let s = sync.stats();
        assert_eq!(s.sync_losses, 1);
        assert!(s.bytes_skipped >= frame_bytes as u64);
        assert!(s.locked);
    }
}
