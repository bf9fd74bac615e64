//! `downlink_faults`: `ProtectedPipeline` (FrameSync → STFT denoise under
//! Opt-Online(m) → CRC ring → sink) on 2^12-sample frames under a seeded
//! fault campaign.
//!
//! Each frame is pushed, pumped and popped in turn. Every pass over the
//! seeded stream replays the same campaign: high-bit flips (bits 52–62)
//! at sub-FFT compute sites and bit flips in cold ring slots. No sync
//! marker is touched, so every fault is correctable and every delivered
//! frame must equal the fault-free run bit for bit.

use std::time::{Duration, Instant};

use ftfft::prelude::*;

use crate::stats::median;
use crate::sys::sub_seed;
use crate::trace::{SpanId, Tracer};
use crate::{Budget, Metric, Run, Verdict};

const LOG2N: usize = 12;
const N: usize = 1 << LOG2N;
/// Frames in one pass of the seeded stream.
const FRAMES: usize = 64;
const GATE: f64 = 0.01;
/// Every `COMP_EVERY`-th frame takes one compute strike, at a sub-FFT
/// visit drawn with probability `COMP_RATE` per visit (a 2^12 frame makes
/// about 190 visits, so a strike always lands).
const COMP_EVERY: usize = 2;
const COMP_RATE: f64 = 0.05;
/// Every `MEM_EVERY`-th frame (offset by one) takes one cold-slot strike.
const MEM_EVERY: usize = 4;

fn spec() -> PlanSpec {
    PlanSpec::builder(N).scheme(Scheme::OnlineMemOpt).threads(1).strategy(Strategy::Serial).build()
}

fn build() -> ProtectedPipeline {
    let p = PipelineBuilder::new(&spec())
        .spectral_gate(GATE)
        .queue_capacity(4)
        .ring_capacity(4)
        .build();
    p.recorder().set_autodump(false);
    p
}

/// The encoded downlink stream of one pass, one byte slice per frame.
fn stream(seed: u64) -> Vec<Vec<u8>> {
    let signal: Vec<f64> =
        uniform_signal(N * FRAMES, sub_seed(seed, 0)).iter().map(|z| z.re * 0.5).collect();
    encode_stream(&signal, N).chunks_exact(4 + 2 * N).map(<[u8]>::to_vec).collect()
}

/// The strikes aimed at frame `f` of a pass. The schedule fixes how many
/// faults a pass injects; the seed picks where they land and which bits
/// flip. Every pass rebuilds them from the same seed, so each pass
/// injects exactly the same faults.
struct FrameFaults {
    comp: RandomInjector,
    mem: RandomByteInjector,
}

impl FrameFaults {
    fn new(seed: u64, f: usize) -> FrameFaults {
        let comp_rate = if f.is_multiple_of(COMP_EVERY) { COMP_RATE } else { 0.0 };
        let mem_rate = if f % MEM_EVERY == 1 { 1.0 } else { 0.0 };
        FrameFaults {
            comp: RandomInjector::new(
                sub_seed(seed, 2 * f as u64 + 1),
                comp_rate,
                RandomKind::BitFlipInRange { lo: 52, hi: 62 },
                1,
            )
            .with_site_filter(|s| matches!(s, Site::SubFftCompute { .. })),
            mem: RandomByteInjector::new(
                sub_seed(seed, 2 * f as u64 + 2),
                mem_rate,
                ByteFaultKind::BitFlip,
                1,
            )
            .with_region_filter(|r| matches!(r, ByteRegion::ColdSlot { .. })),
        }
    }
}

/// Pipeline build plus the first frame through it.
fn set_up(first: &[u8]) -> ProtectedPipeline {
    let mut p = build();
    p.push_bytes(first);
    p.pump(&NoFaults, &NoByteFaults);
    p.pop_frame(&NoFaults).expect("first frame must be delivered");
    p
}

/// The fault-free pipeline's output for every frame of the pass.
fn reference(frames: &[Vec<u8>]) -> Vec<Vec<f64>> {
    let mut p = build();
    frames
        .iter()
        .map(|f| {
            p.push_bytes(f);
            p.pump(&NoFaults, &NoByteFaults);
            p.pop_frame(&NoFaults).expect("fault-free frame must be delivered").samples
        })
        .collect()
}

#[derive(Default)]
struct Loop {
    lat_ms: Vec<f32>,
    busy: Duration,
    attempted: u64,
    failed: u64,
    passes: u64,
    /// Faults injected by one pass (identical for every pass).
    per_pass: u64,
    comp_fired: u64,
    mem_fired: u64,
    sync_us: Vec<f64>,
    transform_us: Vec<f64>,
    deliver_us: Vec<f64>,
}

/// Whole passes until `secs` has elapsed. Each frame's check (bitwise
/// output, drops, uncorrectable count) runs after its span.
fn timed_loop(
    p: &mut ProtectedPipeline,
    frames: &[Vec<u8>],
    want: &[Vec<f64>],
    seed: u64,
    secs: f64,
    tracer: &mut Tracer,
) -> Result<Loop, String> {
    let mut l = Loop::default();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    while l.passes == 0 || Instant::now() < deadline {
        let (mut comp_fired, mut mem_fired) = (0u64, 0u64);
        for (f, bytes) in frames.iter().enumerate() {
            let c = FrameFaults::new(seed, f);
            let before = p.report();
            let op = l.attempted;
            let t0 = Instant::now();
            p.push_bytes(bytes);
            let t1 = Instant::now();
            p.pump(&c.comp, &c.mem);
            let t2 = Instant::now();
            let got = p.pop_frame(&c.comp);
            let t3 = Instant::now();
            if tracer.on() {
                let root = tracer.record("stream.frame", SpanId::NONE, op, t0, t3);
                tracer.record("stream.push_bytes", root, op, t0, t1);
                tracer.record("stream.pump", root, op, t1, t2);
                tracer.record("stream.pop_frame", root, op, t2, t3);
                l.sync_us.push((t1 - t0).as_secs_f64() * 1e6);
                l.transform_us.push((t2 - t1).as_secs_f64() * 1e6);
                l.deliver_us.push((t3 - t2).as_secs_f64() * 1e6);
            }
            l.busy += t3 - t0;
            l.lat_ms.push((t3 - t0).as_secs_f32() * 1e3);
            l.attempted += 1;
            let after = p.report();
            let bitwise = got.is_some_and(|g| {
                g.samples.len() == want[f].len()
                    && g.samples.iter().zip(&want[f]).all(|(a, b)| a.to_bits() == b.to_bits())
            });
            let ok = bitwise
                && after.dropped() == before.dropped()
                && after.transform.ft.uncorrectable == before.transform.ft.uncorrectable;
            l.failed += u64::from(!ok);
            comp_fired += c.comp.fired() as u64;
            mem_fired += c.mem.fired() as u64;
        }
        let injected = comp_fired + mem_fired;
        if injected == 0 {
            return Err("campaign injected no faults in a pass".into());
        }
        if l.passes > 0 && injected != l.per_pass {
            return Err(format!(
                "campaign injected {injected} faults in a pass, {} in the first",
                l.per_pass
            ));
        }
        l.per_pass = injected;
        l.comp_fired += comp_fired;
        l.mem_fired += mem_fired;
        l.passes += 1;
    }
    Ok(l)
}

pub fn run(seed: u64, budget: Budget, tracer: &mut Tracer) -> Result<Run, String> {
    let frames = stream(seed);
    let want = reference(&frames);
    let (setup_s, mut p) = budget.repeat_setup(|| set_up(&frames[0]));
    let mut off = Tracer::new(false);
    let warm = timed_loop(&mut p, &frames, &want, seed, budget.warmup_secs, &mut off)?;
    let mut verdict = Verdict { attempted: warm.attempted, failed: warm.failed };

    let mut untraced_ms = None;
    if tracer.on() {
        let l = timed_loop(&mut p, &frames, &want, seed, budget.e2e_secs, &mut off)?;
        verdict.add(l.attempted, l.failed);
        untraced_ms = Some(l.busy.as_secs_f64() * 1e3 / l.attempted as f64);
    }
    let before = p.report();
    let l = timed_loop(&mut p, &frames, &want, seed, budget.e2e_secs, tracer)?;
    let after = p.report();
    verdict.add(l.attempted, l.failed);

    let mut layers = Vec::new();
    if let Some(off_ms) = untraced_ms {
        let on_ms = l.busy.as_secs_f64() * 1e3 / l.attempted as f64;
        let ft = |r: &PipelineReport| r.transform.ft;
        let comp = l.comp_fired.max(1) as f64;
        layers.extend([
            Metric::new("bench.trace_overhead", on_ms - off_ms, "ms"),
            Metric::new("stream.sync_us", median(&l.sync_us), "us"),
            Metric::new("stream.transform_us", median(&l.transform_us), "us"),
            Metric::new("stream.deliver_us", median(&l.deliver_us), "us"),
            Metric::new(
                "core.recompute_per_fault",
                f64::from(ft(&after).subfft_recomputed - ft(&before).subfft_recomputed) / comp,
                "ratio",
            ),
            Metric::new(
                "core.detected_frac",
                f64::from(ft(&after).total_detected() - ft(&before).total_detected()) / comp,
                "fraction",
            ),
            Metric::new(
                "stream.healed_frac",
                (after.cold.recomputed - before.cold.recomputed) as f64 / l.mem_fired.max(1) as f64,
                "fraction",
            ),
            Metric::new("fault.injected_per_run", l.per_pass as f64, "count"),
        ]);
        layers.push(probe_crc(&want, budget.probe_secs, tracer));
    }
    Ok(Run {
        setup_s,
        lat_ms: l.lat_ms,
        completed: l.attempted,
        wall_s: l.busy.as_secs_f64(),
        verdict,
        layers,
        notes: vec![
            format!(
                "downlink_faults: n=2^{LOG2N}, {FRAMES} frames per pass, scheme {}, outputs compared bitwise with the fault-free run",
                Scheme::OnlineMemOpt.name()
            ),
            format!(
                "downlink_faults: {} faults injected per pass ({} passes: {} compute, {} cold-slot in total)",
                l.per_pass, l.passes, l.comp_fired, l.mem_fired
            ),
        ],
    })
}

/// CRC-32 throughput over one frame's output words (the size the cold
/// ring hashes), in GB/s.
fn probe_crc(frames: &[Vec<f64>], secs: f64, tracer: &mut Tracer) -> Metric {
    const REPS: usize = 64;
    let mut gbps = Vec::new();
    let mut acc = 0u32;
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    while gbps.len() < 5 || Instant::now() < deadline {
        let words = &frames[gbps.len() % frames.len()];
        let t0 = Instant::now();
        for _ in 0..REPS {
            acc ^= crc32_f64s(std::hint::black_box(words));
        }
        let t1 = Instant::now();
        tracer.record("checksum.crc", SpanId::NONE, gbps.len() as u64, t0, t1);
        gbps.push((REPS * words.len() * 8) as f64 / (t1 - t0).as_secs_f64() * 1e-9);
    }
    std::hint::black_box(acc);
    Metric::new("checksum.crc_gbps", median(&gbps), "GB/s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded() {
        let (a, b) = (stream(11), stream(11));
        assert_eq!(a, b);
        assert_ne!(a, stream(12));
        assert_eq!(a.len(), FRAMES);
        assert!(a.iter().all(|f| f.len() == 4 + 2 * N));
    }

    #[test]
    fn campaign_replays_identically() {
        // Two fresh campaigns from one seed inject the same faults into the
        // same frames; a pass over the stream hits at least one.
        let frames = stream(21);
        let want = reference(&frames[..8]);
        let mut counts = Vec::new();
        for _ in 0..2 {
            let mut p = build();
            let mut off = Tracer::new(false);
            let l = timed_loop(&mut p, &frames[..8], &want, 21, 0.0, &mut off)
                .expect("campaign must inject faults");
            assert_eq!(l.failed, 0);
            counts.push((l.per_pass, l.comp_fired, l.mem_fired));
        }
        assert_eq!(counts[0], counts[1]);
        assert!(counts[0].0 > 0);
    }
}
