//! End-to-end protected pipeline: CRC guarding, frame sync, backpressure,
//! and the seeded fault campaign (proptest).
//!
//! The load-bearing property is the last one: under a composed campaign —
//! compute bit-flips inside the protected transforms, memory strikes on
//! CRC-guarded cold buffers, scripted stage panics — the delivered output
//! is **bitwise identical** to the fault-free run, across schemes, stages,
//! and planner thread counts. Corruption may be *detected and healed* or
//! the frame *dropped with accounting*; silently delivering wrong bits is
//! never an outcome (and the zero-quarantine assertion pins that the
//! ladder healed everything in these campaigns rather than dropping).

use ftfft::prelude::*;
use ftfft::stream::pipeline::sync::whiten;
use proptest::prelude::*;

fn spec(n: usize, scheme: Scheme, threads: usize) -> PlanSpec {
    PlanSpec::builder(n).scheme(scheme).threads(threads).build()
}

fn real_signal(len: usize, seed: u64) -> Vec<f64> {
    uniform_signal(len, seed).iter().map(|z| z.re * 0.5).collect()
}

/// Runs `stream` through a freshly built pipeline and returns the
/// delivered frames plus the report.
fn run(
    builder: PipelineBuilder,
    stream: &[u8],
    injector: &dyn FaultInjector,
    mem: &dyn ByteFaultInjector,
) -> (Vec<DeliveredFrame>, PipelineReport) {
    let mut p = builder.build();
    let mut sink = Vec::new();
    p.process(stream, injector, mem, &mut sink);
    (sink, p.report())
}

fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any single bit flip anywhere in a CRC-guarded f64 buffer is
    /// detected; the untouched buffer verifies.
    #[test]
    fn crc_detects_any_single_bit_flip(
        words in prop::collection::vec(-1.0e3f64..1.0e3, 1..64),
        word_pick in 0usize..64,
        bit in 0usize..64,
    ) {
        let clean = crc32_f64s(&words);
        prop_assert_eq!(clean, crc32_f64s(&words.clone()));
        let mut corrupted = words.clone();
        let w = word_pick % corrupted.len();
        corrupted[w] = f64::from_bits(corrupted[w].to_bits() ^ (1u64 << bit));
        prop_assert_ne!(crc32_f64s(&corrupted), clean);
    }

    /// The link-layer randomizer is a self-inverse whitening, whatever
    /// the payload.
    #[test]
    fn whitening_is_self_inverse(payload in prop::collection::vec(0u8..=255, 0..256)) {
        let mut buf = payload.clone();
        whiten(&mut buf);
        whiten(&mut buf);
        prop_assert_eq!(buf, payload);
    }

    /// A corrupted sync marker costs bounded frames (counted as sync
    /// losses), and the survivors are bitwise identical to the clean run.
    #[test]
    fn sync_chaos_is_counted_and_survivable(
        seed in 0u64..1000,
        victim in 1usize..7,
        flip in 0usize..32,
    ) {
        let n = 32usize;
        let frames = 8;
        let signal = real_signal(n * frames, seed);
        let stream = encode_stream(&signal, n);
        let s = spec(n, Scheme::OnlineMemOpt, 1);

        let (want, _) = run(PipelineBuilder::new(&s), &stream, &NoFaults, &NoByteFaults);
        prop_assert_eq!(want.len(), frames);

        // Corrupt one bit of one frame's 4-byte marker.
        let frame_bytes = 4 + 2 * n;
        let mut chaos = stream.clone();
        chaos[victim * frame_bytes + flip / 8] ^= 1 << (flip % 8);
        let (got, rep) = run(PipelineBuilder::new(&s), &chaos, &NoFaults, &NoByteFaults);

        prop_assert_eq!(rep.sync.sync_losses, 1);
        prop_assert!(got.len() >= frames - 2, "lost too much: {}", got.len());
        // Every delivered frame matches its clean counterpart bitwise
        // (seq numbers shift across the gap, so match by content order).
        let want_payloads: Vec<&Vec<f64>> = want.iter().map(|f| &f.samples).collect();
        for g in &got {
            prop_assert!(
                want_payloads.contains(&&g.samples),
                "delivered frame matches no clean frame"
            );
        }
    }

    /// Sustained overload degrades gracefully: bounded queue depth,
    /// counted drops, and full conservation of accepted frames.
    #[test]
    fn overload_sheds_load_with_conservation(
        seed in 0u64..1000,
        qcap in 2usize..6,
        rcap in 2usize..6,
    ) {
        let n = 32usize;
        let frames = 20;
        let stream = encode_stream(&real_signal(n * frames, seed), n);
        let mut p = PipelineBuilder::new(&spec(n, Scheme::Plain, 1))
            .queue_capacity(qcap)
            .ring_capacity(rcap)
            .build();
        // Ingest the whole burst at once, then drain with a paced sink:
        // deliver at most one frame per pump.
        p.push_bytes(&stream);
        let mut delivered = 0u64;
        loop {
            let pumped = p.pump(&NoFaults, &NoByteFaults);
            if p.pop_frame(&NoFaults).is_some() {
                delivered += 1;
            } else if !pumped {
                break;
            }
        }
        let rep = p.report();
        prop_assert_eq!(rep.sync.frames_synced, frames as u64);
        prop_assert_eq!(rep.ingest.accepted + rep.ingest.dropped, frames as u64);
        prop_assert!(rep.ingest.dropped > 0, "burst of {} must overflow cap {}", frames, qcap);
        prop_assert!(rep.ingest.high_water <= qcap as u64);
        prop_assert!(rep.cold.high_water <= rcap as u64);
        prop_assert_eq!(
            rep.sink.delivered + rep.transform.quarantined + rep.cold.quarantined,
            rep.ingest.accepted
        );
        prop_assert_eq!(rep.sink.delivered, delivered);
    }
}

proptest! {
    // The campaign runs full protected transforms per case; keep the case
    // count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The composed fault campaign: compute faults + cold-memory strikes
    /// + stage panics, and the sink is still bitwise identical to the
    /// fault-free run — across schemes, stage types, and thread counts.
    #[test]
    fn campaign_output_is_bitwise_identical(
        seed in 0u64..10_000,
        scheme in prop::sample::select(vec![Scheme::OnlineCompOpt, Scheme::OnlineMemOpt]),
        fir in prop::sample::select(vec![false, true]),
        threads in 1usize..3,
    ) {
        let n = 64usize;
        let frames = 10;
        let s = spec(n, scheme, threads);
        let taps = [0.5, 0.25, -0.125, 0.0625];
        let build = || {
            let b = PipelineBuilder::new(&s);
            if fir { b.fir(&taps) } else { b.spectral_gate(0.0) }
        };
        let frame_len = build().build().frame_len();
        let stream = encode_stream(&real_signal(frame_len * frames, seed), frame_len);

        let (want, clean_rep) = run(build(), &stream, &NoFaults, &NoByteFaults);
        prop_assert_eq!(want.len(), frames);
        prop_assert!(clean_rep.is_clean());

        // Compute faults: exponent-range bit flips (always detectable) at
        // sub-FFT compute sites (always bitwise-correctable by recompute).
        let comp = RandomInjector::new(
            seed ^ 0xC0FFEE,
            0.05,
            RandomKind::BitFlipInRange { lo: 52, hi: 62 },
            6,
        )
        .with_site_filter(|site| matches!(site, Site::SubFftCompute { .. }));
        // Stage panics at scripted callback occurrences.
        let chaos = PanicInjector::new(
            comp,
            vec![PanicPoint::any(3), PanicPoint::any(700), PanicPoint::any(2100)],
        );
        // Single-word memory strikes on the CRC-guarded cold outputs only:
        // each is located by the slot's XOR parity and healed in place.
        let mem = RandomByteInjector::new(seed ^ 0xDEAD, 0.4, ByteFaultKind::BitFlip, 4)
            .with_region_filter(|r| matches!(r, ByteRegion::ColdSlot { .. }));

        let (got, rep) = quiet_panics(|| run(build(), &stream, &chaos, &mem));

        // Bitwise identity of the delivered stream, fault-free vs campaign.
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.seq, w.seq);
            let gb: Vec<u64> = g.samples.iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u64> = w.samples.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(gb, wb, "frame {} diverged", g.seq);
        }

        // Accounting: nothing dropped, every cold strike detected and
        // healed in place (none needed a recompute), every caught panic
        // retried into success.
        prop_assert_eq!(rep.dropped(), 0, "{:?}", rep);
        let mem_fired = mem.fired() as u64;
        prop_assert_eq!(rep.cold.crc_detected, mem_fired);
        prop_assert_eq!(rep.cold.corrected, mem_fired);
        prop_assert_eq!(rep.cold.recomputed, 0);
        prop_assert_eq!(rep.sink.recovered, mem_fired);
        prop_assert_eq!(rep.transform.panics_caught, rep.transform.retries);
        prop_assert!(chaos.panics_fired() >= 1, "campaign fired no panic");
    }
}
