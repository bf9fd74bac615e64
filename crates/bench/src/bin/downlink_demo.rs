//! Simulated noisy-downlink demo of the end-to-end protected pipeline.
//!
//! Drives [`ProtectedPipeline`] through four phases and asserts the
//! robustness contract of each:
//!
//! 1. **Reference** — fault-free run over the encoded downlink stream;
//! 2. **Chaos campaign** — a seeded ≥100-event composition of compute
//!    bit-flips (inside the protected transforms), memory bit-flips on
//!    CRC-guarded cold buffers, and scripted stage panics. The delivered
//!    output must be **bitwise identical** to phase 1, with every cold
//!    strike CRC-detected and healed and zero frames dropped;
//! 3. **Overload** — the same stream as one burst against tiny queue/ring
//!    bounds with a paced sink: graceful degradation, i.e. bounded depth,
//!    counted drops, and exact conservation of accepted frames;
//! 4. **Sync chaos** — corrupted sync markers in the raw byte stream:
//!    counted sync losses, bounded frame loss, survivors bitwise clean.
//!
//! ```text
//! cargo run -p ftfft-bench --release --bin downlink_demo -- \
//!     [--smoke] [--log2n K] [--frames N] [--seed S]
//! ```

use ftfft::prelude::*;
use ftfft_bench::Args;

fn real_signal(len: usize, seed: u64) -> Vec<f64> {
    uniform_signal(len, seed).iter().map(|z| z.re * 0.5).collect()
}

fn build(spec: &PlanSpec, queue: usize, ring: usize) -> ProtectedPipeline {
    let p = PipelineBuilder::new(spec)
        .spectral_gate(0.01)
        .queue_capacity(queue)
        .ring_capacity(ring)
        .build();
    // The demo dumps each phase's trail itself at phase end; the mid-run
    // autodump (first panic/quarantine) would interleave with the phase
    // narration.
    p.recorder().set_autodump(false);
    p
}

fn run(
    pipeline: &mut ProtectedPipeline,
    stream: &[u8],
    injector: &dyn FaultInjector,
    mem: &dyn ByteFaultInjector,
) -> Vec<DeliveredFrame> {
    let mut sink = Vec::new();
    pipeline.process(stream, injector, mem, &mut sink);
    sink
}

/// Dumps a phase's flight-recorder trail and asserts the recorded event
/// totals reconcile *exactly* with the pipeline report: every detected,
/// corrected, and dropped frame the report counts must have left an
/// event, and vice versa. Skipped when recording is off (`FTFFT_OBS=off`
/// or the `no-obs` feature): nothing records, so there is nothing to
/// reconcile — the bitwise asserts still run either way.
fn reconcile_recorder(label: &str, pipeline: &ProtectedPipeline, rep: &PipelineReport) {
    if !ftfft::obs::enabled() {
        return;
    }
    let rec = pipeline.recorder();
    println!("  {label} flight recorder trail:");
    // Rendered from `trail()` without the wall-clock column: the demo's
    // output is byte-identical across runs by contract, and monotonic
    // timestamps are the one nondeterministic field (`dump()` keeps them
    // for real post-mortems).
    println!(
        "    flight recorder: {} events recorded, trail holds {} (capacity {})",
        rec.events_recorded(),
        rec.len(),
        rec.capacity()
    );
    print!("    totals:");
    for kind in EventKind::ALL {
        print!(" {}={}", kind.name(), rec.total(kind));
    }
    println!();
    for ev in rec.trail() {
        println!(
            "    #{:<6} {:<15} count={} detail={}",
            ev.seq,
            ev.kind.name(),
            ev.count,
            ev.detail
        );
    }
    assert_eq!(
        rec.total(EventKind::FaultDetected),
        rep.detected(),
        "{label}: fault_detected events must reconcile with the report"
    );
    assert_eq!(
        rec.total(EventKind::FaultCorrected),
        rep.corrected(),
        "{label}: fault_corrected events must reconcile with the report"
    );
    assert_eq!(
        rec.total(EventKind::Quarantine) + rec.total(EventKind::Shed),
        rep.dropped(),
        "{label}: quarantine+shed events must reconcile with dropped frames"
    );
    assert_eq!(rec.total(EventKind::SyncLoss), rep.sync.sync_losses, "{label}: sync losses");
    assert_eq!(rec.total(EventKind::Retry), rep.transform.retries, "{label}: retries");
    assert_eq!(
        rec.total(EventKind::WorkerPanic),
        rep.transform.panics_caught,
        "{label}: worker panics"
    );
}

fn assert_bitwise_identical(got: &[DeliveredFrame], want: &[DeliveredFrame]) {
    assert_eq!(got.len(), want.len(), "delivered frame count diverged");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.seq, w.seq, "sequence order diverged");
        let same = g.samples.len() == w.samples.len()
            && g.samples.iter().zip(&w.samples).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "frame {} is not bitwise identical to the fault-free run", g.seq);
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.has_flag("smoke");
    let log2n: usize = args.get("log2n").unwrap_or(if smoke { 8 } else { 9 });
    let n = 1usize << log2n;
    let frames: usize = args.get("frames").unwrap_or(if smoke { 96 } else { 256 });
    let seed: u64 = args.get("seed").unwrap_or(0xD0_11A7A);

    let spec = PlanSpec::builder(n).scheme(Scheme::OnlineMemOpt).build();
    let signal = real_signal(n * frames, seed);
    let stream = encode_stream(&signal, n);
    println!(
        "downlink_demo: n={n}, {frames} frames, {} bytes encoded, scheme {}, seed {seed:#x}",
        stream.len(),
        Scheme::OnlineMemOpt.name()
    );

    // ---- Phase 1: fault-free reference --------------------------------
    let mut clean = build(&spec, frames, frames);
    let want = run(&mut clean, &stream, &NoFaults, &NoByteFaults);
    assert_eq!(want.len(), frames, "clean run must deliver every frame");
    let clean_rep = clean.report();
    assert!(clean_rep.is_clean(), "clean run saw faults: {clean_rep:?}");
    if ftfft::obs::enabled() {
        assert_eq!(
            clean.recorder().events_recorded(),
            0,
            "a fault-free run must leave an empty flight-recorder trail"
        );
    }
    println!("phase 1 reference: {} frames delivered, report clean", want.len());

    // ---- Phase 2: seeded chaos campaign -------------------------------
    // Compute faults: exponent-range bit flips at sub-FFT compute sites —
    // always detectable by the checksum, always healed *bitwise* by
    // sub-FFT recompute.
    let comp = RandomInjector::new(
        seed ^ 0xC0FFEE,
        0.10,
        RandomKind::BitFlipInRange { lo: 52, hi: 62 },
        50,
    )
    .with_site_filter(|site| matches!(site, Site::SubFftCompute { .. }));
    // Stage panics at scripted injection-callback occurrences, spread
    // across the run.
    let panic_points: Vec<PanicPoint> = [5usize, 400, 1_500, 4_000, 9_000, 16_000, 25_000, 40_000]
        .iter()
        .map(|&occ| PanicPoint::any(occ))
        .collect();
    let scripted_panics = panic_points.len();
    let chaos = PanicInjector::new(comp, panic_points);
    // Single-word memory strikes on CRC-guarded cold outputs: the slot's
    // XOR parity locates each struck word and flips it back in place.
    let mem = RandomByteInjector::new(seed ^ 0xDEAD_BEEF, 0.6, ByteFaultKind::BitFlip, 50)
        .with_region_filter(|r| matches!(r, ByteRegion::ColdSlot { .. }));

    let mut campaign = build(&spec, frames, frames);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // injected panics are expected; keep the log quiet
    let got = run(&mut campaign, &stream, &chaos, &mem);
    std::panic::set_hook(prev_hook);
    let rep = campaign.report();

    let comp_fired = chaos.inner().fired();
    let mem_fired = mem.fired();
    let panics = rep.transform.panics_caught;
    let injected = comp_fired as u64 + mem_fired as u64 + panics;
    println!("phase 2 campaign:");
    println!("  injected : {injected} events ({comp_fired} compute faults, {mem_fired} cold-memory strikes, {panics} stage panics of {scripted_panics} scripted)");
    println!(
        "  detected : {} (ABFT {} + CRC {})",
        rep.detected(),
        rep.transform.ft.total_detected(),
        rep.cold.crc_detected
    );
    println!(
        "  corrected: {} (sub-FFT recompute {}, memory repair {}, cold frames healed in place {}, frame recompute {})",
        rep.corrected(),
        rep.transform.ft.subfft_recomputed,
        rep.transform.ft.mem_corrected,
        rep.cold.corrected,
        rep.cold.recomputed
    );
    println!("  retried  : {} panic-supervised re-runs", rep.transform.retries);
    println!(
        "  dropped  : {} (queue {}, transform quarantine {}, cold quarantine {})",
        rep.dropped(),
        rep.ingest.dropped,
        rep.transform.quarantined,
        rep.cold.quarantined
    );

    assert!(injected >= 100, "campaign too small: {injected} events (need >= 100)");
    assert_bitwise_identical(&got, &want);
    assert_eq!(rep.dropped(), 0, "campaign must heal, not drop: {rep:?}");
    assert_eq!(
        rep.cold.crc_detected, mem_fired as u64,
        "every cold strike must be CRC-detected, exactly"
    );
    assert_eq!(rep.cold.corrected, mem_fired as u64, "every cold strike must heal in place");
    assert_eq!(rep.cold.recomputed, 0);
    assert_eq!(rep.sink.recovered, mem_fired as u64);
    assert!(panics >= 1, "no scripted panic fired — campaign under-stressed");
    assert_eq!(rep.transform.panics_caught, rep.transform.retries);
    // Panicked attempts discard their in-flight report, so allow slack
    // proportional to the caught panics; the bitwise assert above is the
    // airtight check.
    assert!(
        rep.transform.ft.total_detected() as usize + 8 * panics as usize >= comp_fired,
        "compute detections {} implausibly low for {comp_fired} injected",
        rep.transform.ft.total_detected()
    );
    reconcile_recorder("phase 2", &campaign, &rep);
    println!("  output bitwise identical to reference: yes");

    // ---- Phase 3: sustained overload ----------------------------------
    // Feed one frame per tick against a sink that drains only every third
    // tick: the producer outruns the consumer 3:1, the ring backs up into
    // the queue, and the queue sheds the overflow — counted, never silent.
    let (qcap, rcap) = (8usize, 8usize);
    let frame_bytes = 4 + 2 * n;
    let mut overload = build(&spec, qcap, rcap);
    let mut delivered = 0u64;
    let mut tick = 0u64;
    for chunk in stream.chunks(frame_bytes) {
        overload.push_bytes(chunk);
        overload.pump(&NoFaults, &NoByteFaults);
        tick += 1;
        if tick.is_multiple_of(3) && overload.pop_frame(&NoFaults).is_some() {
            delivered += 1;
        }
    }
    // End of transmission: drain whatever the bounded stages still hold.
    loop {
        let pumped = overload.pump(&NoFaults, &NoByteFaults);
        let popped = overload.pop_frame(&NoFaults).is_some();
        if popped {
            delivered += 1;
        }
        if !pumped && !popped {
            break;
        }
    }
    let orep = overload.report();
    println!(
        "phase 3 overload: cap {qcap}/{rcap}, {} synced -> {} accepted, {} shed, \
         high-water {}/{} (queue/ring), {} delivered",
        orep.sync.frames_synced,
        orep.ingest.accepted,
        orep.ingest.dropped,
        orep.ingest.high_water,
        orep.cold.high_water,
        delivered
    );
    assert_eq!(orep.sync.frames_synced, frames as u64);
    assert!(orep.ingest.dropped > 0, "burst must overflow the bounded queue");
    assert_eq!(orep.ingest.accepted + orep.ingest.dropped, frames as u64);
    assert!(orep.ingest.high_water <= qcap as u64, "queue depth must stay bounded");
    assert!(orep.cold.high_water <= rcap as u64, "ring depth must stay bounded");
    assert_eq!(
        orep.sink.delivered + orep.transform.quarantined + orep.cold.quarantined,
        orep.ingest.accepted,
        "accepted frames must be conserved"
    );
    assert_eq!(orep.sink.delivered, delivered);
    reconcile_recorder("phase 3", &overload, &orep);

    // ---- Phase 4: sync-marker chaos -----------------------------------
    let victims = [frames / 3, 2 * frames / 3];
    let mut chaos_stream = stream.clone();
    for &v in &victims {
        chaos_stream[v * frame_bytes + 1] ^= 0x10; // one bit of each victim's ASM
    }
    let mut resync = build(&spec, frames, frames);
    let survivors = run(&mut resync, &chaos_stream, &NoFaults, &NoByteFaults);
    let srep = resync.report();
    println!(
        "phase 4 sync chaos: {} markers corrupted -> {} sync losses, {} bytes skipped, \
         {} of {frames} frames recovered",
        victims.len(),
        srep.sync.sync_losses,
        srep.sync.bytes_skipped,
        survivors.len()
    );
    assert_eq!(srep.sync.sync_losses, victims.len() as u64);
    assert!(survivors.len() >= frames - 2 * victims.len(), "resync lost too many frames");
    for s in &survivors {
        assert!(
            want.iter().any(|w| w.samples == s.samples),
            "a resynced frame matches no reference frame"
        );
    }
    reconcile_recorder("phase 4", &resync, &srep);

    println!(
        "downlink_demo: OK — {injected}-event campaign, zero undetected corruptions, \
         bitwise-identical corrected output, counted drops under overload"
    );
}
