//! End-to-end protected telemetry pipeline.
//!
//! Composes the streaming primitives into one ingress-to-sink chain in
//! which **no stage can corrupt silently and no stage can buffer
//! unboundedly**:
//!
//! ```text
//! bytes → FrameSync → BoundedQueue → FrameTransform → GuardedRing → sink
//!          (derand,     (backpressure:   (ABFT FFTs +     (CRC-32 on
//!           resync,      counted drops)   panic ladder)    cold data)
//!           counted)
//! ```
//!
//! Each stage has an explicit failure story, escalating only as far as
//! needed:
//!
//! 1. **ABFT correction** inside the protected transforms — compute
//!    faults are detected by checksum and healed by sub-FFT recompute,
//!    bitwise identical to the fault-free run;
//! 2. **bounded recompute retry** — a stage panic is caught
//!    ([`std::panic::catch_unwind`]) and the frame re-run up to
//!    `max_retries` times (stages are pure, so a successful retry is
//!    bitwise identical);
//! 3. **CRC detect + in-place parity repair** — corruption of *cold*
//!    frames waiting in the ring is caught at delivery by CRC-32; a
//!    single struck word is located by the slot's two-dimensional XOR
//!    parity and flipped back, and the frame ships only if its re-sealed
//!    CRC verifies;
//! 4. **bitwise recompute** — a cold strike the parity cannot place
//!    (several words, or a struck parity word) is healed by recomputing
//!    from the CRC-verified retained input;
//! 5. **quarantine with accounting** — a frame that exhausts the ladder
//!    is dropped and *counted* ([`PipelineReport::dropped`]); delivery of
//!    corrupt data is never an outcome.
//!
//! Overload degrades the same way: the ingest queue and cold ring are
//! bounded, excess frames are shed at the queue with counters, and
//! [`PipelineReport`] exposes depth high-water marks to prove it.

pub mod guard;
pub mod queue;
pub mod report;
pub mod stage;
pub mod sync;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ftfft_core::{FtReport, PlanSpec};
use ftfft_fault::bytes::ByteFaultInjector;
use ftfft_fault::FaultInjector;
use ftfft_obs::{EventKind, FlightRecorder, Timer};

use guard::{FrontVerdict, GuardedRing};
use queue::{BoundedQueue, PushOutcome};
use report::{PipelineReport, SinkStats, TransformStats};
use stage::{FirFilterStage, FrameTransform, StftDenoiseStage};
use sync::FrameSync;

/// One frame delivered by the sink edge.
#[derive(Clone, Debug, PartialEq)]
pub struct DeliveredFrame {
    /// Stream-order sequence number assigned at sync time.
    pub seq: u64,
    /// Processed output samples.
    pub samples: Vec<f64>,
    /// `true` when the frame went through a recovery path (CRC-detected
    /// corruption healed in place by the parity or by bitwise recompute)
    /// before delivery.
    pub recovered: bool,
}

enum StageSpec {
    Denoise { gate: f64 },
    Fir { taps: Vec<f64> },
    Custom(Box<dyn FrameTransform>),
}

/// Builder for [`ProtectedPipeline`]; `spec.n()` fixes the stage's FFT
/// size and `spec`'s scheme/threshold configuration flows into every
/// protected plan.
pub struct PipelineBuilder {
    spec: PlanSpec,
    stage: StageSpec,
    queue_capacity: usize,
    ring_capacity: usize,
    crc: bool,
    max_retries: usize,
}

impl PipelineBuilder {
    /// Starts a builder with the default stage (a pure protected STFT
    /// round trip: spectral gate 0), queue/ring capacity 64, CRC
    /// guarding on, and 3 recompute retries.
    pub fn new(spec: &PlanSpec) -> Self {
        PipelineBuilder {
            spec: *spec,
            stage: StageSpec::Denoise { gate: 0.0 },
            queue_capacity: 64,
            ring_capacity: 64,
            crc: true,
            max_retries: 3,
        }
    }

    /// Uses a spectral-gate denoise stage zeroing bins below `gate`.
    pub fn spectral_gate(mut self, gate: f64) -> Self {
        self.stage = StageSpec::Denoise { gate };
        self
    }

    /// Uses a protected FIR filter stage with the given taps.
    pub fn fir(mut self, taps: &[f64]) -> Self {
        self.stage = StageSpec::Fir { taps: taps.to_vec() };
        self
    }

    /// Uses a caller-provided transform stage.
    pub fn transform(mut self, stage: Box<dyn FrameTransform>) -> Self {
        self.stage = StageSpec::Custom(stage);
        self
    }

    /// Bounds the ingest queue (frames shed beyond this are counted).
    pub fn queue_capacity(mut self, frames: usize) -> Self {
        self.queue_capacity = frames;
        self
    }

    /// Bounds the cold ring (a full ring backpressures the transform).
    pub fn ring_capacity(mut self, frames: usize) -> Self {
        self.ring_capacity = frames;
        self
    }

    /// Enables/disables CRC-32 guarding of cold frames.
    pub fn crc(mut self, enabled: bool) -> Self {
        self.crc = enabled;
        self
    }

    /// Bounds the per-frame recompute retries after a caught panic.
    pub fn max_retries(mut self, retries: usize) -> Self {
        self.max_retries = retries;
        self
    }

    /// Builds the pipeline.
    pub fn build(self) -> ProtectedPipeline {
        let stage: Box<dyn FrameTransform> = match self.stage {
            StageSpec::Denoise { gate } => Box::new(StftDenoiseStage::new(&self.spec, gate)),
            StageSpec::Fir { taps } => Box::new(FirFilterStage::new(&self.spec, &taps)),
            StageSpec::Custom(stage) => stage,
        };
        let frame_len = stage.frame_len();
        let hist_len = stage.history_len();
        let out_len = stage.output_len();
        let reg = ftfft_obs::global();
        ProtectedPipeline {
            sync: FrameSync::new(frame_len),
            ingest: BoundedQueue::new(self.queue_capacity),
            cold: GuardedRing::new(self.ring_capacity, self.crc),
            history: vec![0.0; hist_len],
            hist_len,
            out_buf: vec![0.0; out_len],
            recompute_in: Vec::new(),
            stage,
            max_retries: self.max_retries,
            transform: TransformStats::default(),
            sink: SinkStats::default(),
            next_seq: 0,
            recorder: FlightRecorder::new(256),
            obs_sync: reg.histogram("ftfft_stream_sync_ns"),
            obs_transform: reg.histogram("ftfft_stream_transform_ns"),
            obs_deliver: reg.histogram("ftfft_stream_deliver_ns"),
        }
    }
}

struct SyncedFrame {
    seq: u64,
    /// `history_len() + frame_len()` samples — everything the (pure)
    /// stage needs, captured at sync time so recompute stays possible
    /// even after later frames advanced the history.
    data: Vec<f64>,
}

/// The composed pipeline. Drive it with
/// [`push_bytes`](ProtectedPipeline::push_bytes) (ingress),
/// [`pump`](ProtectedPipeline::pump) (one transform step) and
/// [`pop_frame`](ProtectedPipeline::pop_frame) (verified delivery) — or
/// let [`process`](ProtectedPipeline::process) run the loop to quiescence.
pub struct ProtectedPipeline {
    sync: FrameSync,
    ingest: BoundedQueue<SyncedFrame>,
    stage: Box<dyn FrameTransform>,
    cold: GuardedRing,
    /// Trailing `hist_len` decoded samples, advanced by *every* synced
    /// frame — a frame shed at the queue still moves the stream forward,
    /// so later frames see the right context.
    history: Vec<f64>,
    hist_len: usize,
    out_buf: Vec<f64>,
    recompute_in: Vec<f64>,
    max_retries: usize,
    transform: TransformStats,
    sink: SinkStats,
    next_seq: u64,
    /// Recovery-ladder trail; its lifetime totals reconcile exactly with
    /// [`PipelineReport`]'s detected/corrected/dropped rollups.
    recorder: FlightRecorder,
    obs_sync: Arc<ftfft_obs::Histogram>,
    obs_transform: Arc<ftfft_obs::Histogram>,
    obs_deliver: Arc<ftfft_obs::Histogram>,
}

impl ProtectedPipeline {
    /// Fresh samples per frame.
    pub fn frame_len(&self) -> usize {
        self.stage.frame_len()
    }

    /// Output samples per frame.
    pub fn output_len(&self) -> usize {
        self.stage.output_len()
    }

    /// Frames waiting in the ingest queue.
    pub fn pending(&self) -> usize {
        self.ingest.len()
    }

    /// Frames resident in the cold ring awaiting delivery.
    pub fn staged(&self) -> usize {
        self.cold.len()
    }

    /// Feeds raw downlink bytes through sync into the ingest queue.
    /// Returns the number of frames synchronized by this call (accepted
    /// *or* shed — shed frames still advance the stream history).
    pub fn push_bytes(&mut self, bytes: &[u8]) -> u64 {
        let timer = Timer::start();
        let losses_before = self.sync.stats().sync_losses;
        let mut synced = 0u64;
        let mut shed = 0u64;
        let mut first_shed_seq = 0u64;
        let history = &mut self.history;
        let hist_len = self.hist_len;
        let ingest = &mut self.ingest;
        let next_seq = &mut self.next_seq;
        self.sync.push(bytes, &mut |frame: Vec<f64>| {
            let data = if hist_len == 0 {
                frame
            } else {
                let mut data = Vec::with_capacity(hist_len + frame.len());
                data.extend_from_slice(history);
                data.extend_from_slice(&frame);
                history.clear();
                history.extend_from_slice(&data[data.len() - hist_len..]);
                data
            };
            let seq = *next_seq;
            *next_seq += 1;
            if ingest.push(SyncedFrame { seq, data }) == PushOutcome::Dropped {
                if shed == 0 {
                    first_shed_seq = seq;
                }
                shed += 1;
            }
            synced += 1;
        });
        self.recorder.record_n(EventKind::Shed, shed, first_shed_seq);
        let losses = self.sync.stats().sync_losses - losses_before;
        self.recorder.record_n(EventKind::SyncLoss, losses, *next_seq);
        timer.stop(&self.obs_sync);
        synced
    }

    /// Runs the stage under the panic ladder: retry up to `max_retries`
    /// times after a caught unwind. `Some(ft)` on success, `None` when
    /// the budget is exhausted (caller quarantines).
    #[allow(clippy::too_many_arguments)]
    fn apply_supervised(
        stage: &mut Box<dyn FrameTransform>,
        input: &[f64],
        out: &mut [f64],
        injector: &dyn FaultInjector,
        max_retries: usize,
        stats: &mut TransformStats,
        recorder: &FlightRecorder,
        seq: u64,
    ) -> Option<FtReport> {
        let mut attempt = 0;
        loop {
            let result = catch_unwind(AssertUnwindSafe(|| stage.apply(input, out, injector)));
            match result {
                Ok(ft) => return Some(ft),
                Err(_) => {
                    stats.panics_caught += 1;
                    recorder.record(EventKind::WorkerPanic, seq);
                    if attempt >= max_retries {
                        return None;
                    }
                    attempt += 1;
                    stats.retries += 1;
                    recorder.record(EventKind::Retry, seq);
                }
            }
        }
    }

    /// Transforms one queued frame into the cold ring. Returns `false`
    /// when there is nothing to do: the queue is empty, or the ring is
    /// full (backpressure — drain via [`pop_frame`](Self::pop_frame)
    /// first). After sealing a frame, `mem` gets one shot at the cold
    /// slot (the campaign's memory-strike hook; pass
    /// [`NoByteFaults`](ftfft_fault::NoByteFaults) in production).
    pub fn pump(&mut self, injector: &dyn FaultInjector, mem: &dyn ByteFaultInjector) -> bool {
        if self.cold.is_full() {
            return false;
        }
        let Some(frame) = self.ingest.pop() else {
            return false;
        };
        let timer = Timer::start();
        match Self::apply_supervised(
            &mut self.stage,
            &frame.data,
            &mut self.out_buf,
            injector,
            self.max_retries,
            &mut self.transform,
            &self.recorder,
            frame.seq,
        ) {
            Some(ft) => {
                self.record_ft_events(&ft, frame.seq);
                self.transform.ft.merge(&ft);
                self.transform.processed += 1;
                self.cold.store(frame.seq, frame.data, &self.out_buf);
                self.cold.corrupt_back(mem);
            }
            None => {
                self.transform.quarantined += 1;
                self.recorder.record(EventKind::Quarantine, frame.seq);
            }
        }
        timer.stop(&self.obs_transform);
        true
    }

    /// Mirrors one frame's ABFT tallies into the flight recorder (events
    /// with zero count are skipped, so clean frames record nothing).
    fn record_ft_events(&self, ft: &FtReport, seq: u64) {
        self.recorder.record_n(EventKind::FaultDetected, ft.total_detected() as u64, seq);
        self.recorder.record_n(EventKind::FaultCorrected, ft.total_corrected() as u64, seq);
    }

    /// Delivers the oldest verified frame, running the CRC recovery
    /// ladder as needed; `None` when the ring is empty (unrecoverable
    /// frames are quarantined internally and never surface).
    pub fn pop_frame(&mut self, injector: &dyn FaultInjector) -> Option<DeliveredFrame> {
        let timer = Timer::start();
        loop {
            let verdict = self.cold.verify_front()?;
            let front_seq = self.cold.front_seq().expect("verdict implies a front slot");
            match verdict {
                FrontVerdict::OutputOk => return Some(self.deliver_front(false, timer)),
                FrontVerdict::CorrectedInPlace => {
                    // One cold-slot CRC detection, healed by the parity.
                    self.recorder.record(EventKind::FaultDetected, front_seq);
                    self.recorder.record(EventKind::FaultCorrected, front_seq);
                    return Some(self.deliver_front(true, timer));
                }
                FrontVerdict::RecomputeFromInput => {
                    // One cold-slot CRC detection behind this verdict.
                    self.recorder.record(EventKind::FaultDetected, front_seq);
                    self.cold.front_input_to(&mut self.recompute_in);
                    let input = std::mem::take(&mut self.recompute_in);
                    let healed = Self::apply_supervised(
                        &mut self.stage,
                        &input,
                        &mut self.out_buf,
                        injector,
                        self.max_retries,
                        &mut self.transform,
                        &self.recorder,
                        front_seq,
                    );
                    self.recompute_in = input;
                    match healed {
                        Some(ft) => {
                            self.record_ft_events(&ft, front_seq);
                            self.transform.ft.merge(&ft);
                            self.cold.replace_front_output(&self.out_buf);
                            self.recorder.record(EventKind::FaultCorrected, front_seq);
                            return Some(self.deliver_front(true, timer));
                        }
                        None => {
                            self.cold.quarantine_front();
                            self.recorder.record(EventKind::Quarantine, front_seq);
                        }
                    }
                }
                FrontVerdict::Unrecoverable => {
                    // Output CRC *and* retained-input CRC both tripped.
                    self.recorder.record_n(EventKind::FaultDetected, 2, front_seq);
                    self.cold.quarantine_front();
                    self.recorder.record(EventKind::Quarantine, front_seq);
                }
            }
        }
    }

    /// Pops the verified front slot into a [`DeliveredFrame`], counting it
    /// at the sink.
    fn deliver_front(&mut self, recovered: bool, timer: Timer) -> DeliveredFrame {
        let (seq, samples) = self.cold.pop_front().expect("verified front");
        self.sink.delivered += 1;
        self.sink.recovered += u64::from(recovered);
        self.sink.samples_out += samples.len() as u64;
        timer.stop(&self.obs_deliver);
        DeliveredFrame { seq, samples, recovered }
    }

    /// Convenience driver: ingests `bytes`, then alternates pumping and
    /// delivering until the pipeline quiesces, appending every delivered
    /// frame to `sink` in stream order.
    pub fn process(
        &mut self,
        bytes: &[u8],
        injector: &dyn FaultInjector,
        mem: &dyn ByteFaultInjector,
        sink: &mut Vec<DeliveredFrame>,
    ) {
        self.push_bytes(bytes);
        loop {
            let mut progress = false;
            while self.pump(injector, mem) {
                progress = true;
            }
            while let Some(frame) = self.pop_frame(injector) {
                sink.push(frame);
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }

    /// The pipeline's fault flight recorder. Lifetime totals reconcile
    /// exactly with [`PipelineReport`]:
    /// `total(FaultDetected) == detected()`,
    /// `total(FaultCorrected) == corrected()`,
    /// `total(Quarantine) + total(Shed) == dropped()`,
    /// `total(SyncLoss) == sync.sync_losses`,
    /// `total(Retry) == transform.retries`, and
    /// `total(WorkerPanic) == transform.panics_caught` —
    /// whenever observability was enabled for the whole run.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Merged end-to-end telemetry snapshot.
    pub fn report(&self) -> PipelineReport {
        PipelineReport {
            sync: self.sync.stats(),
            ingest: self.ingest.stats(),
            transform: self.transform,
            cold: self.cold.stats(),
            sink: self.sink,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::encode_stream;
    use super::*;
    use ftfft_core::{FtConfig, Scheme};
    use ftfft_fault::bytes::{ByteRegion, RandomByteInjector};
    use ftfft_fault::{NoByteFaults, NoFaults, PanicInjector, PanicPoint};
    use ftfft_fft::Direction;
    use ftfft_numeric::uniform_signal;

    fn spec(n: usize, scheme: Scheme) -> PlanSpec {
        PlanSpec::from_config(n, Direction::Forward, FtConfig::new(scheme))
    }

    fn real_signal(len: usize, seed: u64) -> Vec<f64> {
        uniform_signal(len, seed).iter().map(|z| z.re * 0.5).collect()
    }

    /// Silences the global panic hook around `f`. Serialized: the hook is
    /// process-wide, and two tests swapping it concurrently would race.
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        static HOOK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn clean_run_delivers_every_frame_in_order() {
        let mut p = PipelineBuilder::new(&spec(64, Scheme::OnlineMemOpt)).build();
        let signal = real_signal(64 * 6, 1);
        let stream = encode_stream(&signal, 64);
        let mut sink = Vec::new();
        p.process(&stream, &NoFaults, &NoByteFaults, &mut sink);
        assert_eq!(sink.len(), 6);
        for (i, f) in sink.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert!(!f.recovered);
            assert_eq!(f.samples.len(), 64);
        }
        let rep = p.report();
        assert!(rep.is_clean(), "{rep:?}");
        assert_eq!(rep.sync.frames_synced, 6);
        assert_eq!(rep.sink.delivered, 6);
        assert_eq!(rep.cold.crc_checks, 6);
    }

    #[test]
    fn fir_pipeline_threads_history_across_frames() {
        // Same bits whether the stream arrives in one push or many: the
        // pipeline owns the FIR history, so chunking cannot skew it.
        let taps = [0.5, 0.25, -0.125];
        let build = || PipelineBuilder::new(&spec(32, Scheme::OnlineCompOpt)).fir(&taps).build();
        let mut p = build();
        let hop = p.frame_len();
        let signal = real_signal(hop * 7, 2);
        let stream = encode_stream(&signal, hop);
        let mut sink_a = Vec::new();
        p.process(&stream, &NoFaults, &NoByteFaults, &mut sink_a);
        assert_eq!(sink_a.len(), 7);

        let mut q = build();
        let mut sink_b = Vec::new();
        for chunk in stream.chunks(13) {
            q.process(chunk, &NoFaults, &NoByteFaults, &mut sink_b);
        }
        assert_eq!(sink_a, sink_b);
    }

    #[test]
    fn panic_ladder_retries_then_succeeds_bitwise() {
        let s = spec(64, Scheme::OnlineMemOpt);
        let signal = real_signal(64 * 4, 3);
        let stream = encode_stream(&signal, 64);

        let mut clean = PipelineBuilder::new(&s).build();
        let mut want = Vec::new();
        clean.process(&stream, &NoFaults, &NoByteFaults, &mut want);

        let mut p = PipelineBuilder::new(&s).build();
        let inj = PanicInjector::new(NoFaults, vec![PanicPoint::any(1), PanicPoint::any(40)]);
        let mut got = Vec::new();
        with_quiet_panics(|| p.process(&stream, &inj, &NoByteFaults, &mut got));

        assert!(inj.exhausted());
        let rep = p.report();
        assert_eq!(rep.transform.panics_caught, 2);
        assert!(rep.transform.retries >= 2);
        assert_eq!(rep.transform.quarantined, 0);
        // Recovered output is bitwise identical to the fault-free run.
        assert_eq!(want, got);
    }

    #[test]
    fn exhausted_retries_quarantine_with_accounting() {
        struct AlwaysPanic;
        impl FrameTransform for AlwaysPanic {
            fn frame_len(&self) -> usize {
                8
            }
            fn output_len(&self) -> usize {
                8
            }
            fn apply(&mut self, _: &[f64], _: &mut [f64], _: &dyn FaultInjector) -> FtReport {
                panic!("hopeless stage");
            }
        }
        let mut p = PipelineBuilder::new(&spec(8, Scheme::Plain))
            .transform(Box::new(AlwaysPanic))
            .max_retries(2)
            .build();
        let stream = encode_stream(&real_signal(8, 4), 8);
        let mut sink = Vec::new();
        with_quiet_panics(|| p.process(&stream, &NoFaults, &NoByteFaults, &mut sink));
        assert!(sink.is_empty());
        let rep = p.report();
        assert_eq!(rep.transform.quarantined, 1);
        assert_eq!(rep.transform.panics_caught, 3); // 1 try + 2 retries
        assert_eq!(rep.dropped(), 1);
    }

    /// Checks every flight-recorder lifetime total against the report's
    /// counters (the [`ProtectedPipeline::recorder`] contract). Valid
    /// only when observability was enabled for the whole run.
    fn assert_recorder_reconciles(p: &ProtectedPipeline) {
        if !ftfft_obs::enabled() {
            return;
        }
        let (rec, rep) = (p.recorder(), p.report());
        assert_eq!(rec.total(EventKind::FaultDetected), rep.detected());
        assert_eq!(rec.total(EventKind::FaultCorrected), rep.corrected());
        assert_eq!(rec.total(EventKind::Quarantine) + rec.total(EventKind::Shed), rep.dropped());
        assert_eq!(rec.total(EventKind::SyncLoss), rep.sync.sync_losses);
        assert_eq!(rec.total(EventKind::Retry), rep.transform.retries);
        assert_eq!(rec.total(EventKind::WorkerPanic), rep.transform.panics_caught);
    }

    /// Random single-word cold strikes (healed in place by the parity),
    /// plus two more output words on every fifth frame (beyond the parity:
    /// recompute) and a struck retained input on every seventh (harmless
    /// unless the parity cannot heal the output: then quarantine).
    struct LadderChaos(RandomByteInjector);

    impl ByteFaultInjector for LadderChaos {
        fn corrupt_words(&self, region: ByteRegion, words: &mut [f64]) -> usize {
            let scripted = match region {
                ByteRegion::ColdSlot { seq } => seq % 5 == 2,
                ByteRegion::Retention { seq } => seq % 7 == 3,
                ByteRegion::RawStream => false,
            };
            if scripted {
                for i in [1, 9] {
                    words[i] = f64::from_bits(words[i].to_bits() ^ (1 << 62));
                }
            }
            self.0.corrupt_words(region, words) + usize::from(scripted)
        }
    }

    #[test]
    fn flight_recorder_reconciles_under_chaos() {
        use ftfft_fault::bytes::ByteFaultKind;
        use ftfft_fault::{RandomInjector, RandomKind, Site};
        let mut p = PipelineBuilder::new(&spec(64, Scheme::OnlineMemOpt))
            .queue_capacity(3)
            .max_retries(1)
            .build();
        p.recorder().set_autodump(false);
        let signal = real_signal(64 * 24, 6);
        let stream = encode_stream(&signal, 64);
        let comp = RandomInjector::new(42, 0.10, RandomKind::BitFlipInRange { lo: 52, hi: 62 }, 8)
            .with_site_filter(|s| matches!(s, Site::SubFftCompute { .. }));
        let mem = LadderChaos(
            RandomByteInjector::new(99, 0.35, ByteFaultKind::BitFlip, 8)
                .with_region_filter(|r| matches!(r, ByteRegion::ColdSlot { .. })),
        );
        let panics = PanicInjector::new(comp, vec![PanicPoint::any(3)]);
        let mut sink = Vec::new();
        with_quiet_panics(|| {
            for chunk in stream.chunks(700) {
                p.process(chunk, &panics, &mem, &mut sink);
            }
        });
        let rep = p.report();
        assert!(rep.detected() > 0, "campaign must actually strike: {rep:?}");
        // Every rung of the cold ladder ran: in-place heal, recompute,
        // and quarantine.
        assert!(rep.cold.corrected > 0, "{rep:?}");
        assert!(rep.cold.recomputed > 0, "{rep:?}");
        assert!(rep.cold.quarantined > 0, "{rep:?}");
        assert_recorder_reconciles(&p);
        if ftfft_obs::enabled() {
            let trail = p.recorder().trail();
            assert!(!trail.is_empty());
            for pair in trail.windows(2) {
                assert!(pair[1].seq > pair[0].seq);
            }
        }
    }

    #[test]
    fn backpressure_sheds_load_with_full_accounting() {
        let mut p = PipelineBuilder::new(&spec(32, Scheme::Plain))
            .queue_capacity(2)
            .ring_capacity(2)
            .build();
        let signal = real_signal(32 * 12, 5);
        let stream = encode_stream(&signal, 32);
        // Ingest everything at once: queue cap 2 → 10 of 12 shed.
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
        assert_eq!(rep.sync.frames_synced, 12);
        assert_eq!(rep.ingest.accepted + rep.ingest.dropped, 12);
        assert!(rep.ingest.dropped > 0);
        assert!(rep.ingest.high_water <= rep.ingest.capacity);
        assert!(rep.cold.high_water <= rep.cold.capacity);
        assert_eq!(rep.sink.delivered, delivered);
        // Every accepted frame is accounted for: delivered, quarantined,
        // or still staged somewhere.
        assert_eq!(
            rep.sink.delivered
                + rep.transform.quarantined
                + rep.cold.quarantined
                + p.pending() as u64
                + p.staged() as u64,
            rep.ingest.accepted
        );
    }
}
