//! Merged per-stage telemetry for the protected pipeline.

use ftfft_core::FtReport;

/// Frame-synchronizer accounting (ingress edge of the pipeline).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Raw bytes consumed from the downlink.
    pub bytes_in: u64,
    /// Bytes discarded while hunting for a sync marker.
    pub bytes_skipped: u64,
    /// Frames successfully synchronized and decoded.
    pub frames_synced: u64,
    /// Times an expected sync marker was absent (lock lost, re-search).
    pub sync_losses: u64,
    /// Whether the synchronizer currently holds frame lock.
    pub locked: bool,
}

/// Bounded inter-stage queue accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Maximum frames the queue holds before shedding load.
    pub capacity: u64,
    /// Frames accepted into the queue.
    pub accepted: u64,
    /// Frames shed at the full queue (graceful degradation, counted —
    /// never silent).
    pub dropped: u64,
    /// Deepest occupancy observed.
    pub high_water: u64,
}

/// Protected-transform stage accounting, including the escalation ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransformStats {
    /// Frames transformed successfully (first try or after retries).
    pub processed: u64,
    /// Stage panics caught by the supervisor.
    pub panics_caught: u64,
    /// Bounded recompute retries after a caught panic.
    pub retries: u64,
    /// Frames that exhausted the retry budget and were quarantined.
    pub quarantined: u64,
    /// Merged ABFT report of every protected transform execution.
    pub ft: FtReport,
}

/// CRC-guarded cold ring accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColdStats {
    /// Ring capacity in frames.
    pub capacity: u64,
    /// Frames sealed into the ring.
    pub stored: u64,
    /// Deepest residency observed.
    pub high_water: u64,
    /// CRC verifications performed at delivery.
    pub crc_checks: u64,
    /// Output-word corruptions detected by CRC.
    pub crc_detected: u64,
    /// Retained-input corruptions detected by CRC (recompute source lost).
    pub retention_detected: u64,
    /// Frames healed in place after CRC detection: the XOR parity located
    /// one struck output word, and the re-sealed CRC verified the fix.
    pub corrected: u64,
    /// Frames recomputed bitwise from retained input after CRC detection
    /// (strikes the parity could not place).
    pub recomputed: u64,
    /// Frames quarantined because both output and retained input were bad
    /// (or recompute kept failing).
    pub quarantined: u64,
}

/// Sink-edge accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Frames delivered downstream.
    pub delivered: u64,
    /// Delivered frames that went through a recovery path first.
    pub recovered: u64,
    /// Samples delivered downstream.
    pub samples_out: u64,
}

/// End-to-end pipeline telemetry: one section per stage, merged counters
/// with the same saturating discipline as [`StreamReport`](crate::StreamReport).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineReport {
    /// Frame synchronizer (ingress).
    pub sync: SyncStats,
    /// Bounded ingest queue between sync and transform.
    pub ingest: QueueStats,
    /// Protected transform stage.
    pub transform: TransformStats,
    /// CRC-guarded cold ring between transform and sink.
    pub cold: ColdStats,
    /// Delivery edge.
    pub sink: SinkStats,
}

impl PipelineReport {
    /// Total faults detected anywhere in the pipeline: ABFT detections
    /// inside the transforms plus CRC detections on cold data.
    pub fn detected(&self) -> u64 {
        self.transform.ft.total_detected() as u64
            + self.cold.crc_detected
            + self.cold.retention_detected
    }

    /// Total faults corrected: ABFT repairs/recomputes inside the
    /// transforms plus cold frames healed in place or recomputed bitwise
    /// from retained input.
    pub fn corrected(&self) -> u64 {
        self.transform.ft.total_corrected() as u64 + self.cold.corrected + self.cold.recomputed
    }

    /// Frames lost anywhere — shed at the ingest queue or quarantined by
    /// the transform/cold stages. Always counted, never silent.
    pub fn dropped(&self) -> u64 {
        self.ingest.dropped + self.transform.quarantined + self.cold.quarantined
    }

    /// `true` when the pipeline saw no fault, panic, drop, or sync loss.
    pub fn is_clean(&self) -> bool {
        self.detected() == 0
            && self.transform.panics_caught == 0
            && self.dropped() == 0
            && self.sync.sync_losses == 0
    }

    /// Renders the report as flat JSON — one level of `"key": number`
    /// pairs with dotted paths, the convention `ftfft-bench`'s
    /// `parse_flat_json_numbers` consumes. `sync.locked` is encoded as
    /// `0`/`1` (the flat format carries only numbers).
    pub fn to_flat_json(&self) -> String {
        let (s, q, t, c, k) = (&self.sync, &self.ingest, &self.transform, &self.cold, &self.sink);
        let ft = &t.ft;
        format!(
            "{{\n  \"sync.bytes_in\": {},\n  \"sync.bytes_skipped\": {},\n  \
             \"sync.frames_synced\": {},\n  \"sync.sync_losses\": {},\n  \"sync.locked\": {},\n  \
             \"ingest.capacity\": {},\n  \"ingest.accepted\": {},\n  \"ingest.dropped\": {},\n  \
             \"ingest.high_water\": {},\n  \"transform.processed\": {},\n  \
             \"transform.panics_caught\": {},\n  \"transform.retries\": {},\n  \
             \"transform.quarantined\": {},\n  \"transform.ft.checks\": {},\n  \
             \"transform.ft.comp_detected\": {},\n  \"transform.ft.mem_detected\": {},\n  \
             \"transform.ft.mem_corrected\": {},\n  \"transform.ft.dmr_votes\": {},\n  \
             \"transform.ft.subfft_recomputed\": {},\n  \"transform.ft.full_recomputed\": {},\n  \
             \"transform.ft.comm_corrected\": {},\n  \"transform.ft.uncorrectable\": {},\n  \
             \"cold.capacity\": {},\n  \"cold.stored\": {},\n  \"cold.high_water\": {},\n  \
             \"cold.crc_checks\": {},\n  \"cold.crc_detected\": {},\n  \
             \"cold.retention_detected\": {},\n  \"cold.corrected\": {},\n  \
             \"cold.recomputed\": {},\n  \
             \"cold.quarantined\": {},\n  \"sink.delivered\": {},\n  \"sink.recovered\": {},\n  \
             \"sink.samples_out\": {},\n  \"detected\": {},\n  \"corrected\": {},\n  \
             \"dropped\": {}\n}}\n",
            s.bytes_in,
            s.bytes_skipped,
            s.frames_synced,
            s.sync_losses,
            s.locked as u8,
            q.capacity,
            q.accepted,
            q.dropped,
            q.high_water,
            t.processed,
            t.panics_caught,
            t.retries,
            t.quarantined,
            ft.checks,
            ft.comp_detected,
            ft.mem_detected,
            ft.mem_corrected,
            ft.dmr_votes,
            ft.subfft_recomputed,
            ft.full_recomputed,
            ft.comm_corrected,
            ft.uncorrectable,
            c.capacity,
            c.stored,
            c.high_water,
            c.crc_checks,
            c.crc_detected,
            c.retention_detected,
            c.corrected,
            c.recomputed,
            c.quarantined,
            k.delivered,
            k.recovered,
            k.samples_out,
            self.detected(),
            self.corrected(),
            self.dropped(),
        )
    }

    /// Folds another report into this one (saturating, like
    /// [`FtReport::merge`]).
    pub fn merge(&mut self, other: &PipelineReport) {
        let s = &mut self.sync;
        s.bytes_in = s.bytes_in.saturating_add(other.sync.bytes_in);
        s.bytes_skipped = s.bytes_skipped.saturating_add(other.sync.bytes_skipped);
        s.frames_synced = s.frames_synced.saturating_add(other.sync.frames_synced);
        s.sync_losses = s.sync_losses.saturating_add(other.sync.sync_losses);
        s.locked = other.sync.locked;

        let q = &mut self.ingest;
        q.capacity = q.capacity.max(other.ingest.capacity);
        q.accepted = q.accepted.saturating_add(other.ingest.accepted);
        q.dropped = q.dropped.saturating_add(other.ingest.dropped);
        q.high_water = q.high_water.max(other.ingest.high_water);

        let t = &mut self.transform;
        t.processed = t.processed.saturating_add(other.transform.processed);
        t.panics_caught = t.panics_caught.saturating_add(other.transform.panics_caught);
        t.retries = t.retries.saturating_add(other.transform.retries);
        t.quarantined = t.quarantined.saturating_add(other.transform.quarantined);
        t.ft.merge(&other.transform.ft);

        let c = &mut self.cold;
        c.capacity = c.capacity.max(other.cold.capacity);
        c.stored = c.stored.saturating_add(other.cold.stored);
        c.high_water = c.high_water.max(other.cold.high_water);
        c.crc_checks = c.crc_checks.saturating_add(other.cold.crc_checks);
        c.crc_detected = c.crc_detected.saturating_add(other.cold.crc_detected);
        c.retention_detected = c.retention_detected.saturating_add(other.cold.retention_detected);
        c.corrected = c.corrected.saturating_add(other.cold.corrected);
        c.recomputed = c.recomputed.saturating_add(other.cold.recomputed);
        c.quarantined = c.quarantined.saturating_add(other.cold.quarantined);

        let k = &mut self.sink;
        k.delivered = k.delivered.saturating_add(other.sink.delivered);
        k.recovered = k.recovered.saturating_add(other.sink.recovered);
        k.samples_out = k.samples_out.saturating_add(other.sink.samples_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollups_and_merge() {
        let mut a = PipelineReport::default();
        a.transform.ft.comp_detected = 2;
        a.transform.ft.subfft_recomputed = 2;
        a.cold.crc_detected = 3;
        a.cold.corrected = 2;
        a.cold.recomputed = 1;
        a.ingest.dropped = 1;
        assert_eq!(a.detected(), 5);
        assert_eq!(a.corrected(), 5);
        assert_eq!(a.dropped(), 1);
        assert!(!a.is_clean());

        let mut b = PipelineReport::default();
        b.cold.retention_detected = 1;
        b.cold.quarantined = 1;
        b.ingest.high_water = 9;
        b.transform.panics_caught = 4;
        b.cold.crc_detected = 1;
        b.cold.corrected = 1;
        a.merge(&b);
        assert_eq!(a.detected(), 7);
        assert_eq!(a.corrected(), 6);
        assert_eq!(a.cold.corrected, 3);
        assert_eq!(a.dropped(), 2);
        assert_eq!(a.ingest.high_water, 9);
        assert_eq!(a.transform.panics_caught, 4);
        assert!(PipelineReport::default().is_clean());
    }

    #[test]
    fn flat_json_is_one_level_and_carries_the_rollups() {
        let mut r = PipelineReport::default();
        r.sync.frames_synced = 7;
        r.sync.locked = true;
        r.transform.ft.comp_detected = 2;
        r.transform.ft.subfft_recomputed = 2;
        r.ingest.dropped = 1;
        r.cold.corrected = 4;
        let json = r.to_flat_json();
        assert!(json.contains("\"sync.frames_synced\": 7"));
        assert!(json.contains("\"sync.locked\": 1"));
        assert!(json.contains("\"transform.ft.comp_detected\": 2"));
        assert!(json.contains("\"detected\": 2"));
        assert!(json.contains("\"cold.corrected\": 4"));
        assert!(json.contains("\"corrected\": 6"));
        assert!(json.contains("\"dropped\": 1"));
        assert_eq!(json.matches('{').count(), 1);
        assert_eq!(json.matches('}').count(), 1);
    }
}
