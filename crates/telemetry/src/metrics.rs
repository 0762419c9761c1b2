//! The metrics registry: monotonic counters, high-water marks, and
//! power-of-two latency/size histograms.
//!
//! All primitives are relaxed atomics — safe to bump from any thread with
//! no locking — and every recording path starts with an `enabled` check in
//! the [`crate::Telemetry`] facade so the disabled configuration costs one
//! predictable branch.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` from a caller that serializes all bumps of this counter
    /// (e.g. the engine, which only touches its hot-path counters while
    /// holding its state lock). Load+store instead of a locked RMW —
    /// concurrent unserialized use loses increments (never UB).
    #[inline]
    pub fn add_serialized(&self, n: u64) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// [`Counter::add_serialized`] by one.
    #[inline]
    pub fn inc_serialized(&self) {
        self.add_serialized(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotone maximum (high-water mark).
#[derive(Debug, Default)]
pub struct HighWater(AtomicU64);

impl HighWater {
    /// Raises the mark to `v` if higher.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// [`HighWater::observe`] from a caller that serializes all
    /// observations (see [`Counter::add_serialized`]).
    #[inline]
    pub fn observe_serialized(&self, v: u64) {
        if v > self.0.load(Ordering::Relaxed) {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Current mark.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A log₂-bucketed histogram of latencies or sizes.
///
/// Bucket `i` counts values `v` with `⌊log₂(max(v,1))⌋ = i`, clamped to the
/// last bucket. Tracks count, sum, and max exactly.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: HighWater,
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = (63 - v.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.observe(v);
    }

    /// Records one value from a caller that serializes all records into
    /// this histogram (see [`Counter::add_serialized`]).
    #[inline]
    pub fn record_serialized(&self, v: u64) {
        let bucket = (63 - v.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        let b = &self.buckets[bucket];
        b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.sum
            .store(self.sum.load(Ordering::Relaxed) + v, Ordering::Relaxed);
        let m = self.max.get();
        if v > m {
            self.max.observe(v);
        }
    }

    /// Immutable snapshot of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.get(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts (`buckets[i]` ⇔ `⌊log₂ v⌋ = i`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Every metric the GPRS machinery exposes, by name.
///
/// The set mirrors the mechanism costs the paper's Figures 8–11 decompose:
/// ordering (grants), ROL management (occupancy), checkpointing (count and
/// bytes), WAL traffic, and recovery-session behaviour.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Sub-threads created (inserted into the total order).
    pub subthreads_created: Counter,
    /// Order-enforcer grants (≥ creations when squashed work re-executes).
    pub grants: Counter,
    /// Sub-threads retired from the ROL head.
    pub retired: Counter,
    /// Sub-threads squashed by recovery plans.
    pub squashed: Counter,
    /// Logical threads reinstated for re-execution.
    pub restarts: Counter,
    /// History-buffer checkpoints recorded.
    pub checkpoints: Counter,
    /// Bytes recorded into history-buffer checkpoints (simulator: modeled
    /// segment bytes; runtime: 0 — snapshot sizes are opaque).
    pub checkpoint_bytes: Counter,
    /// WAL records appended.
    pub wal_appends: Counter,
    /// WAL records consumed for undo during recovery.
    pub wal_undos: Counter,
    /// WAL records pruned at retirement.
    pub wal_prunes: Counter,
    /// WAL undo records never appended because the static restartability
    /// proof showed them dead (write-only cells whose value is never
    /// observed).
    pub wal_records_elided: Counter,
    /// Checkpoints never taken because the static restartability proof
    /// showed the boundary read-only (rewinding to it restores nothing).
    pub checkpoints_elided: Counter,
    /// Most WAL records outstanding at once.
    pub wal_outstanding_hw: HighWater,
    /// Most in-flight ROL entries at once.
    pub rol_occupancy_hw: HighWater,
    /// Recovery sessions (exceptions acted on).
    pub recovery_sessions: Counter,
    /// CPR barrier quiesces.
    pub cpr_barriers: Counter,
    /// CPR checkpoints recorded.
    pub cpr_records: Counter,
    /// CPR rollbacks.
    pub cpr_restores: Counter,
    /// Data races flagged by the happens-before detector.
    pub races_detected: Counter,
    /// Selective restarts widened to basic because the culprit's thread
    /// participated in a detected race.
    pub hybrid_escalations: Counter,
    /// Static analysis passes executed ahead of a run.
    pub analysis_runs: Counter,
    /// Shared cells classified by the static lockset pass.
    pub analysis_cells: Counter,
    /// Cells the static pass classified as potential races.
    pub analysis_potential_races: Counter,
    /// Diagnostics (all severities) emitted by the static pass.
    pub analysis_diagnostics: Counter,
    /// Runs where the proven-DRF verdict elided the dynamic race detector.
    pub analysis_racecheck_elided: Counter,
    /// Grants issued on the fast path: the granting worker reached the
    /// grant from its own deposit in the same lock acquisition, without a
    /// condvar sleep in between.
    pub fast_path_grants: Counter,
    /// Targeted wakeups issued (`notify_one` on the scheduler queue or a
    /// keyed lock-wait shard).
    pub wakeups_issued: Counter,
    /// Wakeups after which the woken thread found nothing to do and went
    /// back to sleep (thundering-herd / shard-collision waste).
    pub wakeups_spurious: Counter,
    /// Misses of the race detector's access-vector pool (a fresh `Vec` for
    /// a sub-thread's plain accesses); 0 whenever racecheck is off. It
    /// does **not** count the grant path's allocations — those are
    /// counted for real, by a `#[global_allocator]`, in
    /// `tests/alloc_budget.rs`.
    pub hot_path_allocs: Counter,
    /// Durable WAL segments sealed (fsync'd and closed) by the
    /// persistence backend.
    pub wal_segments_sealed: Counter,
    /// fsync (or equivalent durability barrier) calls issued by the
    /// persistence backend.
    pub fsyncs: Counter,
    /// Retired sub-threads re-verified against a durable retire prefix
    /// during a resumed (restart-as-recovery) run.
    pub recovered_prefix_len: Counter,
    /// Sub-threads squashed per recovery session.
    pub squashed_per_recovery: Histogram,
    /// Recovery-session wall time in nanoseconds (runtime) or cycles
    /// (simulator).
    pub recovery_duration: Histogram,
    /// Checkpoint sizes in bytes (simulator-modeled).
    pub checkpoint_size: Histogram,
    /// Consecutive ROL heads retired per retirement batch (per lock
    /// acquisition that retired at least one sub-thread).
    pub retire_batch: Histogram,
}

impl Metrics {
    /// Snapshot of all counters/high-waters as stable `(name, value)`
    /// pairs, in declaration order.
    pub fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("subthreads_created", self.subthreads_created.get()),
            ("grants", self.grants.get()),
            ("retired", self.retired.get()),
            ("squashed", self.squashed.get()),
            ("restarts", self.restarts.get()),
            ("checkpoints", self.checkpoints.get()),
            ("checkpoint_bytes", self.checkpoint_bytes.get()),
            ("wal_appends", self.wal_appends.get()),
            ("wal_undos", self.wal_undos.get()),
            ("wal_prunes", self.wal_prunes.get()),
            ("wal_records_elided", self.wal_records_elided.get()),
            ("checkpoints_elided", self.checkpoints_elided.get()),
            ("wal_outstanding_hw", self.wal_outstanding_hw.get()),
            ("rol_occupancy_hw", self.rol_occupancy_hw.get()),
            ("recovery_sessions", self.recovery_sessions.get()),
            ("cpr_barriers", self.cpr_barriers.get()),
            ("cpr_records", self.cpr_records.get()),
            ("cpr_restores", self.cpr_restores.get()),
            ("races_detected", self.races_detected.get()),
            ("hybrid_escalations", self.hybrid_escalations.get()),
            ("analysis_runs", self.analysis_runs.get()),
            ("analysis_cells", self.analysis_cells.get()),
            ("analysis_potential_races", self.analysis_potential_races.get()),
            ("analysis_diagnostics", self.analysis_diagnostics.get()),
            ("analysis_racecheck_elided", self.analysis_racecheck_elided.get()),
            ("fast_path_grants", self.fast_path_grants.get()),
            ("wakeups_issued", self.wakeups_issued.get()),
            ("wakeups_spurious", self.wakeups_spurious.get()),
            ("hot_path_allocs", self.hot_path_allocs.get()),
            ("wal_segments_sealed", self.wal_segments_sealed.get()),
            ("fsyncs", self.fsyncs.get()),
            ("recovered_prefix_len", self.recovered_prefix_len.get()),
        ]
    }

    /// Snapshot of all histograms as stable `(name, snapshot)` pairs.
    pub fn histogram_snapshot(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        vec![
            ("squashed_per_recovery", self.squashed_per_recovery.snapshot()),
            ("recovery_duration", self.recovery_duration.snapshot()),
            ("checkpoint_size", self.checkpoint_size.snapshot()),
            ("retire_batch", self.retire_batch.snapshot()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn high_water_is_monotone() {
        let h = HighWater::default();
        h.observe(3);
        h.observe(9);
        h.observe(5);
        assert_eq!(h.get(), 9);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1034);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets[0], 2); // 0 (clamped to 1) and 1
        assert_eq!(s.buckets[1], 2); // 2, 3
        assert_eq!(s.buckets[2], 1); // 4
        assert_eq!(s.buckets[10], 1); // 1024
        assert!((s.mean() - 1034.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn snapshots_have_stable_names() {
        let m = Metrics::default();
        m.grants.add(2);
        let names: Vec<&str> = m.counter_snapshot().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"grants"));
        assert!(names.contains(&"rol_occupancy_hw"));
        let snap = m.counter_snapshot();
        assert_eq!(snap.iter().find(|(n, _)| *n == "grants").unwrap().1, 2);
        assert!(names.contains(&"fast_path_grants"));
        assert!(names.contains(&"wakeups_spurious"));
        assert!(names.contains(&"hot_path_allocs"));
        assert_eq!(m.histogram_snapshot().len(), 4);
    }
}
