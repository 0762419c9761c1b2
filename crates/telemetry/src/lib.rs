//! # gprs-telemetry
//!
//! Unified event tracing, metrics, and determinism verification for the
//! GPRS reproduction — shared by the real threaded runtime
//! (`gprs-runtime`) and the virtual-time simulator (`gprs-sim`).
//!
//! Three layers, all optional at run time via [`TelemetryConfig`]:
//!
//! 1. **Event tracing** ([`event`], [`ring`]) — structured [`TraceEvent`]s
//!    recorded into per-worker fixed-capacity rings with lock-free appends,
//!    merged post-run into one trace ordered by sequence number.
//! 2. **Determinism hashes** ([`hash`]) — a streaming [`ScheduleHash`] over
//!    the grant order (same seed ⇒ same digest) and a
//!    [`RetiredOrderHash`] over per-thread retirement sequences (a run
//!    that recovered from exceptions converges to the fault-free digest
//!    for order-faithful workloads). O(1) memory; replaces the old capped
//!    `grant_trace` vector.
//! 3. **Metrics** ([`metrics`]) — counters, high-water marks, and log₂
//!    histograms for the mechanism costs the paper's figures decompose.
//!
//! [`TelemetrySummary`] is the common end-of-run artifact embedded in
//! `gprs_runtime::RunReport` and `gprs_sim::result::SimResult`, exportable
//! as JSON ([`json`]) by the figure/table bench binaries.

pub mod event;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod spsc;

pub use event::{TimedEvent, TraceEvent};
pub use hash::{name_seed, Fnv1a, RetiredOrderHash, ScheduleHash};
pub use json::JsonWriter;
pub use metrics::{Counter, HighWater, Histogram, HistogramSnapshot, Metrics};
pub use ring::{EventRing, RingSet};

use std::sync::atomic::{AtomicU64, Ordering};

/// Run-time telemetry configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. Disabled telemetry records nothing and costs one
    /// branch per instrumentation point.
    pub enabled: bool,
    /// Capacity of each per-worker event ring (events; oldest overwritten
    /// when full).
    pub ring_capacity: usize,
    /// Opt-in bounded raw grant trace for debugging: keep the first `n`
    /// `(subthread, thread)` grants verbatim alongside the streaming hash.
    /// 0 (the default) keeps none.
    pub raw_trace_cap: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            ring_capacity: 4096,
            raw_trace_cap: 0,
        }
    }
}

impl TelemetryConfig {
    /// A configuration that records nothing.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            ring_capacity: 0,
            raw_trace_cap: 0,
        }
    }
}

/// The shared recording facade: event rings + metrics registry.
///
/// Cheap to share behind an `Arc`; every mutation path is lock-free. The
/// determinism hashes are *not* part of this type — they are owned by the
/// engine's serialized state (the grant path already runs under the
/// engine's ordering discipline), see [`ScheduleHash`] /
/// [`RetiredOrderHash`].
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    seq: AtomicU64,
    rings: Option<RingSet>,
    /// The metrics registry (bump only behind an [`Telemetry::enabled`]
    /// check to keep the disabled path free).
    pub metrics: Metrics,
}

impl Telemetry {
    /// Creates a facade for `workers` worker threads (one ring each plus
    /// one for external threads).
    pub fn new(cfg: &TelemetryConfig, workers: usize) -> Self {
        Telemetry {
            enabled: cfg.enabled,
            seq: AtomicU64::new(0),
            rings: cfg
                .enabled
                .then(|| RingSet::new(workers, cfg.ring_capacity)),
            metrics: Metrics::default(),
        }
    }

    /// A no-op facade.
    pub fn disabled() -> Self {
        Self::new(&TelemetryConfig::disabled(), 0)
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event from `worker` (out-of-range worker indices route
    /// to the external ring). No-op when disabled.
    #[inline]
    pub fn record(&self, worker: usize, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(rings) = &self.rings {
            // Load+store, not `fetch_add`: recording is serialized by the
            // integrating runtime (the rings' single-writer contract — see
            // `ring` module docs), so the locked RMW would buy nothing and
            // costs measurably on the per-grant hot path.
            let seq = self.seq.load(Ordering::Relaxed);
            self.seq.store(seq + 1, Ordering::Relaxed);
            rings.ring(worker).push(TimedEvent {
                seq,
                worker: worker as u32,
                event,
            });
        }
    }

    /// Events lost to ring wrapping.
    pub fn dropped_events(&self) -> u64 {
        self.rings.as_ref().map_or(0, |r| r.dropped())
    }

    /// Merges all rings into one trace ordered by sequence number.
    /// Requires writer quiescence (run finished / workers joined) — see
    /// [`ring`] docs.
    pub fn drain_events(&self) -> Vec<TimedEvent> {
        self.rings.as_ref().map_or_else(Vec::new, |r| r.drain())
    }

    /// Assembles the end-of-run summary from this facade plus the
    /// engine-owned hashes and optional raw grant trace.
    pub fn summarize(
        &self,
        schedule: &ScheduleHash,
        retired: &RetiredOrderHash,
        raw_grant_trace: Vec<(u64, u32)>,
    ) -> TelemetrySummary {
        TelemetrySummary {
            enabled: self.enabled,
            schedule_hash: schedule.digest(),
            schedule_grants: schedule.grants(),
            retired_hash: retired.digest(),
            retired_count: retired.retirements(),
            counters: self.metrics.counter_snapshot(),
            histograms: self.metrics.histogram_snapshot(),
            events: self.drain_events(),
            dropped_events: self.dropped_events(),
            raw_grant_trace,
        }
    }
}

/// The end-of-run telemetry artifact embedded in run reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Whether telemetry was enabled for the run (all other fields are
    /// zero/empty when not).
    pub enabled: bool,
    /// Streaming FNV-1a digest of the grant order.
    pub schedule_hash: u64,
    /// Grants folded into `schedule_hash`.
    pub schedule_grants: u64,
    /// Interleaving-invariant digest of per-thread retirement sequences.
    pub retired_hash: u64,
    /// Retirements folded into `retired_hash`.
    pub retired_count: u64,
    /// Counter/high-water values, in stable declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram snapshots, in stable declaration order.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// The drained event trace (bounded by ring capacity), ascending in
    /// `seq`. A sharded report's trace is domain-major instead: each
    /// domain's facade numbers `seq` from 0, and the domains' traces follow
    /// one another in domain order, each slice ascending in `seq`.
    pub events: Vec<TimedEvent>,
    /// Events lost to ring wrapping.
    pub dropped_events: u64,
    /// Opt-in bounded raw grant trace (`(subthread, thread)`), empty unless
    /// `raw_trace_cap > 0`.
    pub raw_grant_trace: Vec<(u64, u32)>,
}

impl TelemetrySummary {
    /// Looks up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Writes this summary as a JSON object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("enabled").bool(self.enabled);
        w.field_hex("schedule_hash", self.schedule_hash);
        w.field_u64("schedule_grants", self.schedule_grants);
        w.field_hex("retired_hash", self.retired_hash);
        w.field_u64("retired_count", self.retired_count);
        w.key("counters").begin_object();
        for (name, v) in &self.counters {
            w.field_u64(name, *v);
        }
        w.end_object();
        w.key("histograms").begin_object();
        for (name, h) in &self.histograms {
            w.key(name).begin_object();
            w.field_u64("count", h.count)
                .field_u64("sum", h.sum)
                .field_u64("max", h.max)
                .key("mean")
                .f64(h.mean());
            w.key("buckets").begin_array();
            // Trim trailing empty buckets for readability.
            let last = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            for &b in &h.buckets[..last] {
                w.u64(b);
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.field_u64("dropped_events", self.dropped_events);
        w.key("events").begin_array();
        for e in &self.events {
            w.begin_object()
                .field_u64("seq", e.seq)
                .field_u64("worker", e.worker as u64)
                .field_str("type", e.event.name());
            for (k, v) in e.event.fields() {
                w.field_u64(k, v);
            }
            w.end_object();
        }
        w.end_array();
        if !self.raw_grant_trace.is_empty() {
            w.key("raw_grant_trace").begin_array();
            for &(st, t) in &self.raw_grant_trace {
                w.begin_array().u64(st).u64(t as u64).end_array();
            }
            w.end_array();
        }
        w.end_object();
    }

    /// This summary as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// A copy with the event trace dropped (hashes, counters, and
    /// histograms kept) — for compact artifact export where the bounded
    /// raw trace would still dominate the document.
    pub fn without_events(&self) -> TelemetrySummary {
        TelemetrySummary {
            events: Vec::new(),
            raw_grant_trace: Vec::new(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::disabled();
        t.record(0, TraceEvent::Grant { subthread: 0, thread: 0 });
        assert!(t.drain_events().is_empty());
        assert_eq!(t.dropped_events(), 0);
        let s = t.summarize(&ScheduleHash::new(), &RetiredOrderHash::new(), Vec::new());
        assert!(!s.enabled);
        assert_eq!(s.schedule_hash, 0);
        assert!(s.events.is_empty());
    }

    #[test]
    fn summary_round_trip() {
        let t = Telemetry::new(&TelemetryConfig::default(), 2);
        t.metrics.grants.add(3);
        t.metrics.retired.add(3);
        t.record(0, TraceEvent::Grant { subthread: 0, thread: 0 });
        t.record(1, TraceEvent::Retire { subthread: 0, thread: 0 });
        let mut sched = ScheduleHash::new();
        sched.record(0, 0);
        let mut ret = RetiredOrderHash::new();
        ret.record(0, 1);
        let s = t.summarize(&sched, &ret, vec![(0, 0)]);
        assert!(s.enabled);
        assert_eq!(s.counter("grants"), 3);
        assert_eq!(s.schedule_grants, 1);
        assert_eq!(s.retired_count, 1);
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].seq, 0);
        let json = s.to_json();
        assert!(json.contains("\"schedule_hash\":\"0x"));
        assert!(json.contains("\"grants\":3"));
        assert!(json.contains("\"type\":\"retire\""));
        assert!(json.contains("\"raw_grant_trace\":[[0,0]]"));
    }

    #[test]
    fn sequence_numbers_are_globally_ordered() {
        let t = Telemetry::new(&TelemetryConfig::default(), 3);
        for i in 0..30u64 {
            t.record((i % 3) as usize, TraceEvent::WalAppend { subthread: i });
        }
        let evs = t.drain_events();
        assert_eq!(evs.len(), 30);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn summary_lookup_helpers() {
        let s = TelemetrySummary::default();
        assert_eq!(s.counter("nope"), 0);
        assert!(s.histogram("nope").is_none());
    }
}
