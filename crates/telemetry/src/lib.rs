//! # gprs-telemetry
//!
//! Unified event tracing, metrics, and determinism verification for the
//! GPRS reproduction — shared by the real threaded runtime
//! (`gprs-runtime`) and the virtual-time simulator (`gprs-sim`).
//!
//! Three layers, all optional at run time via [`TelemetryConfig`]:
//!
//! 1. **Event tracing** ([`event`], [`ring`]) — structured [`TraceEvent`]s
//!    recorded into per-worker fixed-capacity rings with lock-free appends.
//!    A finished run's summary takes the rings whole; they are merged into
//!    one trace ordered by sequence number only when the trace is read
//!    ([`Trace`]).
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
pub use ring::{EventRing, RingSet, Trace};

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
    /// to the external ring). No-op when disabled, and once
    /// [`Telemetry::summarize`] has taken the rings.
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

    /// Assembles the end-of-run summary from this facade plus the
    /// engine-owned hashes and optional raw grant trace. The summary takes
    /// the rings whole, unmerged; from then on this facade records no
    /// event, so no writer can reach a trace being read.
    pub fn summarize(
        &mut self,
        schedule: &ScheduleHash,
        retired: &RetiredOrderHash,
        raw_grant_trace: Vec<(u64, u32)>,
    ) -> TelemetrySummary {
        let rings = self.rings.take();
        TelemetrySummary {
            enabled: self.enabled,
            schedule_hash: schedule.digest(),
            schedule_grants: schedule.grants(),
            retired_hash: retired.digest(),
            retired_count: retired.retirements(),
            counters: self.metrics.counter_snapshot(),
            histograms: self.metrics.histogram_snapshot(),
            dropped_events: rings.as_ref().map_or(0, RingSet::dropped),
            trace: rings.map_or_else(Trace::default, Trace::new),
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
    /// The run's event trace (bounded by ring capacity), merged when read:
    /// see [`TelemetrySummary::events`].
    pub trace: Trace,
    /// Events lost to ring wrapping.
    pub dropped_events: u64,
    /// Opt-in bounded raw grant trace (`(subthread, thread)`), empty unless
    /// `raw_trace_cap > 0`.
    pub raw_grant_trace: Vec<(u64, u32)>,
}

impl TelemetrySummary {
    /// The event trace, ascending in `seq`, merged from the run's rings on
    /// every call. A sharded report's trace is domain-major instead: each
    /// domain's facade numbers `seq` from 0, and the domains' traces follow
    /// one another in domain order, each slice ascending in `seq`.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.trace.events()
    }

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
        for e in self.trace.iter() {
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
            trace: Trace::default(),
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
        let mut t = Telemetry::disabled();
        t.record(0, TraceEvent::Grant { subthread: 0, thread: 0 });
        let s = t.summarize(&ScheduleHash::new(), &RetiredOrderHash::new(), Vec::new());
        assert!(!s.enabled);
        assert_eq!(s.schedule_hash, 0);
        assert!(s.events().is_empty());
        assert_eq!(s.dropped_events, 0);
    }

    #[test]
    fn summary_round_trip() {
        let mut t = Telemetry::new(&TelemetryConfig::default(), 2);
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
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[0].seq, 0);
        let json = s.to_json();
        assert!(json.contains("\"schedule_hash\":\"0x"));
        assert!(json.contains("\"grants\":3"));
        assert!(json.contains("\"type\":\"retire\""));
        assert!(json.contains("\"raw_grant_trace\":[[0,0]]"));
    }

    #[test]
    fn sequence_numbers_are_globally_ordered() {
        let mut t = Telemetry::new(&TelemetryConfig::default(), 3);
        for i in 0..30u64 {
            t.record((i % 3) as usize, TraceEvent::WalAppend { subthread: i });
        }
        let evs = t
            .summarize(&ScheduleHash::new(), &RetiredOrderHash::new(), Vec::new())
            .events();
        assert_eq!(evs.len(), 30);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn a_summarized_facade_records_nothing_more() {
        let mut t = Telemetry::new(&TelemetryConfig::default(), 1);
        t.record(0, TraceEvent::WalAppend { subthread: 0 });
        let s = t.summarize(&ScheduleHash::new(), &RetiredOrderHash::new(), Vec::new());
        let copy = s.clone();
        t.record(0, TraceEvent::WalAppend { subthread: 1 });
        t.record(usize::MAX, TraceEvent::WalAppend { subthread: 2 });
        assert_eq!(s.events(), copy.events());
        assert_eq!(s.events().len(), 1);
        assert_eq!(s, copy);
    }

    /// The JSON of one trace event, written as `write_json` wrote it when
    /// the summary held the drained events.
    fn old_event_json(w: &mut JsonWriter, e: &TimedEvent) {
        w.begin_object()
            .field_u64("seq", e.seq)
            .field_u64("worker", e.worker as u64)
            .field_str("type", e.event.name());
        for (k, v) in e.event.fields() {
            w.field_u64(k, v);
        }
        w.end_object();
    }

    #[test]
    fn summary_json_is_the_json_of_the_trace_drained_the_old_way() {
        // Three workers and the external ring, 8 slots each, so rings wrap.
        let cfg = TelemetryConfig {
            ring_capacity: 8,
            ..TelemetryConfig::default()
        };
        let mut t = Telemetry::new(&cfg, 3);
        t.metrics.grants.add(5);
        for i in 0..100u64 {
            let worker = [0, 1, 2, usize::MAX][(i * i % 7 % 4) as usize];
            let thread = (i % 5) as u32;
            let event = match i % 3 {
                0 => TraceEvent::Grant { subthread: i, thread },
                1 => TraceEvent::Retire { subthread: i, thread },
                _ => TraceEvent::WalAppend { subthread: i },
            };
            t.record(worker, event);
        }
        // Drained the old way: every ring's window copied out, then sorted.
        let rings = t.rings.as_ref().expect("telemetry is on");
        let mut old: Vec<TimedEvent> = (0..4).flat_map(|r| rings.ring(r).snapshot()).collect();
        old.sort_unstable_by_key(|e| (e.seq, e.worker));
        let mut events = JsonWriter::new();
        events.begin_array();
        for e in &old {
            old_event_json(&mut events, e);
        }
        events.end_array();

        let s = t.summarize(&ScheduleHash::new(), &RetiredOrderHash::new(), vec![(1, 2)]);
        assert!(s.dropped_events > 0, "the rings wrapped");
        assert_eq!(s.events(), old);
        let bare = TelemetrySummary {
            trace: Trace::default(),
            ..s.clone()
        };
        let want = bare
            .to_json()
            .replace("\"events\":[]", &format!("\"events\":{}", events.finish()));
        assert_eq!(s.to_json(), want);
    }

    #[test]
    fn summary_lookup_helpers() {
        let s = TelemetrySummary::default();
        assert_eq!(s.counter("nope"), 0);
        assert!(s.histogram("nope").is_none());
    }
}
