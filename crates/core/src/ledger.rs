//! The run ledger: everything that *watches* the deterministic order, once.
//!
//! Both engines — the threaded runtime and the virtual-time simulator —
//! produce the same ordered stream of events (grant, structural turn, WAL
//! append / undo / prune, retirement, squash, restart). [`RunLedger`] owns
//! the observers of that stream: the determinism hashes, the bounded raw
//! grant trace, the schedule recorder and replay verifier, the race detector,
//! the durable log of the retirement order and the telemetry facade. An
//! engine calls one plain method per event.
//!
//! **Event-order contract.** Within one grant: [`RunLedger::wal_appended`]
//! (if the opening operation logs a record), then [`RunLedger::granted`],
//! which traces `SubThreadCreate`, `Grant`, `CheckpointTaken`. Within one
//! retirement [`RunLedger::retired`] folds the retired hash, checks and
//! logs the durable prefix, traces `Retire`, then feeds the detector.
//! Counter names and this order are what `artifacts/*.telemetry.json` pin.
//!
//! **Observers return a reason, engines poison.** A hook that finds the run
//! can no longer be trusted — the tape diverged, the resumed prefix does not
//! match the durable log, the backend failed — returns the reason as a
//! [`Poison`]; the engine turns it into its own failure. Observers never
//! steer the schedule otherwise: the only policy input is
//! [`RunLedger::enforcer`], read once at construction.

use crate::ids::{BarrierId, ResourceId, SubThreadId, ThreadId};
use crate::persist::{merkle_root, CheckpointMeta, DurableRecord, PersistBackend, CHUNK_SIZE};
use crate::racecheck::{resource_code, AccessKind, OpenEdge, Race, RaceDetector, RetireInfo};
use crate::order::{OrderEnforcer, ScheduleKind};
use crate::recording::{
    DriveMode, RecordedOutcome, Recorder, Recording, RecordingHeader, ReplayVerifier,
    RECORD_AND_REPLAY,
};
use crate::rol::RolEntry;
use crate::subthread::SubThreadKind;
use gprs_telemetry::{
    Counter, Metrics, RetiredOrderHash, ScheduleHash, Telemetry, TelemetryConfig,
    TelemetrySummary, TraceEvent,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Why the run can no longer be trusted, if a hook found a reason.
pub type Poison = Option<String>;

/// Ring index for events not attributable to a worker or context (in the
/// runtime: deposit-path retirement, recovery, injections — all under the
/// engine lock, the ring's single writer); routed to the external ring.
pub const EXTERNAL_RING: usize = usize::MAX;

/// What the engine checkpointed at a grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checkpointed {
    /// Statically proven read-only boundary: nothing was recorded.
    Elided,
    /// A snapshot whose size the engine cannot see (a boxed program state).
    Opaque,
    /// A snapshot of this many bytes.
    Bytes(u64),
}

/// The race detector's input about a retiring sub-thread beyond the
/// entry's sequence fields and aliases — read by the engine off its own
/// record, whose shape the ledger does not know. Engines build it only
/// while [`RunLedger::racecheck`] is on.
#[derive(Debug, Clone, Copy)]
pub struct RetireFacts<'a> {
    /// The acquire-side edge of the opening operation, if any.
    pub open: Option<OpenEdge>,
    /// Plain accesses performed by the body, in program order.
    pub accesses: &'a [(ResourceId, AccessKind)],
    /// The barrier generation the sub-thread's closing arrival feeds.
    pub arrival: Option<(BarrierId, u64)>,
}

/// The durable retire prefix a resumed run re-verifies: at retirement index
/// `pos` it must retire `expected[pos]`'s `(thread, kind tag, running
/// digest)` — divergence from the durable log is never silent.
#[derive(Debug)]
struct VerifyState {
    expected: Vec<(u32, u8, u64)>,
    pos: usize,
}

/// One run's observers (see the module docs).
#[derive(Debug)]
pub struct RunLedger {
    telemetry: Telemetry,
    sched_hash: ScheduleHash,
    retired_hash: RetiredOrderHash,
    retired: u64,
    raw_trace: Vec<(u64, u32)>,
    raw_trace_cap: usize,
    recorder: Option<(Recorder, PathBuf)>,
    replay: Option<ReplayVerifier>,
    race: Option<RaceDetector>,
    persist: Option<Arc<dyn PersistBackend>>,
    verify: Option<VerifyState>,
    /// Retired count at the last durable checkpoint.
    last_ckpt: u64,
}

fn persistence_failed(e: impl std::fmt::Display) -> String {
    format!("durable persistence failed: {e}")
}

impl RunLedger {
    /// A ledger with telemetry for `rings` workers/contexts, both hashes
    /// domain-separated by `seed` (0 = unseeded), and the happens-before
    /// race detector if `racecheck`. Everything else is armed separately.
    pub fn new(cfg: &TelemetryConfig, rings: usize, seed: u64, racecheck: bool) -> Self {
        RunLedger {
            telemetry: Telemetry::new(cfg, rings),
            sched_hash: ScheduleHash::seeded(seed),
            retired_hash: RetiredOrderHash::seeded(seed),
            retired: 0,
            raw_trace: Vec::new(),
            raw_trace_cap: cfg.raw_trace_cap,
            recorder: None,
            replay: None,
            race: racecheck.then(RaceDetector::new),
            persist: None,
            verify: None,
            last_ckpt: 0,
        }
    }

    /// Arms the recorder (header and destination) or the replay verifier.
    /// A run asked to do both arms neither and is refused: its footer
    /// digests could never differ from the tape that drove it.
    pub fn arm_tape(
        &mut self,
        record: Option<(RecordingHeader, PathBuf)>,
        replay: Option<Arc<Recording>>,
    ) -> Poison {
        if record.is_some() && replay.is_some() {
            return Some(RECORD_AND_REPLAY.to_string());
        }
        self.recorder = record.map(|(header, path)| (Recorder::new(header), path));
        self.replay = replay.map(ReplayVerifier::new);
        None
    }

    /// Arms restart-as-recovery verification of a durable retire prefix.
    pub fn arm_resume(&mut self, prefix: Vec<(u32, u8, u64)>) {
        self.verify = (!prefix.is_empty()).then_some(VerifyState {
            expected: prefix,
            pos: 0,
        });
    }

    /// Arms the durable log and opens its epoch: the `Spec` record marks
    /// where this run's records start (a resumed run supersedes the prior
    /// epoch) and is synced immediately, so even a run killed before its
    /// first retirement leaves a well-formed epoch behind.
    pub fn open_epoch(&mut self, backend: Arc<dyn PersistBackend>, spec: String) -> Poison {
        let opened = backend
            .record(&DurableRecord::Spec { text: spec })
            .and_then(|()| backend.sync());
        self.persist = Some(backend);
        opened.err().map(persistence_failed)
    }

    /// Stamps the recorder with the actual drive mode and rejects a
    /// cross-mode replay before the first grant.
    pub fn set_mode(&mut self, mode: DriveMode) -> Poison {
        if let Some((r, _)) = self.recorder.as_mut() {
            r.set_mode(mode);
        }
        self.replay.as_ref().and_then(|v| v.check_mode(mode))
    }

    // ---- what the engine may ask ------------------------------------------

    /// The telemetry facade, for counters that are the engine's own
    /// (wake-ups, fast-path grants, pool misses).
    #[inline]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The order enforcer for this run: the `live` schedule — or, under
    /// replay, the tape itself (the recorded grant order IS the schedule;
    /// wasted polls hold the cursor in place).
    pub fn enforcer(&self, live: ScheduleKind) -> OrderEnforcer {
        match &self.replay {
            Some(v) => OrderEnforcer::new(Box::new(v.schedule())),
            None => OrderEnforcer::with_schedule(live),
        }
    }

    /// The event position a replay-divergence message names (`None` on live
    /// runs).
    pub fn replay_pos(&self) -> Option<usize> {
        self.replay.as_ref().map(ReplayVerifier::verified)
    }

    /// The terminal message when the tape ran out with `live` threads left.
    pub fn replay_exhausted(&self, live: usize) -> Poison {
        self.replay.as_ref().and_then(|v| v.exhausted(live))
    }

    /// Whether the race detector is armed (and [`RetireFacts`] are wanted).
    #[inline]
    pub fn racecheck(&self) -> bool {
        self.race.is_some()
    }

    /// Whether the detector saw `thread` participate in a data race.
    pub fn is_racy_thread(&self, thread: ThreadId) -> bool {
        self.race.as_ref().is_some_and(|d| d.is_racy_thread(thread))
    }

    /// Races detected so far, and the first one.
    pub fn races(&self) -> (u64, Option<Race>) {
        self.race
            .as_ref()
            .map_or((0, None), |d| (d.races(), d.first_race().cloned()))
    }

    /// The running `(schedule, retired)` digests.
    pub fn digests(&self) -> (u64, u64) {
        (self.sched_hash.digest(), self.retired_hash.digest())
    }

    // ---- the ordered event stream -----------------------------------------

    /// A sub-thread was granted its turn and opened (`ring` is the granting
    /// worker or the context its body runs on).
    #[inline]
    #[must_use]
    pub fn granted(
        &mut self,
        ring: usize,
        id: SubThreadId,
        thread: ThreadId,
        kind: SubThreadKind,
        checkpoint: Checkpointed,
    ) -> Poison {
        let poison = self.structural(thread, kind.tag());
        let (subthread, thread) = (id.raw(), thread.raw());
        self.sched_hash.record(subthread, thread);
        if self.raw_trace.len() < self.raw_trace_cap {
            self.raw_trace.push((subthread, thread));
        }
        let tel = &self.telemetry;
        if tel.enabled() {
            let m = &tel.metrics;
            m.subthreads_created.inc_serialized();
            m.grants.inc_serialized();
            let kind = kind.tag();
            tel.record(ring, TraceEvent::SubThreadCreate { subthread, thread, kind });
            tel.record(ring, TraceEvent::Grant { subthread, thread });
            let bytes = match checkpoint {
                Checkpointed::Elided => {
                    m.checkpoints_elided.inc_serialized();
                    return poison;
                }
                Checkpointed::Opaque => 0,
                Checkpointed::Bytes(bytes) => {
                    m.checkpoint_bytes.add_serialized(bytes);
                    m.checkpoint_size.record_serialized(bytes);
                    bytes
                }
            };
            m.checkpoints.inc_serialized();
            tel.record(ring, TraceEvent::CheckpointTaken { subthread, bytes });
        }
        poison
    }

    /// A turn was consumed without opening a sub-thread (`EVT_ARRIVE`,
    /// `EVT_EXIT`): recorded and verified like a grant's kind tag.
    #[inline]
    #[must_use]
    pub fn structural(&mut self, thread: ThreadId, kind: u8) -> Poison {
        if let Some((r, _)) = self.recorder.as_mut() {
            r.record_event(thread.raw(), kind);
        }
        let verifier = self.replay.as_mut()?;
        verifier.check_event(thread.raw(), kind)
    }

    /// A WAL record was appended for `id`, leaving `outstanding` records in
    /// the log.
    pub fn wal_appended(&self, ring: usize, id: SubThreadId, outstanding: usize) {
        let tel = &self.telemetry;
        if tel.enabled() {
            tel.metrics.wal_appends.inc_serialized();
            tel.metrics.wal_outstanding_hw.observe_serialized(outstanding as u64);
            tel.record(ring, TraceEvent::WalAppend { subthread: id.raw() });
        }
    }

    /// A WAL append was skipped: the record was statically proven dead.
    pub fn wal_elided(&self) {
        if self.telemetry.enabled() {
            self.telemetry.metrics.wal_records_elided.inc_serialized();
        }
    }

    /// Recovery consumed one of `id`'s records for undo.
    pub fn wal_undone(&self, id: SubThreadId) {
        let subthread = id.raw();
        self.note(EXTERNAL_RING, |m| &m.wal_undos, TraceEvent::WalUndo { subthread });
    }

    /// Retirements between a durable run's checkpoints, each of which
    /// group-commits the records before it with one fsync.
    pub const CKPT_EVERY: u64 = 64;

    /// A batch of `len` head sub-threads starting at `first` retired and
    /// `pruned` WAL records went with it. A durable run writes a checkpoint
    /// once [`Self::CKPT_EVERY`] retirements have passed since the last.
    #[inline]
    #[must_use]
    pub fn batch_retired(&mut self, first: SubThreadId, len: usize, pruned: u64) -> Poison {
        let tel = &self.telemetry;
        if tel.enabled() {
            tel.metrics.wal_prunes.add_serialized(pruned);
            tel.metrics.retire_batch.record_serialized(len as u64);
            if pruned > 0 {
                let (subthread, records) = (first.raw(), pruned);
                tel.record(EXTERNAL_RING, TraceEvent::WalPrune { subthread, records });
            }
        }
        if self.persist.is_some() && self.retired - self.last_ckpt >= Self::CKPT_EVERY {
            return self.checkpoint();
        }
        None
    }

    /// Writes a durable checkpoint: the retire-prefix metadata, chunked into
    /// the content-addressed store under a merkle root, anchored by a
    /// `Checkpoint` record, then group-committed with one fsync.
    fn checkpoint(&mut self) -> Poison {
        let p = self.persist.clone()?;
        self.last_ckpt = self.retired;
        let meta = CheckpointMeta {
            retired: self.retired,
            digest: self.retired_hash.digest(),
            threads: self.retired_hash.splits(),
        };
        let blob = meta.encode();
        let written = blob
            .chunks(CHUNK_SIZE)
            .map(|chunk| p.put_chunk(chunk))
            .collect::<Result<Vec<u64>, _>>()
            .and_then(|chunks| {
                p.record(&DurableRecord::Checkpoint {
                    root: merkle_root(&chunks),
                    retired: meta.retired,
                    digest: meta.digest,
                    chunks,
                })
            })
            .and_then(|()| p.sync());
        written
            .err()
            .map(|e| format!("durable checkpoint failed: {e}"))
    }

    /// `entry` retired from the reorder-list head. `facts` feeds the race
    /// detector (pass `None` while it is off).
    #[inline]
    #[must_use]
    pub fn retired<R>(
        &mut self,
        ring: usize,
        entry: &RolEntry<R>,
        facts: Option<RetireFacts<'_>>,
    ) -> Poison {
        let (id, thread, kind) = (entry.id(), entry.thread(), entry.descriptor.kind.tag());
        self.retired += 1;
        self.retired_hash.record(thread.raw(), kind);
        let mut poison = None;
        if self.persist.is_some() || self.verify.is_some() {
            poison = self.durable_retire(id.raw(), thread.raw(), kind);
        }
        let tel = &self.telemetry;
        if tel.enabled() {
            tel.metrics.retired.inc_serialized();
            let (subthread, thread) = (id.raw(), thread.raw());
            tel.record(ring, TraceEvent::Retire { subthread, thread });
        }
        if let Some(facts) = facts {
            self.detect(ring, entry, facts);
        }
        poison
    }

    /// Feeds retiring `entry` to the race detector and traces what it finds.
    fn detect<R>(&mut self, ring: usize, entry: &RolEntry<R>, facts: RetireFacts<'_>) {
        let Some(det) = self.race.as_mut() else { return };
        let sync_resources: Vec<ResourceId> = entry
            .resources
            .iter()
            .filter(|r| matches!(r, ResourceId::Lock(_) | ResourceId::Atomic(_)))
            .copied()
            .collect();
        let races = det.retire(RetireInfo {
            id: entry.id(),
            thread: entry.thread(),
            open: facts.open,
            sync_resources: &sync_resources,
            accesses: facts.accesses,
            arrival: facts.arrival,
        });
        let tel = &self.telemetry;
        if !races.is_empty() && tel.enabled() {
            tel.metrics.races_detected.add_serialized(races.len() as u64);
            for race in &races {
                tel.record(
                    ring,
                    TraceEvent::RaceDetected {
                        subthread: race.current.subthread.raw(),
                        prior: race.prior.subthread.raw(),
                        resource: resource_code(race.resource),
                    },
                );
            }
        }
    }

    /// One retirement's durable work: checks the resumed prefix
    /// (restart-as-recovery) and logs a `Retire` record.
    fn durable_retire(&mut self, subthread: u64, thread: u32, kind: u8) -> Poison {
        let digest = self.retired_hash.digest();
        if let Some(v) = self.verify.as_mut().filter(|v| v.pos < v.expected.len()) {
            let (et, ek, ed) = v.expected[v.pos];
            v.pos += 1;
            if (et, ek, ed) != (thread, kind, digest) {
                return Some(format!(
                    "durable prefix divergence at retirement {}: replay retired \
                     (thread {thread}, kind {kind}, digest {digest:016x}) but the durable \
                     log recorded (thread {et}, kind {ek}, digest {ed:016x})",
                    v.pos
                ));
            }
            if self.telemetry.enabled() {
                self.telemetry.metrics.recovered_prefix_len.inc_serialized();
            }
        }
        // A persistence failure is a poison: durability was requested, and
        // losing it silently would fake precise restartability.
        let rec = DurableRecord::Retire {
            subthread,
            thread,
            kind,
            retired: self.retired,
            digest,
        };
        self.persist.as_ref()?.record(&rec).err().map(persistence_failed)
    }

    /// The reorder list's occupancy high-water mark, as of now.
    #[inline]
    pub fn rol_peak(&self, peak: usize) {
        if self.telemetry.enabled() {
            self.telemetry.metrics.rol_occupancy_hw.observe_serialized(peak as u64);
        }
    }

    /// A barrier arrival whose arrival-ending sub-thread already retired:
    /// `thread`'s clock *is* that close clock, contributed to `gen` directly.
    pub fn arrived_after_retire(&mut self, thread: ThreadId, barrier: BarrierId, gen: u64) {
        if let Some(det) = self.race.as_mut() {
            det.contribute_arrival(thread, barrier, gen);
        }
    }

    /// Bumps one counter and traces one event, when telemetry is on.
    fn note(&self, ring: usize, counter: impl FnOnce(&Metrics) -> &Counter, event: TraceEvent) {
        if self.telemetry.enabled() {
            counter(&self.telemetry.metrics).inc();
            self.telemetry.record(ring, event);
        }
    }

    /// A recovery session for `culprit` began.
    pub fn recovery_begin(&self, ring: usize, culprit: SubThreadId) {
        let culprit = culprit.raw();
        self.note(ring, |m| &m.recovery_sessions, TraceEvent::RecoveryBegin { culprit });
    }

    /// The session widened its selective restart to the basic suffix
    /// because `thread`, the culprit's, raced.
    pub fn escalated(&self, culprit: SubThreadId, thread: ThreadId) {
        let event = TraceEvent::HybridEscalation {
            culprit: culprit.raw(),
            thread: thread.raw(),
        };
        self.note(EXTERNAL_RING, |m| &m.hybrid_escalations, event);
    }

    /// The session squashed in-flight sub-thread `id` of `thread`. Its
    /// race-detector provenance goes with it (the re-execution re-records
    /// it); the detector's clocks are never rewound — extra happens-before
    /// edges only mask races, the safe side.
    pub fn squashed(&mut self, ring: usize, id: SubThreadId, thread: ThreadId) {
        if let Some(det) = self.race.as_mut() {
            det.forget_subthread(id);
        }
        let (subthread, thread) = (id.raw(), thread.raw());
        self.note(ring, |m| &m.squashed, TraceEvent::Squash { subthread, thread });
    }

    /// The session re-armed squashed `thread` for re-execution.
    pub fn restarted(&self, thread: ThreadId) {
        let thread = thread.raw();
        self.note(EXTERNAL_RING, |m| &m.restarts, TraceEvent::Restart { thread });
    }

    /// The session for `culprit` finished having squashed `squashed`
    /// sub-threads, in `host_ns` of host time where the engine has any.
    pub fn recovery_end(&self, ring: usize, culprit: SubThreadId, squashed: u64, host_ns: Option<u64>) {
        let tel = &self.telemetry;
        if tel.enabled() {
            tel.metrics.squashed_per_recovery.record(squashed);
            if let Some(ns) = host_ns {
                tel.metrics.recovery_duration.record(ns);
            }
            let culprit = culprit.raw();
            tel.record(ring, TraceEvent::RecoveryEnd { culprit, squashed });
        }
    }

    /// Closes the books on a run that ended with `failure` (its poison, or
    /// why it did not complete) or else with `prefix_note` (why a run that
    /// did not fail still stopped early — a cancel): group-commits the
    /// durable tail and copies the backend's counters, holds a replay that
    /// consumed the whole tape to the recorded final digests, and writes the
    /// recording — for failed runs too, that being what time-travel
    /// debugging exists for, with a footer that says so: a replay reaching
    /// the end of a prefix tape is a reproduction, not a divergence.
    #[must_use]
    pub fn seal(&mut self, failure: Option<&str>, prefix_note: Option<&str>) -> Poison {
        let mut poison = None;
        if let Some(p) = &self.persist {
            poison = p.sync().err().map(persistence_failed);
            if self.telemetry.enabled() {
                let s = p.stats();
                self.telemetry.metrics.wal_segments_sealed.add(s.segments_sealed);
                self.telemetry.metrics.fsyncs.add(s.fsyncs);
            }
        }
        let (sched, retired) = self.digests();
        // A hash mismatch with an event-for-event match means the recording
        // was tampered with or the program diverged outside the schedule.
        if failure.is_none() && poison.is_none() {
            poison = self.replay.as_ref().and_then(|v| v.check_final(sched, retired));
        }
        if let Some((recorder, path)) = self.recorder.take() {
            let outcome = match failure.or(poison.as_deref()).or(prefix_note) {
                Some(msg) => RecordedOutcome::Poisoned(msg.to_string()),
                None => RecordedOutcome::Complete,
            };
            if let Err(e) = recorder.finish(sched, retired, outcome).save(&path) {
                poison.get_or_insert(format!(
                    "failed to write recording to {}: {e}",
                    path.display()
                ));
            }
        }
        poison
    }

    /// The end-of-run telemetry artifact (drains the rings and the raw
    /// trace; call once, after [`RunLedger::seal`]).
    pub fn summarize(&mut self) -> TelemetrySummary {
        let raw = std::mem::take(&mut self.raw_trace);
        self.telemetry.summarize(&self.sched_hash, &self.retired_hash, raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GroupId;
    use crate::persist::{DurableImage, MemoryBackend, PersistError, PersistStats};
    use crate::recording::{EVT_ARRIVE, EVT_EXIT};
    use crate::subthread::SubThread;

    /// One scripted stream step, as an engine would feed it.
    #[derive(Clone, Copy)]
    enum Ev {
        Grant(u64, u32, SubThreadKind),
        Turn(u32, u8),
        Retire(u64, u32, SubThreadKind),
        Squash(u64, u32),
    }
    use SubThreadKind::{AtomicOp, BarrierContinuation, Initial};

    /// Two threads: start, an atomic each, a squash and re-grant of thread
    /// 1's atomic, a barrier, exits — every hook the hashes and tape see.
    const SCRIPT: [Ev; 15] = [
        Ev::Grant(0, 0, Initial),
        Ev::Grant(1, 1, Initial),
        Ev::Grant(2, 0, AtomicOp),
        Ev::Retire(0, 0, Initial),
        Ev::Grant(3, 1, AtomicOp),
        Ev::Squash(3, 1),
        Ev::Retire(1, 1, Initial),
        Ev::Grant(4, 1, AtomicOp),
        Ev::Turn(0, EVT_ARRIVE),
        Ev::Retire(2, 0, AtomicOp),
        Ev::Turn(1, EVT_ARRIVE),
        Ev::Retire(4, 1, AtomicOp),
        Ev::Grant(5, 0, BarrierContinuation),
        Ev::Turn(0, EVT_EXIT),
        Ev::Retire(5, 0, BarrierContinuation),
    ];

    fn entry(id: u64, thread: u32, kind: SubThreadKind) -> RolEntry {
        let mut rol = crate::rol::ReorderList::new();
        let st = SubThread::new(SubThreadId::new(id), ThreadId::new(thread), GroupId::new(0), kind, None);
        rol.insert(st).unwrap();
        rol.mark_completed(SubThreadId::new(id)).unwrap();
        rol.retire_head().unwrap()
    }

    /// Feeds `script`, returning each step's poison.
    fn feed(ledger: &mut RunLedger, script: &[Ev]) -> Vec<Poison> {
        script
            .iter()
            .map(|&ev| match ev {
                Ev::Grant(id, th, kind) => ledger.granted(
                    0,
                    SubThreadId::new(id),
                    ThreadId::new(th),
                    kind,
                    Checkpointed::Opaque,
                ),
                Ev::Turn(th, kind) => ledger.structural(ThreadId::new(th), kind),
                Ev::Retire(id, th, kind) => ledger.retired(0, &entry(id, th, kind), None),
                Ev::Squash(id, th) => {
                    ledger.squashed(0, SubThreadId::new(id), ThreadId::new(th));
                    None
                }
            })
            .collect()
    }

    fn header() -> RecordingHeader {
        RecordingHeader {
            workload: "script".into(),
            seed: 0,
            mode: DriveMode::Pool,
            schedule: "rr".into(),
            workers: 1,
            spec: None,
            chaos: None,
        }
    }

    fn ledger() -> RunLedger {
        RunLedger::new(&TelemetryConfig::default(), 1, 0, false)
    }

    fn temp_tape(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gprs-ledger-{tag}-{}.gprs", std::process::id()))
    }

    /// Records the script; returns the tape it wrote.
    fn record_script(tag: &str) -> Arc<Recording> {
        let path = temp_tape(tag);
        let mut l = ledger();
        assert_eq!(l.arm_tape(Some((header(), path.clone())), None), None);
        assert!(feed(&mut l, &SCRIPT).iter().all(Option::is_none));
        assert_eq!(l.seal(None, None), None);
        let rec = Recording::load(&path).expect("sealed tape loads");
        std::fs::remove_file(&path).ok();
        Arc::new(rec)
    }

    #[test]
    fn a_scripted_stream_folds_like_the_hashes_and_recorder_fed_by_hand() {
        let (mut sched, mut retired) = (ScheduleHash::new(), RetiredOrderHash::new());
        let mut by_hand = Recorder::new(header());
        for ev in SCRIPT {
            match ev {
                Ev::Grant(id, th, kind) => {
                    sched.record(id, th);
                    by_hand.record_event(th, kind.tag());
                }
                Ev::Turn(th, kind) => by_hand.record_event(th, kind),
                Ev::Retire(_, th, kind) => retired.record(th, kind.tag()),
                Ev::Squash(..) => {}
            }
        }
        let by_hand = by_hand.finish(sched.digest(), retired.digest(), RecordedOutcome::Complete);

        let tape = record_script("fold");
        assert_eq!(*tape, by_hand, "same events, digests and footer");
        let mut l = ledger();
        feed(&mut l, &SCRIPT);
        assert_eq!(l.digests(), (sched.digest(), retired.digest()));
        let summary = l.summarize();
        assert_eq!(summary.counter("grants"), 6);
        assert_eq!(summary.counter("retired"), 5);
        assert_eq!(summary.counter("squashed"), 1);
        assert_eq!((summary.schedule_grants, summary.retired_count), (6, 5));
    }

    #[test]
    fn a_replayed_stream_poisons_at_the_first_mismatching_event_by_position() {
        let tape = record_script("replay");
        let mut faithful = ledger();
        assert_eq!(faithful.arm_tape(None, Some(tape.clone())), None);
        assert!(feed(&mut faithful, &SCRIPT).iter().all(Option::is_none));
        assert_eq!(faithful.seal(None, None), None, "tape consumed, digests reproduced");

        // Tape position 4 is thread 1's re-granted atomic (script step 7);
        // the live run grants it to thread 0 instead.
        let mut script = SCRIPT;
        script[7] = Ev::Grant(4, 0, AtomicOp);
        let mut l = ledger();
        assert_eq!(l.arm_tape(None, Some(tape)), None);
        let poisons = feed(&mut l, &script[..8]);
        assert!(poisons[..7].iter().all(Option::is_none));
        let msg = poisons[7].as_deref().expect("the mismatch poisons");
        assert!(msg.starts_with("replay divergence at event 4:"), "{msg}");
        assert_eq!(l.replay_pos(), Some(4), "the cursor stays on the mismatch");
    }

    #[test]
    fn recording_and_replaying_at_once_is_refused_and_arms_neither() {
        let mut l = ledger();
        let refused = l.arm_tape(Some((header(), temp_tape("both"))), Some(record_script("both-src")));
        assert_eq!(refused.as_deref(), Some(RECORD_AND_REPLAY));
        assert!(l.replay_pos().is_none());
    }

    #[test]
    fn a_wrong_resume_prefix_poisons_at_its_retirement_index() {
        let durable = Arc::new(MemoryBackend::new());
        let mut first = ledger();
        assert_eq!(first.open_epoch(durable.clone(), "script".into()), None);
        feed(&mut first, &SCRIPT);
        assert_eq!(first.seal(None, None), None);
        let image = durable.load().unwrap();
        assert_eq!(image.retires.len(), 5);
        let mut prefix: Vec<(u32, u8, u64)> =
            image.retires.iter().map(|r| (r.thread, r.kind, r.digest)).collect();

        let mut resumed = ledger();
        resumed.arm_resume(prefix.clone());
        assert!(feed(&mut resumed, &SCRIPT).iter().all(Option::is_none));
        assert_eq!(resumed.summarize().counter("recovered_prefix_len"), 5);

        prefix[2].0 ^= 1; // the third retirement was another thread's
        let mut diverged = ledger();
        diverged.arm_resume(prefix);
        let poisons = feed(&mut diverged, &SCRIPT);
        let third_retire = SCRIPT.iter().position(|e| matches!(e, Ev::Retire(2, ..))).unwrap();
        assert!(poisons[..third_retire].iter().all(Option::is_none));
        let msg = poisons[third_retire].as_deref().expect("the mismatch poisons");
        assert!(msg.starts_with("durable prefix divergence at retirement 3:"), "{msg}");
    }

    /// A backend whose log is gone: every write fails.
    #[derive(Debug)]
    struct DeadBackend;
    impl PersistBackend for DeadBackend {
        fn record(&self, _: &DurableRecord) -> Result<(), PersistError> {
            Err(PersistError::Io("disk on fire".into()))
        }
        fn put_chunk(&self, _: &[u8]) -> Result<u64, PersistError> {
            Err(PersistError::Io("disk on fire".into()))
        }
        fn get_chunk(&self, _: u64) -> Option<Vec<u8>> {
            None
        }
        fn sync(&self) -> Result<(), PersistError> {
            Err(PersistError::Io("disk on fire".into()))
        }
        fn stats(&self) -> PersistStats {
            PersistStats::default()
        }
        fn load(&self) -> Result<DurableImage, PersistError> {
            Err(PersistError::Io("disk on fire".into()))
        }
    }

    #[test]
    fn a_failing_backend_poisons_by_name_at_every_durable_hook() {
        let named = |p: Poison| {
            let msg = p.expect("a failed write poisons");
            assert!(msg.starts_with("durable persistence failed:") && msg.contains("disk on fire"), "{msg}");
        };
        let mut l = ledger();
        named(l.open_epoch(Arc::new(DeadBackend), String::new()));
        let id = SubThreadId::new(0);
        for n in 0..RunLedger::CKPT_EVERY {
            named(l.retired(0, &entry(n, 0, Initial), None));
        }
        let ckpt = l.batch_retired(id, 1, 0).expect("a failed checkpoint poisons");
        assert!(ckpt.starts_with("durable checkpoint failed:"), "{ckpt}");
        named(l.seal(None, None));
        // With no backend armed the same hooks are silent.
        let mut plain = ledger();
        assert_eq!(plain.retired(0, &entry(0, 0, Initial), None), None);
        assert_eq!(plain.batch_retired(id, 1, 0), None);
    }
}
