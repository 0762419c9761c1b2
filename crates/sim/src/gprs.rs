//! The GPRS engine: deterministic token-ordered execution with sub-thread
//! checkpointing, a reorder list, and selective restart (`§3`).
//!
//! Threads run their segment bodies concurrently on a simulated context
//! pool, but every synchronization operation — the boundary that opens a new
//! sub-thread — must be performed in the deterministic total order imposed
//! by the configured schedule. A holder that polls an empty FIFO passes the
//! token (Figure 7); a holder whose turn has not come waits, accruing the
//! ordering delay `t_g`'s wait component.
//!
//! ## Exception handling
//!
//! Exceptions are attributed to the sub-thread whose body occupied the
//! victim context when the exception was raised. Recovery squashes the
//! affected set — under *selective* scope: the culprit, its same-thread
//! successors, consumers of the data items it pushed (tracked by
//! channel-item provenance, which is finer than the lock alias because the
//! runtime manages its FIFOs and can undo a pop by returning the item to the
//! front), and younger sub-threads sharing a lock or atomic alias.
//!
//! Squashed entries are *removed* from the reorder list and their threads
//! rewound to the opening point of their oldest squashed sub-thread, so the
//! token loop re-issues the work as fresh grants that re-enter retirement in
//! total order — exactly like REX in the real runtime. (An earlier version
//! re-issued squashed entries in place, which left mid-list `Squashed`
//! entries that could never re-complete, blocking retirement and diverging
//! the retired-order determinism hash under fault injection.) Channel pushes
//! and pops are undone youngest-first, and a rewind that crosses an
//! already-consumed barrier arrival undoes that barrier release for every
//! participant. Unaffected sub-threads keep running, which is what makes the
//! tipping rate scale with the context count.

use crate::costs::MechCosts;
use crate::result::SimResult;
use crate::workload::{SimOp, Workload};
use gprs_core::exception::{ExceptionInjector, InjectorConfig};
use gprs_core::ids::{BarrierId, ChannelId, LockId, ResourceId, SubThreadId, ThreadId};
use gprs_core::order::{OrderEnforcer, ScheduleKind};
use gprs_core::persist::{DurableRecord, PersistBackend};
use gprs_core::racecheck::{resource_code, OpenEdge, RaceDetector, RetireInfo};
use gprs_core::recording::{
    DriveMode, RecordedOutcome, Recorder, Recording, RecordingHeader, ReplayVerifier, EVT_ARRIVE,
    EVT_EXIT, RECORD_AND_REPLAY,
};
use gprs_core::rol::{ReorderList, RolEntry};
use gprs_core::subthread::{SubThread, SubThreadKind, SyncOp};
use gprs_telemetry::{RetiredOrderHash, ScheduleHash, Telemetry, TelemetryConfig, TraceEvent};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Ring index for events not attributable to a simulated context; routed to
/// the external ring by [`Telemetry::record`].
const EXTERNAL_RING: usize = usize::MAX;

/// Which sub-threads recovery squashes (the simulator-level counterpart of
/// [`gprs_core::recovery::RecoveryMode`], with channel provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryScope {
    /// Squash the culprit and everything younger.
    Basic,
    /// Squash only the culprit and its dependents.
    Selective,
}

/// Configuration of a GPRS simulation.
#[derive(Debug, Clone)]
pub struct GprsSimConfig {
    /// Hardware contexts `n`.
    pub contexts: u32,
    /// Mechanism costs.
    pub costs: MechCosts,
    /// The deterministic ordering schedule.
    pub schedule: ScheduleKind,
    /// Recovery scope.
    pub recovery: RecoveryScope,
    /// Exception injection.
    pub exceptions: Option<InjectorConfig>,
    /// Wall-clock cap in cycles; exceeding it reports DNC.
    pub time_cap_cycles: u64,
    /// Telemetry recording (events, metrics, determinism hashes).
    pub telemetry: TelemetryConfig,
    /// Happens-before race detection at retirement. When a race is found,
    /// selective recovery escalates to basic scope for culprits on racy
    /// threads (the hybrid policy of `§5b`).
    pub racecheck: bool,
    /// Run the static analyzer (`gprs-analyze`) before execution. A
    /// proven-DRF verdict elides the dynamic race detector; a
    /// potential-race verdict arms it (pre-selecting the hybrid policy)
    /// regardless of `racecheck`. The report is embedded in the result.
    pub analysis: bool,
    /// Elide checkpoints at sub-thread boundaries the static
    /// restartability proof shows read-only
    /// (`gprs_analyze::checkpoint_elidable`): the body modifies no private
    /// or shared state, so rewinding to the boundary restores nothing and
    /// the recording cost `t_s` is pure waste. Off by default; grant and
    /// retirement order are unchanged by construction (the differential
    /// suites assert bit-identical schedule/retired hashes on vs off).
    pub elide: bool,
    /// Mirror the retirement stream into a durable log (the same
    /// [`PersistBackend`] family the runtime uses). Observability only:
    /// the simulator records `Spec`/`Retire` records and a final sync but
    /// never resumes from its log — simulated runs are cheap to re-run,
    /// and the record stream lets durability tooling compare a sim's
    /// retirement ledger against a real-runtime log.
    pub persist: Option<Arc<dyn PersistBackend>>,
    /// Record the run's complete grant schedule into this file, stamped
    /// with the given workload seed (see
    /// [`with_record`](GprsSimConfig::with_record)).
    pub record: Option<(std::path::PathBuf, u64)>,
    /// Drive the run under a recorded schedule instead of a live ordering
    /// policy (see [`with_replay`](GprsSimConfig::with_replay)).
    pub replay: Option<Arc<Recording>>,
}

impl GprsSimConfig {
    /// Balance-aware (basic) GPRS on `n` contexts, selective restart, no
    /// exceptions.
    pub fn balance_aware(contexts: u32) -> Self {
        GprsSimConfig {
            contexts,
            costs: MechCosts::paper_default(),
            schedule: ScheduleKind::BalanceBasic,
            recovery: RecoveryScope::Selective,
            exceptions: None,
            time_cap_cycles: u64::MAX / 4,
            telemetry: TelemetryConfig::default(),
            racecheck: false,
            analysis: false,
            elide: false,
            persist: None,
            record: None,
            replay: None,
        }
    }

    /// Round-robin-ordered GPRS (the naive schedule of Figure 7(a)).
    pub fn round_robin(contexts: u32) -> Self {
        GprsSimConfig {
            schedule: ScheduleKind::RoundRobin,
            ..Self::balance_aware(contexts)
        }
    }

    /// Weighted balance-aware GPRS (uses the workload's group weights).
    pub fn weighted(contexts: u32) -> Self {
        GprsSimConfig {
            schedule: ScheduleKind::BalanceWeighted,
            ..Self::balance_aware(contexts)
        }
    }

    /// Enables exception injection.
    pub fn with_exceptions(mut self, injector: InjectorConfig) -> Self {
        self.exceptions = Some(injector);
        self
    }

    /// Sets the recovery scope.
    pub fn with_recovery(mut self, scope: RecoveryScope) -> Self {
        self.recovery = scope;
        self
    }

    /// Sets the DNC cap.
    pub fn with_time_cap(mut self, cycles: u64) -> Self {
        self.time_cap_cycles = cycles;
        self
    }

    /// Sets the telemetry configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables happens-before race detection (and hybrid recovery
    /// escalation for racy threads).
    pub fn with_racecheck(mut self, on: bool) -> Self {
        self.racecheck = on;
        self
    }

    /// Enables the ahead-of-run static analysis pass (see
    /// [`GprsSimConfig::analysis`]).
    pub fn with_analysis(mut self, on: bool) -> Self {
        self.analysis = on;
        self
    }

    /// Enables checkpoint elision at statically proven read-only
    /// boundaries (see [`GprsSimConfig::elide`]).
    pub fn with_elision(mut self, on: bool) -> Self {
        self.elide = on;
        self
    }

    /// Mirrors the retirement stream into `backend` (see
    /// [`GprsSimConfig::persist`]).
    pub fn with_persist(mut self, backend: Arc<dyn PersistBackend>) -> Self {
        self.persist = Some(backend);
        self
    }

    /// Records the run's grant schedule — every turn-consuming event with a
    /// running digest — into `path`, written when the result is sealed.
    /// `seed` is stamped into the header so `gprs-replay` can rebuild the
    /// generated workload (the workload name travels automatically).
    pub fn with_record(mut self, path: impl Into<std::path::PathBuf>, seed: u64) -> Self {
        self.record = Some((path.into(), seed));
        self
    }

    /// Replays a recorded schedule: the token follows the recording's
    /// grant order exactly and the first divergence aborts the run with
    /// [`SimResult::replay_divergence`] set (and `completed == false`).
    pub fn with_replay(mut self, rec: Arc<Recording>) -> Self {
        self.replay = Some(rec);
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct Body {
    thread: usize,
    ctx: usize,
    start: u64,
    end: u64,
    /// Kind of the sub-thread this body belongs to.
    kind: SubThreadKind,
    /// Segment whose work forms this body — the rewind point on squash.
    seg_ix: usize,
}

/// Incrementally maintained indexes over the in-window (granted, not yet
/// retired or squashed) sub-threads.
///
/// Recovery used to rediscover dependence sharers by rescanning the whole
/// reorder-list window per taint step (`affected_set`) and by sweeping every
/// live body per rewind target (`plan_recovery`). Both queries are now index
/// lookups; the index is updated at the three window transitions — grant,
/// retire, squash — and `affected_set` cross-checks its answer against the
/// original rescan in debug builds.
#[derive(Debug, Default)]
struct WindowIndex {
    /// Non-channel dependence alias -> in-window sub-threads holding it.
    /// Channels are excluded for the same reason `affected_set` skips them:
    /// the runtime undoes pops by returning items, so the channel id is not
    /// a taint alias (item provenance is tracked via `consumers`).
    by_resource: HashMap<ResourceId, std::collections::BTreeSet<SubThreadId>>,
    /// Sim thread index -> in-window sub-threads it owns.
    by_thread: Vec<std::collections::BTreeSet<SubThreadId>>,
}

impl WindowIndex {
    fn new(threads: usize) -> Self {
        WindowIndex {
            by_resource: HashMap::new(),
            by_thread: vec![std::collections::BTreeSet::new(); threads],
        }
    }

    /// Registers a freshly granted sub-thread under its thread and every
    /// non-channel alias it holds.
    fn insert<'r>(
        &mut self,
        sid: SubThreadId,
        th: usize,
        resources: impl IntoIterator<Item = &'r ResourceId>,
    ) {
        self.by_thread[th].insert(sid);
        for r in resources {
            if !matches!(r, ResourceId::Channel(_)) {
                self.by_resource.entry(*r).or_default().insert(sid);
            }
        }
    }

    /// Deregisters a sub-thread leaving the window (retired or squashed).
    /// `resources` must be the same alias set it was registered under.
    fn remove<'r>(
        &mut self,
        sid: SubThreadId,
        th: usize,
        resources: impl IntoIterator<Item = &'r ResourceId>,
    ) {
        self.by_thread[th].remove(&sid);
        for r in resources {
            if matches!(r, ResourceId::Channel(_)) {
                continue;
            }
            if let Some(set) = self.by_resource.get_mut(r) {
                set.remove(&sid);
                if set.is_empty() {
                    self.by_resource.remove(r);
                }
            }
        }
    }
}

/// Where a rewound thread re-enters its trace after a squash. The sim
/// re-executes squashed sub-threads as fresh grants (new sequence numbers),
/// so recovery rewinds each affected thread to its oldest squashed
/// sub-thread's opening point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rewind {
    /// Re-issue the initial sub-thread.
    Initial,
    /// Re-request the closing op of segment `.0` (including re-arriving at
    /// a barrier whose release was undone).
    Op(usize),
    /// Re-open the continuation of barrier `.0` with `op_ix = .1`; the
    /// arrival stays consumed because the release still stands.
    Resume(BarrierId, usize),
}

impl Rewind {
    /// Index of the first op this rewind leaves pending.
    fn op_ix(self) -> usize {
        match self {
            Rewind::Initial => 0,
            Rewind::Op(i) => i,
            Rewind::Resume(_, i) => i,
        }
    }

    /// First segment index whose body is re-executed under this rewind.
    fn reexec_start(self) -> usize {
        match self {
            Rewind::Initial => 0,
            Rewind::Op(i) => i + 1,
            Rewind::Resume(_, i) => i,
        }
    }

    /// Whether this rewind re-enters the trace strictly earlier than
    /// `other` (a forced re-arrival beats a resume of the same barrier).
    fn precedes(self, other: Rewind) -> bool {
        let rank = |r: Rewind| match r {
            Rewind::Initial => 0u8,
            Rewind::Op(_) => 1,
            Rewind::Resume(..) => 2,
        };
        (self.reexec_start(), rank(self)) < (other.reexec_start(), rank(other))
    }
}

#[derive(Debug)]
struct GThread {
    started: bool,
    /// Index of the segment whose closing op is the next pending request.
    op_ix: usize,
    /// Time the thread arrives at that sync point (current body end).
    request_at: u64,
    /// Set while waiting inside a barrier (thread deregistered from the
    /// token rotation).
    in_barrier: bool,
    /// Pending barrier continuation: the next grant opens the continuation
    /// sub-thread instead of consuming an op.
    resume_barrier: Option<BarrierId>,
    done: bool,
    current_st: Option<SubThreadId>,
}

/// Runs a workload on the GPRS engine.
///
/// # Examples
/// ```
/// use gprs_sim::gprs::{run_gprs, GprsSimConfig};
/// use gprs_sim::workload::{Segment, SimOp, ThreadSpec, Workload};
/// use gprs_core::ids::{GroupId, ThreadId};
/// let w = Workload::new("tiny", vec![
///     ThreadSpec::new(ThreadId::new(0), GroupId::new(0), 1,
///                     vec![Segment::new(1_000, SimOp::End)]),
/// ]);
/// let r = run_gprs(&w, &GprsSimConfig::balance_aware(4));
/// assert!(r.completed);
/// assert_eq!(r.subthreads, 1);
/// ```
pub fn run_gprs(workload: &Workload, config: &GprsSimConfig) -> SimResult {
    Gprs::new(workload, config).run()
}

struct Gprs<'a> {
    w: &'a Workload,
    cfg: &'a GprsSimConfig,
    enforcer: OrderEnforcer,
    threads: Vec<GThread>,
    ctxs: Vec<u64>,
    bodies: HashMap<SubThreadId, Body>,
    /// Resource/thread lookup over the live window (see [`WindowIndex`]).
    windex: WindowIndex,
    rol: ReorderList,
    locks: HashMap<LockId, u64>,
    chans: HashMap<ChannelId, VecDeque<SubThreadId>>,
    /// producer sub-thread -> consumer sub-threads of its pushed items.
    consumers: HashMap<SubThreadId, Vec<SubThreadId>>,
    /// consumer sub-thread -> (channel, producer) of the item it popped;
    /// recovery undoes the pop by returning the item to the front.
    pop_sources: HashMap<SubThreadId, (ChannelId, SubThreadId)>,
    barrier_waiting: HashMap<BarrierId, Vec<usize>>,
    barrier_participants: HashMap<BarrierId, u32>,
    /// Number of releases each barrier has performed; decremented when a
    /// rewind undoes a release.
    barrier_gen: HashMap<BarrierId, u64>,
    injector: Option<ExceptionInjector>,
    /// Happens-before detector, driven at retirement (total order), so the
    /// first race reported is deterministic across runs and context counts.
    race: Option<RaceDetector>,
    /// Ahead-of-run static analysis report, carried into the result.
    analysis: Option<gprs_analyze::AnalysisReport>,
    latency: u64,
    token_time: u64,
    live: usize,
    finish: u64,
    res: SimResult,
    tel: Telemetry,
    sched_hash: ScheduleHash,
    retired_hash: RetiredOrderHash,
    raw_trace: Vec<(u64, u32)>,
    /// Durable mirror of the retirement stream (observability only; a
    /// persistence error silently disarms it for the rest of the run).
    persist: Option<Arc<dyn PersistBackend>>,
    /// Streaming schedule recorder (`GprsSimConfig::with_record`), sealed
    /// and written to `record_path` when the result is sealed.
    recorder: Option<Recorder>,
    record_path: Option<std::path::PathBuf>,
    /// Replay verifier over the tape that drives this run.
    replay: Option<ReplayVerifier>,
}

impl<'a> Gprs<'a> {
    fn new(w: &'a Workload, cfg: &'a GprsSimConfig) -> Self {
        let scheme = format!("GPRS-{}", cfg.schedule.tag());
        // Under replay the tape itself is the ordering policy: the token
        // follows the recorded grant order, and wasted polls hold the
        // cursor in place (`ReplaySchedule::pass` is a no-op).
        let replay = cfg.replay.clone().map(ReplayVerifier::new);
        let mut enforcer = match &replay {
            Some(v) => OrderEnforcer::new(Box::new(v.schedule())),
            None => OrderEnforcer::with_schedule(cfg.schedule),
        };
        let mut threads = Vec::with_capacity(w.threads.len());
        for t in &w.threads {
            enforcer
                .register_thread(t.thread, t.group, t.weight)
                .expect("dense unique thread ids");
            threads.push(GThread {
                started: false,
                op_ix: 0,
                request_at: 0,
                in_barrier: false,
                resume_barrier: None,
                done: false,
                current_st: None,
            });
        }
        let injector = cfg.exceptions.clone().map(ExceptionInjector::new);
        let latency = cfg
            .exceptions
            .as_ref()
            .map(|e| e.detection_latency)
            .unwrap_or(0);
        // Static pre-pass: a proven-DRF verdict makes the vector-clock
        // detector pure overhead; a potential race makes it mandatory (the
        // hybrid policy needs to know which threads are racy).
        let analysis = cfg.analysis.then(|| gprs_analyze::analyze(w));
        let racecheck = match &analysis {
            Some(rep) if rep.race_free() => false,
            Some(rep) if rep.advice == gprs_analyze::RecoveryAdvice::HybridCpr => true,
            _ => cfg.racecheck,
        };
        let mut g = Gprs {
            w,
            cfg,
            enforcer,
            threads,
            ctxs: vec![0; cfg.contexts.max(1) as usize],
            bodies: HashMap::new(),
            windex: WindowIndex::new(w.threads.len()),
            rol: ReorderList::new(),
            locks: HashMap::new(),
            chans: HashMap::new(),
            consumers: HashMap::new(),
            pop_sources: HashMap::new(),
            barrier_waiting: HashMap::new(),
            barrier_participants: w.barrier_participants().into_iter().collect(),
            barrier_gen: HashMap::new(),
            injector,
            race: racecheck.then(RaceDetector::new),
            analysis,
            latency,
            token_time: 0,
            live: w.threads.len(),
            finish: 0,
            res: SimResult::new(w.name.clone(), scheme),
            tel: Telemetry::new(&cfg.telemetry, cfg.contexts.max(1) as usize),
            // Domain-separated by workload name: structurally identical
            // programs (swaptions vs. histogram) must not collide.
            sched_hash: ScheduleHash::seeded(gprs_telemetry::name_seed(&w.name)),
            retired_hash: RetiredOrderHash::seeded(gprs_telemetry::name_seed(&w.name)),
            raw_trace: Vec::new(),
            persist: cfg.persist.clone(),
            recorder: cfg.record.as_ref().map(|(_, seed)| {
                Recorder::new(RecordingHeader {
                    workload: w.name.clone(),
                    seed: *seed,
                    mode: DriveMode::Sim,
                    schedule: cfg.schedule.tag().to_string(),
                    workers: cfg.contexts,
                    spec: None,
                    chaos: None,
                })
            }),
            record_path: cfg.record.as_ref().map(|(p, _)| p.clone()),
            replay,
        };
        if let Some(p) = &g.persist {
            let spec = DurableRecord::Spec {
                text: format!("sim {}", g.w.name),
            };
            if p.record(&spec).is_err() {
                g.persist = None;
            }
        }
        if let Some(rep) = &g.analysis {
            let elided = rep.race_free() && g.race.is_none();
            if g.tel.enabled() {
                let m = &g.tel.metrics;
                m.analysis_runs.inc();
                m.analysis_cells.add(rep.cells.len() as u64);
                m.analysis_potential_races.add(rep.potential_races() as u64);
                m.analysis_diagnostics.add(rep.diagnostics.len() as u64);
                if elided {
                    m.analysis_racecheck_elided.inc();
                }
                g.tel.record(
                    EXTERNAL_RING,
                    TraceEvent::AnalysisVerdict {
                        cells: rep.cells.len() as u32,
                        potential_races: rep.potential_races() as u32,
                        diagnostics: rep.diagnostics.len() as u32,
                        advice: matches!(rep.advice, gprs_analyze::RecoveryAdvice::HybridCpr)
                            as u8,
                        elided: elided as u8,
                    },
                );
            }
        }
        g
    }

    /// Mirrors one retirement into the durable log, in the same record
    /// shape the real runtime writes (so the two ledgers are comparable).
    fn durable_retire(&mut self, retired: &RolEntry) {
        let rec = DurableRecord::Retire {
            subthread: retired.id().raw(),
            thread: retired.thread().raw(),
            kind: retired.descriptor.kind.tag(),
            retired: self.rol.retired(),
            digest: self.retired_hash.digest(),
        };
        if let Some(p) = &self.persist {
            if p.record(&rec).is_err() {
                self.persist = None;
            }
        }
    }

    /// Feeds one turn-consuming event (a grant's sub-thread kind, or the
    /// structural `EVT_ARRIVE`/`EVT_EXIT` tags) to the recorder and/or the
    /// replay verifier — the simulator twin of the runtime engine's hook.
    /// Under replay the first mismatching event sets
    /// [`SimResult::replay_divergence`]; the token loop aborts to DNC on
    /// its next iteration.
    fn record_event(&mut self, thread: ThreadId, kind: u8) {
        if let Some(r) = self.recorder.as_mut() {
            r.record_event(thread.raw(), kind);
        }
        if let Some(msg) = self
            .replay
            .as_mut()
            .and_then(|v| v.check_event(thread.raw(), kind))
        {
            self.res.replay_divergence = Some(msg);
        }
    }

    /// Marks the run divergent and caps the clock (the DNC shape every
    /// replay failure degrades to).
    fn replay_abort(&mut self, msg: String) {
        self.res.replay_divergence = Some(msg);
        self.res.finish_cycles = self.cfg.time_cap_cycles;
    }

    /// Seals the telemetry summary and race verdict into the result (every
    /// exit path).
    fn finish_result(mut self) -> SimResult {
        if let Some(p) = self.persist.take() {
            let _ = p.sync();
        }
        if let Some(d) = &self.race {
            self.res.races = d.races();
            self.res.first_race = d.first_race().cloned();
        }
        // Final replay verification: a run that "completed" without
        // consuming the whole tape, or whose final digests disagree with
        // the recorded footer, diverged even if every verified event
        // matched — demote it to a named failure.
        if let Some(v) = self.replay.take() {
            if self.res.replay_divergence.is_none() && self.res.completed {
                self.res.replay_divergence =
                    v.check_final(self.sched_hash.digest(), self.retired_hash.digest());
            }
            if self.res.replay_divergence.is_some() {
                self.res.completed = false;
                self.res.finish_cycles = self.cfg.time_cap_cycles;
            }
        }
        // Seal and write the recording — for DNC runs too: a recording of
        // a failed run is what time-travel debugging exists for.
        if let (Some(r), Some(path)) = (self.recorder.take(), self.record_path.take()) {
            let outcome = if self.res.completed {
                RecordedOutcome::Complete
            } else {
                RecordedOutcome::Poisoned(
                    "did not complete within the time cap".to_string(),
                )
            };
            let rec = r.finish(self.sched_hash.digest(), self.retired_hash.digest(), outcome);
            if let Err(e) = rec.save(&path) {
                // The run itself is fine; the missing artifact must still
                // be loud. Demote to DNC with a named reason.
                self.res.completed = false;
                self.res.replay_divergence = Some(format!(
                    "failed to write recording to {}: {e}",
                    path.display()
                ));
            }
        }
        let raw = std::mem::take(&mut self.raw_trace);
        self.res.telemetry = self.tel.summarize(&self.sched_hash, &self.retired_hash, raw);
        self.res.analysis = self.analysis.take();
        self.res
    }

    /// Least-loaded context (the load-balancing sub-thread scheduler).
    fn pick_ctx(&self) -> usize {
        let mut best = 0;
        for (i, &avail) in self.ctxs.iter().enumerate() {
            if avail < self.ctxs[best] {
                best = i;
            }
        }
        best
    }

    /// Opens a new sub-thread for `th` at grant time `now`: pays the
    /// checkpoint + ordering costs, schedules the body on a context.
    ///
    /// `extra_cs` is the critical-section portion executed under `lock`.
    #[allow(clippy::too_many_arguments)]
    fn spawn_subthread(
        &mut self,
        th: usize,
        stid: SubThreadId,
        kind: SubThreadKind,
        opening_op: Option<SyncOp>,
        now: u64,
        body_seg_ix: usize,
        lock: Option<(LockId, u64)>,
    ) {
        let spec = &self.w.threads[th];
        let seg = &spec.segments[body_seg_ix];
        // Statically proven read-only boundary: the checkpoint records
        // nothing a rewind could need, so elision skips `t_s` entirely.
        // The grant itself (and its ordering cost) is untouched — elision
        // must never perturb the total order.
        let opening = body_seg_ix.checked_sub(1).map(|i| spec.segments[i].op);
        let elide = self.cfg.elide && gprs_analyze::checkpoint_elidable(opening, seg);
        let ts = if elide {
            0
        } else {
            self.cfg.costs.ckpt_cost(seg.ckpt_bytes)
        };
        let tg = self.cfg.costs.order_cost();
        self.res.ckpt_cycles += ts;
        if elide {
            self.res.checkpoints_elided += 1;
        } else {
            self.res.checkpoints += 1;
        }
        self.res.subthreads += 1;

        let ctx = self.pick_ctx();
        let mut start = (now + ts + tg).max(self.ctxs[ctx]);
        let nested = seg.nested.filter(|&m| lock.map(|(l, _)| l) != Some(m));
        if let Some((l, _)) = lock {
            start = start.max(self.locks.get(&l).copied().unwrap_or(0));
        }
        if let Some(m) = nested {
            // The body's nested critical section is flattened into this
            // sub-thread: it waits for the inner lock up front (while still
            // holding any outer lock — the hold-and-wait the lock-order
            // analysis reasons about) and holds it to the body's end.
            start = start.max(self.locks.get(&m).copied().unwrap_or(0));
        }
        let mut cs_work = 0;
        if let Some((l, cs)) = lock {
            cs_work = cs;
            self.locks.insert(l, start + cs);
        }
        let end = start + cs_work + seg.work;
        if let Some(m) = nested {
            self.locks.insert(m, end);
        }
        self.ctxs[ctx] = end;

        let (tid, bytes) = (spec.thread, seg.ckpt_bytes);
        self.sched_hash.record(stid.raw(), tid.raw());
        self.record_event(tid, kind.tag());
        if self.raw_trace.len() < self.cfg.telemetry.raw_trace_cap {
            self.raw_trace.push((stid.raw(), tid.raw()));
        }
        if self.tel.enabled() {
            let m = &self.tel.metrics;
            m.subthreads_created.inc();
            m.grants.inc();
            if elide {
                m.checkpoints_elided.inc();
            } else {
                m.checkpoints.inc();
                m.checkpoint_bytes.add(bytes);
                m.checkpoint_size.record(bytes);
            }
            self.tel.record(
                ctx,
                TraceEvent::SubThreadCreate {
                    subthread: stid.raw(),
                    thread: tid.raw(),
                    kind: kind.tag(),
                },
            );
            self.tel.record(ctx, TraceEvent::Grant { subthread: stid.raw(), thread: tid.raw() });
            if !elide {
                self.tel
                    .record(ctx, TraceEvent::CheckpointTaken { subthread: stid.raw(), bytes });
            }
        }

        let descriptor = SubThread::new(stid, spec.thread, spec.group, kind, opening_op);
        self.rol.insert(descriptor).expect("grants are in order");
        if let Some(m) = nested {
            // The nested lock is a dependence alias (recovery) and a sync
            // guard (racecheck) for this sub-thread.
            self.rol
                .add_resource(stid, ResourceId::Lock(m))
                .expect("just inserted");
        }
        self.bodies.insert(
            stid,
            Body {
                thread: th,
                ctx,
                start,
                end,
                kind,
                seg_ix: body_seg_ix,
            },
        );
        // The alias set is final here: the sim only attaches resources at
        // grant time (opening op + the nested lock above).
        let entry = self.rol.get(stid).expect("just inserted");
        self.windex.insert(stid, th, &entry.resources);
        let t = &mut self.threads[th];
        t.current_st = Some(stid);
        t.request_at = end;
    }

    /// Marks `th`'s current sub-thread completed and retires what it can.
    fn complete_current(&mut self, th: usize) {
        if let Some(prev) = self.threads[th].current_st.take() {
            self.rol
                .mark_completed(prev)
                .expect("current sub-thread is in the ROL");
        }
        for retired in self.rol.retire_ready() {
            self.retired_hash
                .record(retired.thread().raw(), retired.descriptor.kind.tag());
            if self.persist.is_some() {
                self.durable_retire(&retired);
            }
            if self.race.is_some() {
                self.race_retire(&retired);
            }
            if self.tel.enabled() {
                self.tel.metrics.retired.inc();
                let ctx = self.bodies.get(&retired.id()).map_or(EXTERNAL_RING, |b| b.ctx);
                self.tel.record(
                    ctx,
                    TraceEvent::Retire {
                        subthread: retired.id().raw(),
                        thread: retired.thread().raw(),
                    },
                );
            }
            if let Some(body) = self.bodies.remove(&retired.id()) {
                // A retiring entry's resources are intact (only squash
                // clears them), so deregistering by them matches insert.
                self.windex.remove(retired.id(), body.thread, &retired.resources);
            }
            self.consumers.remove(&retired.id());
            self.pop_sources.remove(&retired.id());
        }
        self.res.rol_peak = self.res.rol_peak.max(self.rol.peak_occupancy());
        if self.tel.enabled() {
            self.tel
                .metrics
                .rol_occupancy_hw
                .observe(self.rol.peak_occupancy() as u64);
        }
    }

    /// Feeds one retiring sub-thread to the happens-before detector,
    /// translating trace-level structure into acquire/release edges. Runs in
    /// retired (total) order, so race reports are deterministic across runs
    /// and context counts.
    fn race_retire(&mut self, entry: &gprs_core::rol::RolEntry) {
        let id = entry.id();
        let Some(body) = self.bodies.get(&id).copied() else {
            return;
        };
        let spec = &self.w.threads[body.thread];
        let open = match body.kind {
            SubThreadKind::ChannelAccess => match spec.segments[body.seg_ix - 1].op {
                SimOp::Push { chan } => Some(OpenEdge::ChanPush(chan)),
                SimOp::Pop { chan } => Some(OpenEdge::ChanPop {
                    chan,
                    producer: self.pop_sources.get(&id).map(|&(_, p)| p),
                }),
                _ => None,
            },
            SubThreadKind::BarrierContinuation => {
                let arrival = body.seg_ix - 1;
                let SimOp::Barrier { barrier } = spec.segments[arrival].op else {
                    unreachable!("a continuation follows its arrival op")
                };
                Some(OpenEdge::BarrierResume {
                    barrier,
                    gen: self.arrival_gen(body.thread, arrival, barrier),
                })
            }
            // Lock and atomic acquire edges are covered by `sync_resources`.
            _ => None,
        };
        let sync: Vec<ResourceId> = entry
            .resources
            .iter()
            .copied()
            .filter(|r| matches!(r, ResourceId::Lock(_) | ResourceId::Atomic(_)))
            .collect();
        let seg = &spec.segments[body.seg_ix];
        let accesses: Vec<(ResourceId, gprs_core::racecheck::AccessKind)> = seg
            .plain
            .map(|(a, kind)| {
                kind.accesses()
                    .iter()
                    .map(|&k| (ResourceId::Atomic(a), k))
                    .collect()
            })
            .unwrap_or_default();
        let arrival = match seg.op {
            SimOp::Barrier { barrier } => {
                Some((barrier, self.arrival_gen(body.thread, body.seg_ix, barrier)))
            }
            _ => None,
        };
        let thread = spec.thread;
        let detector = self.race.as_mut().expect("guarded by caller");
        let races = detector.retire(RetireInfo {
            id,
            thread,
            open,
            sync_resources: &sync,
            accesses: &accesses,
            arrival,
        });
        if !races.is_empty() && self.tel.enabled() {
            self.tel.metrics.races_detected.add(races.len() as u64);
            for r in &races {
                self.tel.record(
                    body.ctx,
                    TraceEvent::RaceDetected {
                        subthread: r.current.subthread.raw(),
                        prior: r.prior.subthread.raw(),
                        resource: resource_code(r.resource),
                    },
                );
            }
        }
    }

    /// The affected set of `culprit`: same-thread successors, consumers of
    /// its pushed items, and younger lock/atomic-alias sharers — closed
    /// transitively. When the culprit's thread has participated in a
    /// detected data race, provenance-based selective scope is unsound
    /// (racy plain accesses leave no alias trail), so recovery escalates to
    /// basic scope for this session — the hybrid policy.
    fn affected_set(&self, culprit: SubThreadId) -> Vec<SubThreadId> {
        let escalate = self.cfg.recovery == RecoveryScope::Selective
            && self.race.as_ref().is_some_and(|d| {
                self.bodies
                    .get(&culprit)
                    .is_some_and(|b| d.is_racy_thread(self.w.threads[b.thread].thread))
            });
        if escalate {
            self.note_escalation(culprit);
            return self.rol.squash_suffix(culprit);
        }
        if self.cfg.recovery == RecoveryScope::Basic {
            return self.rol.squash_suffix(culprit);
        }
        // Worklist closure over the window index. Taint flows old -> young
        // only, so a tainted sub-thread `x` contributes exactly the
        // *younger* in-window entries that share its thread, a non-channel
        // alias, or consumed one of its items. That is equivalent to the
        // original single ascending ROL pass (an entry older than its
        // tainter was visited before the tainter's taint existed), but each
        // step costs index lookups instead of an O(window) rescan.
        let mut affected: std::collections::BTreeSet<SubThreadId> =
            std::collections::BTreeSet::new();
        let mut pending: std::collections::BTreeSet<SubThreadId> =
            std::collections::BTreeSet::new();
        pending.insert(culprit);
        while let Some(x) = pending.pop_first() {
            if !affected.insert(x) {
                continue;
            }
            let younger = (std::ops::Bound::Excluded(x), std::ops::Bound::Unbounded);
            if let Some(body) = self.bodies.get(&x) {
                pending.extend(
                    self.windex.by_thread[body.thread]
                        .range(younger)
                        .filter(|c| !affected.contains(c)),
                );
            }
            if let Some(e) = self.rol.get(x) {
                for r in &e.resources {
                    // Channels are runtime-managed: a pop is undone by
                    // returning the item to the front, so the channel id
                    // itself is not a taint alias — item provenance
                    // (`consumers`, below) is.
                    if matches!(r, gprs_core::ids::ResourceId::Channel(_)) {
                        continue;
                    }
                    if let Some(sharers) = self.windex.by_resource.get(r) {
                        pending
                            .extend(sharers.range(younger).filter(|c| !affected.contains(c)));
                    }
                }
            }
            if let Some(cs) = self.consumers.get(&x) {
                // Consumer lists can retain retired ids (only the producer's
                // own map entry is dropped at its retirement), so gate on
                // window membership like the ascending pass did.
                pending.extend(cs.iter().filter(|&&c| {
                    c > x && !affected.contains(&c) && self.bodies.contains_key(&c)
                }));
            }
        }
        let affected: Vec<SubThreadId> = affected.into_iter().collect();
        debug_assert_eq!(
            affected,
            self.affected_set_rescan(culprit),
            "window-index closure diverged from the ROL rescan"
        );
        affected
    }

    /// The original O(window) taint pass over the reorder list, kept as the
    /// debug-build oracle for the index-driven closure in
    /// [`Gprs::affected_set`].
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn affected_set_rescan(&self, culprit: SubThreadId) -> Vec<SubThreadId> {
        let mut affected: std::collections::BTreeSet<SubThreadId> =
            std::collections::BTreeSet::new();
        affected.insert(culprit);
        let mut tainted_threads: std::collections::BTreeSet<ThreadId> =
            std::collections::BTreeSet::new();
        let mut tainted_resources: std::collections::BTreeSet<gprs_core::ids::ResourceId> =
            std::collections::BTreeSet::new();
        let mut tainted_items: std::collections::BTreeSet<SubThreadId> =
            std::collections::BTreeSet::new();
        if let Some(e) = self.rol.get(culprit) {
            tainted_threads.insert(e.thread());
            for r in &e.resources {
                if !matches!(r, gprs_core::ids::ResourceId::Channel(_)) {
                    tainted_resources.insert(*r);
                }
            }
        }
        tainted_items.insert(culprit);
        // Single ascending pass: taint flows old -> young only.
        for e in self.rol.iter_younger(culprit) {
            let id = e.id();
            let same_thread = tainted_threads.contains(&e.thread());
            let shares_alias = e.resources.iter().any(|r| {
                !matches!(r, gprs_core::ids::ResourceId::Channel(_))
                    && tainted_resources.contains(r)
            });
            let consumed_tainted = tainted_items
                .iter()
                .any(|p| self.consumers.get(p).is_some_and(|c| c.contains(&id)));
            if same_thread || shares_alias || consumed_tainted {
                affected.insert(id);
                tainted_threads.insert(e.thread());
                tainted_items.insert(id);
                for r in &e.resources {
                    if !matches!(r, gprs_core::ids::ResourceId::Channel(_)) {
                        tainted_resources.insert(*r);
                    }
                }
            }
        }
        affected.into_iter().collect()
    }

    /// Records a hybrid Selective-to-Basic escalation in telemetry (the
    /// counters are atomic, so this works from the `&self` scope pass).
    fn note_escalation(&self, culprit: SubThreadId) {
        if !self.tel.enabled() {
            return;
        }
        self.tel.metrics.hybrid_escalations.inc();
        let thread = self.bodies[&culprit].thread;
        self.tel.record(
            EXTERNAL_RING,
            TraceEvent::HybridEscalation {
                culprit: culprit.raw(),
                thread: self.w.threads[thread].thread.raw(),
            },
        );
    }

    /// Which release of barrier `b` the arrival at segment `arrival_ix` of
    /// thread `th` belongs to (each participant arrives once per release).
    fn arrival_gen(&self, th: usize, arrival_ix: usize, b: BarrierId) -> u64 {
        self.w.threads[th].segments[..arrival_ix]
            .iter()
            .filter(|s| matches!(s.op, SimOp::Barrier { barrier } if barrier == b))
            .count() as u64
    }

    /// Segment index of thread `th`'s arrival for release `gen` of `b`.
    fn nth_arrival_ix(&self, th: usize, b: BarrierId, gen: u64) -> usize {
        let mut seen = 0u64;
        for (i, s) in self.w.threads[th].segments.iter().enumerate() {
            if matches!(s.op, SimOp::Barrier { barrier } if barrier == b) {
                if seen == gen {
                    return i;
                }
                seen += 1;
            }
        }
        unreachable!("a recorded release implies the arrival exists in the trace")
    }

    /// The rewind that re-issues squashed sub-thread `body`.
    fn rewind_for(&self, body: &Body) -> Rewind {
        match body.kind {
            SubThreadKind::Initial => Rewind::Initial,
            SubThreadKind::BarrierContinuation => {
                let arrival = body.seg_ix - 1;
                let SimOp::Barrier { barrier } = self.w.threads[body.thread].segments[arrival].op
                else {
                    unreachable!("a continuation follows its arrival op")
                };
                Rewind::Resume(barrier, body.seg_ix)
            }
            _ => Rewind::Op(body.seg_ix - 1),
        }
    }

    /// Closes the squash set and derives per-thread rewind targets.
    ///
    /// Three closure rules iterate to a fixed point:
    /// - each affected thread rewinds to its *oldest* squashed sub-thread,
    ///   and everything at or past that re-entry point is re-executed, so it
    ///   is swept into the squash set (nothing may retire twice);
    /// - consumers of a squashed producer's items are squashed (their pops
    ///   are undone by returning the item to the channel front);
    /// - a rewind that crosses an already-consumed barrier arrival undoes
    ///   that release (and every later one): all participants are forced
    ///   back to their own arrival so the barrier re-synchronizes.
    ///
    /// Returns the squash set, the rewind targets, and the undone releases.
    #[allow(clippy::type_complexity)]
    fn plan_recovery(
        &self,
        affected: &[SubThreadId],
    ) -> (
        std::collections::BTreeSet<SubThreadId>,
        BTreeMap<usize, Rewind>,
        std::collections::BTreeSet<(BarrierId, u64)>,
    ) {
        let mut squash: std::collections::BTreeSet<SubThreadId> =
            affected.iter().copied().collect();
        let mut targets: BTreeMap<usize, Rewind> = BTreeMap::new();
        let mut undone: std::collections::BTreeSet<(BarrierId, u64)> =
            std::collections::BTreeSet::new();
        loop {
            let mut changed = false;
            // Oldest squashed sub-thread per thread decides the rewind.
            for &sid in &squash {
                let body = &self.bodies[&sid];
                let r = self.rewind_for(body);
                let better = match targets.get(&body.thread) {
                    Some(&cur) => r.precedes(cur),
                    None => true,
                };
                if better {
                    targets.insert(body.thread, r);
                    changed = true;
                }
            }
            // Everything the rewind re-executes must be squashed. The
            // window index partitions live bodies by thread, so each target
            // sweeps only its own thread's in-window sub-threads instead of
            // every live body.
            for (&th, &tgt) in &targets {
                for &sid in &self.windex.by_thread[th] {
                    let body = &self.bodies[&sid];
                    debug_assert_eq!(body.thread, th, "window index out of sync");
                    if body.seg_ix >= tgt.reexec_start() && squash.insert(sid) {
                        changed = true;
                    }
                }
            }
            // Consumers of squashed producers are squashed too.
            for sid in squash.clone() {
                if let Some(cs) = self.consumers.get(&sid) {
                    for &c in cs {
                        if self.rol.contains(c) && squash.insert(c) {
                            changed = true;
                        }
                    }
                }
            }
            // Crossing a consumed arrival undoes its (and every later)
            // release of that barrier for all participants.
            let snapshot: Vec<(usize, Rewind)> =
                targets.iter().map(|(&t, &r)| (t, r)).collect();
            for (th, tgt) in snapshot {
                let to = self.threads[th].op_ix;
                let segs = &self.w.threads[th].segments;
                for (a, s) in segs.iter().enumerate().take(to).skip(tgt.op_ix()) {
                    let SimOp::Barrier { barrier } = s.op else { continue };
                    let first = self.arrival_gen(th, a, barrier);
                    let released = self.barrier_gen.get(&barrier).copied().unwrap_or(0);
                    for g in first..released {
                        if !undone.insert((barrier, g)) {
                            continue;
                        }
                        changed = true;
                        for m in 0..self.w.threads.len() {
                            let participates = self.w.threads[m]
                                .segments
                                .iter()
                                .any(|s| matches!(s.op, SimOp::Barrier { barrier: b } if b == barrier));
                            if !participates {
                                continue;
                            }
                            let forced = Rewind::Op(self.nth_arrival_ix(m, barrier, g));
                            let better = match targets.get(&m) {
                                Some(&cur) => forced.precedes(cur),
                                None => true,
                            };
                            if better {
                                targets.insert(m, forced);
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        (squash, targets, undone)
    }

    /// Drains exceptions reported up to `now`, squashing the affected set
    /// out of the reorder list and rewinding the victimized threads so the
    /// token loop re-executes the work as fresh grants. Returns `false` on
    /// exceeding the time cap.
    fn drain_exceptions(&mut self, now: u64) -> bool {
        let latency = self.latency;
        let pending = {
            let Some(inj) = self.injector.as_mut() else {
                return true;
            };
            let mut v = Vec::new();
            while let Some(raise) = inj.peek_next() {
                if raise.saturating_add(latency) > now {
                    break;
                }
                v.push(inj.next_before(raise + 1).expect("peeked arrival"));
                if v.len() > 2_000_000 {
                    // Divergence guard (see the free engine).
                    return false;
                }
            }
            v
        };
        for e in pending {
            let raise = e.raised_at;
            let report = e.reported_at();
            self.res.exceptions += 1;
            if e.scope == gprs_core::exception::ExceptionScope::Local {
                // Local exceptions are handled by ordinary precise
                // interrupts on the victim context (`§2.2`): counted, but
                // no global recovery and nothing squashed.
                self.res.exceptions_ignored += 1;
                continue;
            }
            let victim = (e.victim.raw() as usize) % self.ctxs.len();
            // The sub-thread whose body occupied the victim context when the
            // exception was raised.
            let culprit = self
                .bodies
                .iter()
                .find(|(_, b)| b.ctx == victim && b.start <= raise && raise < b.end)
                .map(|(&id, _)| id);
            let Some(culprit) = culprit else {
                self.res.exceptions_ignored += 1;
                continue;
            };
            self.rol
                .mark_excepted(culprit, e)
                .expect("culprit body implies ROL entry");
            let affected = self.affected_set(culprit);
            if self.tel.enabled() {
                self.tel.metrics.recovery_sessions.inc();
                self.tel
                    .record(victim, TraceEvent::RecoveryBegin { culprit: culprit.raw() });
            }
            let (squash, targets, undone) = self.plan_recovery(&affected);
            let culprit_th = self.bodies[&culprit].thread;
            // Remove squashed entries youngest-first, undoing channel
            // effects: a squashed pop returns the item to the channel
            // front, a squashed push withdraws its item. The entries leave
            // the reorder list entirely — their re-executions are fresh
            // grants that re-enter retirement in total order.
            for &sid in squash.iter().rev() {
                let body = self.bodies.remove(&sid).expect("squashed entries are live");
                let executed = report.min(body.end).saturating_sub(body.start);
                self.res.squashed += 1;
                self.res.redo_cycles += executed;
                if let Some((chan, producer)) = self.pop_sources.remove(&sid) {
                    self.chans.entry(chan).or_default().push_front(producer);
                }
                if body.kind == SubThreadKind::ChannelAccess {
                    if let SimOp::Push { chan } =
                        self.w.threads[body.thread].segments[body.seg_ix - 1].op
                    {
                        if let Some(q) = self.chans.get_mut(&chan) {
                            if let Some(p) = q.iter().position(|&x| x == sid) {
                                q.remove(p);
                            }
                        }
                    }
                }
                // Deregister before `mark_squashed` clears the entry's
                // accumulated aliases — the index must be unwound with the
                // same set it was registered under.
                let entry = self.rol.get(sid).expect("squashed in ROL");
                self.windex.remove(sid, body.thread, &entry.resources);
                self.rol.mark_squashed(sid).expect("squashed in ROL");
                self.rol.remove_squashed(sid).expect("just marked squashed");
                self.consumers.remove(&sid);
                if let Some(d) = self.race.as_mut() {
                    d.forget_subthread(sid);
                }
                if self.tel.enabled() {
                    self.tel.metrics.squashed.inc();
                    self.tel.record(
                        body.ctx,
                        TraceEvent::Squash {
                            subthread: sid.raw(),
                            thread: self.w.threads[body.thread].thread.raw(),
                        },
                    );
                }
            }
            for list in self.consumers.values_mut() {
                list.retain(|c| !squash.contains(c));
            }
            // Chaos-oracle quiescence: squashed entries leave the reorder
            // list *entirely* (they are never re-issued in place — their
            // re-executions are fresh grants), so no stale ROL entry can
            // pollute the retired order after recovery.
            debug_assert!(
                squash
                    .iter()
                    .all(|s| !self.rol.contains(*s) && !self.bodies.contains_key(s)),
                "squashed sub-threads must leave the ROL and body map entirely"
            );
            // Retract undone barrier releases; every participant was forced
            // back to its own arrival, so the barrier re-synchronizes.
            for &(b, g) in &undone {
                let e = self.barrier_gen.entry(b).or_insert(g);
                if g < *e {
                    *e = g;
                }
            }
            // Rewind the victimized threads: they re-request at the report
            // time plus the restore wait (the culprit's thread additionally
            // pays the REX pause + state-reinstatement cost, once).
            for (&th, &tgt) in &targets {
                let was_waiting = self.threads[th].in_barrier;
                let was_done = self.threads[th].done;
                if was_waiting {
                    for q in self.barrier_waiting.values_mut() {
                        q.retain(|&x| x != th);
                    }
                }
                let restore = self.cfg.costs.restore_wait
                    + if th == culprit_th {
                        self.cfg.costs.gprs_restore
                    } else {
                        0
                    };
                let t = &mut self.threads[th];
                t.current_st = None;
                t.in_barrier = false;
                t.done = false;
                match tgt {
                    Rewind::Initial => {
                        t.started = false;
                        t.op_ix = 0;
                        t.resume_barrier = None;
                    }
                    Rewind::Op(i) => {
                        t.op_ix = i;
                        t.resume_barrier = None;
                    }
                    Rewind::Resume(b, i) => {
                        t.op_ix = i;
                        t.resume_barrier = Some(b);
                    }
                }
                t.request_at = report + restore;
                self.res.redo_cycles += restore;
                if was_done {
                    self.live += 1;
                }
                if was_waiting || was_done {
                    let spec = &self.w.threads[th];
                    self.enforcer
                        .register_thread(spec.thread, spec.group, spec.weight)
                        .expect("was deregistered");
                }
                if self.tel.enabled() {
                    self.tel.metrics.restarts.inc();
                    self.tel.record(
                        EXTERNAL_RING,
                        TraceEvent::Restart { thread: self.w.threads[th].thread.raw() },
                    );
                }
            }
            if self.tel.enabled() {
                self.tel
                    .metrics
                    .squashed_per_recovery
                    .record(squash.len() as u64);
                self.tel.record(
                    victim,
                    TraceEvent::RecoveryEnd {
                        culprit: culprit.raw(),
                        squashed: squash.len() as u64,
                    },
                );
            }
            if now > self.cfg.time_cap_cycles {
                return false;
            }
        }
        true
    }

    /// Runs the token loop until every live thread has consumed its `End`
    /// op. Returns `false` on a DNC (time cap or ill-formed deadlock), with
    /// `res.finish_cycles` already set.
    fn token_loop(&mut self, poll_cost: u64) -> bool {
        while self.live > 0 {
            if self.res.replay_divergence.is_some() {
                // A verification hook flagged a divergence mid-grant; stop
                // before the live run drifts further from the tape.
                self.res.finish_cycles = self.cfg.time_cap_cycles;
                return false;
            }
            let Some(holder) = self.enforcer.holder() else {
                if let Some(msg) = self.replay.as_ref().and_then(|v| v.exhausted(self.live)) {
                    self.replay_abort(msg);
                    return false;
                }
                // Everyone deregistered (barrier deadlock in an ill-formed
                // trace): DNC.
                self.res.finish_cycles = self.cfg.time_cap_cycles;
                return false;
            };
            let th = holder.raw() as usize;
            if th >= self.threads.len() {
                self.replay_abort(format!(
                    "replay divergence: recorded thread {} does not exist in \
                     workload {:?} ({} threads)",
                    holder.raw(),
                    self.w.name,
                    self.threads.len()
                ));
                return false;
            }
            if self.threads[th].done {
                if self.enforcer.deregister_thread(holder).is_err() {
                    self.replay_abort(format!(
                        "replay divergence: token holder thread {} is done \
                         and already deregistered (tampered tape or corrupted \
                         schedule state)",
                        holder.raw()
                    ));
                    return false;
                }
                continue;
            }
            let req = self.threads[th].request_at;
            let now = self.token_time.max(req);
            if now > self.cfg.time_cap_cycles {
                self.res.finish_cycles = self.cfg.time_cap_cycles;
                return false;
            }
            if !self.drain_exceptions(now) {
                self.res.finish_cycles = self.cfg.time_cap_cycles;
                return false;
            }
            if self.threads[th].request_at != req {
                // Recovery rewound or delayed the holder; re-evaluate.
                continue;
            }

            // Decide the pending operation.
            let t = &self.threads[th];
            if !t.started {
                let stid = self.enforcer.try_grant(holder).expect("holder");
                self.res.ordering_wait_cycles += now - req;
                self.token_time = now;
                self.threads[th].started = true;
                self.spawn_subthread(th, stid, SubThreadKind::Initial, None, now, 0, None);
                continue;
            }
            if let Some(b) = t.resume_barrier {
                let stid = self.enforcer.try_grant(holder).expect("holder");
                self.res.ordering_wait_cycles += now - req;
                self.token_time = now;
                self.threads[th].resume_barrier = None;
                let body_ix = self.threads[th].op_ix;
                self.spawn_subthread(
                    th,
                    stid,
                    SubThreadKind::BarrierContinuation,
                    Some(SyncOp::BarrierWait(b)),
                    now,
                    body_ix,
                    None,
                );
                continue;
            }

            let op_ix = t.op_ix;
            let op = self.w.threads[th].segments[op_ix].op;
            match op {
                SimOp::Pop { chan } if self.chans.entry(chan).or_default().is_empty() => {
                    // Under replay this cannot happen on a faithful tape:
                    // channel contents are a function of the granted-event
                    // prefix, so the recorded Pop found an item. An empty
                    // queue means the tape lies about this schedule — and
                    // since `ReplaySchedule::pass` holds the cursor, passing
                    // here would spin forever. Abort by name instead.
                    if let Some(pos) = self.replay.as_ref().map(ReplayVerifier::verified) {
                        self.replay_abort(format!(
                            "replay divergence at event {pos}: recorded \
                             thread {} polls an empty channel the recording \
                             granted",
                            holder.raw()
                        ));
                        return false;
                    }
                    // Empty FIFO: the holder wastes its turn and re-polls on
                    // its next turn (Figure 7).
                    self.enforcer.pass_turn(holder);
                    self.res.polls += 1;
                    self.token_time = now + poll_cost;
                    continue;
                }
                _ => {}
            }

            let stid = self.enforcer.try_grant(holder).expect("holder");
            self.res.ordering_wait_cycles += now - req;
            self.token_time = now;
            
            self.complete_current(th);

            match op {
                SimOp::Lock { lock, cs_work } => {
                    self.threads[th].op_ix = op_ix + 1;
                    self.spawn_subthread(
                        th,
                        stid,
                        SubThreadKind::CriticalSection,
                        Some(SyncOp::LockAcquire(lock)),
                        now,
                        op_ix + 1,
                        Some((lock, cs_work)),
                    );
                }
                SimOp::Atomic { atomic } => {
                    self.threads[th].op_ix = op_ix + 1;
                    self.spawn_subthread(
                        th,
                        stid,
                        SubThreadKind::AtomicOp,
                        Some(SyncOp::Atomic(atomic)),
                        now,
                        op_ix + 1,
                        None,
                    );
                }
                SimOp::Push { chan } => {
                    // Provenance is the pushing sub-thread: squashing it
                    // un-pushes the item, so the consumer belongs to its
                    // closure (the value's computing sub-thread is covered
                    // transitively via the same-thread rule).
                    let producer = stid;
                    self.chans.entry(chan).or_default().push_back(producer);
                    self.threads[th].op_ix = op_ix + 1;
                    self.spawn_subthread(
                        th,
                        stid,
                        SubThreadKind::ChannelAccess,
                        Some(SyncOp::ChanPush(chan)),
                        now,
                        op_ix + 1,
                        None,
                    );
                }
                SimOp::Pop { chan } => {
                    let producer = self
                        .chans
                        .get_mut(&chan)
                        .and_then(|q| q.pop_front())
                        .expect("guarded by the empty-poll arm");
                    if self.rol.contains(producer) {
                        self.consumers.entry(producer).or_default().push(stid);
                    }
                    self.pop_sources.insert(stid, (chan, producer));
                    self.threads[th].op_ix = op_ix + 1;
                    self.spawn_subthread(
                        th,
                        stid,
                        SubThreadKind::ChannelAccess,
                        Some(SyncOp::ChanPop(chan)),
                        now,
                        op_ix + 1,
                        None,
                    );
                }
                SimOp::Barrier { barrier } => {
                    // Structural turn-consuming event: recorded/verified
                    // like a grant, with the `EVT_ARRIVE` tag (no
                    // sub-thread opens here in either engine).
                    self.record_event(holder, EVT_ARRIVE);
                    self.threads[th].op_ix = op_ix + 1;
                    self.threads[th].in_barrier = true;
                    self.enforcer.deregister_thread(holder).expect("registered");
                    let waiting = self.barrier_waiting.entry(barrier).or_default();
                    waiting.push(th);
                    let needed = self.barrier_participants[&barrier] as usize;
                    if waiting.len() == needed {
                        let mut batch =
                            std::mem::take(self.barrier_waiting.get_mut(&barrier).unwrap());
                        batch.sort_unstable();
                        *self.barrier_gen.entry(barrier).or_insert(0) += 1;
                        for wth in batch {
                            let spec = &self.w.threads[wth];
                            self.enforcer
                                .register_thread(spec.thread, spec.group, spec.weight)
                                .expect("was deregistered");
                            let t = &mut self.threads[wth];
                            t.in_barrier = false;
                            t.resume_barrier = Some(barrier);
                            t.request_at = now;
                        }
                    }
                }
                SimOp::End => {
                    self.record_event(holder, EVT_EXIT);
                    self.threads[th].done = true;
                    self.live -= 1;
                    self.finish = self.finish.max(now);
                    self.enforcer.deregister_thread(holder).expect("registered");
                }
            }
        }
        true
    }

    fn run(mut self) -> SimResult {
        // Record + replay in one run would write a recording whose footer
        // digests can never differ from the tape that drove it — a useless
        // artifact that looks authoritative. Refuse loudly instead.
        if self.recorder.is_some() && self.replay.is_some() {
            self.recorder = None;
            self.record_path = None;
            self.replay_abort(RECORD_AND_REPLAY.to_string());
            return self.finish_result();
        }
        if let Some(msg) = self.replay.as_ref().and_then(|v| v.check_mode(DriveMode::Sim)) {
            self.replay_abort(msg);
            return self.finish_result();
        }
        let poll_cost = self.cfg.costs.poll.max(1);
        loop {
            if !self.token_loop(poll_cost) {
                return self.finish_result();
            }
            // Final drain: exceptions reported before the finish time still
            // trigger recovery, and each recovery can extend the finish time
            // (context busy times grow) or even revive a finished thread —
            // iterate to the fixed point, re-entering the token loop when a
            // recovery rewound a thread past its `End`.
            let mut finish = self
                .finish
                .max(self.ctxs.iter().copied().max().unwrap_or(0));
            loop {
                if finish > self.cfg.time_cap_cycles || !self.drain_exceptions(finish) {
                    self.res.finish_cycles = self.cfg.time_cap_cycles;
                    return self.finish_result();
                }
                if self.live > 0 {
                    break;
                }
                let new_finish = self
                    .finish
                    .max(self.ctxs.iter().copied().max().unwrap_or(0));
                if new_finish == finish {
                    break;
                }
                finish = new_finish;
            }
            if self.live > 0 {
                continue;
            }
            self.res.completed = true;
            self.res.finish_cycles = finish;
            return self.finish_result();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{secs_to_cycles, CYCLES_PER_SEC};
    use crate::free::{run_free, FreeRunConfig};
    use crate::workload::{Segment, ThreadSpec};
    use gprs_core::ids::GroupId;

    fn spec(th: u32, group: u32, weight: u32, segs: Vec<Segment>) -> ThreadSpec {
        ThreadSpec::new(ThreadId::new(th), GroupId::new(group), weight, segs)
    }

    fn data_parallel(threads: u32, work: u64) -> Workload {
        Workload::new(
            "dp",
            (0..threads)
                .map(|i| spec(i, 0, 1, vec![Segment::new(work, SimOp::End)]))
                .collect(),
        )
    }

    /// A Pbzip2-shaped pipeline: one reader (group 0) pushing `blocks`
    /// items, `compressors` compress threads (group 1) popping them.
    fn pipeline(blocks: usize, compressors: u32, read_work: u64, compress_work: u64) -> Workload {
        let chan = ChannelId::new(0);
        let mut threads = vec![spec(
            0,
            0,
            4,
            (0..blocks)
                .map(|_| Segment::new(read_work, SimOp::Push { chan }))
                .collect(),
        )];
        let per = blocks / compressors as usize;
        for c in 0..compressors {
            threads.push(spec(
                1 + c,
                1,
                4,
                (0..per)
                    .flat_map(|_| {
                        [
                            Segment::new(0, SimOp::Pop { chan }),
                            Segment::new(compress_work, SimOp::Atomic {
                                atomic: gprs_core::ids::AtomicId::new(1),
                            }),
                        ]
                    })
                    .collect(),
            ));
        }
        Workload::new("pipeline", threads)
    }

    #[test]
    fn data_parallel_runs_and_counts_subthreads() {
        let w = data_parallel(4, 1_000_000);
        let r = run_gprs(&w, &GprsSimConfig::balance_aware(4));
        assert!(r.completed);
        assert_eq!(r.subthreads, 4); // one initial sub-thread per thread
        assert_eq!(r.checkpoints, 4);
        assert!(r.finish_cycles >= 1_000_000);
    }

    #[test]
    fn gprs_is_deterministic() {
        let w = pipeline(40, 3, 10_000, 200_000);
        let a = run_gprs(&w, &GprsSimConfig::balance_aware(4));
        let b = run_gprs(&w, &GprsSimConfig::balance_aware(4));
        assert_eq!(a, b);
    }

    #[test]
    fn round_robin_serializes_pipeline_balance_aware_restores_it() {
        // Figure 7: with a compute-heavy compress stage, round-robin starves
        // the compressors (each gets work only when the token happens to
        // align), while balance-aware keeps them all busy.
        let w = pipeline(120, 6, 10_000, 2_000_000);
        let rr = run_gprs(&w, &GprsSimConfig::round_robin(8));
        let ba = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        assert!(rr.completed && ba.completed);
        assert!(
            rr.finish_cycles > ba.finish_cycles * 2,
            "round-robin {} vs balance-aware {}",
            rr.finish_cycles,
            ba.finish_cycles
        );
    }

    #[test]
    fn pipeline_empty_polls_are_counted() {
        let w = pipeline(20, 2, 500_000, 100_000);
        let r = run_gprs(&w, &GprsSimConfig::round_robin(4));
        assert!(r.completed);
        assert!(r.polls > 0, "slow producer must cause empty polls");
    }

    #[test]
    fn gprs_matches_pthreads_within_overheads() {
        // For embarrassingly parallel work the GPRS time must equal the
        // Pthreads time plus bounded mechanism overheads.
        let w = data_parallel(4, 50_000_000);
        let pt = run_free(&w, &FreeRunConfig::pthreads(4));
        let g = run_gprs(&w, &GprsSimConfig::balance_aware(4));
        assert!(g.finish_cycles >= pt.finish_cycles);
        let overhead = g.finish_cycles as f64 / pt.finish_cycles as f64;
        assert!(overhead < 1.05, "overhead {overhead}");
    }

    #[test]
    fn load_balancing_packs_uneven_subthreads() {
        // 8 uneven tasks on 2 contexts: task-pool packing beats
        // thread-pinned execution when granularity is finer.
        let coarse = Workload::new(
            "coarse",
            vec![
                spec(0, 0, 1, vec![Segment::new(8_000_000, SimOp::End)]),
                spec(1, 0, 1, vec![Segment::new(1_000_000, SimOp::End)]),
            ],
        );
        let fine = Workload::new(
            "fine",
            (0..6)
                .map(|i| {
                    spec(i, 0, 1, vec![Segment::new(1_500_000, SimOp::End)])
                })
                .collect(),
        );
        let c = run_gprs(&coarse, &GprsSimConfig::balance_aware(2));
        let f = run_gprs(&fine, &GprsSimConfig::balance_aware(2));
        assert!(f.finish_cycles < c.finish_cycles);
    }

    #[test]
    fn barriers_synchronize_iterations() {
        let b = BarrierId::new(0);
        let w = Workload::new(
            "bar",
            (0..3)
                .map(|i| {
                    spec(
                        i,
                        0,
                        1,
                        vec![
                            Segment::new((i as u64 + 1) * 1_000_000, SimOp::Barrier { barrier: b }),
                            Segment::new(1_000_000, SimOp::End),
                        ],
                    )
                })
                .collect(),
        );
        let r = run_gprs(&w, &GprsSimConfig::balance_aware(4));
        assert!(r.completed);
        // Barrier release waits for the slowest (3 Mcyc) + second phase.
        assert!(r.finish_cycles >= 4_000_000);
        assert_eq!(r.subthreads, 6); // 3 initial + 3 continuations
    }

    /// The durable mirror records one `Retire` per retirement (squashed
    /// work never retires, so injection does not inflate the stream), the
    /// epoch's `Spec` names the workload, and the final digest equals the
    /// run's retired-order hash — the same ledger shape the real runtime
    /// writes, so the two are comparable record-for-record.
    #[test]
    fn persist_mirrors_the_retirement_stream() {
        use gprs_core::persist::{MemoryBackend, PersistBackend};
        let w = data_parallel(4, secs_to_cycles(1.0));
        let backend = std::sync::Arc::new(MemoryBackend::new());
        let r = run_gprs(
            &w,
            &GprsSimConfig::balance_aware(4)
                .with_exceptions(InjectorConfig::paper(2.0, 4, CYCLES_PER_SEC).with_seed(7))
                .with_time_cap(secs_to_cycles(200.0))
                .with_persist(backend.clone()),
        );
        assert!(r.completed, "{r}");
        let image = backend.load().expect("memory backend loads");
        assert_eq!(image.spec.as_deref(), Some(format!("sim {}", w.name).as_str()));
        assert_eq!(image.retires.len() as u64, r.telemetry.retired_count);
        assert_eq!(
            image.retires.last().expect("non-empty run").digest,
            r.telemetry.retired_hash,
        );
        assert_eq!(
            image.retires.last().expect("non-empty run").retired,
            r.telemetry.retired_count,
        );
        assert!(backend.stats().fsyncs >= 1, "finish issues the final sync");
    }

    #[test]
    fn exceptions_on_idle_contexts_are_ignored() {
        let w = data_parallel(2, secs_to_cycles(2.0));
        // 16 contexts, 2 busy: most exceptions strike idle contexts.
        let r = run_gprs(
            &w,
            &GprsSimConfig::balance_aware(16)
                .with_exceptions(InjectorConfig::paper(10.0, 16, CYCLES_PER_SEC).with_seed(3))
                .with_time_cap(secs_to_cycles(200.0)),
        );
        assert!(r.completed, "{r}");
        assert!(r.exceptions_ignored > 0);
    }

    #[test]
    fn selective_restart_spares_unaffected_threads() {
        // Two independent long-running threads; exceptions delay only the
        // victims, so completion is far earlier than basic recovery which
        // squashes every younger sub-thread.
        let w = pipeline(60, 3, 2_000_000, 200_000_000);
        let inj = InjectorConfig::paper(4.0, 4, CYCLES_PER_SEC).with_seed(11);
        let cap = secs_to_cycles(500.0);
        let sel = run_gprs(
            &w,
            &GprsSimConfig::balance_aware(4)
                .with_exceptions(inj.clone())
                .with_time_cap(cap),
        );
        let basic = run_gprs(
            &w,
            &GprsSimConfig::balance_aware(4)
                .with_recovery(RecoveryScope::Basic)
                .with_exceptions(inj)
                .with_time_cap(cap),
        );
        assert!(sel.completed, "{sel}");
        assert!(sel.exceptions > 0);
        assert!(basic.squashed >= sel.squashed);
    }

    #[test]
    fn gprs_survives_rates_where_cpr_fails() {
        // The headline behaviour (Figure 10): at a rate past CPR's tipping
        // point, GPRS still completes.
        let w = data_parallel(8, secs_to_cycles(2.0));
        let rate = 8.0;
        let inj = InjectorConfig::paper(rate, 8, CYCLES_PER_SEC).with_seed(5);
        let cap = secs_to_cycles(600.0);
        let cpr = run_free(
            &w,
            &FreeRunConfig::cpr(8, secs_to_cycles(1.0))
                .with_exceptions(inj.clone())
                .with_time_cap(cap),
        );
        let gprs = run_gprs(
            &w,
            &GprsSimConfig::balance_aware(8)
                .with_exceptions(inj)
                .with_time_cap(cap),
        );
        assert!(!cpr.completed, "CPR should tip at 8 exc/s: {cpr}");
        assert!(gprs.completed, "GPRS should survive: {gprs}");
    }

    #[test]
    fn retired_hash_converges_under_injection() {
        // Squashed sub-threads leave the ROL and re-execute as fresh grants,
        // so a fault-injected run must retire the same per-thread order —
        // and therefore the same retired-order hash — as the clean run.
        let w = pipeline(40, 3, 2_000_000, 20_000_000);
        let clean = run_gprs(&w, &GprsSimConfig::balance_aware(4));
        assert!(clean.completed);
        for seed in [5u64, 23, 91] {
            let inj = InjectorConfig::paper(6.0, 4, CYCLES_PER_SEC).with_seed(seed);
            let f = run_gprs(
                &w,
                &GprsSimConfig::balance_aware(4)
                    .with_exceptions(inj)
                    .with_time_cap(secs_to_cycles(600.0)),
            );
            assert!(f.completed, "seed {seed}: {f}");
            assert_eq!(
                f.telemetry.retired_hash, clean.telemetry.retired_hash,
                "seed {seed}: injected run must converge to the clean retired order"
            );
            assert_eq!(f.telemetry.retired_count, clean.telemetry.retired_count);
        }
    }

    #[test]
    fn barrier_release_undo_converges() {
        // Threads 0-2 iterate atomic+barrier rounds with schedule weight 3,
        // so each token cycle completes a whole barrier generation; thread 3
        // (weight 1) opens one long atomic body that stays in flight across
        // several *released* generations, blocking retirement the whole
        // while. An exception in the long body taints the shared atomic
        // alias, squashing threads 0 and 1 back past a consumed arrival —
        // recovery must undo the crossed release and force thread 2
        // (untainted, so not otherwise rewound) back to its own arrival.
        // Without the release undo, threads 0 and 1 would re-arrive at a
        // generation thread 2 has already passed and the run would deadlock
        // into a DNC.
        let a = gprs_core::ids::AtomicId::new(0);
        let c = gprs_core::ids::AtomicId::new(1);
        let b = BarrierId::new(0);
        let mut threads = Vec::new();
        for i in 0..3u32 {
            let atomic = if i < 2 { a } else { c };
            let mut segs: Vec<Segment> = (0..30)
                .flat_map(|_| {
                    [
                        Segment::new(100_000, SimOp::Atomic { atomic }),
                        Segment::new(50_000, SimOp::Barrier { barrier: b }),
                    ]
                })
                .collect();
            segs.push(Segment::new(100_000, SimOp::End));
            threads.push(spec(i, i, 3, segs));
        }
        threads.push(spec(
            3,
            3,
            1,
            vec![
                Segment::new(100_000, SimOp::Atomic { atomic: a }),
                Segment::new(20_000_000, SimOp::Atomic { atomic: a }),
                Segment::new(100_000, SimOp::End),
            ],
        ));
        let w = Workload::new("straggler-bar", threads);
        let clean = run_gprs(&w, &GprsSimConfig::weighted(4));
        assert!(clean.completed);
        let mut squashed_total = 0;
        for seed in [1u64, 7, 40] {
            let inj = InjectorConfig::paper(500.0, 4, CYCLES_PER_SEC).with_seed(seed);
            let f = run_gprs(
                &w,
                &GprsSimConfig::weighted(4)
                    .with_exceptions(inj)
                    .with_time_cap(secs_to_cycles(600.0)),
            );
            assert!(f.completed, "seed {seed}: {f}");
            squashed_total += f.squashed;
            assert_eq!(
                f.telemetry.retired_hash, clean.telemetry.retired_hash,
                "seed {seed}: barrier recovery must converge"
            );
            assert_eq!(f.telemetry.retired_count, clean.telemetry.retired_count);
        }
        assert!(squashed_total > 0, "injection must actually squash work");
    }

    #[test]
    fn recovery_is_reproducible() {
        // Same seed, same workload: the entire injected run — including
        // which sub-threads squash and the recovered schedule — replays
        // identically.
        let w = pipeline(40, 3, 2_000_000, 20_000_000);
        let inj = InjectorConfig::paper(6.0, 4, CYCLES_PER_SEC).with_seed(23);
        let cfg = GprsSimConfig::balance_aware(4)
            .with_exceptions(inj)
            .with_time_cap(secs_to_cycles(600.0));
        let a = run_gprs(&w, &cfg);
        let b = run_gprs(&w, &cfg);
        assert!(a.completed);
        assert_eq!(a, b);
    }

    #[test]
    fn time_cap_gives_dnc() {
        let w = data_parallel(1, 1_000_000);
        let r = run_gprs(&w, &GprsSimConfig::balance_aware(1).with_time_cap(10));
        assert!(!r.completed);
    }

    #[test]
    fn lock_aliases_propagate_dependence() {
        // TH0 and TH1 alternate under the same lock; an exception in TH0's
        // critical-section sub-thread squashes TH1's younger CS sub-threads.
        let l = LockId::new(0);
        let w = Workload::new(
            "locked",
            (0..2)
                .map(|i| {
                    spec(
                        i,
                        0,
                        1,
                        (0..10)
                            .map(|_| Segment::new(500_000, SimOp::Lock {
                                lock: l,
                                cs_work: 100_000,
                            }))
                            .collect(),
                    )
                })
                .collect(),
        );
        let r = run_gprs(
            &w,
            &GprsSimConfig::balance_aware(2).with_exceptions(
                InjectorConfig::paper(20.0, 2, CYCLES_PER_SEC).with_seed(9),
            ),
        );
        assert!(r.completed);
        if r.exceptions > r.exceptions_ignored {
            assert!(r.squashed > 0);
        }
    }
}
