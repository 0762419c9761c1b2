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
//! victim context when the exception was raised. Recovery runs the walk
//! both engines share ([`gprs_core::recovery::Recovery`]): it squashes the
//! affected set — under selective recovery the culprit, its same-thread
//! successors, consumers of the data items it pushed (channel-item
//! provenance: the runtime manages its FIFOs and can undo a pop by
//! returning the item to the front) and younger lock/atomic-alias sharers —
//! out of the reorder list, and the engine re-arms each thread at the
//! opening point of its oldest squashed sub-thread, so the token loop
//! re-issues the work as fresh grants that re-enter retirement in total
//! order. Channel pushes and pops are undone youngest-first. A squashed
//! arrival's release is taken back by the roster, as on the runtime: every
//! participant it freed that is not re-executing its arrival waits again.
//! Unaffected sub-threads keep running, which is what makes the tipping
//! rate scale with the context count.

use crate::costs::MechCosts;
use crate::result::SimResult;
use crate::workload::{SimOp, Workload};
use gprs_core::deps::Provenance;
use gprs_core::exception::{Exception, ExceptionInjector, InjectorConfig};
use gprs_core::ids::{BarrierId, LockId, ResourceId, SubThreadId};
use gprs_core::ledger::{Checkpointed, Poison, RetireFacts, RunLedger};
use gprs_core::order::{OrderEnforcer, ScheduleKind};
use gprs_core::persist::PersistBackend;
use gprs_core::racecheck::{AccessKind, OpenEdge};
use gprs_core::recording::{DriveMode, Recording, RecordingHeader};
pub use gprs_core::recovery::RecoveryPolicy;
use gprs_core::recovery::Recovery;
use gprs_core::resources::{Got, Inverse, Op, Poll, Resources};
use gprs_core::retire::{self, Retirement};
use gprs_core::rol::ReorderList;
use gprs_core::roster::{Arrival, Barrier, Roster};
use gprs_core::subthread::{SubThread, SubThreadKind, SyncOp};
use gprs_telemetry::TelemetryConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of a GPRS simulation.
#[derive(Debug, Clone)]
pub struct GprsSimConfig {
    /// Hardware contexts `n`.
    pub contexts: u32,
    /// Mechanism costs.
    pub costs: MechCosts,
    /// The deterministic ordering schedule.
    pub schedule: ScheduleKind,
    /// Which sub-threads a recovery squashes.
    pub recovery: RecoveryPolicy,
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
    /// retirement ledger against a real-runtime log. A backend error fails
    /// the run by name (`durable persistence failed: …`), as on the runtime.
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
            recovery: RecoveryPolicy::Selective,
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

    /// Sets the recovery policy.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
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
    /// Segment whose work forms this body — the re-arm point on squash.
    seg_ix: usize,
}

#[derive(Debug, Clone)]
struct GThread {
    started: bool,
    /// Index of the segment whose closing op is the next pending request.
    op_ix: usize,
    /// Time the thread arrives at that sync point (current body end).
    request_at: u64,
    /// Pending barrier continuation `(barrier, generation)`: the next grant
    /// opens the continuation sub-thread instead of consuming an op.
    resume: Option<(BarrierId, u64)>,
    current_st: Option<SubThreadId>,
}

/// What an in-flight sub-thread carries in its reorder-list entry: its
/// body on the virtual clock, its channel-item provenance and its barrier
/// generations. Retirement and a squash drop it with the entry.
#[derive(Debug)]
struct SimRec {
    body: Body,
    /// The barrier generation whose release opened it (a continuation).
    resumed: Option<(BarrierId, u64)>,
    /// The barrier generation its closing arrival forms, set at the arrival.
    arrived: Option<(BarrierId, u64)>,
    /// Consumers of the items it pushed. Can name squashed consumers (their
    /// re-executions are fresh ids); the closure walks the reorder list, so
    /// ids outside the window never match.
    consumers: Vec<SubThreadId>,
    /// The table inverse of the push or pop that opened it: a squash
    /// withdraws its item, or returns the item it popped to the front.
    undo: Option<Inverse<(), ()>>,
}

/// Channel-item provenance and barrier generations for the dependence
/// closure: an arrival taints the continuations its release opened.
impl Provenance for SimRec {
    fn dependents(&self) -> &[SubThreadId] {
        &self.consumers
    }

    fn arrived(&self) -> Option<(BarrierId, u64)> {
        self.arrived
    }

    fn resumed(&self) -> Option<(BarrierId, u64)> {
        self.resumed
    }
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
    /// Each thread's place in the token rotation and the barrier table
    /// (see [`gprs_core::roster`]).
    roster: Roster,
    threads: Vec<GThread>,
    ctxs: Vec<u64>,
    rol: ReorderList<SimRec>,
    /// The retire step (see [`gprs_core::retire`]).
    retirement: Retirement,
    /// Reusable buffer of the exceptions one drain takes from the injector.
    pending: Vec<Exception>,
    /// The recovery walk, kept for the next recovery, which plans in the
    /// buffers earlier ones grew.
    rex: Recovery<SimRec>,
    /// The virtual time each lock is next free (the cost model's clock).
    locks: HashMap<LockId, u64>,
    /// The channels' item provenance (see [`gprs_core::resources`]).
    table: Resources<(), ()>,
    injector: Option<ExceptionInjector>,
    /// Ahead-of-run static analysis report, carried into the result.
    analysis: Option<gprs_analyze::AnalysisReport>,
    latency: u64,
    token_time: u64,
    finish: u64,
    res: SimResult,
    /// Everything that watches the order this engine produces — the same
    /// ledger the runtime feeds. A reason it returns lands in
    /// [`SimResult::replay_divergence`] and ends the run as a DNC.
    ledger: RunLedger,
}

impl<'a> Gprs<'a> {
    fn new(w: &'a Workload, cfg: &'a GprsSimConfig) -> Self {
        let scheme = format!("GPRS-{}", cfg.schedule.tag());
        // Static pre-pass: its verdict decides whether the detector runs.
        let analysis = cfg.analysis.then(|| gprs_analyze::analyze(w));
        let racecheck = analysis
            .as_ref()
            .map_or(cfg.racecheck, |rep| rep.racecheck(cfg.racecheck));
        // Hashes are domain-separated by workload name: structurally
        // identical programs (swaptions vs. histogram) must not collide.
        let mut ledger = RunLedger::new(
            &cfg.telemetry,
            cfg.contexts.max(1) as usize,
            gprs_telemetry::name_seed(&w.name),
            racecheck,
        );
        let record = cfg.record.as_ref().map(|(path, seed)| {
            let header = RecordingHeader {
                workload: w.name.clone(),
                seed: *seed,
                mode: DriveMode::Sim,
                schedule: cfg.schedule.tag().to_string(),
                workers: cfg.contexts,
                spec: None,
                chaos: None,
            };
            (header, path.clone())
        });
        let refused = ledger.arm_tape(record, cfg.replay.clone());
        let epoch = cfg
            .persist
            .clone()
            .and_then(|p| ledger.open_epoch(p, format!("sim {}", w.name)));
        if let Some(rep) = &analysis {
            rep.trace_verdict(ledger.telemetry(), ledger.racecheck());
        }
        let mut enforcer = ledger.enforcer(cfg.schedule);
        let barriers = w.barrier_participants().into_iter();
        let mut roster = Roster::new(barriers.map(|(b, n)| (b, Barrier::new(n))).collect());
        let mut unlisted = None;
        for t in &w.threads {
            let reason = roster.add(&mut enforcer, t.thread, t.group, t.weight);
            unlisted = unlisted.or(reason);
        }
        let thread = GThread {
            started: false,
            op_ix: 0,
            request_at: 0,
            resume: None,
            current_st: None,
        };
        // Channel ids are dense: register every one the trace names.
        let mut table = Resources::default();
        let segments = w.threads.iter().flat_map(|t| &t.segments);
        let chans = segments.filter_map(|s| match s.op {
            SimOp::Push { chan } | SimOp::Pop { chan } => Some(chan.raw() + 1),
            _ => None,
        });
        for _ in 0..chans.max().unwrap_or(0) {
            table.channel();
        }
        let injector = cfg.exceptions.clone().map(ExceptionInjector::new);
        let latency = cfg
            .exceptions
            .as_ref()
            .map(|e| e.detection_latency)
            .unwrap_or(0);
        let mut res = SimResult::new(w.name.clone(), scheme);
        // A refused or unopenable run never starts: `run` seals it as is.
        res.replay_divergence = refused.or(epoch).or(unlisted);
        Gprs {
            w,
            cfg,
            enforcer,
            roster,
            threads: vec![thread; w.threads.len()],
            ctxs: vec![0; cfg.contexts.max(1) as usize],
            rol: ReorderList::default(),
            retirement: Retirement::default(),
            pending: Vec::new(),
            rex: Recovery::default(),
            locks: HashMap::new(),
            table,
            injector,
            analysis,
            latency,
            token_time: 0,
            finish: 0,
            res,
            ledger,
        }
    }

    /// Turns what a ledger hook returned into this run's failure (the first
    /// reason stands): the token loop aborts to DNC on its next iteration.
    fn fail_on(&mut self, reason: Poison) {
        if self.res.replay_divergence.is_none() {
            self.res.replay_divergence = reason;
        }
    }

    /// Marks the run divergent and caps the clock (the DNC shape every
    /// replay failure degrades to).
    fn replay_abort(&mut self, msg: String) {
        self.res.replay_divergence = Some(msg);
        self.res.finish_cycles = self.cfg.time_cap_cycles;
    }

    /// Seals the ledger — durable tail, final replay verification, the
    /// recording — then the telemetry summary and race verdict into the result
    /// (every exit path). What the seal finds wrong demotes the run to a DNC.
    fn finish_result(mut self) -> SimResult {
        let failure = self.res.replay_divergence.clone().or_else(|| {
            (!self.res.completed).then(|| "did not complete within the time cap".to_string())
        });
        let reason = self.ledger.seal(failure.as_deref(), None);
        self.fail_on(reason);
        if self.res.replay_divergence.is_some() {
            self.res.completed = false;
            self.res.finish_cycles = self.cfg.time_cap_cycles;
        }
        (self.res.races, self.res.first_race) = self.ledger.races();
        self.res.telemetry = self.ledger.summarize();
        self.res.analysis = self.analysis.take();
        self.res
    }

    /// Least-loaded context (the load-balancing sub-thread scheduler).
    /// Among equally loaded contexts the lowest index wins.
    fn pick_ctx(&self) -> usize {
        let (mut best, mut least) = (0, self.ctxs[0]);
        for (i, &avail) in self.ctxs.iter().enumerate().skip(1) {
            if avail < least {
                (best, least) = (i, avail);
            }
        }
        best
    }

    /// Opens a new sub-thread for `th` at grant time `now` whose body is
    /// segment `body_seg_ix`: pays the checkpoint + ordering costs and
    /// schedules the body on a context. The segment before the body (none
    /// for a thread's first) names the kind and the opening operation; a
    /// lock's critical section runs under it before the body. The entry
    /// carries `undo`, the inverse of the push or pop that opened it, and
    /// the thread's pending resume, the release that opened it.
    fn spawn_subthread(
        &mut self,
        th: usize,
        stid: SubThreadId,
        now: u64,
        body_seg_ix: usize,
        undo: Option<Inverse<(), ()>>,
    ) {
        use SubThreadKind as K;
        let spec = &self.w.threads[th];
        let seg = &spec.segments[body_seg_ix];
        let opening = body_seg_ix.checked_sub(1).map(|i| spec.segments[i].op);
        let (kind, opening_op) = match opening {
            Some(SimOp::Lock { lock, .. }) => (K::CriticalSection, Some(SyncOp::LockAcquire(lock))),
            Some(SimOp::Atomic { atomic }) => (K::AtomicOp, Some(SyncOp::Atomic(atomic))),
            Some(SimOp::Push { chan }) => (K::ChannelAccess, Some(SyncOp::ChanPush(chan))),
            Some(SimOp::Pop { chan }) => (K::ChannelAccess, Some(SyncOp::ChanPop(chan))),
            Some(SimOp::Barrier { barrier }) => {
                (K::BarrierContinuation, Some(SyncOp::BarrierWait(barrier)))
            }
            // A thread's first body (no body follows its `End`).
            None | Some(SimOp::End) => (K::Initial, None),
        };
        let lock = match opening {
            Some(SimOp::Lock { lock, cs_work }) => Some((lock, cs_work)),
            _ => None,
        };
        // Statically proven read-only boundary: the checkpoint records
        // nothing a rewind could need, so elision skips `t_s` entirely.
        // The grant itself (and its ordering cost) is untouched — elision
        // must never perturb the total order.
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

        let checkpoint = if elide {
            Checkpointed::Elided
        } else {
            Checkpointed::Bytes(seg.ckpt_bytes)
        };
        let descriptor = SubThread::new(stid, spec.thread, spec.group, kind, opening_op);
        let body = Body {
            thread: th,
            ctx,
            start,
            end,
            kind,
            seg_ix: body_seg_ix,
        };
        let rec = SimRec {
            body,
            resumed: self.threads[th].resume.take(),
            arrived: None,
            consumers: Vec::new(),
            undo,
        };
        let (rol, ledger) = (&mut self.rol, &mut self.ledger);
        let reason = retire::open(rol, ledger, ctx, descriptor, rec, checkpoint);
        self.fail_on(reason);
        if let Some(m) = nested {
            // The nested lock is a dependence alias (recovery) and a sync
            // guard (racecheck) for this sub-thread; it has no entry only
            // when the open failed the run.
            let _ = self.rol.add_resource(stid, ResourceId::Lock(m));
        }
        let t = &mut self.threads[th];
        t.current_st = Some(stid);
        t.request_at = end;
    }

    /// Marks `th`'s current sub-thread completed and retires what it can.
    fn complete_current(&mut self, th: usize) {
        if let Some(prev) = self.threads[th].current_st.take() {
            let reason = retire::complete(&mut self.rol, prev);
            self.fail_on(reason);
        }
        let (_, reason) = self.retirement.retire(
            &mut self.rol,
            &mut self.ledger,
            |rec| rec.body.ctx,
            |rec, accesses| race_facts(self.w, rec, accesses),
            |_| None,
        );
        self.fail_on(reason);
        self.res.rol_peak = self.res.rol_peak.max(self.rol.peak_occupancy());
    }

    /// Runs the session the walk began: squashes the affected set out of
    /// the reorder list, undoes its channel effects, re-arms the squashed
    /// threads and takes back the releases their arrivals fed. An error
    /// names the sub-thread that left the reorder list mid-walk, or the
    /// thread the roster could not bring back into the rotation.
    fn recover(
        &mut self,
        rex: &mut Recovery<SimRec>,
        culprit: SubThreadId,
        report: u64,
    ) -> Result<(), String> {
        rex.plan(&self.rol, &self.ledger, self.cfg.recovery).map_err(|e| e.to_string())?;
        let culprit_th = self.rol.get(culprit).map(|e| e.thread());
        // The entries leave the reorder list entirely, youngest first —
        // their re-executions are fresh grants that re-enter retirement in
        // total order. Each one's channel effect is undone in that order.
        let squashed = rex.squash_out(&mut self.rol, &mut self.ledger, |r| r.body.ctx);
        squashed.map_err(|e| e.to_string())?;
        for (_, _, SimRec { body, undo, .. }) in rex.removed() {
            self.res.redo_cycles += report.min(body.end).saturating_sub(body.start);
            if let Some(inverse) = undo.take() {
                self.table.undo(inverse).map_err(|e| e.to_string())?;
            }
        }
        // Re-arm each squashed thread at its oldest squashed sub-thread, in
        // thread order (the order they re-register in): it re-requests at
        // the report time plus the restore wait (the culprit's thread
        // additionally pays the REX pause + state-reinstatement cost).
        for (thread, SimRec { body, resumed, .. }) in rex.restarts(&self.ledger) {
            let restore = self.cfg.costs.restore_wait
                + if Some(thread) == culprit_th {
                    self.cfg.costs.gprs_restore
                } else {
                    0
                };
            let t = &mut self.threads[body.thread];
            (t.current_st, t.resume) = (None, resumed);
            t.started = body.kind != SubThreadKind::Initial;
            t.op_ix = match body.kind {
                SubThreadKind::Initial => 0,
                SubThreadKind::BarrierContinuation => body.seg_ix,
                // Re-request the op that opened it.
                _ => body.seg_ix - 1,
            };
            t.request_at = report + restore;
            self.res.redo_cycles += restore;
            self.roster.revive(&mut self.enforcer, thread)?;
        }
        // Take back each release a removed arrival fed: every participant
        // it freed that is not re-executing its arrival waits again.
        for &(b, gen) in rex.arrivals() {
            let threads = &mut self.threads;
            let reason = self.roster.take_back(&mut self.enforcer, b, gen, |t| {
                let Some(t) = threads.get_mut(t.raw() as usize) else { return false };
                let again = t.resume.is_some_and(|(rb, g)| rb == b && g >= gen);
                if again {
                    t.resume = None;
                }
                again
            });
            if let Some(why) = reason {
                return Err(why);
            }
        }
        Ok(())
    }

    /// Drains exceptions reported up to `now`, squashing the affected set
    /// out of the reorder list and rewinding the victimized threads so the
    /// token loop re-executes the work as fresh grants. Returns `false` on
    /// exceeding the time cap.
    fn drain_exceptions(&mut self, now: u64) -> bool {
        let latency = self.latency;
        let Some(inj) = self.injector.as_mut() else {
            return true;
        };
        let mut pending = std::mem::take(&mut self.pending);
        let mut lost = None;
        while let Some(raise) = inj.peek_next() {
            if raise.saturating_add(latency) > now {
                break;
            }
            let Some(e) = inj.next_before(raise + 1) else {
                lost = Some(raise);
                break;
            };
            pending.push(e);
            if pending.len() > 2_000_000 {
                // Divergence guard (see the free engine).
                return false;
            }
        }
        if let Some(raise) = lost {
            self.fail_on(Some(format!("injector: the exception peeked at cycle {raise} was not drawn")));
        }
        let mut within_cap = true;
        for e in pending.drain(..) {
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
            // Bodies on a context are laid end to end and its busy-until
            // only grows, so a raise at or past it finds the context idle.
            if raise >= self.ctxs[victim] {
                self.res.exceptions_ignored += 1;
                continue;
            }
            // The sub-thread whose body occupied the victim context when the
            // exception was raised.
            // Bodies on one context never overlap, so at most one matches.
            let culprit = self
                .rol
                .iter()
                .find(|e| {
                    let b = &e.rec.body;
                    b.ctx == victim && b.start <= raise && raise < b.end
                })
                .map(|e| e.id());
            let begin = |&c: &SubThreadId| self.rex.begin(&mut self.rol, &self.ledger, victim, c, e);
            let Some(culprit) = culprit.filter(begin) else {
                self.res.exceptions_ignored += 1;
                continue;
            };
            // Taken out only for a recovery: every grant drains.
            let mut rex = std::mem::take(&mut self.rex);
            let recovered = self.recover(&mut rex, culprit, report);
            self.res.squashed += rex.end(&self.ledger, None);
            self.rex = rex;
            // A half-undone recovery ends the drain; the token loop stops
            // on the failure.
            if let Err(err) = recovered {
                self.fail_on(Some(format!("recovery of {culprit}: {err}")));
                break;
            }
            if now > self.cfg.time_cap_cycles {
                within_cap = false;
                break;
            }
        }
        self.pending = pending;
        within_cap
    }

    /// Runs the token loop until every live thread has consumed its `End`
    /// op. Returns `false` on a DNC (time cap or ill-formed deadlock), with
    /// `res.finish_cycles` already set.
    fn token_loop(&mut self, poll_cost: u64) -> bool {
        while self.roster.live() > 0 {
            if self.res.replay_divergence.is_some() {
                // A verification hook flagged a divergence mid-grant; stop
                // before the live run drifts further from the tape.
                self.res.finish_cycles = self.cfg.time_cap_cycles;
                return false;
            }
            let Some(holder) = self.enforcer.holder() else {
                if let Some(msg) = self.ledger.replay_exhausted(self.roster.live()) {
                    self.replay_abort(msg);
                    return false;
                }
                // Everyone deregistered (barrier deadlock in an ill-formed
                // trace): DNC.
                self.res.finish_cycles = self.cfg.time_cap_cycles;
                return false;
            };
            if let Some(msg) = self.roster.check_holder(holder, &self.ledger) {
                self.replay_abort(msg);
                return false;
            }
            let th = holder.raw() as usize;
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

            // The pending request: the closing op of segment `op_ix`, or
            // (`None`) the body a thread starts or a release resumes at.
            let t = &self.threads[th];
            let op_ix = t.op_ix;
            let op = (t.started && t.resume.is_none()).then(|| self.w.threads[th].segments[op_ix].op);
            if let Some(SimOp::Pop { chan }) = op {
                match self.table.poll(ResourceId::Channel(chan)) {
                    Ok(Poll::Pass) => {
                        // Under replay this cannot happen on a faithful
                        // tape: channel contents are a function of the
                        // granted-event prefix, so the recorded Pop found an
                        // item. An empty queue means the tape lies about
                        // this schedule — and since `ReplaySchedule::pass`
                        // holds the cursor, passing here would spin forever.
                        // Abort by name instead.
                        if let Some(pos) = self.ledger.replay_pos() {
                            self.replay_abort(format!(
                                "replay divergence at event {pos}: recorded \
                                 thread {} polls an empty channel the recording \
                                 granted",
                                holder.raw()
                            ));
                            return false;
                        }
                        // Empty FIFO: the holder wastes its turn and re-polls
                        // on its next turn (Figure 7).
                        self.enforcer.pass_turn(holder);
                        self.res.polls += 1;
                        self.token_time = now + poll_cost;
                        continue;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        self.replay_abort(e.to_string());
                        return false;
                    }
                }
            }
            let Some(stid) = self.enforcer.try_grant(holder) else {
                self.replay_abort(format!("grant: {holder} does not hold the token it was granted"));
                return false;
            };
            self.res.ordering_wait_cycles += now - req;
            self.token_time = now;
            let Some(op) = op else {
                self.threads[th].started = true;
                self.spawn_subthread(th, stid, now, op_ix, None);
                continue;
            };
            if let SimOp::Barrier { barrier } = op {
                // The ender carries the generation its arrival forms: the
                // race detector's close clock, and the release a squash of
                // it takes back.
                let forming = self.roster.barriers().get(&barrier).map(|bar| (barrier, bar.gen + 1));
                if let Some(rec) = self.threads[th].current_st.and_then(|p| self.rol.rec_mut(p)) {
                    rec.arrived = forming;
                }
            }
            self.complete_current(th);

            match op {
                SimOp::Lock { .. } | SimOp::Atomic { .. } | SimOp::Push { .. } | SimOp::Pop { .. } => {
                    let chan_op = match op {
                        SimOp::Push { chan } => Some(Op::Push(chan, ())),
                        SimOp::Pop { chan } => Some(Op::Pop(chan)),
                        _ => None,
                    };
                    let (got, undo) = match chan_op.map(|op| self.table.apply(Some(stid), op)) {
                        None => (Got::Nothing, None),
                        Some(Ok((got, inverse))) => (got, Some(inverse)),
                        Some(Err(e)) => {
                            self.replay_abort(e.to_string());
                            return false;
                        }
                    };
                    // Provenance is the pushing sub-thread: squashing it
                    // un-pushes the item, so the consumer belongs to its
                    // closure (the value's computing sub-thread is covered
                    // transitively via the same-thread rule).
                    if let Got::Item((), Some(producer)) = got {
                        if let Some(rec) = self.rol.rec_mut(producer) {
                            rec.consumers.push(stid);
                        }
                    }
                    self.threads[th].op_ix = op_ix + 1;
                    self.spawn_subthread(th, stid, now, op_ix + 1, undo);
                }
                SimOp::Barrier { barrier } => {
                    // Structural turn-consuming event: recorded/verified
                    // like a grant, with the `EVT_ARRIVE` tag (no
                    // sub-thread opens here in either engine).
                    self.threads[th].op_ix = op_ix + 1;
                    let (arrival, reason) =
                        self.roster.arrive(&mut self.enforcer, &mut self.ledger, holder, barrier);
                    self.fail_on(reason);
                    if let Some(Arrival { full: true, .. }) = arrival {
                        let threads = &mut self.threads;
                        let reason = self.roster.release(&mut self.enforcer, barrier, |w, gen| {
                            if let Some(t) = threads.get_mut(w.raw() as usize) {
                                t.resume = Some((barrier, gen));
                                t.request_at = now;
                            }
                        });
                        self.fail_on(reason);
                    }
                }
                SimOp::End => {
                    let reason = self.roster.exit(&mut self.enforcer, &mut self.ledger, holder);
                    self.fail_on(reason);
                    self.finish = self.finish.max(now);
                }
            }
        }
        true
    }

    fn run(mut self) -> SimResult {
        let refused = self.ledger.set_mode(DriveMode::Sim);
        self.fail_on(refused);
        if self.res.replay_divergence.is_some() {
            // Refused at construction (record + replay in one run, a
            // durable epoch that would not open) or a cross-mode tape.
            self.res.finish_cycles = self.cfg.time_cap_cycles;
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
                if self.roster.live() > 0 {
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
            if self.roster.live() > 0 {
                continue;
            }
            self.res.completed = true;
            self.res.finish_cycles = finish;
            return self.finish_result();
        }
    }
}

/// What the race detector needs to know about a retiring sub-thread
/// beyond its reorder-list entry: trace-level structure translated into
/// acquire/release edges, and the plain accesses its body performs, in
/// program order, written into `accesses`. Retirement runs in total order,
/// so race reports are deterministic across runs and context counts.
fn race_facts<'f>(
    w: &Workload,
    rec: &'f SimRec,
    accesses: &'f mut Vec<(ResourceId, AccessKind)>,
) -> RetireFacts<'f> {
    let body = &rec.body;
    let segs = &w.threads[body.thread].segments;
    if let Some((a, kind)) = segs[body.seg_ix].plain {
        accesses.extend(kind.accesses().iter().map(|&k| (ResourceId::Atomic(a), k)));
    }
    let open = match body.kind {
        SubThreadKind::ChannelAccess => match segs[body.seg_ix - 1].op {
            SimOp::Push { chan } => Some(OpenEdge::ChanPush(chan)),
            SimOp::Pop { chan } => {
                let producer = match rec.undo {
                    Some(Inverse::Unpop(_, (), producer)) => producer,
                    _ => None,
                };
                Some(OpenEdge::ChanPop { chan, producer })
            }
            _ => None,
        },
        SubThreadKind::BarrierContinuation => {
            rec.resumed.map(|(barrier, gen)| OpenEdge::BarrierResume { barrier, gen })
        }
        // Lock and atomic acquire edges come from the entry's aliases.
        _ => None,
    };
    RetireFacts {
        open,
        accesses,
        arrival: rec.arrived,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{secs_to_cycles, CYCLES_PER_SEC};
    use crate::free::{run_free, FreeRunConfig};
    use crate::workload::{Segment, ThreadSpec};
    use gprs_core::ids::{ChannelId, GroupId, ThreadId};

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

    /// The durable log records one `Retire` per retirement (squashed
    /// work never retires, so injection does not inflate the stream), the
    /// epoch's `Spec` names the workload, and the final digest equals the
    /// run's retired-order hash — the same vocabulary the real runtime
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

    /// A mirror whose log stops accepting records after `ok` of them must
    /// fail the run by name — the runtime's policy — not be disarmed in
    /// silence while the run reports `completed` (what PR 18's parent did).
    #[test]
    fn a_failing_persist_backend_fails_the_run_by_name() {
        use gprs_core::persist::{
            DurableImage, DurableRecord, MemoryBackend, PersistBackend, PersistError, PersistStats,
        };
        #[derive(Debug)]
        struct Flaky {
            inner: MemoryBackend,
            ok: usize,
        }
        impl PersistBackend for Flaky {
            fn record(&self, rec: &DurableRecord) -> Result<(), PersistError> {
                if self.inner.record_count() >= self.ok {
                    return Err(PersistError::Io("log device gone".into()));
                }
                self.inner.record(rec)
            }
            fn put_chunk(&self, bytes: &[u8]) -> Result<u64, PersistError> {
                self.inner.put_chunk(bytes)
            }
            fn get_chunk(&self, hash: u64) -> Option<Vec<u8>> {
                self.inner.get_chunk(hash)
            }
            fn sync(&self) -> Result<(), PersistError> {
                self.inner.sync()
            }
            fn stats(&self) -> PersistStats {
                self.inner.stats()
            }
            fn load(&self) -> Result<DurableImage, PersistError> {
                self.inner.load()
            }
        }
        let w = data_parallel(4, 1_000_000);
        // 0: the epoch's `Spec` fails, the run never starts; 3: the third
        // retirement's record fails mid-run.
        for ok in [0, 3] {
            let backend = std::sync::Arc::new(Flaky {
                inner: MemoryBackend::new(),
                ok,
            });
            let r = run_gprs(&w, &GprsSimConfig::balance_aware(4).with_persist(backend.clone()));
            assert!(!r.completed, "ok={ok}: a run whose mirror failed must not complete");
            let why = r.replay_divergence.as_deref().expect("named reason");
            assert!(
                why.starts_with("durable persistence failed:") && why.contains("log device gone"),
                "ok={ok}: {why}"
            );
            assert_eq!(backend.inner.record_count(), ok);
        }
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
                .with_recovery(RecoveryPolicy::Basic)
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

    /// Threads 0-2 iterate atomic+barrier rounds with schedule weight 3, so
    /// each token cycle completes a whole barrier generation; thread 3
    /// (weight 1) opens one long atomic body, sharing threads 0 and 1's
    /// atomic, that stays in flight across several *released* generations,
    /// blocking retirement the whole while.
    fn straggler_bar() -> Workload {
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
        Workload::new("straggler-bar", threads)
    }

    #[test]
    fn barrier_release_undo_converges() {
        // An exception in the long body taints the shared atomic alias,
        // squashing threads 0 and 1 back past a consumed arrival: recovery
        // must take the release back and re-park thread 2 (untainted, so
        // not restarted) until they re-arrive. Without the take-back,
        // threads 0 and 1 would re-arrive at a generation thread 2 has
        // already passed and the run would deadlock into a DNC.
        let w = straggler_bar();
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

    /// A detection latency of many segments reports an exception on a
    /// straggler-bar arrival only after its release freed the other
    /// participants, and the drain runs before some of them opened their
    /// continuations. The squash takes the release back: those must wait
    /// again for the squashed participant's re-arrival instead of running
    /// ahead into a generation it never joins, and the run must retire
    /// what the clean run retires.
    #[test]
    fn a_taken_back_release_reparks_participants_that_had_not_resumed() {
        let w = straggler_bar();
        let clean = run_gprs(&w, &GprsSimConfig::weighted(4));
        assert!(clean.completed);
        for seed in [2u64, 5, 9, 11] {
            let inj = InjectorConfig::paper(500.0, 4, CYCLES_PER_SEC)
                .with_seed(seed)
                .with_detection_latency(1_000_000);
            let cfg = GprsSimConfig::weighted(4).with_exceptions(inj);
            let f = run_gprs(&w, &cfg.with_time_cap(secs_to_cycles(600.0)));
            assert!(f.completed, "seed {seed}: {f}");
            assert!(f.squashed > 0, "seed {seed}: the injection squashed nothing");
            assert_eq!(f.telemetry.retired_hash, clean.telemetry.retired_hash, "seed {seed}");
            assert_eq!(f.telemetry.retired_count, clean.telemetry.retired_count, "seed {seed}");
        }
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
