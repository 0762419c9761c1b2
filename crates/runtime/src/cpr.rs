//! Conventional coordinated checkpoint-and-recovery (P-CPR) baseline
//! executor (`§2.3`, Figure 3(a)–(b)).
//!
//! Runs the same [`crate::program::ThreadProgram`]s as the GPRS runtime, but
//! with the conventional strategy the paper compares against:
//!
//! * **No deterministic ordering** — synchronization operations are granted
//!   in arrival order (modeled as lowest-ready-thread-first for test
//!   repeatability; a real Pthreads run would be timing-dependent).
//! * **Coordinated checkpoints** — periodically (every `ckpt_every` grants,
//!   a deterministic proxy for the paper's timer), granting stops, running
//!   steps drain behind the global barrier, and the *entire* program state
//!   — every thread's application-level checkpoint and pending request,
//!   the barriers and the resource table (locks, channels, cells,
//!   allocator blocks, exit values) — is recorded.
//! * **Global rollback** — every exception discards all work since the last
//!   checkpoint and restores that snapshot; threads spawned after it vanish
//!   (their spawn re-executes and re-creates them under the same ids), and
//!   file output commits only at checkpoints (the CPR output-commit point).
//!
//! The baseline keeps only that policy; how a grant becomes a running step
//! and comes back is the GPRS engine's. It holds the same [`Registry`], its
//! threads wait on the engine's `PendingWant`s, a grant fills `StepInputs`
//! and `engine::run_step` runs the step. A worker deposits the outcome under
//! the lock acquisition of its next grant: one acquisition per step. Its
//! workers park in the engine's `WaitQueues` and wake by the engine's rule:
//! a grant wakes a parked peer only when a CPU is spare for it, a deposit
//! wakes only its returned lock's shard (its worker scans again itself), a
//! rollback or checkpoint wakes nobody, and only finish and poison
//! broadcast.
//!
//! The contrast with GPRS's selective restart is the paper's headline
//! comparison. What drives both executors over the same programs is the
//! `gprs-chaos` campaign (its `cpr/*` legs run every runtime program),
//! `crates/runtime/tests/cpr_tests.rs`, `tests/end_to_end.rs` and the
//! `pbzip2_pipeline` example; no benchmark workload runs the baseline.

use crate::ctx::{CtxBackend, StepInputs};
use crate::engine::{run_step, PendingWant, StepOutcome, WaitQueues};
use crate::handles::Recoverable;
use crate::ops::{LockData, Res};
use crate::program::{DynThread, Payload, Step};
use crate::registry::Registry;
use crate::report::{RunError, RunStats};
use gprs_core::chaos::{ChaosCursor, ChaosEvent, ChaosPlan};
use gprs_core::exception::ExceptionScope;
use gprs_core::ids::{BarrierId, LockId, ResourceId, SubThreadId, ThreadId};
use gprs_core::ledger::EXTERNAL_RING;
use gprs_core::resources::{Got, Op, Poll, ResourceError};
use gprs_core::roster::{Barrier, ThState};
use gprs_telemetry::{
    RetiredOrderHash, ScheduleHash, Telemetry, TelemetryConfig, TelemetrySummary, TraceEvent,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A copy of a pending want for a checkpoint. The baseline waits only on
/// `Start` and `Op`, and checkpoints drain spawn requests first.
fn copy_want(want: &PendingWant) -> PendingWant {
    match want {
        PendingWant::Start => PendingWant::Start,
        PendingWant::Op(s) => PendingWant::Op(s.try_clone().expect("checkpoints drain spawns")),
        _ => unreachable!("the baseline waits only on Start and Op"),
    }
}

/// Whether a want changes the thread set: spawn and exit are granted
/// eagerly before a checkpoint, so snapshots never hold them.
fn structural(want: &PendingWant) -> bool {
    matches!(want, PendingWant::Op(Step::Spawn(_) | Step::Exit(_)))
}

/// One thread. An active thread with no pending want is running a step.
struct CprThread {
    program: Option<Box<dyn DynThread>>,
    pending: Option<PendingWant>,
    state: ThState,
}

impl CprThread {
    /// A thread about to take its first step.
    fn new(program: Box<dyn DynThread>) -> Self {
        CprThread {
            program: Some(program),
            pending: Some(PendingWant::Start),
            state: ThState::Active,
        }
    }
}

/// One thread's part of a snapshot: its program's checkpoint, pending want
/// and state.
type ThreadSnap = (Box<dyn std::any::Any + Send>, Option<PendingWant>, ThState);

/// Everything restored by a rollback.
struct CprSnapshot {
    threads: BTreeMap<ThreadId, ThreadSnap>,
    next_thread: u32,
    res: Res,
    barriers: BTreeMap<BarrierId, Barrier>,
    live: usize,
}

pub(crate) struct CprInner {
    threads: BTreeMap<ThreadId, CprThread>,
    next_thread: u32,
    /// Locks, channels, cells, blocks and exit values (see
    /// [`gprs_core::resources`]); a checkpoint clones it whole.
    pub(crate) res: Res,
    barriers: BTreeMap<BarrierId, Barrier>,
    /// Each file's name, committed bytes and bytes staged since the last
    /// checkpoint.
    files: BTreeMap<u64, (String, Vec<u8>, Vec<u8>)>,
    live: usize,
    running: usize,
    grants_since_ckpt: u64,
    ckpt_every: u64,
    ckpt_requested: bool,
    rollback_requested: u64,
    snapshot: Option<CprSnapshot>,
    pub(crate) stats: RunStats,
    checkpoints: u64,
    rollbacks: u64,
    telemetry: Telemetry,
    poisoned: Option<String>,
    /// Chaos-plan cursor (see [`gprs_core::chaos`]). Every global exception
    /// is a whole-machine rollback under CPR, so the plan's victim selector
    /// is irrelevant here; only trigger, scope and burst apply.
    /// `MidRecovery(n)` events queue their rollback at the end of the `n`-th
    /// rollback, while the machine is still quiesced — the worker loop
    /// performs the overlapping rollback before granting again.
    chaos: Option<ChaosCursor>,
}

/// Shared state of a CPR run: the state lock and where its workers park.
pub(crate) struct CprShared {
    pub(crate) inner: Mutex<CprInner>,
    waits: WaitQueues,
}

impl CprShared {
    /// Returns a lock checked out by a step: wakes the nested waiters on
    /// its shard, and one seeker (a `Lock` want may be grantable now).
    pub(crate) fn release_lock(&self, lock: LockId, data: Box<dyn Recoverable>) {
        let mut g = self.inner.lock();
        g.release(lock, data);
        self.waits.wake_lock_shard(lock, &g.telemetry);
        self.waits.wake_one_seeker(&g.telemetry);
    }

    /// A nested acquire: parks on the lock's shard until it is returned. A
    /// refusal panics the step, which poisons the run by name.
    pub(crate) fn acquire_nested(&self, lock: LockId) -> Box<dyn Recoverable> {
        let take = |g: &mut CprInner| {
            assert!(g.poisoned.is_none(), "CPR executor poisoned while waiting for a nested lock");
            let free = g.res.poll(ResourceId::Lock(lock)).unwrap_or_else(|e| panic!("{e}"));
            let acquired = (free == Poll::Grant).then(|| g.res.apply(None, Op::Acquire(lock)));
            let got = acquired.transpose().unwrap_or_else(|e| panic!("{e}"));
            got.and_then(|(got, _)| StepInputs::from(got).lock_out).map(|(_, data)| data)
        };
        self.waits.acquire_nested(lock, &mut self.inner.lock(), take, |g| &g.telemetry)
    }
}

/// Builder for the CPR baseline executor. It holds the same [`Registry`]
/// as [`crate::GprsBuilder`] and dereferences to it, so the same
/// registration code wires a program onto either executor.
#[derive(Debug)]
pub struct CprBuilder {
    workers: usize,
    ckpt_every: u64,
    telemetry: TelemetryConfig,
    chaos: Option<ChaosCursor>,
    reg: Registry,
}

impl Default for CprBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for CprBuilder {
    type Target = Registry;
    fn deref(&self) -> &Registry {
        &self.reg
    }
}

impl std::ops::DerefMut for CprBuilder {
    fn deref_mut(&mut self) -> &mut Registry {
        &mut self.reg
    }
}

impl CprBuilder {
    /// A CPR executor checkpointing every 64 grants on 4 workers.
    pub fn new() -> Self {
        CprBuilder {
            workers: 4,
            ckpt_every: 64,
            telemetry: TelemetryConfig::default(),
            chaos: None,
            reg: Registry::default(),
        }
    }

    /// Number of OS workers.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Grants between coordinated checkpoints (checkpoint frequency).
    pub fn checkpoint_every(mut self, grants: u64) -> Self {
        self.ckpt_every = grants.max(1);
        self
    }

    /// Telemetry configuration (event rings + metrics).
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = cfg;
        self
    }

    /// Attaches a deterministic chaos-injection plan (the CPR counterpart
    /// of [`crate::GprsBuilder::chaos`]); every global event requests a
    /// whole-machine rollback. An empty plan is a no-op.
    pub fn chaos(mut self, plan: &ChaosPlan) -> Self {
        self.chaos = (!plan.is_empty()).then(|| ChaosCursor::new(plan));
        self
    }

    /// Finalizes the executor: the registered program becomes its state.
    pub fn build(self) -> CprRuntime {
        let Registry { threads, res, barriers, files } = self.reg;
        let inner = CprInner {
            next_thread: threads.len() as u32,
            live: threads.len(),
            threads: (0..)
                .zip(threads)
                .map(|(t, (program, _, _))| (ThreadId::new(t), CprThread::new(program)))
                .collect(),
            res,
            barriers,
            files: files
                .into_iter()
                .map(|(id, f)| (id, (f.name, f.committed, Vec::new())))
                .collect(),
            running: 0,
            grants_since_ckpt: 0,
            ckpt_every: self.ckpt_every,
            ckpt_requested: false,
            rollback_requested: 0,
            snapshot: None,
            stats: RunStats::default(),
            checkpoints: 0,
            rollbacks: 0,
            telemetry: Telemetry::new(&self.telemetry, self.workers),
            poisoned: None,
            chaos: self.chaos,
        };
        CprRuntime {
            shared: Arc::new(CprShared {
                inner: Mutex::new(inner),
                waits: WaitQueues::new(self.workers),
            }),
        }
    }
}

/// A configured CPR baseline run.
pub struct CprRuntime {
    shared: Arc<CprShared>,
}

impl std::fmt::Debug for CprRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CprRuntime")
            .field("workers", &self.shared.waits.workers)
            .finish()
    }
}

/// Report of a CPR run.
#[derive(Debug)]
pub struct CprReport {
    /// Shared counter block (grants, spawns, allocs; GPRS-specific recovery
    /// fields stay zero).
    pub stats: RunStats,
    /// Coordinated checkpoints taken.
    pub checkpoints: u64,
    /// Global rollbacks performed.
    pub rollbacks: u64,
    /// Thread outputs.
    pub outputs: BTreeMap<ThreadId, Payload>,
    /// Committed file contents.
    pub files: BTreeMap<u64, (String, Vec<u8>)>,
    /// The digest of the final cells, lock data and exit values, in id
    /// order (see [`gprs_core::resources::Resources::digest`]).
    pub cells_digest: u64,
    /// End-of-run telemetry (CPR counters/events; the determinism hashes
    /// stay empty — the baseline is timing-dependent by design).
    pub telemetry: TelemetrySummary,
}

impl CprReport {
    /// Typed access to a thread's exit value.
    ///
    /// # Panics
    /// Panics if absent or on a type mismatch.
    pub fn output<T: Clone + Send + Sync + 'static>(&self, thread: ThreadId) -> T {
        crate::program::payload_to(
            self.outputs
                .get(&thread)
                .unwrap_or_else(|| panic!("{thread} produced no output")),
        )
    }
}

/// Injects exceptions into a CPR run: each forces one global rollback.
#[derive(Clone)]
pub struct CprController {
    shared: Arc<CprShared>,
}

impl std::fmt::Debug for CprController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CprController")
    }
}

impl CprController {
    /// Requests a global rollback (every exception is global under CPR).
    /// Wakes one parked worker: it performs the rollback once the running
    /// steps drain, and then grants.
    pub fn inject(&self) {
        let mut g = self.shared.inner.lock();
        g.rollback_requested += 1;
        g.stats.exceptions += 1;
        self.shared.waits.wake_one_seeker(&g.telemetry);
    }

    /// Whether the program has finished.
    pub fn is_finished(&self) -> bool {
        let g = self.shared.inner.lock();
        g.live == 0 && g.running == 0
    }
}

impl CprRuntime {
    /// A controller for exception injection.
    pub fn controller(&self) -> CprController {
        CprController {
            shared: self.shared.clone(),
        }
    }

    /// Runs to completion.
    ///
    /// # Errors
    /// Returns [`RunError::Poisoned`] on a step panic.
    pub fn run(self) -> Result<CprReport, RunError> {
        // Once per run, as `run_pools` does: the affinity mask can change
        // between runs.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.shared.waits.cpus.store(cpus, Ordering::Relaxed);
        let mut joins = Vec::new();
        for ix in 0..self.shared.waits.workers {
            let shared = self.shared.clone();
            joins.push(
                std::thread::Builder::new()
                    .name(format!("cpr-worker-{ix}"))
                    .spawn(move || cpr_worker(&shared, ix))
                    .expect("spawn worker"),
            );
        }
        for j in joins {
            j.join().expect("workers do not panic");
        }
        let mut g = self.shared.inner.lock();
        if let Some(msg) = g.poisoned.take() {
            return Err(RunError::Poisoned(msg));
        }
        // Program completion is the final commit point.
        let files = g
            .files
            .iter_mut()
            .map(|(&id, (name, committed, staged))| {
                committed.extend_from_slice(staged);
                staged.clear();
                (id, (name.clone(), committed.clone()))
            })
            .collect();
        let telemetry = g
            .telemetry
            .summarize(&ScheduleHash::new(), &RetiredOrderHash::new());
        Ok(CprReport {
            stats: g.stats,
            checkpoints: g.checkpoints,
            rollbacks: g.rollbacks,
            // Before `outputs` takes the exit values it digests.
            cells_digest: crate::report::state_digest(&g.res),
            outputs: g.res.take_exits(),
            files,
            telemetry,
        })
    }
}

impl CprInner {
    /// Whether `want` can be granted now: the table answers for a pop or a
    /// lock; a join waits for its thread's exit and a serialized section
    /// for quiescence.
    fn poll(&self, want: &PendingWant) -> Result<Poll, ResourceError> {
        Ok(match want {
            PendingWant::Op(Step::Pop(c)) => self.res.poll(ResourceId::Channel(c.id()))?,
            PendingWant::Op(Step::Lock(m)) => self.res.poll(ResourceId::Lock(m.id()))?,
            PendingWant::Op(Step::Join(j))
                if self.threads.get(j).is_none_or(|r| r.state != ThState::Done) =>
            {
                Poll::Pass
            }
            PendingWant::Op(Step::Serialized) if self.running > 0 => Poll::Wait,
            _ => Poll::Grant,
        })
    }

    /// The lowest active thread whose want can be granted now; while a
    /// checkpoint is requested, only spawns and exits drain.
    fn next_grantable(&self) -> Result<Option<ThreadId>, ResourceError> {
        let drain = self.ckpt_requested;
        for (&tid, t) in &self.threads {
            let Some(want) = t.pending.as_ref().filter(|_| t.state == ThState::Active) else {
                continue;
            };
            if (!drain || structural(want)) && self.poll(want)? == Poll::Grant {
                return Ok(Some(tid));
            }
        }
        Ok(None)
    }

    /// Why nothing can be granted while no step runs and threads are live,
    /// in the GPRS drivers' words: an active thread polls an empty channel
    /// or an unfinished join, or every live thread waits at a barrier.
    fn stuck(&self) -> &'static str {
        let polls = |t: &CprThread| {
            let want = t.pending.as_ref().filter(|_| t.state == ThState::Active);
            want.is_some_and(|w| self.poll(w) == Ok(Poll::Pass))
        };
        if self.threads.values().any(polls) {
            "deadlock: every runnable thread is polling (channel starvation or join cycle)"
        } else {
            "deadlock: live threads remain but none is runnable (barrier participants mismatch?)"
        }
    }

    /// Returns checked-out lock data to the table.
    fn release(&mut self, lock: LockId, data: Box<dyn Recoverable>) {
        if let Err(e) = self.res.apply(None, Op::Release(lock, LockData(data))) {
            self.poison(format!("CPR lock return: {e}"));
        }
    }

    fn poison(&mut self, msg: String) {
        self.poisoned.get_or_insert(msg);
    }

    /// Checkpoints require quiescence and no pending spawn/exit requests
    /// (which are not snapshot-able / shrink the thread set).
    fn ckpt_blocked(&self) -> bool {
        self.running > 0
            || self.threads.values().any(|t| t.pending.as_ref().is_some_and(structural))
    }

    fn take_checkpoint(&mut self) {
        let threads = self.threads.iter().map(|(&tid, t)| {
            let program = t.program.as_ref().expect("quiesced").save_into(None);
            (tid, (program, t.pending.as_ref().map(copy_want), t.state))
        });
        self.snapshot = Some(CprSnapshot {
            threads: threads.collect(),
            next_thread: self.next_thread,
            res: self.res.clone(),
            barriers: self.barriers.clone(),
            live: self.live,
        });
        // Checkpoints are the CPR output-commit points.
        for (_, committed, staged) in self.files.values_mut() {
            committed.extend_from_slice(staged);
            staged.clear();
        }
        self.checkpoints += 1;
        self.grants_since_ckpt = 0;
        self.ckpt_requested = false;
        if self.telemetry.enabled() {
            // Pool blocks are the only byte-sized state; the rest (programs,
            // queues, locks) is opaque boxes.
            let bytes = self.res.block_bytes();
            self.telemetry.metrics.cpr_barriers.inc();
            self.telemetry.metrics.cpr_records.inc();
            self.telemetry.metrics.checkpoint_size.record(bytes);
            self.telemetry.metrics.checkpoint_bytes.add(bytes);
            let epoch = self.checkpoints;
            self.telemetry
                .record(EXTERNAL_RING, TraceEvent::CprBarrier { epoch });
            self.telemetry
                .record(EXTERNAL_RING, TraceEvent::CprRecord { epoch, bytes });
        }
    }

    /// Fires chaos events due at the current grant count. Global events
    /// request rollbacks; local ones are handled precisely on the faulting
    /// context (counted, no rollback).
    fn chaos_tick_grant(&mut self) {
        let grants = self.stats.grants;
        while let Some(ev) = self.chaos.as_mut().and_then(|c| c.due_at_grant(grants)) {
            self.chaos_fire(&ev);
        }
    }

    /// Fires chaos events keyed to the rollback that just completed, while
    /// the machine is still quiesced — the requested rollback overlaps the
    /// one in flight (recovery-during-recovery on the baseline).
    fn chaos_tick_rollback(&mut self) {
        let rollbacks = self.rollbacks;
        while let Some(ev) = self.chaos.as_mut().and_then(|c| c.due_after_session(rollbacks)) {
            self.chaos_fire(&ev);
        }
    }

    /// Mirrors [`CprController::inject`] for each burst member.
    fn chaos_fire(&mut self, ev: &ChaosEvent) {
        for _ in 0..ev.burst.max(1) {
            self.stats.exceptions += 1;
            if ev.scope == ExceptionScope::Local {
                self.stats.exceptions_ignored += 1;
            } else {
                self.rollback_requested += 1;
            }
        }
    }

    fn rollback(&mut self) {
        self.rollback_requested = self.rollback_requested.saturating_sub(1);
        let Some(snap) = self.snapshot.as_ref() else {
            // No checkpoint yet: nothing to roll back to; the paper's
            // systems would restart the program from scratch. Early
            // injections are dropped (counted as ignored).
            self.stats.exceptions_ignored += 1;
            return;
        };
        self.threads.retain(|tid, _| snap.threads.contains_key(tid));
        for (tid, (program, want, state)) in &snap.threads {
            let t = self.threads.get_mut(tid).expect("snapshotted thread");
            t.program.as_mut().expect("quiesced").restore_from(program.as_ref());
            t.pending = want.as_ref().map(copy_want);
            t.state = *state;
        }
        self.next_thread = snap.next_thread;
        self.res = snap.res.clone();
        self.barriers = snap.barriers.clone();
        self.live = snap.live;
        for (_, _, staged) in self.files.values_mut() {
            staged.clear();
        }
        self.rollbacks += 1;
        self.stats.squashed += 1;
        self.grants_since_ckpt = 0;
        if self.telemetry.enabled() {
            self.telemetry.metrics.cpr_restores.inc();
            self.telemetry
                .record(EXTERNAL_RING, TraceEvent::CprRestore { epoch: self.checkpoints });
        }
        self.chaos_tick_rollback();
    }

    /// Grants `tid`'s pending want; returns its program and its step's
    /// inputs when a step must run.
    fn grant(&mut self, tid: ThreadId) -> Option<(Box<dyn DynThread>, StepInputs)> {
        let t = self.threads.get_mut(&tid).expect("exists");
        let want = t.pending.take().expect("grantable implies pending");
        let mut spawned = None;
        let op = match want {
            PendingWant::Start | PendingWant::Op(Step::Serialized) => None,
            PendingWant::Op(Step::Lock(m)) => Some(Op::Acquire(m.id())),
            PendingWant::Op(Step::Push(c, v)) => Some(Op::Push(c.id(), v)),
            PendingWant::Op(Step::Pop(c)) => Some(Op::Pop(c.id())),
            PendingWant::Op(Step::FetchAdd(a, d)) => Some(Op::FetchAdd(a, d)),
            PendingWant::Op(Step::Join(j)) => {
                let joined = self.res.exit(j).cloned();
                return self.run(tid, StepInputs { joined, ..StepInputs::default() });
            }
            PendingWant::Op(Step::Barrier(b)) => {
                t.state = ThState::Parked(b);
                let bar = self.barriers.get_mut(&b).expect("registered");
                if bar.park(tid).full {
                    bar.release(|w, _| {
                        let t = self.threads.get_mut(&w).expect("exists");
                        t.state = ThState::Active;
                        t.pending = Some(PendingWant::Start); // barrier continuation
                    });
                    self.stats.barrier_releases += 1;
                }
                return None;
            }
            PendingWant::Op(Step::Spawn(spec)) => {
                let child = ThreadId::new(self.next_thread);
                self.next_thread += 1;
                self.threads.insert(child, CprThread::new(spec.program));
                self.live += 1;
                self.stats.spawns += 1;
                spawned = Some(child);
                None
            }
            PendingWant::Op(Step::Exit(v)) => {
                t.state = ThState::Done;
                self.live -= 1;
                self.apply(Op::Exit(tid, v));
                return None;
            }
            _ => unreachable!("the baseline waits only on Start and Op"),
        };
        let got = op.map_or(Got::Nothing, |op| self.apply(op));
        self.run(tid, StepInputs { spawned, ..StepInputs::from(got) })
    }

    /// Applies a granted op; a refusal (the poll granted it) poisons.
    fn apply(&mut self, op: crate::ops::ResOp) -> crate::ops::ResGot {
        self.res.apply(None, op).map(|(got, _)| got).unwrap_or_else(|e| {
            self.poison(format!("CPR grant: {e}"));
            Got::Nothing
        })
    }

    /// Checks `tid`'s program out to run a step with `inputs`.
    fn run(&mut self, tid: ThreadId, inputs: StepInputs) -> Option<(Box<dyn DynThread>, StepInputs)> {
        let program = self.threads.get_mut(&tid).expect("exists").program.take();
        self.running += 1;
        Some((program.expect("program parked"), inputs))
    }

    /// Folds a finished step back in: its program with its next want, a
    /// lock it still held, its staged file writes. A panicked step poisons
    /// the run. Returns the lock it gave back, if any.
    fn deposit(&mut self, outcome: StepOutcome) -> Option<LockId> {
        self.running -= 1;
        let leftover_lock = match outcome {
            StepOutcome::Done {
                thread,
                program,
                result,
                leftover_lock,
                staged,
                ..
            } => {
                for (file, bytes) in staged {
                    if let Some((_, _, staged)) = self.files.get_mut(&file) {
                        staged.extend_from_slice(&bytes);
                    }
                }
                let t = self.threads.get_mut(&thread).expect("exists");
                t.program = Some(program);
                t.pending = Some(PendingWant::Op(result));
                leftover_lock
            }
            StepOutcome::Panicked {
                thread,
                leftover_lock,
                msg,
                ..
            } => {
                self.poison(format!("CPR step of {thread} panicked: {msg}"));
                leftover_lock
            }
        };
        let (lock, data) = leftover_lock?;
        self.release(lock, data);
        Some(lock)
    }
}

fn cpr_worker(shared: &Arc<CprShared>, worker_ix: usize) {
    let mut finished = None;
    while let Some((tid, program, inputs, wake_peer)) = decide(shared, finished.take()) {
        if wake_peer {
            // Notified after unlock: the woken peer does not stall on the
            // lock this worker just held.
            shared.waits.cv.notify_one();
        }
        let backend = CtxBackend::Cpr(shared.clone());
        finished = Some(run_step(backend, tid, SubThreadId::new(0), worker_ix, program, inputs));
    }
}

/// One CPR decision under one lock acquisition: deposit the finished step
/// (if any), roll back or checkpoint when due, then grant the lowest
/// grantable thread. Returns the step to run and whether to wake a parked
/// peer once the lock is released, or `None` when the run finished or
/// poisoned.
fn decide(
    shared: &CprShared,
    finished: Option<StepOutcome>,
) -> Option<(ThreadId, Box<dyn DynThread>, StepInputs, bool)> {
    let mut g = shared.inner.lock();
    if let Some(lock) = finished.and_then(|f| g.deposit(f)) {
        // This worker scans again below; only the lock's nested waiters
        // need a wake.
        shared.waits.wake_lock_shard(lock, &g.telemetry);
    }
    loop {
        // Rollback requests gate the terminal check: an exception injected
        // at one of the final grants still rolls the machine back to its
        // last checkpoint (restoring `live`) instead of being dropped by an
        // early finish.
        if g.rollback_requested > 0 && g.poisoned.is_none() {
            if g.running == 0 {
                // No wake: this worker grants from the restored state.
                g.rollback();
            } else {
                // The last running step's worker rolls back.
                shared.waits.park_seeker(&mut g, None);
            }
            continue;
        }
        if g.poisoned.is_some() || (g.live == 0 && g.running == 0) {
            // Terminal: every waiter class must see it.
            shared.waits.wake_all(&g.telemetry);
            return None;
        }
        if g.grants_since_ckpt >= g.ckpt_every {
            g.ckpt_requested = true;
        }
        if g.ckpt_requested && !g.ckpt_blocked() {
            // As after a rollback: keep scanning, wake nobody.
            g.take_checkpoint();
            continue;
        }
        let tid = match g.next_grantable() {
            Ok(Some(tid)) => tid,
            Err(e) => {
                g.poison(format!("CPR grant: {e}"));
                continue;
            }
            // Nothing runs that could change the state: poison by name
            // instead of parking where nothing is left to wake us.
            Ok(None) if g.running == 0 => {
                let stuck = g.stuck();
                g.poison(stuck.into());
                continue;
            }
            Ok(None) => {
                shared.waits.park_seeker(&mut g, None);
                continue;
            }
        };
        // `None` is a structural grant (barrier arrival, exit): the state
        // changed, so scan again under the same acquisition.
        if let Some((program, inputs)) = g.grant(tid) {
            g.stats.grants += 1;
            g.grants_since_ckpt += 1;
            g.chaos_tick_grant();
            // The engine's grant rule: overlap a parked peer's scan with
            // this step only when a CPU is spare to run it.
            let wake_peer =
                shared.waits.cv_sleepers.load(Ordering::Relaxed) > 0 && shared.waits.spare_cpu();
            if wake_peer && g.telemetry.enabled() {
                g.telemetry.metrics.wakeups_issued.inc_serialized();
            }
            return Some((tid, program, inputs, wake_peer));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::OneShot;
    use gprs_core::ids::GroupId;

    #[test]
    fn cpr_runs_one_shots() {
        let mut b = CprBuilder::new().workers(2);
        let mut tids = Vec::new();
        for i in 0..4u64 {
            tids.push(b.thread(OneShot::new(move || i + 1), GroupId::new(0), 1));
        }
        let report = b.build().run().unwrap();
        for (i, t) in tids.into_iter().enumerate() {
            assert_eq!(report.output::<u64>(t), i as u64 + 1);
        }
    }

    /// `rounds` fetch-adds on one atomic, then an exit.
    struct Adds {
        atomic: crate::handles::AtomicHandle,
        rounds: u32,
        done: u32,
    }

    impl gprs_core::history::Checkpoint for Adds {
        type Snapshot = u32;
        fn checkpoint(&self) -> u32 {
            self.done
        }
        fn restore(&mut self, s: &u32) {
            self.done = *s;
        }
    }

    impl crate::program::ThreadProgram for Adds {
        fn step(&mut self, _ctx: &mut crate::ctx::StepCtx<'_>) -> Step {
            if self.done == self.rounds {
                return Step::exit_unit();
            }
            self.done += 1;
            self.atomic.fetch_add(1)
        }
    }

    /// The baseline wakes by the engine's rule: a grant wakes a parked peer
    /// only when a CPU is spare for it, and a deposit, checkpoint or
    /// rollback wakes nobody. One CPR worker is driven by hand while its
    /// peer counts as parked with no CPU to spare, so every wake the run
    /// issues is counted and the only one due is the finish broadcast.
    #[test]
    fn a_cpr_grant_wakes_no_peer_without_a_spare_cpu() {
        let mut plan = ChaosPlan::new();
        for k in 1..=12 {
            plan.push(ChaosEvent::at_grant(k * 8));
        }
        let mut b = CprBuilder::new().workers(2).checkpoint_every(5).chaos(&plan);
        for _ in 0..4 {
            let atomic = b.atomic(0);
            b.thread(Adds { atomic, rounds: 30, done: 0 }, GroupId::new(0), 1);
        }
        let shared = b.build().shared;
        shared.waits.cv_sleepers.store(1, Ordering::Relaxed);
        assert!(!shared.waits.spare_cpu());
        let mut finished = None;
        while let Some((tid, program, inputs, wake_peer)) = decide(&shared, finished.take()) {
            assert!(!wake_peer, "no CPU is spare for the peer");
            let backend = CtxBackend::Cpr(shared.clone());
            finished = Some(run_step(backend, tid, SubThreadId::new(0), 0, program, inputs));
        }
        let g = shared.inner.lock();
        assert!(g.poisoned.is_none(), "{:?}", g.poisoned);
        assert_eq!(g.rollbacks, 12);
        assert!(g.checkpoints >= 12, "{} checkpoints", g.checkpoints);
        let wakeups = g.telemetry.metrics.wakeups_issued.get();
        assert_eq!(wakeups, 1, "the finish broadcast, and no wake per grant or rollback");
    }
}
