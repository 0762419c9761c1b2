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
//!   every lock's data, channels, atomics, barriers, allocator blocks — is
//!   recorded.
//! * **Global rollback** — every exception discards all work since the last
//!   checkpoint and restores that snapshot; threads spawned after it vanish
//!   (their spawn re-executes), and file output commits only at
//!   checkpoints (the CPR output-commit point).
//!
//! The contrast with GPRS's selective restart is the paper's headline
//! comparison; the benches drive both executors over the same programs.

use crate::ctx::{CtxBackend, StepCtx};
use gprs_core::ledger::EXTERNAL_RING;
use crate::handles::Recoverable;
use crate::program::{DynThread, Payload, SpawnSpec, Step, ThreadProgram};
use crate::report::{RunError, RunStats};
use gprs_core::chaos::{ChaosCursor, ChaosEvent, ChaosPlan};
use gprs_core::exception::ExceptionScope;
use gprs_core::ids::{AtomicId, BarrierId, ChannelId, GroupId, LockId, SubThreadId, ThreadId};
use gprs_telemetry::{
    RetiredOrderHash, ScheduleHash, Telemetry, TelemetryConfig, TelemetrySummary, TraceEvent,
};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A snapshot-able pending synchronization request. `Spawn` and `Exit` are
/// granted eagerly before any checkpoint, so snapshots never hold them.
enum CprWant {
    Start,
    Lock(LockId),
    Push(ChannelId, Payload),
    Pop(ChannelId),
    FetchAdd(AtomicId, u64),
    Barrier(BarrierId),
    Join(ThreadId),
    Serialized,
    Spawn(Option<SpawnSpec>),
    Exit(Payload),
}

impl CprWant {
    /// Clones the want for a checkpoint.
    ///
    /// # Panics
    /// Panics on `Spawn` — checkpoints are gated on spawn wants draining.
    fn snapshot(&self) -> CprWant {
        match self {
            CprWant::Start => CprWant::Start,
            CprWant::Lock(l) => CprWant::Lock(*l),
            CprWant::Push(c, v) => CprWant::Push(*c, v.clone()),
            CprWant::Pop(c) => CprWant::Pop(*c),
            CprWant::FetchAdd(a, d) => CprWant::FetchAdd(*a, *d),
            CprWant::Barrier(b) => CprWant::Barrier(*b),
            CprWant::Join(t) => CprWant::Join(*t),
            CprWant::Serialized => CprWant::Serialized,
            CprWant::Exit(v) => CprWant::Exit(v.clone()),
            CprWant::Spawn(_) => unreachable!("checkpoints drain spawn requests first"),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CprThState {
    Active,
    Parked,
    Done,
}

struct CprThread {
    program: Option<Box<dyn DynThread>>,
    #[allow(dead_code)] // kept for API symmetry with the GPRS executor
    group: GroupId,
    #[allow(dead_code)]
    weight: u32,
    pending: Option<CprWant>,
    popped: Option<Payload>,
    atomic_prev: Option<u64>,
    joined: Option<Payload>,
    spawned: Option<ThreadId>,
    state: CprThState,
    running: bool,
}

/// A thread's pending step inputs: popped payload, fetch-add observation,
/// join payload, spawned child.
type StepInputs = (Option<Payload>, Option<u64>, Option<Payload>, Option<ThreadId>);

/// Everything restored by a rollback.
struct CprSnapshot {
    thread_keys: BTreeSet<ThreadId>,
    programs: BTreeMap<ThreadId, Box<dyn std::any::Any + Send>>,
    wants: BTreeMap<ThreadId, Option<CprWant>>,
    inputs: BTreeMap<ThreadId, StepInputs>,
    states: BTreeMap<ThreadId, CprThState>,
    chans: BTreeMap<ChannelId, VecDeque<Payload>>,
    locks: BTreeMap<LockId, Box<dyn Recoverable>>,
    atomics: BTreeMap<AtomicId, u64>,
    barrier_waiting: BTreeMap<BarrierId, Vec<ThreadId>>,
    blocks: BTreeMap<u64, Vec<u8>>,
    next_block: u64,
    outputs: BTreeMap<ThreadId, Payload>,
    live: usize,
}

pub(crate) struct CprInner {
    threads: BTreeMap<ThreadId, CprThread>,
    next_thread: u32,
    chans: BTreeMap<ChannelId, VecDeque<Payload>>,
    locks: BTreeMap<LockId, (bool, Option<Box<dyn Recoverable>>)>,
    atomics: BTreeMap<AtomicId, u64>,
    barriers: BTreeMap<BarrierId, (u32, Vec<ThreadId>)>,
    files: BTreeMap<u64, (String, Vec<u8>, Vec<u8>)>,
    blocks: BTreeMap<u64, Vec<u8>>,
    next_block: u64,
    outputs: BTreeMap<ThreadId, Payload>,
    live: usize,
    running: usize,
    grants_since_ckpt: u64,
    ckpt_every: u64,
    ckpt_requested: bool,
    rollback_requested: u64,
    snapshot: Option<CprSnapshot>,
    stats: RunStats,
    checkpoints: u64,
    rollbacks: u64,
    telemetry: Arc<Telemetry>,
    poisoned: Option<String>,
    /// Chaos-plan cursor (see [`gprs_core::chaos`]). Every global exception
    /// is a whole-machine rollback under CPR, so the plan's victim selector
    /// is irrelevant here; only trigger, scope and burst apply.
    /// `MidRecovery(n)` events queue their rollback at the end of the `n`-th
    /// rollback, while the machine is still quiesced — the worker loop
    /// performs the overlapping rollback before granting again.
    chaos: Option<ChaosCursor>,
}

/// Shared state of a CPR run. Two waiter classes, two condvars: workers
/// seeking a grant park on `cv`; steps blocked on a nested lock park on
/// `lock_cv`. The split is what makes `notify_one` sound — a single mixed
/// queue could hand a lock-release wakeup to a seeker (or vice versa) and
/// strand the waiter that actually needed it.
pub(crate) struct CprShared {
    inner: Mutex<CprInner>,
    /// Grant seekers (one-at-a-time wakeup chains; broadcast on finish,
    /// poison, rollback and checkpoint).
    cv: Condvar,
    /// Steps blocked in [`CprShared::acquire_lock_blocking`].
    lock_cv: Condvar,
    /// Workers parked on `cv` / `lock_cv`. Mutated only while holding
    /// `inner` (see the engine's `Shared::cv_sleepers` for the exactness
    /// argument), so notify paths skip the kernel wake when nobody waits.
    cv_sleepers: AtomicUsize,
    lock_sleepers: AtomicUsize,
}

impl CprShared {
    fn count_wakeup(&self, g: &CprInner) {
        if g.telemetry.enabled() {
            g.telemetry.metrics.wakeups_issued.inc();
        }
    }

    /// `cv.notify_one()` gated on the exact sleeper count (callers hold
    /// `inner`).
    fn wake_one_seeker(&self, g: &CprInner) {
        if self.cv_sleepers.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.count_wakeup(g);
        self.cv.notify_one();
    }

    /// `lock_cv.notify_all()` gated on the exact sleeper count.
    fn wake_lock_waiters(&self, g: &CprInner) {
        if self.lock_sleepers.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.count_wakeup(g);
        self.lock_cv.notify_all();
    }

    pub(crate) fn release_lock(&self, lock: LockId, data: Box<dyn Recoverable>) {
        let mut g = self.inner.lock();
        let entry = g.locks.get_mut(&lock).expect("registered lock");
        entry.0 = false;
        entry.1 = Some(data);
        // Nested waiters plus one seeker (a Lock want may be grantable now).
        self.wake_lock_waiters(&g);
        self.wake_one_seeker(&g);
    }

    pub(crate) fn acquire_lock_blocking(&self, lock: LockId) -> Box<dyn Recoverable> {
        let mut g = self.inner.lock();
        let mut woke = false;
        loop {
            assert!(
                g.poisoned.is_none(),
                "CPR executor poisoned while waiting for a nested lock"
            );
            let entry = g.locks.get_mut(&lock).expect("registered lock");
            if !entry.0 {
                if let Some(d) = entry.1.take() {
                    entry.0 = true;
                    return d;
                }
            }
            if woke && g.telemetry.enabled() {
                g.telemetry.metrics.wakeups_spurious.inc();
            }
            self.lock_sleepers.fetch_add(1, Ordering::Relaxed);
            self.lock_cv.wait(&mut g);
            self.lock_sleepers.fetch_sub(1, Ordering::Relaxed);
            woke = true;
        }
    }

    pub(crate) fn alloc(&self, size: usize) -> u64 {
        let mut g = self.inner.lock();
        let id = g.next_block;
        g.next_block += 1;
        g.blocks.insert(id, vec![0; size]);
        g.stats.allocs += 1;
        id
    }

    pub(crate) fn free(&self, block: u64) {
        let mut g = self.inner.lock();
        g.blocks.remove(&block).expect("double free of pool block");
    }

    pub(crate) fn with_block<R>(&self, block: u64, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let mut g = self.inner.lock();
        f(g.blocks.get_mut(&block).expect("block freed"))
    }

    pub(crate) fn read_block<R>(&self, block: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        let g = self.inner.lock();
        f(g.blocks.get(&block).expect("block freed"))
    }

    /// Plain (unsynchronized) load of a shared atomic cell. The CPR
    /// baseline rolls back *all* state at once, so plain accesses need no
    /// special recovery handling (and no race detection — global rollback
    /// does not depend on data-race freedom).
    pub(crate) fn plain_load(&self, atomic: AtomicId) -> u64 {
        *self.inner.lock().atomics.get(&atomic).expect("registered atomic")
    }

    /// Plain (unsynchronized) store; see [`Self::plain_load`]. The cell is
    /// part of the coordinated snapshot, so rollback restores it.
    pub(crate) fn plain_store(&self, atomic: AtomicId, value: u64) {
        self.inner
            .lock()
            .atomics
            .insert(atomic, value)
            .expect("registered atomic");
    }
}

/// Builder for the CPR baseline executor, mirroring
/// [`crate::GprsBuilder`]'s registration API so the same programs run on
/// both executors.
pub struct CprBuilder {
    workers: usize,
    ckpt_every: u64,
    telemetry: TelemetryConfig,
    inner: CprInner,
    next_lock: u64,
    next_chan: u64,
    next_atomic: u64,
    next_barrier: u64,
    next_file: u64,
}

impl std::fmt::Debug for CprBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CprBuilder")
            .field("workers", &self.workers)
            .field("ckpt_every", &self.ckpt_every)
            .finish_non_exhaustive()
    }
}

impl Default for CprBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CprBuilder {
    /// A CPR executor checkpointing every 64 grants on 4 workers.
    pub fn new() -> Self {
        CprBuilder {
            workers: 4,
            ckpt_every: 64,
            telemetry: TelemetryConfig::default(),
            inner: CprInner {
                threads: BTreeMap::new(),
                next_thread: 0,
                chans: BTreeMap::new(),
                locks: BTreeMap::new(),
                atomics: BTreeMap::new(),
                barriers: BTreeMap::new(),
                files: BTreeMap::new(),
                blocks: BTreeMap::new(),
                next_block: 0,
                outputs: BTreeMap::new(),
                live: 0,
                running: 0,
                grants_since_ckpt: 0,
                ckpt_every: 64,
                ckpt_requested: false,
                rollback_requested: 0,
                snapshot: None,
                stats: RunStats::default(),
                checkpoints: 0,
                rollbacks: 0,
                telemetry: Arc::new(Telemetry::disabled()),
                poisoned: None,
                chaos: None,
            },
            next_lock: 0,
            next_chan: 0,
            next_atomic: 0,
            next_barrier: 0,
            next_file: 0,
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
        self.inner.chaos = (!plan.is_empty()).then(|| ChaosCursor::new(plan));
        self
    }

    /// Registers a mutex owning `init`.
    pub fn mutex<T: Clone + Send + 'static>(
        &mut self,
        init: T,
    ) -> crate::handles::MutexHandle<T> {
        let id = LockId::new(self.next_lock);
        self.next_lock += 1;
        self.inner.locks.insert(id, (false, Some(Box::new(init))));
        crate::handles::MutexHandle {
            raw: crate::handles::RawMutex(id),
            _t: std::marker::PhantomData,
        }
    }

    /// Registers a FIFO channel.
    pub fn channel<T: Send + Sync + 'static>(&mut self) -> crate::handles::ChannelHandle<T> {
        let id = ChannelId::new(self.next_chan);
        self.next_chan += 1;
        self.inner.chans.insert(id, VecDeque::new());
        crate::handles::ChannelHandle {
            raw: crate::handles::RawChannel(id),
            _t: std::marker::PhantomData,
        }
    }

    /// Registers an atomic `u64`.
    pub fn atomic(&mut self, init: u64) -> crate::handles::AtomicHandle {
        let id = AtomicId::new(self.next_atomic);
        self.next_atomic += 1;
        self.inner.atomics.insert(id, init);
        crate::handles::AtomicHandle(id)
    }

    /// Registers a barrier.
    pub fn barrier(&mut self, participants: u32) -> crate::handles::BarrierHandle {
        let id = BarrierId::new(self.next_barrier);
        self.next_barrier += 1;
        self.inner.barriers.insert(id, (participants, Vec::new()));
        crate::handles::BarrierHandle(id, participants)
    }

    /// Registers an output file (committed at checkpoints).
    pub fn file(&mut self, name: impl Into<String>) -> crate::handles::FileHandle {
        let id = self.next_file;
        self.next_file += 1;
        self.inner
            .files
            .insert(id, (name.into(), Vec::new(), Vec::new()));
        crate::handles::FileHandle(id)
    }

    /// Registers an initial thread.
    pub fn thread<P>(&mut self, program: P, group: GroupId, weight: u32) -> ThreadId
    where
        P: ThreadProgram,
        P::Snapshot: Sized,
    {
        let tid = ThreadId::new(self.inner.next_thread);
        self.inner.next_thread += 1;
        self.inner.threads.insert(
            tid,
            CprThread {
                program: Some(Box::new(program)),
                group,
                weight,
                pending: Some(CprWant::Start),
                popped: None,
                atomic_prev: None,
                joined: None,
                spawned: None,
                state: CprThState::Active,
                running: false,
            },
        );
        self.inner.live += 1;
        tid
    }

    /// Finalizes the executor.
    pub fn build(mut self) -> CprRuntime {
        self.inner.ckpt_every = self.ckpt_every;
        self.inner.telemetry = Arc::new(Telemetry::new(&self.telemetry, self.workers));
        let workers = self.workers;
        CprRuntime {
            shared: Arc::new(CprShared {
                inner: Mutex::new(self.inner),
                cv: Condvar::new(),
                lock_cv: Condvar::new(),
                cv_sleepers: AtomicUsize::new(0),
                lock_sleepers: AtomicUsize::new(0),
            }),
            workers,
        }
    }
}

/// A configured CPR baseline run.
pub struct CprRuntime {
    shared: Arc<CprShared>,
    workers: usize,
}

impl std::fmt::Debug for CprRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CprRuntime")
            .field("workers", &self.workers)
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
    pub fn inject(&self) {
        let mut g = self.shared.inner.lock();
        g.rollback_requested += 1;
        g.stats.exceptions += 1;
        drop(g);
        self.shared.cv.notify_all();
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
        let mut joins = Vec::new();
        for ix in 0..self.workers {
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
        let telemetry = g.telemetry.summarize(
            &ScheduleHash::new(),
            &RetiredOrderHash::new(),
            Vec::new(),
        );
        Ok(CprReport {
            stats: g.stats,
            checkpoints: g.checkpoints,
            rollbacks: g.rollbacks,
            outputs: std::mem::take(&mut g.outputs),
            files,
            telemetry,
        })
    }
}

impl CprInner {
    fn grantable(&self, tid: ThreadId) -> bool {
        let t = &self.threads[&tid];
        match t.pending.as_ref() {
            None => false,
            Some(CprWant::Pop(c)) => self.chans.get(c).is_some_and(|q| !q.is_empty()),
            Some(CprWant::Lock(l)) => {
                self.locks.get(l).is_some_and(|(held, d)| !held && d.is_some())
            }
            Some(CprWant::Join(j)) => self
                .threads
                .get(j)
                .is_some_and(|r| r.state == CprThState::Done),
            Some(CprWant::Serialized) => self.running == 0,
            Some(_) => true,
        }
    }

    /// Checkpoints require quiescence and no pending spawn/exit requests
    /// (which are not snapshot-able / shrink the thread set).
    fn ckpt_blocked(&self) -> bool {
        self.running > 0
            || self
                .threads
                .values()
                .any(|t| matches!(t.pending, Some(CprWant::Spawn(_)) | Some(CprWant::Exit(_))))
    }

    fn take_checkpoint(&mut self) {
        let mut programs = BTreeMap::new();
        let mut wants = BTreeMap::new();
        let mut inputs = BTreeMap::new();
        let mut states = BTreeMap::new();
        for (&tid, t) in &self.threads {
            programs.insert(tid, t.program.as_ref().expect("quiesced").save_into(None));
            wants.insert(tid, t.pending.as_ref().map(CprWant::snapshot));
            inputs.insert(
                tid,
                (t.popped.clone(), t.atomic_prev, t.joined.clone(), t.spawned),
            );
            states.insert(tid, t.state);
        }
        self.snapshot = Some(CprSnapshot {
            thread_keys: self.threads.keys().copied().collect(),
            programs,
            wants,
            inputs,
            states,
            chans: self.chans.clone(),
            locks: self
                .locks
                .iter()
                .map(|(&l, (_, d))| (l, d.as_ref().expect("quiesced").clone_box()))
                .collect(),
            atomics: self.atomics.clone(),
            barrier_waiting: self
                .barriers
                .iter()
                .map(|(&b, (_, w))| (b, w.clone()))
                .collect(),
            blocks: self.blocks.clone(),
            next_block: self.next_block,
            outputs: self.outputs.clone(),
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
            let bytes: u64 = self.blocks.values().map(|b| b.len() as u64).sum();
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
        let keys: Vec<ThreadId> = self.threads.keys().copied().collect();
        for k in keys {
            if !snap.thread_keys.contains(&k) {
                self.threads.remove(&k);
            }
        }
        for (&tid, prog_snap) in &snap.programs {
            let t = self.threads.get_mut(&tid).expect("snapshotted thread");
            t.program
                .as_mut()
                .expect("quiesced")
                .restore_from(prog_snap.as_ref());
            t.pending = snap.wants[&tid].as_ref().map(CprWant::snapshot);
            let (p, a, j, s) = &snap.inputs[&tid];
            t.popped = p.clone();
            t.atomic_prev = *a;
            t.joined = j.clone();
            t.spawned = *s;
            t.state = snap.states[&tid];
        }
        self.chans = snap.chans.clone();
        for (&l, data) in &snap.locks {
            self.locks.insert(l, (false, Some(data.clone_box())));
        }
        self.atomics = snap.atomics.clone();
        for (&b, w) in &snap.barrier_waiting {
            if let Some((_, waiting)) = self.barriers.get_mut(&b) {
                *waiting = w.clone();
            }
        }
        self.blocks = snap.blocks.clone();
        self.next_block = snap.next_block;
        self.outputs = snap.outputs.clone();
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
}

struct CprTask {
    tid: ThreadId,
    program: Box<dyn DynThread>,
    popped: Option<Payload>,
    atomic_prev: Option<u64>,
    joined: Option<Payload>,
    spawned: Option<ThreadId>,
    lock_out: Option<(LockId, Box<dyn Recoverable>)>,
}

fn cpr_worker(shared: &Arc<CprShared>, worker_ix: usize) {
    loop {
        let task = {
            let mut g = shared.inner.lock();
            'find: loop {
                // Rollback requests gate the terminal check: an exception
                // injected at one of the final grants still rolls the
                // machine back to its last checkpoint (restoring `live`)
                // instead of being dropped by an early finish.
                if g.rollback_requested > 0 && g.poisoned.is_none() {
                    if g.running == 0 {
                        g.rollback();
                        // Rollback rewrites global state: broadcast (rare).
                        shared.cv.notify_all();
                        continue;
                    }
                    shared.cv_sleepers.fetch_add(1, Ordering::Relaxed);
                    shared.cv.wait(&mut g);
                    shared.cv_sleepers.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
                if g.poisoned.is_some() || (g.live == 0 && g.running == 0) {
                    // Terminal: every waiter class must see it.
                    shared.cv.notify_all();
                    shared.lock_cv.notify_all();
                    return;
                }
                if g.grants_since_ckpt >= g.ckpt_every {
                    g.ckpt_requested = true;
                }
                if g.ckpt_requested && !g.ckpt_blocked() {
                    g.take_checkpoint();
                    // Checkpoint unblocks every drained seeker: broadcast
                    // (bounded by ckpt_every, not per-grant).
                    shared.cv.notify_all();
                    continue;
                }
                let only_drain = g.ckpt_requested;
                let tids: Vec<ThreadId> = g.threads.keys().copied().collect();
                let mut structural_grant = false;
                for tid in tids {
                    let t = &g.threads[&tid];
                    if t.running || t.state != CprThState::Active || t.pending.is_none() {
                        continue;
                    }
                    let structural = matches!(
                        t.pending,
                        Some(CprWant::Spawn(_)) | Some(CprWant::Exit(_))
                    );
                    if only_drain && !structural {
                        continue;
                    }
                    if !g.grantable(tid) {
                        continue;
                    }
                    match grant_cpr(&mut g, tid) {
                        Some(task) => {
                            g.stats.grants += 1;
                            g.grants_since_ckpt += 1;
                            g.chaos_tick_grant();
                            // Keep one peer scanning while we run the step
                            // (skipped when nobody is parked).
                            shared.wake_one_seeker(&g);
                            break 'find task;
                        }
                        None => {
                            structural_grant = true;
                            break;
                        }
                    }
                }
                if structural_grant {
                    // State changed; keep scanning under the same
                    // acquisition — follow-on grants fan out via the
                    // post-grant wakeup chain.
                    continue;
                }
                shared.cv_sleepers.fetch_add(1, Ordering::Relaxed);
                shared.cv.wait(&mut g);
                shared.cv_sleepers.fetch_sub(1, Ordering::Relaxed);
            }
        };
        run_cpr_task(shared, worker_ix, task);
    }
}

/// Grants `tid`'s pending want; returns a task when a step must run.
fn grant_cpr(g: &mut CprInner, tid: ThreadId) -> Option<CprTask> {
    let want = g
        .threads
        .get_mut(&tid)
        .expect("exists")
        .pending
        .take()
        .expect("grantable implies pending");
    let mut popped = None;
    let mut atomic_prev = None;
    let mut joined = None;
    let mut spawned = None;
    let mut lock_out = None;
    match want {
        CprWant::Start | CprWant::Serialized => {}
        CprWant::Lock(l) => {
            let entry = g.locks.get_mut(&l).expect("registered");
            entry.0 = true;
            lock_out = Some((l, entry.1.take().expect("free lock has data")));
        }
        CprWant::Push(c, v) => {
            g.chans.get_mut(&c).expect("registered").push_back(v);
        }
        CprWant::Pop(c) => {
            popped = g.chans.get_mut(&c).expect("registered").pop_front();
        }
        CprWant::FetchAdd(a, d) => {
            let slot = g.atomics.get_mut(&a).expect("registered");
            atomic_prev = Some(*slot);
            *slot = slot.wrapping_add(d);
        }
        CprWant::Join(j) => {
            joined = g.outputs.get(&j).cloned();
        }
        CprWant::Barrier(b) => {
            let t = g.threads.get_mut(&tid).expect("exists");
            t.state = CprThState::Parked;
            let (participants, waiting) = g.barriers.get_mut(&b).expect("registered");
            waiting.push(tid);
            if waiting.len() as u32 == *participants {
                let batch = std::mem::take(waiting);
                for w in batch {
                    let t = g.threads.get_mut(&w).expect("exists");
                    t.state = CprThState::Active;
                    t.pending = Some(CprWant::Start); // barrier continuation
                }
                g.stats.barrier_releases += 1;
            }
            return None;
        }
        CprWant::Spawn(mut spec_slot) => {
            let spec = spec_slot.take().expect("spawn granted once");
            let child = ThreadId::new(g.next_thread);
            g.next_thread += 1;
            g.threads.insert(
                child,
                CprThread {
                    program: Some(spec.program),
                    group: spec.group,
                    weight: spec.weight,
                    pending: Some(CprWant::Start),
                    popped: None,
                    atomic_prev: None,
                    joined: None,
                    spawned: None,
                    state: CprThState::Active,
                    running: false,
                },
            );
            g.live += 1;
            g.stats.spawns += 1;
            spawned = Some(child);
        }
        CprWant::Exit(v) => {
            let t = g.threads.get_mut(&tid).expect("exists");
            t.state = CprThState::Done;
            g.outputs.insert(tid, v);
            g.live -= 1;
            return None;
        }
    }
    let t = g.threads.get_mut(&tid).expect("exists");
    let program = t.program.take().expect("program parked");
    let popped = popped.or_else(|| t.popped.take());
    t.running = true;
    g.running += 1;
    Some(CprTask {
        tid,
        program,
        popped,
        atomic_prev,
        joined,
        spawned,
        lock_out,
    })
}

fn run_cpr_task(shared: &Arc<CprShared>, worker_ix: usize, task: CprTask) {
    let CprTask {
        tid,
        mut program,
        popped,
        atomic_prev,
        joined,
        spawned,
        lock_out,
    } = task;
    let mut ctx = StepCtx::new(
        CtxBackend::Cpr(shared.clone()),
        tid,
        SubThreadId::new(0),
        worker_ix,
        popped,
        atomic_prev,
        joined,
        spawned,
        lock_out,
    );
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| program.step(&mut ctx)));
    let (leftover_lock, staged) = ctx.into_parts();
    let mut g = shared.inner.lock();
    g.running -= 1;
    let released_lock = leftover_lock.is_some();
    if let Some((l, d)) = leftover_lock {
        let entry = g.locks.get_mut(&l).expect("registered");
        entry.0 = false;
        entry.1 = Some(d);
    }
    for (file, bytes) in staged {
        if let Some((_, _, staged)) = g.files.get_mut(&file) {
            staged.extend_from_slice(&bytes);
        }
    }
    match outcome {
        Ok(step) => {
            let t = g.threads.get_mut(&tid).expect("exists");
            t.running = false;
            t.program = Some(program);
            t.popped = None;
            t.atomic_prev = None;
            t.joined = None;
            t.pending = Some(match step {
                Step::Lock(m) => CprWant::Lock(m.id()),
                Step::Push(c, v) => CprWant::Push(c.id(), v),
                Step::Pop(c) => CprWant::Pop(c.id()),
                Step::FetchAdd(a, d) => CprWant::FetchAdd(a, d),
                Step::Barrier(b) => CprWant::Barrier(b),
                Step::Spawn(spec) => CprWant::Spawn(Some(spec)),
                Step::Join(j) => CprWant::Join(j),
                Step::Serialized => CprWant::Serialized,
                Step::Exit(v) => CprWant::Exit(v),
            });
        }
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".into());
            if g.poisoned.is_none() {
                g.poisoned = Some(format!("CPR step of {tid} panicked: {msg}"));
            }
            // Poison is terminal: wake every class so waiters bail out.
            shared.cv.notify_all();
            shared.lock_cv.notify_all();
            return;
        }
    }
    // Targeted wakeups: the depositing worker loops back to scan on its
    // own, so one extra seeker suffices; a returned lock additionally
    // wakes the nested waiters parked on it. Both are skipped outright
    // when the corresponding parked count is zero.
    if released_lock {
        shared.wake_lock_waiters(&g);
    }
    shared.wake_one_seeker(&g);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::OneShot;

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
}
