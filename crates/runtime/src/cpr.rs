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
//! The baseline shares the GPRS runtime's machinery and differs only in
//! policy: its builder holds the same [`Registry`] (so every program wires
//! onto both executors with the same code), and its workers park and wake
//! through the same `WaitQueues` — each grant wakes at most one peer, a
//! returned lock wakes its own shard, and only finish and poison broadcast.
//!
//! The contrast with GPRS's selective restart is the paper's headline
//! comparison. What drives both executors over the same programs is the
//! `gprs-chaos` campaign (its `cpr/*` legs run every runtime program),
//! `crates/runtime/tests/cpr_tests.rs`, `tests/end_to_end.rs` and the
//! `pbzip2_pipeline` example; no benchmark workload runs the baseline.

use crate::ctx::{CtxBackend, StepCtx};
use crate::engine::{BarrierRec, WaitQueues};
use crate::handles::Recoverable;
use crate::program::{DynThread, Payload, SpawnSpec, Step};
use crate::registry::Registry;
use crate::report::{RunError, RunStats};
use gprs_core::chaos::{ChaosCursor, ChaosEvent, ChaosPlan};
use gprs_core::exception::ExceptionScope;
use gprs_core::ids::{AtomicId, BarrierId, ChannelId, LockId, SubThreadId, ThreadId};
use gprs_core::ledger::EXTERNAL_RING;
use gprs_telemetry::{
    RetiredOrderHash, ScheduleHash, Telemetry, TelemetryConfig, TelemetrySummary, TraceEvent,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
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
    pending: Option<CprWant>,
    popped: Option<Payload>,
    atomic_prev: Option<u64>,
    joined: Option<Payload>,
    spawned: Option<ThreadId>,
    state: CprThState,
    running: bool,
}

impl CprThread {
    /// A thread about to take its first step.
    fn new(program: Box<dyn DynThread>) -> Self {
        CprThread {
            program: Some(program),
            pending: Some(CprWant::Start),
            popped: None,
            atomic_prev: None,
            joined: None,
            spawned: None,
            state: CprThState::Active,
            running: false,
        }
    }
}

/// One thread's part of a snapshot: its program's checkpoint, pending want,
/// pending step inputs (popped payload, fetch-add observation, join
/// payload, spawned child) and state.
type ThreadSnap = (
    Box<dyn std::any::Any + Send>,
    Option<CprWant>,
    (Option<Payload>, Option<u64>, Option<Payload>, Option<ThreadId>),
    CprThState,
);

/// Everything restored by a rollback.
struct CprSnapshot {
    threads: BTreeMap<ThreadId, ThreadSnap>,
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
    /// Each lock's data; `None` while checked out to a running step.
    locks: BTreeMap<LockId, Option<Box<dyn Recoverable>>>,
    atomics: BTreeMap<AtomicId, u64>,
    barriers: BTreeMap<BarrierId, BarrierRec>,
    /// Each file's name, committed bytes and bytes staged since the last
    /// checkpoint.
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
    inner: Mutex<CprInner>,
    waits: WaitQueues,
}

impl CprShared {
    /// Returns a lock checked out by a step: wakes the nested waiters on
    /// its shard, and one seeker (a `Lock` want may be grantable now).
    pub(crate) fn release_lock(&self, lock: LockId, data: Box<dyn Recoverable>) {
        let mut g = self.inner.lock();
        *g.locks.get_mut(&lock).expect("registered lock") = Some(data);
        self.waits.wake_lock_shard(lock, &g.telemetry);
        self.waits.wake_one_seeker(&g.telemetry);
    }

    /// A nested acquire: parks on the lock's shard until it is returned.
    pub(crate) fn acquire_lock_blocking(&self, lock: LockId) -> Box<dyn Recoverable> {
        let mut g = self.inner.lock();
        let mut woke = false;
        loop {
            assert!(
                g.poisoned.is_none(),
                "CPR executor poisoned while waiting for a nested lock"
            );
            if let Some(d) = g.locks.get_mut(&lock).expect("registered lock").take() {
                return d;
            }
            if woke && g.telemetry.enabled() {
                g.telemetry.metrics.wakeups_spurious.inc();
            }
            self.waits.park_on_lock(lock, &mut g);
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
        let Registry { threads, locks, chans, atomics, barriers, files } = self.reg;
        let inner = CprInner {
            next_thread: threads.len() as u32,
            live: threads.len(),
            threads: (0..)
                .zip(threads)
                .map(|(t, (program, _, _))| (ThreadId::new(t), CprThread::new(program)))
                .collect(),
            chans: chans.into_keys().map(|c| (c, VecDeque::new())).collect(),
            locks: locks.into_iter().map(|(l, r)| (l, r.data)).collect(),
            atomics,
            barriers,
            files: files
                .into_iter()
                .map(|(id, f)| (id, (f.name, f.committed, Vec::new())))
                .collect(),
            blocks: BTreeMap::new(),
            next_block: 0,
            outputs: BTreeMap::new(),
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
                waits: WaitQueues::new(),
            }),
            workers: self.workers,
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
            Some(CprWant::Lock(l)) => self.locks.get(l).is_some_and(Option::is_some),
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
        let threads = self.threads.iter().map(|(&tid, t)| {
            let program = t.program.as_ref().expect("quiesced").save_into(None);
            let inputs = (t.popped.clone(), t.atomic_prev, t.joined.clone(), t.spawned);
            (tid, (program, t.pending.as_ref().map(CprWant::snapshot), inputs, t.state))
        });
        self.snapshot = Some(CprSnapshot {
            threads: threads.collect(),
            chans: self.chans.clone(),
            locks: self
                .locks
                .iter()
                .map(|(&l, d)| (l, d.as_ref().expect("quiesced").clone_box()))
                .collect(),
            atomics: self.atomics.clone(),
            barrier_waiting: self
                .barriers
                .iter()
                .map(|(&b, r)| (b, r.waiting.clone()))
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
        self.threads.retain(|tid, _| snap.threads.contains_key(tid));
        for (tid, (program, want, (p, a, j, s), state)) in &snap.threads {
            let t = self.threads.get_mut(tid).expect("snapshotted thread");
            t.program.as_mut().expect("quiesced").restore_from(program.as_ref());
            t.pending = want.as_ref().map(CprWant::snapshot);
            t.popped = p.clone();
            t.atomic_prev = *a;
            t.joined = j.clone();
            t.spawned = *s;
            t.state = *state;
        }
        self.chans = snap.chans.clone();
        for (&l, data) in &snap.locks {
            self.locks.insert(l, Some(data.clone_box()));
        }
        self.atomics = snap.atomics.clone();
        for (&b, w) in &snap.barrier_waiting {
            if let Some(r) = self.barriers.get_mut(&b) {
                r.waiting = w.clone();
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
                        // No wake: this worker keeps scanning, and each
                        // grant it makes wakes one peer.
                        g.rollback();
                        continue;
                    }
                    // The last running step's worker rolls back.
                    shared.waits.park_seeker(&mut g, None);
                    continue;
                }
                if g.poisoned.is_some() || (g.live == 0 && g.running == 0) {
                    // Terminal: every waiter class must see it.
                    shared.waits.wake_all(&g.telemetry);
                    return;
                }
                if g.grants_since_ckpt >= g.ckpt_every {
                    g.ckpt_requested = true;
                }
                if g.ckpt_requested && !g.ckpt_blocked() {
                    // As after a rollback: keep scanning, wake nobody.
                    g.take_checkpoint();
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
                            shared.waits.wake_one_seeker(&g.telemetry);
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
                shared.waits.park_seeker(&mut g, None);
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
            let data = g.locks.get_mut(&l).expect("registered").take();
            lock_out = Some((l, data.expect("free lock has data")));
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
            let r = g.barriers.get_mut(&b).expect("registered");
            r.waiting.push(tid);
            if r.waiting.len() as u32 == r.participants {
                let batch = std::mem::take(&mut r.waiting);
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
            g.threads.insert(child, CprThread::new(spec.program));
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
    let released_lock = leftover_lock.as_ref().map(|(l, _)| *l);
    if let Some((l, d)) = leftover_lock {
        *g.locks.get_mut(&l).expect("registered") = Some(d);
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
            shared.waits.wake_all(&g.telemetry);
            return;
        }
    }
    // Targeted wakeups: the depositing worker loops back to scan on its
    // own, so one extra seeker suffices; a returned lock additionally
    // wakes the nested waiters on its shard.
    if let Some(l) = released_lock {
        shared.waits.wake_lock_shard(l, &g.telemetry);
    }
    shared.waits.wake_one_seeker(&g.telemetry);
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
}
