//! The execution engine: shared runtime state, the worker loop, and the
//! deterministic grant logic — the DEX of Figure 4, with the load-balancing
//! scheduler of `§3.3` provided by the worker pool itself.
//!
//! All bookkeeping lives in [`Inner`] behind one mutex; workers take the
//! lock only to *grant* synchronization operations and to *deposit* step
//! results — the sub-thread bodies (user `step` code) run without it, in
//! parallel. Grants follow the configured deterministic schedule: the order
//! enforcer's token stops at a thread whose operation cannot proceed (a held
//! lock, a running step) and passes over empty-FIFO polls and unfinished
//! joins, so the grant sequence depends only on program structure, never on
//! timing — the determinism tests verify this by comparing grant traces
//! across worker counts.

use crate::ctx::{CtxBackend, StepCtx, StepInputs};
use crate::handles::Recoverable;
use crate::ops::{LockData, Res, ResGot, ResInverse, ResOp, RtOp};
use crate::program::{DynThread, Payload, SpawnSpec, Step};
use crate::report::RunStats;
use gprs_core::chaos::{ChaosCursor, ChaosEvent, VictimSelector};
use gprs_core::deps::Provenance;
use gprs_core::exception::{Exception, ExceptionKind, ExceptionScope};
use gprs_core::ids::{
    AtomicId, BarrierId, ChannelId, ContextId, GroupId, LockId, ResourceId, SubThreadId, ThreadId,
};
use gprs_core::ledger::{Checkpointed, Poison, RetireFacts, RunLedger, EXTERNAL_RING};
use gprs_core::order::{OrderEnforcer, OrderGate, ScheduleKind};
use gprs_core::persist::PersistBackend;
use gprs_core::racecheck::{AccessKind, OpenEdge};
use gprs_core::recovery::{Recovery, RecoveryPolicy};
use gprs_core::resources::{Got, Inverse, Op, Poll, ResourceError};
use gprs_core::retire::{self, Batch, Retirement};
use gprs_core::roster::{Arrival, Barrier, Roster, ThState};
use gprs_core::rol::{ReorderList, RolEntry, SubThreadStatus};
use gprs_core::subthread::{SubThread, SubThreadKind, SyncOp};
use gprs_core::wal::WriteAheadLog;
use gprs_telemetry::{Telemetry, TelemetryConfig};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Runtime configuration (see [`crate::GprsBuilder`]).
#[derive(Debug, Clone)]
pub(crate) struct RunConfig {
    pub schedule: ScheduleKind,
    pub workers: usize,
    pub recovery: RecoveryPolicy,
    pub telemetry: TelemetryConfig,
    /// Run the happens-before race detector over the retired order.
    pub racecheck: bool,
    /// Stable job identity stamped into the report (serve layer; 0 solo).
    pub job_id: u64,
    /// Monotonic submission sequence number (serve layer; 0 solo).
    pub submit_seq: u64,
    /// Durable persistence backend the retirement order is logged through
    /// (`None` — the default — keeps today's volatile behaviour and hot
    /// paths: every durable hook is gated on one `is_some` branch).
    pub persist: Option<Arc<dyn PersistBackend>>,
    /// Cells whose `PlainStore` WAL undo records are statically proven
    /// dead (write-only across the attached model: no plain load, no
    /// `Update`, no synchronizing fetch-add ever observes the value).
    /// Stores to these cells skip the WAL append entirely — a squash
    /// leaves a stale value no one can read, and deterministic
    /// re-execution overwrites it. Empty (the default) unless
    /// [`crate::GprsBuilder::elide`] armed the proof.
    pub elide_cells: Arc<std::collections::BTreeSet<AtomicId>>,
}

/// The paper's defaults: balance-aware (basic) ordering, selective restart,
/// 4 workers.
impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            schedule: ScheduleKind::BalanceBasic,
            workers: 4,
            recovery: RecoveryPolicy::Selective,
            telemetry: TelemetryConfig::default(),
            racecheck: false,
            job_id: 0,
            submit_seq: 0,
            persist: None,
            elide_cells: Arc::default(),
        }
    }
}

/// What a thread is waiting to have granted.
pub(crate) enum PendingWant {
    /// Initial sub-thread of a (just-spawned) thread.
    Start,
    /// A synchronization operation returned by its last step.
    Op(Step),
    /// Barrier continuation of generation `gen`.
    Resume(BarrierId, u64),
    /// The exclusive step following a granted [`Step::Serialized`].
    SerializedRun,
    /// Re-creation of an un-spawned child after recovery, preserving its
    /// original thread id.
    Respawn {
        child: ThreadId,
        group: GroupId,
        weight: u32,
        program: Box<dyn DynThread>,
    },
}

impl std::fmt::Debug for PendingWant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PendingWant::Start => write!(f, "Start"),
            PendingWant::Op(s) => write!(f, "Op({s:?})"),
            PendingWant::Resume(b, g) => write!(f, "Resume({b}, gen {g})"),
            PendingWant::SerializedRun => write!(f, "SerializedRun"),
            PendingWant::Respawn { child, .. } => write!(f, "Respawn({child})"),
        }
    }
}

/// Reinstatable description of what opened a sub-thread (for squash/redo).
#[derive(Debug)]
pub(crate) enum OpeningWant {
    Start,
    Lock(LockId),
    Push(ChannelId, Payload),
    Pop(ChannelId),
    FetchAdd(AtomicId, u64),
    SpawnParent {
        child: ThreadId,
        group: GroupId,
        weight: u32,
    },
    JoinParent(ThreadId),
    Resume(BarrierId, u64),
    SerializedRun,
}

impl OpeningWant {
    /// The kind of sub-thread this request opens, and the synchronization
    /// operation that opens it.
    fn opens(&self) -> (SubThreadKind, Option<SyncOp>) {
        match *self {
            OpeningWant::Start => (SubThreadKind::Initial, None),
            OpeningWant::Lock(l) => (SubThreadKind::CriticalSection, Some(SyncOp::LockAcquire(l))),
            OpeningWant::Push(c, _) => (SubThreadKind::ChannelAccess, Some(SyncOp::ChanPush(c))),
            OpeningWant::Pop(c) => (SubThreadKind::ChannelAccess, Some(SyncOp::ChanPop(c))),
            OpeningWant::FetchAdd(a, _) => (SubThreadKind::AtomicOp, Some(SyncOp::Atomic(a))),
            OpeningWant::SpawnParent { .. } => (SubThreadKind::ForkContinuation, None),
            OpeningWant::JoinParent(_) => (SubThreadKind::JoinContinuation, None),
            OpeningWant::Resume(b, _) => {
                (SubThreadKind::BarrierContinuation, Some(SyncOp::BarrierWait(b)))
            }
            OpeningWant::SerializedRun => (SubThreadKind::Serialized, None),
        }
    }
}

/// What an in-flight sub-thread carries in its reorder-list entry: every
/// fact retiring or squashing it needs (DESIGN §5e, "What an in-flight
/// sub-thread carries"). Retirement commits it, a squash drops it with the
/// entry, and nothing else is keyed by the sub-thread's id.
#[derive(Debug)]
pub(crate) struct StRec {
    /// The request that opened it, re-armed when it is its thread's oldest
    /// squashed sub-thread.
    pub want: OpeningWant,
    /// The sub-thread that preceded it in its thread (the thread's
    /// `current_st` once a squash re-arms `want`).
    pub prev: Option<SubThreadId>,
    /// Younger sub-threads that consumed what it produced: popped an item
    /// it pushed, started as the child it spawned, joined the thread it
    /// ended.
    pub dependents: Vec<SubThreadId>,
    /// The barrier generation its closing arrival forms, set at the arrival
    /// grant: the race detector's close clock, the release a squash takes
    /// back and, on a cross-domain barrier, the arrival published to the
    /// hub when it retires.
    pub arrival: Option<(BarrierId, u64)>,
    /// The sub-thread that pushed the item it popped (race detector).
    pub pop_src: Option<SubThreadId>,
    /// Plain accesses its body made, in program order (race detector).
    pub accesses: Vec<(ResourceId, AccessKind)>,
    /// File writes staged until it retires (`(file, bytes)`, the
    /// output-commit delay).
    pub staged: Vec<(u64, Vec<u8>)>,
    /// Its thread's checkpoint, taken before its body ran and set at its
    /// deposit: restored when it is squashed, handed back to the thread's
    /// [`ThreadRec::spare_snap`] when it retires.
    pub snap: Option<Box<dyn std::any::Any + Send>>,
    /// The worker running its body, from its grant to its deposit.
    pub worker: Option<usize>,
    /// The youngest sub-thread in flight whose writes to a lock's data it
    /// read: a nested acquire can follow a younger sub-thread's release. A
    /// squash of that one takes this one too (`rex::widen_to_readers`),
    /// and this one completes only in a batch that retires that one.
    pub reads_younger: Option<SubThreadId>,
}

impl StRec {
    fn new(want: OpeningWant) -> Self {
        StRec {
            want,
            prev: None,
            dependents: Vec::new(),
            arrival: None,
            pop_src: None,
            accesses: Vec::new(),
            staged: Vec::new(),
            snap: None,
            worker: None,
            reads_younger: None,
        }
    }

    /// The happens-before edge its opening want acquires. Retirement runs
    /// in the deterministic total order, so the race stream is identical
    /// across runs and worker counts.
    fn open_edge(&self) -> Option<OpenEdge> {
        match self.want {
            OpeningWant::Push(c, _) => Some(OpenEdge::ChanPush(c)),
            OpeningWant::Pop(chan) => Some(OpenEdge::ChanPop {
                chan,
                producer: self.pop_src,
            }),
            OpeningWant::Resume(barrier, gen) => Some(OpenEdge::BarrierResume { barrier, gen }),
            OpeningWant::SpawnParent { child, .. } => Some(OpenEdge::Fork { child }),
            OpeningWant::JoinParent(child) => Some(OpenEdge::Join { child }),
            OpeningWant::SerializedRun => Some(OpenEdge::Serialized),
            // Lock and atomic acquire edges come from the entry's aliases.
            OpeningWant::Lock(_) | OpeningWant::FetchAdd(_, _) | OpeningWant::Start => None,
        }
    }
}

/// The edges only this engine observes, for the dependence closure: item
/// consumers and spawn/join descendants, and barrier generations — an
/// arrival taints the continuations its release opened.
impl Provenance for StRec {
    fn dependents(&self) -> &[SubThreadId] {
        &self.dependents
    }

    fn arrived(&self) -> Option<(BarrierId, u64)> {
        self.arrival
    }

    fn resumed(&self) -> Option<(BarrierId, u64)> {
        match self.want {
            OpeningWant::Resume(b, gen) => Some((b, gen)),
            _ => None,
        }
    }
}

/// Whether an entry's step was deposited but the entry not completed: it
/// awaits a younger one it read from ([`StRec::reads_younger`]).
fn awaiting(e: &RolEntry<StRec>) -> bool {
    e.status == SubThreadStatus::InFlight && e.rec.worker.is_none() && e.rec.reads_younger.is_some()
}

/// Returns a consumed plain-access vector to the bounded pool.
pub(crate) fn recycle_access_vec(
    pool: &mut Vec<Vec<(ResourceId, AccessKind)>>,
    mut v: Vec<(ResourceId, AccessKind)>,
) {
    if pool.len() < 64 && v.capacity() > 0 {
        v.clear();
        pool.push(v);
    }
}

pub(crate) struct ThreadRec {
    pub program: Option<Box<dyn DynThread>>,
    pub pending: Option<PendingWant>,
    pub current_st: Option<SubThreadId>,
    /// Final sub-thread (ending at `Exit`), for join dependence edges.
    pub final_st: Option<SubThreadId>,
    /// The parent continuation sub-thread that spawned this thread.
    pub spawned_by: Option<SubThreadId>,
    /// A retired or restored sub-thread's checkpoint box ([`StRec::snap`]),
    /// kept for this thread's next grant to overwrite.
    pub spare_snap: Option<Box<dyn std::any::Any + Send>>,
}

impl std::fmt::Debug for ThreadRec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRec")
            .field("pending", &self.pending)
            .field("current_st", &self.current_st)
            .finish_non_exhaustive()
    }
}

/// A recoverable output file: what retirement committed. Writes not yet
/// retired are staged in their sub-thread's [`StRec`].
#[derive(Debug, Default)]
pub(crate) struct FileRec {
    pub name: String,
    pub committed: Vec<u8>,
}

/// The lock data each critical section in flight checked out, as the
/// [`Inverse::Relock`] that restores it, in the order of the history
/// sequence number its acquire took. A grant's arrives only with its
/// deposit, after an early unlock may have let a younger sub-thread take
/// the lock, and a nested acquire is noted mid-step; so this order, not
/// the reorder list's, is the order undo must follow.
#[derive(Default)]
pub(crate) struct HistoryStore {
    pub seq: u64,
    pub relocks: Vec<(u64, SubThreadId, ResInverse)>,
}

impl HistoryStore {
    /// Files `relock` for `stid` under sequence number `seq`.
    fn insert(&mut self, seq: u64, stid: SubThreadId, relock: ResInverse) {
        let at = self.relocks.partition_point(|&(s, _, _)| s < seq);
        self.relocks.insert(at, (seq, stid, relock));
    }
}

#[derive(Debug)]
pub(crate) struct PendingException {
    pub exception: Exception,
    pub culprit: Option<SubThreadId>,
}

/// A step ready to run on a worker, carrying everything the step needs so
/// the inner lock is not held during user code.
pub(crate) struct StepTask {
    pub thread: ThreadId,
    pub stid: SubThreadId,
    pub program: Box<dyn DynThread>,
    pub inputs: StepInputs,
    /// History sequence number reserved at grant for the lock data a
    /// critical section checks out, which the worker captures off-lock.
    pub relock_seq: u64,
    /// The thread's recycled checkpoint box, if it has one (see
    /// [`ThreadRec::spare_snap`]).
    pub spare_snap: Option<Box<dyn std::any::Any + Send>>,
}

/// Everything behind the runtime mutex.
pub(crate) struct Inner {
    pub cfg: RunConfig,
    pub enforcer: OrderEnforcer,
    pub threads: BTreeMap<ThreadId, ThreadRec>,
    pub next_thread: u32,
    pub rol: ReorderList<StRec>,
    pub wal: WriteAheadLog<RtOp>,
    pub hist: HistoryStore,
    /// Locks, channels, cells, blocks and exit values (see
    /// [`gprs_core::resources`]); their inverses go to the WAL.
    pub res: Res,
    /// Each thread's place in the token rotation and the barrier table
    /// (see [`gprs_core::roster`]); a parked thread's `current_st` is the
    /// sub-thread its arrival ended.
    pub roster: Roster,
    pub files: BTreeMap<u64, FileRec>,
    /// How many sub-threads have a step executing: the entries whose
    /// [`StRec::worker`] is set.
    pub running: usize,
    pub pending_exceptions: VecDeque<PendingException>,
    /// Replay gate: threads whose squashed lock/atomic operations must
    /// re-grant in their original total order. While non-empty, only the
    /// front thread may be granted a lock or atomic operation; other
    /// threads' lock/atomic requests pass their turns.
    pub redo_locks: VecDeque<ThreadId>,
    pub recovering: bool,
    pub exclusive: Option<SubThreadId>,
    pub pass_streak: usize,
    pub stats: RunStats,
    /// Everything that watches the order this engine produces: hashes,
    /// recorder / replay verifier, race detector, durable log, telemetry.
    /// Its hooks are called under this lock, which is what serializes them.
    pub ledger: RunLedger,
    /// Recycled vectors for [`StRec::accesses`] (bounded pool; its misses
    /// are what `hot_path_allocs` counts).
    pub access_pool: Vec<Vec<(ResourceId, AccessKind)>>,
    /// The retire step (see [`gprs_core::retire`]).
    pub retirement: Retirement,
    /// The recovery walk, whose buffers start empty, and the undo's (see
    /// [`crate::rex::RexScratch`]), boxed at the engine's first recovery:
    /// an engine that never recovers — most served jobs — allocates
    /// neither.
    pub walk: Recovery<StRec>,
    pub rex: Option<Box<crate::rex::RexScratch>>,
    pub poisoned: Option<String>,
    /// Set by [`crate::session::GprsSession::cancel`]: the run was halted
    /// at a quantum boundary rather than completing. Does not fail the
    /// report (cancelled jobs return their partial report), but a sealed
    /// recording of a cancelled run must not claim `complete` — its tape
    /// is a prefix, and an honest footer lets a replay classify reaching
    /// the tape's end as a reproduction instead of a divergence.
    pub cancelled_note: Option<String>,
    /// Cursor over the deterministic chaos-injection plan (see
    /// [`gprs_core::chaos::ChaosPlan`]); `None` outside chaos runs. Fired
    /// by [`Inner::chaos_tick_grant`] and [`Inner::chaos_tick_recovery`].
    pub chaos: Option<ChaosCursor>,
    /// Sharded-execution context when this engine runs as one order domain
    /// of a [`crate::shard::ShardedGprs`]; `None` for ordinary runs (every
    /// sharded hook is gated on one `is_some` branch).
    pub shard: Option<crate::shard::ShardCtx>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("live", &self.roster.live())
            .field("rol", &self.rol.len())
            .field("running", &self.running)
            .field("recovering", &self.recovering)
            .finish_non_exhaustive()
    }
}

/// Number of condvar shards for nested lock waits (keyed by `LockId`).
pub(crate) const LOCK_SHARDS: usize = 16;

/// Where an executor's workers park: the scheduler queue of workers seeking
/// a grant, and the keyed queues of steps blocked on a nested lock. The GPRS
/// engine and the CPR baseline each hold one and wake through it, so both
/// follow one policy: a grant wakes at most one seeker, and only when a CPU
/// is spare for it; a returned lock wakes its own shard; and only finish and
/// poison broadcast.
///
/// Every sleeper count is mutated only while holding the executor's state
/// lock (incremented before the wait releases it, decremented after the
/// wait reacquires it), so a reader that holds the lock sees the exact
/// count and the wake functions skip the kernel wake outright when nobody
/// is parked — the common case on the grant fast path. A late seeker
/// re-scans the post-update state before it parks, so no wake is lost.
pub(crate) struct WaitQueues {
    /// Scheduler queue: workers seeking a grant wait here. Woken one at a
    /// time (`notify_one` chains); broadcast only on finish and poison.
    pub cv: Condvar,
    /// Keyed wait queues for blocking *nested* lock acquisition from inside
    /// running steps; returning a lock wakes only that lock's shard.
    pub lock_shards: [Condvar; LOCK_SHARDS],
    /// Workers currently parked on `cv`.
    pub cv_sleepers: AtomicUsize,
    /// Nested-acquire waiters parked per lock shard.
    pub shard_sleepers: [AtomicUsize; LOCK_SHARDS],
    /// Configured worker count (for the spare-CPU wake heuristic).
    pub workers: usize,
    /// Hardware parallelism, stamped once per run by `run_pools` or
    /// `CprRuntime::run` (the lookup costs more than building an engine); a
    /// session's single context never parks and never reads it.
    pub cpus: AtomicUsize,
}

impl WaitQueues {
    pub fn new(workers: usize) -> Self {
        WaitQueues {
            cv: Condvar::new(),
            lock_shards: std::array::from_fn(|_| Condvar::new()),
            cv_sleepers: AtomicUsize::new(0),
            shard_sleepers: std::array::from_fn(|_| AtomicUsize::new(0)),
            workers,
            cpus: AtomicUsize::new(1),
        }
    }

    /// Whether a woken peer would have a CPU to run on: overlap wakes are
    /// issued only while the unparked worker set undersubscribes the
    /// hardware. On an oversubscribed host a wake merely preempts the worker
    /// that would have reached the work itself (the idea of spin-then-park
    /// mutexes, which also consult the CPU count). Liveness never depends on
    /// these wakes: a granting or depositing worker always re-scans the
    /// frontier itself after its step.
    pub fn spare_cpu(&self) -> bool {
        self.workers
            .saturating_sub(self.cv_sleepers.load(Ordering::Relaxed))
            < self.cpus.load(Ordering::Relaxed)
    }

    /// Which shard a nested waiter for `lock` parks on.
    fn shard_ix(lock: LockId) -> usize {
        lock.raw() as usize % LOCK_SHARDS
    }

    /// Parks a seeker on the scheduler queue until woken, or for at most
    /// `bound` when given. `g` guards the executor's state.
    pub fn park_seeker<T>(&self, g: &mut MutexGuard<'_, T>, bound: Option<Duration>) {
        self.cv_sleepers.fetch_add(1, Ordering::Relaxed);
        match bound {
            Some(d) => {
                let _ = self.cv.wait_for(g, d);
            }
            None => self.cv.wait(g),
        }
        self.cv_sleepers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Parks a step blocked on the nested acquire of `lock` on that lock's
    /// shard: only a return of (a shard-mate of) the lock wakes it.
    pub fn park_on_lock<T>(&self, lock: LockId, g: &mut MutexGuard<'_, T>) {
        let ix = Self::shard_ix(lock);
        self.shard_sleepers[ix].fetch_add(1, Ordering::Relaxed);
        self.lock_shards[ix].wait(g);
        self.shard_sleepers[ix].fetch_sub(1, Ordering::Relaxed);
    }

    /// Parks a nested acquire of `lock` on the lock's shard until `take`,
    /// run under the executor's state lock `g`, hands the lock's data out
    /// (it panics the step on a poisoned run or a refused acquire). A wake
    /// that finds the lock still held counts on the executor's `telemetry`.
    pub fn acquire_nested<T>(
        &self,
        lock: LockId,
        g: &mut MutexGuard<'_, T>,
        mut take: impl FnMut(&mut T) -> Option<Box<dyn Recoverable>>,
        telemetry: fn(&T) -> &Telemetry,
    ) -> Box<dyn Recoverable> {
        let mut woke = false;
        loop {
            if let Some(data) = take(g) {
                return data;
            }
            if woke && telemetry(g).enabled() {
                telemetry(g).metrics.wakeups_spurious.inc();
            }
            self.park_on_lock(lock, g);
            woke = true;
        }
    }

    /// Wakes one worker parked on the scheduler queue, if any is (callers
    /// hold the state lock).
    pub fn wake_one_seeker(&self, telemetry: &Telemetry) {
        if self.cv_sleepers.load(Ordering::Relaxed) == 0 {
            return;
        }
        if telemetry.enabled() {
            telemetry.metrics.wakeups_issued.inc_serialized();
        }
        self.cv.notify_one();
    }

    /// Wakes the nested waiters parked on `lock`'s shard, if any are
    /// (callers hold the state lock).
    pub fn wake_lock_shard(&self, lock: LockId, telemetry: &Telemetry) {
        let ix = Self::shard_ix(lock);
        if self.shard_sleepers[ix].load(Ordering::Relaxed) == 0 {
            return;
        }
        if telemetry.enabled() {
            telemetry.metrics.wakeups_issued.inc_serialized();
        }
        self.lock_shards[ix].notify_all();
    }

    /// Broadcast to every waiter class — finish and poison, where every
    /// parked worker must leave. A class with no sleepers is skipped: a
    /// session, whose single context never parks, finishes without a
    /// single wake syscall. Each broadcast issued counts as one
    /// `wakeups_issued`.
    pub fn wake_all(&self, telemetry: &Telemetry) {
        let classes = std::iter::once((&self.cv, &self.cv_sleepers))
            .chain(self.lock_shards.iter().zip(&self.shard_sleepers));
        for (cv, sleepers) in classes {
            if sleepers.load(Ordering::Relaxed) > 0 {
                if telemetry.enabled() {
                    telemetry.metrics.wakeups_issued.inc_serialized();
                }
                cv.notify_all();
            }
        }
    }
}

/// The state shared by workers, contexts and controllers: the big lock plus
/// the lock-free structures that keep hot paths off it.
pub(crate) struct Shared {
    pub inner: Mutex<Inner>,
    /// Where workers and nested lock waiters park. A recovery wakes
    /// nobody: the worker that ran it grants next.
    pub waits: WaitQueues,
    /// Lock-free mirror of the enforcer's grant frontier, republished under
    /// the lock at every token movement. Advisory outside the lock: used to
    /// decide whether a deposit needs to wake a peer, never to grant.
    pub gate: Arc<OrderGate>,
    /// Set (under the lock) when the run finished or poisoned, so
    /// `Controller::is_finished` polls without taking the lock.
    pub done: AtomicBool,
}

impl Shared {
    pub fn new(inner: Inner) -> Self {
        let gate = inner.enforcer.gate();
        let waits = WaitQueues::new(inner.cfg.workers);
        Shared {
            inner: Mutex::new(inner),
            waits,
            gate,
            done: AtomicBool::new(false),
        }
    }

    /// Returns a lock checked out by `stid`'s step (an early unlock or the
    /// end of a nested section): wakes the nested waiters on its shard, and
    /// one seeker in case the token waits on it.
    pub fn release_lock(&self, stid: SubThreadId, lock: LockId, data: Box<dyn Recoverable>) {
        let mut g = self.inner.lock();
        g.return_lock(stid, lock, data);
        g.bump();
        self.waits.wake_lock_shard(lock, g.ledger.telemetry());
        self.waits.wake_one_seeker(g.ledger.telemetry());
    }

    /// A nested acquire from `stid`'s step: parks on the lock's shard until
    /// it is returned.
    pub fn acquire_nested(&self, stid: SubThreadId, lock: LockId) -> Box<dyn Recoverable> {
        let take = |g: &mut Inner| {
            // Bail out of a poisoned runtime instead of waiting for a
            // release that will never come (the panic is caught and folded
            // into the poison message).
            assert!(g.poisoned.is_none(), "runtime poisoned while waiting for a nested lock");
            g.try_nested_acquire(stid, lock).unwrap_or_else(|e| panic!("{e}"))
        };
        self.waits.acquire_nested(lock, &mut self.inner.lock(), take, |g| g.ledger.telemetry())
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Shared { .. }")
    }
}

pub(crate) type SharedRef = Arc<Shared>;

/// What a driver should do after one scheduling decision (see [`decide`]).
pub(crate) enum Decision {
    /// Run this step (off-lock) and feed its outcome back.
    Run {
        task: StepTask,
        /// Deferred peer wake, decided under the lock but issued after it
        /// is released: the new grant frontier already has an armed
        /// deposit a parked peer could take, and at least one peer is
        /// parked. Notifying after unlock spares the woken worker an
        /// immediate stall on the still-held mutex.
        wake_peer: bool,
    },
    /// Solo driver only — grant budget exhausted: the deposit was folded
    /// in, recovery (if any was pending) has completed, and nothing is in
    /// flight — the job's precise state is parked in [`Inner`] and can be
    /// resumed later.
    Parked,
    /// The program finished (or poisoned).
    Finished,
}

impl Inner {
    /// An engine for the final `cfg`, observed by `ledger`, which also
    /// knows whether the configured schedule or a replayed tape orders it.
    pub fn new(cfg: RunConfig, ledger: RunLedger) -> Self {
        Inner {
            enforcer: ledger.enforcer(cfg.schedule),
            cfg,
            threads: BTreeMap::new(),
            next_thread: 0,
            rol: ReorderList::default(),
            wal: WriteAheadLog::new(),
            hist: HistoryStore::default(),
            res: Res::default(),
            roster: Roster::default(),
            files: BTreeMap::new(),
            running: 0,
            pending_exceptions: VecDeque::new(),
            redo_locks: VecDeque::new(),
            recovering: false,
            exclusive: None,
            pass_streak: 0,
            stats: RunStats::default(),
            ledger,
            access_pool: Vec::new(),
            retirement: Retirement::default(),
            walk: Recovery::default(),
            rex: None,
            poisoned: None,
            cancelled_note: None,
            chaos: None,
            shard: None,
        }
    }

    /// Registers a thread (builder-time or dynamic spawn).
    pub fn add_thread(
        &mut self,
        program: Box<dyn DynThread>,
        group: GroupId,
        weight: u32,
        spawned_by: Option<SubThreadId>,
    ) -> ThreadId {
        let tid = ThreadId::new(self.next_thread);
        self.next_thread += 1;
        self.insert_thread(tid, program, group, weight, spawned_by);
        tid
    }

    /// Registers thread `tid`: a fresh one, or an un-spawned child that
    /// recovery re-creates under its original id.
    fn insert_thread(
        &mut self,
        tid: ThreadId,
        program: Box<dyn DynThread>,
        group: GroupId,
        weight: u32,
        spawned_by: Option<SubThreadId>,
    ) {
        let reason = self.roster.add(&mut self.enforcer, tid, group, weight);
        self.poison_on(reason);
        self.threads.insert(
            tid,
            ThreadRec {
                program: Some(program),
                pending: Some(PendingWant::Start),
                current_st: None,
                final_st: None,
                spawned_by,
                spare_snap: None,
            },
        );
    }

    pub(crate) fn poison(&mut self, msg: impl Into<String>) {
        if self.poisoned.is_none() {
            self.poisoned = Some(msg.into());
        }
    }

    /// Turns what a ledger hook returned into this engine's poison.
    #[inline]
    pub(crate) fn poison_on(&mut self, reason: Poison) {
        if let Some(msg) = reason {
            self.poison(msg);
        }
    }

    /// Notes a state change: the token's pass streak starts over.
    pub(crate) fn bump(&mut self) {
        self.pass_streak = 0;
    }

    /// Fires any chaos events due at the current grant count. Runs under
    /// the engine lock immediately after a grant, so `Newest` resolves to
    /// the sub-thread granted this very cycle (whose checkpoint is not
    /// taken yet) and `Holder` to a live critical section.
    pub(crate) fn chaos_tick_grant(&mut self) {
        let grants = self.stats.grants;
        while let Some(ev) = self.chaos.as_mut().and_then(|c| c.due_at_grant(grants)) {
            self.chaos_fire(&ev, false);
        }
    }

    /// Fires chaos events keyed to the recovery session that just finished
    /// its plan. Called from REX **inside** the recovery pass, before the
    /// pending queue drains, so the injected exception is recovered by the
    /// same quiesced pass — overlapping DEX→REX.
    pub(crate) fn chaos_tick_recovery(&mut self) {
        let sessions = self.stats.recoveries;
        while let Some(ev) = self.chaos.as_mut().and_then(|c| c.due_after_session(sessions)) {
            self.chaos_fire(&ev, true);
        }
    }

    /// Raises one global exception on `context`, attributed to `culprit`
    /// when a sub-thread is running there: the culprit is marked excepted
    /// right away (an excepted entry cannot retire out from under the
    /// pending exception) and a `PendingException` is queued. A culpritless
    /// exception is counted ignored by REX, like the paper's exceptions
    /// arriving on idle contexts. The one raise path of the controller's
    /// injections and the chaos overlay.
    pub(crate) fn raise(&mut self, kind: ExceptionKind, context: u32, culprit: Option<SubThreadId>) {
        let exception = Exception::global(kind, ContextId::new(context), 0);
        if let Some(c) = culprit {
            if self.rol.mark_excepted(c, exception.clone()).is_err() {
                // The culprit was picked from live state under this lock, so
                // it can be gone only when the schedule state is already off
                // the rails; degrade loudly instead of panicking with the
                // engine lock held.
                self.poison(format!(
                    "exception culprit {} vanished from the ROL before the \
                     exception landed (divergent replay or corrupted \
                     schedule state)",
                    c.raw()
                ));
                return;
            }
        }
        self.pending_exceptions
            .push_back(PendingException { exception, culprit });
        self.bump();
    }

    /// Delivers one chaos event: `burst` exceptions aimed by the victim
    /// selector, each at a distinct candidate.
    fn chaos_fire(&mut self, ev: &ChaosEvent, in_recovery: bool) {
        // The burst's victims so far are the culprits it queued from here.
        let burst_from = self.pending_exceptions.len();
        for _ in 0..ev.burst.max(1) {
            if ev.scope == ExceptionScope::Local {
                // Handled precisely on the faulting context (§2.2): counted,
                // never queued, no global recovery.
                self.stats.exceptions += 1;
                self.stats.exceptions_ignored += 1;
                continue;
            }
            let victim = self.chaos_pick_victim(ev.victim, in_recovery, burst_from);
            let context = victim
                .and_then(|v| self.rol.get(v)?.rec.worker)
                .map(|w| w as u32)
                .unwrap_or(match ev.victim {
                    VictimSelector::Context(c) => c,
                    _ => 0,
                });
            self.raise(ev.kind, context, victim);
        }
    }

    /// The sub-threads whose step is executing, oldest first, each with the
    /// worker running it.
    pub(crate) fn in_flight(&self) -> impl Iterator<Item = (SubThreadId, usize)> + '_ {
        self.rol.iter().filter_map(|e| Some((e.id(), e.rec.worker?)))
    }

    /// Picks the next distinct victim for a burst member: one no exception
    /// queued since `burst_from` names. At a grant trigger candidates are
    /// the running sub-threads; mid-recovery the machine is quiesced
    /// (nothing running, no lock held), so candidates are the surviving ROL
    /// entries — the sub-threads recovery just chose *not* to squash — and
    /// a context names none of them.
    fn chaos_pick_victim(
        &self,
        sel: VictimSelector,
        in_recovery: bool,
        burst_from: usize,
    ) -> Option<SubThreadId> {
        let taken = self.pending_exceptions.range(burst_from..);
        let free = |id: &SubThreadId| !taken.clone().any(|p| p.culprit == Some(*id));
        let candidates = self.rol.iter().filter(|e| in_recovery || e.rec.worker.is_some());
        let mut running = candidates.map(|e| (e.id(), e.rec.worker)).filter(|(id, _)| free(id));
        match sel {
            VictimSelector::Oldest => running.next().map(|(id, _)| id),
            VictimSelector::Newest => running.last().map(|(id, _)| id),
            VictimSelector::Holder => self
                .res
                .holders()
                .filter_map(|(_, h)| h)
                .filter(|h| self.rol.contains(*h))
                .find(free)
                // No live critical section: fall back to the oldest, so a
                // holder-targeted storm still lands every member.
                .or_else(|| running.next().map(|(id, _)| id)),
            VictimSelector::Context(c) => running.find(|&(_, w)| w == Some(c as usize)).map(|(id, _)| id),
        }
    }

    // ---- sharded-execution hooks (see `crate::shard`) ----------------

    /// Drains cross-shard input at the top of every decision: in-edge tokens
    /// into the local channel replicas and hub-released barrier
    /// generations into local releases. Returns `true` when a peer domain
    /// aborted the run.
    pub(crate) fn shard_poll(&mut self) -> bool {
        let Some(ctx) = self.shard.take() else {
            return false;
        };
        if ctx.hub.aborted() {
            self.shard = Some(ctx);
            return true;
        }
        let mut progressed = false;
        for (&chan, q) in &ctx.in_edges {
            while let Some((_seq, item)) = q.pop() {
                // Provenance is `None`: the producing sub-thread retired in
                // its own domain, so the item can never be un-pushed here.
                if let Err(e) = self.res.apply(None, Op::Push(chan, item)) {
                    self.poison(format!("cross-domain edge: {e}"));
                }
                progressed = true;
            }
        }
        for &b in &ctx.edge_barriers {
            let released = ctx.hub.released(b);
            while self.roster.barriers().get(&b).is_some_and(|bar| bar.gen < released) {
                self.release_barrier(b);
                progressed = true;
            }
        }
        self.shard = Some(ctx);
        if progressed {
            self.bump();
        }
        false
    }

    /// Gate for a sharded grant: the step must stay inside the domain the
    /// plan assigned, and dynamic topology (spawn/join) plus serialized
    /// sections are out of scope. Returns a poison diagnostic on violation.
    pub(crate) fn shard_gate(&self, holder: ThreadId, step: &Step) -> Option<String> {
        let ctx = self.shard.as_ref()?;
        let res = match step {
            Step::Lock(m) => ResourceId::Lock(m.id()),
            Step::Push(c, _) | Step::Pop(c) => ResourceId::Channel(c.id()),
            Step::FetchAdd(a, _) => ResourceId::Atomic(*a),
            Step::Barrier(b) => ResourceId::Barrier(*b),
            Step::Spawn(_) => {
                return Some(format!(
                    "sharded execution does not support dynamic spawn \
                     ({holder}); run unsharded or restructure the workload"
                ))
            }
            Step::Join(_) => {
                return Some(format!(
                    "sharded execution does not support join ({holder}); \
                     run unsharded or restructure the workload"
                ))
            }
            Step::Serialized => {
                return Some(format!(
                    "sharded execution does not support serialized \
                     sections ({holder})"
                ))
            }
            Step::Exit(_) => return None,
        };
        if ctx.allowed.contains(&res) {
            None
        } else {
            Some(format!(
                "sharded grant violation: {holder} touched {res} outside \
                 order domain {} (stale shard plan?)",
                ctx.domain
            ))
        }
    }

    /// Publishes a local poison to the hub so peer domains stop instead of
    /// stalling on edges that will never produce again.
    pub(crate) fn shard_publish_abort(&self) {
        if let Some(ctx) = &self.shard {
            ctx.hub.abort();
        }
    }

    /// Publishes this domain's completion: closes its out-edges (consumers
    /// observe starvation instead of waiting forever) and bumps the hub's
    /// finished count. Idempotent.
    pub(crate) fn shard_finish_domain(&mut self) {
        let Some(ctx) = self.shard.as_mut() else {
            return;
        };
        if ctx.finish_published {
            return;
        }
        ctx.finish_published = true;
        for (queue, _) in ctx.out_edges.values() {
            queue.close();
        }
        ctx.hub.domain_finished();
    }

    /// Whether any live thread is parked on a cross-domain barrier: its
    /// release comes from the hub, so a holderless engine must keep
    /// waiting instead of declaring deadlock.
    pub(crate) fn shard_parked_on_edge(&self) -> bool {
        let Some(ctx) = self.shard.as_ref() else {
            return false;
        };
        let barriers = self.roster.barriers();
        let parked = |b| barriers.get(b).is_some_and(|bar: &Barrier| !bar.waiting.is_empty());
        ctx.edge_barriers.iter().any(parked)
    }

    /// Whether every peer domain's pool already finished (so no further
    /// cross-domain arrival can ever be published).
    pub(crate) fn shard_peers_done(&self) -> bool {
        self.shard
            .as_ref()
            .is_some_and(|ctx| ctx.hub.peers_done())
    }

    /// Retires the maximal run of completed head sub-threads as one batch
    /// through the kernel, committing each record entry by entry — staged
    /// file output (the output-commit point), cross-domain forwards, its
    /// access vector back to the pool, its checkpoint box back to its
    /// thread — and then pruning the WAL and the history store once per
    /// batch, a single pass per store instead of one per retired
    /// sub-thread.
    fn retire_ready(&mut self) {
        self.complete_awaiting();
        let (batch, reason) = self.retirement.retire(
            &mut self.rol,
            &mut self.ledger,
            |_| EXTERNAL_RING,
            // What the race detector needs beyond the entry's aliases (the
            // ledger reads the locks and atomics touched off those).
            |rec, _| RetireFacts {
                open: rec.open_edge(),
                accesses: &rec.accesses,
                arrival: rec.arrival,
            },
            |entry| {
                self.stats.retired += 1;
                for (file, bytes) in &entry.rec.staged {
                    if let Some(f) = self.files.get_mut(file) {
                        f.committed.extend_from_slice(bytes);
                    }
                }
                let reason = self.shard.as_ref().and_then(|c| c.on_retire(&mut self.res, &entry));
                if let Some(rec) = self.threads.get_mut(&entry.thread()) {
                    rec.spare_snap = entry.rec.snap;
                }
                recycle_access_vec(&mut self.access_pool, entry.rec.accesses);
                reason
            },
        );
        self.poison_on(reason);
        self.stats.rol_peak = self.stats.rol_peak.max(self.rol.peak_occupancy());
        if let Some(Batch { ids, len }) = batch {
            let pruned = self.wal.prune_retired_batch(ids.clone());
            self.hist.relocks.retain(|(_, s, _)| !ids.contains(s));
            let reason = self.ledger.batch_retired(*ids.start(), len, pruned);
            self.poison_on(reason);
            if self.rol.head().is_some_and(awaiting) {
                self.retire_ready();
            }
        }
    }

    /// Completes the deposited entries from the head that await a younger
    /// one they read from ([`StRec::reads_younger`]), up to the last entry
    /// by which every entry is complete or awaiting and none awaits a
    /// younger one: that run then retires in one batch, so no writer can be
    /// squashed after its reader retired.
    fn complete_awaiting(&mut self) {
        if !self.rol.head().is_some_and(awaiting) {
            return;
        }
        let (mut need, mut cut) = (None, None);
        for e in self.rol.iter() {
            if e.status != SubThreadStatus::Completed && !awaiting(e) {
                break;
            }
            need = need.max(e.rec.reads_younger);
            if need.is_none_or(|n| n <= e.id()) {
                cut = Some(e.id());
            }
        }
        let ready = |e: &&RolEntry<StRec>| cut.is_some_and(|c| e.id() <= c) && awaiting(e);
        loop {
            let Some(id) = self.rol.iter().find(ready).map(|e| e.id()) else { return };
            let reason = retire::complete(&mut self.rol, id);
            self.poison_on(reason);
        }
    }

    /// Records one plain access for the race detector, reusing a pooled
    /// vector when the sub-thread has none yet.
    fn record_plain_access(&mut self, stid: SubThreadId, res: ResourceId, kind: AccessKind) {
        let Some(rec) = self.rol.rec_mut(stid) else {
            return;
        };
        if rec.accesses.capacity() == 0 {
            rec.accesses = self.access_pool.pop().unwrap_or_else(|| {
                let tel = self.ledger.telemetry();
                if tel.enabled() {
                    tel.metrics.hot_path_allocs.inc_serialized();
                }
                Vec::new()
            });
        }
        rec.accesses.push((res, kind));
    }

    /// Reads a shared cell without synchronization (a *plain* load): the
    /// value is returned as-is and, when the race detector is on, the
    /// access is recorded for the happens-before check at retirement.
    pub(crate) fn plain_load(
        &mut self,
        stid: SubThreadId,
        atomic: AtomicId,
    ) -> Result<u64, ResourceError> {
        let v = self.res.load(atomic)?;
        if !self.cfg.elide_cells.is_empty() {
            // A step squashed while it runs re-reads when it re-executes.
            if let Some(thread) = self.rol.get(stid).map(|e| e.thread()) {
                self.check_dead_read(thread, atomic);
            }
        }
        if self.ledger.racecheck() {
            self.record_plain_access(stid, ResourceId::Atomic(atomic), AccessKind::Read);
        }
        Ok(v)
    }

    /// Poisons a read of a cell the attached model proves dead: the model
    /// never reads it, so its stores skip their undo records, and a read
    /// after a squash would see a stale value.
    fn check_dead_read(&mut self, thread: ThreadId, atomic: AtomicId) {
        if self.cfg.elide_cells.contains(&atomic) {
            self.poison(format!(
                "model divergence: thread {thread} read cell {atomic}, which the model proves dead"
            ));
        }
    }

    /// Writes a shared cell without synchronization (a *plain* store). The
    /// old value is WAL-logged so runtime self-recovery can undo it, but —
    /// unlike a fetch-add grant — no dependence alias is added to the
    /// sub-thread, which is exactly the leak the race detector exists to
    /// flag.
    pub(crate) fn plain_store(
        &mut self,
        worker: usize,
        stid: SubThreadId,
        atomic: AtomicId,
        value: u64,
    ) -> Result<(), ResourceError> {
        if self.cfg.elide_cells.contains(&atomic) {
            // Statically dead store: the old value can never be observed,
            // so the undo record would be pure WAL traffic. Control
            // records (locks, channels, fetch-adds) are never elided —
            // recovery's replay correctness depends on them.
            self.res.apply(None, Op::Store(atomic, value))?;
            self.ledger.wal_elided();
        } else {
            self.apply(worker, stid, Op::Store(atomic, value))?;
        }
        if self.ledger.racecheck() {
            self.record_plain_access(stid, ResourceId::Atomic(atomic), AccessKind::Write);
        }
        Ok(())
    }

    /// Applies `op` to the table for `stid` (the pusher, the holder) and
    /// logs its inverse; `ring` as for [`Self::wal_append`].
    #[inline(always)]
    pub(crate) fn apply(
        &mut self,
        ring: usize,
        stid: SubThreadId,
        op: ResOp,
    ) -> Result<ResGot, ResourceError> {
        let (got, inverse) = self.res.apply(Some(stid), op)?;
        self.wal_append(ring, stid, RtOp::Res(inverse));
        Ok(got)
    }

    /// Appends a WAL record for `stid` and tells the ledger (`ring` is the
    /// worker the record's step runs on, or the external ring).
    pub(crate) fn wal_append(&mut self, ring: usize, stid: SubThreadId, op: RtOp) {
        self.wal.append(stid, op);
        self.ledger.wal_appended(ring, stid, self.wal.len());
    }

    /// Opens the sub-thread a grant starts, carrying `st`, and hands its
    /// step to the granted `worker` with `inputs`. The thread checkpoint is
    /// captured by the granted worker *outside* the lock (nothing touches
    /// the program between grant and step start, so the off-lock snapshot
    /// is bit-identical) and lands in the entry with the step's deposit.
    /// Kept out of line: inlined into its one caller, `grant`,
    /// `gprsbench`'s `chain` ran 5–7 % slower.
    #[inline(never)]
    fn open_subthread(
        &mut self,
        stid: SubThreadId,
        thread: ThreadId,
        mut st: StRec,
        worker: usize,
        inputs: StepInputs,
    ) -> Option<StepTask> {
        let rec = self.threads.get_mut(&thread);
        let Some((program, rec)) = rec.and_then(|r| Some((r.program.take()?, r))) else {
            self.poison(format!("grant to {thread}: it has no record or no program to run"));
            return None;
        };
        st.prev = rec.current_st;
        st.worker = Some(worker);
        rec.current_st = Some(stid);
        let spare_snap = rec.spare_snap.take();
        let (kind, opening_op) = st.want.opens();
        // A granted thread is active, hence on the roster.
        let group = self.roster.group(thread).map(|(g, _)| g).unwrap_or_default();
        let descriptor = SubThread::new(stid, thread, group, kind, opening_op);
        self.hist.seq += 1;
        let relock_seq = self.hist.seq;
        self.running += 1;
        self.stats.subthreads += 1;
        // Snapshot sizes are opaque boxes.
        let (rol, ledger) = (&mut self.rol, &mut self.ledger);
        let reason = retire::open(rol, ledger, worker, descriptor, st, Checkpointed::Opaque);
        self.poison_on(reason);
        Some(StepTask {
            thread,
            stid,
            program,
            inputs,
            relock_seq,
            spare_snap,
        })
    }

    /// Whether `want` can be granted now: the table answers for a pop or a
    /// lock and the roster for a join. This engine adds order-faithful redo,
    /// the cross-edge wait and the serialized quiescence gate.
    fn poll_or_wait(&self, holder: ThreadId, want: &PendingWant) -> Result<Poll, ResourceError> {
        // Order-faithful redo: while squashed lock/atomic operations await
        // re-execution, they re-grant in original order and every other
        // lock/atomic request waits its turn (passes the token).
        let redo = matches!(want, PendingWant::Op(Step::Lock(_) | Step::FetchAdd(_, _)));
        if redo && self.redo_locks.front().is_some_and(|&front| front != holder) {
            return Ok(Poll::Pass);
        }
        Ok(match want {
            PendingWant::Op(Step::Pop(c)) => match self.res.poll(ResourceId::Channel(c.id()))? {
                // Cross-edge pop: tokens arrive in a fixed sequence, so the
                // token *waits* for the next one instead of passing (a pass
                // count varying with arrival timing would make the local
                // grant order timing-dependent). Once the producer domain
                // closed the drained edge, the pop can never succeed: pass,
                // so the starvation poison fires.
                Poll::Pass
                    if self
                        .shard
                        .as_ref()
                        .and_then(|ctx| ctx.in_edges.get(&c.id()))
                        .is_some_and(|q| !q.is_starved()) =>
                {
                    Poll::Wait
                }
                poll => poll,
            },
            PendingWant::Op(Step::Lock(m)) => self.res.poll(ResourceId::Lock(m.id()))?,
            PendingWant::Op(Step::Join(t)) if self.roster.state(*t) != Some(ThState::Done) => {
                Poll::Pass
            }
            // The token waits for global quiescence.
            PendingWant::Op(Step::Serialized) if !self.rol.is_empty() || self.running > 0 => {
                Poll::Wait
            }
            _ => Poll::Grant,
        })
    }

    /// Grants the holder's pending want. A barrier arrival, an exit or a
    /// serialized marker changes state and opens nothing. Any other want
    /// takes the turn, has the table apply its op and log the inverse, and
    /// opens the sub-thread whose step it returns.
    fn grant(&mut self, holder: ThreadId, worker: usize) -> Option<StepTask> {
        let rec = self.threads.get_mut(&holder);
        let Some((pending, rec)) = rec.and_then(|r| Some((r.pending.take()?, r))) else {
            self.poison(format!("grant to {holder}: it has no record or no pending want"));
            return None;
        };
        let prev_st = rec.current_st;
        // A spawned (or re-spawned) child: its program, group and weight.
        let mut child = None;
        let (want, op) = match pending {
            PendingWant::Op(Step::Serialized) => {
                // The marker is granted like a normal boundary without
                // consuming the turn; the exclusive step runs on the next
                // grant, gated on quiescence.
                rec.pending = Some(PendingWant::SerializedRun);
                return None;
            }
            PendingWant::Op(Step::Barrier(b)) => {
                // Arrival: consumes the turn but opens no sub-thread. Still
                // a recorded event — it mutates schedule state, so replay
                // must reproduce it in order.
                self.enforcer.consume_turn(holder);
                self.arrive(holder, prev_st, b, worker);
                self.bump();
                return None;
            }
            PendingWant::Op(Step::Exit(value)) => {
                // Exit: consumes the turn but opens no sub-thread (recorded
                // like the arrival above); the table keeps the value.
                self.enforcer.consume_turn(holder);
                let reason = self.roster.exit(&mut self.enforcer, &mut self.ledger, holder);
                self.poison_on(reason);
                if let Some(rec) = self.threads.get_mut(&holder) {
                    rec.final_st = prev_st;
                }
                let exited = self.res.apply(None, Op::Exit(holder, value));
                // Same retired-`prev` guard as the barrier arrival: a
                // retired sub-thread can no longer be squashed, so its exit
                // record would leak to the end of the run.
                let prev = prev_st.filter(|&p| self.rol.contains(p));
                if let (Ok((_, inverse)), Some(prev)) = (exited, prev) {
                    self.wal_append(worker, prev, RtOp::Res(inverse));
                }
                self.bump();
                return None;
            }
            PendingWant::Start => (OpeningWant::Start, None),
            PendingWant::Resume(b, gen) => (OpeningWant::Resume(b, gen), None),
            PendingWant::SerializedRun => (OpeningWant::SerializedRun, None),
            PendingWant::Op(Step::Join(t)) => (OpeningWant::JoinParent(t), None),
            PendingWant::Respawn { child: id, group, weight, program } => {
                child = Some((program, group, weight));
                (OpeningWant::SpawnParent { child: id, group, weight }, None)
            }
            PendingWant::Op(Step::Spawn(SpawnSpec { program, group, weight })) => {
                let id = ThreadId::new(self.next_thread);
                self.next_thread += 1;
                child = Some((program, group, weight));
                (OpeningWant::SpawnParent { child: id, group, weight }, None)
            }
            PendingWant::Op(Step::Lock(m)) => (OpeningWant::Lock(m.id()), Some(Op::Acquire(m.id()))),
            // The item's provenance is the pushing sub-thread: squashing it
            // un-pushes the item, so its consumer is in its closure.
            PendingWant::Op(Step::Push(c, v)) => {
                (OpeningWant::Push(c.id(), v.clone()), Some(Op::Push(c.id(), v)))
            }
            PendingWant::Op(Step::Pop(c)) => (OpeningWant::Pop(c.id()), Some(Op::Pop(c.id()))),
            PendingWant::Op(Step::FetchAdd(a, delta)) => {
                if !self.cfg.elide_cells.is_empty() {
                    self.check_dead_read(holder, a);
                }
                (OpeningWant::FetchAdd(a, delta), Some(Op::FetchAdd(a, delta)))
            }
        };
        let Some(stid) = self.enforcer.try_grant(holder) else {
            self.poison(format!("grant: {holder} does not hold the token it was granted"));
            return None;
        };
        let got = match op.map(|op| self.apply(worker, stid, op)).transpose() {
            Ok(got) => got.unwrap_or(Got::Nothing),
            Err(e) => {
                self.poison(format!("grant to {holder}: {e} (the poll granted it)"));
                return None;
            }
        };
        let mut st = StRec::new(want);
        if let Got::Item(_, producer) = got {
            st.pop_src = producer;
            if let Some(p) = producer {
                self.add_dependent(p, stid);
            }
        }
        let mut inputs = StepInputs::from(got);
        match st.want {
            OpeningWant::Start => {
                // Dependence on the spawning parent continuation.
                if let Some(parent) = self.threads.get(&holder).and_then(|r| r.spawned_by) {
                    self.add_dependent(parent, stid);
                }
            }
            OpeningWant::SerializedRun => {
                self.exclusive = Some(stid);
                self.stats.serialized += 1;
            }
            OpeningWant::Lock(_) | OpeningWant::FetchAdd(_, _) => {
                if self.redo_locks.front() == Some(&holder) {
                    self.redo_locks.pop_front();
                }
                self.stats.locks_acquired += u64::from(matches!(st.want, OpeningWant::Lock(_)));
            }
            OpeningWant::SpawnParent { child, .. } => inputs.spawned = Some(child),
            OpeningWant::JoinParent(t) => {
                debug_assert_eq!(self.roster.state(t), Some(ThState::Done));
                inputs.joined = self.res.exit(t).cloned();
                if let Some(fst) = self.threads.get(&t).and_then(|r| r.final_st) {
                    self.add_dependent(fst, stid);
                }
            }
            OpeningWant::Push(..) | OpeningWant::Pop(_) | OpeningWant::Resume(..) => {}
        }
        let spawned = inputs.spawned;
        let task = self.open_subthread(stid, holder, st, worker, inputs)?;
        // After the parent continuation opened, so the child sees it as its
        // spawner.
        if let (Some((program, group, weight)), Some(child)) = (child, spawned) {
            self.insert_thread(child, program, group, weight, Some(stid));
            self.wal_append(worker, stid, RtOp::SpawnChild { child });
            self.stats.spawns += 1;
        }
        Some(task)
    }

    /// Notes `holder`'s arrival at `b` with the roster (its turn already
    /// consumed) and releases the barrier once every participant arrived.
    fn arrive(&mut self, holder: ThreadId, prev_st: Option<SubThreadId>, b: BarrierId, worker: usize) {
        let (arrival, reason) = self.roster.arrive(&mut self.enforcer, &mut self.ledger, holder, b);
        self.poison_on(reason);
        let Some(Arrival { gen: forming_gen, full }) = arrival else {
            return;
        };
        let cross = self
            .shard
            .as_ref()
            .is_some_and(|ctx| ctx.edge_barriers.contains(&b));
        match prev_st.and_then(|p| self.rol.rec_mut(p).map(|rec| (p, rec))) {
            // The in-flight ender carries its arrival: the race detector
            // reads the close clock off it at retirement, and a
            // cross-domain arrival is published to the hub then, exactly
            // once (a squash drops it with the entry before the hub ever
            // counts it).
            Some((prev, rec)) => {
                rec.arrival = Some((b, forming_gen));
                self.wal_append(worker, prev, RtOp::BarrierArrive { barrier: b, thread: holder });
            }
            // The ender already retired — no undo record (it could never
            // be undone nor pruned). Its thread's clock *is* the close
            // clock: contribute it directly (joins commute; continuations
            // of this generation retire strictly later). A retired ender
            // can no longer squash, so publishing a cross-domain arrival
            // now is final.
            None => {
                if self.ledger.racecheck() {
                    self.ledger.arrived_after_retire(holder, b, forming_gen);
                }
                if cross && !self.shard.as_ref().is_some_and(|ctx| ctx.hub.arrive(b)) {
                    self.poison(format!(
                        "cross-domain arrival on barrier {b} the hub does not \
                         know (divergent replay or corrupted shard plan)"
                    ));
                }
            }
        }
        // A cross-domain barrier's `full` can never fire locally —
        // participants count the *global* membership; the hub releases it.
        if full && !cross {
            self.release_barrier(b);
        }
    }

    /// Releases a barrier: all parked participants become resumable.
    pub(crate) fn release_barrier(&mut self, b: BarrierId) {
        // A thread has its record exactly while it is on the roster.
        let threads = &mut self.threads;
        let reason = self.roster.release(&mut self.enforcer, b, |w, gen| {
            if let Some(rec) = threads.get_mut(&w) {
                rec.pending = Some(PendingWant::Resume(b, gen));
            }
        });
        self.poison_on(reason);
        self.stats.barrier_releases += 1;
    }

    /// Records that in-flight `consumer` depends on what `producer`
    /// produced (nothing to record once `producer` retired).
    fn add_dependent(&mut self, producer: SubThreadId, consumer: SubThreadId) {
        if let Some(rec) = self.rol.rec_mut(producer) {
            rec.dependents.push(consumer);
        }
    }

    /// Notes that `stid`'s step left its worker (finished or panicked);
    /// its record, unless it left the reorder list.
    fn landed(&mut self, stid: SubThreadId) -> Option<&mut StRec> {
        let rec = self.rol.rec_mut(stid)?;
        if rec.worker.take().is_some() {
            self.running -= 1;
        }
        Some(rec)
    }

    /// Deposits a finished step (a lock it still holds already returned):
    /// files what its worker captured, stages its file writes, returns the
    /// program, marks the sub-thread complete and retires.
    pub(crate) fn deposit(
        &mut self,
        thread: ThreadId,
        stid: SubThreadId,
        program: Box<dyn DynThread>,
        result: Step,
        staged: Vec<(u64, Vec<u8>)>,
        captured: Captured,
    ) {
        if self.exclusive == Some(stid) {
            self.exclusive = None;
        }
        if let Some((seq, relock)) = captured.relock {
            self.hist.insert(seq, stid, relock);
        }
        let awaits = match self.landed(stid) {
            Some(rec) => {
                (rec.snap, rec.staged) = (Some(captured.snap), staged);
                rec.reads_younger.is_some()
            }
            None if !staged.is_empty() => {
                let why = format!("sub-thread {stid} staged file writes after it left the reorder list");
                self.poison(why);
                false
            }
            None => false,
        };
        let Some(rec) = self.threads.get_mut(&thread) else {
            self.poison(format!("sub-thread {stid} deposited for {thread}, which has no record"));
            return;
        };
        rec.program = Some(program);
        rec.pending = Some(PendingWant::Op(result));
        if !awaits {
            let reason = retire::complete(&mut self.rol, stid);
            self.poison_on(reason);
        }
        self.retire_ready();
        self.bump();
    }

    /// Returns checked-out lock data (explicit unlock or end-of-step).
    pub(crate) fn return_lock(
        &mut self,
        stid: SubThreadId,
        lock: LockId,
        data: Box<dyn Recoverable>,
    ) {
        if let Err(e) = self.apply(EXTERNAL_RING, stid, Op::Release(lock, LockData(data))) {
            self.poison(format!("sub-thread {stid} returned a lock: {e}"));
        }
    }

    /// Nested (subsumed) lock acquisition from inside a running step.
    /// Returns the data if the lock is free.
    pub(crate) fn try_nested_acquire(
        &mut self,
        stid: SubThreadId,
        lock: LockId,
    ) -> Result<Option<Box<dyn Recoverable>>, ResourceError> {
        if self.res.poll(ResourceId::Lock(lock))? == Poll::Wait {
            return Ok(None);
        }
        let Got::Data(_, LockData(data)) = self.apply(EXTERNAL_RING, stid, Op::Acquire(lock))? else {
            unreachable!("an acquire hands out the lock's data")
        };
        self.hist.seq += 1;
        let relock = Inverse::Relock(lock, LockData(data.clone_box()));
        self.hist.insert(self.hist.seq, stid, relock);
        let alias = ResourceId::Lock(lock);
        let writer = self.rol.iter_younger(stid).filter(|e| e.resources.contains(&alias)).last();
        let writer = writer.map(|e| e.id());
        if let Some(rec) = self.rol.rec_mut(stid) {
            rec.reads_younger = rec.reads_younger.max(writer);
        }
        let _ = self.rol.add_resource(stid, alias);
        self.stats.locks_acquired += 1;
        Ok(Some(data))
    }

    /// Write access to pool block `block` from `stid`'s step on `worker`:
    /// the prior contents are logged first, so squashing `stid` restores
    /// them.
    pub(crate) fn block_for_write(
        &mut self,
        worker: usize,
        stid: SubThreadId,
        block: u64,
    ) -> Result<&mut Vec<u8>, ResourceError> {
        let (data, unwrite) = self.res.write(block)?;
        self.wal.append(stid, RtOp::Res(unwrite));
        self.ledger.wal_appended(worker, stid, self.wal.len());
        Ok(data)
    }
}

/// A finished step, carried from the off-lock execution back to the deposit
/// performed at the head of the driver's next [`decide`] — so deposit and the
/// follow-on grant share a single lock acquisition (the grant fast path).
pub(crate) enum StepOutcome {
    Done {
        thread: ThreadId,
        stid: SubThreadId,
        program: Box<dyn DynThread>,
        result: Step,
        leftover_lock: Option<(LockId, Box<dyn Recoverable>)>,
        staged: Vec<(u64, Vec<u8>)>,
    },
    Panicked {
        thread: ThreadId,
        stid: SubThreadId,
        leftover_lock: Option<(LockId, Box<dyn Recoverable>)>,
        msg: String,
    },
}

/// What a granted step's worker captured outside the engine lock before
/// running it, carried beside its [`StepOutcome`] and filed at its
/// deposit: the thread checkpoint, for the step's reorder-list entry, and
/// a critical section's lock data at entry, under the history sequence
/// number its grant reserved.
pub(crate) struct Captured {
    pub snap: Box<dyn std::any::Any + Send>,
    pub relock: Option<(u64, ResInverse)>,
}

/// The pool driver: repeatedly grant + run until the program finishes. Each
/// iteration folds the previous step's deposit into the next grant search,
/// so the common cadence is one lock acquisition per step.
pub(crate) fn worker_loop(shared: &SharedRef, worker_ix: usize) {
    let mut finished = None;
    loop {
        match decide::<POOL>(shared, worker_ix, finished.take(), true) {
            Decision::Run { task, wake_peer } => {
                if wake_peer {
                    // The guard dropped when `decide` returned; the woken
                    // peer can acquire the lock without colliding with us.
                    shared.waits.cv.notify_one();
                }
                finished = Some(execute_task(shared, worker_ix, task));
            }
            Decision::Finished => return,
            Decision::Parked => unreachable!("pool workers have no grant budget"),
        }
    }
}

/// [`decide`]'s wait policy for a pool worker ([`worker_loop`]): a state in
/// which the token must wait parks the worker on the scheduler condvar —
/// bounded for edge-connected shard domains — until a peer's deposit,
/// recovery or finish changes it.
pub(crate) const POOL: bool = false;
/// [`decide`]'s wait policy for the single external context of a
/// [`crate::session::GprsSession`]: it never blocks. With exactly one
/// driving context there is no peer whose progress a wait could observe, so
/// every would-wait state is a genuine deadlock (or, under replay, a
/// divergence) and poisons the run.
pub(crate) const SOLO: bool = true;

/// One scheduling decision under one lock acquisition, for every driver:
/// deposit the finished step (if any) with what its worker captured, run
/// pending recovery once the machine is quiescent, then grant the
/// token holder's next step. Drivers differ only in the compile-time wait
/// policy ([`POOL`] or [`SOLO`]) and in `may_grant`, the solo driver's
/// grant budget: once it is spent the decision is [`Decision::Parked`] —
/// returned only after the deposit is applied and any pending recovery has
/// run, with nothing running, so a parked job's ROL/WAL/history state is
/// exactly the precise-restart state the paper's machinery maintains, and
/// resuming is just calling this function again.
///
/// Kept out of line: fused into a driver's loop (where the step also runs)
/// the pool instantiation measured 3–4 % slower on `gprsbench`'s `chain`.
#[inline(never)]
pub(crate) fn decide<const SOLO: bool>(
    shared: &SharedRef,
    worker_ix: usize,
    finished: Option<(StepOutcome, Captured)>,
    may_grant: bool,
) -> Decision {
    // Advisory pre-lock read of the published grant frontier: if the token
    // already rests on the thread whose step we just finished, our deposit
    // feeds our own grant (fast path) and no peer needs waking; otherwise
    // the deposit may unblock the token elsewhere (a returned lock, a
    // quiescence gate), so overlap one peer's seek with ours.
    let prenotify = match &finished {
        Some((StepOutcome::Done { thread, .. }, _)) => !shared.gate.is_next(*thread),
        _ => false,
    };
    let mut g = shared.inner.lock();
    // Whether a grant below is reached from this context's own deposit in
    // the same lock acquisition, without a condvar sleep in between.
    let mut fast = false;
    match finished {
        Some((StepOutcome::Done { thread, stid, program, result, leftover_lock, staged }, captured)) => {
            if let Some((lock, data)) = leftover_lock {
                g.return_lock(stid, lock, data);
                shared.waits.wake_lock_shard(lock, g.ledger.telemetry());
            }
            g.deposit(thread, stid, program, result, staged, captured);
            if prenotify && shared.waits.cv_sleepers.load(Ordering::Relaxed) > 0 {
                // Overlap a parked peer's seek with ours only when the
                // frontier thread already has a deposit armed; a frontier
                // whose step is still in flight fuses with its own deposit.
                let armed = g
                    .enforcer
                    .holder()
                    .and_then(|h| g.threads.get(&h))
                    .is_some_and(|r| r.pending.is_some());
                if armed && shared.waits.spare_cpu() {
                    shared.waits.wake_one_seeker(g.ledger.telemetry());
                }
            }
            fast = true;
        }
        Some((StepOutcome::Panicked { thread, stid, leftover_lock, msg }, _)) => {
            g.landed(stid);
            if let Some((lock, data)) = leftover_lock {
                g.return_lock(stid, lock, data);
                shared.waits.wake_lock_shard(lock, g.ledger.telemetry());
            }
            g.poison(format!("step of {thread} panicked: {msg}"));
        }
        None => {}
    }
    // Set when this worker returns from a wait; cleared on progress. Still
    // set at the next wait ⇒ the wakeup found nothing to do.
    let mut woke_idle = false;
    // Edge-connected shard domains bound their scheduler waits: peers
    // notify best-effort *without* taking this engine's lock (no
    // cross-engine lock order exists), so an unbounded wait could miss a
    // wake forever. Isolated domains — and unsharded runs — keep
    // indefinite waits and pay nothing.
    let edge_wait = g.shard.as_ref().is_some_and(|c| c.has_cross_edges());
    // The one place the wait policies differ. The argument is the solo
    // driver's poison text for the site; the default serves every site
    // that waits for a step in flight, which a single driver — it deposits
    // before deciding — never has.
    macro_rules! wait_here {
        () => {
            wait_here!("cooperative driver found the token parked on a running step")
        };
        ($stuck:expr) => {{
            if SOLO {
                let stuck = $stuck;
                g.poison(stuck);
            } else {
                if woke_idle && g.ledger.telemetry().enabled() {
                    g.ledger.telemetry().metrics.wakeups_spurious.inc_serialized();
                }
                fast = false;
                woke_idle = true;
                let bound = edge_wait.then_some(Duration::from_micros(200));
                shared.waits.park_seeker(&mut g, bound);
            }
            continue;
        }};
    }
    loop {
        let inner = &mut *g;
        if inner.poisoned.is_some() {
            // Peer shard domains must stop too: without the abort they
            // would stall on edges this domain will never feed again.
            inner.shard_publish_abort();
            shared.done.store(true, Ordering::Release);
            shared.waits.wake_all(inner.ledger.telemetry());
            break Decision::Finished;
        }
        if inner.shard.is_some() && inner.shard_poll() {
            // A peer domain aborted: finish this pool without poisoning
            // (the culprit domain carries the diagnostic). Out-edges stay
            // open — a sibling worker may still be depositing a step.
            shared.done.store(true, Ordering::Release);
            shared.waits.wake_all(inner.ledger.telemetry());
            break Decision::Finished;
        }
        if inner.recovering {
            if inner.running == 0 {
                // Quiescence audit: every per-lock condvar-shard waiter is a
                // running step blocked inside `StepCtx::lock`, so with
                // nothing running no shard may have sleepers — a non-zero
                // count here would mean a blocked successor recovery's
                // targeted wakeups could never reach (sleeper counts are
                // only mutated under this lock, so the reads are exact).
                debug_assert!(
                    shared
                        .waits
                        .shard_sleepers
                        .iter()
                        .all(|s| s.load(Ordering::Relaxed) == 0),
                    "lock-shard sleepers must be quiescent when recovery runs"
                );
                let policy = inner.cfg.recovery;
                crate::rex::perform_recovery(inner, policy);
                inner.recovering = false;
                inner.bump();
                woke_idle = false;
                // No wake: this worker grants from the recovered state
                // itself, and that grant's `wake_peer` hands the frontier
                // to a parked peer when the peer has a CPU to use it. A
                // peer re-scans whatever state it wakes to, so none is owed
                // a wake by the recovery; a broadcast here cost each
                // recovery a context switch per parked worker.
                continue;
            }
            wait_here!();
        }
        if !inner.pending_exceptions.is_empty() {
            // Depositing workers see this flag themselves; the last one to
            // deposit performs the recovery. No wakeup needed.
            inner.recovering = true;
            continue;
        }
        // Checked only after the recovery gates above: an exception raised
        // at one of the final grants must still be recovered (squashing can
        // resurrect exited threads), not dropped by an early finish with
        // its excepted entry's staged output uncommitted.
        if inner.roster.live() == 0 && inner.running == 0 {
            // Nothing is in flight, so no sibling deposit can race the
            // out-edge close below.
            inner.shard_finish_domain();
            shared.done.store(true, Ordering::Release);
            shared.waits.wake_all(inner.ledger.telemetry());
            break Decision::Finished;
        }
        if !may_grant {
            break Decision::Parked;
        }
        if inner.exclusive.is_some() {
            wait_here!();
        }
        let Some(holder) = inner.enforcer.holder() else {
            if inner.running == 0 && inner.roster.live() > 0 {
                if inner.shard_parked_on_edge() {
                    // The release comes from the hub. Only when every peer
                    // pool already finished can no further arrival ever be
                    // published; one more drain then closes the race where
                    // the final release landed after this iteration's poll
                    // (finish counts are bumped *after* the publishing
                    // retirement, with acquire/release ordering).
                    if inner.shard_peers_done() {
                        let _ = inner.shard_poll();
                        if inner.enforcer.holder().is_none() {
                            inner.poison(
                                "deadlock: cross-shard barrier never released \
                                 (barrier participants mismatch across domains?)",
                            );
                        }
                        continue;
                    }
                    wait_here!();
                }
                let exhausted = inner.ledger.replay_exhausted(inner.roster.live());
                inner.poison(exhausted.unwrap_or_else(|| {
                    "deadlock: live threads remain but none is runnable \
                     (barrier participants mismatch?)"
                        .into()
                }));
                continue;
            }
            wait_here!();
        };
        if let Some(msg) = inner.roster.check_holder(holder, &inner.ledger) {
            inner.poison(msg);
            continue;
        }
        let Some(want) = inner.threads.get(&holder).and_then(|rec| rec.pending.as_ref()) else {
            // The holder's step is still running: the token waits, and the
            // holder's own deposit will reach this point fast-path.
            wait_here!();
        };
        // Domain fence: a step touching a resource the plan mapped
        // elsewhere (or out-of-scope dynamic topology) must fail loudly
        // *before* polling — a foreign lock or channel has no local
        // record, so the poll would silently wait or pass forever.
        let fenced = match want {
            PendingWant::Op(step) if inner.shard.is_some() => inner.shard_gate(holder, step),
            _ => None,
        };
        if let Some(msg) = fenced {
            inner.poison(msg);
            continue;
        }
        match inner.poll_or_wait(holder, want) {
            Err(e) => {
                inner.poison(format!("grant to {holder}: {e}"));
                continue;
            }
            Ok(Poll::Pass) => {
                // Wasted turn (empty FIFO / unfinished join).
                inner.enforcer.pass_turn(holder);
                inner.stats.polls += 1;
                inner.pass_streak += 1;
                woke_idle = false;
                if inner.pass_streak > inner.enforcer.live_threads() * 2 + 4 {
                    if inner.running == 0 {
                        inner.poison(match inner.ledger.replay_pos() {
                            Some(pos) => format!(
                                "replay divergence at event {pos}: recorded \
                                 thread {} polls an operation the recording \
                                 granted (channel starvation under replay)",
                                holder.raw()
                            ),
                            None => "deadlock: every runnable thread is polling \
                                     (channel starvation or join cycle)"
                                .into(),
                        });
                        continue;
                    }
                    wait_here!();
                }
                continue;
            }
            Ok(Poll::Wait) => {
                // Token waits here (lock busy / quiescence gate). A deposit
                // that changes either wakes one seeker. With one context
                // the blocking condition can only be our own state, and we
                // just deposited — so it can never clear.
                wait_here!(match inner.ledger.replay_pos() {
                    Some(pos) => format!(
                        "replay divergence at event {pos}: recorded thread {} \
                         blocks on an operation the recording granted",
                        holder.raw()
                    ),
                    None => format!(
                        "deadlock: token of {holder} waits on a condition no \
                         single-context execution can satisfy"
                    ),
                });
            }
            Ok(Poll::Grant) => {}
        }
        inner.pass_streak = 0;
        match inner.grant(holder, worker_ix) {
            Some(task) => {
                inner.stats.grants += 1;
                debug_assert_eq!(
                    shared.gate.holder(),
                    inner.enforcer.holder(),
                    "gate mirrors the enforcer after every grant"
                );
                inner.chaos_tick_grant();
                if fast && inner.ledger.telemetry().enabled() {
                    inner.ledger.telemetry().metrics.fast_path_grants.inc_serialized();
                }
                // Hand the new frontier to a parked peer only when it is
                // provably usable: the next holder must already have a
                // deposit armed (a holder whose step is still running will
                // reach the frontier itself, fused with its own deposit,
                // so waking anyone for it is a guaranteed spurious wakeup).
                let wake_peer = shared.waits.cv_sleepers.load(Ordering::Relaxed) > 0
                    && shared.waits.spare_cpu()
                    && inner
                        .enforcer
                        .holder()
                        .and_then(|h| inner.threads.get(&h))
                        .is_some_and(|r| r.pending.is_some());
                if wake_peer && inner.ledger.telemetry().enabled() {
                    inner.ledger.telemetry().metrics.wakeups_issued.inc_serialized();
                }
                break Decision::Run { task, wake_peer };
            }
            None => {
                // Structural grant (barrier arrival, exit, marker): state
                // changed; keep scanning under the same acquisition. Any
                // follow-on grants fan out via the post-grant wakeup chain.
                woke_idle = false;
                continue;
            }
        }
    }
}

/// Runs one granted step outside the engine lock. Before the step, the
/// off-critical-section state capture happens here: the thread checkpoint
/// and the critical section's lock snapshot are produced without the lock
/// and returned beside the outcome, for the step's deposit. Nothing touches
/// the program or the checked-out lock data between grant and this point,
/// so the snapshots are bit-identical to ones taken under the lock.
pub(crate) fn execute_task(
    shared: &SharedRef,
    worker_ix: usize,
    task: StepTask,
) -> (StepOutcome, Captured) {
    let StepTask { thread, stid, program, inputs, relock_seq, spare_snap } = task;
    let snap = program.save_into(spare_snap);
    let relock = inputs.lock_out.as_ref().map(|(lock, data)| {
        (relock_seq, Inverse::Relock(*lock, LockData(data.clone_box())))
    });
    let outcome = run_step(CtxBackend::Gprs(shared.clone()), thread, stid, worker_ix, program, inputs);
    (outcome, Captured { snap, relock })
}

/// Runs one granted step outside its executor's lock, for both executors:
/// builds the step's context, catches a panic and names it. Inlined into
/// both callers, so the pool's hand-off stays the one function it was
/// before the executors shared it (LLVM otherwise keeps it out of line, and
/// every grant's inputs pass through memory).
#[inline(always)]
pub(crate) fn run_step(
    backend: CtxBackend,
    thread: ThreadId,
    stid: SubThreadId,
    worker: usize,
    mut program: Box<dyn DynThread>,
    inputs: StepInputs,
) -> StepOutcome {
    let mut ctx = StepCtx::new(backend, thread, stid, worker, inputs);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        program.step(&mut ctx)
    }));
    let (leftover_lock, staged) = ctx.into_parts();
    match outcome {
        Ok(result) => StepOutcome::Done { thread, stid, program, result, leftover_lock, staged },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".to_string());
            StepOutcome::Panicked { thread, stid, leftover_lock, msg }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ctx::StepCtx;
    use crate::handles::{AtomicHandle, BarrierHandle};
    use crate::program::{Step, ThreadProgram};
    use crate::GprsBuilder;
    use gprs_core::history::Checkpoint;
    use gprs_core::ids::GroupId;

    /// `rounds` barrier phases, each a fetch-add and then an arrival.
    struct Phases {
        atomic: AtomicHandle,
        barrier: BarrierHandle,
        rounds: u32,
        done: u32,
        arrive: bool,
    }

    impl Checkpoint for Phases {
        type Snapshot = (u32, bool);
        fn checkpoint(&self) -> (u32, bool) {
            (self.done, self.arrive)
        }
        fn restore(&mut self, s: &(u32, bool)) {
            (self.done, self.arrive) = *s;
        }
    }

    impl ThreadProgram for Phases {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
            if self.arrive {
                self.arrive = false;
                return self.barrier.wait();
            }
            if self.done == self.rounds {
                return Step::exit_unit();
            }
            self.done += 1;
            self.arrive = true;
            self.atomic.fetch_add(1)
        }
    }

    /// A barrier run retires every sub-thread it grants, and with its
    /// reorder list empty nothing else names one: no record survives its
    /// entry, whichever driver ran the program and however many
    /// generations it formed.
    #[test]
    fn a_barrier_run_leaves_no_per_subthread_state_behind() {
        const ROUNDS: u32 = 200;
        for pool in [true, false] {
            let mut b = GprsBuilder::new().workers(2);
            let atomic = b.atomic(0);
            let barrier = b.barrier(4);
            for _ in 0..4 {
                let phases = Phases { atomic, barrier, rounds: ROUNDS, done: 0, arrive: false };
                b.thread(phases, GroupId::new(0), 1);
            }
            let gprs = b.build();
            let shared = gprs.shared.clone();
            let report = if pool {
                gprs.run()
            } else {
                let mut session = gprs.into_session();
                session.run_to_completion();
                session.finish()
            };
            assert_eq!(report.unwrap().stats.barrier_releases, u64::from(ROUNDS));
            let g = shared.inner.lock();
            assert!(g.rol.is_empty() && g.running == 0, "pool={pool}");
            assert_eq!(g.wal.len(), 0, "pool={pool}");
            assert!(g.hist.relocks.is_empty(), "pool={pool}");
            assert!(g.roster.barriers().values().all(|b| b.waiting.is_empty()));
        }
    }

    /// `rounds` fetch-adds on one atomic, then an exit.
    struct Adds {
        atomic: AtomicHandle,
        rounds: u32,
        done: u32,
    }

    impl Checkpoint for Adds {
        type Snapshot = u32;
        fn checkpoint(&self) -> u32 {
            self.done
        }
        fn restore(&mut self, s: &u32) {
            self.done = *s;
        }
    }

    impl ThreadProgram for Adds {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
            if self.done == self.rounds {
                return Step::exit_unit();
            }
            self.done += 1;
            self.atomic.fetch_add(1)
        }
    }

    /// A deposit for a sub-thread that is no longer in the reorder list
    /// poisons the run by name — at the staged-file lookup, at its
    /// completion when it staged nothing, or at its thread's record when
    /// the thread is gone too — instead of panicking under the engine lock.
    #[test]
    fn a_deposit_for_a_vanished_sub_thread_poisons_by_name() {
        use super::Captured;
        use gprs_core::ids::{SubThreadId, ThreadId};
        let mut b = GprsBuilder::new().workers(1);
        let atomic = b.atomic(0);
        b.thread(Adds { atomic, rounds: 1, done: 0 }, GroupId::new(0), 1);
        let shared = b.build().shared.clone();
        let mut g = shared.inner.lock();
        let (parked, ghost) = (ThreadId::new(0), SubThreadId::new(99));
        let staged = vec![(0, b"x".to_vec())];
        for (thread, staged, named) in [
            (parked, staged, "sub-thread ST99 staged file writes after it left the reorder list"),
            (parked, Vec::new(), "sub-thread ST99 completed after it left the reorder list"),
            (ThreadId::new(7), Vec::new(), "sub-thread ST99 deposited for TH7, which has no record"),
        ] {
            g.poisoned = None;
            let program = g.threads.get_mut(&parked).and_then(|r| r.program.take());
            let program = program.expect("the thread is parked at its start");
            let captured = Captured { snap: Box::new(()), relock: None };
            g.deposit(thread, ghost, program, Step::exit_unit(), staged, captured);
            assert_eq!(g.poisoned.as_deref(), Some(named));
        }
    }

    /// A recovery wakes nobody: the worker that ran it grants next. One
    /// pool worker is driven by hand while its peer counts as parked with
    /// no CPU to spare, so every wake the run issues is counted and the
    /// only one due is the finish broadcast — however many recoveries ran.
    #[test]
    fn a_recovery_is_finished_by_the_worker_that_ran_it() {
        use super::{decide, execute_task, Decision, POOL};
        use gprs_core::chaos::{ChaosEvent, ChaosPlan};
        use std::sync::atomic::Ordering;
        let mut plan = ChaosPlan::new();
        for k in 1..=12 {
            plan.push(ChaosEvent::at_grant(k * 8));
        }
        let mut b = GprsBuilder::new().workers(2).chaos(&plan);
        for _ in 0..4 {
            let atomic = b.atomic(0);
            b.thread(Adds { atomic, rounds: 30, done: 0 }, GroupId::new(0), 1);
        }
        let shared = b.build().shared.clone();
        shared.waits.cv_sleepers.store(1, Ordering::Relaxed);
        assert!(!shared.waits.spare_cpu());
        let mut finished = None;
        loop {
            match decide::<POOL>(&shared, 0, finished.take(), true) {
                Decision::Run { task, wake_peer } => {
                    assert!(!wake_peer, "no CPU is spare for the peer");
                    finished = Some(execute_task(&shared, 0, task));
                }
                Decision::Finished => break,
                Decision::Parked => unreachable!("a pool worker has no grant budget"),
            }
        }
        let g = shared.inner.lock();
        assert!(g.poisoned.is_none(), "{:?}", g.poisoned);
        assert_eq!(g.stats.recoveries, 12);
        let wakeups = g.ledger.telemetry().metrics.wakeups_issued.get();
        assert_eq!(wakeups, 1, "the finish broadcast, and no wake per recovery");
    }
}
