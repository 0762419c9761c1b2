//! The per-step execution context.
//!
//! A [`StepCtx`] is handed to every [`crate::program::ThreadProgram::step`]
//! invocation. It carries the values delivered by the synchronization
//! operation that opened the sub-thread (popped item, previous atomic value,
//! joined output, spawned child id, checked-out lock data) and provides the
//! mid-sub-thread services: early unlock, nested (subsumed) critical
//! sections, recoverable file output and the logged pool allocator.
//!
//! The same context type serves both executors — the GPRS runtime and the
//! coordinated-CPR baseline — so a program runs unmodified on either, which
//! is what the paper's comparison requires.

use crate::engine::SharedRef;
use crate::handles::{AtomicHandle, FileHandle, MutexHandle, Recoverable};
use crate::ops::RtOp;
use crate::program::{payload_to, Payload};
use gprs_core::ids::{LockId, SubThreadId, ThreadId};

/// Output staged during a step: `(file index, bytes)` pairs held until the
/// sub-thread's output-commit point.
pub(crate) type StagedFiles = Vec<(u64, Vec<u8>)>;

/// A lock's data checked out for the duration of a step (returned to the
/// engine at sub-thread completion).
pub(crate) type LockCheckout = Option<(LockId, Box<dyn Recoverable>)>;

/// A handle to a pool-allocated block (`§3.2`: GPRS implements its own
/// memory allocator so allocation can be undone on restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockHandle(pub(crate) u64);

/// Which executor's shared state backs this context.
pub(crate) enum CtxBackend {
    Gprs(SharedRef),
    Cpr(std::sync::Arc<crate::cpr::CprShared>),
}

impl CtxBackend {
    /// Waits for `lock` inside `stid`'s step and checks its data out.
    fn acquire_nested(&self, stid: SubThreadId, lock: LockId) -> Box<dyn Recoverable> {
        match self {
            CtxBackend::Gprs(shared) => shared.acquire_nested(stid, lock),
            CtxBackend::Cpr(shared) => shared.acquire_nested(lock),
        }
    }

    /// Returns `lock`'s data, checked out by `stid`'s step.
    fn release_lock(&self, stid: SubThreadId, lock: LockId, data: Box<dyn Recoverable>) {
        match self {
            CtxBackend::Gprs(shared) => shared.release_lock(stid, lock, data),
            CtxBackend::Cpr(shared) => shared.release_lock(lock, data),
        }
    }
}

/// What the grant that opened a step delivers to it. The grant fills it,
/// the task carries it and the step's context owns it.
#[derive(Default)]
pub(crate) struct StepInputs {
    /// The item a `Pop` dequeued.
    pub popped: Option<Payload>,
    /// The atomic's value before a `FetchAdd`.
    pub atomic_prev: Option<u64>,
    /// The output of the thread a `Join` waited for.
    pub joined: Option<Payload>,
    /// The child a `Spawn` created.
    pub spawned: Option<ThreadId>,
    /// The lock data a `Lock` checked out for the critical section.
    pub lock_out: LockCheckout,
}

/// Execution context of one running sub-thread (or CPR step).
pub struct StepCtx<'a> {
    backend: CtxBackend,
    thread: ThreadId,
    stid: SubThreadId,
    worker: usize,
    inputs: StepInputs,
    staged_files: StagedFiles,
    _lt: std::marker::PhantomData<&'a ()>,
}

impl std::fmt::Debug for StepCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepCtx")
            .field("thread", &self.thread)
            .field("subthread", &self.stid)
            .field("worker", &self.worker)
            .finish_non_exhaustive()
    }
}

impl StepCtx<'_> {
    pub(crate) fn new(
        backend: CtxBackend,
        thread: ThreadId,
        stid: SubThreadId,
        worker: usize,
        inputs: StepInputs,
    ) -> Self {
        StepCtx {
            backend,
            thread,
            stid,
            worker,
            inputs,
            staged_files: Vec::new(),
            _lt: std::marker::PhantomData,
        }
    }

    pub(crate) fn into_parts(self) -> (LockCheckout, StagedFiles) {
        (self.inputs.lock_out, self.staged_files)
    }

    /// The logical thread this step belongs to.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The sub-thread this step executes as (GPRS executor; zero under the
    /// CPR baseline, which has no sub-threads).
    pub fn subthread(&self) -> SubThreadId {
        self.stid
    }

    /// The hardware context (worker) executing this step.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The value delivered by the `Pop` that opened this sub-thread.
    ///
    /// # Panics
    /// Panics if the sub-thread was not opened by a pop, or on a payload
    /// type mismatch (a producer/consumer wiring bug).
    pub fn popped<T: Clone + Send + Sync + 'static>(&self) -> T {
        let p = self
            .inputs
            .popped
            .as_ref()
            .expect("sub-thread was not opened by a channel pop");
        payload_to(p)
    }

    /// The atomic's previous value, when opened by a `FetchAdd`.
    ///
    /// # Panics
    /// Panics if the sub-thread was not opened by an atomic operation.
    pub fn atomic_prev(&self) -> u64 {
        self.inputs
            .atomic_prev
            .expect("sub-thread was not opened by an atomic operation")
    }

    /// The thread id created by the `Spawn` that opened this sub-thread —
    /// what `pthread_create` returns, needed for a later `Join`.
    ///
    /// # Panics
    /// Panics if the sub-thread was not opened by a spawn.
    pub fn spawned(&self) -> ThreadId {
        self.inputs
            .spawned
            .expect("sub-thread was not opened by a spawn")
    }

    /// The joined thread's output, when opened by a `Join`.
    ///
    /// # Panics
    /// Panics if the sub-thread was not opened by a join, or on a payload
    /// type mismatch.
    pub fn joined<T: Clone + Send + Sync + 'static>(&self) -> T {
        let p = self
            .inputs
            .joined
            .as_ref()
            .expect("sub-thread was not opened by a join");
        payload_to(p)
    }

    /// Accesses the data of the mutex this critical-section sub-thread
    /// holds. May be called repeatedly until [`Self::unlock`].
    ///
    /// # Panics
    /// Panics if the sub-thread holds no lock, holds a different mutex, or
    /// on a data type mismatch.
    pub fn with_lock<T: 'static, R>(
        &mut self,
        handle: &MutexHandle<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let (lock, data) = self
            .inputs
            .lock_out
            .as_mut()
            .expect("sub-thread holds no lock (was it opened by Step::Lock?)");
        assert_eq!(*lock, handle.id(), "holding a different mutex");
        let typed = data
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("mutex data type mismatch");
        f(typed)
    }

    /// Releases the held mutex early ("the critical section and the
    /// succeeding code are assigned to the same sub-thread"). If never
    /// called, the lock is released automatically when the step returns.
    ///
    /// # Panics
    /// Panics if no lock is held.
    pub fn unlock<T>(&mut self, handle: &MutexHandle<T>) {
        let (lock, data) = self
            .inputs
            .lock_out
            .take()
            .expect("sub-thread holds no lock to unlock");
        assert_eq!(lock, handle.id(), "unlocking a different mutex");
        self.backend.release_lock(self.stid, lock, data);
    }

    /// A nested critical section, flattened into this sub-thread (`§3.2`):
    /// waits for the mutex, snapshots its data into the history buffer,
    /// runs `f`, and releases. Creates no new sub-thread.
    ///
    /// # Panics
    /// Panics on a data type mismatch, or if this sub-thread already holds
    /// the same mutex via its opening `Lock`.
    pub fn lock_nested<T: 'static, R>(
        &mut self,
        handle: &MutexHandle<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        if let Some((l, _)) = &self.inputs.lock_out {
            assert_ne!(*l, handle.id(), "recursive acquire of the held mutex");
        }
        let lock = handle.id();
        let mut data = self.backend.acquire_nested(self.stid, lock);
        let typed = data
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("mutex data type mismatch");
        let out = f(typed);
        self.backend.release_lock(self.stid, lock, data);
        out
    }

    /// Reads a shared atomic cell **without synchronization** — a *plain*
    /// load. Unlike [`crate::handles::AtomicHandle::fetch_add`] via
    /// [`crate::program::Step::FetchAdd`], this creates no sub-thread
    /// boundary, no happens-before edge and no dependence alias: two
    /// threads touching the same cell this way (one of them writing) are
    /// data-racing, which the opt-in detector
    /// ([`crate::GprsBuilder::racecheck`]) flags at retirement. Exists to
    /// model the unsynchronized accesses that break selective restart's
    /// data-race-freedom assumption.
    pub fn plain_load(&self, handle: &AtomicHandle) -> u64 {
        match &self.backend {
            CtxBackend::Gprs(shared) => {
                shared.inner.lock().plain_load(self.stid, handle.id())
            }
            CtxBackend::Cpr(shared) => shared.plain_load(handle.id()),
        }
    }

    /// Writes a shared atomic cell **without synchronization** — a *plain*
    /// store; see [`Self::plain_load`]. Under GPRS the old value is
    /// WAL-logged so recovery can undo it, but no dependence alias is
    /// recorded — racy readers are *not* pulled into the culprit's
    /// selective-restart closure, which is why a detected race escalates
    /// recovery to a basic restart.
    pub fn plain_store(&self, handle: &AtomicHandle, value: u64) {
        match &self.backend {
            CtxBackend::Gprs(shared) => {
                shared
                    .inner
                    .lock()
                    .plain_store(self.worker, self.stid, handle.id(), value);
            }
            CtxBackend::Cpr(shared) => shared.plain_store(handle.id(), value),
        }
    }

    /// Appends bytes to a recoverable output file. Under GPRS the write is
    /// staged and committed only when this sub-thread retires — the
    /// output-commit delay of `§3.2`; under the CPR baseline it commits at
    /// the next coordinated checkpoint.
    pub fn write_file(&mut self, file: FileHandle, bytes: &[u8]) {
        self.staged_files.push((file.0, bytes.to_vec()));
    }

    /// Allocates a zeroed block from the logged pool allocator.
    pub fn alloc(&self, size: usize) -> BlockHandle {
        match &self.backend {
            CtxBackend::Gprs(shared) => {
                let mut g = shared.inner.lock();
                let id = g.next_block;
                g.next_block += 1;
                g.wal_append(self.worker, self.stid, RtOp::Alloc { block: id });
                g.blocks.insert(id, vec![0; size]);
                g.stats.allocs += 1;
                BlockHandle(id)
            }
            CtxBackend::Cpr(shared) => BlockHandle(shared.alloc(size)),
        }
    }

    /// Frees a pool block. Under GPRS the contents are preserved in the log
    /// until the freeing sub-thread retires, so the free can be undone.
    ///
    /// # Panics
    /// Panics on double free.
    pub fn free(&self, block: BlockHandle) {
        match &self.backend {
            CtxBackend::Gprs(shared) => {
                let mut g = shared.inner.lock();
                let data = g
                    .blocks
                    .remove(&block.0)
                    .expect("double free of pool block");
                g.wal_append(self.worker, self.stid, RtOp::Free { block: block.0, data });
            }
            CtxBackend::Cpr(shared) => shared.free(block.0),
        }
    }

    /// Mutates a pool block; under GPRS the prior contents are snapshotted
    /// so the mutation can be undone if this sub-thread is squashed.
    ///
    /// # Panics
    /// Panics if the block was freed.
    pub fn with_block<R>(&self, block: BlockHandle, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        match &self.backend {
            CtxBackend::Gprs(shared) => {
                let mut g = shared.inner.lock();
                f(g.block_for_write(self.stid, block.0).expect("block freed"))
            }
            CtxBackend::Cpr(shared) => shared.with_block(block.0, f),
        }
    }

    /// Reads a pool block.
    ///
    /// # Panics
    /// Panics if the block was freed.
    pub fn read_block<R>(&self, block: BlockHandle, f: impl FnOnce(&[u8]) -> R) -> R {
        match &self.backend {
            CtxBackend::Gprs(shared) => {
                let g = shared.inner.lock();
                f(g.blocks.get(&block.0).expect("block freed"))
            }
            CtxBackend::Cpr(shared) => shared.read_block(block.0, f),
        }
    }
}
