//! Typed handles to runtime-managed synchronization objects.
//!
//! All shared state lives *inside* the runtime — a mutex owns the data it
//! protects (the Rust idiom, and also exactly what GPRS needs: the data
//! under a lock is the mod set the lock aliases), channels own their items,
//! atomics their word. Handles are cheap copyable names; the typed layer
//! erases to raw ids at the [`crate::program::Step`] boundary and is
//! re-typed inside the step context.

use crate::program::Step;
use gprs_core::ids::{AtomicId, BarrierId, ChannelId, LockId};
use std::marker::PhantomData;
use std::sync::Arc;

/// Untyped mutex name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RawMutex(pub(crate) LockId);

impl RawMutex {
    /// The underlying lock id (the dependence alias of `§3.4`).
    pub fn id(self) -> LockId {
        self.0
    }
}

/// Untyped channel name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RawChannel(pub(crate) ChannelId);

impl RawChannel {
    /// The underlying channel id.
    pub fn id(self) -> ChannelId {
        self.0
    }
}

/// A mutex owning a value of type `T`.
///
/// Created with [`crate::Registry::mutex`]. Returning
/// [`MutexHandle::lock`] from a step ends the sub-thread at the acquire;
/// the next step runs as the critical section and accesses the data through
/// [`crate::ctx::StepCtx::with_lock`].
pub struct MutexHandle<T> {
    pub(crate) raw: RawMutex,
    pub(crate) _t: PhantomData<fn() -> T>,
}

impl<T> MutexHandle<T> {
    /// The acquire operation ending the current sub-thread.
    pub fn lock(&self) -> Step {
        Step::Lock(self.raw)
    }

    /// The lock id used as a dependence alias.
    pub fn id(&self) -> LockId {
        self.raw.0
    }
}

impl<T> Clone for MutexHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for MutexHandle<T> {}

impl<T> std::fmt::Debug for MutexHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MutexHandle({})", self.raw.0)
    }
}

/// A FIFO channel carrying values of type `T` — the runtime-managed
/// equivalent of the paper's lock-protected queues, with precise undo:
/// squashing a pop returns the very same item to the queue front.
pub struct ChannelHandle<T> {
    pub(crate) raw: RawChannel,
    pub(crate) _t: PhantomData<fn() -> T>,
}

impl<T: Send + Sync + 'static> ChannelHandle<T> {
    /// The enqueue operation ending the current sub-thread. The value was
    /// produced by the sub-thread that ends here, which is recorded as the
    /// item's provenance for selective restart.
    pub fn push(&self, value: T) -> Step {
        Step::Push(self.raw, Arc::new(value))
    }

    /// The dequeue operation ending the current sub-thread; blocks
    /// (deterministically re-polls) while empty.
    pub fn pop(&self) -> Step {
        Step::Pop(self.raw)
    }

    /// The channel id.
    pub fn id(&self) -> ChannelId {
        self.raw.0
    }
}

impl<T> Clone for ChannelHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ChannelHandle<T> {}

impl<T> std::fmt::Debug for ChannelHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChannelHandle({})", self.raw.0)
    }
}

/// A runtime-managed atomic `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtomicHandle(pub(crate) AtomicId);

impl AtomicHandle {
    /// Atomic fetch-add ending the current sub-thread; the next step reads
    /// the previous value via [`crate::ctx::StepCtx::atomic_prev`].
    pub fn fetch_add(&self, delta: u64) -> Step {
        Step::FetchAdd(self.0, delta)
    }

    /// The atomic id used as a dependence alias.
    pub fn id(&self) -> AtomicId {
        self.0
    }
}

/// A barrier across a fixed set of participating threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierHandle(pub(crate) BarrierId, pub(crate) u32);

impl BarrierHandle {
    /// The barrier-wait operation ending the current sub-thread.
    pub fn wait(&self) -> Step {
        Step::Barrier(self.0)
    }

    /// The barrier id.
    pub fn id(&self) -> BarrierId {
        self.0
    }

    /// Number of participating threads.
    pub fn participants(&self) -> u32 {
        self.1
    }
}

/// A recoverable append-only output file managed by the runtime's I/O
/// service (`§3.2`, "Third Party, I/O, and OS Functions"): writes are staged
/// per sub-thread and committed only at retirement, which both solves the
/// output-commit problem and makes squash-undo trivial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileHandle(pub(crate) u64);

impl FileHandle {
    /// The file's registry index.
    pub fn index(self) -> u64 {
        self.0
    }
}

/// Type-erased clone + restore support for mutex-protected data, giving the
/// history buffer a uniform way to snapshot lock mod sets.
pub(crate) trait Recoverable: Send {
    fn clone_box(&self) -> Box<dyn Recoverable>;
    #[allow(dead_code)] // exercised by unit tests
    fn as_any(&self) -> &(dyn std::any::Any + Send);
    fn as_any_mut(&mut self) -> &mut (dyn std::any::Any + Send);
}

impl<T: Clone + Send + 'static> Recoverable for T {
    fn clone_box(&self) -> Box<dyn Recoverable> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &(dyn std::any::Any + Send) {
        self
    }
    fn as_any_mut(&mut self) -> &mut (dyn std::any::Any + Send) {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_copy_and_debug() {
        let m: MutexHandle<Vec<u8>> = MutexHandle {
            raw: RawMutex(LockId::new(3)),
            _t: PhantomData,
        };
        let m2 = m;
        assert_eq!(m.id(), m2.id());
        assert!(format!("{m:?}").contains("L3"));

        let c: ChannelHandle<u32> = ChannelHandle {
            raw: RawChannel(ChannelId::new(1)),
            _t: PhantomData,
        };
        assert_eq!(c.id(), ChannelId::new(1));
        assert!(matches!(c.pop(), Step::Pop(_)));
        assert!(matches!(c.push(7), Step::Push(_, _)));
    }

    #[test]
    fn recoverable_round_trips() {
        let v: Box<dyn Recoverable> = Box::new(vec![1u32, 2]);
        let copy = v.clone_box();
        let got = copy.as_any().downcast_ref::<Vec<u32>>().unwrap();
        assert_eq!(got, &vec![1, 2]);
    }

    #[test]
    fn atomic_and_barrier_build_steps() {
        let a = AtomicHandle(AtomicId::new(2));
        assert!(matches!(a.fetch_add(5), Step::FetchAdd(_, 5)));
        let b = BarrierHandle(BarrierId::new(0), 4);
        assert!(matches!(b.wait(), Step::Barrier(_)));
        assert_eq!(b.participants(), 4);
    }
}
