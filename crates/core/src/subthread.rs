//! Sub-threads (`§3.2`, "Creating Sub-threads").
//!
//! GPRS logically divides each program thread into fine-grained *sub-threads*
//! at its synchronization points: thread creation and termination, critical
//! sections, atomic operations, barriers and condition waits. Each sub-thread
//! is the unit of ordering, checkpointing and restart.
//!
//! Each engine decides the boundaries where it grants the operation that
//! opens one — the runtime in `engine::Inner::grant_op`, from the `Step` a
//! program returns; the simulator in `gprs::token_loop`, from the next
//! `SimOp` of the trace — and both apply the paper's two optimizations by
//! construction. **No split at unlock**: an unlock is a `StepCtx` call (or
//! the trace's `cs_work`) inside the sub-thread its acquire opened, never a
//! step. **Nested critical sections are flattened**: `StepCtx::lock_nested`
//! acquires inside the current sub-thread and opens none.

use crate::ids::{BarrierId, ChannelId, GroupId, LockId, ResourceId, SubThreadId, ThreadId};
use crate::ids::AtomicId;
use std::fmt;

/// A dynamic synchronization event observed in a thread's execution.
///
/// These are the GPRS interception points: the paper's runtime interposes on
/// the Pthreads APIs and gcc atomics; this reproduction's runtime observes
/// the same events through its own synchronization API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncOp {
    /// `pthread_mutex_lock` — begins a critical section.
    LockAcquire(LockId),
    /// A gcc/g++-style atomic read-modify-write operation.
    Atomic(AtomicId),
    /// `pthread_barrier_wait`.
    BarrierWait(BarrierId),
    /// Push into a runtime-managed lock-protected FIFO (producer side of the
    /// paper's pipeline programs).
    ChanPush(ChannelId),
    /// Pop from a runtime-managed FIFO; blocks (deterministically re-polls)
    /// while empty — the conditional wait-signaling of `§3.2`.
    ChanPop(ChannelId),
}

impl SyncOp {
    /// The dependence alias this operation contributes (`§3.4`).
    pub fn resource(&self) -> ResourceId {
        match *self {
            SyncOp::LockAcquire(l) => ResourceId::Lock(l),
            SyncOp::Atomic(a) => ResourceId::Atomic(a),
            SyncOp::BarrierWait(b) => ResourceId::Barrier(b),
            SyncOp::ChanPush(c) | SyncOp::ChanPop(c) => ResourceId::Channel(c),
        }
    }
}

impl fmt::Display for SyncOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncOp::LockAcquire(l) => write!(f, "lock({l})"),
            SyncOp::Atomic(a) => write!(f, "atomic({a})"),
            SyncOp::BarrierWait(b) => write!(f, "barrier({b})"),
            SyncOp::ChanPush(c) => write!(f, "push({c})"),
            SyncOp::ChanPop(c) => write!(f, "pop({c})"),
        }
    }
}

/// Why a sub-thread begins where it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubThreadKind {
    /// The first sub-thread of the program ("the start of the program
    /// initiates the first sub-thread").
    Initial,
    /// First sub-thread of a newly forked thread.
    ForkChild,
    /// Continuation of a parent thread after it forked a child.
    ForkContinuation,
    /// Continuation after a join.
    JoinContinuation,
    /// Begins at a critical-section entry (and, by the subsumption
    /// optimization, extends past the unlock until the next boundary).
    CriticalSection,
    /// Begins at an atomic operation.
    AtomicOp,
    /// Continuation after a barrier.
    BarrierContinuation,
    /// Begins at a FIFO access (pipeline communication point).
    ChannelAccess,
    /// A user-delimited conventional-CPR region (`start_cpr`/`end_cpr`,
    /// `§3.4` hybrid recovery); executes as a single sub-thread.
    CprRegion,
    /// A function with unknown mod set, executed strictly serialized
    /// (`§3.2`, "Third Party, I/O, and OS Functions").
    Serialized,
}

impl SubThreadKind {
    /// A stable small integer identifying this kind, used by telemetry's
    /// retired-order hash. Values are part of the digest definition: do not
    /// renumber existing variants.
    pub fn tag(self) -> u8 {
        match self {
            SubThreadKind::Initial => 0,
            SubThreadKind::ForkChild => 1,
            SubThreadKind::ForkContinuation => 2,
            SubThreadKind::JoinContinuation => 3,
            SubThreadKind::CriticalSection => 4,
            SubThreadKind::AtomicOp => 5,
            SubThreadKind::BarrierContinuation => 6,
            SubThreadKind::ChannelAccess => 7,
            SubThreadKind::CprRegion => 8,
            SubThreadKind::Serialized => 9,
        }
    }
}

/// Immutable descriptor of one dynamic sub-thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubThread {
    /// Position in the deterministic total order.
    pub id: SubThreadId,
    /// The logical thread this sub-thread is a fragment of.
    pub thread: ThreadId,
    /// Scheduling group of that thread.
    pub group: GroupId,
    /// Why this sub-thread begins where it does.
    pub kind: SubThreadKind,
    /// The synchronization event at which the sub-thread begins, if any.
    pub opening_op: Option<SyncOp>,
}

impl SubThread {
    /// Creates a descriptor.
    pub fn new(
        id: SubThreadId,
        thread: ThreadId,
        group: GroupId,
        kind: SubThreadKind,
        opening_op: Option<SyncOp>,
    ) -> Self {
        SubThread {
            id,
            thread,
            group,
            kind,
            opening_op,
        }
    }
}

impl fmt::Display for SubThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of {} ({:?})", self.id, self.thread, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock(n: u64) -> SyncOp {
        SyncOp::LockAcquire(LockId::new(n))
    }

    #[test]
    fn sync_op_resources() {
        assert_eq!(lock(3).resource(), ResourceId::Lock(LockId::new(3)));
        assert_eq!(
            SyncOp::ChanPop(ChannelId::new(7)).resource(),
            ResourceId::Channel(ChannelId::new(7))
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(lock(2).to_string(), "lock(L2)");
        let st = SubThread::new(
            SubThreadId::new(5),
            ThreadId::new(1),
            GroupId::new(0),
            SubThreadKind::CriticalSection,
            Some(lock(2)),
        );
        assert!(st.to_string().contains("ST5"));
    }
}
