//! Write-ahead-log operations protecting the runtime's own structures
//! (`§3.2`, "Managing the Runtime State").
//!
//! Every mutation of a runtime structure — channel queues, lock table,
//! atomics, thread table, allocator — is logged *before* being applied, on
//! behalf of the sub-thread whose grant caused it. Recovery walks the
//! squashed sub-threads' records newest-first and applies the inverse of
//! each; retirement prunes them.

use crate::program::Payload;
use gprs_core::ids::{AtomicId, BarrierId, ChannelId, LockId, SubThreadId, ThreadId};
use std::fmt;
use std::hash::{Hash, Hasher};

/// One undoable runtime operation.
#[derive(Clone)]
pub(crate) enum RtOp {
    /// An item was enqueued (undo: remove that very item, identified by
    /// pointer equality, searching from the back).
    Push { chan: ChannelId, item: Payload },
    /// An item was dequeued (undo: return `item` to the queue front with
    /// its original provenance).
    Pop {
        chan: ChannelId,
        item: Payload,
        producer: Option<SubThreadId>,
    },
    /// Atomic fetch-add (undo: store `old`).
    FetchAdd { atomic: AtomicId, old: u64 },
    /// Unsynchronized store to a shared cell (undo: store `old`). Unlike
    /// `FetchAdd` this adds *no* dependence alias to the sub-thread — the
    /// data-race hazard the racecheck subsystem detects.
    PlainStore { atomic: AtomicId, old: u64 },
    /// Lock acquired (undo: mark free).
    LockAcquire { lock: LockId },
    /// Lock released (undo: mark held by `holder` again).
    LockRelease { lock: LockId, holder: SubThreadId },
    /// Thread arrived at a barrier (undo: none here — the thread's restart
    /// or un-spawn takes it off the waiting list).
    BarrierArrive { barrier: BarrierId, thread: ThreadId },
    /// A child thread was created (undo: deregister the child and hand its
    /// program back to the reinstated spawn request).
    SpawnChild { child: ThreadId },
    /// A thread exited (undo: resurrect it and discard its output).
    ThreadExit { thread: ThreadId },
    /// Pool allocation (undo: free the block).
    Alloc { block: u64 },
    /// Pool free (undo: restore the block with its former contents).
    Free { block: u64, data: Vec<u8> },
}

/// Hand-written because a [`Payload`] is an opaque shared pointer with no
/// `Debug` of its own; [`gprs_core::wal::WriteAheadLog`] asks for the bound.
impl fmt::Debug for RtOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtOp::Push { chan, .. } => write!(f, "Push({chan})"),
            RtOp::Pop { chan, producer, .. } => {
                write!(f, "Pop({chan}, producer {producer:?})")
            }
            RtOp::FetchAdd { atomic, old } => write!(f, "FetchAdd({atomic}, old {old})"),
            RtOp::PlainStore { atomic, old } => write!(f, "PlainStore({atomic}, old {old})"),
            RtOp::LockAcquire { lock } => write!(f, "LockAcquire({lock})"),
            RtOp::LockRelease { lock, holder } => write!(f, "LockRelease({lock}, by {holder})"),
            RtOp::BarrierArrive { barrier, thread } => {
                write!(f, "BarrierArrive({barrier}, {thread})")
            }
            RtOp::SpawnChild { child } => write!(f, "SpawnChild({child})"),
            RtOp::ThreadExit { thread } => write!(f, "ThreadExit({thread})"),
            RtOp::Alloc { block } => write!(f, "Alloc(#{block})"),
            RtOp::Free { block, data } => write!(f, "Free(#{block}, {} bytes)", data.len()),
        }
    }
}

/// What the WAL's integrity checksum covers: the variant and every field
/// that identifies the operation. A payload is an opaque shared pointer,
/// so it is left out, and a freed block is covered by its length.
impl Hash for RtOp {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            RtOp::Push { chan, item: _ } => chan.hash(h),
            RtOp::Pop {
                chan,
                item: _,
                producer,
            } => (chan, producer).hash(h),
            RtOp::FetchAdd { atomic, old } | RtOp::PlainStore { atomic, old } => {
                (atomic, old).hash(h)
            }
            RtOp::LockAcquire { lock } => lock.hash(h),
            RtOp::LockRelease { lock, holder } => (lock, holder).hash(h),
            RtOp::BarrierArrive { barrier, thread } => (barrier, thread).hash(h),
            RtOp::SpawnChild { child: thread } | RtOp::ThreadExit { thread } => thread.hash(h),
            RtOp::Alloc { block } => block.hash(h),
            RtOp::Free { block, data } => (block, data.len()).hash(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_core::ids::Lsn;
    use gprs_core::wal::{WalRecord, WriteAheadLog};
    use std::sync::Arc;

    fn sum(lsn: u64, st: u64, op: &RtOp) -> u64 {
        WalRecord::checksum_of(Lsn::new(lsn), SubThreadId::new(st), op)
    }

    /// Every variant twice: a base value, then one value per field with
    /// only that field changed.
    fn variants() -> Vec<(RtOp, Vec<RtOp>)> {
        let item: Payload = Arc::new(0u8);
        let (c, a, l, b, t, s) = (
            ChannelId::new,
            AtomicId::new,
            LockId::new,
            BarrierId::new,
            ThreadId::new,
            SubThreadId::new,
        );
        let push = |chan| RtOp::Push {
            chan,
            item: item.clone(),
        };
        let pop = |chan, producer| RtOp::Pop {
            chan,
            item: item.clone(),
            producer,
        };
        vec![
            (push(c(1)), vec![push(c(2))]),
            (
                pop(c(1), Some(s(4))),
                vec![pop(c(2), Some(s(4))), pop(c(1), Some(s(5))), pop(c(1), None)],
            ),
            (
                RtOp::FetchAdd { atomic: a(1), old: 7 },
                vec![
                    RtOp::FetchAdd { atomic: a(2), old: 7 },
                    RtOp::FetchAdd { atomic: a(1), old: 8 },
                ],
            ),
            (
                RtOp::PlainStore { atomic: a(1), old: 7 },
                vec![
                    RtOp::PlainStore { atomic: a(2), old: 7 },
                    RtOp::PlainStore { atomic: a(1), old: 8 },
                ],
            ),
            (
                RtOp::LockAcquire { lock: l(1) },
                vec![RtOp::LockAcquire { lock: l(2) }],
            ),
            (
                RtOp::LockRelease { lock: l(1), holder: s(3) },
                vec![
                    RtOp::LockRelease { lock: l(2), holder: s(3) },
                    RtOp::LockRelease { lock: l(1), holder: s(4) },
                ],
            ),
            (
                RtOp::BarrierArrive { barrier: b(1), thread: t(2) },
                vec![
                    RtOp::BarrierArrive { barrier: b(2), thread: t(2) },
                    RtOp::BarrierArrive { barrier: b(1), thread: t(3) },
                ],
            ),
            (
                RtOp::SpawnChild { child: t(1) },
                vec![RtOp::SpawnChild { child: t(2) }],
            ),
            (
                RtOp::ThreadExit { thread: t(1) },
                vec![RtOp::ThreadExit { thread: t(2) }],
            ),
            (RtOp::Alloc { block: 1 }, vec![RtOp::Alloc { block: 2 }]),
            (
                RtOp::Free { block: 1, data: vec![0; 4] },
                vec![
                    RtOp::Free { block: 2, data: vec![0; 4] },
                    RtOp::Free { block: 1, data: vec![0; 5] },
                ],
            ),
        ]
    }

    #[test]
    fn checksum_moves_with_lsn_subthread_variant_and_every_field() {
        let all = variants();
        for (base, changed) in &all {
            let want = sum(3, 5, base);
            assert_eq!(want, sum(3, 5, &base.clone()), "{base:?}: pure function");
            assert_ne!(want, sum(4, 5, base), "{base:?}: lsn");
            assert_ne!(want, sum(3, 6, base), "{base:?}: sub-thread");
            for other in changed {
                assert_ne!(want, sum(3, 5, other), "{base:?} vs {other:?}");
            }
        }
        // Variants whose fields coincide still differ by the variant.
        let sums: std::collections::BTreeSet<u64> =
            all.iter().map(|(base, _)| sum(3, 5, base)).collect();
        assert_eq!(sums.len(), all.len(), "one checksum per variant");
    }

    #[test]
    fn a_damaged_record_is_named_by_verify() {
        let mut wal = WriteAheadLog::new();
        for (i, (op, _)) in variants().into_iter().enumerate() {
            wal.append(SubThreadId::new(i as u64), op);
        }
        wal.verify().expect("fresh records are intact");
        assert!(wal.corrupt_for_testing(Lsn::new(6)));
        assert_eq!(
            wal.verify(),
            Err(gprs_core::error::GprsError::WalCorruption { lsn: Lsn::new(6) })
        );
    }
}
