//! Write-ahead-log operations protecting the runtime's own structures
//! (`§3.2`, "Managing the Runtime State").
//!
//! Every mutation of a runtime structure — the resource table (channel
//! queues, locks, cells, allocator, exit values) and the thread table — is
//! logged as its inverse under the engine lock that applies it, on behalf
//! of the sub-thread whose grant or step caused it. Recovery walks the
//! squashed sub-threads' records newest-first and applies each inverse;
//! retirement prunes them.

use crate::handles::Recoverable;
use crate::program::Payload;
use gprs_core::ids::{BarrierId, ThreadId};
use gprs_core::resources::{Got, Inverse, Op, Resources};
use std::hash::{Hash, Hasher};

/// Both executors' resource table: channel items are payloads, lock data
/// is a recoverable box.
pub(crate) type Res = Resources<Payload, LockData>;
/// An op on [`Res`], what it hands the step, and its inverse.
pub(crate) type ResOp = Op<Payload, LockData>;
pub(crate) type ResGot = Got<Payload, LockData>;
pub(crate) type ResInverse = Inverse<Payload, LockData>;

/// A lock's data in the table, copied with the table (a CPR checkpoint, a
/// sharded run's domain tables).
pub(crate) struct LockData(pub Box<dyn Recoverable>);

impl Clone for LockData {
    fn clone(&self) -> Self {
        LockData(self.0.clone_box())
    }
}

/// Lock data is opaque.
impl std::fmt::Debug for LockData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LockData")
    }
}

/// One undoable runtime operation.
#[derive(Clone, Debug)]
pub(crate) enum RtOp {
    /// A resource-table op: a push, pop, acquire, release, fetch-add, plain
    /// store, allocation, free or exit (undo: apply its inverse).
    Res(ResInverse),
    /// Thread arrived at a barrier (undo: none here — the thread's restart
    /// or un-spawn takes it off the waiting list).
    BarrierArrive { barrier: BarrierId, thread: ThreadId },
    /// A child thread was created (undo: deregister the child and hand its
    /// program back to the reinstated spawn request).
    SpawnChild { child: ThreadId },
}

/// What the WAL's integrity checksum covers: the variant and every field
/// that identifies the operation (a table inverse leaves its payloads out).
impl Hash for RtOp {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            RtOp::Res(inverse) => inverse.hash(h),
            RtOp::BarrierArrive { barrier, thread } => (barrier, thread).hash(h),
            RtOp::SpawnChild { child } => child.hash(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_core::ids::{AtomicId, ChannelId, LockId, Lsn, SubThreadId};
    use gprs_core::wal::{WalRecord, WriteAheadLog};
    use std::sync::Arc;

    fn sum(lsn: u64, st: u64, op: &RtOp) -> u64 {
        WalRecord::checksum_of(Lsn::new(lsn), SubThreadId::new(st), op)
    }

    /// Every variant twice: a base value, then one value per field with
    /// only that field changed.
    fn variants() -> Vec<(RtOp, Vec<RtOp>)> {
        let item: Payload = Arc::new(0u8);
        let data = || LockData(Box::new(0u8));
        let (c, a, l, b, t, s) = (
            ChannelId::new,
            AtomicId::new,
            LockId::new,
            BarrierId::new,
            ThreadId::new,
            SubThreadId::new,
        );
        let res = RtOp::Res;
        let unpop = |chan, by| res(Inverse::Unpop(chan, item.clone(), by));
        vec![
            (
                res(Inverse::Unpush(c(1), Some(s(4)))),
                vec![res(Inverse::Unpush(c(2), Some(s(4)))), res(Inverse::Unpush(c(1), None))],
            ),
            (
                unpop(c(1), Some(s(4))),
                vec![unpop(c(2), Some(s(4))), unpop(c(1), Some(s(5))), unpop(c(1), None)],
            ),
            (res(Inverse::Unacquire(l(1))), vec![res(Inverse::Unacquire(l(2)))]),
            (
                res(Inverse::Unrelease(l(1), Some(s(3)))),
                vec![
                    res(Inverse::Unrelease(l(2), Some(s(3)))),
                    res(Inverse::Unrelease(l(1), Some(s(4)))),
                ],
            ),
            (
                res(Inverse::Restore(a(1), 7)),
                vec![res(Inverse::Restore(a(2), 7)), res(Inverse::Restore(a(1), 8))],
            ),
            (res(Inverse::Unalloc(1)), vec![res(Inverse::Unalloc(2))]),
            (
                res(Inverse::Unfree(1, vec![0; 4])),
                vec![res(Inverse::Unfree(2, vec![0; 4])), res(Inverse::Unfree(1, vec![0; 5]))],
            ),
            (
                res(Inverse::Unwrite(1, vec![0; 4])),
                vec![res(Inverse::Unwrite(2, vec![0; 4])), res(Inverse::Unwrite(1, vec![0; 5]))],
            ),
            (res(Inverse::Unexit(t(1))), vec![res(Inverse::Unexit(t(2)))]),
            (res(Inverse::Relock(l(1), data())), vec![res(Inverse::Relock(l(2), data()))]),
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
