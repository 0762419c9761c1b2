//! The write-ahead log protecting GPRS's *own* state (`§3.2`, "Managing the
//! Runtime State"; inspired by ARIES).
//!
//! The runtime's work queues, lock queues, allocator lists and the ROL itself
//! are mutated at very fine granularity; checkpointing them would re-create
//! the very problem GPRS solves. Instead, each runtime operation — performed
//! on behalf of some sub-thread and therefore carrying that sub-thread's
//! order — is logged with enough information to undo it. Recovery walks the
//! log in reverse and undoes the operations performed for squashed
//! sub-threads; retirement prunes the log to keep it bounded.
//!
//! The log is generic over the operation payload: the threaded runtime and
//! the simulator define their own operation vocabularies.

use crate::error::{GprsError, Result};
use crate::ids::{Lsn, SubThreadId};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::ops::RangeInclusive;

/// One log record: an operation performed on behalf of a sub-thread.
#[derive(Debug, Clone)]
pub struct WalRecord<Op> {
    /// Log sequence number (append order).
    pub lsn: Lsn,
    /// The sub-thread whose execution caused the operation; squashing it
    /// requires undoing this record.
    pub subthread: SubThreadId,
    /// The logged operation (must describe its own undo).
    pub op: Op,
    checksum: u64,
}

/// The integrity fold: one multiply-mix round per word the op hashes, so a
/// record's checksum costs a few nanoseconds and is computed inline at
/// append. It detects damage to a retained record (a flipped field, a
/// record filed under the wrong LSN or sub-thread); it is not a defence
/// against crafted collisions, which a log the process writes for itself
/// does not face.
struct Fold(u64);

impl Fold {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::MUL).rotate_left(29);
    }
}

impl Hasher for Fold {
    fn finish(&self) -> u64 {
        // Final avalanche, so the low-entropy last word reaches every bit.
        let h = self.0;
        (h ^ (h >> 32)).wrapping_mul(Self::MUL)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

impl<Op: Hash> WalRecord<Op> {
    /// The integrity checksum of a record with the given fields: a fold
    /// over `(lsn, subthread, op)` through `Op`'s [`Hash`] — no formatting,
    /// no heap allocation.
    pub fn checksum_of(lsn: Lsn, subthread: SubThreadId, op: &Op) -> u64 {
        let mut h = Fold(Fold::SEED);
        h.word(lsn.raw());
        h.word(subthread.raw());
        op.hash(&mut h);
        h.finish()
    }

    /// Whether the record's integrity check passes.
    pub fn is_intact(&self) -> bool {
        Self::checksum_of(self.lsn, self.subthread, &self.op) == self.checksum
    }
}

/// An append-only, prunable write-ahead log on emulated stable storage.
///
/// # Examples
/// ```
/// use gprs_core::wal::WriteAheadLog;
/// use gprs_core::ids::SubThreadId;
///
/// #[derive(Debug, Clone, PartialEq, Hash)]
/// enum Op { Enqueue(u32), Dequeue(u32) }
///
/// let mut wal = WriteAheadLog::new();
/// wal.append(SubThreadId::new(0), Op::Enqueue(7));
/// wal.append(SubThreadId::new(1), Op::Dequeue(7));
/// // Squash ST1: its operations come back newest-first for undoing.
/// let mut squashed = std::collections::BTreeSet::new();
/// squashed.insert(SubThreadId::new(1));
/// let undo: Vec<_> = wal.take_undo_records(&squashed).into_iter().map(|r| r.op).collect();
/// assert_eq!(undo, [Op::Dequeue(7)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog<Op> {
    records: VecDeque<WalRecord<Op>>,
    next_lsn: Lsn,
    appended: u64,
    pruned: u64,
}

impl<Op: Clone + Debug + Hash + Send> WriteAheadLog<Op> {
    /// Creates an empty log.
    pub fn new() -> Self {
        WriteAheadLog {
            records: VecDeque::new(),
            next_lsn: Lsn::new(0),
            appended: 0,
            pruned: 0,
        }
    }

    /// Appends an operation performed on behalf of `subthread`, returning
    /// the record's sequence number.
    ///
    /// Write-ahead discipline: callers must append *before* mutating the
    /// structure the operation describes.
    pub fn append(&mut self, subthread: SubThreadId, op: Op) -> Lsn {
        let lsn = self.next_lsn;
        let checksum = WalRecord::checksum_of(lsn, subthread, &op);
        self.records.push_back(WalRecord {
            lsn,
            subthread,
            op,
            checksum,
        });
        self.next_lsn = self.next_lsn.next();
        self.appended += 1;
        lsn
    }

    /// Removes the records of the squashed sub-threads, returning them
    /// newest-first — the reverse undo walk of `§3.4`.
    pub fn take_undo_records(&mut self, squashed: &BTreeSet<SubThreadId>) -> Vec<WalRecord<Op>> {
        let mut taken = Vec::new();
        self.take_undo_into(|s| squashed.contains(&s), &mut taken);
        taken
    }

    /// [`Self::take_undo_records`] for the sub-threads `squashed` accepts,
    /// appended newest-first to `taken`: the log compacts in place, so a
    /// caller that keeps `taken` between recoveries undoes without
    /// allocating.
    pub fn take_undo_into(
        &mut self,
        squashed: impl Fn(SubThreadId) -> bool,
        taken: &mut Vec<WalRecord<Op>>,
    ) {
        // A stable partition by swaps: kept records slide to the front in
        // order, the squashed ones gather behind them.
        let mut kept = 0;
        for ix in 0..self.records.len() {
            if !squashed(self.records[ix].subthread) {
                self.records.swap(kept, ix);
                kept += 1;
            }
        }
        let first = taken.len();
        taken.extend(self.records.drain(kept..));
        taken[first..].sort_unstable_by_key(|r| std::cmp::Reverse(r.lsn));
    }

    /// Prunes the records of a retired sub-thread ("the logs are pruned as
    /// the sub-threads retire to keep their sizes bounded"). Returns the
    /// number of records removed.
    pub fn prune_retired(&mut self, subthread: SubThreadId) -> u64 {
        let before = self.records.len();
        self.records.retain(|r| r.subthread != subthread);
        let removed = (before - self.records.len()) as u64;
        self.pruned += removed;
        removed
    }

    /// Prunes the records of a whole run of retired sub-threads in one
    /// pass — batched retirement's amortization of the per-sub-thread
    /// `retain` scan. The run is given as the id range of the retiring ROL
    /// prefix: retirement pops a contiguous prefix of the reorder list and
    /// every other id inside that range already left the log (squashed ids
    /// had their records taken for undo), so range membership equals
    /// membership in the retiring set. Returns the number of records
    /// removed.
    pub fn prune_retired_batch(&mut self, retired: RangeInclusive<SubThreadId>) -> u64 {
        let before = self.records.len();
        self.records.retain(|r| !retired.contains(&r.subthread));
        let removed = (before - self.records.len()) as u64;
        self.pruned += removed;
        removed
    }

    /// Verifies the integrity of every retained record.
    ///
    /// # Errors
    /// Returns [`GprsError::WalCorruption`] naming the first corrupt record.
    pub fn verify(&self) -> Result<()> {
        for r in &self.records {
            if !r.is_intact() {
                return Err(GprsError::WalCorruption { lsn: r.lsn });
            }
        }
        Ok(())
    }

    /// Deliberately corrupts a record's payload hash — fault injection for
    /// testing the runtime's self-recovery path (`§3.2`: GPRS "can handle
    /// exceptions … as well as itself").
    ///
    /// Returns `true` if the record existed.
    pub fn corrupt_for_testing(&mut self, lsn: Lsn) -> bool {
        for r in self.records.iter_mut() {
            if r.lsn == lsn {
                r.checksum ^= 0xdead_beef;
                return true;
            }
        }
        false
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &WalRecord<Op>> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records ever appended.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Total records pruned by retirement.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum TestOp {
        Push(u32),
        Pop(u32),
        Alloc(u32),
    }

    fn set(ids: &[u64]) -> BTreeSet<SubThreadId> {
        ids.iter().copied().map(SubThreadId::new).collect()
    }

    #[test]
    fn lsns_are_contiguous_and_monotone() {
        let mut wal = WriteAheadLog::new();
        let a = wal.append(SubThreadId::new(0), TestOp::Push(1));
        let b = wal.append(SubThreadId::new(0), TestOp::Pop(1));
        assert_eq!(a, Lsn::new(0));
        assert_eq!(b, Lsn::new(1));
        assert_eq!(wal.append(SubThreadId::new(1), TestOp::Push(2)), Lsn::new(2));
    }

    #[test]
    fn undo_walk_is_newest_first_and_filtered() {
        let mut wal = WriteAheadLog::new();
        wal.append(SubThreadId::new(0), TestOp::Push(1));
        wal.append(SubThreadId::new(1), TestOp::Push(2));
        wal.append(SubThreadId::new(1), TestOp::Alloc(3));
        wal.append(SubThreadId::new(2), TestOp::Push(4));
        let ops: Vec<_> = wal.take_undo_records(&set(&[1])).into_iter().map(|r| r.op).collect();
        assert_eq!(ops, [TestOp::Alloc(3), TestOp::Push(2)]);
        assert_eq!(wal.len(), 2, "the other sub-threads' records stay");
    }

    #[test]
    fn take_undo_into_appends_newest_first_and_keeps_the_rest_in_order() {
        let mut wal = WriteAheadLog::new();
        for i in 0..9u64 {
            wal.append(SubThreadId::new(i % 3), TestOp::Push(i as u32));
        }
        let mut taken = Vec::with_capacity(8);
        let buf = taken.as_ptr();
        wal.take_undo_into(|s| s.raw() != 1, &mut taken);
        let ops: Vec<_> = taken.iter().map(|r| r.op.clone()).collect();
        let want = [8, 6, 5, 3, 2, 0].map(TestOp::Push);
        assert_eq!(ops, want, "both squashed sub-threads, newest first");
        assert_eq!(taken.as_ptr(), buf, "the caller's buffer is reused");
        let kept: Vec<_> = wal.iter().map(|r| r.lsn.raw()).collect();
        assert_eq!(kept, [1, 4, 7], "the survivors stay in LSN order");
        wal.verify().unwrap();
    }

    #[test]
    fn take_undo_records_removes_them() {
        let mut wal = WriteAheadLog::new();
        wal.append(SubThreadId::new(0), TestOp::Push(1));
        wal.append(SubThreadId::new(1), TestOp::Push(2));
        let taken = wal.take_undo_records(&set(&[0]));
        assert_eq!(taken.len(), 1);
        assert_eq!(wal.len(), 1);
        assert!(wal.iter().all(|r| r.subthread == SubThreadId::new(1)));
    }

    #[test]
    fn prune_keeps_log_bounded() {
        let mut wal = WriteAheadLog::new();
        for i in 0..100u64 {
            wal.append(SubThreadId::new(i % 4), TestOp::Push(i as u32));
        }
        for i in 0..4u64 {
            wal.prune_retired(SubThreadId::new(i));
        }
        assert!(wal.is_empty());
        assert_eq!(wal.appended(), 100);
        assert_eq!(wal.pruned(), 100);
    }

    #[test]
    fn verify_detects_corruption() {
        let mut wal = WriteAheadLog::new();
        let lsn = wal.append(SubThreadId::new(0), TestOp::Push(1));
        wal.verify().unwrap();
        assert!(wal.corrupt_for_testing(lsn));
        assert_eq!(wal.verify(), Err(GprsError::WalCorruption { lsn }));
        assert!(!wal.corrupt_for_testing(Lsn::new(99)));
    }

    #[test]
    fn records_know_their_integrity() {
        let mut wal = WriteAheadLog::new();
        wal.append(SubThreadId::new(0), TestOp::Pop(9));
        assert!(wal.iter().next().unwrap().is_intact());
    }

    #[test]
    fn checksum_covers_lsn_subthread_variant_and_field() {
        let sum = |lsn: u64, st: u64, op: &TestOp| {
            WalRecord::checksum_of(Lsn::new(lsn), SubThreadId::new(st), op)
        };
        let base = sum(3, 5, &TestOp::Push(7));
        assert_eq!(base, sum(3, 5, &TestOp::Push(7)), "a pure function of the fields");
        assert_ne!(base, sum(4, 5, &TestOp::Push(7)), "lsn");
        assert_ne!(base, sum(3, 6, &TestOp::Push(7)), "sub-thread");
        assert_ne!(base, sum(3, 5, &TestOp::Pop(7)), "variant");
        assert_ne!(base, sum(3, 5, &TestOp::Push(8)), "field");
        // Swapping two fields' values is damage too.
        assert_ne!(sum(3, 5, &TestOp::Push(7)), sum(5, 3, &TestOp::Push(7)));
    }

    #[test]
    fn a_record_moved_to_another_slot_fails_verification() {
        // The checksum binds the op to its LSN and sub-thread: the same op
        // appended twice gets two different checksums.
        let mut wal = WriteAheadLog::new();
        wal.append(SubThreadId::new(0), TestOp::Push(1));
        wal.append(SubThreadId::new(0), TestOp::Push(1));
        let sums: Vec<u64> = wal.iter().map(|r| r.checksum).collect();
        assert_ne!(sums[0], sums[1]);
        wal.verify().unwrap();
    }

    #[test]
    fn batch_prune_matches_per_id_prunes() {
        let mut a = WriteAheadLog::new();
        let mut b = WriteAheadLog::new();
        for i in 0..40u64 {
            a.append(SubThreadId::new(i % 5), TestOp::Push(i as u32));
            b.append(SubThreadId::new(i % 5), TestOp::Push(i as u32));
        }
        let removed_a = (1..=3).map(|i| a.prune_retired(SubThreadId::new(i))).sum::<u64>();
        let removed_b = b.prune_retired_batch(SubThreadId::new(1)..=SubThreadId::new(3));
        assert_eq!(removed_a, removed_b);
        assert_eq!(a.pruned(), b.pruned());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x.lsn == y.lsn));
        assert_eq!(b.prune_retired_batch(SubThreadId::new(7)..=SubThreadId::new(9)), 0);
    }

    #[test]
    fn undo_with_no_matching_subthreads_is_empty() {
        let mut wal = WriteAheadLog::new();
        wal.append(SubThreadId::new(0), TestOp::Push(1));
        assert!(wal.take_undo_records(&set(&[5])).is_empty());
        assert_eq!(wal.len(), 1);
    }
}
