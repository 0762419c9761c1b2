//! The life of a reorder-list entry outside recovery (`§3.2`; `§3.4`,
//! "Retiring Sub-threads"), written once for both engines: a grant
//! [`open`]s the entry at the tail, the end of its body [`complete`]s it,
//! and [`Retirement::retire`] takes it off the head once it and every older
//! entry completed exception-free. Squashing it is
//! [`Recovery`](crate::recovery::Recovery). What stays in each engine is
//! its commit: what retiring one of its records makes permanent.

use crate::ids::{ResourceId, SubThreadId};
use crate::ledger::{Checkpointed, Poison, RetireFacts, RunLedger};
use crate::racecheck::AccessKind;
use crate::rol::{ReorderList, RolEntry};
use crate::subthread::SubThread;
use std::ops::RangeInclusive;

/// Opens `descriptor`'s entry at the reorder-list tail, carrying `rec`, and
/// notes the grant on `ring` with what the engine checkpointed. The reason
/// names an out-of-order grant (the entry is then not opened) or is the
/// ledger's.
pub fn open<R>(
    rol: &mut ReorderList<R>,
    ledger: &mut RunLedger,
    ring: usize,
    descriptor: SubThread,
    rec: R,
    checkpoint: Checkpointed,
) -> Poison {
    let (id, thread, kind) = (descriptor.id, descriptor.thread, descriptor.kind);
    if let Err(e) = rol.insert_with(descriptor, rec) {
        return Some(format!("reorder list refused a grant: {e}"));
    }
    ledger.granted(ring, id, thread, kind, checkpoint)
}

/// Marks entry `id` completed exception-free; the reason names an id that
/// is no longer in the reorder list.
pub fn complete<R>(rol: &mut ReorderList<R>, id: SubThreadId) -> Poison {
    let missing = rol.mark_completed(id).is_err();
    missing.then(|| format!("sub-thread {id} completed after it left the reorder list"))
}

/// What one retirement took off the head: a contiguous run of the list,
/// so every other id in `ids` had already left it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The oldest and the youngest retired id.
    pub ids: RangeInclusive<SubThreadId>,
    /// How many entries retired.
    pub len: usize,
}

/// The retire step, keeping the race detector's plain-access buffer for
/// engines whose records do not hold their accesses.
#[derive(Debug, Default)]
pub struct Retirement {
    accesses: Vec<(ResourceId, AccessKind)>,
}

impl Retirement {
    /// Retires the completed head run, oldest first. Each entry is folded
    /// into the ledger — the retired count and hash, the durable `Retire`
    /// line and resumed-prefix check, telemetry on the ring `ring` names
    /// for its record, and the race detector with the `facts` the engine
    /// reads off the record (into the kept buffer, if it has to build
    /// them) — and then handed to the engine's `commit`. Returns the
    /// batch, if anything retired, and the first reason the ledger or the
    /// commit gave. Notes the reorder list's high-water mark either way.
    pub fn retire<R>(
        &mut self,
        rol: &mut ReorderList<R>,
        ledger: &mut RunLedger,
        ring: impl Fn(&R) -> usize,
        mut facts: impl for<'e> FnMut(
            &'e R,
            &'e mut Vec<(ResourceId, AccessKind)>,
        ) -> RetireFacts<'e>,
        mut commit: impl FnMut(RolEntry<R>) -> Poison,
    ) -> (Option<Batch>, Poison) {
        let first = rol.head().map(|e| e.id());
        let (mut last, mut len, mut poison) = (None, 0, None);
        while let Ok(entry) = rol.retire_head() {
            (last, len) = (Some(entry.id()), len + 1);
            let facts = ledger.racecheck().then(|| {
                self.accesses.clear();
                facts(&entry.rec, &mut self.accesses)
            });
            let reason = ledger.retired(ring(&entry.rec), &entry, facts);
            poison = poison.or(reason);
            let reason = commit(entry);
            poison = poison.or(reason);
        }
        ledger.rol_peak(rol.peak_occupancy());
        let ids = first.zip(last).map(|(first, last)| first..=last);
        (ids.map(|ids| Batch { ids, len }), poison)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GroupId, LockId, ThreadId};
    use crate::subthread::{SubThreadKind, SyncOp};
    use gprs_telemetry::{RetiredOrderHash, TelemetryConfig};

    fn st(id: u64, thread: u32) -> SubThread {
        SubThread::new(
            SubThreadId::new(id),
            ThreadId::new(thread),
            GroupId::new(0),
            SubThreadKind::CriticalSection,
            Some(SyncOp::LockAcquire(LockId::new(id))),
        )
    }

    fn ledger() -> RunLedger {
        RunLedger::new(&TelemetryConfig::default(), 1, 0, false)
    }

    /// ST0..ST4 on threads 0, 1, 0, 2, 1, each carrying its id.
    fn opened(ledger: &mut RunLedger) -> ReorderList<u64> {
        let mut rol = ReorderList::default();
        for (id, thread) in [(0, 0), (1, 1), (2, 0), (3, 2), (4, 1)] {
            assert_eq!(open(&mut rol, ledger, 0, st(id, thread), id, Checkpointed::Opaque), None);
        }
        rol
    }

    fn no_facts<'e, R>(_: &'e R, acc: &'e mut Vec<(ResourceId, AccessKind)>) -> RetireFacts<'e> {
        RetireFacts { open: None, accesses: acc, arrival: None }
    }

    #[test]
    fn retire_hands_over_the_completed_head_run_oldest_first_and_stops_at_the_first_open_entry() {
        let mut ledger = ledger();
        let mut rol = opened(&mut ledger);
        let mut retirement = Retirement::default();
        for id in [0, 1, 3, 4] {
            assert_eq!(complete(&mut rol, SubThreadId::new(id)), None);
        }
        let mut committed = Vec::new();
        let commit = |e: RolEntry<u64>| {
            committed.push((e.id().raw(), e.rec));
            None
        };
        let (batch, poison) = retirement.retire(&mut rol, &mut ledger, |_| 0, no_facts, commit);
        assert_eq!(poison, None);
        let ids = SubThreadId::new(0)..=SubThreadId::new(1);
        assert_eq!(batch, Some(Batch { ids, len: 2 }));
        assert_eq!(committed, [(0, 0), (1, 1)], "ST2 has not completed: ST3 and ST4 wait");
        assert_eq!(rol.iter().map(|e| e.id().raw()).collect::<Vec<_>>(), [2, 3, 4]);
        // Nothing completed at the head: nothing retires, the peak is noted.
        let (batch, _) = retirement.retire(&mut rol, &mut ledger, |_| 0, no_facts, |_| None);
        assert_eq!(batch, None);
        committed.clear();
        assert_eq!(complete(&mut rol, SubThreadId::new(2)), None);
        let commit = |e: RolEntry<u64>| {
            committed.push((e.id().raw(), e.rec));
            None
        };
        let (batch, _) = retirement.retire(&mut rol, &mut ledger, |_| 0, no_facts, commit);
        let ids = SubThreadId::new(2)..=SubThreadId::new(4);
        assert_eq!(batch, Some(Batch { ids, len: 3 }));
        assert_eq!(committed, [(2, 2), (3, 3), (4, 4)]);
        assert!(rol.is_empty());
        let summary = ledger.summarize();
        assert_eq!(summary.counter("grants"), 5);
        assert_eq!(summary.counter("retired"), 5);
        assert_eq!(summary.counter("rol_occupancy_hw"), 5);
    }

    #[test]
    fn the_ledger_folds_exactly_the_retired_entries_in_order() {
        let mut ledger = ledger();
        let mut rol = opened(&mut ledger);
        let mut retirement = Retirement::default();
        for id in [0, 1, 2, 4] {
            assert_eq!(complete(&mut rol, SubThreadId::new(id)), None);
        }
        retirement.retire(&mut rol, &mut ledger, |_| 0, no_facts, |_| None);
        // Folded by hand: ST0 (thread 0), ST1 (thread 1), ST2 (thread 0).
        let mut by_hand = RetiredOrderHash::seeded(0);
        let tag = SubThreadKind::CriticalSection.tag();
        for thread in [0, 1, 0] {
            by_hand.record(thread, tag);
        }
        assert_eq!(ledger.digests().1, by_hand.digest());
        assert_eq!(ledger.summarize().counter("retired"), 3);
    }

    #[test]
    fn the_first_reason_of_a_batch_stands_and_every_entry_still_commits() {
        let mut ledger = ledger();
        let mut rol = opened(&mut ledger);
        let mut retirement = Retirement::default();
        for id in 0..5 {
            assert_eq!(complete(&mut rol, SubThreadId::new(id)), None);
        }
        let mut committed = 0;
        let commit = |e: RolEntry<u64>| {
            committed += 1;
            (e.rec % 2 == 1).then(|| format!("commit of ST{} failed", e.rec))
        };
        let (batch, poison) = retirement.retire(&mut rol, &mut ledger, |_| 0, no_facts, commit);
        assert_eq!(batch.map(|b| b.len), Some(5));
        assert_eq!(committed, 5);
        assert_eq!(poison.as_deref(), Some("commit of ST1 failed"));
    }

    #[test]
    fn the_race_detector_reads_the_facts_the_engine_builds_in_the_kept_buffer() {
        use crate::ids::AtomicId;
        let mut ledger = RunLedger::new(&TelemetryConfig::default(), 1, 0, true);
        let mut rol = ReorderList::default();
        let mut retirement = Retirement::default();
        // Two threads write one cell with no synchronization between them.
        for (id, thread) in [(0, 0), (1, 1)] {
            let initial = SubThread::new(
                SubThreadId::new(id),
                ThreadId::new(thread),
                GroupId::new(0),
                SubThreadKind::Initial,
                None,
            );
            assert_eq!(open(&mut rol, &mut ledger, 0, initial, id, Checkpointed::Opaque), None);
            assert_eq!(complete(&mut rol, SubThreadId::new(id)), None);
        }
        let cell = ResourceId::Atomic(AtomicId::new(7));
        let mut built = 0;
        retirement.retire(
            &mut rol,
            &mut ledger,
            |_| 0,
            |_, acc| {
                assert!(acc.is_empty(), "the kept buffer starts every entry empty");
                built += 1;
                acc.push((cell, AccessKind::Write));
                RetireFacts { open: None, accesses: acc, arrival: None }
            },
            |_| None,
        );
        assert_eq!(built, 2);
        assert_eq!(ledger.races().0, 1);
    }

    #[test]
    fn an_out_of_order_open_is_a_named_reason_and_opens_nothing() {
        let mut ledger = ledger();
        let mut rol = opened(&mut ledger);
        let reason = open(&mut rol, &mut ledger, 0, st(2, 0), 99, Checkpointed::Opaque);
        let named = "reorder list refused a grant: sub-thread ST2 inserted out of order \
                     (newest is ST4)";
        assert_eq!(reason.as_deref(), Some(named));
        assert_eq!(rol.len(), 5);
        assert_eq!(rol.get(SubThreadId::new(2)).map(|e| e.rec), Some(2));
        assert_eq!(ledger.summarize().counter("grants"), 5, "a refused grant is not noted");
    }

    #[test]
    fn completing_an_id_no_longer_in_the_list_is_a_named_reason() {
        let mut ledger = ledger();
        let mut rol = opened(&mut ledger);
        let mut retirement = Retirement::default();
        assert_eq!(complete(&mut rol, SubThreadId::new(0)), None);
        retirement.retire(&mut rol, &mut ledger, |_| 0, no_facts, |_| None);
        for id in [0, 42] {
            assert_eq!(
                complete(&mut rol, SubThreadId::new(id)),
                Some(format!("sub-thread ST{id} completed after it left the reorder list"))
            );
        }
        assert_eq!(rol.len(), 4);
    }
}
