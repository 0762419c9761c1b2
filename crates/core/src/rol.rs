//! The reorder list (ROL) — GPRS's analogue of a superscalar reorder buffer
//! (`§3.2`, "Managing the Program State"; `§3.4`, "Retiring Sub-threads").
//!
//! Every in-flight sub-thread owns an entry, inserted in deterministic total
//! order. A sub-thread retires only from the head, and only once it has
//! completed exception-free — at that point its checkpointed state and WAL
//! records can be pruned, bounding recovery-state size. The REX monitors the
//! ROL to detect excepted entries and to compute recovery plans.
//!
//! Like a reorder-buffer slot, an entry also carries what retiring or
//! squashing its sub-thread needs: the engine's own per-sub-thread record
//! `R` (`()` when the engine keeps nothing). Retirement commits what the
//! retiring entry carries and a squash drops what the squashed entries
//! carry, so no side table keyed by sub-thread id has to be searched or
//! cleaned.

use crate::error::{GprsError, Result};
use crate::exception::Exception;
use crate::ids::{LockId, ResourceId, SubThreadId, ThreadId};
use crate::subthread::SubThread;
use std::collections::VecDeque;
use std::fmt;

/// Execution status of an in-flight sub-thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubThreadStatus {
    /// Ordered and (possibly) executing.
    InFlight,
    /// Finished without exception; waiting to reach the head to retire.
    Completed,
    /// An exception was attributed to this sub-thread.
    Excepted,
    /// Squashed by a recovery plan; awaiting re-execution.
    Squashed,
}

impl fmt::Display for SubThreadStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SubThreadStatus::InFlight => "in-flight",
            SubThreadStatus::Completed => "completed",
            SubThreadStatus::Excepted => "excepted",
            SubThreadStatus::Squashed => "squashed",
        };
        f.write_str(s)
    }
}

/// A sub-thread's dependence aliases: a sorted set that holds up to
/// [`ResourceSet::INLINE`] ids inside the ROL entry and moves to the heap
/// beyond that. Almost every sub-thread touches one resource (its opening
/// lock, atomic or channel) and a nested acquisition adds one or two, so
/// opening a sub-thread allocates nothing. Iteration is in ascending id
/// order, which keeps everything derived from it (recovery plans, race
/// reports) deterministic.
#[derive(Clone)]
pub struct ResourceSet {
    len: usize,
    inline: [ResourceId; Self::INLINE],
    /// All members once `len > INLINE` (then `inline` is stale).
    spill: Vec<ResourceId>,
}

impl ResourceSet {
    /// Members held without a heap allocation.
    pub const INLINE: usize = 4;

    /// An empty set.
    pub fn new() -> Self {
        ResourceSet {
            len: 0,
            inline: [ResourceId::Lock(LockId::new(0)); Self::INLINE],
            spill: Vec::new(),
        }
    }

    /// The members, ascending.
    pub fn as_slice(&self) -> &[ResourceId] {
        if self.len <= Self::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Adds a member; `false` if it was already present.
    pub fn insert(&mut self, r: ResourceId) -> bool {
        let Err(at) = self.as_slice().binary_search(&r) else {
            return false;
        };
        if self.len < Self::INLINE {
            self.inline.copy_within(at..self.len, at + 1);
            self.inline[at] = r;
        } else {
            if self.len == Self::INLINE {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.insert(at, r);
        }
        self.len += 1;
        true
    }

    /// Whether `r` is a member.
    pub fn contains(&self, r: &ResourceId) -> bool {
        self.as_slice().binary_search(r).is_ok()
    }

    /// Removes every member (a spilled set keeps its heap capacity).
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Iterates the members, ascending.
    pub fn iter(&self) -> std::slice::Iter<'_, ResourceId> {
        self.as_slice().iter()
    }
}

impl Default for ResourceSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for ResourceSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for ResourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a ResourceSet {
    type Item = &'a ResourceId;
    type IntoIter = std::slice::Iter<'a, ResourceId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One reorder-list entry, carrying the engine's record `R` for its
/// sub-thread.
#[derive(Debug, Clone, PartialEq)]
pub struct RolEntry<R = ()> {
    /// The sub-thread this entry tracks.
    pub descriptor: SubThread,
    /// Current status.
    pub status: SubThreadStatus,
    /// Dependence aliases accumulated during execution: every lock acquired
    /// and atomic/channel/barrier touched (`§3.4`, selective restart).
    pub resources: ResourceSet,
    /// The exception attributed to this sub-thread, if any.
    pub exception: Option<Exception>,
    /// What the engine keeps for this sub-thread until it retires or is
    /// squashed.
    pub rec: R,
}

impl<R> RolEntry<R> {
    fn new(descriptor: SubThread, rec: R) -> Self {
        let mut resources = ResourceSet::new();
        if let Some(r) = descriptor.opening_op.map(|op| op.resource()) {
            resources.insert(r);
        }
        RolEntry {
            descriptor,
            status: SubThreadStatus::InFlight,
            resources,
            exception: None,
            rec,
        }
    }

    /// The sub-thread's position in the total order.
    pub fn id(&self) -> SubThreadId {
        self.descriptor.id
    }

    /// The logical thread this sub-thread belongs to.
    pub fn thread(&self) -> ThreadId {
        self.descriptor.thread
    }
}

/// The reorder list itself.
///
/// # Examples
/// ```
/// use gprs_core::rol::{ReorderList, SubThreadStatus};
/// use gprs_core::subthread::{SubThread, SubThreadKind};
/// use gprs_core::ids::{GroupId, SubThreadId, ThreadId};
/// let mut rol = ReorderList::new();
/// let st = SubThread::new(SubThreadId::new(0), ThreadId::new(0), GroupId::new(0),
///                         SubThreadKind::Initial, None);
/// rol.insert(st)?;
/// rol.mark_completed(SubThreadId::new(0))?;
/// let retired = rol.retire_ready();
/// assert_eq!(retired.len(), 1);
/// assert!(rol.is_empty());
/// # Ok::<(), gprs_core::error::GprsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReorderList<R = ()> {
    entries: VecDeque<RolEntry<R>>,
    retired: u64,
    peak_occupancy: usize,
}

impl<R> Default for ReorderList<R> {
    fn default() -> Self {
        ReorderList {
            entries: VecDeque::new(),
            retired: 0,
            peak_occupancy: 0,
        }
    }
}

impl ReorderList {
    /// Creates an empty reorder list whose entries carry no engine record
    /// (an engine that keeps one starts from [`ReorderList::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a newly ordered sub-thread at the tail.
    ///
    /// # Errors
    /// See [`ReorderList::insert_with`].
    pub fn insert(&mut self, descriptor: SubThread) -> Result<()> {
        self.insert_with(descriptor, ())
    }
}

impl<R> ReorderList<R> {
    /// Inserts a newly ordered sub-thread at the tail, carrying `rec`.
    ///
    /// # Errors
    /// Returns [`GprsError::OutOfOrderInsert`] if `descriptor.id` is not
    /// strictly greater than every id already present — the order enforcer
    /// must hand sub-threads over in total order.
    pub fn insert_with(&mut self, descriptor: SubThread, rec: R) -> Result<()> {
        if let Some(last) = self.entries.back() {
            if descriptor.id <= last.id() {
                return Err(GprsError::OutOfOrderInsert {
                    inserted: descriptor.id,
                    newest: last.id(),
                });
            }
        }
        self.entries.push_back(RolEntry::new(descriptor, rec));
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        Ok(())
    }

    fn index_of(&self, id: SubThreadId) -> Option<usize> {
        // Ids ascend strictly, so entry `id` sits at `id - head` or earlier,
        // and exactly there unless an id between the two is missing (a
        // structural grant without an entry, a retired or squashed one).
        let guess = id.raw().checked_sub(self.entries.front()?.id().raw())?;
        let guess = usize::try_from(guess).unwrap_or(usize::MAX);
        if self.entries.get(guess).is_some_and(|e| e.id() == id) {
            return Some(guess);
        }
        self.entries
            .binary_search_by(|e| e.id().cmp(&id))
            .ok()
    }

    /// Immutable access to an entry.
    pub fn get(&self, id: SubThreadId) -> Option<&RolEntry<R>> {
        self.index_of(id).map(|ix| &self.entries[ix])
    }

    /// The record of in-flight sub-thread `id`, if it is still in the list.
    pub fn rec_mut(&mut self, id: SubThreadId) -> Option<&mut R> {
        self.index_of(id).map(|ix| &mut self.entries[ix].rec)
    }

    fn get_mut(&mut self, id: SubThreadId) -> Result<&mut RolEntry<R>> {
        let ix = self
            .index_of(id)
            .ok_or(GprsError::UnknownSubThread(id))?;
        Ok(&mut self.entries[ix])
    }

    /// Records a dependence alias for an executing sub-thread (a lock it
    /// acquired, an atomic/channel it touched).
    ///
    /// # Errors
    /// Returns [`GprsError::UnknownSubThread`] for retired or unknown ids.
    pub fn add_resource(&mut self, id: SubThreadId, resource: ResourceId) -> Result<()> {
        self.get_mut(id)?.resources.insert(resource);
        Ok(())
    }

    /// Marks a sub-thread as completed exception-free.
    ///
    /// # Errors
    /// Returns [`GprsError::UnknownSubThread`] for retired or unknown ids.
    pub fn mark_completed(&mut self, id: SubThreadId) -> Result<()> {
        let e = self.get_mut(id)?;
        if e.status == SubThreadStatus::InFlight || e.status == SubThreadStatus::Squashed {
            e.status = SubThreadStatus::Completed;
        }
        Ok(())
    }

    /// Attributes an exception to a sub-thread ("the REX halts its execution,
    /// records its status in its ROL entry").
    ///
    /// # Errors
    /// Returns [`GprsError::UnknownSubThread`] for retired or unknown ids.
    pub fn mark_excepted(&mut self, id: SubThreadId, exception: Exception) -> Result<()> {
        let e = self.get_mut(id)?;
        e.status = SubThreadStatus::Excepted;
        e.exception = Some(exception);
        Ok(())
    }

    /// Marks a sub-thread squashed by a recovery plan; its accumulated
    /// dependence aliases and exception are cleared for re-execution (its
    /// record stays until the entry leaves the list).
    ///
    /// # Errors
    /// Returns [`GprsError::UnknownSubThread`] for retired or unknown ids.
    pub fn mark_squashed(&mut self, id: SubThreadId) -> Result<()> {
        let e = self.get_mut(id)?;
        e.status = SubThreadStatus::Squashed;
        e.exception = None;
        e.resources.clear();
        if let Some(r) = e.descriptor.opening_op.map(|op| op.resource()) {
            e.resources.insert(r);
        }
        Ok(())
    }

    /// The oldest in-flight sub-thread (the ROL head).
    pub fn head(&self) -> Option<&RolEntry<R>> {
        self.entries.front()
    }

    /// The newest ordered sub-thread.
    pub fn tail(&self) -> Option<&RolEntry<R>> {
        self.entries.back()
    }

    /// Retires the head if it has completed exception-free.
    ///
    /// # Errors
    /// Returns [`GprsError::RetireIncomplete`] if the head exists but has not
    /// completed, and [`GprsError::UnknownSubThread`] with a zero id if the
    /// list is empty.
    pub fn retire_head(&mut self) -> Result<RolEntry<R>> {
        match self.entries.front() {
            None => Err(GprsError::UnknownSubThread(SubThreadId::new(0))),
            Some(head) if head.status == SubThreadStatus::Completed => {
                self.retired += 1;
                Ok(self.entries.pop_front().expect("head exists"))
            }
            Some(head) => Err(GprsError::RetireIncomplete(head.id())),
        }
    }

    /// Retires every completed sub-thread reachable from the head — the
    /// REX's continuous ROL-head monitoring loop.
    pub fn retire_ready(&mut self) -> Vec<RolEntry<R>> {
        let mut out = Vec::new();
        self.retire_ready_into(&mut out);
        out
    }

    /// Like [`ReorderList::retire_ready`], but appends into a
    /// caller-provided buffer so a hot retirement path can reuse one
    /// allocation across batches.
    pub fn retire_ready_into(&mut self, out: &mut Vec<RolEntry<R>>) {
        while let Ok(entry) = self.retire_head() {
            out.push(entry);
        }
    }

    /// Iterates over all in-flight entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RolEntry<R>> {
        self.entries.iter()
    }

    /// Iterates over entries strictly younger than `id`, oldest first.
    pub fn iter_younger(&self, id: SubThreadId) -> impl Iterator<Item = &RolEntry<R>> {
        self.entries.iter().filter(move |e| e.id() > id)
    }

    /// Removes a squashed entry from the middle of the list.
    ///
    /// Used by runtimes that re-execute squashed sub-threads as fresh
    /// entries (with new sequence numbers) instead of reusing the old ones:
    /// the stale entry must not block retirement of older sub-threads. The
    /// entry comes back with its record.
    ///
    /// # Errors
    /// Returns [`GprsError::UnknownSubThread`] if absent, or
    /// [`GprsError::RetireIncomplete`] if the entry is not squashed (only
    /// squashed entries may leave the list out of order).
    pub fn remove_squashed(&mut self, id: SubThreadId) -> Result<RolEntry<R>> {
        let ix = self
            .index_of(id)
            .ok_or(GprsError::UnknownSubThread(id))?;
        if self.entries[ix].status != SubThreadStatus::Squashed {
            return Err(GprsError::RetireIncomplete(id));
        }
        Ok(self.entries.remove(ix).expect("index valid"))
    }

    /// Whether the list still tracks `id`.
    pub fn contains(&self, id: SubThreadId) -> bool {
        self.index_of(id).is_some()
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no sub-threads are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total sub-threads retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Largest number of simultaneously in-flight sub-threads observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::{Exception, ExceptionKind};
    use crate::ids::{AtomicId, ContextId, GroupId};
    use crate::subthread::{SubThreadKind, SyncOp};

    fn st(id: u64, thread: u32) -> SubThread {
        SubThread::new(
            SubThreadId::new(id),
            ThreadId::new(thread),
            GroupId::new(0),
            SubThreadKind::Initial,
            None,
        )
    }

    fn st_with_lock(id: u64, thread: u32, lock: u64) -> SubThread {
        SubThread::new(
            SubThreadId::new(id),
            ThreadId::new(thread),
            GroupId::new(0),
            SubThreadKind::CriticalSection,
            Some(SyncOp::LockAcquire(LockId::new(lock))),
        )
    }

    fn exc() -> Exception {
        Exception::global(ExceptionKind::SoftFault, ContextId::new(0), 0)
    }

    #[test]
    fn insert_enforces_total_order() {
        let mut rol = ReorderList::new();
        rol.insert(st(0, 0)).unwrap();
        rol.insert(st(1, 1)).unwrap();
        assert_eq!(
            rol.insert(st(1, 0)),
            Err(GprsError::OutOfOrderInsert {
                inserted: SubThreadId::new(1),
                newest: SubThreadId::new(1)
            })
        );
        assert_eq!(rol.len(), 2);
    }

    #[test]
    fn opening_lock_op_seeds_resources() {
        let mut rol = ReorderList::new();
        rol.insert(st_with_lock(0, 0, 7)).unwrap();
        let e = rol.get(SubThreadId::new(0)).unwrap();
        assert!(e.resources.contains(&ResourceId::Lock(LockId::new(7))));
    }

    #[test]
    fn resource_set_matches_a_btree_set_across_the_spill() {
        use std::collections::BTreeSet;
        let ids = [9u64, 2, 7, 2, 5, 11, 3, 7, 1];
        let mut small = ResourceSet::new();
        let mut model = BTreeSet::new();
        for (i, &raw) in ids.iter().enumerate() {
            let r = if i % 2 == 0 {
                ResourceId::Lock(LockId::new(raw))
            } else {
                ResourceId::Atomic(AtomicId::new(raw))
            };
            assert_eq!(small.insert(r), model.insert(r));
            assert!(small.contains(&r));
            assert!(small.iter().eq(model.iter()), "ascending, like the BTreeSet");
        }
        assert!(model.len() > ResourceSet::INLINE, "the sequence crosses the spill");
        assert!(!small.contains(&ResourceId::Lock(LockId::new(4))));
        small.clear();
        assert!(small.iter().next().is_none());
        assert!(small.insert(ResourceId::Lock(LockId::new(4))));
        assert_eq!(small.as_slice(), [ResourceId::Lock(LockId::new(4))]);
    }

    #[test]
    fn retirement_only_from_completed_head() {
        let mut rol = ReorderList::new();
        rol.insert(st(0, 0)).unwrap();
        rol.insert(st(1, 1)).unwrap();
        // Completing the *younger* one does not allow retirement.
        rol.mark_completed(SubThreadId::new(1)).unwrap();
        assert_eq!(
            rol.retire_head(),
            Err(GprsError::RetireIncomplete(SubThreadId::new(0)))
        );
        assert!(rol.retire_ready().is_empty());
        // Completing the head retires both in one sweep.
        rol.mark_completed(SubThreadId::new(0)).unwrap();
        let retired = rol.retire_ready();
        assert_eq!(retired.len(), 2);
        assert_eq!(rol.retired(), 2);
        assert!(rol.is_empty());
    }

    #[test]
    fn excepted_head_blocks_retirement() {
        let mut rol = ReorderList::new();
        rol.insert(st(0, 0)).unwrap();
        rol.mark_excepted(SubThreadId::new(0), exc()).unwrap();
        assert!(rol.retire_head().is_err());
    }

    #[test]
    fn squash_clears_exception_and_dynamic_resources() {
        let mut rol = ReorderList::new();
        rol.insert(st_with_lock(0, 0, 1)).unwrap();
        rol.add_resource(SubThreadId::new(0), ResourceId::Lock(LockId::new(2)))
            .unwrap();
        rol.mark_excepted(SubThreadId::new(0), exc()).unwrap();
        rol.mark_squashed(SubThreadId::new(0)).unwrap();
        let e = rol.get(SubThreadId::new(0)).unwrap();
        assert_eq!(e.status, SubThreadStatus::Squashed);
        assert!(e.exception.is_none());
        // The opening lock is retained (it re-acquires on re-execution); the
        // dynamically accumulated alias is cleared.
        assert!(e.resources.contains(&ResourceId::Lock(LockId::new(1))));
        assert!(!e.resources.contains(&ResourceId::Lock(LockId::new(2))));
        // A squashed sub-thread can complete after re-execution.
        rol.mark_completed(SubThreadId::new(0)).unwrap();
        assert_eq!(rol.retire_ready().len(), 1);
    }

    #[test]
    fn iter_younger_filters() {
        let mut rol = ReorderList::new();
        for i in 0..4 {
            rol.insert(st(i, 0)).unwrap();
        }
        let ids: Vec<u64> = rol.iter_younger(SubThreadId::new(1)).map(|e| e.id().raw()).collect();
        assert_eq!(ids, [2, 3]);
    }

    #[test]
    fn unknown_ids_error() {
        let mut rol = ReorderList::new();
        assert!(rol.mark_completed(SubThreadId::new(3)).is_err());
        assert!(rol
            .add_resource(SubThreadId::new(3), ResourceId::Lock(LockId::new(0)))
            .is_err());
        assert!(rol.retire_head().is_err());
    }

    /// An engine's record leaves with its entry — retired or squashed —
    /// and outlives neither.
    #[test]
    fn records_ride_their_entries() {
        let mut rol: ReorderList<Vec<u64>> = ReorderList::default();
        for i in 0..3 {
            rol.insert_with(st(i, 0), vec![i]).unwrap();
        }
        rol.rec_mut(SubThreadId::new(1)).unwrap().push(10);
        rol.mark_squashed(SubThreadId::new(1)).unwrap();
        assert_eq!(rol.get(SubThreadId::new(1)).unwrap().rec, [1, 10], "a squash mark keeps it");
        assert_eq!(rol.remove_squashed(SubThreadId::new(1)).unwrap().rec, [1, 10]);
        assert!(rol.rec_mut(SubThreadId::new(1)).is_none());
        rol.mark_completed(SubThreadId::new(0)).unwrap();
        rol.mark_completed(SubThreadId::new(2)).unwrap();
        let recs: Vec<Vec<u64>> = rol.retire_ready().into_iter().map(|e| e.rec).collect();
        assert_eq!(recs, [vec![0], vec![2]]);
        assert!(rol.is_empty());
    }

    #[test]
    fn remove_squashed_requires_squashed_status() {
        let mut rol = ReorderList::new();
        rol.insert(st(0, 0)).unwrap();
        rol.insert(st(1, 1)).unwrap();
        rol.insert(st(2, 2)).unwrap();
        assert_eq!(
            rol.remove_squashed(SubThreadId::new(1)),
            Err(GprsError::RetireIncomplete(SubThreadId::new(1)))
        );
        rol.mark_squashed(SubThreadId::new(1)).unwrap();
        let e = rol.remove_squashed(SubThreadId::new(1)).unwrap();
        assert_eq!(e.id(), SubThreadId::new(1));
        assert_eq!(rol.len(), 2);
        // Retirement of the remaining entries is unobstructed.
        rol.mark_completed(SubThreadId::new(0)).unwrap();
        rol.mark_completed(SubThreadId::new(2)).unwrap();
        assert_eq!(rol.retire_ready().len(), 2);
        assert!(matches!(
            rol.remove_squashed(SubThreadId::new(5)),
            Err(GprsError::UnknownSubThread(_))
        ));
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut rol = ReorderList::new();
        for i in 0..3 {
            rol.insert(st(i, 0)).unwrap();
            rol.mark_completed(SubThreadId::new(i)).unwrap();
        }
        rol.retire_ready();
        assert_eq!(rol.peak_occupancy(), 3);
        assert!(rol.is_empty());
    }
}
