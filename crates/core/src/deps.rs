//! Dependence tracking for selective restart (`§3.4`) — the one taint
//! closure both engines run.
//!
//! GPRS cannot observe every load and store, so it uses synchronization
//! resources as *aliases* for the shared data they protect: in a
//! data-race-free program, inter-thread communication happens only under a
//! lock, through an atomic variable, or through a runtime-managed channel or
//! barrier. A younger sub-thread may have consumed an excepting sub-thread's
//! erroneous data only if the two share a lock, atomic or barrier alias, if
//! it is a later sub-thread of the same thread (its starting state derives
//! from the excepting one) — or along an edge only the engine observes,
//! which its reorder-list record states through [`Provenance`].
//!
//! A `Channel` id is **not** an alias: the engines manage their FIFOs and
//! undo a pop by returning the item to the front, so what a consumer depends
//! on is the *item's* producer ([`Provenance::dependents`]), not everyone who
//! ever touched the channel.

use crate::error::{GprsError, Result};
use crate::ids::{BarrierId, ResourceId, SubThreadId, ThreadId};
use crate::rol::{ReorderList, RolEntry};

/// How far the dependence closure is taken when computing the affected set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DependencePolicy {
    /// Only sub-threads that directly depend on the *excepting* sub-thread
    /// (plus the excepting thread's own later sub-threads). This is the
    /// paper's literal description — "ones that acquired the same lock(s) or
    /// used the same atomic variable as the excepting sub-thread" — and is
    /// cheapest, but does not chase second-hop propagation.
    Direct,
    /// The transitive closure: any sub-thread that depends on an
    /// already-affected sub-thread (or continues an affected thread) is also
    /// affected. This is the conservative-correct set both engines use: it
    /// covers data that flowed A → B → C through two different locks/items.
    #[default]
    Transitive,
}

/// The dependence edges only an engine observes, read off the record a
/// reorder-list entry carries. Every method defaults to "none", so a record
/// states just the edges its engine tracks — and `()` states none (aliases
/// and thread continuation only).
pub trait Provenance {
    /// In-flight sub-threads that consumed what this one produced: popped
    /// an item it pushed, were spawned by it, or joined the thread it ended.
    fn dependents(&self) -> &[SubThreadId] {
        &[]
    }

    /// The barrier generation this sub-thread's closing arrival forms,
    /// released or not: a squash takes its release back.
    fn arrived(&self) -> Option<(BarrierId, u64)> {
        None
    }

    /// The barrier generation whose release opened this continuation.
    fn resumed(&self) -> Option<(BarrierId, u64)> {
        None
    }
}

impl Provenance for () {}

/// Everything the culprit's data may have reached so far: the scratch of
/// one closure. The sets are sorted vectors, so a `Taint` kept across
/// recoveries computes the next closure in the buffers the last one grew —
/// a recovery plans without allocating ([`affected_set_into`]).
#[derive(Debug, Default)]
pub struct Taint {
    threads: Vec<ThreadId>,
    aliases: Vec<ResourceId>,
    dependents: Vec<SubThreadId>,
    gens: Vec<(BarrierId, u64)>,
}

fn is_alias(r: &ResourceId) -> bool {
    !matches!(r, ResourceId::Channel(_))
}

/// Adds `x` to the ascending `set` unless it is there.
pub(crate) fn insert<T: Ord>(set: &mut Vec<T>, x: T) {
    if let Err(ix) = set.binary_search(&x) {
        set.insert(ix, x);
    }
}

fn has<T: Ord>(set: &[T], x: &T) -> bool {
    set.binary_search(x).is_ok()
}

impl Taint {
    fn clear(&mut self) {
        self.threads.clear();
        self.aliases.clear();
        self.dependents.clear();
        self.gens.clear();
    }

    fn absorb<R: Provenance>(&mut self, e: &RolEntry<R>) {
        insert(&mut self.threads, e.thread());
        for &r in e.resources.iter().filter(|r| is_alias(r)) {
            insert(&mut self.aliases, r);
        }
        for &d in e.rec.dependents() {
            insert(&mut self.dependents, d);
        }
        if let Some(g) = e.rec.arrived() {
            insert(&mut self.gens, g);
        }
    }

    fn reaches<R: Provenance>(&self, e: &RolEntry<R>) -> bool {
        has(&self.threads, &e.thread())
            || e.resources.iter().any(|r| is_alias(r) && has(&self.aliases, r))
            || has(&self.dependents, &e.id())
            || e.rec.resumed().is_some_and(|g| has(&self.gens, &g))
    }
}

/// Computes, oldest first, the sub-threads that must squash when `culprit`
/// excepts, under the given policy and the edges the entries' records
/// state. The culprit itself is always the first member.
///
/// Only sub-threads *younger* than the culprit are considered: the
/// deterministic total order guarantees younger computations cannot corrupt
/// older ones (`§2.4`, change 1).
///
/// # Errors
/// Returns [`GprsError::UnknownSubThread`] if the culprit is not in the ROL.
///
/// # Examples
/// ```
/// use gprs_core::deps::{affected_set, DependencePolicy};
/// use gprs_core::rol::ReorderList;
/// use gprs_core::subthread::{SubThread, SubThreadKind, SyncOp};
/// use gprs_core::ids::*;
/// let mut rol = ReorderList::new();
/// let lock = |id: u64, th: u32, l: u64| SubThread::new(
///     SubThreadId::new(id), ThreadId::new(th), GroupId::new(0),
///     SubThreadKind::CriticalSection, Some(SyncOp::LockAcquire(LockId::new(l))));
/// rol.insert(lock(0, 0, 1))?; // culprit: TH0 under L1
/// rol.insert(lock(1, 1, 1))?; // TH1 under L1 — dependent
/// rol.insert(lock(2, 2, 9))?; // TH2 under L9 — unaffected
/// let set = affected_set(&rol, SubThreadId::new(0), DependencePolicy::Transitive)?;
/// assert_eq!(set, [SubThreadId::new(0), SubThreadId::new(1)]);
/// # Ok::<(), gprs_core::error::GprsError>(())
/// ```
pub fn affected_set<R: Provenance>(
    rol: &ReorderList<R>,
    culprit: SubThreadId,
    policy: DependencePolicy,
) -> Result<Vec<SubThreadId>> {
    let mut affected = Vec::new();
    affected_set_into(rol, culprit, policy, &mut Taint::default(), &mut affected)?;
    Ok(affected)
}

/// [`affected_set`] into `affected` (cleared first), with `taint` as the
/// closure's scratch: what an engine calls once per recovery, keeping both
/// buffers between calls.
///
/// # Errors
/// Returns [`GprsError::UnknownSubThread`] if the culprit is not in the ROL
/// (`affected` is then empty).
pub fn affected_set_into<R: Provenance>(
    rol: &ReorderList<R>,
    culprit: SubThreadId,
    policy: DependencePolicy,
    taint: &mut Taint,
    affected: &mut Vec<SubThreadId>,
) -> Result<()> {
    affected.clear();
    let culprit_entry = rol
        .get(culprit)
        .ok_or(GprsError::UnknownSubThread(culprit))?;
    taint.clear();
    taint.absorb(culprit_entry);
    affected.push(culprit);

    // One ascending pass suffices even for the transitive policy: taint only
    // ever propagates from older to younger sub-threads, so by the time we
    // examine an entry every possible source of its taint has been seen.
    for e in rol.iter_younger(culprit) {
        if taint.reaches(e) {
            affected.push(e.id());
            if policy == DependencePolicy::Transitive {
                taint.absorb(e);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChannelId, GroupId, LockId};
    use crate::subthread::{SubThread, SubThreadKind, SyncOp};

    fn entry(id: u64, th: u32, op: Option<SyncOp>) -> SubThread {
        SubThread::new(
            SubThreadId::new(id),
            ThreadId::new(th),
            GroupId::new(0),
            SubThreadKind::CriticalSection,
            op,
        )
    }
    fn lock(l: u64) -> Option<SyncOp> {
        Some(SyncOp::LockAcquire(LockId::new(l)))
    }
    fn chan_push(c: u64) -> Option<SyncOp> {
        Some(SyncOp::ChanPush(ChannelId::new(c)))
    }
    fn chan_pop(c: u64) -> Option<SyncOp> {
        Some(SyncOp::ChanPop(ChannelId::new(c)))
    }
    fn ids(set: &[SubThreadId]) -> Vec<u64> {
        set.iter().map(|s| s.raw()).collect()
    }
    fn plain(rol: &ReorderList, culprit: u64, policy: DependencePolicy) -> Vec<u64> {
        ids(&affected_set(rol, SubThreadId::new(culprit), policy).unwrap())
    }

    /// A record stating engine-observed edges, as an engine's would.
    #[derive(Default)]
    struct Edges {
        dependents: Vec<SubThreadId>,
        arrived: Option<(BarrierId, u64)>,
        resumed: Option<(BarrierId, u64)>,
    }
    impl Provenance for Edges {
        fn dependents(&self) -> &[SubThreadId] {
            &self.dependents
        }
        fn arrived(&self) -> Option<(BarrierId, u64)> {
            self.arrived
        }
        fn resumed(&self) -> Option<(BarrierId, u64)> {
            self.resumed
        }
    }
    fn edges(rol: &mut ReorderList<Edges>, id: u64) -> &mut Edges {
        rol.rec_mut(SubThreadId::new(id)).expect("in flight")
    }

    #[test]
    fn culprit_alone_when_nothing_shares() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, lock(1))).unwrap();
        rol.insert(entry(1, 1, lock(2))).unwrap();
        rol.insert(entry(2, 2, lock(3))).unwrap();
        assert_eq!(plain(&rol, 0, DependencePolicy::Transitive), [0]);
    }

    #[test]
    fn same_thread_successors_are_always_affected() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, lock(1))).unwrap();
        rol.insert(entry(1, 1, lock(2))).unwrap();
        rol.insert(entry(2, 0, lock(3))).unwrap(); // later sub-thread of TH0
        for policy in [DependencePolicy::Direct, DependencePolicy::Transitive] {
            assert_eq!(plain(&rol, 0, policy), [0, 2], "policy {policy:?}");
        }
    }

    #[test]
    fn older_subthreads_never_affected() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, lock(1))).unwrap();
        rol.insert(entry(1, 1, lock(1))).unwrap(); // same lock, but older...
        rol.insert(entry(2, 2, lock(1))).unwrap();
        assert_eq!(plain(&rol, 1, DependencePolicy::Transitive), [1, 2]); // ST0 untouched
    }

    /// TH0 pushes to CH1 (culprit); TH1 pops that item and pushes to CH2;
    /// TH2 pops that one. This test used to assert the channel-as-alias
    /// behaviour — sharing `CH1`/`CH2` alone tainted the poppers — which
    /// PR 18 removed when the engines' closure became this one: a channel
    /// id taints nobody, the *item* edges the producers' records state do.
    #[test]
    fn transitive_chases_two_hop_flows() {
        let mut rol = ReorderList::default();
        rol.insert_with(entry(0, 0, chan_push(1)), Edges::default()).unwrap();
        rol.insert_with(entry(1, 1, chan_pop(1)), Edges::default()).unwrap();
        rol.add_resource(SubThreadId::new(1), ChannelId::new(2).into())
            .unwrap();
        rol.insert_with(entry(2, 2, chan_pop(2)), Edges::default()).unwrap();
        let culprit = SubThreadId::new(0);
        for policy in [DependencePolicy::Direct, DependencePolicy::Transitive] {
            let set = affected_set(&rol, culprit, policy).unwrap();
            assert_eq!(ids(&set), [0], "channel ids are not aliases");
        }

        edges(&mut rol, 0).dependents.push(SubThreadId::new(1));
        edges(&mut rol, 1).dependents.push(SubThreadId::new(2));
        let direct = affected_set(&rol, culprit, DependencePolicy::Direct).unwrap();
        assert_eq!(ids(&direct), [0, 1]);
        let trans = affected_set(&rol, culprit, DependencePolicy::Transitive).unwrap();
        assert_eq!(ids(&trans), [0, 1, 2]);
    }

    /// A continuation is tainted by a squashed arrival of its generation,
    /// and only of its generation.
    #[test]
    fn barrier_generations_carry_taint() {
        let mut rol = ReorderList::default();
        for i in 0..3 {
            rol.insert_with(entry(i, i as u32, None), Edges::default()).unwrap();
        }
        edges(&mut rol, 0).arrived = Some((BarrierId::new(7), 1));
        edges(&mut rol, 1).resumed = Some((BarrierId::new(7), 1));
        edges(&mut rol, 2).resumed = Some((BarrierId::new(7), 2));
        let set = affected_set(&rol, SubThreadId::new(0), DependencePolicy::Transitive).unwrap();
        assert_eq!(ids(&set), [0, 1]);
    }

    #[test]
    fn direct_policy_does_not_grow_taint() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, lock(1))).unwrap();
        rol.insert(entry(1, 1, lock(1))).unwrap(); // direct dependent
        rol.insert(entry(2, 1, lock(9))).unwrap(); // TH1 continuation…
        rol.insert(entry(3, 2, lock(9))).unwrap(); // shares L9 with ST2 only
        // Direct tracks the *culprit's* thread and aliases only: TH1 is not
        // the culprit's thread, so ST2 stays.
        assert_eq!(plain(&rol, 0, DependencePolicy::Direct), [0, 1]);
        assert_eq!(plain(&rol, 0, DependencePolicy::Transitive), [0, 1, 2, 3]);
    }

    /// One taint reused across closures — as an engine keeps it between
    /// recoveries — computes what a fresh one does.
    #[test]
    fn a_reused_taint_closes_like_a_fresh_one() {
        let mut rol = ReorderList::new();
        for (id, th, l) in [(0, 0, 1), (1, 1, 1), (2, 2, 9), (3, 1, 9), (4, 3, 2), (5, 2, 5)] {
            rol.insert(entry(id, th, lock(l))).unwrap();
        }
        let (mut taint, mut set) = (Taint::default(), Vec::new());
        for policy in [DependencePolicy::Transitive, DependencePolicy::Direct] {
            for culprit in [0, 4, 1, 2, 0] {
                let culprit = SubThreadId::new(culprit);
                affected_set_into(&rol, culprit, policy, &mut taint, &mut set).unwrap();
                assert_eq!(set, affected_set(&rol, culprit, policy).unwrap());
            }
        }
        let unknown = SubThreadId::new(9);
        assert!(affected_set_into(&rol, unknown, DependencePolicy::Direct, &mut taint, &mut set)
            .is_err());
        assert!(set.is_empty(), "a failed closure leaves no stale members");
    }

    #[test]
    fn unknown_culprit_errors() {
        let rol = ReorderList::new();
        assert_eq!(
            affected_set(&rol, SubThreadId::new(4), DependencePolicy::Direct),
            Err(GprsError::UnknownSubThread(SubThreadId::new(4)))
        );
    }

    #[test]
    fn dynamically_added_resources_participate() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, None)).unwrap();
        rol.insert(entry(1, 1, None)).unwrap();
        // Both touch atomic A5 during execution.
        rol.add_resource(SubThreadId::new(0), crate::ids::AtomicId::new(5).into())
            .unwrap();
        rol.add_resource(SubThreadId::new(1), crate::ids::AtomicId::new(5).into())
            .unwrap();
        assert_eq!(plain(&rol, 0, DependencePolicy::Direct), [0, 1]);
    }
}
