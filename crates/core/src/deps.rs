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
//! from the excepting one) — or along an edge only the engine observes, which
//! it supplies as [`Provenance`].
//!
//! A `Channel` id is **not** an alias: the engines manage their FIFOs and
//! undo a pop by returning the item to the front, so what a consumer depends
//! on is the *item's* producer ([`Provenance::dependents`]), not everyone who
//! ever touched the channel.

use crate::error::{GprsError, Result};
use crate::ids::{BarrierId, ResourceId, SubThreadId, ThreadId};
use crate::rol::{ReorderList, RolEntry};
use std::collections::BTreeSet;

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

/// The dependence edges only an engine observes. Every method defaults to
/// "none", so an engine states just the edges it tracks.
pub trait Provenance {
    /// In-flight sub-threads that consumed what `producer` produced: popped
    /// an item it pushed, were spawned by it, or joined the thread it ended.
    fn dependents(&self, _producer: SubThreadId) -> &[SubThreadId] {
        &[]
    }

    /// The barrier generation whose release `id`'s arrival contributed to.
    fn arrived(&self, _id: SubThreadId) -> Option<(BarrierId, u64)> {
        None
    }

    /// The barrier generation whose release opened continuation `id`.
    fn resumed(&self, _id: SubThreadId) -> Option<(BarrierId, u64)> {
        None
    }
}

/// No engine-observed edges: aliases and thread continuation only.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProvenance;

impl Provenance for NoProvenance {}

/// Everything the culprit's data may have reached so far.
struct Taint {
    threads: BTreeSet<ThreadId>,
    aliases: BTreeSet<ResourceId>,
    dependents: BTreeSet<SubThreadId>,
    gens: BTreeSet<(BarrierId, u64)>,
}

fn is_alias(r: &ResourceId) -> bool {
    !matches!(r, ResourceId::Channel(_))
}

impl Taint {
    fn absorb(&mut self, e: &RolEntry, edges: &impl Provenance) {
        self.threads.insert(e.thread());
        self.aliases.extend(e.resources.iter().copied().filter(is_alias));
        self.dependents.extend(edges.dependents(e.id()));
        self.gens.extend(edges.arrived(e.id()));
    }

    fn reaches(&self, e: &RolEntry, edges: &impl Provenance) -> bool {
        self.threads.contains(&e.thread())
            || e.resources.iter().any(|r| is_alias(r) && self.aliases.contains(r))
            || self.dependents.contains(&e.id())
            || edges.resumed(e.id()).is_some_and(|g| self.gens.contains(&g))
    }
}

/// Computes, oldest first, the sub-threads that must squash when `culprit`
/// excepts, under the given policy and the engine's `edges`. The culprit
/// itself is always the first member.
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
/// use gprs_core::deps::{affected_set, DependencePolicy, NoProvenance};
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
/// let set = affected_set(&rol, SubThreadId::new(0), DependencePolicy::Transitive, &NoProvenance)?;
/// assert_eq!(set, [SubThreadId::new(0), SubThreadId::new(1)]);
/// # Ok::<(), gprs_core::error::GprsError>(())
/// ```
pub fn affected_set(
    rol: &ReorderList,
    culprit: SubThreadId,
    policy: DependencePolicy,
    edges: &impl Provenance,
) -> Result<Vec<SubThreadId>> {
    let culprit_entry = rol
        .get(culprit)
        .ok_or(GprsError::UnknownSubThread(culprit))?;
    let mut taint = Taint {
        threads: BTreeSet::new(),
        aliases: BTreeSet::new(),
        dependents: BTreeSet::new(),
        gens: BTreeSet::new(),
    };
    taint.absorb(culprit_entry, edges);
    let mut affected = vec![culprit];

    // One ascending pass suffices even for the transitive policy: taint only
    // ever propagates from older to younger sub-threads, so by the time we
    // examine an entry every possible source of its taint has been seen.
    for e in rol.iter_younger(culprit) {
        if taint.reaches(e, edges) {
            affected.push(e.id());
            if policy == DependencePolicy::Transitive {
                taint.absorb(e, edges);
            }
        }
    }
    Ok(affected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChannelId, GroupId, LockId};
    use crate::subthread::{SubThread, SubThreadKind, SyncOp};
    use std::collections::BTreeMap;

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
        ids(&affected_set(rol, SubThreadId::new(culprit), policy, &NoProvenance).unwrap())
    }

    /// Item provenance as an engine would track it: producer -> consumers.
    #[derive(Default)]
    struct Items(BTreeMap<SubThreadId, Vec<SubThreadId>>);
    impl Items {
        fn consumed(mut self, producer: u64, consumer: u64) -> Self {
            self.0
                .entry(SubThreadId::new(producer))
                .or_default()
                .push(SubThreadId::new(consumer));
            self
        }
    }
    impl Provenance for Items {
        fn dependents(&self, producer: SubThreadId) -> &[SubThreadId] {
            self.0.get(&producer).map_or(&[], Vec::as_slice)
        }
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
    /// id taints nobody, the *item* edges the engine supplies do.
    #[test]
    fn transitive_chases_two_hop_flows() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, chan_push(1))).unwrap();
        rol.insert(entry(1, 1, chan_pop(1))).unwrap();
        rol.add_resource(SubThreadId::new(1), ChannelId::new(2).into())
            .unwrap();
        rol.insert(entry(2, 2, chan_pop(2))).unwrap();
        for policy in [DependencePolicy::Direct, DependencePolicy::Transitive] {
            assert_eq!(plain(&rol, 0, policy), [0], "channel ids are not aliases");
        }

        let items = Items::default().consumed(0, 1).consumed(1, 2);
        let culprit = SubThreadId::new(0);
        let direct = affected_set(&rol, culprit, DependencePolicy::Direct, &items).unwrap();
        assert_eq!(ids(&direct), [0, 1]);
        let trans = affected_set(&rol, culprit, DependencePolicy::Transitive, &items).unwrap();
        assert_eq!(ids(&trans), [0, 1, 2]);
    }

    /// A continuation is tainted by a squashed arrival of its generation,
    /// and only of its generation.
    #[test]
    fn barrier_generations_carry_taint() {
        struct Gens;
        impl Provenance for Gens {
            fn arrived(&self, id: SubThreadId) -> Option<(BarrierId, u64)> {
                (id.raw() == 0).then_some((BarrierId::new(7), 1))
            }
            fn resumed(&self, id: SubThreadId) -> Option<(BarrierId, u64)> {
                match id.raw() {
                    1 => Some((BarrierId::new(7), 1)),
                    2 => Some((BarrierId::new(7), 2)),
                    _ => None,
                }
            }
        }
        let mut rol = ReorderList::new();
        for i in 0..3 {
            rol.insert(entry(i, i as u32, None)).unwrap();
        }
        let set =
            affected_set(&rol, SubThreadId::new(0), DependencePolicy::Transitive, &Gens).unwrap();
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

    #[test]
    fn unknown_culprit_errors() {
        let rol = ReorderList::new();
        assert_eq!(
            affected_set(&rol, SubThreadId::new(4), DependencePolicy::Direct, &NoProvenance),
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
