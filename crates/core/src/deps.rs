//! Dependence tracking for selective restart (`§3.4`).
//!
//! GPRS cannot observe every load and store, so it uses synchronization
//! resources as *aliases* for the shared data they protect: in a
//! data-race-free program, inter-thread communication happens only under a
//! lock, through an atomic variable, or through a runtime-managed channel or
//! barrier. A younger sub-thread may have consumed an excepting sub-thread's
//! erroneous data only if the two share such an alias — or if it is a later
//! sub-thread of the same thread (its starting state derives from the
//! excepting one).

use crate::error::{GprsError, Result};
use crate::ids::{ResourceId, SubThreadId, ThreadId};
use crate::rol::ReorderList;
use std::collections::BTreeSet;

/// How far the dependence closure is taken when computing the affected set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DependencePolicy {
    /// Only sub-threads that directly share a resource with the *excepting*
    /// sub-thread (plus the excepting thread's own later sub-threads). This
    /// is the paper's literal description — "ones that acquired the same
    /// lock(s) or used the same atomic variable as the excepting sub-thread"
    /// — and is cheapest, but does not chase second-hop propagation.
    Direct,
    /// The transitive closure: any sub-thread that shares a resource with an
    /// already-affected sub-thread (or continues an affected thread) is also
    /// affected. This is the conservative-correct set the threaded runtime
    /// uses: it covers data that flowed A → B → C through two different
    /// channels/locks.
    #[default]
    Transitive,
}

/// Computes the set of sub-threads that must squash when `culprit` excepts,
/// under the given policy. The culprit itself is always a member.
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
/// assert!(set.contains(&SubThreadId::new(1)));
/// assert!(!set.contains(&SubThreadId::new(2)));
/// # Ok::<(), gprs_core::error::GprsError>(())
/// ```
pub fn affected_set(
    rol: &ReorderList,
    culprit: SubThreadId,
    policy: DependencePolicy,
) -> Result<BTreeSet<SubThreadId>> {
    let culprit_entry = rol
        .get(culprit)
        .ok_or(GprsError::UnknownSubThread(culprit))?;

    let mut affected: BTreeSet<SubThreadId> = BTreeSet::new();
    affected.insert(culprit);
    let mut tainted_resources: BTreeSet<ResourceId> =
        culprit_entry.resources.iter().copied().collect();
    let mut tainted_threads: BTreeSet<ThreadId> = BTreeSet::new();
    tainted_threads.insert(culprit_entry.thread());

    // One ascending pass suffices even for the transitive policy: taint only
    // ever propagates from older to younger sub-threads, so by the time we
    // examine an entry every possible source of its taint has been seen.
    for e in rol.iter_younger(culprit) {
        let continues_tainted_thread = tainted_threads.contains(&e.thread());
        let shares_resource = e
            .resources
            .iter()
            .any(|r| tainted_resources.contains(r));
        if continues_tainted_thread || shares_resource {
            affected.insert(e.id());
            if policy == DependencePolicy::Transitive {
                tainted_threads.insert(e.thread());
                tainted_resources.extend(e.resources.iter().copied());
            }
        }
    }
    Ok(affected)
}

/// The number of in-flight sub-threads *not* affected — the work selective
/// restart preserves relative to basic recovery's squash-everything-younger.
pub fn unaffected_count(rol: &ReorderList, affected: &BTreeSet<SubThreadId>) -> usize {
    rol.iter().filter(|e| !affected.contains(&e.id())).count()
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
    fn ids(set: &BTreeSet<SubThreadId>) -> Vec<u64> {
        set.iter().map(|s| s.raw()).collect()
    }

    #[test]
    fn culprit_alone_when_nothing_shares() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, lock(1))).unwrap();
        rol.insert(entry(1, 1, lock(2))).unwrap();
        rol.insert(entry(2, 2, lock(3))).unwrap();
        let set = affected_set(&rol, SubThreadId::new(0), DependencePolicy::Transitive).unwrap();
        assert_eq!(ids(&set), [0]);
        assert_eq!(unaffected_count(&rol, &set), 2);
    }

    #[test]
    fn same_thread_successors_are_always_affected() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, lock(1))).unwrap();
        rol.insert(entry(1, 1, lock(2))).unwrap();
        rol.insert(entry(2, 0, lock(3))).unwrap(); // later sub-thread of TH0
        for policy in [DependencePolicy::Direct, DependencePolicy::Transitive] {
            let set = affected_set(&rol, SubThreadId::new(0), policy).unwrap();
            assert_eq!(ids(&set), [0, 2], "policy {policy:?}");
        }
    }

    #[test]
    fn older_subthreads_never_affected() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, lock(1))).unwrap();
        rol.insert(entry(1, 1, lock(1))).unwrap(); // same lock, but older...
        rol.insert(entry(2, 2, lock(1))).unwrap();
        let set = affected_set(&rol, SubThreadId::new(1), DependencePolicy::Transitive).unwrap();
        assert_eq!(ids(&set), [1, 2]); // ST0 untouched
    }

    #[test]
    fn transitive_chases_two_hop_flows() {
        // TH0 pushes to CH1 (culprit); TH1 pops CH1 and pushes CH2;
        // TH2 pops CH2. Direct misses TH2; transitive catches it.
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, chan_push(1))).unwrap();
        let mut pop_push = entry(1, 1, chan_pop(1));
        pop_push.opening_op = chan_pop(1);
        rol.insert(pop_push).unwrap();
        rol.add_resource(SubThreadId::new(1), ChannelId::new(2).into())
            .unwrap();
        rol.insert(entry(2, 2, chan_pop(2))).unwrap();

        let direct = affected_set(&rol, SubThreadId::new(0), DependencePolicy::Direct).unwrap();
        assert_eq!(ids(&direct), [0, 1]);
        let trans =
            affected_set(&rol, SubThreadId::new(0), DependencePolicy::Transitive).unwrap();
        assert_eq!(ids(&trans), [0, 1, 2]);
    }

    #[test]
    fn direct_policy_does_not_grow_taint() {
        let mut rol = ReorderList::new();
        rol.insert(entry(0, 0, lock(1))).unwrap();
        rol.insert(entry(1, 1, lock(1))).unwrap(); // direct dependent
        rol.insert(entry(2, 1, lock(9))).unwrap(); // TH1 continuation…
        rol.insert(entry(3, 2, lock(9))).unwrap(); // shares L9 with ST2 only
        let direct = affected_set(&rol, SubThreadId::new(0), DependencePolicy::Direct).unwrap();
        // ST2 is affected (same thread as affected ST1? No — Direct tracks the
        // *culprit's* thread only; TH1 is not the culprit's thread). Only the
        // resource L1 and thread TH0 matter.
        assert_eq!(ids(&direct), [0, 1]);
        let trans =
            affected_set(&rol, SubThreadId::new(0), DependencePolicy::Transitive).unwrap();
        assert_eq!(ids(&trans), [0, 1, 2, 3]);
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
        let set = affected_set(&rol, SubThreadId::new(0), DependencePolicy::Direct).unwrap();
        assert_eq!(ids(&set), [0, 1]);
    }
}
