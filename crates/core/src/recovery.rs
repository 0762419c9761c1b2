//! Recovery — the Restart Engine (`§3.4`).
//!
//! Given a reorder list with an excepted entry, a [`RecoveryPlan`] names the
//! sub-threads to squash (youngest-first, the state-restore order) and to
//! re-dispatch (oldest-first). [`Recovery`] is the walk both engines run
//! for one exception: it marks the culprit, plans its squash, takes the
//! squashed entries out of the reorder list youngest first and hands back,
//! per squashed thread, the record of its oldest squashed sub-thread to
//! re-arm it from, and the barrier generations the removed arrivals formed,
//! which the roster takes back ([`Roster::take_back`]). What stays in each
//! engine is its undo: WAL records and lock data in the runtime, redo
//! cycles and channel items in the simulator.
//!
//! [`Roster::take_back`]: crate::roster::Roster::take_back
//!
//! Four strategies are provided, mirroring the paper's options:
//!
//! * **Basic** — wait-free conservative recovery: squash the excepting
//!   sub-thread and everything younger.
//! * **Selective** — squash only the excepting sub-thread and its
//!   dependents; unaffected sub-threads keep running. This is what makes the
//!   tipping rate scale with the context count (`e ≤ n/t_r`).
//! * **DiscardAll** — "if the precise excepting sub-thread cannot be
//!   identified for any reason, it is always safe to discard all sub-threads
//!   in the ROL".
//! * Precision: with zero detection latency the exception is
//!   *instruction-precise* and the culprit resumes from the faulting
//!   instruction; otherwise only *sub-thread-precise* restart is possible
//!   and the culprit re-executes from its checkpoint.

use crate::deps::{affected_set_into, insert, DependencePolicy, Provenance, Taint};
use crate::error::{GprsError, Result};
use crate::exception::Exception;
use crate::ids::{BarrierId, SubThreadId, ThreadId};
use crate::ledger::RunLedger;
use crate::rol::{ReorderList, SubThreadStatus};
use std::fmt;

/// Which sub-threads a recovery squashes, on either engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Squash the culprit and everything younger (`§3.4` basic recovery).
    Basic,
    /// Squash only the culprit and its dependents: same-thread successors,
    /// consumers of what it produced, lock/atomic-alias sharers and barrier
    /// co-participants (`§3.4` selective restart).
    Selective,
}

impl RecoveryPolicy {
    /// The planning mode: selective closes transitively.
    fn mode(self) -> RecoveryMode {
        match self {
            RecoveryPolicy::Basic => RecoveryMode::Basic,
            RecoveryPolicy::Selective => RecoveryMode::Selective(DependencePolicy::Transitive),
        }
    }
}

/// Which sub-threads a recovery squashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryMode {
    /// Squash the culprit and every younger sub-thread.
    Basic,
    /// Squash only the culprit and its dependence closure.
    Selective(DependencePolicy),
    /// Squash the entire reorder list.
    DiscardAll,
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryMode::Basic => f.write_str("basic"),
            RecoveryMode::Selective(DependencePolicy::Direct) => f.write_str("selective(direct)"),
            RecoveryMode::Selective(DependencePolicy::Transitive) => {
                f.write_str("selective(transitive)")
            }
            RecoveryMode::DiscardAll => f.write_str("discard-all"),
        }
    }
}

/// How precisely the faulting point inside the culprit is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Zero detection latency: the culprit's partial work up to the faulting
    /// instruction is sound and the culprit resumes in place.
    Instruction,
    /// Non-zero detection latency: the culprit's work cannot be trusted and
    /// it restarts from its sub-thread checkpoint.
    SubThread,
}

/// The REX's decision for one exception.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The excepting sub-thread.
    pub culprit: SubThreadId,
    /// Strategy that produced the plan.
    pub mode: RecoveryMode,
    /// Precision level applied.
    pub precision: Precision,
    /// Sub-threads whose state must be restored, youngest first (the reverse
    /// ROL / reverse WAL order).
    pub squash: Vec<SubThreadId>,
    /// Sub-threads to re-dispatch after restoration, oldest first.
    pub restart: Vec<SubThreadId>,
    /// Whether the culprit resumes from the faulting instruction instead of
    /// re-executing (instruction-precise recovery).
    pub resume_culprit: bool,
    /// In-flight sub-threads untouched by the plan — the work selective
    /// restart saves.
    pub unaffected: usize,
}

impl RecoveryPlan {
    /// Total sub-threads whose work is discarded.
    pub fn discarded(&self) -> usize {
        self.squash.len()
    }
}

impl fmt::Display for RecoveryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} recovery of {}: squash {} sub-thread(s), {} unaffected",
            self.mode,
            self.culprit,
            self.squash.len(),
            self.unaffected
        )
    }
}

/// Which sub-threads one recovery squashes — what both engines' restart
/// paths act on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SquashScope {
    /// The squashed sub-threads, oldest first; the culprit leads unless
    /// [`RecoveryMode::DiscardAll`] reached past it.
    pub ids: Vec<SubThreadId>,
    /// Hybrid escalation: the culprit's thread, when a selective restart
    /// was widened to the basic suffix because that thread participated in
    /// a data race — plain accesses may have leaked its state outside the
    /// closure.
    pub escalated: Option<ThreadId>,
}

impl SquashScope {
    /// Applies `mode` to the excepting `culprit` in place: the basic younger
    /// suffix, the whole list, or the dependence closure over the edges the
    /// entries' records state — escalated to the basic suffix when `racy`
    /// says the culprit's thread raced. `taint` is the closure's scratch.
    ///
    /// # Errors
    /// [`GprsError::UnknownSubThread`] — the culprit is not in the ROL (the
    /// scope is then empty).
    pub fn plan<R: Provenance>(
        &mut self,
        rol: &ReorderList<R>,
        culprit: SubThreadId,
        mode: RecoveryMode,
        racy: impl FnOnce(ThreadId) -> bool,
        taint: &mut Taint,
    ) -> Result<()> {
        self.ids.clear();
        self.escalated = None;
        let entry = rol
            .get(culprit)
            .ok_or(GprsError::UnknownSubThread(culprit))?;
        let selective = matches!(mode, RecoveryMode::Selective(_));
        self.escalated = Some(entry.thread()).filter(|&t| selective && racy(t));
        match mode {
            RecoveryMode::Selective(policy) if self.escalated.is_none() => {
                affected_set_into(rol, culprit, policy, taint, &mut self.ids)?;
            }
            RecoveryMode::DiscardAll => self.ids.extend(rol.iter().map(|e| e.id())),
            _ => {
                self.ids.push(culprit);
                self.ids.extend(rol.iter_younger(culprit).map(|e| e.id()));
            }
        }
        Ok(())
    }
}

/// The walk of one recovery session, in buffers kept for the next: once
/// the first sessions have grown them, a session allocates nothing. The
/// engine calls [`begin`](Recovery::begin), [`plan`](Recovery::plan),
/// [`squash_out`](Recovery::squash_out), undoes what
/// [`removed`](Recovery::removed) holds, re-arms its threads from the
/// [`restarts`](Recovery::restarts) the walk yields, takes back the
/// releases of the [`arrivals`](Recovery::arrivals) and calls
/// [`end`](Recovery::end).
#[derive(Debug)]
pub struct Recovery<R> {
    culprit: SubThreadId,
    ring: usize,
    scope: SquashScope,
    taint: Taint,
    /// `(thread, id, record)` of each removed entry, youngest first.
    removed: Vec<(ThreadId, SubThreadId, R)>,
    /// The barrier generations the removed entries' arrivals formed.
    arrivals: Vec<(BarrierId, u64)>,
    squashed: u64,
}

impl<R> Default for Recovery<R> {
    fn default() -> Self {
        Recovery {
            culprit: SubThreadId::new(0),
            ring: 0,
            scope: SquashScope::default(),
            taint: Taint::default(),
            removed: Vec::new(),
            arrivals: Vec::new(),
            squashed: 0,
        }
    }
}

impl<R: Provenance> Recovery<R> {
    /// Marks `culprit` excepted and opens a session noted on `ring`;
    /// `false` — the exception is ignored — if the culprit has left the
    /// reorder list (retirement is the commit point).
    pub fn begin(
        &mut self,
        rol: &mut ReorderList<R>,
        ledger: &RunLedger,
        ring: usize,
        culprit: SubThreadId,
        exception: Exception,
    ) -> bool {
        if rol.mark_excepted(culprit, exception).is_err() {
            return false;
        }
        (self.culprit, self.ring, self.squashed) = (culprit, ring, 0);
        ledger.recovery_begin(ring, culprit);
        true
    }

    /// Plans the culprit's squash under `policy`, escalated to the basic
    /// suffix (and noted) when the ledger saw the culprit's thread race.
    /// The engine may widen the returned scope in place, keeping its ids
    /// ascending.
    ///
    /// # Errors
    /// [`GprsError::UnknownSubThread`] — the culprit has left the reorder
    /// list since [`begin`](Recovery::begin); the scope is then empty.
    pub fn plan(
        &mut self,
        rol: &ReorderList<R>,
        ledger: &RunLedger,
        policy: RecoveryPolicy,
    ) -> Result<&mut SquashScope> {
        let racy = |t| ledger.is_racy_thread(t);
        self.scope
            .plan(rol, self.culprit, policy.mode(), racy, &mut self.taint)?;
        if let Some(thread) = self.scope.escalated {
            ledger.escalated(self.culprit, thread);
        }
        Ok(&mut self.scope)
    }

    /// Marks each scoped sub-thread squashed and takes its entry out of the
    /// reorder list, youngest first, noted on the ring `ring` names for its
    /// record; the generation its closing arrival formed joins the
    /// [`arrivals`](Recovery::arrivals).
    ///
    /// # Errors
    /// [`GprsError::UnknownSubThread`] naming the first scoped id no longer
    /// in the list; the entries younger than it are out.
    pub fn squash_out(
        &mut self,
        rol: &mut ReorderList<R>,
        ledger: &mut RunLedger,
        ring: impl Fn(&R) -> usize,
    ) -> Result<()> {
        for &id in self.scope.ids.iter().rev() {
            rol.mark_squashed(id)?;
            let entry = rol.remove_squashed(id)?;
            ledger.squashed(ring(&entry.rec), id, entry.thread());
            if let Some(g) = entry.rec.arrived() {
                insert(&mut self.arrivals, g);
            }
            self.removed.push((entry.thread(), id, entry.rec));
            self.squashed += 1;
        }
        Ok(())
    }

    /// The removed entries, youngest first: what the engine undoes.
    pub fn removed(&mut self) -> &mut [(ThreadId, SubThreadId, R)] {
        &mut self.removed
    }

    /// The barrier generations the removed entries' closing arrivals
    /// formed, ascending: a squash takes back each one that was released.
    pub fn arrivals(&self) -> &[(BarrierId, u64)] {
        &self.arrivals
    }

    /// Notes a restart of each squashed thread and yields it, in thread
    /// order, with the record of its oldest removed sub-thread.
    pub fn restarts<'a>(
        &'a mut self,
        ledger: &RunLedger,
    ) -> impl Iterator<Item = (ThreadId, R)> + 'a {
        self.removed.sort_unstable_by_key(|&(t, id, _)| (t, id));
        self.removed.dedup_by_key(|&mut (t, _, _)| t);
        for &(t, _, _) in &self.removed {
            ledger.restarted(t);
        }
        self.removed.drain(..).map(|(t, _, rec)| (t, rec))
    }

    /// Closes the session, noting its squash count (and host time, where
    /// the engine has any); returns the count.
    pub fn end(&mut self, ledger: &RunLedger, host_ns: Option<u64>) -> u64 {
        self.removed.clear();
        self.arrivals.clear();
        ledger.recovery_end(self.ring, self.culprit, self.squashed, host_ns);
        self.squashed
    }
}

/// Computes a recovery plan for an excepted sub-thread from the reorder
/// list alone — [`SquashScope::plan`] over the edges its records state,
/// with no race detector.
///
/// # Errors
///
/// * [`GprsError::UnknownSubThread`] — the culprit is not in the ROL.
/// * [`GprsError::NotExcepted`] — the culprit's entry carries no exception
///   (callers must first attribute one via
///   [`ReorderList::mark_excepted`](crate::rol::ReorderList::mark_excepted)).
///
/// # Examples
/// ```
/// use gprs_core::recovery::{plan_recovery, Precision, RecoveryMode};
/// use gprs_core::rol::ReorderList;
/// use gprs_core::subthread::{SubThread, SubThreadKind};
/// use gprs_core::exception::{Exception, ExceptionKind};
/// use gprs_core::ids::*;
/// let mut rol = ReorderList::new();
/// for i in 0..3 {
///     rol.insert(SubThread::new(SubThreadId::new(i), ThreadId::new(i as u32),
///                GroupId::new(0), SubThreadKind::Initial, None))?;
/// }
/// rol.mark_excepted(SubThreadId::new(1),
///     Exception::global(ExceptionKind::SoftFault, ContextId::new(0), 0))?;
/// let plan = plan_recovery(&rol, SubThreadId::new(1),
///                          RecoveryMode::Basic, Precision::SubThread)?;
/// assert_eq!(plan.squash, vec![SubThreadId::new(2), SubThreadId::new(1)]);
/// assert_eq!(plan.unaffected, 1); // ST0 keeps running
/// # Ok::<(), gprs_core::error::GprsError>(())
/// ```
pub fn plan_recovery<R: Provenance>(
    rol: &ReorderList<R>,
    culprit: SubThreadId,
    mode: RecoveryMode,
    precision: Precision,
) -> Result<RecoveryPlan> {
    let entry = rol
        .get(culprit)
        .ok_or(GprsError::UnknownSubThread(culprit))?;
    if entry.status != SubThreadStatus::Excepted {
        return Err(GprsError::NotExcepted(culprit));
    }

    let mut scope = SquashScope::default();
    scope.plan(rol, culprit, mode, |_| false, &mut Taint::default())?;
    let mut restart = scope.ids;
    let resume_culprit = precision == Precision::Instruction && mode != RecoveryMode::DiscardAll;
    if resume_culprit {
        restart.retain(|&id| id != culprit);
    }
    let mut squash = restart.clone();
    squash.reverse();
    // The culprit, when it resumes, is neither squashed nor unaffected.
    let unaffected = rol.len() - squash.len() - usize::from(resume_culprit);

    Ok(RecoveryPlan {
        culprit,
        mode,
        precision,
        squash,
        restart,
        resume_culprit,
        unaffected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::{Exception, ExceptionKind};
    use crate::ids::{ContextId, GroupId, LockId, ThreadId};
    use crate::subthread::{SubThread, SubThreadKind, SyncOp};

    fn st(id: u64, th: u32, lock: Option<u64>) -> SubThread {
        SubThread::new(
            SubThreadId::new(id),
            ThreadId::new(th),
            GroupId::new(0),
            SubThreadKind::CriticalSection,
            lock.map(|l| SyncOp::LockAcquire(LockId::new(l))),
        )
    }

    fn rol_with_exception(culprit: u64) -> ReorderList {
        // ST0(TH0,L1) ST1(TH1,L2) ST2(TH2,L2) ST3(TH3,L3) ST4(TH1,L4)
        let mut rol = ReorderList::new();
        rol.insert(st(0, 0, Some(1))).unwrap();
        rol.insert(st(1, 1, Some(2))).unwrap();
        rol.insert(st(2, 2, Some(2))).unwrap();
        rol.insert(st(3, 3, Some(3))).unwrap();
        rol.insert(st(4, 1, Some(4))).unwrap();
        rol.mark_excepted(
            SubThreadId::new(culprit),
            Exception::global(ExceptionKind::SoftFault, ContextId::new(0), 0),
        )
        .unwrap();
        rol
    }

    fn raw(v: &[SubThreadId]) -> Vec<u64> {
        v.iter().map(|s| s.raw()).collect()
    }

    #[test]
    fn basic_squashes_suffix_youngest_first() {
        let rol = rol_with_exception(1);
        let plan =
            plan_recovery(&rol, SubThreadId::new(1), RecoveryMode::Basic, Precision::SubThread)
                .unwrap();
        assert_eq!(raw(&plan.squash), [4, 3, 2, 1]);
        assert_eq!(raw(&plan.restart), [1, 2, 3, 4]);
        assert!(!plan.resume_culprit);
        assert_eq!(plan.unaffected, 1);
        assert_eq!(plan.discarded(), 4);
    }

    #[test]
    fn selective_squashes_only_dependents() {
        let rol = rol_with_exception(1);
        let plan = plan_recovery(
            &rol,
            SubThreadId::new(1),
            RecoveryMode::Selective(DependencePolicy::Transitive),
            Precision::SubThread,
        )
        .unwrap();
        // ST2 shares L2 with culprit; ST4 continues culprit's thread TH1.
        assert_eq!(raw(&plan.squash), [4, 2, 1]);
        assert_eq!(plan.unaffected, 2); // ST0 (older) and ST3 untouched
    }

    #[test]
    fn discard_all_empties_the_rol() {
        let rol = rol_with_exception(2);
        let plan = plan_recovery(
            &rol,
            SubThreadId::new(2),
            RecoveryMode::DiscardAll,
            Precision::SubThread,
        )
        .unwrap();
        assert_eq!(raw(&plan.squash), [4, 3, 2, 1, 0]);
        assert_eq!(plan.unaffected, 0);
    }

    #[test]
    fn instruction_precision_resumes_culprit() {
        let rol = rol_with_exception(1);
        let plan = plan_recovery(
            &rol,
            SubThreadId::new(1),
            RecoveryMode::Basic,
            Precision::Instruction,
        )
        .unwrap();
        assert!(plan.resume_culprit);
        assert!(!plan.squash.contains(&SubThreadId::new(1)));
        assert_eq!(raw(&plan.squash), [4, 3, 2]);
        assert_eq!(plan.unaffected, 1); // only ST0; culprit resumes, not "unaffected"
    }

    #[test]
    fn discard_all_never_resumes() {
        let rol = rol_with_exception(0);
        let plan = plan_recovery(
            &rol,
            SubThreadId::new(0),
            RecoveryMode::DiscardAll,
            Precision::Instruction,
        )
        .unwrap();
        assert!(!plan.resume_culprit);
        assert_eq!(plan.squash.len(), 5);
    }

    #[test]
    fn plan_for_non_excepted_fails() {
        let rol = rol_with_exception(1);
        assert_eq!(
            plan_recovery(
                &rol,
                SubThreadId::new(0),
                RecoveryMode::Basic,
                Precision::SubThread
            ),
            Err(GprsError::NotExcepted(SubThreadId::new(0)))
        );
    }

    #[test]
    fn plan_for_unknown_fails() {
        let rol = rol_with_exception(1);
        assert!(matches!(
            plan_recovery(
                &rol,
                SubThreadId::new(42),
                RecoveryMode::Basic,
                Precision::SubThread
            ),
            Err(GprsError::UnknownSubThread(_))
        ));
    }

    #[test]
    fn selective_beats_basic_on_preserved_work() {
        let rol = rol_with_exception(1);
        let basic =
            plan_recovery(&rol, SubThreadId::new(1), RecoveryMode::Basic, Precision::SubThread)
                .unwrap();
        let selective = plan_recovery(
            &rol,
            SubThreadId::new(1),
            RecoveryMode::Selective(DependencePolicy::Transitive),
            Precision::SubThread,
        )
        .unwrap();
        assert!(selective.unaffected > basic.unaffected);
        assert!(selective.discarded() < basic.discarded());
    }

    /// A record that names its entry, so a test can tell which came back.
    #[derive(Debug, PartialEq)]
    struct Tag(u64);
    /// An odd entry ends in an arrival at barrier 0 forming its id.
    impl Provenance for Tag {
        fn arrived(&self) -> Option<(BarrierId, u64)> {
            (self.0 % 2 == 1).then_some((BarrierId::new(0), self.0))
        }
    }

    /// ST0(TH0,L1) ST1(TH1,L2) ST2(TH2,L2) ST3(TH3,L3) ST4(TH1,L4)
    /// ST5(TH2,L5), each carrying its id.
    fn tagged() -> ReorderList<Tag> {
        let mut rol = ReorderList::default();
        for (id, th, lock) in [(0, 0, 1), (1, 1, 2), (2, 2, 2), (3, 3, 3), (4, 1, 4), (5, 2, 5)] {
            rol.insert_with(st(id, th, Some(lock)), Tag(id)).unwrap();
        }
        rol
    }

    fn fault() -> Exception {
        Exception::global(ExceptionKind::SoftFault, ContextId::new(0), 0)
    }

    fn ledger() -> RunLedger {
        RunLedger::new(&gprs_telemetry::TelemetryConfig::default(), 1, 0, false)
    }

    #[test]
    fn the_walk_hands_records_over_youngest_first_and_restarts_each_thread_from_its_oldest() {
        let (mut rol, mut ledger) = (tagged(), ledger());
        let mut walk = Recovery::default();
        assert!(walk.begin(&mut rol, &ledger, 0, SubThreadId::new(1), fault()));
        let scope = walk.plan(&rol, &ledger, RecoveryPolicy::Basic).unwrap();
        assert_eq!(raw(&scope.ids), [1, 2, 3, 4, 5]);
        walk.squash_out(&mut rol, &mut ledger, |_| 0).unwrap();
        let removed: Vec<_> = walk
            .removed()
            .iter()
            .map(|(t, id, rec)| (t.raw(), id.raw(), rec.0))
            .collect();
        assert_eq!(removed, [(2, 5, 5), (1, 4, 4), (3, 3, 3), (2, 2, 2), (1, 1, 1)]);
        let gens: Vec<_> = walk.arrivals().iter().map(|&(b, gen)| (b.raw(), gen)).collect();
        assert_eq!(gens, [(0, 1), (0, 3), (0, 5)], "ascending");
        assert_eq!(rol.iter().map(|e| e.id().raw()).collect::<Vec<_>>(), [0]);
        let restarts: Vec<_> = walk.restarts(&ledger).map(|(t, rec)| (t.raw(), rec.0)).collect();
        assert_eq!(restarts, [(1, 1), (2, 2), (3, 3)]);
        assert_eq!(walk.end(&ledger, None), 5);
        assert!(walk.arrivals().is_empty());
        let summary = ledger.summarize();
        assert_eq!(summary.counter("recovery_sessions"), 1);
        assert_eq!(summary.counter("squashed"), 5);
        assert_eq!(summary.counter("restarts"), 3);
    }

    #[test]
    fn a_selective_walk_widens_in_place_and_reuses_its_buffers() {
        let (mut rol, mut ledger) = (tagged(), ledger());
        let mut walk = Recovery::default();
        assert!(walk.begin(&mut rol, &ledger, 0, SubThreadId::new(3), fault()));
        let scope = walk.plan(&rol, &ledger, RecoveryPolicy::Selective).unwrap();
        assert_eq!(raw(&scope.ids), [3]);
        scope.ids.extend([SubThreadId::new(4), SubThreadId::new(5)]);
        walk.squash_out(&mut rol, &mut ledger, |_| 0).unwrap();
        assert_eq!(walk.restarts(&ledger).count(), 3);
        assert_eq!(walk.end(&ledger, None), 3);
        // The next session starts empty in the kept buffers.
        assert!(walk.begin(&mut rol, &ledger, 0, SubThreadId::new(1), fault()));
        let scope = walk.plan(&rol, &ledger, RecoveryPolicy::Selective).unwrap();
        assert_eq!(raw(&scope.ids), [1, 2]);
        walk.squash_out(&mut rol, &mut ledger, |_| 0).unwrap();
        let restarts: Vec<_> = walk.restarts(&ledger).map(|(t, rec)| (t.raw(), rec.0)).collect();
        assert_eq!(restarts, [(1, 1), (2, 2)]);
        assert_eq!(walk.end(&ledger, None), 2);
        assert_eq!(rol.iter().map(|e| e.id().raw()).collect::<Vec<_>>(), [0]);
        let summary = ledger.summarize();
        assert_eq!(summary.counter("squashed"), 5);
        assert_eq!(summary.counter("restarts"), 5);
    }

    #[test]
    fn a_culprit_that_left_the_list_is_ignored() {
        let (mut rol, mut ledger) = (tagged(), ledger());
        rol.mark_completed(SubThreadId::new(0)).unwrap();
        assert_eq!(rol.retire_ready().len(), 1);
        let mut walk = Recovery::default();
        assert!(!walk.begin(&mut rol, &ledger, 0, SubThreadId::new(0), fault()));
        assert!(!walk.begin(&mut rol, &ledger, 0, SubThreadId::new(42), fault()));
        assert_eq!(ledger.summarize().counter("recovery_sessions"), 0);
    }

    #[test]
    fn a_vanished_id_is_an_error_that_names_it() {
        let (mut rol, mut ledger) = (tagged(), ledger());
        let mut walk = Recovery::default();
        assert!(walk.begin(&mut rol, &ledger, 0, SubThreadId::new(1), fault()));
        walk.plan(&rol, &ledger, RecoveryPolicy::Basic).unwrap();
        // ST3 leaves behind the walk's back.
        rol.mark_squashed(SubThreadId::new(3)).unwrap();
        rol.remove_squashed(SubThreadId::new(3)).unwrap();
        assert_eq!(
            walk.squash_out(&mut rol, &mut ledger, |_| 0),
            Err(GprsError::UnknownSubThread(SubThreadId::new(3)))
        );
        let removed: Vec<_> = walk.removed().iter().map(|(_, id, _)| id.raw()).collect();
        assert_eq!(removed, [5, 4], "the entries younger than it are out");
        assert_eq!(rol.iter().map(|e| e.id().raw()).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(walk.end(&ledger, None), 2);
        // A culprit gone before its plan is named too.
        assert!(walk.begin(&mut rol, &ledger, 0, SubThreadId::new(2), fault()));
        rol.mark_squashed(SubThreadId::new(2)).unwrap();
        rol.remove_squashed(SubThreadId::new(2)).unwrap();
        assert_eq!(
            walk.plan(&rol, &ledger, RecoveryPolicy::Basic).map(|s| s.ids.len()),
            Err(GprsError::UnknownSubThread(SubThreadId::new(2)))
        );
    }

    #[test]
    fn plan_display_is_informative() {
        let rol = rol_with_exception(1);
        let plan = plan_recovery(
            &rol,
            SubThreadId::new(1),
            RecoveryMode::Selective(DependencePolicy::Direct),
            Precision::SubThread,
        )
        .unwrap();
        let s = plan.to_string();
        assert!(s.contains("selective(direct)"));
        assert!(s.contains("ST1"));
    }
}
