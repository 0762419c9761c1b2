//! Recovery planning — the decision logic of the Restart Engine (`§3.4`).
//!
//! Given a reorder list with an excepted entry, a [`RecoveryPlan`] names the
//! sub-threads to squash (youngest-first, the state-restore order) and to
//! re-dispatch (oldest-first). Executing a plan is the embedding runtime's
//! job: restore history-buffer snapshots in the squash order, undo WAL
//! records of the squashed set, then re-dispatch.
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

use crate::deps::{affected_set_into, DependencePolicy, Provenance, Taint};
use crate::error::{GprsError, Result};
use crate::ids::{SubThreadId, ThreadId};
use crate::rol::{ReorderList, SubThreadStatus};
use std::fmt;

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

/// Applies `mode` to the excepting `culprit`: the basic younger suffix, the
/// whole list, or the dependence closure over the edges the entries'
/// records state — escalated to the basic suffix when `racy` says the
/// culprit's thread raced.
///
/// # Errors
/// [`GprsError::UnknownSubThread`] — the culprit is not in the ROL.
pub fn squash_scope<R: Provenance>(
    rol: &ReorderList<R>,
    culprit: SubThreadId,
    mode: RecoveryMode,
    racy: impl FnOnce(ThreadId) -> bool,
) -> Result<SquashScope> {
    let mut scope = SquashScope::default();
    scope.plan(rol, culprit, mode, racy, &mut Taint::default())?;
    Ok(scope)
}

impl SquashScope {
    /// [`squash_scope`] in place, with `taint` as the closure's scratch: an
    /// engine keeps one scope and one taint for the run, and a recovery
    /// plans in the buffers earlier ones grew.
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

/// Computes a recovery plan for an excepted sub-thread from the reorder
/// list alone — [`squash_scope`] over the edges its records state, with no
/// race detector.
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

    let mut restart = squash_scope(rol, culprit, mode, |_| false)?.ids;
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
