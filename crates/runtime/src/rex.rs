//! The Restart Engine (REX): executes recovery plans against the live
//! runtime state (`§3.4`).
//!
//! Recovery runs with the runtime quiesced (no step executing) and the
//! state lock held. For each pending exception it:
//!
//! 1. attributes the exception to its culprit sub-thread (dropping it if
//!    the culprit already retired — retirement is the commit point);
//! 2. computes the affected set — everything younger that could have
//!    consumed the culprit's data: same-thread successors, channel-item
//!    consumers, lock/atomic-alias sharers, barrier co-participants and
//!    spawned/joined descendants (or simply the whole younger suffix under
//!    [`crate::engine::RecoveryPolicy::Basic`]);
//! 3. undoes the squashed sub-threads' **runtime operations** by walking
//!    their write-ahead-log records newest-first;
//! 4. undoes their **program state** from the history store (thread
//!    snapshots, lock mod-sets, allocator blocks), newest-first;
//! 5. removes their reorder-list entries — and with them everything the
//!    entries carry: staged (uncommitted) file output, dependence edges,
//!    race-detector facts, deferred cross-domain arrivals — and re-arms
//!    each squashed thread with the synchronization request that opened its
//!    oldest squashed sub-thread, so normal granting re-executes exactly the
//!    discarded work while every unaffected sub-thread continues untouched.

use crate::engine::{Inner, OpeningWant, PendingWant, RecoveryPolicy, StRec, ThState};
use crate::handles::{RawChannel, RawMutex};
use crate::ops::RtOp;
use crate::program::{DynThread, Step};
use gprs_core::deps::{DependencePolicy, Provenance, Taint};
use gprs_core::ids::{BarrierId, SubThreadId, ThreadId};
use gprs_core::ledger::EXTERNAL_RING;
use gprs_core::recovery::{RecoveryMode, SquashScope};
use gprs_core::wal::WalRecord;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Drains and handles every pending exception. Requires quiescence
/// (`inner.running` empty) — the worker loop guarantees it.
pub(crate) fn perform_recovery(inner: &mut Inner) {
    debug_assert!(inner.running.is_empty(), "recovery requires quiescence");
    while let Some(pe) = inner.pending_exceptions.pop_front() {
        inner.stats.exceptions += 1;
        let culprit = match pe.culprit {
            Some(c) if inner.rol.contains(c) => c,
            _ => {
                inner.stats.exceptions_ignored += 1;
                continue;
            }
        };
        // Idempotent re-mark. The `contains` check above makes an Err
        // unreachable today, but a stale strike — the culprit leaving the
        // ROL between the queueing of the exception and this pass (the
        // HALT-mid-squash shape) — must degrade to "ignored", never panic
        // a recovery pass that holds the whole machine.
        if inner.rol.mark_excepted(culprit, pe.exception).is_err() {
            inner.stats.exceptions_ignored += 1;
            continue;
        }
        let started = std::time::Instant::now();
        inner.ledger.recovery_begin(EXTERNAL_RING, culprit);
        let squashed = recover_one(inner, culprit);
        let host_ns = started.elapsed().as_nanos() as u64;
        inner
            .ledger
            .recovery_end(EXTERNAL_RING, culprit, squashed, Some(host_ns));
        // Chaos overlap point: a `MidRecovery(n)` event keyed to this
        // session queues its exceptions now, while this pass still holds
        // the quiesced machine — the loop re-pops and recovers them in the
        // same pass (an exception during recovery).
        inner.chaos_tick_recovery();
    }
}

/// Cancels every in-flight sub-thread by driving a **basic** recovery from
/// the oldest reorder-list entry: the whole un-retired suffix is squashed,
/// its WAL records undone and its staged output dropped, so a cancelled
/// job's ledger balances (`wal_appends == wal_undos + wal_prunes`) and
/// everything already retired stays committed — cancellation is precise
/// restart pointed at "the rest of the program". Requires quiescence, like
/// any recovery. No-op when nothing is in flight.
///
/// The synthetic exception is a [`ResourceRevocation`]
/// (`§2.2`: a shared platform revoking resources is exactly what a serving
/// layer's cancel/deadline is), and it is accounted in the job's stats like
/// any other delivered exception.
///
/// [`ResourceRevocation`]: gprs_core::exception::ExceptionKind::ResourceRevocation
pub(crate) fn cancel_inflight(inner: &mut Inner) {
    use gprs_core::exception::{Exception, ExceptionKind};
    use gprs_core::ids::ContextId;
    let policy = inner.cfg.recovery;
    inner.cfg.recovery = RecoveryPolicy::Basic;
    // Drain any genuine pending exceptions first (under Basic — sound, a
    // superset squash — and the job is being discarded anyway), then squash
    // the surviving suffix from its oldest entry. A chaos `MidRecovery`
    // overlay may queue fresh exceptions during either pass; the loop
    // re-drains until the machine is empty.
    perform_recovery(inner);
    loop {
        let oldest = inner.rol.iter().next().map(|e| e.id());
        let Some(oldest) = oldest else { break };
        let exception =
            Exception::global(ExceptionKind::ResourceRevocation, ContextId::new(0), 0);
        if inner.rol.mark_excepted(oldest, exception.clone()).is_err() {
            // Unreachable today (the machine is quiesced under the lock
            // between the peek and the strike), but a HALT must never
            // panic mid-squash: poison the run and let `finish` report it.
            inner.poison("cancel: oldest ROL entry vanished mid-squash");
            break;
        }
        inner
            .pending_exceptions
            .push_back(crate::engine::PendingException {
                exception,
                culprit: Some(oldest),
            });
        perform_recovery(inner);
    }
    inner.cfg.recovery = policy;
    debug_assert_eq!(inner.wal.len(), 0, "cancellation leaves no in-flight suffix");
}

/// The buffers of a recovery, kept in [`Inner`] for the next one: once the
/// first recoveries have grown them to the run's largest squash, a recovery
/// allocates nothing (`tests/alloc_budget.rs`).
#[derive(Default)]
pub(crate) struct RexScratch {
    scope: SquashScope,
    taint: Taint,
    /// The squashed sub-threads' threads, sorted and distinct.
    threads: Vec<ThreadId>,
    /// Barrier generations whose release a squashed arrival fed.
    undone_gens: Vec<(BarrierId, u64)>,
    redo: Vec<ThreadId>,
    records: Vec<WalRecord<RtOp>>,
    undos: Vec<(u64, Undo)>,
    /// The removed entries' records, each with its thread and id.
    openings: Vec<(ThreadId, SubThreadId, StRec)>,
}

/// One history-store snapshot to apply, by kind.
enum Undo {
    Thread(ThreadId, Box<dyn std::any::Any + Send>),
    Lock(gprs_core::ids::LockId, Box<dyn crate::handles::Recoverable>),
    Block(u64, Vec<u8>),
}

/// Executes one recovery plan; returns the number of squashed sub-threads.
fn recover_one(inner: &mut Inner, culprit: SubThreadId) -> u64 {
    let mut s = inner.rex.take().unwrap_or_default();
    plan(inner, culprit, &mut s);
    // Defensive re-validation: every affected id was read out of the ROL
    // in this same quiesced pass, so all of them are still present — but a
    // future violation of that invariant (a HALT squash overlapping a chaos
    // overlay is the canonical near-miss) must not panic with the state
    // lock held. Dropping a vanished id instead keeps recovery total.
    s.scope.ids.retain(|&id| inner.rol.contains(id));
    inner.stats.squashed += s.scope.ids.len() as u64;

    // Oldest first, read off each affected entry: its thread, the barrier
    // generation its arrival released — undone: the parked continuations
    // re-wait instead of re-running — and, for order-faithful redo, whether
    // a lock or atomic operation opened it. Those re-executions must
    // re-acquire in exactly this total order, or replayed critical sections
    // could interleave differently than the fault-free execution; queued
    // redos of threads being re-squashed are superseded.
    for &id in &s.scope.ids {
        let Some(e) = inner.rol.get(id) else { continue };
        let t = e.thread();
        s.undone_gens.extend(e.rec.arrived());
        if matches!(e.rec.want, OpeningWant::Lock(_) | OpeningWant::FetchAdd(_, _)) {
            s.redo.push(t);
        }
        s.threads.push(t);
        inner.ledger.squashed(EXTERNAL_RING, id, t);
        // Present (read just above), so the mark cannot fail.
        let _ = inner.rol.mark_squashed(id);
    }
    s.threads.sort_unstable();
    s.threads.dedup();
    inner.redo_locks.retain(|t| s.threads.binary_search(t).is_err());
    inner.redo_locks.extend(s.redo.drain(..));

    // --- 3. WAL undo, newest first. -----------------------------------
    // The scope is ascending (ROL order), so membership is a binary search.
    let squashed = |id: SubThreadId| s.scope.ids.binary_search(&id).is_ok();
    inner.wal.take_undo_into(squashed, &mut s.records);
    let mut reclaimed: BTreeMap<ThreadId, Box<dyn DynThread>> = BTreeMap::new();
    for rec in s.records.drain(..) {
        inner.ledger.wal_undone(rec.subthread);
        undo_op(inner, rec.op, &mut reclaimed);
    }

    // --- 4. History undo, newest first (existence-guarded). -----------
    apply_history_undo(inner, &s.scope.ids, &mut s.undos, &mut reclaimed);

    // --- 5. Remove ROL entries, youngest first, with what they carry. --
    for &id in s.scope.ids.iter().rev() {
        let Ok(mut entry) = inner.rol.remove_squashed(id) else {
            inner.poison(format!(
                "recovery: squashed sub-thread {} vanished from the ROL \
                 before removal (divergent replay or corrupted schedule state)",
                id.raw()
            ));
            continue;
        };
        // Race-detector facts of squashed work: the re-execution will
        // re-record them.
        inner.recycle_access_vec(std::mem::take(&mut entry.rec.accesses));
        s.openings.push((entry.thread(), id, entry.rec));
    }

    // --- Re-arm squashed threads, in thread order, each from the record --
    // of its oldest squashed sub-thread (the first of its run once sorted).
    s.openings.sort_unstable_by_key(|&(t, id, _)| (t, id));
    let mut prev = None;
    for (t, _, opening) in s.openings.drain(..) {
        if prev.replace(t) == Some(t) {
            continue;
        }
        inner.ledger.restarted(t);
        reinstate(inner, t, opening, &s.undone_gens, &mut reclaimed);
    }
    debug_assert!(
        reclaimed.is_empty(),
        "every reclaimed child is re-owned by a respawn request"
    );
    inner.stats.recoveries += 1;
    let squashed = s.scope.ids.len() as u64;
    s.threads.clear();
    s.undone_gens.clear();
    inner.rex = Some(s);
    squashed
}

/// Plans the squash of `culprit` into `s.scope` (ascending) under the
/// configured policy — escalated to the basic suffix when the race detector
/// saw the culprit's thread race, see [`SquashScope::plan`].
fn plan(inner: &mut Inner, culprit: SubThreadId, s: &mut RexScratch) {
    let mode = match inner.cfg.recovery {
        RecoveryPolicy::Basic => RecoveryMode::Basic,
        RecoveryPolicy::Selective => RecoveryMode::Selective(DependencePolicy::Transitive),
    };
    let racy = |t| inner.ledger.is_racy_thread(t);
    // `perform_recovery` re-validated the culprit against the ROL, but a
    // vanished culprit must squash nothing and poison — not panic a
    // recovery pass that holds the whole quiesced machine.
    if s.scope.plan(&inner.rol, culprit, mode, racy, &mut s.taint).is_err() {
        inner.poison(format!(
            "recovery: culprit sub-thread {} vanished from the ROL \
             (divergent replay or corrupted schedule state)",
            culprit.raw()
        ));
        return;
    }
    if let Some(thread) = s.scope.escalated {
        inner.stats.hybrid_escalations += 1;
        inner.ledger.escalated(culprit, thread);
    }
}

/// Applies the inverse of one logged runtime operation.
fn undo_op(inner: &mut Inner, op: RtOp, reclaimed: &mut BTreeMap<ThreadId, Box<dyn DynThread>>) {
    match op {
        RtOp::Push { chan, item } => {
            // Remove that very item (pointer identity), searching from the
            // back: unaffected producers' items interleaved after it stay.
            // If a consumer popped it, the consumer is squashed and its pop
            // was undone first (newer LSN), so the item is present.
            if let Some(c) = inner.chans.get_mut(&chan) {
                if let Some(ix) = c
                    .items
                    .iter()
                    .rposition(|(i, _)| Arc::ptr_eq(i, &item))
                {
                    c.items.remove(ix);
                }
            }
        }
        RtOp::Pop {
            chan,
            item,
            producer,
        } => {
            inner
                .chans
                .entry(chan)
                .or_default()
                .items
                .push_front((item, producer));
        }
        RtOp::FetchAdd { atomic, old } | RtOp::PlainStore { atomic, old } => {
            inner.atomics.insert(atomic, old);
        }
        RtOp::LockAcquire { lock } => {
            if let Some(l) = inner.locks.get_mut(&lock) {
                l.holder = None;
            }
        }
        RtOp::LockRelease { lock, holder } => {
            if let Some(l) = inner.locks.get_mut(&lock) {
                l.holder = Some(holder);
            }
        }
        RtOp::BarrierArrive { barrier, thread } => {
            // A deferred cross-domain publication leaves with the squashed
            // ender's entry, so the hub never counts an arrival that
            // un-happened (re-execution re-defers it).
            if let Some(bar) = inner.barriers.get_mut(&barrier) {
                bar.waiting.retain(|&t| t != thread);
            }
        }
        RtOp::SpawnChild { child } => {
            let Some(mut crec) = inner.threads.remove(&child) else {
                inner.poison(format!(
                    "recovery: un-spawning thread {} but it was never \
                     created (divergent replay or corrupted WAL)",
                    child.raw()
                ));
                return;
            };
            if crec.registered && inner.enforcer.deregister_thread(child).is_err() {
                inner.poison(format!(
                    "recovery: un-spawned thread {} was marked registered \
                     but the enforcer disagrees (corrupted schedule state)",
                    child.raw()
                ));
            }
            if crec.state != ThState::Done {
                inner.live -= 1;
            }
            let Some(program) = crec.program.take() else {
                inner.poison(format!(
                    "recovery: un-spawned thread {} has no parked program \
                     (divergent replay or corrupted WAL)",
                    child.raw()
                ));
                return;
            };
            reclaimed.insert(child, program);
        }
        RtOp::ThreadExit { thread } => {
            let Some(rec) = inner.threads.get_mut(&thread) else {
                inner.poison(format!(
                    "recovery: un-exiting thread {} but it does not exist \
                     (divergent replay or corrupted WAL)",
                    thread.raw()
                ));
                return;
            };
            rec.state = ThState::Active;
            rec.final_st = None;
            if !rec.registered {
                rec.registered = true;
                let (g, w) = (rec.group, rec.weight);
                if inner.enforcer.register_thread(thread, g, w).is_err() {
                    inner.poison(format!(
                        "recovery: could not re-register un-exited thread {} \
                         (corrupted schedule state)",
                        thread.raw()
                    ));
                }
            }
            inner.outputs.remove(&thread);
            inner.live += 1;
        }
        RtOp::Alloc { block } => {
            inner.blocks.remove(&block);
        }
        RtOp::Free { block, data } => {
            inner.blocks.insert(block, data);
        }
    }
}

/// Applies program-state snapshots of the squashed set (ascending), newest
/// first. A thread checkpoint's box goes back to its thread, whose re-grant
/// overwrites it instead of allocating one.
fn apply_history_undo(
    inner: &mut Inner,
    squash: &[SubThreadId],
    undos: &mut Vec<(u64, Undo)>,
    reclaimed: &mut BTreeMap<ThreadId, Box<dyn DynThread>>,
) {
    let squashed = |s: &SubThreadId| squash.binary_search(s).is_ok();
    let hist = &mut inner.hist;
    let threads = hist.thread_snaps.extract_if(.., |(_, s, _, _)| squashed(s));
    undos.extend(threads.map(|(seq, _, t, snap)| (seq, Undo::Thread(t, snap))));
    let locks = hist.lock_snaps.extract_if(.., |(_, s, _, _)| squashed(s));
    undos.extend(locks.map(|(seq, _, l, snap)| (seq, Undo::Lock(l, snap))));
    let blocks = hist.block_snaps.extract_if(.., |(_, s, _, _)| squashed(s));
    undos.extend(blocks.map(|(seq, _, b, snap)| (seq, Undo::Block(b, snap))));

    undos.sort_unstable_by_key(|u| std::cmp::Reverse(u.0)); // newest first
    for (_, u) in undos.drain(..) {
        match u {
            Undo::Thread(t, snap) => {
                if let Some(rec) = inner.threads.get_mut(&t) {
                    match rec.program.as_mut() {
                        Some(p) => {
                            p.restore_from(snap.as_ref());
                            rec.spare_snap.get_or_insert(snap);
                        }
                        // A checked-out program during recovery means the
                        // quiescence invariant broke; poison, don't panic.
                        None => inner.poison(format!(
                            "recovery: thread {} program checked out during \
                             history undo (machine not quiesced)",
                            t.raw()
                        )),
                    }
                } else if let Some(program) = reclaimed.get_mut(&t) {
                    program.restore_from(snap.as_ref());
                }
            }
            Undo::Lock(l, snap) => {
                if let Some(lock) = inner.locks.get_mut(&l) {
                    lock.data = Some(snap);
                }
            }
            Undo::Block(b, snap) => {
                if let std::collections::btree_map::Entry::Occupied(mut e) =
                    inner.blocks.entry(b)
                {
                    e.insert(snap);
                }
            }
        }
    }
}

/// Re-arms a squashed thread with the request that opened its oldest
/// squashed sub-thread.
fn reinstate(
    inner: &mut Inner,
    thread: ThreadId,
    opening: StRec,
    undone_gens: &[(BarrierId, u64)],
    reclaimed: &mut BTreeMap<ThreadId, Box<dyn DynThread>>,
) {
    let Some(rec) = inner.threads.get_mut(&thread) else {
        // The thread itself was un-spawned; its parent's reinstated spawn
        // request owns its program now.
        return;
    };
    rec.current_st = opening.prev;
    // Normalize registration: squashing may have left the thread parked or
    // deregistered.
    if let ThState::Parked(b) = rec.state {
        // It re-executes from before (or at) the arrival; un-park.
        if let Some(bar) = inner.barriers.get_mut(&b) {
            bar.waiting.retain(|&t| t != thread);
        }
        rec.state = ThState::Active;
    }
    let rec = inner.threads.get_mut(&thread).expect("present");
    if rec.state == ThState::Done {
        rec.state = ThState::Active;
        inner.live += 1;
        inner.outputs.remove(&thread);
    }
    let rec = inner.threads.get_mut(&thread).expect("present");
    if !rec.registered {
        rec.registered = true;
        let (g, w) = (rec.group, rec.weight);
        if inner.enforcer.register_thread(thread, g, w).is_err() {
            inner.poison(format!(
                "recovery: could not re-register reinstated thread {} \
                 (corrupted schedule state)",
                thread.raw()
            ));
        }
    }

    let pending = match opening.want {
        OpeningWant::Start => Some(PendingWant::Start),
        OpeningWant::Lock(l) => Some(PendingWant::Op(Step::Lock(RawMutex(l)))),
        OpeningWant::Push(c, v) => Some(PendingWant::Op(Step::Push(RawChannel(c), v))),
        OpeningWant::Pop(c) => Some(PendingWant::Op(Step::Pop(RawChannel(c)))),
        OpeningWant::FetchAdd(a, d) => Some(PendingWant::Op(Step::FetchAdd(a, d))),
        OpeningWant::JoinParent(t) => Some(PendingWant::Op(Step::Join(t))),
        OpeningWant::SerializedRun => Some(PendingWant::SerializedRun),
        OpeningWant::SpawnParent {
            child,
            group,
            weight,
        } => match reclaimed.remove(&child) {
            Some(program) => Some(PendingWant::Respawn {
                child,
                group,
                weight,
                program,
            }),
            None => {
                inner.poison(format!(
                    "recovery: reclaimed program for un-spawned child \
                     thread {} is missing (divergent replay or corrupted WAL)",
                    child.raw()
                ));
                None
            }
        },
        OpeningWant::Resume(b, gen) => {
            if undone_gens.contains(&(b, gen)) {
                // The release itself was undone: re-park and wait for the
                // squashed arrivals to re-arrive.
                let rec = inner.threads.get_mut(&thread).expect("present");
                rec.state = ThState::Parked(b);
                rec.registered = false;
                if inner.enforcer.deregister_thread(thread).is_err() {
                    inner.poison(format!(
                        "recovery: could not deregister re-parked thread {} \
                         (corrupted schedule state)",
                        thread.raw()
                    ));
                }
                let Some(bar) = inner.barriers.get_mut(&b) else {
                    inner.poison(format!(
                        "recovery: barrier {} of a re-parked continuation \
                         does not exist (divergent replay or corrupted WAL)",
                        b.raw()
                    ));
                    return;
                };
                bar.waiting.push(thread);
                bar.waiting.sort_unstable();
                None
            } else {
                // Only the continuation was squashed; the release stands.
                Some(PendingWant::Resume(b, gen))
            }
        }
    };
    inner.threads.get_mut(&thread).expect("present").pending = pending;
}
