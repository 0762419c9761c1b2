//! The Restart Engine (REX): the runtime's undo around the recovery walk
//! both engines share (`§3.4`, [`gprs_core::recovery::Recovery`]).
//!
//! Recovery runs with the runtime quiesced (no step executing) and the
//! state lock held. The walk takes each squashed entry out of the reorder
//! list, and with it what the entry carries: staged (uncommitted) file
//! output, dependence edges, race-detector facts, deferred cross-domain
//! arrivals, its thread's checkpoint. This module then undoes the squashed
//! sub-threads' runtime operations from the write-ahead log (each a
//! resource-table inverse or a spawn), their threads' checkpoints and the
//! lock data their critical sections checked out, each newest first, and
//! re-arms each squashed thread with the request that opened its oldest
//! squashed sub-thread, so normal granting re-executes exactly the
//! discarded work while every unaffected sub-thread continues. Last, the
//! roster takes back each barrier release a squashed arrival fed: every
//! participant it freed that is not re-executing its arrival — restarted at
//! its continuation or not yet resumed — waits again
//! ([`Roster::take_back`](gprs_core::roster::Roster::take_back)).

use crate::engine::{recycle_access_vec, Inner, OpeningWant, PendingException, PendingWant, StRec};
use crate::handles::{RawChannel, RawMutex};
use crate::ops::{ResInverse, RtOp};
use crate::program::{DynThread, Step};
use gprs_core::ids::{SubThreadId, ThreadId};
use gprs_core::ledger::EXTERNAL_RING;
use gprs_core::recovery::{Recovery, RecoveryPolicy};
use gprs_core::resources::Inverse;
use gprs_core::rol::ReorderList;
use gprs_core::roster::ThState;
use gprs_core::wal::WalRecord;
use std::collections::BTreeMap;

/// Drains and handles every pending exception under `policy`. Requires
/// quiescence (nothing running) — the worker loop guarantees it.
pub(crate) fn perform_recovery(inner: &mut Inner, policy: RecoveryPolicy) {
    debug_assert_eq!(inner.running, 0, "recovery requires quiescence");
    let mut walk = std::mem::take(&mut inner.walk);
    while let Some(pe) = inner.pending_exceptions.pop_front() {
        inner.stats.exceptions += 1;
        let rol = &mut inner.rol;
        let begin = |c| walk.begin(rol, &inner.ledger, EXTERNAL_RING, c, pe.exception);
        if !pe.culprit.is_some_and(begin) {
            inner.stats.exceptions_ignored += 1;
            continue;
        }
        let started = std::time::Instant::now();
        recover_one(inner, &mut walk, policy);
        let host_ns = started.elapsed().as_nanos() as u64;
        inner.stats.squashed += walk.end(&inner.ledger, Some(host_ns));
        inner.stats.recoveries += 1;
        // Chaos overlap point: a `MidRecovery(n)` event keyed to this
        // session queues its exceptions now, while this pass still holds
        // the quiesced machine — the loop re-pops and recovers them in the
        // same pass (an exception during recovery).
        inner.chaos_tick_recovery();
    }
    inner.walk = walk;
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
    // Drain any genuine pending exceptions first (under Basic — sound, a
    // superset squash — and the job is being discarded anyway), then squash
    // the surviving suffix from its oldest entry. A chaos `MidRecovery`
    // overlay may queue fresh exceptions during either pass; the loop
    // re-drains until the machine is empty.
    perform_recovery(inner, RecoveryPolicy::Basic);
    while let Some(oldest) = inner.rol.head().map(|e| e.id()) {
        inner.pending_exceptions.push_back(PendingException {
            exception: Exception::global(ExceptionKind::ResourceRevocation, ContextId::new(0), 0),
            culprit: Some(oldest),
        });
        perform_recovery(inner, RecoveryPolicy::Basic);
    }
    debug_assert_eq!(inner.wal.len(), 0, "cancellation leaves no in-flight suffix");
}

/// The undo's buffers, kept in [`Inner`] for the next recovery beside the
/// walk's own. Once the first recoveries have grown them to the run's
/// largest squash, a recovery allocates nothing (`tests/alloc_budget.rs`).
#[derive(Default)]
pub(crate) struct RexScratch {
    records: Vec<WalRecord<RtOp>>,
    relocks: Vec<ResInverse>,
}

/// Plans, squashes out and undoes the session `walk` began, then re-arms
/// the squashed threads.
fn recover_one(inner: &mut Inner, walk: &mut Recovery<StRec>, policy: RecoveryPolicy) {
    let mut s = inner.rex.take().unwrap_or_default();
    let planned = walk.plan(&inner.rol, &inner.ledger, policy);
    let escalated = planned.map(|scope| {
        widen_to_readers(&inner.rol, &mut scope.ids);
        scope.escalated.is_some()
    });
    inner.stats.hybrid_escalations += u64::from(escalated == Ok(true));
    let walked = escalated
        .and_then(|_| walk.squash_out(&mut inner.rol, &mut inner.ledger, |_| EXTERNAL_RING));
    // A culprit or squashed entry that vanished ends the walk there and
    // poisons; what was taken out is still undone, and only that: a
    // recovery pass holds the whole quiesced machine and must not panic.
    if let Err(e) = walked {
        inner.poison(format!(
            "recovery: {e} left the ROL mid-walk (divergent replay or \
             corrupted schedule state)"
        ));
    }

    // Read off each removed record, oldest first, for order-faithful redo:
    // whether a lock or atomic operation opened it. Those re-executions must re-acquire in
    // exactly this total order, or replayed critical sections could
    // interleave differently than the fault-free execution; queued redos
    // of threads being re-squashed are superseded. Race-detector facts of
    // squashed work go back to the pool: the re-execution re-records them.
    let removed = walk.removed();
    for (t, _, _) in removed.iter() {
        inner.redo_locks.retain(|queued| queued != t);
    }
    for (t, _, rec) in removed.iter_mut().rev() {
        if matches!(rec.want, OpeningWant::Lock(_) | OpeningWant::FetchAdd(_, _)) {
            inner.redo_locks.push_back(*t);
        }
        recycle_access_vec(&mut inner.access_pool, std::mem::take(&mut rec.accesses));
    }

    // --- 1. WAL undo, newest first. -----------------------------------
    // The removed ids descend (youngest first), so membership is a binary
    // search.
    let squashed = |id: &SubThreadId| removed.binary_search_by(|r| id.cmp(&r.1)).is_ok();
    inner.wal.take_undo_into(|id| squashed(&id), &mut s.records);
    let mut reclaimed: BTreeMap<ThreadId, Box<dyn DynThread>> = BTreeMap::new();
    for rec in s.records.drain(..) {
        inner.ledger.wal_undone(rec.subthread);
        let undone = undo_op(inner, rec.op, &mut reclaimed);
        poison_on(inner, undone);
    }

    // --- 2. Lock data and checkpoints, newest first. ------------------
    let relocks = inner.hist.relocks.extract_if(.., |(_, s, _)| squashed(s));
    s.relocks.extend(relocks.map(|(_, _, relock)| relock));
    for relock in s.relocks.drain(..).rev() {
        let undone = inner.res.undo(relock).map_err(|e| e.to_string());
        poison_on(inner, undone);
    }
    let undone = restore_checkpoints(inner, removed, &mut reclaimed);
    poison_on(inner, undone);

    // --- 3. Re-arm squashed threads, in thread order. -------------------
    for (t, opening) in walk.restarts(&inner.ledger) {
        let reinstated = reinstate(inner, t, opening, &mut reclaimed);
        poison_on(inner, reinstated);
    }

    // --- 4. Take back the releases the squashed arrivals fed. -----------
    for &(b, gen) in walk.arrivals() {
        let threads = &mut inner.threads;
        let reason = inner.roster.take_back(&mut inner.enforcer, b, gen, |t| {
            let Some(rec) = threads.get_mut(&t) else { return false };
            let again = matches!(rec.pending, Some(PendingWant::Resume(rb, g)) if rb == b && g >= gen);
            if again {
                rec.pending = None;
            }
            again
        });
        inner.poison_on(reason);
    }
    inner.rex = Some(s);
    debug_assert!(
        reclaimed.is_empty(),
        "every reclaimed child is re-owned by a respawn request"
    );
}

/// Widens the squash `ids` (ascending) to the reorder-list suffix from the
/// oldest entry outside them that read a younger scoped entry's lock data
/// ([`StRec::reads_younger`]): the squash restores that data, so the reader
/// re-runs too. A suffix is closed under every other edge.
fn widen_to_readers(rol: &ReorderList<StRec>, ids: &mut Vec<SubThreadId>) {
    loop {
        let reader = rol.iter().find(|e| {
            let read = |w| ids.iter().any(|&s| e.id() < s && s <= w);
            ids.binary_search(&e.id()).is_err() && e.rec.reads_younger.is_some_and(read)
        });
        let Some(first) = reader.map(|e| e.id()) else { return };
        ids.clear();
        ids.extend(rol.iter().map(|e| e.id()).filter(|&id| id >= first));
    }
}

/// Poisons the run with what a recovery found inconsistent — what a
/// divergent replay or a corrupted WAL or schedule leaves behind — never
/// panicking with the state lock held.
fn poison_on(inner: &mut Inner, undone: Result<(), String>) {
    if let Err(why) = undone {
        inner.poison(format!("recovery: {why} (divergent replay or corrupted state)"));
    }
}

/// A thread's inconsistency, by name.
fn corrupt(thread: ThreadId, why: &str) -> String {
    format!("thread {} {why}", thread.raw())
}

/// Applies the inverse of one logged runtime operation.
fn undo_op(
    inner: &mut Inner,
    op: RtOp,
    reclaimed: &mut BTreeMap<ThreadId, Box<dyn DynThread>>,
) -> Result<(), String> {
    match op {
        RtOp::Res(inverse) => {
            if let Inverse::Unexit(thread) = inverse {
                let rec = inner
                    .threads
                    .get_mut(&thread)
                    .ok_or_else(|| corrupt(thread, "was un-exited but does not exist"))?;
                rec.final_st = None;
                inner.roster.revive(&mut inner.enforcer, thread)?;
            }
            inner.res.undo(inverse).map_err(|e| e.to_string())?;
        }
        RtOp::BarrierArrive { .. } => {
            // The arriving thread's latest sub-thread is squashed with the
            // arrival's ender, so its restart (or its un-spawn) takes it off
            // the waiting list. A deferred cross-domain publication leaves
            // with the squashed ender's entry, so the hub never counts an
            // arrival that un-happened (re-execution re-defers it).
        }
        RtOp::SpawnChild { child } => {
            let mut crec = inner
                .threads
                .remove(&child)
                .ok_or_else(|| corrupt(child, "was un-spawned but never created"))?;
            if let Some(why) = inner.roster.remove(&mut inner.enforcer, child) {
                return Err(why);
            }
            let program = crec
                .program
                .take()
                .ok_or_else(|| corrupt(child, "was un-spawned with no parked program"))?;
            reclaimed.insert(child, program);
        }
    }
    Ok(())
}

/// Restores the checkpoint each `removed` record carries, youngest first,
/// so each thread ends at its oldest squashed one; an un-spawned child's
/// lands on its reclaimed program. Checkpoints of different threads
/// restore different programs, so only the order within a thread matters.
/// A checkpoint's box goes back to its thread, whose re-grant overwrites it
/// instead of allocating one.
fn restore_checkpoints(
    inner: &mut Inner,
    removed: &mut [(ThreadId, SubThreadId, StRec)],
    reclaimed: &mut BTreeMap<ThreadId, Box<dyn DynThread>>,
) -> Result<(), String> {
    for (t, id, rec) in removed.iter_mut() {
        let Some(snap) = rec.snap.take() else {
            return Err(corrupt(*t, &format!("had {id} squashed before its checkpoint landed")));
        };
        if let Some(rec) = inner.threads.get_mut(t) {
            // A checked-out program during recovery means the
            // quiescence invariant broke.
            let why = "had its program checked out during checkpoint restore";
            let p = rec.program.as_mut().ok_or_else(|| corrupt(*t, why))?;
            p.restore_from(snap.as_ref());
            rec.spare_snap.get_or_insert(snap);
        } else if let Some(program) = reclaimed.get_mut(t) {
            program.restore_from(snap.as_ref());
        }
    }
    Ok(())
}

/// Re-arms a squashed thread with the request that opened its oldest
/// squashed sub-thread.
fn reinstate(
    inner: &mut Inner,
    thread: ThreadId,
    opening: StRec,
    reclaimed: &mut BTreeMap<ThreadId, Box<dyn DynThread>>,
) -> Result<(), String> {
    let Some(rec) = inner.threads.get_mut(&thread) else {
        // The thread itself was un-spawned; its parent's reinstated spawn
        // request owns its program now.
        return Ok(());
    };
    rec.current_st = opening.prev;
    // It re-executes from before (or at) its arrival or exit.
    if inner.roster.revive(&mut inner.enforcer, thread)? == ThState::Done {
        inner.res.undo(Inverse::Unexit(thread)).map_err(|e| e.to_string())?;
    }

    rec.pending = match opening.want {
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
        } => {
            let why = "was reinstated without its un-spawned child's program";
            let program = reclaimed.remove(&child).ok_or_else(|| corrupt(thread, why))?;
            Some(PendingWant::Respawn {
                child,
                group,
                weight,
                program,
            })
        }
        // Re-parked instead if the squash took the release back.
        OpeningWant::Resume(b, gen) => Some(PendingWant::Resume(b, gen)),
    };
    Ok(())
}
