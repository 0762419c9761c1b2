//! Cooperative (run-to-quantum) execution sessions.
//!
//! [`Gprs::run`](crate::Gprs::run) owns a pool of OS workers for the whole
//! program; a [`GprsSession`] instead lets an *external* scheduler drive the
//! program in bounded quanta on whatever thread it likes — the entry point
//! a multi-tenant serving layer (`gprs-serve`) needs to multiplex many
//! independent GPRS programs over one shared worker pool.
//!
//! A quantum runs up to `max_grants` ordered grants and then **parks**: the
//! deposit of the last step is folded in, pending recovery has completed,
//! and nothing is in flight, so the job's entire precise state — reorder
//! list, write-ahead log, history-buffer checkpoints, staged file output —
//! sits quiesced inside the engine, exactly the state the paper's restart
//! machinery maintains at a recovery point. Resuming is calling
//! [`GprsSession::run_quantum`] again; restartability doubles as the
//! *scheduling* primitive, not just the fault path.
//!
//! Because grants follow the same deterministic schedule regardless of how
//! many contexts seek them (the determinism suite pins this across 1/2/4/8
//! workers), a program driven in quanta retires in the **bit-identical
//! order** of a solo [`Gprs::run`] — multi-tenancy cannot leak into
//! determinism, which `gprs-serve`'s golden tests assert per job.

use crate::engine::{decide, execute_task, Decision, SharedRef, StepOutcome, SOLO};
use crate::report::{RunError, RunReport};
use crate::Controller;

/// A point-in-time dump of a session's **precise state** — the quiesced
/// machine a parked quantum leaves behind: where every thread stands, who
/// holds which lock, how the WAL ledger balances, and how far the
/// deterministic grant stream has advanced. This is what `gprs-replay
/// state` prints after replaying a recording to a chosen grant index:
/// time-travel debugging's "what did the world look like right here".
#[derive(Debug, Clone)]
pub struct PreciseState {
    /// Ordered grants issued so far.
    pub grants: u64,
    /// Recorded events verified so far, when the session is replaying a
    /// recording (`None` on live runs). Counts every turn-consuming event
    /// — grants, barrier arrivals, thread exits — i.e. positions in the
    /// recording's event stream, which `grants` alone undercounts.
    pub replayed: Option<u64>,
    /// Streaming schedule-hash digest at this point.
    pub schedule_digest: u64,
    /// Streaming retired-order digest at this point.
    pub retired_digest: u64,
    /// Threads that have not yet exited.
    pub live_threads: u64,
    /// Per-thread lines: `(thread, state, pending want, current sub-thread)`.
    pub threads: Vec<(u32, String, Option<String>, Option<u64>)>,
    /// Per-lock lines: `(lock, holding sub-thread)`.
    pub locks: Vec<(u64, Option<u64>)>,
    /// In-flight (un-retired) sub-threads in the reorder list.
    pub rol_len: u64,
    /// Live (un-pruned, un-undone) write-ahead-log records.
    pub wal_len: u64,
    /// Total WAL records ever appended.
    pub wal_appended: u64,
    /// WAL records pruned by retirement.
    pub wal_pruned: u64,
    /// The poison message, if the run has already failed.
    pub poisoned: Option<String>,
}

impl std::fmt::Display for PreciseState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "grants {}  schedule {:016x}  retired {:016x}",
            self.grants, self.schedule_digest, self.retired_digest
        )?;
        match self.replayed {
            Some(n) => writeln!(f, "  replayed {n} events")?,
            None => writeln!(f)?,
        }
        writeln!(
            f,
            "live {}  rol {}  wal {} live / {} appended / {} pruned",
            self.live_threads, self.rol_len, self.wal_len, self.wal_appended, self.wal_pruned
        )?;
        for (tid, state, pending, st) in &self.threads {
            write!(f, "thread {tid}: {state}")?;
            if let Some(p) = pending {
                write!(f, ", wants {p}")?;
            }
            if let Some(s) = st {
                write!(f, ", in sub-thread {s}")?;
            }
            writeln!(f)?;
        }
        for (lock, holder) in &self.locks {
            match holder {
                Some(st) => writeln!(f, "lock {lock}: held by sub-thread {st}")?,
                None => writeln!(f, "lock {lock}: free")?,
            }
        }
        if let Some(msg) = &self.poisoned {
            writeln!(f, "poisoned: {msg}")?;
        }
        Ok(())
    }
}

/// Why [`GprsSession::run_quantum`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumOutcome {
    /// The grant budget was exhausted; the job parked at a quiescent point
    /// and can be resumed with another `run_quantum` call.
    Yielded,
    /// The program finished (all threads exited) or poisoned; call
    /// [`GprsSession::finish`] for the report.
    Finished,
}

/// A program being executed cooperatively, quantum by quantum, on the
/// caller's thread. Created by [`crate::Gprs::into_session`].
///
/// A session is single-driver: one thread at a time calls `run_quantum`
/// (the type is `Send` but deliberately exposes only `&mut` execution), so
/// between calls the machine is always quiesced. Exceptions can still be
/// injected concurrently through a [`Controller`]; they are recovered at
/// the next quantum boundary the engine reaches — including the final one,
/// via the same trailing-grant gate ordering as the pooled worker loop.
#[derive(Debug)]
pub struct GprsSession {
    pub(crate) shared: SharedRef,
    pub(crate) analysis: Option<gprs_analyze::AnalysisReport>,
    pub(crate) done: bool,
    pub(crate) cancelled: bool,
}

impl GprsSession {
    /// Runs up to `max_grants` ordered grants (minimum 1) on the calling
    /// thread. Returns [`QuantumOutcome::Yielded`] with the job parked at a
    /// quiescent point, or [`QuantumOutcome::Finished`] when the program
    /// completed (or poisoned). Calling again after `Finished` is a no-op
    /// returning `Finished`.
    pub fn run_quantum(&mut self, max_grants: u64) -> QuantumOutcome {
        if self.done {
            return QuantumOutcome::Finished;
        }
        let mut budget = max_grants.max(1);
        let mut finished: Option<StepOutcome> = None;
        loop {
            match decide::<SOLO>(&self.shared, 0, finished.take(), budget > 0) {
                Decision::Run { task, .. } => {
                    budget -= 1;
                    finished = Some(execute_task(&self.shared, 0, task));
                }
                Decision::Parked => return QuantumOutcome::Yielded,
                Decision::Finished => {
                    self.done = true;
                    return QuantumOutcome::Finished;
                }
            }
        }
    }

    /// Runs the program to completion on the calling thread (an unbounded
    /// sequence of quanta).
    pub fn run_to_completion(&mut self) {
        while self.run_quantum(u64::MAX) != QuantumOutcome::Finished {}
    }

    /// Cancels the job at the current (parked) quantum boundary: every
    /// in-flight sub-thread is squashed through the ordinary basic-restart
    /// path — WAL records undone, history checkpoints applied, staged file
    /// output dropped — so the ledger balances
    /// (`wal_appends == wal_undos + wal_prunes`) and everything already
    /// retired stays committed. The synthetic exception is accounted as a
    /// [`ResourceRevocation`](gprs_core::exception::ExceptionKind) in the
    /// job's stats. After `cancel`, [`finish`](Self::finish) returns the
    /// partial report. No-op on a finished session.
    pub fn cancel(&mut self) {
        if self.done {
            return;
        }
        let mut g = self.shared.inner.lock();
        debug_assert!(
            g.running.is_empty(),
            "cancel is called between quanta, with the session quiesced"
        );
        crate::rex::cancel_inflight(&mut g);
        g.cancelled_note = Some(format!(
            "run cancelled at a quantum boundary after {} grants",
            g.stats.grants
        ));
        drop(g);
        self.shared
            .done
            .store(true, std::sync::atomic::Ordering::Release);
        self.done = true;
        self.cancelled = true;
    }

    /// Whether the program has run to completion (or was cancelled).
    pub fn is_finished(&self) -> bool {
        self.done
    }

    /// Whether the session was cancelled (vs. running to completion).
    pub fn was_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Ordered grants issued so far (scheduling diagnostics).
    pub fn grants(&self) -> u64 {
        self.shared.inner.lock().stats.grants
    }

    /// Captures the session's quiesced [`PreciseState`]. Valid whenever no
    /// quantum is in flight — between `run_quantum` calls, or after the
    /// session finished (including by poisoning), which is exactly when a
    /// replay driver wants to inspect the reconstructed world.
    pub fn precise_state(&self) -> PreciseState {
        let g = self.shared.inner.lock();
        let (schedule_digest, retired_digest) = g.ledger.digests();
        PreciseState {
            grants: g.stats.grants,
            replayed: g.ledger.replay_pos().map(|pos| pos as u64),
            schedule_digest,
            retired_digest,
            live_threads: g.live as u64,
            threads: g
                .threads
                .iter()
                .map(|(tid, rec)| {
                    (
                        tid.raw(),
                        format!("{:?}", rec.state),
                        rec.pending.as_ref().map(|p| format!("{p:?}")),
                        rec.current_st.map(|s| s.raw()),
                    )
                })
                .collect(),
            locks: g
                .locks
                .iter()
                .map(|(id, rec)| (id.raw(), rec.holder.map(|s| s.raw())))
                .collect(),
            rol_len: g.rol.len() as u64,
            wal_len: g.wal.len() as u64,
            wal_appended: g.wal.appended(),
            wal_pruned: g.wal.pruned(),
            poisoned: g.poisoned.clone(),
        }
    }

    /// A controller for injecting exceptions while the session runs.
    pub fn controller(&self) -> Controller {
        Controller {
            shared: self.shared.clone(),
        }
    }

    /// Assembles the final [`RunReport`]. For a completed session this is
    /// identical to what [`crate::Gprs::run`] would have produced; for a
    /// cancelled session it reports whatever retired before the cancel.
    ///
    /// # Errors
    /// [`RunError::Poisoned`] if a step panicked or the program deadlocked.
    pub fn finish(self) -> Result<RunReport, RunError> {
        let mut report = crate::collect_report(&self.shared)?;
        report.analysis = self.analysis;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::StepCtx;
    use crate::handles::MutexHandle;
    use crate::program::{Step, ThreadProgram};
    use crate::GprsBuilder;
    use gprs_core::history::Checkpoint;
    use gprs_core::ids::GroupId;

    struct Worker {
        mutex: MutexHandle<u64>,
        rounds: u32,
        done: u32,
    }
    impl Checkpoint for Worker {
        type Snapshot = u32;
        fn checkpoint(&self) -> u32 {
            self.done
        }
        fn restore(&mut self, s: &u32) {
            self.done = *s;
        }
    }
    impl ThreadProgram for Worker {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
            if self.done > 0 {
                ctx.with_lock(&self.mutex, |n| *n += 1);
            }
            if self.done == self.rounds {
                return Step::exit_unit();
            }
            self.done += 1;
            self.mutex.lock()
        }
    }

    fn build(rounds: u32) -> (crate::Gprs, MutexHandle<u64>) {
        let mut b = GprsBuilder::new().job(7, 3);
        let m = b.mutex(0u64);
        for _ in 0..2 {
            b.thread(
                Worker {
                    mutex: m,
                    rounds,
                    done: 0,
                },
                GroupId::new(0),
                1,
            );
        }
        (b.build(), m)
    }

    #[test]
    fn session_matches_pooled_run() {
        let pooled = build(8).0.run().unwrap();
        let mut session = build(8).0.into_session();
        let mut quanta = 0u32;
        while session.run_quantum(3) == QuantumOutcome::Yielded {
            quanta += 1;
            assert!(quanta < 10_000, "session must terminate");
        }
        assert!(quanta > 1, "a 3-grant quantum must yield at least once");
        let report = session.finish().unwrap();
        assert_eq!(report.job_id, 7);
        assert_eq!(report.submit_seq, 3);
        assert_eq!(
            report.telemetry.retired_hash,
            pooled.telemetry.retired_hash,
            "quantum-driven execution retires in the pooled order"
        );
        assert_eq!(report.stats.locks_acquired, pooled.stats.locks_acquired);
    }

    #[test]
    fn cancel_balances_the_ledger() {
        let mut session = build(64).0.into_session();
        assert_eq!(session.run_quantum(5), QuantumOutcome::Yielded);
        session.cancel();
        assert!(session.is_finished() && session.was_cancelled());
        let report = session.finish().unwrap();
        let t = &report.telemetry;
        assert!(t.counter("wal_appends") > 0, "the quantum did DEX work");
        assert_eq!(
            t.counter("wal_appends"),
            t.counter("wal_undos") + t.counter("wal_prunes"),
            "cancelled job leaves no WAL imbalance"
        );
    }
}
