//! Isolated probes: each calls one layer's public functions in a tight
//! loop on inputs shaped like the `chain` workloads (8 threads in one
//! group, one WAL record per sub-thread, a handful of entries in flight)
//! and reports nanoseconds per call. Their sum is what the grant path
//! *would* cost if it were only these calls; what is left of
//! `runtime.engine.self_ns_per_grant` is lock, hand-off and parking.

use gprs_core::prelude::*;
use gprs_core::recording::{DriveMode, RecordedOutcome, Recorder, Recording, RecordingHeader};
use gprs_telemetry::{RetiredOrderHash, ScheduleHash, Telemetry, TelemetryConfig, TraceEvent};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Logical threads of the chain workloads.
const THREADS: u32 = 8;
/// Entries in flight in the probes that need a populated reorder list: two
/// workers keep at most a few sub-threads between grant and retirement.
const IN_FLIGHT: u64 = 4;

/// Nanoseconds per call of each probed layer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub grant_ns: f64,
    pub rol_cycle_ns: f64,
    pub wal_cycle_ns: f64,
    pub wal_undo_ns: f64,
    pub plan_ns: f64,
    pub event_ns: f64,
    pub hash_fold_ns: f64,
}

impl Probes {
    /// What one fault-free grant costs in probed calls: its ordered grant,
    /// its reorder-list and WAL life cycles, the events the engine logs for
    /// it (create, grant, checkpoint, WAL append, retire, WAL prune) and
    /// its two hash folds.
    pub fn per_clean_grant(&self) -> f64 {
        self.grant_ns
            + self.rol_cycle_ns
            + self.wal_cycle_ns
            + 6.0 * self.event_ns
            + self.hash_fold_ns
    }

    /// What one recovery adds: its plan and its undo walk.
    pub fn per_recovery(&self) -> f64 {
        self.plan_ns + self.wal_undo_ns
    }
}

fn per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn subthread(i: u64) -> SubThread {
    SubThread::new(
        SubThreadId::new(i),
        ThreadId::new((i % u64::from(THREADS)) as u32),
        GroupId::new(0),
        SubThreadKind::AtomicOp,
        Some(SyncOp::Atomic(AtomicId::new(i % u64::from(THREADS)))),
    )
}

pub fn run(iters: u64) -> Probes {
    let mut p = Probes::default();

    let mut enforcer = OrderEnforcer::with_schedule(ScheduleKind::BalanceBasic);
    for t in 0..THREADS {
        enforcer
            .register_thread(ThreadId::new(t), GroupId::new(0), 1)
            .expect("distinct thread ids");
    }
    p.grant_ns = per_call(iters, |_| {
        let holder = enforcer
            .holder()
            .expect("live threads always have a holder");
        black_box(enforcer.try_grant(holder));
    });

    let mut rol = ReorderList::new();
    let mut retired = Vec::with_capacity(4);
    p.rol_cycle_ns = per_call(iters, |i| {
        rol.insert(subthread(i)).expect("ids ascend");
        rol.mark_completed(SubThreadId::new(i))
            .expect("just inserted");
        retired.clear();
        rol.retire_ready_into(&mut retired);
        black_box(retired.len());
    });

    let mut wal: WriteAheadLog<u64> = WriteAheadLog::new();
    p.wal_cycle_ns = per_call(iters, |i| {
        let st = SubThreadId::new(i);
        black_box(wal.append(st, i));
        black_box(wal.prune_retired(st));
    });

    // Undo: IN_FLIGHT records outstanding, the newest two squashed.
    let undo_iters = (iters / 8).max(1);
    p.wal_undo_ns = per_call(undo_iters, |i| {
        let base = i * IN_FLIGHT;
        for k in 0..IN_FLIGHT {
            wal.append(SubThreadId::new(base + k), k);
        }
        let squash: BTreeSet<SubThreadId> = (IN_FLIGHT - 2..IN_FLIGHT)
            .map(|k| SubThreadId::new(base + k))
            .collect();
        black_box(wal.take_undo_records(&squash).len());
        for k in 0..IN_FLIGHT - 2 {
            wal.prune_retired(SubThreadId::new(base + k));
        }
    });

    let mut rol = ReorderList::new();
    for i in 0..IN_FLIGHT {
        rol.insert(subthread(i)).expect("ids ascend");
    }
    rol.mark_excepted(
        SubThreadId::new(1),
        Exception::global(ExceptionKind::SoftFault, ContextId::new(0), 0),
    )
    .expect("entry 1 is in flight");
    let mode = RecoveryMode::Selective(DependencePolicy::Transitive);
    p.plan_ns = per_call(undo_iters, |_| {
        black_box(
            plan_recovery(&rol, SubThreadId::new(1), mode, Precision::SubThread)
                .expect("culprit is excepted")
                .squash
                .len(),
        );
    });

    let telemetry = Telemetry::new(&TelemetryConfig::default(), 2);
    p.event_ns = per_call(iters, |i| {
        telemetry.record(
            (i % 2) as usize,
            TraceEvent::Grant {
                subthread: i,
                thread: (i % 8) as u32,
            },
        );
    });

    let mut sched = ScheduleHash::new();
    let mut order = RetiredOrderHash::new();
    p.hash_fold_ns = per_call(iters, |i| {
        sched.record(i, (i % 8) as u32);
        order.record((i % 8) as u32, 3);
    });
    black_box((sched.digest(), order.digest()));
    p
}

/// Tape codec cost per event: `(write_ns_per_evt, parse_ns_per_evt)` over a
/// synthetic tape of `events` pipeline-shaped events (4 threads).
pub fn recording_codec(events: u64) -> (f64, f64) {
    let mut rec = Recorder::new(RecordingHeader {
        workload: "probe".into(),
        seed: 0,
        mode: DriveMode::Pool,
        schedule: ScheduleKind::BalanceWeighted.tag().to_string(),
        workers: 2,
        spec: None,
        chaos: None,
    });
    for i in 0..events {
        rec.record_event((i % 4) as u32, (i % 3) as u8 + 1);
    }
    let recording: Recording = rec.finish(1, 2, RecordedOutcome::Complete);
    let t0 = Instant::now();
    let text = recording.to_text();
    let write_ns = t0.elapsed().as_nanos() as f64 / events as f64;
    let t0 = Instant::now();
    let parsed = Recording::parse(&text).expect("a tape just written parses");
    let parse_ns = t0.elapsed().as_nanos() as f64 / events as f64;
    assert_eq!(parsed.events.len() as u64, events);
    (write_ns, parse_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_measures_something() {
        let p = run(2_000);
        for (name, v) in [
            ("grant", p.grant_ns),
            ("rol", p.rol_cycle_ns),
            ("wal", p.wal_cycle_ns),
            ("undo", p.wal_undo_ns),
            ("plan", p.plan_ns),
            ("event", p.event_ns),
            ("hash", p.hash_fold_ns),
        ] {
            assert!(v > 0.0 && v < 1e6, "{name}: {v} ns");
        }
        assert!(p.per_clean_grant() > p.grant_ns);
        let (w, r) = recording_codec(500);
        assert!(w > 0.0 && r > 0.0);
    }
}
