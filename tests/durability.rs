//! Durable-recovery integration tests: the persistent WAL + checkpoint
//! store end to end, across in-process "crashes" (the engine dropped
//! mid-flight, its durable directory left exactly as a SIGKILL would).
//!
//! Restart *is* recovery: a resumed run re-executes the job from its
//! durable `Spec` record and verifies itself retirement-by-retirement
//! against the durable `Retire` prefix, so these tests assert the
//! resumed run converges bit-identically to a never-crashed twin.

use gprs_core::persist::{
    corrupt_tail_for_testing, unique_temp_dir, DurableRecord, FileBackend, PersistBackend,
};
use gprs_runtime::report::RunReport;
use gprs_runtime::session::QuantumOutcome;
use gprs_serve::{build_job_durable, build_solo, JobSpec, PoolConfig, ServePool};
use std::path::Path;
use std::sync::Arc;

/// Runs a durable job for at most `quanta` 8-grant quanta, then drops the
/// session mid-flight (the in-process crash: no cancel, no finish, no
/// seal). Returns true if it crashed mid-flight, false if the job was
/// short enough to finish first.
fn crash_after(dir: &Path, spec: &JobSpec, quanta: u64) -> bool {
    let backend = Arc::new(FileBackend::open(dir).expect("durable dir opens"));
    let mut session = build_job_durable(spec, 0, 0, backend, None)
        .expect("registry workload")
        .into_session();
    for _ in 0..quanta {
        if session.run_quantum(8) == QuantumOutcome::Finished {
            let _ = session.finish().expect("finished run reports");
            return false;
        }
    }
    true // drop: the crash
}

/// Loads the durable image and replays the job to completion in the same
/// (cooperative-session) drive mode, under prefix verification.
fn resume(dir: &Path, spec: &JobSpec) -> (RunReport, u64, bool) {
    let backend = Arc::new(FileBackend::open(dir).expect("durable dir reopens"));
    let image = backend.load().expect("durable image loads");
    assert_eq!(
        image.spec.as_deref(),
        Some(spec.canonical_line().as_str()),
        "the durable log identifies the job"
    );
    let prefix = image.retired_len();
    let truncated = image.truncated;
    let mut session = build_job_durable(spec, 0, 0, backend, Some(&image))
        .expect("registry workload")
        .into_session();
    while session.run_quantum(8) == QuantumOutcome::Yielded {}
    (session.finish().expect("resumed run completes"), prefix, truncated)
}

#[test]
fn crash_restart_converges_to_the_fault_free_twin() {
    let spec = JobSpec::new("pbzip", 7).faults(3);
    let golden = build_solo(&spec).unwrap().run().unwrap();
    let dir = unique_temp_dir("gprs-test-crash");
    let crashed = crash_after(&dir, &spec, 3);
    assert!(crashed, "pbzip at 3×8 grants must still be mid-flight");
    let (report, prefix, truncated) = resume(&dir, &spec);
    assert!(!truncated, "clean crash leaves no torn tail to truncate");
    assert!(prefix > 0, "the crashed run retired a durable prefix");
    assert_eq!(
        report.telemetry.retired_hash, golden.telemetry.retired_hash,
        "resumed run must be bit-identical to the never-crashed twin"
    );
    assert_eq!(report.telemetry.retired_count, golden.telemetry.retired_count);
    assert_eq!(
        report.telemetry.counter("recovered_prefix_len"),
        prefix,
        "every durable retirement was verified against the replay"
    );
    assert!(report.telemetry.counter("fsyncs") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_and_the_resume_still_converges() {
    let spec = JobSpec::new("mutex", 5).faults(2);
    let golden = build_solo(&spec).unwrap().run().unwrap();
    let dir = unique_temp_dir("gprs-test-torn");
    crash_after(&dir, &spec, 2);
    let tore = corrupt_tail_for_testing(&dir).expect("tail corruption applies");
    assert!(tore, "a mid-flight log has a tail record to tear");
    let (report, _prefix, truncated) = resume(&dir, &spec);
    assert!(truncated, "the loader must report the torn-tail truncation");
    assert_eq!(
        report.telemetry.retired_hash, golden.telemetry.retired_hash,
        "truncating to the newest consistent prefix still converges"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn completed_run_leaves_a_balanced_consistent_image() {
    let spec = JobSpec::new("fetchadd", 3);
    let dir = unique_temp_dir("gprs-test-complete");
    let backend = Arc::new(FileBackend::open(&dir).expect("durable dir opens"));
    let report = build_job_durable(&spec, 0, 0, backend.clone(), None)
        .unwrap()
        .run()
        .unwrap();
    let image = backend.load().expect("image loads");
    assert!(
        image.ledger_balanced(),
        "completion leaves no in-flight WAL suffix: {} appends, {} undos, {} prunes",
        image.appends,
        image.undos,
        image.prunes
    );
    assert_eq!(image.retired_len(), report.telemetry.retired_count);
    assert_eq!(
        image.retires.last().expect("non-empty run").digest,
        report.telemetry.retired_hash
    );
    if let Some(ckpt) = &image.checkpoint {
        // The merkle-verified checkpoint must agree with the retire
        // stream it summarizes.
        assert_eq!(
            ckpt.digest,
            image.retires[ckpt.retired as usize - 1].digest,
            "checkpoint digest matches the retire prefix it covers"
        );
    }
    // The WAL checksum is computed inline at append, so every durable
    // `append` line carries it and no `seal` line follows.
    assert_eq!(image.seals, 0, "the engine emits no seal records");
    let mut appends = 0u64;
    for entry in std::fs::read_dir(dir.join("segments")).expect("segment dir") {
        let text = std::fs::read_to_string(entry.expect("segment entry").path()).expect("segment");
        for line in text.lines() {
            if let Some(DurableRecord::Append { lsn, checksum, .. }) =
                DurableRecord::decode_line(line)
            {
                assert_ne!(checksum, 0, "append of lsn {lsn} carries its checksum");
                appends += 1;
            }
        }
    }
    assert_eq!(appends, image.appends, "every append line was inspected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiescent_crash_points_leave_a_balanced_ledger() {
    // A cooperative session parks at a quiescent point between quanta —
    // everything granted has retired — so every in-process crash image
    // carries a balanced durable ledger. This is the invariant the
    // halt-mid-recovery fixture sweep relies on.
    for workload in gprs_serve::WORKLOADS {
        for quanta in 1..=3u64 {
            let spec = JobSpec::new(*workload, 6).faults(4);
            let dir = unique_temp_dir("gprs-test-quiesced");
            if crash_after(&dir, &spec, quanta) {
                let image = FileBackend::open(&dir)
                    .expect("reopen")
                    .load()
                    .expect("a crashed image always loads");
                assert!(
                    image.ledger_balanced(),
                    "{workload} after {quanta} quanta: {} appends vs {} undos + {} prunes",
                    image.appends,
                    image.undos,
                    image.prunes
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn mid_quantum_kill_is_visible_as_an_unbalanced_ledger() {
    // A real SIGKILL can land between a synced Append and the Prune that
    // would balance it — something an in-process session drop can never
    // produce (it always parks quiesced). Model that torn interleaving
    // directly through the backend and check the loader surfaces it.
    let dir = unique_temp_dir("gprs-test-torn-quantum");
    let backend = FileBackend::open(&dir).expect("durable dir opens");
    backend
        .record(&DurableRecord::Spec { text: "synthetic".into() })
        .unwrap();
    for lsn in 1..=3u64 {
        backend
            .record(&DurableRecord::Append {
                lsn,
                subthread: lsn,
                checksum: 0xFEED ^ lsn,
                op: format!("op {lsn}"),
            })
            .unwrap();
    }
    backend
        .record(&DurableRecord::Prune { subthread: 1, count: 1 })
        .unwrap();
    backend.sync().unwrap();
    let image = backend.load().expect("torn image still loads");
    assert!(!image.ledger_balanced(), "two appends were never pruned");
    assert_eq!(image.appends, 3);
    assert_eq!(image.prunes, 1);
    assert_eq!(image.undos, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pool restart: a durable root with one queued-but-never-run job and one
/// crashed-mid-flight job. A freshly started pool adopts both, finishes
/// them, and their reports converge to the fault-free twins.
#[test]
fn pool_restart_resumes_durable_jobs() {
    let root = unique_temp_dir("gprs-test-pool");

    // Job 1: submitted (Spec recorded, synced) but never run — what a
    // pool crash right after admission leaves behind.
    let queued = JobSpec::new("fetchadd", 4);
    {
        let dir = root.join("job-00000001");
        let backend = FileBackend::open(&dir).expect("job dir opens");
        backend
            .record(&DurableRecord::Spec { text: queued.canonical_line() })
            .expect("spec records");
        backend.sync().expect("spec syncs");
    }

    // Job 2: crashed mid-flight with a durable retire prefix.
    let inflight = JobSpec::new("pbzip", 11).faults(2);
    let crashed = crash_after(&root.join("job-00000002"), &inflight, 3);
    assert!(crashed, "job 2 must be mid-flight at the pool crash");

    let mut pool = ServePool::start(PoolConfig {
        workers: 2,
        quantum: 16,
        durable_root: Some(root.clone()),
    });
    let resumed = pool.take_resumed();
    assert_eq!(resumed.len(), 2, "both durable jobs are adopted");
    for ticket in resumed {
        let id = ticket.id();
        let outcome = ticket.wait();
        let spec = if id == 1 { &queued } else { &inflight };
        let golden = build_solo(spec).unwrap().run().unwrap();
        let report = outcome
            .report
            .unwrap_or_else(|| panic!("resumed job {id} failed: {:?}", outcome.error));
        assert_eq!(
            report.telemetry.retired_hash, golden.telemetry.retired_hash,
            "resumed job {id} diverged from its fault-free twin"
        );
    }
    pool.shutdown();

    // Terminal outcomes leave DONE markers: a second restart adopts nothing.
    let mut pool = ServePool::start(PoolConfig {
        workers: 1,
        quantum: 16,
        durable_root: Some(root.clone()),
    });
    assert!(pool.take_resumed().is_empty(), "finished jobs are not re-run");
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
