//! Durable-recovery integration tests: the durable retirement log +
//! checkpoint store end to end, across in-process "crashes" (the engine
//! dropped mid-flight, its durable directory left exactly as a SIGKILL
//! would).
//!
//! Restart *is* recovery: a resumed run re-executes the job from its
//! durable `Spec` record and verifies itself retirement-by-retirement
//! against the durable `Retire` prefix, so these tests assert the
//! resumed run converges bit-identically to a never-crashed twin.

use gprs_core::persist::{
    corrupt_tail_for_testing, unique_temp_dir, DurableImage, DurableRecord, FileBackend,
    MemoryBackend, PersistBackend, PersistError, PersistStats,
};
use gprs_runtime::report::RunReport;
use gprs_runtime::session::QuantumOutcome;
use gprs_serve::{build_job_durable, build_solo, JobSpec, PoolConfig, ServePool};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Runs a durable job — fresh, or resumed from what `dir` holds — for at
/// most `quanta` 8-grant quanta, then drops the session mid-flight (the
/// in-process crash: no cancel, no finish, no seal). Returns true if it
/// crashed mid-flight, false if the job was short enough to finish first.
fn crash_after_in(dir: &Path, spec: &JobSpec, quanta: u64, resumed: bool) -> bool {
    let backend = Arc::new(FileBackend::open(dir).expect("durable dir opens"));
    let image = resumed.then(|| backend.load().expect("durable image loads"));
    let mut session = build_job_durable(spec, 0, 0, backend, image.as_ref())
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

fn crash_after(dir: &Path, spec: &JobSpec, quanta: u64) -> bool {
    crash_after_in(dir, spec, quanta, false)
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

/// Flips one byte in the middle of segment `ix` of `dir` (a bit-flip at
/// rest, as opposed to a torn tail).
fn flip_mid_segment(dir: &Path, ix: u64) {
    let path = dir.join("segments").join(format!("seg-{ix:08}.log"));
    let mut bytes = std::fs::read(&path).expect("segment exists");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    std::fs::write(&path, bytes).expect("segment rewrites");
}

fn load(dir: &Path) -> DurableImage {
    FileBackend::open(dir)
        .expect("durable dir reopens")
        .load()
        .expect("a damaged directory still loads")
}

/// The process dies twice. The first crash tears the tail of its segment;
/// the resumed run logs a whole new epoch into the next segment and is
/// killed too. What the second run made durable must be visible to the
/// third: a damaged line ends the epoch it is in, not the log.
#[test]
fn a_torn_tail_does_not_hide_the_epochs_logged_after_it() {
    let spec = JobSpec::new("pbzip", 7);
    let golden = build_solo(&spec).unwrap().run().unwrap();
    let dir = unique_temp_dir("gprs-test-two-crashes");
    assert!(crash_after(&dir, &spec, 2), "first crash is mid-flight");
    assert!(corrupt_tail_for_testing(&dir).expect("tail corruption applies"));
    let first = load(&dir);
    assert!(first.truncated);

    assert!(crash_after_in(&dir, &spec, 3, true), "second crash is mid-flight too");
    let second = load(&dir);
    assert!(second.truncated, "the old tear is still reported");
    assert!(
        second.retired_len() > first.retired_len(),
        "the resumed run's epoch must load: {} retirements before it, {} after",
        first.retired_len(),
        second.retired_len()
    );

    let (report, prefix, _) = resume(&dir, &spec);
    assert_eq!(prefix, second.retired_len());
    assert_eq!(report.telemetry.counter("recovered_prefix_len"), prefix);
    assert_eq!(report.telemetry.retired_hash, golden.telemetry.retired_hash);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flips in a *sealed* segment of a finished run. The loader keeps
/// the prefix before the flip and drops the rest of that epoch — every
/// later segment of it included — the resume re-verifies that prefix and
/// converges, and its own epoch then loads whole. The image is written in
/// the session drive mode the resume replays in: retirement order is fixed
/// per drive mode, and a worker pool's chaos victims depend on which
/// sub-threads happen to be running.
#[test]
fn a_bit_flip_in_a_sealed_segment_ends_that_epoch_only() {
    let spec = JobSpec::new("beacon", 32).faults(2);
    let golden = build_solo(&spec).unwrap().run().unwrap();
    let dir = unique_temp_dir("gprs-test-bit-flip");
    let backend = FileBackend::open(&dir).expect("durable dir opens").with_segment_cap(16);
    let mut session = build_job_durable(&spec, 0, 0, Arc::new(backend), None)
        .unwrap()
        .into_session();
    while session.run_quantum(8) == QuantumOutcome::Yielded {}
    let report = session.finish().unwrap();
    let total = report.telemetry.retired_count;
    assert!(report.telemetry.counter("wal_segments_sealed") >= 4, "16 records a segment");
    assert_eq!(load(&dir).retired_len(), total);

    flip_mid_segment(&dir, 1);
    let damaged = load(&dir);
    assert!(damaged.truncated);
    assert!(
        (16..32).contains(&damaged.prefix_records),
        "the epoch ends inside segment 1, not at the log's end: {} records",
        damaged.prefix_records
    );
    assert_eq!(damaged.retires.last().unwrap().retired, damaged.retired_len());

    let (resumed, prefix, truncated) = resume(&dir, &spec);
    assert!(truncated);
    assert_eq!(prefix, damaged.retired_len());
    assert_eq!(resumed.telemetry.counter("recovered_prefix_len"), prefix);
    assert_eq!(resumed.telemetry.retired_hash, golden.telemetry.retired_hash);
    let after = load(&dir);
    assert!(after.truncated, "the flipped bit is still there");
    assert_eq!(after.retired_len(), total, "the resumed run's epoch is complete");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn completed_run_leaves_a_balanced_consistent_image() {
    let spec = JobSpec::new("beacon", 32);
    let dir = unique_temp_dir("gprs-test-complete");
    let backend = Arc::new(FileBackend::open(&dir).expect("durable dir opens"));
    let report = build_job_durable(&spec, 0, 0, backend.clone(), None)
        .unwrap()
        .run()
        .unwrap();
    let image = backend.load().expect("image loads");
    assert_eq!(image.retired_len(), report.telemetry.retired_count);
    assert_eq!(
        image.retires.last().expect("non-empty run").digest,
        report.telemetry.retired_hash
    );
    // The merkle-verified checkpoint must agree with the retire stream it
    // summarizes.
    let ckpt = image.checkpoint.as_ref().expect("96 retirements cross the cadence of 64");
    assert_eq!(
        ckpt.digest,
        image.retires[ckpt.retired as usize - 1].digest,
        "checkpoint digest matches the retire prefix it covers"
    );
    // What is written is what is read: every line is a record of today's
    // vocabulary, none carries a tag of the WAL mirror older commits wrote.
    let mut lines = 0u64;
    for entry in std::fs::read_dir(dir.join("segments")).expect("segment dir") {
        let text = std::fs::read_to_string(entry.expect("segment entry").path()).expect("segment");
        for line in text.lines() {
            assert!(
                matches!(DurableRecord::decode_line(line), Some(Some(_))),
                "legacy or damaged line in a fresh log: {line}"
            );
            lines += 1;
        }
    }
    assert_eq!(lines, image.prefix_records, "every line was inspected");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`MemoryBackend`] that also keeps everything it was handed, in order,
/// so a test can count records by kind and rebuild copies of the log.
#[derive(Debug, Default)]
struct Taped {
    inner: MemoryBackend,
    records: Mutex<Vec<DurableRecord>>,
    chunks: Mutex<Vec<Vec<u8>>>,
}

impl Taped {
    /// `(spec, retire, checkpoint)` records written.
    fn counts(&self) -> (usize, usize, usize) {
        let recs = self.records.lock().unwrap();
        let n = |f: fn(&DurableRecord) -> bool| recs.iter().filter(|r| f(r)).count();
        (
            n(|r| matches!(r, DurableRecord::Spec { .. })),
            n(|r| matches!(r, DurableRecord::Retire { .. })),
            n(|r| matches!(r, DurableRecord::Checkpoint { .. })),
        )
    }

    /// A fresh backend holding the same log and chunk store.
    fn copy(&self) -> Arc<MemoryBackend> {
        let copy = MemoryBackend::new();
        for chunk in self.chunks.lock().unwrap().iter() {
            copy.put_chunk(chunk).unwrap();
        }
        for rec in self.records.lock().unwrap().iter() {
            copy.record(rec).unwrap();
        }
        Arc::new(copy)
    }
}

impl PersistBackend for Taped {
    fn record(&self, rec: &DurableRecord) -> Result<(), PersistError> {
        self.records.lock().unwrap().push(rec.clone());
        self.inner.record(rec)
    }
    fn put_chunk(&self, bytes: &[u8]) -> Result<u64, PersistError> {
        self.chunks.lock().unwrap().push(bytes.to_vec());
        self.inner.put_chunk(bytes)
    }
    fn get_chunk(&self, hash: u64) -> Option<Vec<u8>> {
        self.inner.get_chunk(hash)
    }
    fn sync(&self) -> Result<(), PersistError> {
        self.inner.sync()
    }
    fn stats(&self) -> PersistStats {
        self.inner.stats()
    }
    fn load(&self) -> Result<DurableImage, PersistError> {
        self.inner.load()
    }
}

/// Both engines write the same vocabulary: a durable run that retires *R*
/// sub-threads and takes *C* checkpoints logs one `Spec`, *R* `Retire` and
/// *C* `Checkpoint` records and nothing else — squashed work, WAL appends,
/// undos and prunes leave no line.
#[test]
fn a_durable_run_logs_one_spec_and_one_record_per_retirement_and_checkpoint() {
    for spec in [JobSpec::new("beacon", 32), JobSpec::new("beacon", 32).faults(3)] {
        let tape = Arc::new(Taped::default());
        let report = build_job_durable(&spec, 0, 0, tape.clone(), None)
            .unwrap()
            .run()
            .unwrap();
        let retired = report.telemetry.retired_count as usize;
        let (specs, retires, ckpts) = tape.counts();
        assert_eq!((specs, retires), (1, retired), "{spec:?}");
        assert_eq!(ckpts, 1, "{spec:?}: 96 retirements, one checkpoint at 64");
        assert_eq!(tape.inner.record_count(), 1 + retired + ckpts, "{spec:?}");
        assert_eq!(report.stats.exceptions > 0, spec.fault_seed != 0);
        assert!(report.telemetry.counter("wal_appends") > 0, "the in-memory WAL was busy");
    }

    use gprs_core::exception::InjectorConfig;
    use gprs_sim::{secs_to_cycles, CYCLES_PER_SEC};
    use gprs_sim::gprs::{run_gprs, GprsSimConfig};
    use gprs_workloads::traces::{build, TraceParams};
    let w = build("pbzip2", &TraceParams::paper().scaled(0.01));
    let clean = GprsSimConfig::balance_aware(8);
    let faulty = GprsSimConfig::balance_aware(8)
        .with_exceptions(InjectorConfig::paper(6.0, 8, CYCLES_PER_SEC).with_seed(3))
        .with_time_cap(secs_to_cycles(600.0));
    for cfg in [clean, faulty] {
        let injected = cfg.exceptions.is_some();
        let tape = Arc::new(Taped::default());
        let r = run_gprs(&w, &cfg.with_persist(tape.clone()));
        assert!(r.completed, "{r}");
        assert_eq!(r.squashed > 0, injected);
        let retired = r.telemetry.retired_count as usize;
        // The simulator takes no checkpoints: C is 0.
        assert_eq!(tape.counts(), (1, retired, 0));
        assert_eq!(tape.inner.record_count(), 1 + retired);
    }
}

/// A directory written by the commit before the WAL mirror went (PR 18's
/// `gprs-serve --durable-run … beacon 32 fault=3 --quantum 8 --crash-after
/// 10`): 155 `append`, 3 `undo` and 78 `prune` lines among one `spec`, 78
/// `retire` and one `ckpt`. It must load to exactly what it says and
/// resume to the solo golden.
#[test]
fn a_directory_written_with_the_wal_mirror_still_resumes() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/durable-written-by-pr18");
    let dir = unique_temp_dir("gprs-test-legacy-dir");
    for sub in ["segments", "cas"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
        for entry in std::fs::read_dir(fixture.join(sub)).expect("fixture present") {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(sub).join(entry.file_name())).unwrap();
        }
    }
    let image = load(&dir);
    assert!(!image.truncated);
    assert_eq!(image.spec.as_deref(), Some("beacon 32 fault=3"));
    assert_eq!(image.retired_len(), 78);
    assert_eq!(image.prefix_records, 80, "spec + 78 retires + ckpt; 236 legacy lines skipped");
    assert_eq!(image.checkpoint.as_ref().map(|c| c.retired), Some(64));

    let spec = JobSpec::new("beacon", 32).faults(3);
    let golden = build_solo(&spec).unwrap().run().unwrap();
    let (report, prefix, _) = resume(&dir, &spec);
    assert_eq!(prefix, 78);
    assert_eq!(report.telemetry.counter("recovered_prefix_len"), 78);
    assert_eq!(report.telemetry.retired_hash, golden.telemetry.retired_hash);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash-point enumeration: for one small job per registry workload, cut
/// the finished run's log at *every* record boundary — the whole log lost,
/// only the `Spec` left, each retirement, the checkpoint — and resume from
/// what survives. Every cut reaches the solo golden with exactly the
/// surviving prefix re-verified, except the one that lost the `Spec`, which
/// is refused by name.
#[test]
fn every_record_boundary_is_a_crash_point_that_resumes_to_the_golden() {
    let mut cuts = 0;
    for workload in gprs_serve::WORKLOADS {
        let seed = if *workload == "beacon" { 32 } else { 6 };
        let spec = JobSpec::new(*workload, seed).faults(4);
        let golden = build_solo(&spec).unwrap().run().unwrap();
        let tape = Arc::new(Taped::default());
        let mut session = build_job_durable(&spec, 0, 0, tape.clone(), None)
            .unwrap()
            .into_session();
        session.run_to_completion();
        let full = session.finish().expect("the uncut run completes");
        assert_eq!(full.telemetry.retired_hash, golden.telemetry.retired_hash);
        let records = tape.inner.record_count();

        for lost in 0..=records {
            let backend = tape.copy();
            backend.truncate_tail_for_testing(lost);
            let image = backend.load().expect("a memory log always loads");
            let Some(text) = image.spec.as_deref() else {
                assert_eq!(lost, records, "{workload}: only the cut that lost the Spec has none");
                continue; // "no spec record in the durable log": refused by name
            };
            assert_eq!(JobSpec::parse_canonical(text).as_ref(), Ok(&spec));
            let survived = tape.records.lock().unwrap()[..records - lost]
                .iter()
                .filter(|r| matches!(r, DurableRecord::Retire { .. }))
                .count() as u64;
            assert_eq!(image.retired_len(), survived);
            let mut session = build_job_durable(&spec, 0, 0, backend, Some(&image))
                .unwrap()
                .into_session();
            session.run_to_completion();
            let report = session
                .finish()
                .unwrap_or_else(|e| panic!("{workload}, {lost} records lost: {e}"));
            assert_eq!(
                report.telemetry.retired_hash, golden.telemetry.retired_hash,
                "{workload}, {lost} records lost"
            );
            assert_eq!(
                report.telemetry.counter("recovered_prefix_len"),
                survived,
                "{workload}, {lost} records lost"
            );
            cuts += 1;
        }
    }
    assert!(cuts > 150, "enumerated {cuts} crash points");
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
