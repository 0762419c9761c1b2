//! Record/replay round-trip properties (ISSUE 10, satellite 4) and the
//! recording-path failure-mode pins (satellites 1 and 3).
//!
//! The tentpole's core claim is a determinism property: a recorded run
//! replayed through the same program produces a **bit-identical schedule**
//! — same grant stream, same schedule hash, same retired-order hash, same
//! user-visible outputs — both fault-free and under injected faults. The
//! failure half of the contract is equally load-bearing: truncated or
//! corrupted recordings, divergent replays, and cross-mode replays must
//! all fail *loudly* with named errors, never unwind a worker or silently
//! drift.

use gprs_chaos::programs::register_gprs;
use gprs_core::chaos::{ChaosEvent, ChaosPlan, VictimSelector};
use gprs_core::exception::{ExceptionKind, InjectorConfig};
use gprs_core::persist::unique_temp_dir;
use gprs_core::recording::{DriveMode, RecordedOutcome, Recording, RecordingError};
use gprs_runtime::prelude::*;
use gprs_runtime::report::RunReport;
use gprs_sim::costs::CYCLES_PER_SEC;
use gprs_sim::gprs::{run_gprs, GprsSimConfig};
use gprs_workloads::traces::{build, TraceParams};
use std::sync::Arc;

fn record_pooled(program: &str, plan: Option<&ChaosPlan>, path: &std::path::Path) -> RunReport {
    record_pool_of(4, program, plan, path)
}

fn record_pool_of(
    workers: usize,
    program: &str,
    plan: Option<&ChaosPlan>,
    path: &std::path::Path,
) -> RunReport {
    let mut b = GprsBuilder::new().workers(workers);
    register_gprs(program, &mut b);
    if let Some(p) = plan {
        b = b.chaos(p);
    }
    b.record(path).record_meta(program, 0).build().run().expect("recorded run completes")
}

fn replay_pooled(program: &str, rec: Arc<Recording>) -> Result<RunReport, RunError> {
    replay_pool_of(4, program, rec)
}

fn replay_pool_of(
    workers: usize,
    program: &str,
    rec: Arc<Recording>,
) -> Result<RunReport, RunError> {
    let mut b = GprsBuilder::new().workers(workers);
    register_gprs(program, &mut b);
    let plan = rec
        .header
        .chaos
        .as_deref()
        .map(|t| ChaosPlan::parse(t).expect("header chaos text parses"));
    if let Some(p) = &plan {
        b = b.chaos(p);
    }
    b.replay(rec).build().run()
}

/// Clean round trip on every pooled campaign program: the recording's
/// footer digests match the recorded run's report, the replay completes,
/// and schedule hash, retired hash and all thread outputs are bit-equal.
#[test]
fn record_replay_round_trip_is_bit_identical_clean() {
    let dir = unique_temp_dir("replay-clean");
    for program in ["chain", "nested", "histogram"] {
        let path = dir.join(format!("{program}.gprs"));
        let recorded = record_pooled(program, None, &path);
        let rec = Arc::new(Recording::load(&path).expect("recording loads"));
        assert_eq!(rec.header.mode, DriveMode::Pool);
        assert_eq!(rec.header.workload, program);
        assert_eq!(rec.outcome, RecordedOutcome::Complete);
        assert_eq!(rec.sched_hash, recorded.telemetry.schedule_hash, "{program}");
        assert_eq!(rec.retired_hash, recorded.telemetry.retired_hash, "{program}");
        assert!(!rec.events.is_empty(), "{program} recorded no events");

        let replayed = replay_pooled(program, rec.clone()).expect("replay completes");
        assert_eq!(replayed.telemetry.schedule_hash, recorded.telemetry.schedule_hash);
        assert_eq!(replayed.telemetry.retired_hash, recorded.telemetry.retired_hash);
        assert_eq!(replayed.outputs.len(), recorded.outputs.len());
        for tid in recorded.outputs.keys() {
            assert_eq!(
                replayed.output::<u64>(*tid),
                recorded.output::<u64>(*tid),
                "thread {tid} output diverged replaying {program}"
            );
        }
    }
}

/// Same property under injected faults. The chaos overlay travels in the
/// recording header and is re-armed from there (exactly what the CLI
/// does), so this also pins the header round trip. Victim selection is
/// `Holder`, which with no live critical section falls back to the oldest
/// *running* sub-thread: a function of the grant stream only when one
/// worker runs the pool (with more, whether an older step has deposited
/// yet is timing, and one replay in four squashed a different victim than
/// the tape's — ROADMAP 2(a) owns keying the victim to the grant). Hence one
/// worker here; the clean round trip above covers four.
#[test]
fn record_replay_round_trip_is_bit_identical_under_faults() {
    let dir = unique_temp_dir("replay-faults");
    let plan = ChaosPlan::new()
        .with(
            ChaosEvent::at_grant(7)
                .kind(ExceptionKind::SoftFault)
                .victim(VictimSelector::Holder),
        )
        .with(
            ChaosEvent::at_grant(15)
                .kind(ExceptionKind::ThermalEmergency)
                .victim(VictimSelector::Holder),
        );
    for program in ["chain", "histogram"] {
        let path = dir.join(format!("{program}.gprs"));
        let recorded = record_pool_of(1, program, Some(&plan), &path);
        assert!(recorded.stats.exceptions > 0, "plan must actually fire");
        let rec = Arc::new(Recording::load(&path).expect("recording loads"));
        assert_eq!(
            rec.header.chaos.as_deref(),
            Some(plan.to_text().as_str()),
            "chaos overlay must travel in the header"
        );
        let replayed = replay_pool_of(1, program, rec.clone()).expect("replay completes");
        assert_eq!(replayed.telemetry.schedule_hash, recorded.telemetry.schedule_hash);
        assert_eq!(replayed.telemetry.retired_hash, recorded.telemetry.retired_hash);
        for tid in recorded.outputs.keys() {
            assert_eq!(
                replayed.output::<u64>(*tid),
                recorded.output::<u64>(*tid),
                "thread {tid} output diverged replaying {program} under faults"
            );
        }
    }
}

/// Session-mode round trip plus the cross-mode rejection regression
/// (satellite 3): a session recording replays bit-identically through a
/// session, and replaying it through the worker pool fails loudly with a
/// named mode mismatch — before the first grant, not as silent drift.
#[test]
fn session_recordings_replay_in_session_mode_only() {
    let dir = unique_temp_dir("replay-mode");
    let path = dir.join("session.gprs");
    let mut b = GprsBuilder::new().workers(4);
    register_gprs("chain", &mut b);
    let mut session = b.record(&path).record_meta("chain", 0).build().into_session();
    while session.run_quantum(8) == QuantumOutcome::Yielded {}
    let recorded = session.finish().expect("session run completes");
    let rec = Arc::new(Recording::load(&path).expect("recording loads"));
    assert_eq!(rec.header.mode, DriveMode::Session);

    // Replaying through a session reproduces the run bit-for-bit.
    let mut b = GprsBuilder::new().workers(4);
    register_gprs("chain", &mut b);
    let mut session = b.replay(rec.clone()).build().into_session();
    while session.run_quantum(8) == QuantumOutcome::Yielded {}
    let replayed = session.finish().expect("session replay completes");
    assert_eq!(replayed.telemetry.schedule_hash, recorded.telemetry.schedule_hash);
    assert_eq!(replayed.telemetry.retired_hash, recorded.telemetry.retired_hash);

    // Replaying through the pool is refused by name.
    let err = replay_pooled("chain", rec).expect_err("cross-mode replay must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("replay mode mismatch") && msg.contains("session"),
        "unexpected cross-mode error: {msg}"
    );
}

/// Satellite 1 pin: truncated and corrupted recording files surface named
/// `RecordingError` variants at load time, and a tape that lies about the
/// schedule poisons the replay with a named divergence instead of
/// panicking a worker.
#[test]
fn damaged_recordings_fail_loudly_not_silently() {
    let dir = unique_temp_dir("replay-damage");
    let path = dir.join("victim.gprs");
    record_pooled("chain", None, &path);
    let text = std::fs::read_to_string(&path).expect("recording exists");

    // Truncation: cut the footer off. The loader names the event count it
    // managed to read rather than pretending the run ended cleanly.
    let cut = text.lines().filter(|l| !l.is_empty()).count() - 1;
    let truncated: String = text
        .lines()
        .take(cut)
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&path, &truncated).unwrap();
    match Recording::load(&path) {
        Err(RecordingError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }

    // Corruption: flip a byte mid-line. The per-line checksum catches it.
    let mut corrupt = text.clone().into_bytes();
    let mid = corrupt.len() / 2;
    corrupt[mid] = corrupt[mid].wrapping_add(1);
    std::fs::write(&path, &corrupt).unwrap();
    assert!(
        matches!(Recording::load(&path), Err(RecordingError::Corrupt { .. })),
        "flipped byte must surface as Corrupt"
    );

    // A tampered tape (valid file, wrong schedule): swap one event's
    // thread. The replay poisons with a named divergence at that index.
    std::fs::write(&path, &text).unwrap();
    let mut rec = Recording::load(&path).expect("restored recording loads");
    let target = rec.events.len() / 2;
    rec.events[target].thread = rec.events[target].thread.wrapping_add(17);
    let err =
        replay_pooled("chain", Arc::new(rec)).expect_err("divergent tape must poison");
    let msg = err.to_string();
    assert!(
        msg.contains("replay divergence"),
        "divergence must be named, got: {msg}"
    );

    // A tape cut short in memory (events dropped, footer intact) poisons
    // past-the-end instead of letting the live run outrun the recording.
    let mut short = Recording::load(&path).expect("recording loads");
    short.events.truncate(short.events.len() / 2);
    let err = replay_pooled("chain", Arc::new(short))
        .expect_err("short tape must poison");
    assert!(
        err.to_string().contains("replay"),
        "short-tape failure must be replay-attributed: {err}"
    );

    // Recording and replaying in one run is refused by name.
    let mut b = GprsBuilder::new().workers(4);
    register_gprs("chain", &mut b);
    let rec = Arc::new(Recording::load(&path).expect("recording loads"));
    let err = b
        .record(dir.join("other.gprs"))
        .replay(rec)
        .build()
        .run()
        .expect_err("record+replay must be rejected");
    assert!(err.to_string().contains("cannot record and replay"));
}

/// Simulator round trip, clean: record through `with_record`, replay
/// through `with_replay`, and the grant stream — schedule hash and
/// retired-order hash — is bit-identical. `pbzip2` exercises channels
/// (the recorded run has wasted polls, which the tape elides — replay
/// reproduces the *order*, not the poll timing); `histogram` is
/// poll-free, so there the entire result is reproduced field-for-field.
#[test]
fn sim_record_replay_round_trip_is_bit_identical() {
    let dir = unique_temp_dir("replay-sim");
    let p = TraceParams::paper().scaled(0.01);
    for name in ["pbzip2", "histogram"] {
        let w = build(name, &p);
        let path = dir.join(format!("{name}.gprs"));
        let recorded = run_gprs(&w, &GprsSimConfig::balance_aware(8).with_record(&path, 42));
        assert!(recorded.completed, "{name} recorded run must complete");
        let rec = Arc::new(Recording::load(&path).expect("recording loads"));
        assert_eq!(rec.header.mode, DriveMode::Sim);
        assert_eq!(rec.header.workload, name);
        assert_eq!(rec.header.seed, 42);
        assert_eq!(rec.outcome, RecordedOutcome::Complete);
        assert_eq!(rec.sched_hash, recorded.telemetry.schedule_hash, "{name}");
        assert_eq!(rec.retired_hash, recorded.telemetry.retired_hash, "{name}");

        let replayed = run_gprs(&w, &GprsSimConfig::balance_aware(8).with_replay(rec));
        assert_eq!(replayed.replay_divergence, None, "{name}");
        assert!(replayed.completed, "{name} replay must complete");
        assert_eq!(replayed.telemetry.schedule_hash, recorded.telemetry.schedule_hash);
        assert_eq!(replayed.telemetry.retired_hash, recorded.telemetry.retired_hash);
        if recorded.polls == 0 {
            assert_eq!(replayed, recorded, "{name}: poll-free replay must be exact");
        }
    }
}

/// Simulator round trip under Poisson-injected exceptions. Injection is a
/// function of *virtual time*, which the tape only preserves on poll-free
/// schedules (wasted polls are elided), so this uses `histogram` — no
/// channels, `polls == 0` — where the replayed clock, hence every
/// injection, recovery and squash, lands cycle-for-cycle where it was
/// recorded. The replay side re-arms the same injector, exactly as a
/// harness replaying a faulted sim experiment must.
#[test]
fn sim_record_replay_round_trip_under_injected_faults() {
    let dir = unique_temp_dir("replay-sim-faults");
    let p = TraceParams::paper().scaled(0.01);
    let w = build("histogram", &p);
    let clean = run_gprs(&w, &GprsSimConfig::balance_aware(8));
    assert!(clean.completed);
    // The scaled-down trace finishes in a few million virtual cycles, so
    // the paper's 6/sec rate would never fire — crank it until it does.
    let inj = InjectorConfig::paper(1_500.0, 8, CYCLES_PER_SEC).with_seed(17);
    let cap = clean.finish_cycles.saturating_mul(200);
    let path = dir.join("histogram-faults.gprs");

    let recorded = run_gprs(
        &w,
        &GprsSimConfig::balance_aware(8)
            .with_exceptions(inj.clone())
            .with_time_cap(cap)
            .with_record(&path, 17),
    );
    assert!(recorded.completed, "{recorded}");
    assert!(recorded.exceptions > 0, "injector must actually fire");
    assert_eq!(recorded.polls, 0, "histogram must stay poll-free");
    let rec = Arc::new(Recording::load(&path).expect("recording loads"));
    assert_eq!(rec.outcome, RecordedOutcome::Complete);

    let replayed = run_gprs(
        &w,
        &GprsSimConfig::balance_aware(8)
            .with_exceptions(inj)
            .with_time_cap(cap)
            .with_replay(rec),
    );
    assert_eq!(replayed.replay_divergence, None);
    assert_eq!(replayed, recorded, "faulted replay must be exact");
}

/// Sim-side failure pins: a tampered tape diverges loudly (named message,
/// `completed == false`), a sim recording refuses to replay under the
/// runtime (and vice versa), and record+replay in one config is rejected.
#[test]
fn sim_replay_failures_are_named() {
    let dir = unique_temp_dir("replay-sim-damage");
    let p = TraceParams::paper().scaled(0.01);
    let w = build("histogram", &p);
    let path = dir.join("histogram.gprs");
    run_gprs(&w, &GprsSimConfig::balance_aware(8).with_record(&path, 1));
    let pristine = Recording::load(&path).expect("recording loads");

    // Tampered grant: the replay aborts at that index with a named
    // divergence and degrades to DNC.
    let mut bad = pristine.clone();
    let target = bad.events.len() / 2;
    bad.events[target].thread = bad.events[target].thread.wrapping_add(13);
    let r = run_gprs(&w, &GprsSimConfig::balance_aware(8).with_replay(Arc::new(bad)));
    assert!(!r.completed);
    let msg = r.replay_divergence.expect("divergence must be named");
    assert!(msg.contains("replay divergence"), "unexpected: {msg}");

    // Cross-mode: a sim recording is refused by the pooled runtime...
    let err = replay_pooled("chain", Arc::new(pristine.clone()))
        .expect_err("sim recording must not drive the pool");
    assert!(err.to_string().contains("replay mode mismatch"));

    // ...and a pool recording is refused by the sim.
    let pool_path = dir.join("pool.gprs");
    record_pooled("chain", None, &pool_path);
    let pool_rec = Arc::new(Recording::load(&pool_path).expect("recording loads"));
    let r = run_gprs(&w, &GprsSimConfig::balance_aware(8).with_replay(pool_rec.clone()));
    assert!(!r.completed);
    let msg = r.replay_divergence.expect("mode mismatch must be named");
    assert!(msg.contains("replay mode mismatch"), "unexpected: {msg}");

    // Record + replay in one config is refused before the first grant.
    let r = run_gprs(
        &w,
        &GprsSimConfig::balance_aware(8)
            .with_record(dir.join("other.gprs"), 0)
            .with_replay(Arc::new(pristine)),
    );
    assert!(!r.completed);
    let msg = r.replay_divergence.expect("combination must be refused by name");
    assert!(msg.contains("cannot record and replay"), "unexpected: {msg}");
}

/// The serving layer's post-mortem artifact (tentpole wiring): a fresh
/// durable job writes `recording.gprs` into its durable directory, and
/// that recording is a complete debugging handle — it names the job's
/// canonical spec, was captured in session mode (so `gprs-replay state`
/// works on it), replays to a Verified outcome with the job's own report
/// digests, and walks to any intermediate precise state.
#[test]
fn durable_serve_jobs_leave_a_replayable_recording() {
    use gprs_replay::{replay_recording, state_at, ReplayOptions, ReplayOutcome};
    use gprs_serve::{JobSpec, PoolConfig, ServePool};

    let root = unique_temp_dir("replay-serve-recording");
    let pool = ServePool::start(PoolConfig {
        workers: 1,
        quantum: 16,
        durable_root: Some(root.clone()),
    });
    // An injected job: the recording must also carry the chaos overlay so
    // the replay re-arms the same faults.
    let spec = JobSpec::new("beacon", 3).faults(7);
    let ticket = pool.handle().submit(spec.clone()).expect("submits");
    let seq = ticket.seq();
    let outcome = ticket.wait();
    let report = outcome.report.as_ref().expect("job completes");
    pool.shutdown();

    let rec_path = root
        .join(format!("job-{seq:08}"))
        .join(gprs_serve::pool::RECORDING_FILE);
    let rec = Recording::load(&rec_path).expect("durable dir holds the recording");
    assert_eq!(rec.header.mode, DriveMode::Session, "pool jobs run as sessions");
    assert_eq!(rec.header.workload, "beacon");
    assert_eq!(
        rec.header.spec.as_deref(),
        Some(spec.canonical_line().as_str()),
        "the recording is self-describing: its spec line rebuilds the job"
    );
    assert!(rec.header.chaos.is_some(), "the fault overlay travels in the header");
    assert_eq!(rec.outcome, RecordedOutcome::Complete);
    assert_eq!(rec.sched_hash, report.telemetry.schedule_hash);
    assert_eq!(rec.retired_hash, report.telemetry.retired_hash);

    // The recording replays standalone — no pool, no durable dir — and
    // reproduces the served run's digests exactly.
    let rec = Arc::new(rec);
    match replay_recording(&rec, &ReplayOptions::default()).expect("spec rebuilds") {
        ReplayOutcome::Verified { events, schedule, retired } => {
            assert_eq!(events, rec.events.len() as u64);
            assert_eq!(schedule, report.telemetry.schedule_hash);
            assert_eq!(retired, report.telemetry.retired_hash);
        }
        other => panic!("expected Verified, got {other:?}"),
    }

    // Time travel: park mid-tape and inspect the quiesced state.
    assert!(rec.events.len() > 8, "need a tape worth walking");
    let mid = state_at(&rec, Some(5), &ReplayOptions::default()).expect("mid state");
    assert!(mid.replayed.expect("replay armed") >= 5);
    assert!(mid.poisoned.is_none());
    let end = state_at(&rec, None, &ReplayOptions::default()).expect("final state");
    assert_eq!(end.schedule_digest, rec.sched_hash);
    assert_eq!(end.retired_digest, rec.retired_hash);

    let _ = std::fs::remove_dir_all(root);
}

/// Resumed durable jobs re-verify their retired prefix against the old
/// epoch's log — re-recording over the original schedule artifact would
/// clobber the post-mortem evidence, so the recording hook stays off on
/// the resume path (`build_job_durable_recorded` with `resume` set).
#[test]
fn resumed_durable_jobs_do_not_clobber_recordings() {
    use gprs_core::persist::{FileBackend, PersistBackend};
    use gprs_serve::spec::build_job_durable_recorded;
    use gprs_serve::JobSpec;

    let dir = unique_temp_dir("replay-serve-resume");
    let spec = JobSpec::new("beacon", 1);
    let rec_path = dir.join(gprs_serve::pool::RECORDING_FILE);

    // Crash a fresh recorded job mid-flight (drop the session).
    {
        let backend = Arc::new(FileBackend::open(&dir).expect("durable dir opens"));
        let mut session =
            build_job_durable_recorded(&spec, 0, 0, backend, None, Some(&rec_path))
                .expect("spec is servable")
                .into_session();
        let mut quanta = 0;
        while session.run_quantum(8) == QuantumOutcome::Yielded && quanta < 3 {
            quanta += 1;
        }
        // Dropped unfinished: no recording was sealed.
    }
    assert!(
        !rec_path.exists(),
        "an unfinished run must not leave a sealed recording"
    );
    // Plant a sentinel where the recording would go; the resume must not
    // overwrite it even though the same path is passed in.
    std::fs::write(&rec_path, "sentinel").expect("sentinel writes");

    let backend = Arc::new(FileBackend::open(&dir).expect("durable dir reopens"));
    let image = backend.load().expect("durable image loads");
    let mut session =
        build_job_durable_recorded(&spec, 0, 0, backend, Some(&image), Some(&rec_path))
            .expect("resume rebuilds")
            .into_session();
    while session.run_quantum(8) == QuantumOutcome::Yielded {}
    session.finish().expect("resumed job completes");

    let text = std::fs::read_to_string(&rec_path).expect("sentinel still there");
    assert_eq!(text, "sentinel", "the resume path must never re-record");
    let _ = std::fs::remove_dir_all(dir);
}

/// A cancelled run's recording must not claim `complete`: its tape is a
/// prefix, and a replay that consumes the whole prefix while live threads
/// remain would read as a divergence. The footer is stamped poisoned with
/// the cancellation note instead, so replaying the tape to its end is
/// classified as a *reproduction* of the recorded stop — the same
/// post-mortem contract as a genuinely failed run.
#[test]
fn cancelled_runs_record_an_honest_footer_and_reproduce() {
    use gprs_replay::{replay_recording, ReplayOptions, ReplayOutcome};

    let dir = unique_temp_dir("replay-cancelled");
    let path = dir.join("cancelled.gprs");
    let mut b = GprsBuilder::new().workers(2);
    register_gprs("pbzip", &mut b);
    let mut session = b
        .record(&path)
        .record_meta("pbzip", 0)
        .build()
        .into_session();
    assert_eq!(session.run_quantum(8), QuantumOutcome::Yielded, "job outlives one quantum");
    session.cancel();
    let report = session.finish().expect("cancelled sessions report their partial run");

    let rec = Recording::load(&path).expect("cancelled run still seals its recording");
    match &rec.outcome {
        RecordedOutcome::Poisoned(note) => {
            assert!(note.contains("cancelled"), "unexpected note: {note}")
        }
        RecordedOutcome::Complete => panic!("a prefix tape must not claim complete"),
    }
    assert_eq!(rec.sched_hash, report.telemetry.schedule_hash);
    assert_eq!(rec.retired_hash, report.telemetry.retired_hash);

    match replay_recording(&Arc::new(rec), &ReplayOptions::default()).expect("rebuilds") {
        ReplayOutcome::Reproduced { original, .. } => {
            assert!(original.contains("cancelled"), "unexpected: {original}")
        }
        other => panic!("expected Reproduced, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}
