//! Cross-engine consistency: the analytic model, the simulator and the
//! real runtime must tell the same story.

use gprs_core::model::{CostParams, Scheme};
use gprs_core::order::ScheduleKind;
use gprs_runtime::GprsBuilder;
use gprs_sim::free::{run_free, FreeRunConfig};
use gprs_sim::gprs::{run_gprs, GprsSimConfig};
use gprs_workloads::traces::{build, TraceParams};

/// The analytic bound (e* GPRS / e* CPR = n) brackets the simulator's
/// measured tipping ratio ordering: GPRS above CPR, growing with n.
#[test]
fn model_and_simulator_agree_on_ordering() {
    let params = CostParams::paper_default();
    for n in [2u32, 8, 24] {
        let p = params.with_contexts(n);
        assert!(
            p.max_exception_rate(Scheme::Gprs) > p.max_exception_rate(Scheme::CprSoftware)
        );
        assert!(
            p.checkpoint_penalty(Scheme::CprSoftware)
                > p.checkpoint_penalty(Scheme::Gprs) + p.ordering_penalty()
        );
    }
}

/// Simulator determinism across repeated runs of every benchmark trace.
#[test]
fn simulator_runs_are_reproducible() {
    for name in ["pbzip2", "dedup", "canneal", "re"] {
        let w = build(name, &TraceParams::paper().scaled(0.01));
        let a = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        let b = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        assert_eq!(a, b, "{name}");
        let c = run_free(&w, &FreeRunConfig::pthreads(8));
        let d = run_free(&w, &FreeRunConfig::pthreads(8));
        assert_eq!(c, d, "{name}");
    }
}

/// Both deterministic schedules drive the same pipeline to the same
/// byte-exact archive on the real runtime (the *performance* contrast
/// between them is the simulator's Figure 8; at runtime scale on a small
/// host both complete, and their grant traces legitimately differ).
#[test]
fn runtime_schedules_agree_on_results() {
    use gprs_workloads::kernels::compress::generate_corpus;
    use gprs_workloads::programs::{build_pbzip_pipeline, decode_pbzip_output};
    let input = generate_corpus(80_000, 4);
    let archive = |schedule| {
        let mut b = GprsBuilder::new().workers(2).schedule(schedule);
        let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 2048, 3);
        let report = b.build().run().unwrap();
        report.file_contents(file.index()).to_vec()
    };
    let rr = archive(ScheduleKind::RoundRobin);
    let ba = archive(ScheduleKind::BalanceBasic);
    assert_eq!(decode_pbzip_output(&rr).unwrap(), input);
    assert_eq!(decode_pbzip_output(&ba).unwrap(), input);
}

/// Exceptions never change any engine's answer: sim finish-state equality
/// is covered in the sim crate; here the runtime's WAL/ROL stats stay
/// consistent (every created sub-thread either retires or is squashed).
#[test]
fn runtime_accounting_balances() {
    use gprs_core::exception::ExceptionKind;
    use gprs_core::ids::GroupId;
    use gprs_workloads::kernels::compress::generate_corpus;
    use gprs_workloads::programs::build_pbzip_pipeline;
    let input = generate_corpus(60_000, 6);
    let mut b = GprsBuilder::new().workers(2);
    let _ = build_pbzip_pipeline(&mut b, input, 2048, 2);
    let _ = GroupId::new(0);
    let gprs = b.build();
    let ctl = gprs.controller();
    let h = std::thread::spawn(move || {
        while !ctl.is_finished() {
            ctl.inject_on_busy(ExceptionKind::SoftFault);
            std::thread::sleep(std::time::Duration::from_micros(700));
        }
    });
    let report = gprs.run().unwrap();
    h.join().unwrap();
    let s = report.stats;
    assert_eq!(
        s.subthreads,
        s.retired + s.squashed,
        "every sub-thread retires or is squashed: {s:?}"
    );
    assert!(s.exceptions >= s.recoveries);
}

// ---------------------------------------------------------------------------
// Telemetry determinism (gprs-telemetry schedule / retired-order hashes)
// ---------------------------------------------------------------------------

/// Repeated same-seed runs produce byte-identical streaming schedule
/// hashes: three simulator workloads, plus the real runtime across worker
/// counts (the hash replaces the old capped grant-trace vector).
#[test]
fn schedule_hashes_are_reproducible() {
    for name in ["pbzip2", "dedup", "canneal"] {
        let w = build(name, &TraceParams::paper().scaled(0.01));
        let a = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        let b = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        assert_ne!(a.telemetry.schedule_hash, 0, "{name}");
        assert_eq!(a.telemetry.schedule_hash, b.telemetry.schedule_hash, "{name}");
        assert_eq!(a.telemetry.retired_hash, b.telemetry.retired_hash, "{name}");
        assert_eq!(a.telemetry.schedule_grants, b.telemetry.schedule_grants, "{name}");
    }
    use gprs_workloads::kernels::compress::generate_corpus;
    use gprs_workloads::programs::build_pbzip_pipeline;
    let input = generate_corpus(60_000, 21);
    let run = |workers: usize| {
        let mut b = GprsBuilder::new().workers(workers);
        let _ = build_pbzip_pipeline(&mut b, input.clone(), 2048, 2);
        let r = b.build().run().unwrap();
        (r.telemetry.schedule_hash, r.telemetry.retired_hash)
    };
    let one = run(1);
    let four = run(4);
    assert_ne!(one.0, 0);
    assert_eq!(one, four, "hashes must not depend on the worker count");
}

/// An exception-injected pipeline converges to the fault-free
/// retired-order hash: squashed sub-threads never enter the hash, and
/// their re-executions retire the same logical steps in the same
/// per-thread order. The schedule hash legitimately differs (re-executed
/// sub-threads are fresh grants).
#[test]
fn retired_hash_converges_after_recovery() {
    use gprs_core::exception::ExceptionKind;
    use gprs_workloads::kernels::compress::generate_corpus;
    use gprs_workloads::programs::build_pbzip_pipeline;
    let input = generate_corpus(60_000, 17);
    let clean = {
        let mut b = GprsBuilder::new().workers(2);
        let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 2048, 2);
        let r = b.build().run().unwrap();
        (r.telemetry.retired_hash, r.file_contents(file.index()).to_vec())
    };
    let mut b = GprsBuilder::new().workers(2);
    let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 2048, 2);
    let gprs = b.build();
    let ctl = gprs.controller();
    let h = std::thread::spawn(move || {
        while !ctl.is_finished() {
            ctl.inject_on_busy(ExceptionKind::SoftFault);
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
    });
    let report = gprs.run().unwrap();
    h.join().unwrap();
    assert_eq!(
        report.telemetry.retired_hash, clean.0,
        "recovered run must retire the same logical order"
    );
    assert_eq!(report.file_contents(file.index()), clean.1.as_slice());
}

/// The simulator engines make the same convergence promise as the runtime
/// (`retired_hash_converges_after_recovery` above): an exception-injected
/// sim run re-enters retirement in total order, so it converges to the
/// clean run's retired-order hash under both recovery scopes. The
/// checkpointing engine has no reorder list at all — its retired digest is
/// the empty hash whether or not exceptions strike, injected runs included.
#[test]
fn sim_retired_hash_converges_after_recovery() {
    use gprs_core::exception::InjectorConfig;
    use gprs_sim::gprs::RecoveryPolicy;
    use gprs_sim::{secs_to_cycles, CYCLES_PER_SEC};

    let cap = secs_to_cycles(600.0);
    let mut squashed = 0;
    for name in ["pbzip2", "barnes-hut"] {
        let w = build(name, &TraceParams::paper().scaled(0.01));
        let clean = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        assert!(clean.completed, "{name}");
        for scope in [RecoveryPolicy::Selective, RecoveryPolicy::Basic] {
            for seed in [3u64, 17] {
                let inj = InjectorConfig::paper(6.0, 8, CYCLES_PER_SEC).with_seed(seed);
                let f = run_gprs(
                    &w,
                    &GprsSimConfig::balance_aware(8)
                        .with_recovery(scope)
                        .with_exceptions(inj)
                        .with_time_cap(cap),
                );
                assert!(f.completed, "{name} {scope:?} seed {seed}: {f}");
                squashed += f.squashed;
                assert_eq!(
                    f.telemetry.retired_hash, clean.telemetry.retired_hash,
                    "{name} {scope:?} seed {seed}: retired order must converge"
                );
                assert_eq!(
                    f.telemetry.retired_count, clean.telemetry.retired_count,
                    "{name} {scope:?} seed {seed}"
                );
            }
        }
    }
    assert!(squashed > 0, "injection must actually squash some work");

    let w = build("pbzip2", &TraceParams::paper().scaled(0.01));
    let interval = secs_to_cycles(1.0);
    let clean = run_free(&w, &FreeRunConfig::cpr(8, interval));
    let inj = InjectorConfig::paper(4.0, 8, CYCLES_PER_SEC).with_seed(3);
    let f = run_free(
        &w,
        &FreeRunConfig::cpr(8, interval)
            .with_exceptions(inj)
            .with_time_cap(cap),
    );
    assert!(f.completed, "{f}");
    assert_eq!(f.telemetry.retired_hash, clean.telemetry.retired_hash);
}

/// Telemetry counters are internally consistent at exit: every created
/// sub-thread either retired or was squashed, and the counters mirror the
/// engine's own statistics.
#[test]
fn telemetry_counters_balance() {
    use gprs_core::exception::ExceptionKind;
    use gprs_workloads::kernels::compress::generate_corpus;
    use gprs_workloads::programs::build_pbzip_pipeline;
    let input = generate_corpus(40_000, 9);
    let mut b = GprsBuilder::new().workers(2);
    let _ = build_pbzip_pipeline(&mut b, input, 2048, 2);
    let gprs = b.build();
    let ctl = gprs.controller();
    let h = std::thread::spawn(move || {
        while !ctl.is_finished() {
            ctl.inject_on_busy(ExceptionKind::SoftFault);
            std::thread::sleep(std::time::Duration::from_micros(900));
        }
    });
    let report = gprs.run().unwrap();
    h.join().unwrap();
    let t = &report.telemetry;
    assert_eq!(
        t.counter("subthreads_created"),
        t.counter("retired") + t.counter("squashed"),
        "creates = retires + squashes at exit: {:?}",
        t.counters
    );
    assert_eq!(t.counter("subthreads_created"), report.stats.subthreads);
    assert_eq!(t.counter("retired"), report.stats.retired);
    assert_eq!(t.counter("squashed"), report.stats.squashed);
    assert_eq!(t.counter("grants"), t.schedule_grants);
    assert_eq!(t.counter("retired"), t.retired_count);
    // WAL accounting: every appended record is either undone by recovery
    // or pruned at retirement (the engine drains the ROL before exit).
    assert_eq!(
        t.counter("wal_appends"),
        t.counter("wal_undos") + t.counter("wal_prunes"),
        "WAL records are all undone or pruned: {:?}",
        t.counters
    );
}
