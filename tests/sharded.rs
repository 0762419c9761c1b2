//! Sharded order domains: differential tests of `GprsBuilder::build_sharded`
//! against the unsharded engine.
//!
//! The oracle leans on the retired-order hash's structure: each thread
//! accumulates its own `(retirement index, kind)` stream and the global
//! digest is a wrapping sum of per-thread finalizations, so a sharded run
//! — per-domain `OrderGate`s, reorder lists and WALs joined by sequence-
//! numbered edge queues — must reproduce the unsharded digest exactly, on
//! clean runs and under injected faults alike.

use gprs_core::chaos::{ChaosEvent, ChaosPlan};
use gprs_core::exception::ExceptionKind;
use gprs_runtime::report::RunReport;
use gprs_runtime::GprsBuilder;
use gprs_telemetry::{TimedEvent, TraceEvent};
use gprs_workloads::kernels::compress::generate_corpus;
use gprs_workloads::kernels::dedup::generate_dedup_corpus;
use gprs_workloads::programs::{
    beacon_model, build_beacon, build_dedup_pipeline, build_pbzip_pipeline, dedup_model,
    decode_pbzip_output, pbzip_model,
};

/// Per-shard ledger invariants every sharded report must satisfy: the
/// domain digests wrapping-sum to the global retired hash, the retirement
/// counts sum to the global count, and each domain's WAL balances.
fn audit_shards(report: &RunReport, domains: usize) {
    assert_eq!(report.shards.len(), domains, "one ledger entry per domain");
    let mut hash_sum = 0u64;
    let mut retired = 0u64;
    for s in &report.shards {
        hash_sum = hash_sum.wrapping_add(s.retired_hash);
        retired += s.retired;
        assert_eq!(
            s.wal_appends,
            s.wal_undos + s.wal_prunes,
            "domain {} WAL ledger must balance",
            s.domain
        );
    }
    assert_eq!(hash_sum, report.telemetry.retired_hash, "shard digests sum to global");
    assert_eq!(retired, report.stats.retired, "shard retirements sum to global");
}

fn beacon_pair(workers: usize, rounds: u32, chaos: Option<&ChaosPlan>) -> (RunReport, RunReport) {
    let run = |sharded: bool| {
        let mut b = GprsBuilder::new().workers(2);
        build_beacon(&mut b, workers, rounds);
        b = b.model(beacon_model(workers, rounds));
        if let Some(plan) = chaos {
            b = b.chaos(plan);
        }
        if sharded {
            b.build_sharded().run().unwrap()
        } else {
            b.build().run().unwrap()
        }
    };
    (run(false), run(true))
}

#[test]
fn beacon_sharded_reproduces_unsharded_retired_order() {
    let (plain, sharded) = beacon_pair(4, 24, None);
    assert_eq!(sharded.telemetry.retired_hash, plain.telemetry.retired_hash);
    assert_eq!(sharded.stats.retired, plain.stats.retired);
    for t in 0..4 {
        let tid = gprs_core::ids::ThreadId::new(t);
        assert_eq!(
            sharded.output::<u64>(tid),
            plain.output::<u64>(tid),
            "worker {t} checksum agrees"
        );
    }
    assert!(plain.shards.is_empty(), "unsharded runs carry no shard ledger");
    audit_shards(&sharded, 4);
}

/// A sharded report's trace is domain-major: each domain numbers `seq`
/// from 0 on its own facade, and the merge appends the domains' traces in
/// domain order, so the trace is one ascending slice per domain — the
/// `d`-th slice holding exactly domain `d`'s retirements.
#[test]
fn sharded_trace_is_one_ascending_slice_per_domain_in_domain_order() {
    let (_, sharded) = beacon_pair(4, 24, None);
    let t = &sharded.telemetry;
    assert_eq!(t.dropped_events, 0, "the rings hold the whole run");
    let slices: Vec<&[TimedEvent]> = t.events.chunk_by(|a, b| a.seq < b.seq).collect();
    assert_eq!(slices.len(), sharded.shards.len(), "one slice per domain");
    for (slice, shard) in slices.iter().zip(&sharded.shards) {
        let from_zero = slice.iter().zip(0u64..).all(|(e, seq)| e.seq == seq);
        assert!(from_zero, "domain {} numbers its slice from 0", shard.domain);
        let retires = slice
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Retire { .. }))
            .count() as u64;
        assert_eq!(retires, shard.retired, "domain {}", shard.domain);
    }
}

/// Past the single gate's design point: one beacon thread per worker at
/// 8, 16 and 32 workers, so the plan fans out into one order domain each.
/// The fan-out may not lose a domain, cost precision or allocate on the
/// grant path, and both builds grant and checkpoint each sub-thread once.
#[test]
fn beacon_fans_out_one_domain_per_worker_at_8_16_32() {
    const ROUNDS: u32 = 24;
    for workers in [8usize, 16, 32] {
        let run = |sharded: bool| {
            let mut b = GprsBuilder::new().workers(workers);
            build_beacon(&mut b, workers, ROUNDS);
            let b = b.model(beacon_model(workers, ROUNDS));
            if sharded {
                b.build_sharded().run()
            } else {
                b.build().run()
            }
            .unwrap()
        };
        let (plain, sharded) = (run(false), run(true));
        audit_shards(&sharded, workers);
        let (sharded, plain) = (&sharded.telemetry, &plain.telemetry);
        assert_eq!(sharded.retired_hash, plain.retired_hash, "w{workers}");
        assert_eq!(sharded.counter("hot_path_allocs"), 0, "w{workers}");
        let subthreads = workers as u64 * (u64::from(ROUNDS) + 1);
        for t in [sharded, plain] {
            let counts = (t.counter("grants"), t.counter("checkpoints"));
            assert_eq!(counts, (subthreads, subthreads), "w{workers}");
        }
    }
}

#[test]
fn beacon_sharded_converges_under_injected_faults() {
    // Grant-keyed soft faults land in domain 0 of the sharded run (and at
    // the same global grant indices unsharded); recovery must re-converge
    // both executions to the identical retired order.
    let plan = ChaosPlan::new()
        .with(ChaosEvent::at_grant(7).kind(ExceptionKind::SoftFault))
        .with(ChaosEvent::at_grant(19).kind(ExceptionKind::SoftFault).burst(2))
        .with(ChaosEvent::at_grant(41).kind(ExceptionKind::ApproximationError));
    let (clean, _) = beacon_pair(4, 24, None);
    let (_, sharded_faulty) = beacon_pair(4, 24, Some(&plan));
    assert!(sharded_faulty.stats.squashed > 0, "faults must actually land");
    assert_eq!(
        sharded_faulty.telemetry.retired_hash, clean.telemetry.retired_hash,
        "sharded recovery converges to the clean unsharded retired order"
    );
    for t in 0..4 {
        let tid = gprs_core::ids::ThreadId::new(t);
        assert_eq!(sharded_faulty.output::<u64>(tid), clean.output::<u64>(tid));
    }
    audit_shards(&sharded_faulty, 4);
}

#[test]
fn pbzip_pipeline_shards_into_three_domains_and_round_trips() {
    let input = generate_corpus(30_000, 7);
    let blocks = (input.len() as u64).div_ceil(2048);
    let run = |sharded: bool| {
        let mut b = GprsBuilder::new().workers(3);
        let (file, writer) = build_pbzip_pipeline(&mut b, input.clone(), 2048, 3);
        b = b.model(pbzip_model(blocks, 3));
        let report = if sharded {
            b.build_sharded().run().unwrap()
        } else {
            b.build().run().unwrap()
        };
        (report, file, writer)
    };
    let (plain, pfile, pwriter) = run(false);
    let (sharded, sfile, swriter) = run(true);
    assert_eq!(sharded.telemetry.retired_hash, plain.telemetry.retired_hash);
    assert_eq!(sharded.stats.retired, plain.stats.retired);
    assert_eq!(sharded.output::<u64>(swriter), plain.output::<u64>(pwriter));
    // The writer reorders by sequence number, so both modes reproduce the
    // input byte-for-byte through the cross-domain edges.
    assert_eq!(
        decode_pbzip_output(sharded.file_contents(sfile.index())).unwrap(),
        input
    );
    assert_eq!(
        sharded.file_contents(sfile.index()),
        plain.file_contents(pfile.index()),
        "committed output bytes agree across modes"
    );
    audit_shards(&sharded, 3);
}

#[test]
fn pbzip_sharded_converges_under_injected_faults() {
    let input = generate_corpus(24_000, 5);
    let blocks = (input.len() as u64).div_ceil(2048);
    let run = |plan: Option<&ChaosPlan>| {
        let mut b = GprsBuilder::new().workers(3);
        let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 2048, 2);
        b = b.model(pbzip_model(blocks, 2));
        if let Some(p) = plan {
            b = b.chaos(p);
        }
        let report = b.build_sharded().run().unwrap();
        (report, file)
    };
    let plan = ChaosPlan::new()
        .with(ChaosEvent::at_grant(3).kind(ExceptionKind::SoftFault))
        .with(ChaosEvent::at_grant(9).kind(ExceptionKind::SoftFault).burst(2));
    let (clean, cfile) = run(None);
    let (faulty, ffile) = run(Some(&plan));
    assert!(faulty.stats.squashed > 0, "faults must actually land");
    assert_eq!(faulty.telemetry.retired_hash, clean.telemetry.retired_hash);
    assert_eq!(faulty.file_contents(ffile.index()), clean.file_contents(cfile.index()));
    audit_shards(&faulty, 3);
}

#[test]
fn dedup_pipeline_shards_with_coalesced_producer_domain() {
    let input = generate_dedup_corpus(40_000, 40, 3);
    let run = |sharded: bool| {
        let mut b = GprsBuilder::new().workers(3);
        let (file, writer, total, fresh) =
            build_dedup_pipeline(&mut b, input.clone(), 8_192, 2, 2);
        let blocks = (input.len() as u64).div_ceil(8_192);
        b = b.model(dedup_model(blocks, total, fresh, 2, 2));
        let report = if sharded {
            b.build_sharded().run().unwrap()
        } else {
            b.build().run().unwrap()
        };
        (report, file, writer, fresh)
    };
    let (plain, _, pwriter, fresh) = run(false);
    let (sharded, sfile, swriter, _) = run(true);
    assert_eq!(sharded.telemetry.retired_hash, plain.telemetry.retired_hash);
    assert_eq!(sharded.stats.retired, plain.stats.retired);
    assert_eq!(sharded.output::<u64>(swriter), fresh, "fresh count is mode-invariant");
    assert_eq!(sharded.output::<u64>(swriter), plain.output::<u64>(pwriter));
    assert!(!sharded.file_contents(sfile.index()).is_empty());
    // Classifiers (store lock) and compressors (shared output channel)
    // coalesce into one execution domain: read, chunk, classify+compress,
    // write.
    audit_shards(&sharded, 4);
}

#[test]
fn single_domain_plan_is_bit_identical_to_unsharded() {
    // One worker's beacon model has a single order domain; the sharded
    // build degenerates to the unmodified engine, so even the
    // interleaving-sensitive schedule hash matches bit-for-bit.
    let run = |sharded: bool| {
        let mut b = GprsBuilder::new().workers(2);
        build_beacon(&mut b, 1, 32);
        b = b.model(beacon_model(1, 32));
        if sharded {
            b.build_sharded().run().unwrap()
        } else {
            b.build().run().unwrap()
        }
    };
    let plain = run(false);
    let sharded = run(true);
    assert_eq!(sharded.telemetry.schedule_hash, plain.telemetry.schedule_hash);
    assert_eq!(sharded.telemetry.retired_hash, plain.telemetry.retired_hash);
    assert_eq!(sharded.stats.grants, plain.stats.grants);
    audit_shards(&sharded, 1);
}

#[test]
fn stale_shard_plan_artifact_fails_loudly() {
    // A committed plan derived from a 3-worker beacon is stale against the
    // 4-worker program: the run must fail with the named diagnostic, not
    // silently re-derive domains.
    let stale = gprs_analyze::shard_plan(&beacon_model(3, 24)).to_json();
    let mut b = GprsBuilder::new().workers(2);
    build_beacon(&mut b, 4, 24);
    let err = b
        .model(beacon_model(4, 24))
        .shard_plan_artifact(stale)
        .build_sharded()
        .run()
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("stale shard plan"), "diagnostic names the failure: {msg}");
}

#[test]
fn fresh_shard_plan_artifact_is_accepted() {
    let artifact = gprs_analyze::shard_plan(&beacon_model(4, 24)).to_json();
    let mut b = GprsBuilder::new().workers(2);
    build_beacon(&mut b, 4, 24);
    let report = b
        .model(beacon_model(4, 24))
        .shard_plan_artifact(artifact)
        .build_sharded()
        .run()
        .unwrap();
    audit_shards(&report, 4);
}

#[test]
fn sharded_build_rejects_unsupported_configuration() {
    // No model: nothing to derive domains from.
    let mut b = GprsBuilder::new().workers(2);
    build_beacon(&mut b, 2, 8);
    let msg = b.build_sharded().run().unwrap_err().to_string();
    assert!(msg.contains("requires an attached model"), "{msg}");

    // Dynamic race detection assumes one global retired order.
    let mut b = GprsBuilder::new().workers(2).racecheck(true);
    build_beacon(&mut b, 2, 8);
    let msg = b
        .model(beacon_model(2, 8))
        .build_sharded()
        .run()
        .unwrap_err()
        .to_string();
    assert!(msg.contains("race detector"), "{msg}");
}
