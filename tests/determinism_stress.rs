//! The determinism goldens, and the counts a schedule fixes.
//!
//! `crates/bench/goldens/determinism.txt` pins two telemetry hashes per
//! run: `schedule_hash` (folded at grant) and `retired_hash` (folded at
//! retirement). Its lines cover the ten paper workloads on the simulator,
//! fault-free and under seeded injection, and five real-runtime programs
//! that must be bit-identical at 1/2/4/8 workers. This file is the only
//! reader of the goldens and checks every line; a hash that drifts fails
//! with its replacement line, ready to paste.
//!
//! Beside the hashes, these runs assert the counts their schedules fix —
//! grants, checkpoints, durable segments, simulator recoveries — exactly,
//! so a count that falls fails as surely as one that rises. Counts of
//! programs another suite already runs sit beside those tests instead
//! (`elision.rs`, `sharded.rs`, `serve.rs`).

use gprs_bench::injector;
use gprs_core::persist::{unique_temp_dir, FileBackend};
use gprs_runtime::prelude::*;
use gprs_sim::gprs::{run_gprs, GprsSimConfig};
use gprs_tests::Chain;
use gprs_workloads::kernels::compress::generate_corpus;
use gprs_workloads::programs::{beacon_model, build_beacon, build_pbzip_pipeline, HistogramWorker};
use gprs_workloads::traces::{build, info, TraceParams, PROGRAMS};
use std::sync::Arc;

const GOLDENS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../bench/goldens/determinism.txt"
);

/// The runtime keys, in file order; the simulator's come from `PROGRAMS`.
const RT_KEYS: [&str; 5] = [
    "rt/fetchadd",
    "rt/pbzip",
    "rt/histogram",
    "rt/beacon",
    "rt/beacon_sharded",
];

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The committed golden lines as `(key, (schedule, retired))`, in file order.
fn seed_goldens() -> Vec<(String, (u64, u64))> {
    let text = std::fs::read_to_string(GOLDENS).expect("committed golden file");
    let hex = |s: Option<&str>| {
        u64::from_str_radix(s.expect("two hashes").trim_start_matches("0x"), 16).expect("hex hash")
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            let key = it.next().expect("key").to_string();
            (key, (hex(it.next()), hex(it.next())))
        })
        .collect()
}

/// Asserts `key`'s hashes against its committed line. The failure carries
/// the line that would make the run pass, in the file's own format.
fn check(key: &str, (schedule, retired): (u64, u64)) {
    let line = format!("{key} {schedule:#018x} {retired:#018x}");
    match seed_goldens().into_iter().find(|(k, _)| k == key) {
        Some((_, golden)) if golden == (schedule, retired) => {}
        Some(_) => panic!(
            "{key}: determinism hashes drifted from the committed golden; if the change \
             is meant, replace its line in crates/bench/goldens/determinism.txt with\n{line}"
        ),
        None => panic!("{key}: no committed golden; the line for it is\n{line}"),
    }
}

fn hashes(t: &TelemetrySummary) -> (u64, u64) {
    (t.schedule_hash, t.retired_hash)
}

/// The keys the tests below check, in file order, are exactly the keys
/// the file holds: no golden goes unchecked, no checked run goes unpinned.
#[test]
fn every_committed_golden_is_checked() {
    let checked: Vec<String> = PROGRAMS
        .iter()
        .flat_map(|p| ["clean", "injected"].map(|v| format!("sim/{}/{v}", p.name)))
        .chain(RT_KEYS.map(String::from))
        .collect();
    let committed: Vec<String> = seed_goldens().into_iter().map(|(k, _)| k).collect();
    assert_eq!(checked, committed);
}

/// All ten paper workloads on the simulator, fault-free and under the
/// seeded deterministic injector, must reproduce the committed hashes
/// (the parameters are part of the golden contract). Checkpoint elision
/// must leave the fault-free hashes untouched.
#[test]
fn sim_workloads_match_seed_goldens() {
    let params = TraceParams::paper().scaled(0.04);
    for prog in &PROGRAMS {
        let w = build(prog.name, &params);
        let clean = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        check(
            &format!("sim/{}/clean", prog.name),
            hashes(&clean.telemetry),
        );
        let elided = run_gprs(&w, &GprsSimConfig::balance_aware(8).with_elision(true));
        assert_eq!(
            hashes(&elided.telemetry),
            hashes(&clean.telemetry),
            "sim/{}: checkpoint elision moved the determinism hashes",
            prog.name
        );
        // Injection rate derived from the deterministic fault-free finish
        // time, capped so a recovery storm still terminates — both inputs
        // are deterministic, so the injected hashes are too.
        let rate = 8.0 * gprs_sim::costs::CYCLES_PER_SEC as f64 / clean.finish_cycles as f64;
        let cfg = GprsSimConfig::balance_aware(8)
            .with_exceptions(injector(rate, 8, 0xD37E))
            .with_time_cap(clean.finish_cycles.saturating_mul(12));
        let injected = run_gprs(&w, &cfg);
        check(
            &format!("sim/{}/injected", prog.name),
            hashes(&injected.telemetry),
        );
    }
}

/// The simulator's recovery loop under each program's Fig. 10 high rate
/// at 24 contexts: the seed fixes how many sessions run, what they squash
/// and how many sub-threads the run executes.
#[test]
fn sim_recovery_counts_are_fixed_by_the_seed() {
    // (program, recovery sessions, squashed, sub-threads, exceptions drawn,
    // exceptions ignored, retired-order hash): which exceptions land, not
    // only how many recoveries they make.
    for (name, recoveries, squashed, subthreads, exceptions, ignored, retired) in [
        ("canneal", 1, 2, 6_290, 7, 6, 0xeb19_bf29_e71c_7994),
        ("dedup", 18, 22, 57_637, 169, 151, 0x0a3a_a9dd_6c07_95d8),
    ] {
        let w = build(name, &TraceParams::paper().scaled(0.05));
        let cfg = GprsSimConfig::balance_aware(24).with_exceptions(injector(
            info(name).fig10_high_rate,
            24,
            0x5EED,
        ));
        let r = run_gprs(&w, &cfg);
        assert_eq!(
            (
                r.telemetry.counter("recovery_sessions"),
                r.squashed,
                r.subthreads
            ),
            (recoveries, squashed, subthreads),
            "sim_recovery/{name}: (recoveries, squashed, sub-threads)"
        );
        assert_eq!(
            (r.exceptions, r.exceptions_ignored, r.telemetry.retired_hash),
            (exceptions, ignored, retired),
            "sim_recovery/{name}: (exceptions, ignored, retired hash)"
        );
        // The drained trace is the rings merged in sequence order, and what
        // it lacks the rings counted as dropped: `seq` numbers every event
        // recorded from 0, so the last one kept names how many there were.
        let t = &r.telemetry;
        assert!(
            t.events.windows(2).all(|w| w[0].seq < w[1].seq),
            "sim_recovery/{name}: trace out of sequence order"
        );
        let recorded = t.events.last().map_or(0, |e| e.seq + 1);
        assert_eq!(
            t.events.len() as u64 + t.dropped_events,
            recorded,
            "sim_recovery/{name}: kept + dropped events"
        );
    }
}

/// 8 fetch-add chains of `rounds` rounds at `workers` workers, logging to
/// `durable` when given.
fn chain_run(workers: usize, rounds: u32, durable: Option<Arc<FileBackend>>) -> RunReport {
    let mut b = GprsBuilder::new().workers(workers);
    if let Some(backend) = durable {
        b = b.durable(backend).durable_spec(format!("chain w{workers}"));
    }
    for _ in 0..8 {
        let a = b.atomic(0);
        b.thread(Chain::new(a, rounds), GroupId::new(0), 1);
    }
    b.build().run().unwrap()
}

/// Grants and checkpoints of 8 chains: one of each per sub-thread.
fn assert_chain_counts(key: &str, t: &TelemetrySummary, rounds: u32) {
    let subthreads = 8 * (u64::from(rounds) + 1);
    assert_eq!(
        (t.counter("grants"), t.counter("checkpoints")),
        (subthreads, subthreads),
        "{key}: (grants, checkpoints)"
    );
}

fn pbzip_run(workers: usize, input: &[u8]) -> RunReport {
    let mut b = GprsBuilder::new().workers(workers);
    let _ = build_pbzip_pipeline(&mut b, input.to_vec(), 2048, 2);
    b.build().run().unwrap()
}

fn histogram_run(workers: usize, data: &[u8]) -> RunReport {
    let mut b = GprsBuilder::new().workers(workers);
    let acc = b.mutex(vec![0u64; 256]);
    for chunk in data.chunks(4_000) {
        b.thread(
            HistogramWorker::new(chunk.to_vec(), acc),
            GroupId::new(0),
            1,
        );
    }
    b.build().run().unwrap()
}

/// Asserts one runtime golden from runs at 1/2/4/8 workers, which must
/// all agree; returns the agreed hashes.
fn check_across_workers(key: &str, runs: impl Fn(usize) -> (u64, u64)) -> (u64, u64) {
    let first = runs(WORKERS[0]);
    for &w in &WORKERS[1..] {
        assert_eq!(
            runs(w),
            first,
            "{key}: hashes differ between 1 and {w} workers"
        );
    }
    check(key, first);
    first
}

/// Real-runtime cross-worker identity: the same program must produce
/// bit-identical schedule and retired-order hashes at 1, 2, 4 and 8
/// workers, and those hashes must equal the committed goldens.
#[test]
fn runtime_hashes_identical_across_worker_counts() {
    check_across_workers("rt/fetchadd", |w| {
        let t = chain_run(w, 64, None).telemetry;
        assert_chain_counts(&format!("rt/fetchadd w{w}"), &t, 64);
        hashes(&t)
    });
    let input = generate_corpus(30_000, 11);
    check_across_workers("rt/pbzip", |w| hashes(&pbzip_run(w, &input).telemetry));
    let data = generate_corpus(32_000, 5);
    check_across_workers("rt/histogram", |w| {
        hashes(&histogram_run(w, &data).telemetry)
    });
}

/// Beacon's golden is recorded with dead-store WAL elision on, and every
/// worker count first proves the eliding run hash-identical to its
/// elision-off twin. The sharded twin gives each beacon worker its own
/// order domain; its merged schedule hash is a sharded-mode value with a
/// line of its own, but its retired hash must be the unsharded one.
#[test]
fn beacon_hashes_match_with_elision_and_sharding() {
    let run = |w: usize, elide: bool, sharded: bool| {
        let mut b = GprsBuilder::new().workers(w);
        let _ = build_beacon(&mut b, 4, 48);
        let b = b.model(beacon_model(4, 48)).elide(elide);
        let report = if sharded {
            b.build_sharded().run()
        } else {
            b.build().run()
        };
        report.unwrap().telemetry
    };
    let (_, retired) = check_across_workers("rt/beacon", |w| {
        let (off, on) = (run(w, false, false), run(w, true, false));
        assert_eq!(off.counter("wal_records_elided"), 0, "w{w}");
        assert!(on.counter("wal_records_elided") > 0, "w{w}");
        assert_eq!(
            hashes(&on),
            hashes(&off),
            "rt/beacon w{w}: WAL elision moved the hashes"
        );
        hashes(&on)
    });
    let (_, sharded_retired) =
        check_across_workers("rt/beacon_sharded", |w| hashes(&run(w, false, true)));
    assert_eq!(
        sharded_retired, retired,
        "sharded retirement diverged from rt/beacon"
    );
}

/// Run-to-run stress at the highest worker count: real threads race for
/// the token every iteration, yet the granted order (and therefore both
/// hashes) must never move.
#[test]
fn runtime_hashes_stable_across_repeated_runs() {
    let first = hashes(&chain_run(8, 64, None).telemetry);
    for i in 0..10 {
        assert_eq!(
            hashes(&chain_run(8, 64, None).telemetry),
            first,
            "run {i} diverged at 8 workers"
        );
    }
}

/// The chains with the file backend armed: grants and checkpoints as
/// without it, and the retirement log's segments and fsyncs. 4 104
/// retirements plus their checkpoint records overflow one 4 096-record
/// segment, so exactly one seals.
#[test]
fn durable_chains_seal_segments_and_group_commit() {
    const ROUNDS: u32 = 512;
    for w in WORKERS {
        let dir = unique_temp_dir("gprs-durable-chain");
        let backend = Arc::new(FileBackend::open(&dir).expect("durable dir opens"));
        let t = chain_run(w, ROUNDS, Some(backend)).telemetry;
        let _ = std::fs::remove_dir_all(&dir);
        let key = format!("durable chain w{w}");
        assert_chain_counts(&key, &t, ROUNDS);
        assert_eq!(
            t.counter("wal_segments_sealed"),
            1,
            "{key}: segments sealed"
        );
        // A bound, not a count: a checkpoint (one fsync) is due every 64
        // retirements but lands at the end of the retirement batch that
        // crosses the mark, and batch boundaries follow worker timing. Each
        // overshoot delays every later mark, so batches of at most `b` leave
        // between ⌈(R − 63) / (63 + b)⌉ and ⌊R / 64⌋ checkpoints: exactly 64
        // at one worker, where `b` is 1. Around them come the epoch's opening
        // sync, the seal and the final sync; a checkpoint record that fills
        // the segment shares the seal's.
        let b = t.histogram("retire_batch").map_or(1, |h| h.max);
        let r = 8 * (u64::from(ROUNDS) + 1);
        let (fewest, most) = ((r - 63).div_ceil(63 + b) + 2, r / 64 + 3);
        let fsyncs = t.counter("fsyncs");
        assert!(
            (fewest..=most).contains(&fsyncs),
            "{key}: {fsyncs} fsyncs, outside {fewest}..={most} for batches of up to {b}"
        );
    }
}
