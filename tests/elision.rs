//! Differential oracle for static elision: every run with the
//! restartability proofs consumed (checkpoints skipped at proven
//! read-only boundaries, WAL undo records skipped for proven dead cells)
//! must be observably identical to the same run with elision off —
//! fault-free and under injection, on both engines. The proofs may only
//! remove recovery *cost*, never recovery *outcome*.

use gprs_chaos::oracle::check_runtime;
use gprs_chaos::seeded_plan;
use gprs_core::exception::InjectorConfig;
use gprs_runtime::report::RunReport;
use gprs_runtime::GprsBuilder;
use gprs_sim::gprs::{run_gprs, GprsSimConfig};
use gprs_sim::costs::CYCLES_PER_SEC;
use gprs_tests::Chain;
use gprs_workloads::programs::{beacon_model_rounds, build_beacon, build_beacon_rounds};
use gprs_workloads::traces::{build, TraceParams, PROGRAMS};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Simulator: checkpoint elision at proven read-only boundaries
// ---------------------------------------------------------------------------

/// Fault-free differential over the whole committed corpus: elision must
/// not move a single grant (the schedule hash folds every grant) or
/// retirement, and every boundary is either checkpointed or elided —
/// never both, never neither.
#[test]
fn sim_elision_is_invisible_on_clean_runs() {
    let params = TraceParams::paper().scaled(0.01);
    let mut total_elided = 0;
    for prog in &PROGRAMS {
        let w = build(prog.name, &params);
        let off = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        let on = run_gprs(&w, &GprsSimConfig::balance_aware(8).with_elision(true));
        assert!(off.completed && on.completed, "{}", prog.name);
        assert_eq!(
            on.telemetry.schedule_hash, off.telemetry.schedule_hash,
            "{}: elision moved a grant",
            prog.name
        );
        assert_eq!(
            on.telemetry.retired_hash, off.telemetry.retired_hash,
            "{}: elision changed the retired order",
            prog.name
        );
        assert_eq!(on.telemetry.retired_count, off.telemetry.retired_count, "{}", prog.name);
        assert_eq!(
            on.checkpoints + on.checkpoints_elided,
            off.checkpoints,
            "{}: every boundary is checkpointed xor elided",
            prog.name
        );
        assert_eq!(off.checkpoints_elided, 0, "{}", prog.name);
        // Where elision bites hardest, the proofs fix exactly how many
        // boundaries skip their checkpoint.
        let pinned = match prog.name {
            "dedup" => Some((6_910, 4_633)),
            "pbzip2" => Some((315, 234)),
            _ => None,
        };
        if let Some(counts) = pinned {
            assert_eq!(
                (on.checkpoints, on.checkpoints_elided),
                counts,
                "{}: (checkpoints, checkpoints_elided)",
                prog.name
            );
        }
        assert!(
            on.ckpt_cycles <= off.ckpt_cycles,
            "{}: elision may only remove recording cost",
            prog.name
        );
        total_elided += on.checkpoints_elided;
    }
    assert!(
        total_elided > 0,
        "the committed corpus must exercise the elision path"
    );
}

/// Injected differential: squashes restore from checkpoints, so skipping
/// proven-unneeded ones is exactly where an unsound proof would surface.
/// The elided injected run must converge to the elision-OFF fault-free
/// twin's retired order.
#[test]
fn sim_elision_is_invisible_under_injection() {
    for name in ["pbzip2", "barnes-hut", "histogram"] {
        let w = build(name, &TraceParams::paper().scaled(0.01));
        let clean_off = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        assert!(clean_off.completed, "{name}");
        for seed in [3u64, 17] {
            let inj = InjectorConfig::paper(6.0, 8, CYCLES_PER_SEC).with_seed(seed);
            let on = run_gprs(
                &w,
                &GprsSimConfig::balance_aware(8)
                    .with_elision(true)
                    .with_exceptions(inj)
                    .with_time_cap(clean_off.finish_cycles.saturating_mul(24)),
            );
            assert!(on.completed, "{name} seed {seed}: {on}");
            assert_eq!(
                on.telemetry.retired_hash, clean_off.telemetry.retired_hash,
                "{name} seed {seed}: elided recovery diverged"
            );
            assert_eq!(
                on.telemetry.retired_count, clean_off.telemetry.retired_count,
                "{name} seed {seed}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime: WAL undo elision for proven dead cells
// ---------------------------------------------------------------------------

fn beacon_run(rounds: &[u32], elide: bool, plan: Option<&gprs_core::chaos::ChaosPlan>) -> RunReport {
    let mut b = GprsBuilder::new().workers(4);
    let _ = build_beacon_rounds(&mut b, rounds);
    let mut b = b.model(beacon_model_rounds(rounds)).elide(elide);
    if let Some(p) = plan {
        b = b.chaos(p);
    }
    b.build().run().expect("beacon completes")
}

/// Clean differential: elision on vs off must agree on both streaming
/// hashes, skip exactly one undo record per beacon store, and keep the
/// WAL ledger balanced (elided records are never appended, so they need
/// neither undo nor prune).
#[test]
fn runtime_wal_elision_is_invisible_on_clean_runs() {
    let rounds = [16u32, 16, 16, 16];
    let off = beacon_run(&rounds, false, None);
    let on = beacon_run(&rounds, true, None);
    assert_eq!(on.telemetry.schedule_hash, off.telemetry.schedule_hash);
    assert_eq!(on.telemetry.retired_hash, off.telemetry.retired_hash);
    assert_eq!(on.telemetry.retired_count, off.telemetry.retired_count);
    let stores: u64 = rounds.iter().map(|&r| u64::from(r)).sum();
    assert_eq!(on.telemetry.counter("wal_records_elided"), stores);
    assert_eq!(off.telemetry.counter("wal_records_elided"), 0);
    // Each round logs its store and its ticket fetch-add; elision leaves
    // only the ticket's record.
    assert_eq!(on.telemetry.counter("wal_appends"), stores);
    assert_eq!(
        on.telemetry.counter("wal_appends") + stores,
        off.telemetry.counter("wal_appends"),
        "exactly the dead stores disappeared from the log"
    );
    for r in [&on, &off] {
        let t = &r.telemetry;
        assert_eq!(
            t.counter("wal_appends"),
            t.counter("wal_undos") + t.counter("wal_prunes"),
            "WAL ledger balances"
        );
        let subthreads = stores + rounds.len() as u64;
        let counts = (t.counter("grants"), t.counter("checkpoints"));
        assert_eq!(counts, (subthreads, subthreads));
    }
}

/// Beacon workers beside fetch-add chains: the proofs are per cell, so
/// elision skips the beacon stores while every chain record is still
/// logged, and the retired order is the elision-off twin's.
#[test]
fn runtime_wal_elision_stays_per_cell_beside_logged_chains() {
    use gprs_core::ids::{AtomicId, GroupId, ThreadId};
    use gprs_core::workload::{Segment, SimOp, ThreadSpec};
    const ROUNDS: u32 = 48;
    let shape = [ROUNDS; 2];
    let mut model = beacon_model_rounds(&shape);
    for i in 0..2u32 {
        // The chains' atomics are registered after the beacons' 2 × 2 cells.
        let atomic = AtomicId::new(4 + u64::from(i));
        let segs = (0..ROUNDS)
            .map(|_| Segment::new(400, SimOp::Atomic { atomic }))
            .collect();
        let (thread, group) = (ThreadId::new(2 + i), GroupId::new(2 + i));
        model.threads.push(ThreadSpec::new(thread, group, 1, segs));
    }
    let run = |elide: bool| {
        let mut b = GprsBuilder::new().workers(4);
        let _ = build_beacon_rounds(&mut b, &shape);
        for i in 0..2 {
            let a = b.atomic(0);
            b.thread(Chain::new(a, ROUNDS), GroupId::new(2 + i), 1);
        }
        b.model(model.clone()).elide(elide).build().run().unwrap()
    };
    let (off, on) = (run(false), run(true));
    assert_eq!(on.telemetry.retired_hash, off.telemetry.retired_hash);
    let per_kind = 2 * u64::from(ROUNDS);
    let t = &on.telemetry;
    // Elided: the beacon stores. Appended: the beacon tickets and the chains.
    assert_eq!(t.counter("wal_records_elided"), per_kind);
    assert_eq!(t.counter("wal_appends"), 2 * per_kind);
    let subthreads = 4 * (u64::from(ROUNDS) + 1);
    let counts = (t.counter("grants"), t.counter("checkpoints"));
    assert_eq!(counts, (subthreads, subthreads));
}

/// Injected differential: squashes drive the WAL undo path, where a
/// wrongly-elided record would leave state the recovery pass cannot
/// restore. The elided injected run must satisfy every chaos-oracle
/// invariant against the elision-OFF fault-free twin.
#[test]
fn runtime_wal_elision_is_invisible_under_injection() {
    let rounds = [20u32, 20, 20, 20];
    let clean_off = beacon_run(&rounds, false, None);
    for seed in [7u64, 23, 41] {
        let plan = seeded_plan(seed, clean_off.stats.grants);
        let on = beacon_run(&rounds, true, Some(&plan));
        let violations = check_runtime("elide/beacon", seed, &plan, &clean_off, &on);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        assert!(
            on.telemetry.counter("wal_records_elided")
                >= rounds.iter().map(|&r| u64::from(r)).sum::<u64>(),
            "re-executed dead stores are elided again"
        );
    }
}

/// The proofs are only trusted under a race-free verdict: a model whose
/// "dead" cell is actually shared plain state across threads must veto
/// elision entirely rather than skip undo records on racy data.
#[test]
fn racy_model_vetoes_wal_elision() {
    use gprs_core::ids::{AtomicId, GroupId, ThreadId};
    use gprs_core::workload::{PlainKind, Segment, SimOp, ThreadSpec, Workload};
    // Two threads plain-write the SAME cell: dead (never observed) but racy.
    let seg = |t: u64| {
        Segment::new(100, SimOp::Atomic { atomic: AtomicId::new(1 + t) })
            .with_plain(AtomicId::new(0), PlainKind::Write)
    };
    let racy = Workload::new(
        "racy-beacon",
        (0..2)
            .map(|t| {
                ThreadSpec::new(ThreadId::new(t), GroupId::new(t), 1, vec![seg(u64::from(t))])
            })
            .collect::<Vec<_>>(),
    );
    assert!(!gprs_analyze::analyze(&racy).race_free());
    let mut b = GprsBuilder::new().workers(2);
    let _ = build_beacon(&mut b, 2, 4);
    // Attach the racy model: the ids do not even need to line up — the
    // point is that no proof from it may be consumed.
    let report = b.model(racy).elide(true).build().run().unwrap();
    assert_eq!(report.telemetry.counter("wal_records_elided"), 0);
}

/// `rounds` rounds of `plain_load` → `plain_store(v + 1)` on a private
/// cell, each closed by a fetch-add on a private ticket; exits with the
/// cell. Registered cell first, ticket second, as a beacon worker is.
struct ReadBack {
    cell: gprs_runtime::handles::AtomicHandle,
    ticket: gprs_runtime::handles::AtomicHandle,
    rounds: u32,
    done: u32,
}

impl gprs_core::history::Checkpoint for ReadBack {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl gprs_runtime::program::ThreadProgram for ReadBack {
    fn step(&mut self, ctx: &mut gprs_runtime::ctx::StepCtx<'_>) -> gprs_runtime::program::Step {
        if self.done == self.rounds {
            return gprs_runtime::program::Step::exit(ctx.plain_load(&self.cell));
        }
        let v = ctx.plain_load(&self.cell);
        ctx.plain_store(&self.cell, v + 1);
        self.done += 1;
        self.ticket.fetch_add(1)
    }
}

/// A model that calls a read cell write-only lies, and eliding the cell's
/// undo records on its word would let a squash leave a stale value that
/// the re-execution reads (one thread then exits 11 with the clean run's
/// retired hash). The first read of a cell the model proves dead ends the
/// run in a poison that names it instead; with elision off the same faults
/// are recovered exactly.
#[test]
fn reading_a_cell_the_model_proves_dead_poisons_by_name() {
    use gprs_core::chaos::{ChaosEvent, ChaosPlan, VictimSelector};
    use gprs_core::ids::{GroupId, ThreadId};
    const ROUNDS: u32 = 10;
    let shape = [ROUNDS; 3];
    let run = |elide: bool, plan: Option<&ChaosPlan>| {
        let mut b = GprsBuilder::new().workers(1);
        for w in 0..shape.len() as u32 {
            let (cell, ticket) = (b.atomic(0), b.atomic(0));
            let prog = ReadBack { cell, ticket, rounds: ROUNDS, done: 0 };
            b.thread(prog, GroupId::new(w), 1);
        }
        let mut b = b.model(beacon_model_rounds(&shape)).elide(elide);
        if let Some(p) = plan {
            b = b.chaos(p);
        }
        b.build().run()
    };
    let mut plans = vec![None];
    for k in [4, 7, 11, 15] {
        for victim in [VictimSelector::Oldest, VictimSelector::Newest] {
            let mut plan = ChaosPlan::new();
            plan.push(ChaosEvent::at_grant(k).victim(victim));
            plans.push(Some(plan));
        }
    }
    for plan in &plans {
        let off = run(false, plan.as_ref()).expect("elision off recovers");
        for t in 0..shape.len() as u32 {
            assert_eq!(off.output::<u64>(ThreadId::new(t)), u64::from(ROUNDS), "{plan:?}");
        }
        let err = run(true, plan.as_ref()).expect_err("a lying model is caught").to_string();
        assert_eq!(
            err,
            "runtime poisoned: model divergence: thread TH0 read cell A0, which the model \
             proves dead",
            "{plan:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Property fuzz (satellite): random programs, both engines
// ---------------------------------------------------------------------------

/// A random well-formed trace program stressing the classifier's corners:
/// zero-work read-only segments, dead plain writes, live plain reads,
/// locks (whose openings must NOT elide the next boundary) and a balanced
/// producer/consumer pair.
fn arb_trace_program() -> impl Strategy<Value = gprs_core::workload::Workload> {
    use gprs_core::ids::{AtomicId, ChannelId, GroupId, LockId, ThreadId};
    use gprs_core::workload::{PlainKind, Segment, SimOp, ThreadSpec, Workload};
    (
        2u32..6,        // threads
        1usize..7,      // segments each
        0u64..200_000,  // base work (0 makes boundaries elidable)
        any::<u64>(),   // per-case shape bits
        any::<bool>(),  // include a pipeline pair
    )
        .prop_map(|(threads, segs, work, bits, pipeline)| {
            let mut specs: Vec<ThreadSpec> = (0..threads)
                .map(|i| {
                    let body: Vec<Segment> = (0..segs)
                        .map(|k| {
                            let mix = bits
                                .rotate_left(i.wrapping_mul(7) ^ k as u32)
                                % 5;
                            let mut s = match mix {
                                // Zero-work atomic boundary: proven read-only.
                                0 => Segment::new(0, SimOp::Atomic {
                                    atomic: AtomicId::new(u64::from(i) % 3),
                                }),
                                // Lock opening: the NEXT boundary must not
                                // elide (cs runs inside that sub-thread).
                                1 => Segment::new(work, SimOp::Lock {
                                    lock: LockId::new(0),
                                    cs_work: 500,
                                }),
                                _ => Segment::new(work + k as u64 * 991, SimOp::Atomic {
                                    atomic: AtomicId::new(k as u64 % 3),
                                }),
                            };
                            if mix == 3 {
                                // Dead store: private cell, never read.
                                s = s.with_plain(
                                    AtomicId::new(100 + u64::from(i)),
                                    PlainKind::Write,
                                );
                            } else if mix == 4 {
                                // Live read of the same private cell: keeps
                                // the thread's dead-store candidate alive.
                                s = s.with_plain(
                                    AtomicId::new(100 + u64::from(i)),
                                    PlainKind::Read,
                                );
                            }
                            s
                        })
                        .collect();
                    ThreadSpec::new(ThreadId::new(i), GroupId::new(0), 1, body)
                })
                .collect();
            if pipeline {
                let chan = ChannelId::new(0);
                specs.push(ThreadSpec::new(
                    ThreadId::new(threads),
                    GroupId::new(1),
                    1,
                    (0..4).map(|_| Segment::new(work / 2, SimOp::Push { chan })).collect(),
                ));
                specs.push(ThreadSpec::new(
                    ThreadId::new(threads + 1),
                    GroupId::new(2),
                    1,
                    (0..4).map(|_| Segment::new(0, SimOp::Pop { chan })).collect(),
                ));
            }
            Workload::new("fuzz", specs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulator fuzz: elision on/off agree on both hashes fault-free,
    /// and on the retired order under injection; boundaries partition
    /// into checkpointed xor elided.
    #[test]
    fn fuzz_sim_elision_differential(w in arb_trace_program(), seed in 0u64..1000) {
        let off = run_gprs(&w, &GprsSimConfig::balance_aware(4));
        let on = run_gprs(&w, &GprsSimConfig::balance_aware(4).with_elision(true));
        prop_assert!(off.completed && on.completed);
        prop_assert_eq!(on.telemetry.schedule_hash, off.telemetry.schedule_hash);
        prop_assert_eq!(on.telemetry.retired_hash, off.telemetry.retired_hash);
        prop_assert_eq!(on.checkpoints + on.checkpoints_elided, off.checkpoints);

        let inj = InjectorConfig::paper(8.0, 4, CYCLES_PER_SEC).with_seed(seed);
        let cap = off.finish_cycles.saturating_mul(60).max(10_000_000);
        let run_inj = |elide: bool| run_gprs(
            &w,
            &GprsSimConfig::balance_aware(4)
                .with_elision(elide)
                .with_exceptions(inj.clone())
                .with_time_cap(cap),
        );
        let (f_off, f_on) = (run_inj(false), run_inj(true));
        // Same deterministic injector: both complete or neither does.
        if f_off.completed && f_on.completed {
            prop_assert_eq!(f_on.telemetry.retired_hash, off.telemetry.retired_hash);
            prop_assert_eq!(f_off.telemetry.retired_hash, off.telemetry.retired_hash);
            prop_assert_eq!(f_on.telemetry.retired_count, f_off.telemetry.retired_count);
        }
    }

    /// Runtime fuzz: random beacon shapes under seeded chaos plans — the
    /// elided run must match the elision-off fault-free twin bit for bit
    /// and keep the WAL ledger balanced.
    #[test]
    fn fuzz_runtime_wal_elision_differential(
        rounds in proptest::collection::vec(1u32..12, 1..5),
        seed in 1u64..500,
    ) {
        let off = beacon_run(&rounds, false, None);
        let on = beacon_run(&rounds, true, None);
        prop_assert_eq!(on.telemetry.retired_hash, off.telemetry.retired_hash);
        prop_assert_eq!(on.telemetry.schedule_hash, off.telemetry.schedule_hash);
        let stores: u64 = rounds.iter().map(|&r| u64::from(r)).sum();
        prop_assert_eq!(on.telemetry.counter("wal_records_elided"), stores);

        let plan = seeded_plan(seed, off.stats.grants);
        let inj = beacon_run(&rounds, true, Some(&plan));
        prop_assert_eq!(inj.telemetry.retired_hash, off.telemetry.retired_hash);
        prop_assert_eq!(inj.telemetry.retired_count, off.telemetry.retired_count);
        let t = &inj.telemetry;
        prop_assert_eq!(
            t.counter("wal_appends"),
            t.counter("wal_undos") + t.counter("wal_prunes"),
            "WAL ledger balances under elision + injection"
        );
    }
}
