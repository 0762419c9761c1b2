//! Tests of the coordinated-CPR baseline executor: correctness under
//! rollback and the contrast with GPRS selective restart.

use gprs_runtime::cpr::CprBuilder;
use gprs_runtime::ctx::StepCtx;
use gprs_runtime::prelude::*;
use gprs_runtime::Registry;
use std::time::Duration;

/// Counts under a mutex with some local work, like the GPRS tests.
struct LockCounter {
    mutex: MutexHandle<u64>,
    rounds: u32,
    done: u32,
}

impl Checkpoint for LockCounter {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl ThreadProgram for LockCounter {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.done > 0 {
            ctx.with_lock(&self.mutex, |n| *n += 1);
        }
        if self.done == self.rounds {
            return Step::exit(self.done);
        }
        self.done += 1;
        self.mutex.lock()
    }
}

#[test]
fn cpr_lock_counter_is_exact() {
    let mut b = CprBuilder::new().workers(3).checkpoint_every(10);
    let m = b.mutex(0u64);
    let mut tids = Vec::new();
    for _ in 0..3 {
        tids.push(b.thread(LockCounter { mutex: m, rounds: 15, done: 0 }, GroupId::new(0), 1));
    }
    let report = b.build().run().unwrap();
    for t in tids {
        assert_eq!(report.output::<u32>(t), 15);
    }
    assert!(report.checkpoints > 0, "checkpoints must fire");
}

#[test]
fn cpr_rollback_preserves_output() {
    let run = |inject: bool| {
        let mut b = CprBuilder::new().workers(2).checkpoint_every(8);
        let m = b.mutex(0u64);
        let mut tids = Vec::new();
        for _ in 0..2 {
            tids.push(b.thread(
                LockCounter { mutex: m, rounds: 40, done: 0 },
                GroupId::new(0),
                1,
            ));
        }
        let rt = b.build();
        let c = rt.controller();
        let injector = inject.then(|| {
            std::thread::spawn(move || {
                let mut n = 0;
                while !c.is_finished() && n < 50 {
                    c.inject();
                    n += 1;
                    std::thread::sleep(Duration::from_micros(400));
                }
                n
            })
        });
        let report = rt.run().unwrap();
        if let Some(j) = injector {
            j.join().unwrap();
        }
        let outs: Vec<u32> = tids.iter().map(|&t| report.output::<u32>(t)).collect();
        (outs, report.rollbacks)
    };
    let (clean, _) = run(false);
    let (faulty, _rollbacks) = run(true);
    assert_eq!(clean, faulty);
}

#[test]
fn cpr_rollback_discards_post_checkpoint_spawns() {
    // A parent that spawns a child and joins it: rollbacks may land between
    // spawn and join; the final answer must be unaffected.
    struct Parent {
        stage: u8,
        child: Option<ThreadId>,
    }
    impl Checkpoint for Parent {
        type Snapshot = (u8, Option<ThreadId>);
        fn checkpoint(&self) -> Self::Snapshot {
            (self.stage, self.child)
        }
        fn restore(&mut self, s: &Self::Snapshot) {
            self.stage = s.0;
            self.child = s.1;
        }
    }
    impl ThreadProgram for Parent {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
            match self.stage {
                0 => {
                    self.stage = 1;
                    Step::spawn(OneShot::new(|| 1234u64), GroupId::new(1), 1)
                }
                1 => {
                    self.child = Some(ctx.spawned());
                    self.stage = 2;
                    Step::join(self.child.unwrap())
                }
                _ => Step::exit(ctx.joined::<u64>()),
            }
        }
    }
    let mut b = CprBuilder::new().workers(2).checkpoint_every(2);
    let p = b.thread(Parent { stage: 0, child: None }, GroupId::new(0), 1);
    let rt = b.build();
    let c = rt.controller();
    let h = std::thread::spawn(move || {
        for _ in 0..5 {
            std::thread::sleep(Duration::from_micros(200));
            if c.is_finished() {
                break;
            }
            c.inject();
        }
    });
    let report = rt.run().unwrap();
    h.join().unwrap();
    assert_eq!(report.output::<u64>(p), 1234);
}

#[test]
fn cpr_pipeline_matches_gprs_results() {
    // Same producer/consumer program on both executors, same totals.
    struct Producer {
        chan: ChannelHandle<u64>,
        count: u64,
        next: u64,
    }
    impl Checkpoint for Producer {
        type Snapshot = u64;
        fn checkpoint(&self) -> u64 {
            self.next
        }
        fn restore(&mut self, s: &u64) {
            self.next = *s;
        }
    }
    impl ThreadProgram for Producer {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
            if self.next == self.count {
                return Step::exit_unit();
            }
            let v = self.next;
            self.next += 1;
            self.chan.push(v)
        }
    }
    struct Summer {
        chan: ChannelHandle<u64>,
        count: u64,
        taken: u64,
        sum: u64,
        started: bool,
    }
    impl Checkpoint for Summer {
        type Snapshot = (u64, u64, bool);
        fn checkpoint(&self) -> Self::Snapshot {
            (self.taken, self.sum, self.started)
        }
        fn restore(&mut self, s: &Self::Snapshot) {
            self.taken = s.0;
            self.sum = s.1;
            self.started = s.2;
        }
    }
    impl ThreadProgram for Summer {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
            if self.started {
                self.sum += ctx.popped::<u64>();
                self.taken += 1;
            } else {
                self.started = true;
            }
            if self.taken == self.count {
                return Step::exit(self.sum);
            }
            self.chan.pop()
        }
    }

    // GPRS executor.
    let mut gb = GprsBuilder::new().workers(2);
    let gchan = gb.channel::<u64>();
    gb.thread(Producer { chan: gchan, count: 30, next: 0 }, GroupId::new(0), 1);
    let gc = gb.thread(
        Summer { chan: gchan, count: 30, taken: 0, sum: 0, started: false },
        GroupId::new(1),
        1,
    );
    let greport = gb.build().run().unwrap();

    // CPR executor.
    let mut cb = CprBuilder::new().workers(2).checkpoint_every(16);
    let cchan = cb.channel::<u64>();
    cb.thread(Producer { chan: cchan, count: 30, next: 0 }, GroupId::new(0), 1);
    let cc = cb.thread(
        Summer { chan: cchan, count: 30, taken: 0, sum: 0, started: false },
        GroupId::new(1),
        1,
    );
    let creport = cb.build().run().unwrap();

    assert_eq!(greport.output::<u64>(gc), creport.output::<u64>(cc));
    assert_eq!(creport.output::<u64>(cc), (0..30u64).sum::<u64>());
}

#[test]
fn cpr_file_output_commits_at_checkpoints() {
    struct Writer {
        file: FileHandle,
        atomic: AtomicHandle,
        rounds: u8,
        done: u8,
    }
    impl Checkpoint for Writer {
        type Snapshot = u8;
        fn checkpoint(&self) -> u8 {
            self.done
        }
        fn restore(&mut self, s: &u8) {
            self.done = *s;
        }
    }
    impl ThreadProgram for Writer {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
            ctx.write_file(self.file, &[self.done]);
            if self.done == self.rounds {
                return Step::exit_unit();
            }
            self.done += 1;
            self.atomic.fetch_add(1)
        }
    }
    let mut b = CprBuilder::new().workers(1).checkpoint_every(4);
    let f = b.file("cpr.out");
    let a = b.atomic(0);
    b.thread(Writer { file: f, atomic: a, rounds: 9, done: 0 }, GroupId::new(0), 1);
    let report = b.build().run().unwrap();
    assert_eq!(
        report.files.get(&0).map(|(_, b)| b.clone()).unwrap(),
        (0..=9u8).collect::<Vec<_>>()
    );
}

/// The pipeline `end_to_end::pbzip_output_bytes_are_pinned` runs on the GPRS
/// runtime, wired onto the baseline by the same helper: it must commit the
/// same bytes, clean and after global rollbacks.
#[test]
fn cpr_pbzip_commits_the_pinned_bytes() {
    use gprs_core::persist::fnv1a;
    use gprs_workloads::kernels::compress::generate_corpus;
    use gprs_workloads::programs::{build_pbzip_pipeline, decode_pbzip_output};
    let input = generate_corpus(96_000, 31);
    // A clean run makes 100 grants and checkpoints every 16. Both
    // exceptions find a snapshot and roll the whole pipeline back. The
    // first re-runs 14 grants, so the second lands near the clean run's
    // grant 91, while written blocks are staged and not yet committed: a
    // rollback that kept them would commit them twice.
    let faults = ChaosPlan::new()
        .with(ChaosEvent::at_grant(30))
        .with(ChaosEvent::at_grant(105));
    for workers in [1, 2] {
        for plan in [ChaosPlan::new(), faults.clone()] {
            let mut b = CprBuilder::new()
                .workers(workers)
                .checkpoint_every(16)
                .chaos(&plan);
            let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 4096, 2);
            let report = b.build().run().unwrap();
            let what = format!("{workers} workers, {} faults", plan.total_exceptions());
            assert_eq!(report.rollbacks, plan.total_exceptions(), "{what}");
            let out = &report.files[&file.index()].1;
            assert_eq!(decode_pbzip_output(out).unwrap(), input, "{what}");
            assert_eq!(
                (out.len(), fnv1a(out)),
                (35_837, 0x6b0f_a21d_f491_0631),
                "{what}"
            );
        }
    }
}

/// Adds to a shared counter and waits at a barrier, `rounds` times; then
/// reads the counter and exits with it. Every add precedes the last
/// release, so each worker exits with `participants × rounds`.
struct Phased {
    counter: AtomicHandle,
    barrier: BarrierHandle,
    rounds: u32,
    done: u32,
    added: bool,
    reading: bool,
}

impl Checkpoint for Phased {
    type Snapshot = (u32, bool, bool);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.done, self.added, self.reading)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        (self.done, self.added, self.reading) = *s;
    }
}

impl ThreadProgram for Phased {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.reading {
            return Step::exit(ctx.atomic_prev());
        }
        if self.done == self.rounds {
            self.reading = true;
            return self.counter.fetch_add(0);
        }
        if !self.added {
            self.added = true;
            return self.counter.fetch_add(1);
        }
        self.added = false;
        self.done += 1;
        self.barrier.wait()
    }
}

#[test]
fn cpr_barrier_phases_survive_a_rollback() {
    const PARTIES: u32 = 3;
    const ROUNDS: u32 = 8;
    let run = |workers: usize, plan: &ChaosPlan| {
        let mut b = CprBuilder::new()
            .workers(workers)
            .checkpoint_every(6)
            .chaos(plan);
        let counter = b.atomic(0);
        let barrier = b.barrier(PARTIES);
        let tids: Vec<ThreadId> = (0..PARTIES)
            .map(|g| {
                let (done, added, reading) = (0, false, false);
                let p = Phased { counter, barrier, rounds: ROUNDS, done, added, reading };
                b.thread(p, GroupId::new(g), 1)
            })
            .collect();
        let report = b.build().run().unwrap();
        let outs: Vec<u64> = tids.iter().map(|&t| report.output::<u64>(t)).collect();
        (outs, report.stats.barrier_releases, report.rollbacks)
    };
    let everyone = vec![u64::from(PARTIES * ROUNDS); PARTIES as usize];
    let clean = ChaosPlan::new();
    // The checkpoint requested at grant 6 stops granting until it is
    // taken, so the exception at grant 20 always finds a snapshot.
    let fault = ChaosPlan::new().with(ChaosEvent::at_grant(20));
    for workers in [1, 2] {
        assert_eq!(run(workers, &clean), (everyone.clone(), u64::from(ROUNDS), 0));
        let (outs, releases, rollbacks) = run(workers, &fault);
        assert_eq!((&outs, rollbacks), (&everyone, 1), "{workers} workers");
        // Releases count what ran: those between the snapshot and the
        // rollback run twice.
        assert!(releases > u64::from(ROUNDS), "{workers} workers: {releases}");
    }
    // One worker grants lowest-ready-thread-first, so the rolled-back run
    // is one schedule: a round is six grants, and each checkpoint is taken
    // just before the round's last arrival releases it. The rollback at
    // grant 20 returns to the one at grant 18, and release 3 runs twice.
    assert_eq!(run(1, &fault).1, u64::from(ROUNDS) + 1);
}

/// Three fetch-adds, a spawn of a child that returns 1234, three more
/// fetch-adds, a join of the child; exits with what it joined plus the
/// child's id × 1 000 000.
struct SpawnsOne {
    counter: AtomicHandle,
    pc: u32,
    child: Option<ThreadId>,
}

impl Checkpoint for SpawnsOne {
    type Snapshot = (u32, Option<ThreadId>);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.pc, self.child)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        (self.pc, self.child) = *s;
    }
}

impl ThreadProgram for SpawnsOne {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        self.pc += 1;
        match self.pc {
            4 => Step::spawn(OneShot::new(|| 1234u64), GroupId::new(0), 1),
            8 => Step::join(self.child.expect("spawned at step 4")),
            9 => {
                let child = self.child.expect("spawned at step 4");
                Step::exit(ctx.joined::<u64>() + u64::from(child.raw()) * 1_000_000)
            }
            pc => {
                if pc == 5 {
                    self.child = Some(ctx.spawned());
                }
                self.counter.fetch_add(1)
            }
        }
    }
}

/// A rollback that discards a spawn re-runs it, and the re-created child
/// gets the id the discarded one had: the rolled-back run reports the same
/// threads and the same value as its clean twin.
#[test]
fn cpr_rollback_respawns_a_child_under_its_id() {
    let run = |plan: &ChaosPlan| {
        let mut b = CprBuilder::new()
            .workers(1)
            .checkpoint_every(1)
            .chaos(plan);
        let counter = b.atomic(0);
        let parent = SpawnsOne { counter, pc: 0, child: None };
        let tid = b.thread(parent, GroupId::new(0), 1);
        let report = b.build().run().unwrap();
        let keys: Vec<ThreadId> = report.outputs.keys().copied().collect();
        (keys, report.output::<u64>(tid), report.rollbacks)
    };
    // Grant 5 is the spawn; the checkpoint before it holds one thread.
    let (keys, value, rollbacks) = run(&ChaosPlan::new().with(ChaosEvent::at_grant(5)));
    let (clean_keys, clean_value, _) = run(&ChaosPlan::new());
    assert_eq!(rollbacks, 1);
    assert_eq!((keys, value), (clean_keys, clean_value));
    assert_eq!(clean_value, 1_001_234);
}

/// A thread that performs `script(0)`, `script(1)`, … — one step each.
struct Script<F> {
    pc: u32,
    script: F,
}

impl<F: Send + 'static> Checkpoint for Script<F> {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.pc
    }
    fn restore(&mut self, pc: &u32) {
        self.pc = *pc;
    }
}

impl<F: FnMut(u32) -> Step + Send + 'static> ThreadProgram for Script<F> {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        let step = (self.script)(self.pc);
        self.pc += 1;
        step
    }
}

fn script(b: &mut Registry, f: impl FnMut(u32) -> Step + Send + 'static) {
    b.thread(Script { pc: 0, script: f }, GroupId::new(0), 1);
}

/// The baseline poisons the GPRS drivers' ill-formed programs by the same
/// names instead of parking its last worker where nothing can wake it.
#[test]
fn cpr_poisons_ill_formed_programs_by_name() {
    type Program = fn(&mut Registry);
    let ill_formed: [(Program, &str); 3] = [
        (
            |b| {
                let chan = b.channel::<u64>();
                script(b, |_| Step::exit_unit());
                script(b, move |pc| if pc == 0 { chan.pop() } else { Step::exit_unit() });
            },
            "channel starvation",
        ),
        (
            |b| {
                let barrier = b.barrier(3);
                for _ in 0..2 {
                    script(b, move |pc| if pc == 0 { barrier.wait() } else { Step::exit_unit() });
                }
            },
            "barrier participants mismatch",
        ),
        (
            |b| {
                for peer in [1, 0] {
                    let join = move |pc| match pc {
                        0 => Step::join(ThreadId::new(peer)),
                        _ => Step::exit_unit(),
                    };
                    script(b, join);
                }
            },
            "join cycle",
        ),
    ];
    for (program, expect) in ill_formed {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut b = CprBuilder::new().workers(2);
            program(&mut b);
            let _ = tx.send(b.build().run().map(|r| r.rollbacks));
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Err(RunError::Poisoned(msg))) => {
                assert!(msg.contains(expect), "wanted {expect:?} in {msg:?}")
            }
            Ok(other) => panic!("{expect}: expected a poisoned run, got {other:?}"),
            Err(_) => panic!("{expect}: the CPR run did not return within its watchdog"),
        }
    }
}
