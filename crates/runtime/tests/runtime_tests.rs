//! End-to-end tests of the GPRS runtime: deterministic execution,
//! synchronization semantics, and precise recovery from injected
//! exceptions.

use gprs_runtime::ctx::StepCtx;
use gprs_runtime::prelude::*;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Program zoo
// ---------------------------------------------------------------------------

/// Increments a shared mutex-protected counter `rounds` times, doing some
/// local computation per round.
struct LockCounter {
    mutex: MutexHandle<u64>,
    rounds: u32,
    done: u32,
    local: u64,
}

impl Checkpoint for LockCounter {
    type Snapshot = (u32, u64);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.done, self.local)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.done = s.0;
        self.local = s.1;
    }
}

impl ThreadProgram for LockCounter {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.done > 0 {
            ctx.with_lock(&self.mutex, |n| *n += 1);
            ctx.unlock(&self.mutex);
            // Post-unlock computation stays in the same sub-thread
            // (unlock subsumption).
            self.local = self.local.wrapping_mul(31).wrapping_add(self.done as u64);
        }
        if self.done == self.rounds {
            return Step::exit(self.local);
        }
        self.done += 1;
        self.mutex.lock()
    }
}

/// Produces `count` sequential items into a channel.
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
        self.chan.push(v * v)
    }
}

/// Consumes `count` items, accumulating a checksum.
struct Consumer {
    chan: ChannelHandle<u64>,
    count: u64,
    taken: u64,
    sum: u64,
    started: bool,
}

impl Consumer {
    fn new(chan: ChannelHandle<u64>, count: u64) -> Self {
        Consumer {
            chan,
            count,
            taken: 0,
            sum: 0,
            started: false,
        }
    }
}

impl Checkpoint for Consumer {
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

impl ThreadProgram for Consumer {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.started {
            let v: u64 = ctx.popped();
            self.taken += 1;
            self.sum = self.sum.wrapping_mul(1_000_003).wrapping_add(v);
        } else {
            self.started = true;
        }
        if self.taken == self.count {
            return Step::exit(self.sum);
        }
        self.chan.pop()
    }
}

/// Iterative barrier program: `iters` phases, each adding the phase number
/// into an atomic, synchronizing on a barrier between phases.
struct BarrierWorker {
    barrier: BarrierHandle,
    atomic: AtomicHandle,
    iters: u32,
    phase: u32,
    pending_add: bool,
}

impl Checkpoint for BarrierWorker {
    type Snapshot = (u32, bool);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.phase, self.pending_add)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.phase = s.0;
        self.pending_add = s.1;
    }
}

impl ThreadProgram for BarrierWorker {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if !self.pending_add {
            if self.phase == self.iters {
                return Step::exit_unit();
            }
            self.phase += 1;
            self.pending_add = true;
            return self.atomic.fetch_add(self.phase as u64);
        }
        self.pending_add = false;
        if self.phase == self.iters {
            return Step::exit_unit();
        }
        self.barrier.wait()
    }
}

/// Spawns a child summer, computes locally, joins it and exits with the
/// combined result.
struct ForkJoinParent {
    n: u64,
    stage: u8,
    child: Option<ThreadId>,
    local: u64,
}

impl Checkpoint for ForkJoinParent {
    type Snapshot = (u8, Option<ThreadId>, u64);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.stage, self.child, self.local)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.stage = s.0;
        self.child = s.1;
        self.local = s.2;
    }
}

impl ThreadProgram for ForkJoinParent {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                let n = self.n;
                Step::spawn(
                    OneShot::new(move || (0..n).sum::<u64>()),
                    GroupId::new(1),
                    1,
                )
            }
            1 => {
                self.child = Some(ctx.spawned());
                self.local = self.n * 2;
                self.stage = 2;
                Step::join(self.child.expect("just set"))
            }
            _ => {
                let child_sum: u64 = ctx.joined();
                Step::exit(child_sum + self.local)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn pipeline_builder(workers: usize, producers: u64, items: u64, consumers: u64) -> (GprsBuilder, Vec<ThreadId>) {
    let mut b = GprsBuilder::new().workers(workers);
    let chan = b.channel::<u64>();
    let mut consumer_ids = Vec::new();
    for _ in 0..producers {
        b.thread(
            Producer {
                chan,
                count: items,
                next: 0,
            },
            GroupId::new(0),
            1,
        );
    }
    let per = items * producers / consumers;
    for _ in 0..consumers {
        consumer_ids.push(b.thread(Consumer::new(chan, per), GroupId::new(1), 1));
    }
    (b, consumer_ids)
}

/// Keeps injecting exceptions at the given real-time period until the run
/// finishes.
fn inject_while_running(controller: Controller, period: Duration) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut injected = 0;
        while !controller.is_finished() {
            if controller.inject_on_busy(ExceptionKind::SoftFault) {
                injected += 1;
            }
            std::thread::sleep(period);
        }
        injected
    })
}

// ---------------------------------------------------------------------------
// Functional tests (exception-free)
// ---------------------------------------------------------------------------

#[test]
fn one_shot_threads_produce_outputs() {
    let mut b = GprsBuilder::new().workers(3);
    let mut tids = Vec::new();
    for i in 0..6u64 {
        tids.push(b.thread(OneShot::new(move || i * 10), GroupId::new(0), 1));
    }
    let report = b.build().run().unwrap();
    for (i, t) in tids.into_iter().enumerate() {
        assert_eq!(report.output::<u64>(t), i as u64 * 10);
    }
    assert_eq!(report.stats.subthreads, 6);
    assert_eq!(report.stats.retired, 6);
}

#[test]
fn mutex_counter_is_exact() {
    let mut b = GprsBuilder::new().workers(4);
    let counter = b.mutex(0u64);
    for _ in 0..4 {
        b.thread(
            LockCounter {
                mutex: counter,
                rounds: 25,
                done: 0,
                local: 1,
            },
            GroupId::new(0),
            1,
        );
    }
    // Final reader: serialized section reads the counter after all retire.
    struct FinalReader {
        mutex: MutexHandle<u64>,
        stage: u8,
    }
    impl Checkpoint for FinalReader {
        type Snapshot = u8;
        fn checkpoint(&self) -> u8 {
            self.stage
        }
        fn restore(&mut self, s: &u8) {
            self.stage = *s;
        }
    }
    impl ThreadProgram for FinalReader {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
            match self.stage {
                0 => {
                    self.stage = 1;
                    self.mutex.lock()
                }
                _ => {
                    let v = ctx.with_lock(&self.mutex, |n| *n);
                    if v == 100 {
                        Step::exit(v)
                    } else {
                        // Not everyone is done yet: release and retry.
                        ctx.unlock(&self.mutex);
                        self.stage = 0;
                        self.mutex.lock()
                    }
                }
            }
        }
    }
    let reader = b.thread(FinalReader { mutex: counter, stage: 0 }, GroupId::new(1), 1);
    let report = b.build().run().unwrap();
    assert_eq!(report.output::<u64>(reader), 100);
    assert!(report.stats.locks_acquired >= 101);
}

#[test]
fn pipeline_delivers_all_items_fifo() {
    let (b, consumers) = pipeline_builder(4, 1, 40, 1);
    let report = b.build().run().unwrap();
    // Single producer, single consumer: order is exactly 0..40 squared.
    let mut expect = 0u64;
    for v in (0..40u64).map(|v| v * v) {
        expect = expect.wrapping_mul(1_000_003).wrapping_add(v);
    }
    assert_eq!(report.output::<u64>(consumers[0]), expect);
}

#[test]
fn slow_producer_forces_empty_polls() {
    // The producer interleaves an atomic op between pushes, so on half of
    // the consumer's turns the FIFO is deterministically empty and the
    // consumer must pass the token (Figure 7's wasted turns).
    struct SlowProducer {
        chan: ChannelHandle<u64>,
        atomic: AtomicHandle,
        count: u64,
        next: u64,
        breathe: bool,
    }
    impl Checkpoint for SlowProducer {
        type Snapshot = (u64, bool);
        fn checkpoint(&self) -> Self::Snapshot {
            (self.next, self.breathe)
        }
        fn restore(&mut self, s: &Self::Snapshot) {
            self.next = s.0;
            self.breathe = s.1;
        }
    }
    impl ThreadProgram for SlowProducer {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
            if self.next == self.count {
                return Step::exit_unit();
            }
            if self.breathe {
                self.breathe = false;
                return self.atomic.fetch_add(1);
            }
            self.breathe = true;
            let v = self.next;
            self.next += 1;
            self.chan.push(v)
        }
    }
    let mut b = GprsBuilder::new().workers(2);
    let chan = b.channel::<u64>();
    let a = b.atomic(0);
    b.thread(
        SlowProducer { chan, atomic: a, count: 12, next: 0, breathe: true },
        GroupId::new(0),
        1,
    );
    let c = b.thread(Consumer::new(chan, 12), GroupId::new(1), 1);
    let report = b.build().run().unwrap();
    let _ = report.output::<u64>(c);
    assert!(report.stats.polls > 0, "stats: {:?}", report.stats);
}

#[test]
fn multi_consumer_pipeline_conserves_items() {
    let (b, consumers) = pipeline_builder(4, 2, 30, 3);
    let report = b.build().run().unwrap();
    for c in consumers {
        // Each consumer got its 20 items (values are data-dependent on
        // interleaving of producers, but count completion proves
        // conservation).
        let _ = report.output::<u64>(c);
    }
}

#[test]
fn barrier_phases_accumulate() {
    let threads = 4u64;
    let iters = 5u32;
    let mut b = GprsBuilder::new().workers(4);
    let bar = b.barrier(threads as u32);
    let total = b.atomic(0);
    let mut tids = Vec::new();
    for _ in 0..threads {
        tids.push(b.thread(
            BarrierWorker {
                barrier: bar,
                atomic: total,
                iters,
                phase: 0,
                pending_add: false,
            },
            GroupId::new(0),
            1,
        ));
    }
    let report = b.build().run().unwrap();
    assert_eq!(report.stats.barrier_releases as u32, iters - 1);
    for t in tids {
        let _: () = report.output(t);
    }
}

#[test]
fn fork_join_combines_results() {
    let mut b = GprsBuilder::new().workers(3);
    let parent = b.thread(
        ForkJoinParent {
            n: 100,
            stage: 0,
            child: None,
            local: 0,
        },
        GroupId::new(0),
        1,
    );
    let report = b.build().run().unwrap();
    assert_eq!(report.output::<u64>(parent), (0..100u64).sum::<u64>() + 200);
    assert_eq!(report.stats.spawns, 1);
}

#[test]
fn file_output_commits_in_retirement_order() {
    struct Writer {
        file: FileHandle,
        rounds: u8,
        done: u8,
        tag: u8,
        atomic: AtomicHandle,
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
            ctx.write_file(self.file, &[self.tag, self.done]);
            if self.done == self.rounds {
                return Step::exit_unit();
            }
            self.done += 1;
            self.atomic.fetch_add(1)
        }
    }
    let mut b = GprsBuilder::new().workers(2);
    let file = b.file("out.bin");
    let a = b.atomic(0);
    b.thread(
        Writer { file, rounds: 3, done: 0, tag: 7, atomic: a },
        GroupId::new(0),
        1,
    );
    let report = b.build().run().unwrap();
    assert_eq!(report.file_contents(0), &[7, 0, 7, 1, 7, 2, 7, 3]);
}

/// One pool-allocator round trip per step: alloc, write, read, free.
struct AllocUser {
    stage: u8,
    atomic: AtomicHandle,
}

impl Checkpoint for AllocUser {
    type Snapshot = u8;
    fn checkpoint(&self) -> u8 {
        self.stage
    }
    fn restore(&mut self, s: &u8) {
        self.stage = *s;
    }
}

impl ThreadProgram for AllocUser {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        let block = ctx.alloc(16);
        ctx.with_block(block, |b| b[0] = 42);
        let v = ctx.read_block(block, |b| b[0]);
        assert_eq!(v, 42);
        ctx.free(block);
        if self.stage == 2 {
            return Step::exit_unit();
        }
        self.stage += 1;
        self.atomic.fetch_add(1)
    }
}

fn allocator_run(plan: &ChaosPlan) -> RunReport {
    let mut b = GprsBuilder::new().workers(2).chaos(plan);
    let a = b.atomic(0);
    b.thread(AllocUser { stage: 0, atomic: a }, GroupId::new(0), 1);
    b.build().run().unwrap()
}

/// Allocator records are counted like every other WAL record: each append
/// is pruned at retirement or undone by a squash.
fn assert_wal_balanced(report: &RunReport) {
    let t = &report.telemetry;
    assert_eq!(
        t.counter("wal_appends"),
        t.counter("wal_undos") + t.counter("wal_prunes"),
        "appends {} undos {} prunes {}",
        t.counter("wal_appends"),
        t.counter("wal_undos"),
        t.counter("wal_prunes")
    );
}

#[test]
fn allocator_round_trips() {
    let report = allocator_run(&ChaosPlan::new());
    assert_eq!(report.stats.allocs, 3);
    assert_wal_balanced(&report);
}

#[test]
fn allocator_round_trips_under_a_fault() {
    // One thread, so the second grant's step is the only one running when
    // the fault lands: its fetch-add, alloc and free records are undone.
    let plan = ChaosPlan::new().with(ChaosEvent::at_grant(2).victim(VictimSelector::Oldest));
    let report = allocator_run(&plan);
    assert_eq!(report.stats.squashed, 1);
    assert_eq!(report.stats.allocs, 4, "the squashed step allocates again");
    assert_eq!(report.telemetry.counter("wal_undos"), 3);
    assert_wal_balanced(&report);
}

#[test]
fn serialized_section_runs_exclusively() {
    struct SerialUser {
        stage: u8,
    }
    impl Checkpoint for SerialUser {
        type Snapshot = u8;
        fn checkpoint(&self) -> u8 {
            self.stage
        }
        fn restore(&mut self, s: &u8) {
            self.stage = *s;
        }
    }
    impl ThreadProgram for SerialUser {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
            match self.stage {
                0 => {
                    self.stage = 1;
                    Step::Serialized
                }
                _ => Step::exit(99u32),
            }
        }
    }
    let mut b = GprsBuilder::new().workers(3);
    let t = b.thread(SerialUser { stage: 0 }, GroupId::new(0), 1);
    for i in 0..3u64 {
        b.thread(OneShot::new(move || i), GroupId::new(1), 1);
    }
    let report = b.build().run().unwrap();
    assert_eq!(report.output::<u32>(t), 99);
    assert_eq!(report.stats.serialized, 1);
}

#[test]
fn panicking_step_poisons_run() {
    let mut b = GprsBuilder::new().workers(2);
    b.thread(
        OneShot::new(|| -> u32 { panic!("injected test panic") }),
        GroupId::new(0),
        1,
    );
    let err = b.build().run().unwrap_err();
    assert!(matches!(err, RunError::Poisoned(msg) if msg.contains("injected test panic")));
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

#[test]
fn grant_trace_is_identical_across_worker_counts() {
    let run = |workers| {
        let (b, consumers) = pipeline_builder(workers, 2, 24, 2);
        let report = b.trace_cap(1 << 16).build().run().unwrap();
        let outs: Vec<u64> = consumers
            .iter()
            .map(|&c| report.output::<u64>(c))
            .collect();
        (
            report.telemetry.schedule_hash,
            report.grant_trace(),
            outs,
            report.stats.polls,
        )
    };
    let (hash1, trace1, out1, polls1) = run(1);
    let (hash2, trace2, out2, polls2) = run(2);
    let (hash4, trace4, out4, polls4) = run(6);
    assert_eq!(hash1, hash2);
    assert_eq!(hash2, hash4);
    assert_eq!(trace1, trace2);
    assert_eq!(trace2, trace4);
    assert_eq!(out1, out2);
    assert_eq!(out2, out4);
    assert_eq!(polls1, polls2);
    assert_eq!(polls2, polls4);
}

#[test]
fn round_robin_schedule_is_also_deterministic() {
    let run = |workers| {
        let mut b = GprsBuilder::new()
            .workers(workers)
            .schedule(ScheduleKind::RoundRobin);
        let counter = b.mutex(0u64);
        let mut tids = Vec::new();
        for _ in 0..3 {
            tids.push(b.thread(
                LockCounter {
                    mutex: counter,
                    rounds: 10,
                    done: 0,
                    local: 1,
                },
                GroupId::new(0),
                1,
            ));
        }
        let report = b.build().run().unwrap();
        let outs: Vec<u64> = tids.iter().map(|&t| report.output::<u64>(t)).collect();
        (report.telemetry.schedule_hash, outs)
    };
    assert_eq!(run(1), run(4));
}

// ---------------------------------------------------------------------------
// Exception recovery
// ---------------------------------------------------------------------------

/// Reference output of the standard pipeline with no exceptions.
fn pipeline_reference() -> Vec<u64> {
    let (b, consumers) = pipeline_builder(2, 1, 60, 1);
    let report = b.build().run().unwrap();
    consumers
        .iter()
        .map(|&c| report.output::<u64>(c))
        .collect()
}

#[test]
fn recovery_preserves_pipeline_output() {
    let reference = pipeline_reference();
    for attempt in 0..3 {
        let (b, consumers) = pipeline_builder(2, 1, 60, 1);
        let gprs = b.build();
        let controller = gprs.controller();
        let injector = inject_while_running(controller, Duration::from_micros(300 + attempt * 200));
        let report = gprs.run().unwrap();
        let injected = injector.join().unwrap();
        let outs: Vec<u64> = consumers
            .iter()
            .map(|&c| report.output::<u64>(c))
            .collect();
        assert_eq!(outs, reference, "outputs diverged after {injected} injections");
        if report.stats.squashed > 0 {
            // Real recoveries happened and the output still matches.
            assert!(report.stats.recoveries > 0);
        }
    }
}

#[test]
fn recovery_preserves_lock_counter() {
    let run = |inject: bool| {
        let mut b = GprsBuilder::new().workers(3);
        let counter = b.mutex(0u64);
        let mut tids = Vec::new();
        for _ in 0..3 {
            tids.push(b.thread(
                LockCounter {
                    mutex: counter,
                    rounds: 30,
                    done: 0,
                    local: 1,
                },
                GroupId::new(0),
                1,
            ));
        }
        let gprs = b.build();
        let controller = gprs.controller();
        let injector = inject
            .then(|| inject_while_running(controller, Duration::from_micros(400)));
        let report = gprs.run().unwrap();
        if let Some(j) = injector {
            j.join().unwrap();
        }
        let outs: Vec<u64> = tids.iter().map(|&t| report.output::<u64>(t)).collect();
        (outs, report.stats)
    };
    let (clean, _) = run(false);
    let (faulty, stats) = run(true);
    assert_eq!(clean, faulty);
    assert!(stats.exceptions >= stats.recoveries);
}

#[test]
fn recovery_preserves_barrier_program() {
    let run = |inject: bool| {
        let mut b = GprsBuilder::new().workers(3);
        let bar = b.barrier(3);
        let a = b.atomic(0);
        let mut tids = Vec::new();
        for _ in 0..3 {
            tids.push(b.thread(
                BarrierWorker {
                    barrier: bar,
                    atomic: a,
                    iters: 8,
                    phase: 0,
                    pending_add: false,
                },
                GroupId::new(0),
                1,
            ));
        }
        let gprs = b.build();
        let controller = gprs.controller();
        let injector = inject
            .then(|| inject_while_running(controller, Duration::from_micros(500)));
        let report = gprs.run().unwrap();
        if let Some(j) = injector {
            j.join().unwrap();
        }
        (tids.len(), report.stats.barrier_releases >= 7, report.stats)
    };
    let (_, clean_ok, _) = run(false);
    let (_, faulty_ok, _stats) = run(true);
    assert!(clean_ok);
    assert!(faulty_ok);
}

#[test]
fn recovery_preserves_fork_join() {
    let run = |inject: bool| {
        let mut b = GprsBuilder::new().workers(2);
        let parent = b.thread(
            ForkJoinParent {
                n: 5_000,
                stage: 0,
                child: None,
                local: 0,
            },
            GroupId::new(0),
            1,
        );
        let gprs = b.build();
        let controller = gprs.controller();
        let injector = inject
            .then(|| inject_while_running(controller, Duration::from_micros(200)));
        let report = gprs.run().unwrap();
        if let Some(j) = injector {
            j.join().unwrap();
        }
        report.output::<u64>(parent)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn basic_recovery_squashes_at_least_as_much_as_selective() {
    let run = |policy: RecoveryPolicy| {
        let (mut b, _) = pipeline_builder(2, 1, 40, 1);
        b = b.recovery(policy);
        let gprs = b.build();
        let controller = gprs.controller();
        // Deterministic single injection after a small delay.
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            controller.inject_on_busy(ExceptionKind::VoltageEmergency)
        });
        let report = gprs.run().unwrap();
        let _ = h.join().unwrap();
        report.stats
    };
    let sel = run(RecoveryPolicy::Selective);
    let basic = run(RecoveryPolicy::Basic);
    // Both complete; with an injection landed, basic discards at least as
    // many sub-threads per recovery on this serial pipeline.
    if sel.recoveries > 0 && basic.recoveries > 0 {
        assert!(
            basic.squashed * sel.recoveries >= sel.squashed * basic.recoveries,
            "basic {basic:?} vs selective {sel:?}"
        );
    }
}

#[test]
fn exception_on_idle_context_is_ignored() {
    let mut b = GprsBuilder::new().workers(4);
    let t = b.thread(OneShot::new(|| 5u32), GroupId::new(0), 1);
    let gprs = b.build();
    let controller = gprs.controller();
    // Inject on a context that will be idle long before this fires.
    let h = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(1));
        controller.inject_on(ExceptionKind::SoftFault, 3);
    });
    let report = gprs.run().unwrap();
    h.join().unwrap();
    assert_eq!(report.output::<u32>(t), 5);
    assert_eq!(report.stats.exceptions, report.stats.exceptions_ignored);
}

/// A report's trace is a snapshot of the run: the summary took the rings
/// out of the facade, so an exception raised after the run records into
/// nothing the report holds.
#[test]
fn a_reports_trace_is_unchanged_by_a_late_injection() {
    let mut b = GprsBuilder::new().workers(2);
    let t = b.thread(OneShot::new(|| 5u32), GroupId::new(0), 1);
    let gprs = b.build();
    let controller = gprs.controller();
    let report = gprs.run().unwrap();
    let (events, dropped) = (report.telemetry.events(), report.telemetry.dropped_events);
    assert!(!events.is_empty(), "the run was traced");
    for context in [0, 1, 7] {
        controller.inject_on(ExceptionKind::SoftFault, context);
    }
    assert!(!controller.inject_on_busy(ExceptionKind::SoftFault));
    assert!(controller.is_finished());
    assert_eq!(report.telemetry.events(), events);
    assert_eq!(report.telemetry.dropped_events, dropped);
    assert_eq!(report.output::<u32>(t), 5);
}

#[test]
fn file_output_survives_recovery_uncorrupted() {
    let run = |inject: bool| {
        struct Writer {
            file: FileHandle,
            rounds: u8,
            done: u8,
            atomic: AtomicHandle,
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
                // Burn some cycles so injections can land mid-step.
                let mut x = 1u64;
                for i in 0..20_000u64 {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                }
                std::hint::black_box(x);
                if self.done == self.rounds {
                    return Step::exit_unit();
                }
                self.done += 1;
                self.atomic.fetch_add(1)
            }
        }
        let mut b = GprsBuilder::new().workers(2);
        let file = b.file("log");
        let a = b.atomic(0);
        b.thread(Writer { file, rounds: 20, done: 0, atomic: a }, GroupId::new(0), 1);
        let gprs = b.build();
        let controller = gprs.controller();
        let injector = inject
            .then(|| inject_while_running(controller, Duration::from_micros(150)));
        let report = gprs.run().unwrap();
        if let Some(j) = injector {
            j.join().unwrap();
        }
        (report.file_contents(0).to_vec(), report.stats)
    };
    let (clean, _) = run(false);
    let (faulty, stats) = run(true);
    assert_eq!(clean, faulty, "stats: {stats:?}");
    assert_eq!(clean, (0..=20u8).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------------
// Undoing a released barrier generation
// ---------------------------------------------------------------------------

/// Opened once; waiting on it ends when it opens (or after a watchdog
/// timeout, so a broken interleaving fails the test instead of hanging it).
#[derive(Default)]
struct Gate(std::sync::Mutex<bool>, std::sync::Condvar);

impl Gate {
    fn open(&self) {
        *self.0.lock().unwrap() = true;
        self.1.notify_all();
    }

    fn wait(&self) {
        let open = self.0.lock().unwrap();
        let _ = self.1.wait_timeout_while(open, Duration::from_secs(10), |o| !*o).unwrap();
    }
}

/// Touches `m` in a nested section (so the lock is a dependence alias of its
/// only sub-thread), then stays running until `gate` opens: the oldest
/// sub-thread in flight while its peers run ahead.
struct Straggler {
    m: MutexHandle<u64>,
    gate: std::sync::Arc<Gate>,
}

impl Checkpoint for Straggler {
    type Snapshot = ();
    fn checkpoint(&self) {}
    fn restore(&mut self, _: &()) {}
}

impl ThreadProgram for Straggler {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        ctx.lock_nested(&self.m, |v| *v += 1);
        self.gate.wait();
        Step::exit(1u64)
    }
}

/// Touches `m` in a nested section, meets its peers at `barrier`, opens
/// `gate` from its continuation and exits.
struct Arriver {
    m: MutexHandle<u64>,
    barrier: BarrierHandle,
    gate: std::sync::Arc<Gate>,
    arrived: bool,
}

impl Checkpoint for Arriver {
    type Snapshot = bool;
    fn checkpoint(&self) -> bool {
        self.arrived
    }
    fn restore(&mut self, s: &bool) {
        self.arrived = *s;
    }
}

impl ThreadProgram for Arriver {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.arrived {
            self.gate.open();
            return Step::exit(7u64);
        }
        ctx.lock_nested(&self.m, |v| *v += 10);
        self.arrived = true;
        self.barrier.wait()
    }
}

/// Fetch-adds its own atomic `rounds` times.
struct Ticker {
    atomic: AtomicHandle,
    rounds: u64,
    done: u64,
}

impl Checkpoint for Ticker {
    type Snapshot = u64;
    fn checkpoint(&self) -> u64 {
        self.done
    }
    fn restore(&mut self, s: &u64) {
        self.done = *s;
    }
}

impl ThreadProgram for Ticker {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.done == self.rounds {
            return Step::exit(self.done);
        }
        self.done += 1;
        self.atomic.fetch_add(1)
    }
}

/// The straggler is granted first and shares its group with two tickers,
/// so it takes one turn in three of that group's while each arriver (a
/// group of its own) takes every one of its own: the three arrive, the
/// barrier releases and a continuation is granted while the straggler —
/// older than every arrival and sharing their lock alias — still runs,
/// held by `gate` until that continuation runs.
fn released_generation_program(b: &mut GprsBuilder, gate: &std::sync::Arc<Gate>) -> Vec<ThreadId> {
    let m = b.mutex(0u64);
    let barrier = b.barrier(3);
    let mut tids = vec![b.thread(Straggler { m, gate: gate.clone() }, GroupId::new(3), 1)];
    for g in 0..3 {
        let arriver = Arriver { m, barrier, gate: gate.clone(), arrived: false };
        tids.push(b.thread(arriver, GroupId::new(g), 1));
    }
    for _ in 0..2 {
        let atomic = b.atomic(0);
        tids.push(b.thread(Ticker { atomic, rounds: 4, done: 0 }, GroupId::new(3), 1));
    }
    tids
}

#[test]
fn recovery_undoes_a_released_generation() {
    use gprs_core::recording::{Recording, EVT_ARRIVE};
    use gprs_core::subthread::SubThreadKind;

    // The clean run's recording says which grant opens the first barrier
    // continuation: a fault right after it lands on the straggler (the
    // oldest running sub-thread), whose closure holds the released
    // arrivals and the continuation their release opened.
    let tape = std::env::temp_dir().join(format!("gprs-undo-release-{}.gprs", std::process::id()));
    let mut b = GprsBuilder::new().workers(2).record(&tape);
    let tids = released_generation_program(&mut b, &Default::default());
    let clean = b.build().run().unwrap();
    let events = Recording::load(&tape).expect("the clean run was recorded").events;
    std::fs::remove_file(&tape).ok();
    let continuation = SubThreadKind::BarrierContinuation.tag();
    let grants = events.iter().filter(|e| e.kind < EVT_ARRIVE);
    let k = 1 + grants.take_while(|e| e.kind != continuation).count() as u64;
    let plan = ChaosPlan::new().with(ChaosEvent::at_grant(k).victim(VictimSelector::Oldest));

    let outputs = |r: &RunReport| tids.iter().map(|&t| r.output::<u64>(t)).collect::<Vec<_>>();
    let build = |gate: &std::sync::Arc<Gate>| {
        let mut b = GprsBuilder::new().workers(2).chaos(&plan);
        released_generation_program(&mut b, gate);
        b.build()
    };
    let pooled = build(&Default::default()).run().unwrap();
    assert!(
        pooled.stats.barrier_releases > clean.stats.barrier_releases,
        "the release was undone and re-done: {:?}",
        pooled.stats
    );
    // A single context runs the straggler to completion before anything
    // else (its gate starts open), so on the session the same fault
    // squashes only the continuation — and must converge all the same.
    let open = std::sync::Arc::new(Gate::default());
    open.open();
    let mut session = build(&open).into_session();
    session.run_to_completion();
    let session = session.finish().unwrap();
    for (driver, report) in [("pool", &pooled), ("session", &session)] {
        assert_eq!(outputs(report), outputs(&clean), "{driver}: outputs");
        let (got, want) = (&report.telemetry, &clean.telemetry);
        assert_eq!(got.retired_hash, want.retired_hash, "{driver}: retired hash");
        assert_eq!(got.retired_count, want.retired_count, "{driver}: retired count");
        assert!(report.stats.squashed > 0, "{driver}: the fault landed");
    }
}
