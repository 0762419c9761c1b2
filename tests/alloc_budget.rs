//! The grant → checkpoint → deposit → retire cycle's heap-allocation
//! budget, counted by a `#[global_allocator]` rather than claimed by a
//! counter the engine increments itself.
//!
//! Each program is run at `N` and at `2N` rounds; set-up (builder, worker
//! threads, telemetry rings, report) allocates the same in both, so the
//! difference is what `N` more rounds cost. Set-up has a budget of its own:
//! what building one served job into a session may allocate. So does the
//! pbzip2 step's kernel, which is most of a `pipeline` run, and so does a
//! simulator recovery, set against its fault-free twin. The allocator
//! counts the whole process, and a test running beside another would be
//! counted too, so the tests take turns under [`TURN`]. It also counts each
//! thread's own, for a build, which runs on the calling thread: the harness
//! spawns the next test's thread beside it.

use gprs_bench::injector;
use gprs_core::ids::{BarrierId, ThreadId};
use gprs_core::ledger::RunLedger;
use gprs_core::workload::{Segment, SimOp, ThreadSpec, Workload};
use gprs_runtime::cpr::CprBuilder;
use gprs_runtime::prelude::*;
use gprs_serve::{build_job, JobSpec};
use gprs_sim::gprs::{run_gprs, GprsSimConfig};
use gprs_telemetry::{RingSet, TelemetryConfig, TimedEvent, TraceEvent};
use gprs_tests::Chain;
use gprs_workloads::kernels::compress::{compress_block, generate_corpus};
use gprs_workloads::traces::{build, info, TraceParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for (a `realloc` counts its whole new size).
static BYTES: AtomicU64 = AtomicU64::new(0);
static TURN: Mutex<()> = Mutex::new(());

thread_local! {
    /// The allocations and bytes of this thread alone.
    static MINE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // A thread being torn down has no slot left; its count is not read.
    let _ = MINE.try_with(|m| {
        let (allocations, total) = m.get();
        m.set((allocations + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// (the thread-local is `const`-initialised and has no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, with the caller's `new_size` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const THREADS: usize = 8;
const WORKERS: usize = 2;

/// `rounds` critical sections on one shared counter.
struct Locker {
    mutex: MutexHandle<u64>,
    rounds: u32,
    done: u32,
    holding: bool,
}

/// Pushes `rounds` values, then exits.
struct Producer {
    chan: ChannelHandle<u32>,
    rounds: u32,
    done: u32,
}

/// Pops `rounds` values, then exits with their sum.
struct Consumer {
    chan: ChannelHandle<u32>,
    rounds: u32,
    done: u32,
    sum: u64,
    popping: bool,
}

impl Checkpoint for Producer {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl Checkpoint for Locker {
    type Snapshot = (u32, bool);
    fn checkpoint(&self) -> (u32, bool) {
        (self.done, self.holding)
    }
    fn restore(&mut self, s: &(u32, bool)) {
        (self.done, self.holding) = *s;
    }
}

impl Checkpoint for Consumer {
    type Snapshot = (u32, u64, bool);
    fn checkpoint(&self) -> (u32, u64, bool) {
        (self.done, self.sum, self.popping)
    }
    fn restore(&mut self, s: &(u32, u64, bool)) {
        (self.done, self.sum, self.popping) = *s;
    }
}

impl ThreadProgram for Locker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.holding {
            ctx.with_lock(&self.mutex, |n| *n += 1);
            self.holding = false;
        }
        if self.done == self.rounds {
            return Step::exit_unit();
        }
        self.done += 1;
        self.holding = true;
        self.mutex.lock()
    }
}

impl ThreadProgram for Producer {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.done == self.rounds {
            return Step::exit_unit();
        }
        self.done += 1;
        self.chan.push(self.done)
    }
}

impl ThreadProgram for Consumer {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.popping {
            self.sum += u64::from(ctx.popped::<u32>());
            self.popping = false;
        }
        if self.done == self.rounds {
            return Step::exit(self.sum);
        }
        self.done += 1;
        self.popping = true;
        self.chan.pop()
    }
}

/// What one run cost and did: allocations made building and running it,
/// sub-threads retired, recoveries run.
type Cost = (u64, u64, u64);

/// The [`Cost`] of building and running one program.
fn measure(build: impl FnOnce(&mut GprsBuilder)) -> Cost {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut b = GprsBuilder::new().workers(WORKERS);
    build(&mut b);
    let report = b.build().run().expect("run completes");
    let (retired, recoveries) = (report.telemetry.retired_count, report.stats.recoveries);
    drop(report);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, retired, recoveries)
}

fn add_chains(b: &mut GprsBuilder, rounds: u32) {
    for _ in 0..THREADS {
        let atomic = b.atomic(0);
        b.thread(Chain::new(atomic, rounds), GroupId::new(0), 1);
    }
}

fn chains(rounds: u32) -> Cost {
    measure(|b| add_chains(b, rounds))
}

/// The largest run [`faulted_chains`] is asked for, in rounds.
const FAULTED_ROUNDS_MAX: u32 = 2 * 2_000;

/// `chains` with a global exception every eighth grant, as `gprsbench`'s
/// `chain-faults` injects them. Both sizes `marginal` compares arm the same
/// plan, keyed past the larger run's grants, so arming it costs the same
/// and what differs is the rounds and the recoveries they bring. One
/// worker: with two, how far a thread runs ahead of its retirement before
/// a squash lands is timing, and each new high-water mark of in-flight
/// checkpoints costs a box that no recovery asked for.
fn faulted_chains(rounds: u32) -> Cost {
    assert!(rounds <= FAULTED_ROUNDS_MAX);
    let grants = u64::from(FAULTED_ROUNDS_MAX + 1) * THREADS as u64 * 2;
    let mut plan = ChaosPlan::new();
    for k in 1..=grants / 8 {
        plan.push(ChaosEvent::at_grant(k * 8));
    }
    measure(|b| {
        *b = std::mem::take(b).workers(1).chaos(&plan);
        add_chains(b, rounds);
    })
}

fn lockers(rounds: u32) -> Cost {
    measure(|b| {
        let mutex = b.mutex(0u64);
        for _ in 0..THREADS {
            let locker = Locker {
                mutex,
                rounds,
                done: 0,
                holding: false,
            };
            b.thread(locker, GroupId::new(0), 1);
        }
    })
}

fn push_pop_pair(rounds: u32) -> Cost {
    measure(|b| {
        let chan = b.channel::<u32>();
        b.thread(
            Producer {
                chan,
                rounds,
                done: 0,
            },
            GroupId::new(0),
            1,
        );
        let consumer = Consumer {
            chan,
            rounds,
            done: 0,
            sum: 0,
            popping: false,
        };
        b.thread(consumer, GroupId::new(1), 1);
    })
}

/// What `N` more rounds cost: the [`Cost`] of a `2N`-round run minus that
/// of an `N`-round run, each side the fewest allocations of a few runs.
/// Timing only ever adds allocations to a run (a worker preempted while its
/// thread has two unretired sub-threads costs a second checkpoint box; a
/// larger retirement batch than any before grows the batch buffer), so the
/// fewest is what the cycle itself makes.
fn marginal(run: fn(u32) -> Cost, n: u32) -> Cost {
    let fewest = |rounds| (0..5).map(|_| run(rounds)).min().expect("five runs");
    let ((a1, r1, e1), (a2, r2, e2)) = (fewest(n), fewest(2 * n));
    (a2.saturating_sub(a1), r2 - r1, e2.saturating_sub(e1))
}

#[test]
fn the_grant_retire_cycle_stays_within_its_allocation_budget() {
    const N: u32 = 2_000;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Warm the process once (lazy statics, thread-local set-up).
    let _ = chains(N);

    // 8 fetch-add chains: the steady-state cycle allocates nothing — the
    // checkpoint box is recycled, the ROL entry's alias set is inline, and
    // retirement prunes by id range.
    let (extra, subthreads, _) = marginal(chains, N);
    assert_eq!(subthreads, u64::from(N) * THREADS as u64);
    assert_eq!(
        extra, 0,
        "{subthreads} more chain sub-threads cost {extra} more allocations"
    );

    // The same chains under a fault every eighth grant: a recovery plans,
    // undoes and re-arms in buffers the engine keeps, and the squashed
    // checkpoint's box goes back to its thread for the re-grant, so the
    // recoveries N more rounds bring allocate nothing either.
    let (extra, subthreads, recoveries) = marginal(faulted_chains, N);
    assert_eq!(subthreads, u64::from(N) * THREADS as u64);
    assert!(recoveries >= u64::from(N), "{recoveries} more recoveries");
    assert_eq!(
        extra, 0,
        "{subthreads} more chain sub-threads and {recoveries} more recoveries \
         cost {extra} more allocations"
    );

    // A mutex critical section adds the box its undo snapshot of the
    // protected value lives in (`Recoverable::clone_box`): measured 1.00
    // allocations per sub-thread; budget 1.25.
    let (extra, subthreads, _) = marginal(lockers, N);
    assert_eq!(subthreads, u64::from(N) * THREADS as u64);
    assert!(
        extra * 4 <= subthreads * 5,
        "{subthreads} more critical sections cost {extra} more allocations (budget 1.25 each)"
    );

    // A push/pop pair: the pushed value's `Arc` (1 per push, 0.5 per
    // sub-thread), plus, whenever the push is still unretired when its
    // item is popped, the dependence edge's list and map node. Measured
    // 0.5 on one CPU and up to 0.95 on two; budget 1.5 per sub-thread.
    let (extra, subthreads, _) = marginal(push_pop_pair, N);
    assert_eq!(subthreads, 2 * u64::from(N));
    assert!(
        extra * 2 <= subthreads * 3,
        "{subthreads} more push/pop sub-threads cost {extra} more allocations (budget 1.5 each)"
    );
}

/// Waits `rounds` times at one barrier, then exits.
struct Waiter {
    barrier: BarrierHandle,
    rounds: u32,
    done: u32,
}

impl Checkpoint for Waiter {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl ThreadProgram for Waiter {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.done == self.rounds {
            return Step::exit_unit();
        }
        self.done += 1;
        self.barrier.wait()
    }
}

/// [`THREADS`] threads meeting at one barrier `rounds` times. One worker:
/// with two, how many continuations are in flight at once is timing, and
/// each new high-water mark grows a kept buffer once.
fn barrier_generations(rounds: u32) -> Cost {
    measure(|b| {
        *b = std::mem::take(b).workers(1);
        let barrier = b.barrier(THREADS as u32);
        for _ in 0..THREADS {
            b.thread(Waiter { barrier, rounds, done: 0 }, GroupId::new(0), 1);
        }
    })
}

/// The same meetings on the simulator: each thread's trace is `rounds`
/// arrivals at one barrier and its end. Returns the allocations running it
/// made (the trace is built before counting) and the sub-threads it ran.
fn sim_barrier_generations(rounds: u32) -> (u64, u64) {
    let b = BarrierId::new(0);
    let threads = (0..THREADS as u32).map(|t| {
        let mut segments = vec![Segment::new(100, SimOp::Barrier { barrier: b }); rounds as usize];
        segments.push(Segment::new(100, SimOp::End));
        ThreadSpec::new(ThreadId::new(t), GroupId::new(0), 1, segments)
    });
    let w = Workload::new("barrier", threads.collect());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = run_gprs(&w, &GprsSimConfig::balance_aware(4));
    assert!(r.completed);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r.subthreads)
}

/// A barrier generation — every participant's arrival, the release, and
/// each one's continuation — allocates nothing on either engine: the
/// roster releases the barrier in place, keeping its waiting list for the
/// next generation's arrivals, and the balance-aware schedule reuses the
/// member list of the group the last arrival emptied when the release
/// re-creates it.
#[test]
fn a_barrier_generation_allocates_nothing() {
    const N: u32 = 500;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Warm the process once (lazy statics, thread-local set-up).
    let _ = barrier_generations(N);
    let (extra, subthreads, _) = marginal(barrier_generations, N);
    assert_eq!(subthreads, u64::from(N) * THREADS as u64);
    assert_eq!(extra, 0, "{N} more barrier generations cost {extra} more allocations");

    let fewest = |rounds| (0..3).map(|_| sim_barrier_generations(rounds)).min().expect("runs");
    let ((a1, s1), (a2, s2)) = (fewest(N), fewest(2 * N));
    assert_eq!(s2 - s1, u64::from(N) * THREADS as u64);
    let extra = a2.saturating_sub(a1);
    assert_eq!(extra, 0, "{N} more simulated generations cost {extra} more allocations");
}

/// The chains on the CPR baseline, with no checkpoint ever due: the
/// allocations building and running it made, the grants it made, its
/// rollbacks (none).
fn cpr_chains(rounds: u32) -> Cost {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut b = CprBuilder::new().workers(WORKERS).checkpoint_every(u64::MAX);
    for _ in 0..THREADS {
        let atomic = b.atomic(0);
        b.thread(Chain::new(atomic, rounds), GroupId::new(0), 1);
    }
    let report = b.build().run().expect("run completes");
    let (grants, rollbacks) = (report.stats.grants, report.rollbacks);
    drop(report);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, grants, rollbacks)
}

/// A CPR grant finds its thread by scanning the thread table in place, and
/// its step's outcome is deposited under the lock of the next grant, so N
/// more rounds of the chains ask the allocator for nothing.
#[test]
fn a_cpr_grant_allocates_nothing() {
    const N: u32 = 1_000;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Warm the process once (lazy statics, thread-local set-up).
    let _ = cpr_chains(N);
    let (extra, grants, _) = marginal(cpr_chains, N);
    assert_eq!(grants, u64::from(N) * THREADS as u64);
    assert_eq!(extra, 0, "{grants} more CPR grants cost {extra} more allocations");
}

/// The allocations and bytes of building `spec` into a session, after
/// one warm-up build, and the session built. Only this thread's are
/// counted: the build runs on it, and what the harness allocates on
/// another thread meanwhile (the next test's) is not the build's.
fn build_served(spec: &JobSpec) -> (u64, u64, GprsSession) {
    let build = |id| build_job(spec, id, id).expect("the spec builds").into_session();
    drop(build(1)); // warm the process
    let before = MINE.with(Cell::get);
    let session = build(2);
    let after = MINE.with(Cell::get);
    (after.0 - before.0, after.1 - before.1, session)
}

/// A served job's engine is constructed once: one telemetry facade (five
/// rings of 192 KiB in one block, the whole of the budget), one enforcer,
/// the program.
/// Before construct-once this build asked for ≈ 1.9 MiB — a facade for the
/// default configuration, thrown away for one for the final configuration.
#[test]
fn building_a_served_job_stays_within_its_allocation_budget() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (allocations, bytes, mut session) = build_served(&JobSpec::new("fetchadd", 3));
    // Measured: 20 allocations, 967 KiB (960 KiB of it the rings, 2 of the
    // allocations; 24 allocations when each ring was its own block).
    assert!(bytes <= 1024 * 1024, "one build asked for {bytes} bytes");
    assert!(allocations <= 25, "one build made {allocations} allocations");
    // What was built is a whole engine: it runs, and reports under its id.
    while session.run_quantum(16) == QuantumOutcome::Yielded {}
    let report = session.finish().expect("the job completes");
    assert_eq!(report.job_id, 2);
    assert!(report.telemetry.retired_count > 0);
}

/// A served `histogram` job builds what a `fetchadd` job does plus its
/// input: the seeded corpus in one buffer, one copy of it cut into the
/// counting threads' pieces, a 2 KiB accumulator and a thread or two
/// more. Set against a `fetchadd` build, that is at most twice the input
/// and 4 KiB. Measured: 8 allocations and 21 284 bytes more for the
/// 9 362-byte input; 9 and 39 992 when the corpus was written word by
/// word and reallocated to twice its length.
#[test]
fn building_a_served_histogram_job_costs_its_input_twice() {
    const INPUT: u64 = 9_362; // `histogram 42`'s corpus (pinned in `gprs_serve::spec`)
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (base_allocations, base_bytes, _) = build_served(&JobSpec::new("fetchadd", 3));
    let (allocations, bytes, mut session) = build_served(&JobSpec::new("histogram", 42));
    let (allocations, bytes) = (allocations - base_allocations, bytes - base_bytes);
    assert!(
        bytes <= 2 * INPUT + 4096,
        "a histogram build asked for {bytes} bytes more than a fetchadd one"
    );
    assert!(
        allocations <= 10,
        "a histogram build made {allocations} allocations more than a fetchadd one"
    );
    while session.run_quantum(16) == QuantumOutcome::Yielded {}
    let report = session.finish().expect("the job completes");
    assert!(report.telemetry.retired_count > 0);
}

/// Writing the seeded corpus asks the allocator for one buffer of at most
/// `bytes + 16`, whatever the length. Measured: exactly that; the corpus
/// written word by word made 2 allocations and asked for three times its
/// length (its buffer, then twice that when the last word overran it).
#[test]
fn generating_a_corpus_allocates_its_buffer_once() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for len in [0, 9_000, 2 << 20] {
        // As for a compressed block: the fewest of a few calls is what one
        // call makes.
        let (allocations, bytes) = (0..5)
            .map(|seed| {
                let before = (
                    ALLOCATIONS.load(Ordering::Relaxed),
                    BYTES.load(Ordering::Relaxed),
                );
                let corpus = generate_corpus(len, seed);
                let cost = (
                    ALLOCATIONS.load(Ordering::Relaxed) - before.0,
                    BYTES.load(Ordering::Relaxed) - before.1,
                );
                assert_eq!(corpus.len(), len);
                assert!(
                    corpus.capacity() <= len + 16,
                    "{len} bytes kept {}",
                    corpus.capacity()
                );
                cost
            })
            .min()
            .expect("five calls");
        assert!(
            allocations == 1 && bytes <= len as u64 + 16,
            "a {len}-byte corpus made {allocations} allocations asking for {bytes} bytes"
        );
    }
}

/// Draining a run's rings into its trace merges them in place of sorting:
/// one exactly sized output and a heap of one cursor per ring, so 100 k
/// events cost the allocations 1 k do. The rings are `sim-recovery`'s: 24
/// contexts and the external ring, 4 096 events each.
#[test]
fn draining_the_trace_allocates_per_ring_not_per_event() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let drain = |events: u64| {
        let set = RingSet::new(24, 4096);
        for seq in 0..events {
            // Runs of three events per ring, round robin; ring 24 is the
            // external one.
            let worker = (seq / 3) as usize % 25;
            let event = TraceEvent::Grant {
                subthread: seq,
                thread: worker as u32,
            };
            set.ring(worker).push(TimedEvent {
                seq,
                worker: worker as u32,
                event,
            });
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let trace = set.drain();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(trace.len() as u64, events);
        assert!(trace.windows(2).all(|w| w[0].seq < w[1].seq));
        allocations
    };
    // The harness starting the next test's thread meanwhile is counted
    // too, and only ever adds: the fewest of a few drains, spread apart by
    // the large ones' fills, is what one drain makes.
    let (mut small, mut large) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        small = small.min(drain(1_000));
        large = large.min(drain(100_000));
    }
    // Measured: 2 (the trace and the heap).
    assert!(small <= 3, "draining 1 k events made {small} allocations");
    assert_eq!(
        large, small,
        "draining 100 k events made {large} allocations, 1 k made {small}"
    );
}

/// Ending a run copies no event: a ring set is one block of slots plus its
/// cursors, and a ledger's summary takes the set whole, to be merged only
/// when the trace is read. So summarizing 100 k events costs the
/// allocations 1 k do. The rings are `sim-recovery`'s: 24 contexts and the
/// external ring, 4 096 events each.
#[test]
fn summarizing_a_run_copies_no_trace() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let count = |f: &mut dyn FnMut()| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        f();
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let summarize = |events: u64| {
        let mut ledger = RunLedger::new(&TelemetryConfig::default(), 24, 0, false);
        for seq in 0..events {
            let worker = (seq / 3) as usize % 25;
            let event = TraceEvent::Grant {
                subthread: seq,
                thread: worker as u32,
            };
            ledger.telemetry().record(worker, event);
        }
        let mut summary = None;
        let allocations = count(&mut || summary = Some(ledger.summarize()));
        let summary = summary.expect("summarized");
        assert_eq!(summary.trace.len() as u64 + summary.dropped_events, events);
        allocations
    };
    // As for the drain: the fewest of a few tries is what one makes.
    let (mut rings, mut small, mut large) = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..3 {
        rings = rings.min(count(&mut || drop(RingSet::new(24, 4096))));
        small = small.min(summarize(1_000));
        large = large.min(summarize(100_000));
    }
    // Measured: 2 (the slots and the cursors); 25 when each ring was its
    // own block.
    assert!(rings <= 2, "a ring set made {rings} allocations");
    assert_eq!(
        large, small,
        "summarizing 100 k events made {large} allocations, 1 k made {small}"
    );
}

/// Compressing one of the pipeline's 4 KiB blocks asks the allocator for
/// its output and nothing else: the match table is the thread's, reused
/// from one call to the next. Before the table was reused every call made
/// 3 allocations and asked for ≈ 546 KiB, a fresh 512 KiB chain head among
/// them.
#[test]
fn compressing_a_block_allocates_only_its_output() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = generate_corpus(64 << 10, 1);
    let mut blocks = corpus.chunks(4 << 10);
    // Warm the thread: its match table is made by its first call.
    drop(compress_block(blocks.next().expect("a first block")));
    for (ix, block) in (1..).zip(blocks) {
        // A test thread the harness starts meanwhile is counted too, and
        // only ever adds: the fewest of a few calls is what one call makes.
        let (allocations, bytes) = (0..5)
            .map(|_| {
                let before = (
                    ALLOCATIONS.load(Ordering::Relaxed),
                    BYTES.load(Ordering::Relaxed),
                );
                let packed = compress_block(block);
                let cost = (
                    ALLOCATIONS.load(Ordering::Relaxed) - before.0,
                    BYTES.load(Ordering::Relaxed) - before.1,
                );
                assert!(!packed.is_empty());
                cost
            })
            .min()
            .expect("five calls");
        // Measured: 1 allocation of 2 064 bytes (the output's capacity).
        assert!(
            allocations <= 2 && bytes <= 8 << 10,
            "block {ix} made {allocations} allocations asking for {bytes} bytes"
        );
    }
}

/// A simulator recovery plans in buffers the engine keeps: the recovery
/// walk's scope, closure scratch and removed records, the rewind targets,
/// the undone releases, the squash fixpoint's per-pass finds and the
/// drained exceptions. What is left is their growth in the first
/// recoveries. The injected `dedup` run of the determinism suite (18
/// recoveries) is set against its fault-free twin: measured 10 allocations
/// in all (0.56 per recovery); 3.44 per recovery when the squash set and
/// the rewind targets were trees built per recovery, 19.39 when the
/// fixpoint copied its sets on every pass and each drain built its own
/// list.
#[test]
fn a_simulator_recovery_allocates_only_its_plan_sets() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let w = build("dedup", &TraceParams::paper().scaled(0.05));
    let clean = GprsSimConfig::balance_aware(24);
    let faulted =
        clean
            .clone()
            .with_exceptions(injector(info("dedup").fig10_high_rate, 24, 0x5EED));
    let count = |cfg: &GprsSimConfig| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let r = run_gprs(&w, cfg);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (allocations, r.telemetry.counter("recovery_sessions"))
    };
    let _ = count(&faulted); // warm the process
    // A thread the harness starts meanwhile only adds: take the fewest.
    let fewest = |cfg| (0..3).map(|_| count(cfg)).min().expect("three runs");
    let (clean_allocations, _) = fewest(&clean);
    let (faulted_allocations, recoveries) = fewest(&faulted);
    assert_eq!(recoveries, 18);
    let extra = faulted_allocations.saturating_sub(clean_allocations);
    // Budget: the measured 0.56 plus one.
    assert!(
        extra * 100 <= recoveries * 156,
        "{recoveries} recoveries cost {extra} more allocations than the clean twin"
    );
}
