//! The workload programs chaos campaigns run on the real executors.
//!
//! Each program registers on a [`Registry`], which the GPRS runtime's and
//! the CPR baseline's builders both hold, so every program runs on both.
//! Together they cover the recovery surfaces the plans target: pure
//! grant/retire traffic (`chain`), nested locks under the per-lock condvar
//! shards (`nested`), mutex-protected critical sections (`histogram`), a
//! channel pipeline with output-commit-delayed files (`pbzip`), private
//! plain stores (`beacon`) and barrier phases whose squashed arrivals undo
//! releases (`barrier`).

use gprs_core::history::Checkpoint;
use gprs_core::ids::GroupId;
use gprs_runtime::ctx::StepCtx;
use gprs_runtime::handles::{AtomicHandle, BarrierHandle, MutexHandle};
use gprs_runtime::program::{Step, ThreadProgram};
use gprs_runtime::Registry;
use gprs_workloads::kernels::compress::generate_corpus;
use gprs_workloads::kernels::dedup::generate_dedup_corpus;
use gprs_workloads::programs::{
    beacon_model, build_beacon, build_dedup_pipeline, build_pbzip_pipeline, dedup_model,
    pbzip_model, HistogramWorker,
};

/// Programs the runtime campaign legs run, on the GPRS runtime and on the
/// CPR baseline alike.
pub const RUNTIME_PROGRAMS: &[&str] =
    &["chain", "nested", "histogram", "pbzip", "beacon", "barrier"];

/// Programs the sharded-runtime differential legs run: every workload with
/// a multi-domain shard plan (beacon partitions per worker; the pipelines
/// partition per stage with cross-domain channel edges).
pub const SHARD_PROGRAMS: &[&str] = &["beacon", "pbzip", "dedup"];

/// Beacon shape shared by the plain `rt/beacon` leg and the elision legs
/// (`rt-elide/beacon` must compare against the same clean twin).
pub const BEACON_SHAPE: (usize, u32) = (4, 24);

/// The trace-level model matching [`BEACON_SHAPE`], for the elision legs.
pub fn beacon_leg_model() -> gprs_core::workload::Workload {
    beacon_model(BEACON_SHAPE.0, BEACON_SHAPE.1)
}

/// Disjoint fetch-add chain: pure grant/checkpoint/retire traffic.
pub struct Chain {
    atomic: AtomicHandle,
    rounds: u32,
    done: u32,
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Chain({}/{})", self.done, self.rounds)
    }
}

impl Checkpoint for Chain {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl ThreadProgram for Chain {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.done == self.rounds {
            return Step::exit(u64::from(self.done));
        }
        self.done += 1;
        self.atomic.fetch_add(1)
    }
}

/// Nested-lock worker: every round opens a critical section on the outer
/// mutex and takes the inner mutex *nested inside it* — the sub-thread
/// holds two locks when a `Holder`-targeted exception strikes, and any
/// peer blocked on the inner lock parks on its condvar shard.
pub struct NestedWorker {
    outer: MutexHandle<u64>,
    inner: MutexHandle<u64>,
    rounds: u32,
    done: u32,
}

impl std::fmt::Debug for NestedWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NestedWorker({}/{})", self.done, self.rounds)
    }
}

impl Checkpoint for NestedWorker {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl ThreadProgram for NestedWorker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.done > 0 {
            // Inside the outer critical section: nested acquire first (the
            // shard-wait path), then the opening lock's data.
            ctx.lock_nested(&self.inner, |n| *n = n.wrapping_add(1));
            ctx.with_lock(&self.outer, |n| *n = n.wrapping_add(3));
            ctx.unlock(&self.outer);
        }
        if self.done == self.rounds {
            return Step::exit(u64::from(self.done));
        }
        self.done += 1;
        self.outer.lock()
    }
}

/// Barrier-phased worker: every round is a critical section on the shared
/// mutex that ends by arriving at the barrier, so each arrival-ending
/// sub-thread carries the lock alias.
pub struct PhaseWorker {
    mutex: MutexHandle<u64>,
    barrier: BarrierHandle,
    rounds: u32,
    done: u32,
    in_cs: bool,
}

impl std::fmt::Debug for PhaseWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhaseWorker({}/{})", self.done, self.rounds)
    }
}

impl Checkpoint for PhaseWorker {
    type Snapshot = (u32, bool);
    fn checkpoint(&self) -> (u32, bool) {
        (self.done, self.in_cs)
    }
    fn restore(&mut self, s: &(u32, bool)) {
        (self.done, self.in_cs) = *s;
    }
}

impl ThreadProgram for PhaseWorker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.in_cs {
            ctx.with_lock(&self.mutex, |n| *n = n.wrapping_add(1));
            self.in_cs = false;
            return self.barrier.wait();
        }
        if self.done == self.rounds {
            return Step::exit(u64::from(self.done));
        }
        self.done += 1;
        self.in_cs = true;
        self.mutex.lock()
    }
}

/// A thread outside the barrier whose sub-threads touch the workers' mutex
/// in a nested section and then keep running for a while: while one is in
/// flight, the workers' younger arrivals complete, their generation
/// releases and its continuations are granted — so a fault on the laggard
/// squashes arrivals whose release already happened, and recovery must undo
/// it and re-park the continuations.
pub struct Laggard {
    mutex: MutexHandle<u64>,
    atomic: AtomicHandle,
    rounds: u32,
    done: u32,
}

impl std::fmt::Debug for Laggard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Laggard({}/{})", self.done, self.rounds)
    }
}

impl Checkpoint for Laggard {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl ThreadProgram for Laggard {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        ctx.lock_nested(&self.mutex, |n| *n = n.wrapping_add(100));
        // Sleeps rather than spins: pinned to one CPU, the peers still run.
        std::thread::sleep(std::time::Duration::from_micros(500));
        if self.done == self.rounds {
            return Step::exit(u64::from(self.done));
        }
        self.done += 1;
        self.atomic.fetch_add(1)
    }
}

/// Registers a campaign program on either executor's builder.
///
/// # Panics
/// Panics on an unknown program name.
pub fn register_gprs(name: &str, b: &mut Registry) {
    match name {
        "chain" => {
            for _ in 0..6 {
                let atomic = b.atomic(0);
                b.thread(Chain { atomic, rounds: 24, done: 0 }, GroupId::new(0), 1);
            }
        }
        "nested" => {
            let outer = b.mutex(0u64);
            let inner = b.mutex(0u64);
            for _ in 0..5 {
                let worker = NestedWorker { outer, inner, rounds: 12, done: 0 };
                b.thread(worker, GroupId::new(0), 1);
            }
        }
        "histogram" => {
            let acc = b.mutex(vec![0u64; 256]);
            for chunk in generate_corpus(24_000, 5).chunks(4_000) {
                b.thread(HistogramWorker::new(chunk.to_vec(), acc), GroupId::new(0), 1);
            }
        }
        "pbzip" => {
            let _ = build_pbzip_pipeline(b, generate_corpus(20_000, 11), 2048, 2);
        }
        "beacon" => {
            let _ = build_beacon(b, BEACON_SHAPE.0, BEACON_SHAPE.1);
        }
        "barrier" => {
            // Three workers, one group each; the laggard shares a group
            // with two chains, so between two of its turns every worker
            // takes three — enough to arrive, release and resume.
            let mutex = b.mutex(0u64);
            let barrier = b.barrier(3);
            for g in 0..3 {
                let worker = PhaseWorker { mutex, barrier, rounds: 12, done: 0, in_cs: false };
                b.thread(worker, GroupId::new(g), 1);
            }
            let atomic = b.atomic(0);
            b.thread(Laggard { mutex, atomic, rounds: 4, done: 0 }, GroupId::new(3), 1);
            for _ in 0..2 {
                let atomic = b.atomic(0);
                b.thread(Chain { atomic, rounds: 12, done: 0 }, GroupId::new(3), 1);
            }
        }
        other => panic!("unknown chaos program {other:?}"),
    }
}

/// Registers a [`SHARD_PROGRAMS`] workload and returns the trace-level
/// model whose interference proof drives the shard plan. The shapes are
/// fixed per program so every seed of a leg shares the same clean twins.
///
/// # Panics
/// Panics on a program without a sharded registration.
pub fn register_gprs_sharded(name: &str, b: &mut Registry) -> gprs_core::workload::Workload {
    match name {
        "beacon" => {
            let _ = build_beacon(b, BEACON_SHAPE.0, BEACON_SHAPE.1);
            beacon_leg_model()
        }
        "pbzip" => {
            let input = generate_corpus(20_000, 11);
            let blocks = (input.len() as u64).div_ceil(2048);
            let _ = build_pbzip_pipeline(b, input, 2048, 2);
            pbzip_model(blocks, 2)
        }
        "dedup" => {
            let input = generate_dedup_corpus(30_000, 30, 7);
            let blocks = (input.len() as u64).div_ceil(8_192);
            let (_, _, total, fresh) = build_dedup_pipeline(b, input, 8_192, 2, 2);
            dedup_model(blocks, total, fresh, 2, 2)
        }
        other => panic!("unknown sharded chaos program {other:?}"),
    }
}
