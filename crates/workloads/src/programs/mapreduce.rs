//! Map-reduce style programs: Histogram and WordCount workers that merge
//! into a shared mutex-protected accumulator — plus a deliberately racy
//! histogram variant exercising the `gprs_core::racecheck` detector.

use crate::kernels::text::{byte_histogram, count_words, merge_counts};
use gprs_core::history::Checkpoint;
use gprs_runtime::ctx::StepCtx;
use gprs_runtime::handles::{AtomicHandle, ChannelHandle, MutexHandle};
use gprs_runtime::program::{Step, ThreadProgram};
use std::collections::BTreeMap;

/// Histogram worker: histograms an owned chunk, merges into the shared
/// accumulator under a mutex, exits with its chunk length.
pub struct HistogramWorker {
    chunk: Vec<u8>,
    acc: MutexHandle<Vec<u64>>,
    stage: u8,
    local: Option<Vec<u64>>,
}

impl HistogramWorker {
    /// Creates the worker over its private chunk.
    pub fn new(chunk: Vec<u8>, acc: MutexHandle<Vec<u64>>) -> Self {
        HistogramWorker {
            chunk,
            acc,
            stage: 0,
            local: None,
        }
    }
}

impl Checkpoint for HistogramWorker {
    type Snapshot = (u8, Option<Vec<u64>>);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.stage, self.local.clone())
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.stage = s.0;
        self.local = s.1.clone();
    }
}

impl ThreadProgram for HistogramWorker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.stage {
            0 => {
                self.local = Some(byte_histogram(&self.chunk).to_vec());
                self.stage = 1;
                self.acc.lock()
            }
            _ => {
                let local = self.local.take().expect("map phase ran");
                ctx.with_lock(&self.acc, |bins| {
                    for (b, l) in bins.iter_mut().zip(local.iter()) {
                        *b += l;
                    }
                });
                Step::exit(self.chunk.len() as u64)
            }
        }
    }
}

/// Histogram worker with a seeded synchronization bug: it counts processed
/// pieces in a *shared* progress cell using plain load/store instead of an
/// atomic fetch-add — the classic lost-update data race. The histogram
/// itself stays correct (accumulated locally, merged under the mutex); only
/// the progress cell is corrupted, which is exactly the kind of silent wart
/// the racecheck subsystem exists to flag before selective restart trusts
/// the lock/atomic alias trail.
///
/// Sub-thread boundaries between pieces come from a *private* per-worker
/// ticket atomic, which creates no cross-thread happens-before edges, so
/// every cross-thread pair of progress updates races.
pub struct RacyHistogramWorker {
    chunk: Vec<u8>,
    acc: MutexHandle<Vec<u64>>,
    /// Shared progress cell, accessed with plain (racy) load/store.
    probe: AtomicHandle,
    /// Private boundary atomic: ends each piece's sub-thread without
    /// ordering against other workers.
    ticket: AtomicHandle,
    /// Merge-completion token channel consumed by the collector.
    done: ChannelHandle<u64>,
    pieces: u64,
    ix: u64,
    stage: u8,
    local: Vec<u64>,
}

impl RacyHistogramWorker {
    /// Creates the worker over its private chunk. `probe` must be shared
    /// across workers; `ticket` must be private to this worker.
    pub fn new(
        chunk: Vec<u8>,
        acc: MutexHandle<Vec<u64>>,
        probe: AtomicHandle,
        ticket: AtomicHandle,
        done: ChannelHandle<u64>,
        pieces: u64,
    ) -> Self {
        RacyHistogramWorker {
            chunk,
            acc,
            probe,
            ticket,
            done,
            pieces: pieces.max(1),
            ix: 0,
            stage: 0,
            local: vec![0; 256],
        }
    }
}

impl Checkpoint for RacyHistogramWorker {
    type Snapshot = (u64, u8, Vec<u64>);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.ix, self.stage, self.local.clone())
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.ix = s.0;
        self.stage = s.1;
        self.local = s.2.clone();
    }
}

impl ThreadProgram for RacyHistogramWorker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.stage {
            0 => {
                let lo = self.chunk.len() as u64 * self.ix / self.pieces;
                let hi = self.chunk.len() as u64 * (self.ix + 1) / self.pieces;
                let piece = &self.chunk[lo as usize..hi as usize];
                for (b, l) in self.local.iter_mut().zip(byte_histogram(piece)) {
                    *b += l;
                }
                // The bug: a plain read-modify-write of the shared cell.
                let seen = ctx.plain_load(&self.probe);
                ctx.plain_store(&self.probe, seen + 1);
                self.ix += 1;
                if self.ix == self.pieces {
                    self.stage = 1;
                }
                self.ticket.fetch_add(1)
            }
            1 => {
                self.stage = 2;
                self.acc.lock()
            }
            2 => {
                self.stage = 3;
                ctx.with_lock(&self.acc, |bins| {
                    for (b, l) in bins.iter_mut().zip(self.local.iter()) {
                        *b += l;
                    }
                });
                self.done.push(self.chunk.len() as u64)
            }
            _ => Step::exit(self.chunk.len() as u64),
        }
    }
}

/// Collector for the racy histogram: waits for every worker's merge token,
/// then reads the accumulator under its mutex and exits with the final
/// histogram, making end-to-end correctness observable from the report.
pub struct RacyHistogramCollector {
    acc: MutexHandle<Vec<u64>>,
    done: ChannelHandle<u64>,
    workers: u64,
    seen: u64,
    stage: u8,
}

impl RacyHistogramCollector {
    /// Creates the collector expecting `workers` tokens on `done`.
    pub fn new(acc: MutexHandle<Vec<u64>>, done: ChannelHandle<u64>, workers: u64) -> Self {
        RacyHistogramCollector {
            acc,
            done,
            workers,
            seen: 0,
            stage: 0,
        }
    }
}

impl Checkpoint for RacyHistogramCollector {
    type Snapshot = (u64, u8);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.seen, self.stage)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.seen = s.0;
        self.stage = s.1;
    }
}

impl ThreadProgram for RacyHistogramCollector {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.stage {
            0 if self.seen < self.workers => {
                self.seen += 1;
                if self.seen == self.workers {
                    self.stage = 1;
                }
                self.done.pop()
            }
            1 => {
                self.stage = 2;
                self.acc.lock()
            }
            _ => {
                let mut bins = Vec::new();
                ctx.with_lock(&self.acc, |b| bins = b.clone());
                Step::exit(bins)
            }
        }
    }
}

/// Wires `workers` racy histogram workers plus a collector onto either
/// builder over `input`.
///
/// The racy progress cell is registered *first* so it aliases `AtomicId(0)`
/// — the same id the trace-level `histogram_racy` workload uses — making
/// the deterministic first-race report comparable across the threaded
/// runtime and the virtual-time simulator. Returns the progress cell and
/// the collector's thread id; the collector exits with the final `Vec<u64>`
/// histogram, which equals the byte histogram of `input` despite the race.
pub fn build_racy_histogram(
    b: &mut gprs_runtime::Registry,
    input: Vec<u8>,
    workers: usize,
    pieces: u64,
) -> (AtomicHandle, gprs_core::ids::ThreadId) {
    use gprs_core::ids::GroupId;
    let probe = b.atomic(0);
    let acc = b.mutex(vec![0u64; 256]);
    let done = b.channel::<u64>();
    let n = workers.max(2);
    for w in 0..n {
        let lo = input.len() * w / n;
        let hi = input.len() * (w + 1) / n;
        let ticket = b.atomic(0);
        b.thread(
            RacyHistogramWorker::new(input[lo..hi].to_vec(), acc, probe, ticket, done, pieces),
            GroupId::new(0),
            1,
        );
    }
    let collector = b.thread(
        RacyHistogramCollector::new(acc, done, n as u64),
        GroupId::new(1),
        1,
    );
    (probe, collector)
}

/// WordCount worker: counts an owned text shard, merges under a mutex,
/// exits with its word total.
pub struct WordCountWorker {
    shard: String,
    acc: MutexHandle<BTreeMap<String, u64>>,
    stage: u8,
    local: Option<BTreeMap<String, u64>>,
}

impl WordCountWorker {
    /// Creates the worker over its text shard.
    pub fn new(shard: String, acc: MutexHandle<BTreeMap<String, u64>>) -> Self {
        WordCountWorker {
            shard,
            acc,
            stage: 0,
            local: None,
        }
    }
}

impl Checkpoint for WordCountWorker {
    type Snapshot = (u8, Option<BTreeMap<String, u64>>);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.stage, self.local.clone())
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.stage = s.0;
        self.local = s.1.clone();
    }
}

impl ThreadProgram for WordCountWorker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.stage {
            0 => {
                self.local = Some(count_words(&self.shard));
                self.stage = 1;
                self.acc.lock()
            }
            _ => {
                let local = self.local.take().expect("map phase ran");
                let n = local.values().sum::<u64>();
                ctx.with_lock(&self.acc, |acc| merge_counts(acc, local));
                Step::exit(n)
            }
        }
    }
}

