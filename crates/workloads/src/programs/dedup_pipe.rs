//! The Dedup five-stage pipeline (`§4`) on the real runtime:
//! read → chunk → dedup → compress → write, with the fingerprint store
//! under a runtime mutex (the critical section the benchmark serializes
//! on) and an ordered, recoverable output file.

use crate::kernels::compress::compress_block;
use crate::kernels::dedup::{Chunker, DedupOutcome, FingerprintStore};
use gprs_core::history::Checkpoint;
use gprs_core::ids::GroupId;
use gprs_runtime::ctx::StepCtx;
use gprs_runtime::handles::{ChannelHandle, FileHandle, MutexHandle};
use gprs_runtime::program::{Step, ThreadProgram};

/// An item flowing between dedup stages: `(sequence, bytes)`.
pub type Chunk = (u64, Vec<u8>);

/// What the writer receives: sequence, and either a fresh compressed chunk
/// or a back-reference to an earlier fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutItem {
    /// First occurrence: store compressed bytes under the fingerprint.
    Fresh(u64, Vec<u8>),
    /// Duplicate of an earlier chunk.
    Ref(u64),
}

/// Stage 1: slices the input into large blocks.
pub struct DedupReader {
    input: Vec<u8>,
    block: usize,
    out: ChannelHandle<Chunk>,
    next: u64,
}

impl DedupReader {
    /// Creates the reader.
    pub fn new(input: Vec<u8>, block: usize, out: ChannelHandle<Chunk>) -> Self {
        DedupReader {
            input,
            block: block.max(1),
            out,
            next: 0,
        }
    }

    /// Number of blocks this reader emits.
    pub fn blocks(&self) -> u64 {
        self.input.len().div_ceil(self.block) as u64
    }
}

impl Checkpoint for DedupReader {
    type Snapshot = u64;
    fn checkpoint(&self) -> u64 {
        self.next
    }
    fn restore(&mut self, s: &u64) {
        self.next = *s;
    }
}

impl ThreadProgram for DedupReader {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        let start = self.next as usize * self.block;
        if start >= self.input.len() {
            return Step::exit_unit();
        }
        let end = (start + self.block).min(self.input.len());
        let seq = self.next;
        self.next += 1;
        self.out.push((seq, self.input[start..end].to_vec()))
    }
}

/// Stage 2: content-defined chunking of each block; emits sub-chunks with
/// composite sequence numbers preserving global order.
pub struct DedupChunker {
    input: ChannelHandle<Chunk>,
    out: ChannelHandle<Chunk>,
    blocks: u64,
    taken: u64,
    holding: bool,
    /// Sub-chunks of the current block still to push.
    backlog: Vec<(u64, Vec<u8>)>,
    /// Total sub-chunks emitted (shared with downstream quota logic).
    emitted: u64,
}

impl DedupChunker {
    /// Creates the chunker; it forwards `blocks` blocks.
    pub fn new(input: ChannelHandle<Chunk>, out: ChannelHandle<Chunk>, blocks: u64) -> Self {
        DedupChunker {
            input,
            out,
            blocks,
            taken: 0,
            holding: false,
            backlog: Vec::new(),
            emitted: 0,
        }
    }
}

impl Checkpoint for DedupChunker {
    type Snapshot = (u64, bool, Vec<(u64, Vec<u8>)>, u64);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.taken, self.holding, self.backlog.clone(), self.emitted)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.taken = s.0;
        self.holding = s.1;
        self.backlog = s.2.clone();
        self.emitted = s.3;
    }
}

impl ThreadProgram for DedupChunker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.holding {
            self.holding = false;
            let (seq, block): Chunk = ctx.popped();
            self.taken += 1;
            let chunker = Chunker {
                avg_size: 512,
                min_size: 64,
                max_size: 4096,
            };
            // Composite sequence: block seq × 2^20 + chunk index keeps
            // global order across blocks.
            for (k, r) in chunker.chunk(&block).into_iter().enumerate() {
                self.backlog
                    .push((seq << 20 | k as u64, block[r].to_vec()));
            }
            self.backlog.reverse(); // pop from the back in order
        }
        if let Some((seq, bytes)) = self.backlog.pop() {
            self.emitted += 1;
            return self.out.push((seq, bytes));
        }
        if self.taken == self.blocks {
            return Step::exit(self.emitted);
        }
        self.holding = true;
        self.input.pop()
    }
}

/// Stage 3: classifies chunks against the shared fingerprint store (the
/// benchmark's critical section) and forwards fresh chunks to compression,
/// duplicates straight to the writer channel.
pub struct DedupClassifier {
    input: ChannelHandle<Chunk>,
    fresh_out: ChannelHandle<Chunk>,
    dup_out: ChannelHandle<OutItem>,
    store: MutexHandle<FingerprintStore>,
    quota: u64,
    done: u64,
    holding: bool,
    /// Chunk popped and awaiting ordered classification under the store
    /// lock.
    current: Option<Chunk>,
}

impl DedupClassifier {
    /// Creates a classifier processing `quota` chunks.
    pub fn new(
        input: ChannelHandle<Chunk>,
        fresh_out: ChannelHandle<Chunk>,
        dup_out: ChannelHandle<OutItem>,
        store: MutexHandle<FingerprintStore>,
        quota: u64,
    ) -> Self {
        DedupClassifier {
            input,
            fresh_out,
            dup_out,
            store,
            quota,
            done: 0,
            holding: false,
            current: None,
        }
    }
}

impl Checkpoint for DedupClassifier {
    type Snapshot = (u64, bool, Option<Chunk>);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.done, self.holding, self.current.clone())
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.done = s.0;
        self.holding = s.1;
        self.current = s.2.clone();
    }
}

impl ThreadProgram for DedupClassifier {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.holding {
            // Just popped: classify under the *ordered* store lock so the
            // unique/duplicate decision sequence is deterministic — this is
            // the benchmark's small, frequent critical section.
            self.holding = false;
            self.current = Some(ctx.popped());
            return self.store.lock();
        }
        if let Some((seq, bytes)) = self.current.take() {
            let outcome = ctx.with_lock(&self.store, |store| store.classify(&bytes));
            ctx.unlock(&self.store);
            self.done += 1;
            return match outcome {
                DedupOutcome::Unique(_) => self.fresh_out.push((seq, bytes)),
                DedupOutcome::Duplicate(fp) => self.dup_out.push(OutItem::Ref(fp)),
            };
        }
        if self.done == self.quota {
            return Step::exit(self.done);
        }
        self.holding = true;
        self.input.pop()
    }
}

/// Stage 4: compresses fresh chunks.
pub struct DedupCompressor {
    input: ChannelHandle<Chunk>,
    out: ChannelHandle<OutItem>,
    quota: u64,
    done: u64,
    holding: bool,
}

impl DedupCompressor {
    /// Creates a compressor processing `quota` fresh chunks.
    pub fn new(input: ChannelHandle<Chunk>, out: ChannelHandle<OutItem>, quota: u64) -> Self {
        DedupCompressor {
            input,
            out,
            quota,
            done: 0,
            holding: false,
        }
    }
}

impl Checkpoint for DedupCompressor {
    type Snapshot = (u64, bool);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.done, self.holding)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.done = s.0;
        self.holding = s.1;
    }
}

impl ThreadProgram for DedupCompressor {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.holding {
            self.holding = false;
            let (seq, bytes): Chunk = ctx.popped();
            self.done += 1;
            return self.out.push(OutItem::Fresh(seq, compress_block(&bytes)));
        }
        if self.done == self.quota {
            return Step::exit(self.done);
        }
        self.holding = true;
        self.input.pop()
    }
}

/// Stage 5: the sequential writer — counts and records output items (the
/// benchmark's scaling bottleneck), appending a framed record per item.
pub struct DedupWriter {
    input: ChannelHandle<OutItem>,
    file: FileHandle,
    total: u64,
    taken: u64,
    fresh: u64,
    holding: bool,
}

impl DedupWriter {
    /// Creates the writer expecting `total` items.
    pub fn new(input: ChannelHandle<OutItem>, file: FileHandle, total: u64) -> Self {
        DedupWriter {
            input,
            file,
            total,
            taken: 0,
            fresh: 0,
            holding: false,
        }
    }
}

impl Checkpoint for DedupWriter {
    type Snapshot = (u64, u64, bool);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.taken, self.fresh, self.holding)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.taken = s.0;
        self.fresh = s.1;
        self.holding = s.2;
    }
}

impl ThreadProgram for DedupWriter {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.holding {
            self.holding = false;
            let item: OutItem = ctx.popped();
            self.taken += 1;
            match item {
                OutItem::Fresh(_, bytes) => {
                    self.fresh += 1;
                    ctx.write_file(self.file, &(bytes.len() as u32).to_le_bytes());
                    ctx.write_file(self.file, &bytes);
                }
                OutItem::Ref(fp) => {
                    ctx.write_file(self.file, &u32::MAX.to_le_bytes());
                    ctx.write_file(self.file, &fp.to_le_bytes());
                }
            }
        }
        if self.taken == self.total {
            return Step::exit(self.fresh);
        }
        self.holding = true;
        self.input.pop()
    }
}

/// Builds the full five-stage Dedup pipeline. The classifier quota equals
/// the chunker's emissions, which depends on content; to keep quotas static
/// the chunker's output count is precomputed here.
///
/// Returns `(file, writer thread, total chunk count, fresh chunk count)`.
pub fn build_dedup_pipeline(
    b: &mut gprs_runtime::Registry,
    input: Vec<u8>,
    block: usize,
    classifiers: u64,
    compressors: u64,
) -> (FileHandle, gprs_core::ids::ThreadId, u64, u64) {
    // Precompute chunk counts and freshness (deterministic) so every
    // stage's quota is static, as in the trace model.
    let chunker = Chunker {
        avg_size: 512,
        min_size: 64,
        max_size: 4096,
    };
    let mut store = FingerprintStore::new();
    let mut total = 0u64;
    let mut fresh = 0u64;
    for blk in input.chunks(block.max(1)) {
        for r in chunker.chunk(blk) {
            total += 1;
            if matches!(store.classify(&blk[r]), DedupOutcome::Unique(_)) {
                fresh += 1;
            }
        }
    }

    let c_blocks = b.channel::<Chunk>();
    let c_chunks = b.channel::<Chunk>();
    let c_fresh = b.channel::<Chunk>();
    let c_out = b.channel::<OutItem>();
    let file = b.file("dedup.out");
    let shared_store = b.mutex(FingerprintStore::new());

    let reader = DedupReader::new(input, block, c_blocks);
    let blocks = reader.blocks();
    b.thread(reader, GroupId::new(0), 2);
    b.thread(DedupChunker::new(c_blocks, c_chunks, blocks), GroupId::new(1), 2);
    let per = total / classifiers.max(1);
    let extra = total % classifiers.max(1);
    for c in 0..classifiers.max(1) {
        b.thread(
            DedupClassifier::new(
                c_chunks,
                c_fresh,
                c_out,
                shared_store,
                per + u64::from(c < extra),
            ),
            GroupId::new(2),
            2,
        );
    }
    let perf = fresh / compressors.max(1);
    let extraf = fresh % compressors.max(1);
    for c in 0..compressors.max(1) {
        b.thread(
            DedupCompressor::new(c_fresh, c_out, perf + u64::from(c < extraf)),
            GroupId::new(3),
            2,
        );
    }
    let writer = b.thread(DedupWriter::new(c_out, file, total), GroupId::new(4), 1);
    (file, writer, total, fresh)
}

/// The trace-level model of [`build_dedup_pipeline`] with the builder's
/// registration order (`CH0` blocks, `CH1` chunks, `CH2` fresh, `CH3` out;
/// `L0` the fingerprint store) and the same static quotas (`blocks` input
/// blocks, `total` chunks, `fresh` unique chunks). Segment counts are
/// approximate — the interference analysis and the sharded runtime's
/// resource fences consume the *resource sets*, which are exact: the store
/// lock confines the classifiers to one domain, and the shared `CH3`
/// producer end coalesces classifiers and compressors into a single
/// execution domain, leaving a four-domain read → chunk → classify+compress
/// → write pipeline.
pub fn dedup_model(
    blocks: u64,
    total: u64,
    fresh: u64,
    classifiers: u64,
    compressors: u64,
) -> gprs_core::workload::Workload {
    use gprs_core::ids::{ChannelId, LockId, ThreadId};
    use gprs_core::workload::{Segment, SimOp, ThreadSpec, Workload};
    let c_blocks = ChannelId::new(0);
    let c_chunks = ChannelId::new(1);
    let c_fresh = ChannelId::new(2);
    let c_out = ChannelId::new(3);
    let store = LockId::new(0);
    let classifiers = classifiers.max(1);
    let compressors = compressors.max(1);
    let mut threads = Vec::new();
    threads.push(ThreadSpec::new(
        ThreadId::new(0),
        GroupId::new(0),
        2,
        (0..blocks)
            .map(|_| Segment::new(150, SimOp::Push { chan: c_blocks }))
            .collect(),
    ));
    let mut chunker = Vec::with_capacity((blocks + total) as usize);
    chunker.extend((0..blocks).map(|_| Segment::new(300, SimOp::Pop { chan: c_blocks })));
    chunker.extend((0..total).map(|_| Segment::new(50, SimOp::Push { chan: c_chunks })));
    threads.push(ThreadSpec::new(ThreadId::new(1), GroupId::new(1), 2, chunker));
    let per = total / classifiers;
    let extra = total % classifiers;
    for c in 0..classifiers {
        let quota = per + u64::from(c < extra);
        let mut segs = Vec::with_capacity(3 * quota as usize);
        for k in 0..quota {
            segs.push(Segment::new(80, SimOp::Pop { chan: c_chunks }));
            segs.push(Segment::new(
                20,
                SimOp::Lock {
                    lock: store,
                    cs_work: 120,
                },
            ));
            // Unique chunks go to the compressors, duplicates straight to
            // the writer; the exact split is content-dependent, so the
            // model alternates to cover both producer ends.
            let chan = if k % 2 == 0 { c_fresh } else { c_out };
            segs.push(Segment::new(40, SimOp::Push { chan }));
        }
        threads.push(ThreadSpec::new(
            ThreadId::new(2 + c as u32),
            GroupId::new(2),
            2,
            segs,
        ));
    }
    let perf = fresh / compressors;
    let extraf = fresh % compressors;
    for c in 0..compressors {
        let quota = perf + u64::from(c < extraf);
        let mut segs = Vec::with_capacity(2 * quota as usize);
        for _ in 0..quota {
            segs.push(Segment::new(60, SimOp::Pop { chan: c_fresh }));
            segs.push(Segment::new(700, SimOp::Push { chan: c_out }));
        }
        threads.push(ThreadSpec::new(
            ThreadId::new(2 + (classifiers + c) as u32),
            GroupId::new(3),
            2,
            segs,
        ));
    }
    threads.push(ThreadSpec::new(
        ThreadId::new(2 + (classifiers + compressors) as u32),
        GroupId::new(4),
        1,
        (0..total)
            .map(|_| Segment::new(120, SimOp::Pop { chan: c_out }))
            .collect(),
    ));
    Workload::new("dedup", threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dedup::generate_dedup_corpus;
    use gprs_runtime::GprsBuilder;
    use std::time::Duration;

    #[test]
    fn dedup_pipeline_counts_match_serial_reference() {
        let input = generate_dedup_corpus(60_000, 50, 11);
        let mut b = GprsBuilder::new().workers(3);
        let (_, writer, total, fresh) = build_dedup_pipeline(&mut b, input, 8_192, 2, 2);
        assert!(fresh < total, "the corpus has duplicates");
        let report = b.build().run().unwrap();
        assert_eq!(report.output::<u64>(writer), fresh);
    }

    /// Dedup's unique/duplicate *sets* are order-independent (set
    /// semantics), so the fresh count and total frame count are invariant
    /// under any recovery schedule — the precise-state guarantee. Which
    /// *instance* of a duplicate pair is stored first depends on the
    /// classification interleaving and may legitimately differ between a
    /// fault-free run and a recovered one (both are correct executions).
    /// The wall-clock storm may miss a run that is over in a few
    /// milliseconds, so the injected run also raises one exception at a
    /// fixed grant.
    #[test]
    fn dedup_pipeline_invariants_hold_under_exceptions() {
        use gprs_core::chaos::{ChaosEvent, ChaosPlan};
        use gprs_core::exception::ExceptionKind;
        let input = generate_dedup_corpus(40_000, 40, 3);
        let plan = ChaosPlan::new()
            .with(ChaosEvent::at_grant(8).kind(ExceptionKind::ApproximationError));
        let run = |inject: bool| {
            let mut b = GprsBuilder::new().workers(2);
            if inject {
                b = b.chaos(&plan);
            }
            let (file, writer, total, fresh) =
                build_dedup_pipeline(&mut b, input.clone(), 8_192, 2, 1);
            let rt = b.build();
            let ctl = rt.controller();
            let h = inject.then(|| {
                std::thread::spawn(move || {
                    while !ctl.is_finished() {
                        ctl.inject_on_busy(ExceptionKind::ApproximationError);
                        std::thread::sleep(Duration::from_micros(500));
                    }
                })
            });
            let report = rt.run().unwrap();
            if let Some(h) = h {
                h.join().unwrap();
            }
            assert_eq!(report.output::<u64>(writer), fresh, "fresh count invariant");
            // Count the framed records in the output: one per chunk.
            let bytes = report.file_contents(file.index());
            let mut frames = 0u64;
            let mut i = 0;
            while i < bytes.len() {
                let len = u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
                i += 4 + if len == u32::MAX { 8 } else { len as usize };
                frames += 1;
            }
            assert_eq!(frames, total, "one frame per chunk");
            report.stats
        };
        let _ = run(false);
        let stats = run(true);
        assert!(stats.exceptions > 0, "an exception must land: {stats:?}");
    }
}
