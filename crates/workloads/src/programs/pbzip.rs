//! The Pbzip2 pipeline (Figure 6) as restartable thread programs:
//! read -> compress x N -> write over runtime-managed FIFOs, with
//! length-framed recoverable file output.

use crate::kernels::compress::{compress_block, decompress_block};
use gprs_core::history::Checkpoint;
use gprs_core::workload::{Segment, SimOp, ThreadSpec, Workload};
use gprs_runtime::ctx::StepCtx;
use gprs_runtime::handles::{ChannelHandle, FileHandle};
use gprs_runtime::program::{Step, ThreadProgram};
use std::collections::BTreeMap;

/// A sequenced data block traveling through the Pbzip2 pipeline.
pub type SeqBlock = (u64, Vec<u8>);

/// Pbzip2's read stage: slices the input into blocks and pushes them.
pub struct PbzipReader {
    input: Vec<u8>,
    block_size: usize,
    chan: ChannelHandle<SeqBlock>,
    next: u64,
}

impl PbzipReader {
    /// Creates the reader over an owned input buffer.
    pub fn new(input: Vec<u8>, block_size: usize, chan: ChannelHandle<SeqBlock>) -> Self {
        PbzipReader {
            input,
            block_size: block_size.max(1),
            chan,
            next: 0,
        }
    }

    /// Blocks this input will produce.
    pub fn block_count(&self) -> u64 {
        self.input.len().div_ceil(self.block_size) as u64
    }
}

impl Checkpoint for PbzipReader {
    type Snapshot = u64;
    fn checkpoint(&self) -> u64 {
        self.next
    }
    fn restore(&mut self, s: &u64) {
        self.next = *s;
    }
}

impl ThreadProgram for PbzipReader {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        let start = self.next as usize * self.block_size;
        if start >= self.input.len() {
            return Step::exit_unit();
        }
        let end = (start + self.block_size).min(self.input.len());
        let block = self.input[start..end].to_vec();
        let seq = self.next;
        self.next += 1;
        self.chan.push((seq, block))
    }
}

/// Pbzip2's compress stage: alternates pop → compress+push for its quota
/// of blocks.
pub struct PbzipCompressor {
    input: ChannelHandle<SeqBlock>,
    output: ChannelHandle<SeqBlock>,
    quota: u64,
    done: u64,
    /// Whether a pop was issued and its value awaits processing.
    holding: bool,
}

impl PbzipCompressor {
    /// A compressor that will process exactly `quota` blocks.
    pub fn new(
        input: ChannelHandle<SeqBlock>,
        output: ChannelHandle<SeqBlock>,
        quota: u64,
    ) -> Self {
        PbzipCompressor {
            input,
            output,
            quota,
            done: 0,
            holding: false,
        }
    }
}

impl Checkpoint for PbzipCompressor {
    type Snapshot = (u64, bool);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.done, self.holding)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.done = s.0;
        self.holding = s.1;
    }
}

impl ThreadProgram for PbzipCompressor {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.holding {
            let (seq, raw): SeqBlock = ctx.popped();
            let packed = compress_block(&raw);
            self.holding = false;
            self.done += 1;
            return self.output.push((seq, packed));
        }
        if self.done == self.quota {
            return Step::exit(self.done);
        }
        self.holding = true;
        self.input.pop()
    }
}

/// Pbzip2's write stage: pops compressed blocks, reorders by sequence and
/// appends length-framed blocks to a recoverable file in order.
pub struct PbzipWriter {
    input: ChannelHandle<SeqBlock>,
    file: FileHandle,
    total: u64,
    next_seq: u64,
    taken: u64,
    pending: BTreeMap<u64, Vec<u8>>,
    holding: bool,
}

impl PbzipWriter {
    /// A writer expecting `total` blocks.
    pub fn new(input: ChannelHandle<SeqBlock>, file: FileHandle, total: u64) -> Self {
        PbzipWriter {
            input,
            file,
            total,
            next_seq: 0,
            taken: 0,
            pending: BTreeMap::new(),
            holding: false,
        }
    }
}

impl Checkpoint for PbzipWriter {
    type Snapshot = (u64, u64, BTreeMap<u64, Vec<u8>>, bool);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.next_seq, self.taken, self.pending.clone(), self.holding)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.next_seq = s.0;
        self.taken = s.1;
        self.pending = s.2.clone();
        self.holding = s.3;
    }
}

impl ThreadProgram for PbzipWriter {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.holding {
            self.holding = false;
            let (seq, packed): SeqBlock = ctx.popped();
            self.taken += 1;
            self.pending.insert(seq, packed);
            while let Some(block) = self.pending.remove(&self.next_seq) {
                let mut framed = Vec::with_capacity(4 + block.len());
                framed.extend_from_slice(&(block.len() as u32).to_le_bytes());
                framed.extend_from_slice(&block);
                ctx.write_file(self.file, &framed);
                self.next_seq += 1;
            }
        }
        if self.taken == self.total {
            return Step::exit(self.next_seq);
        }
        self.holding = true;
        self.input.pop()
    }
}

/// Decodes a file written by [`PbzipWriter`] back into the original input.
///
/// # Errors
/// Returns a message on framing or decompression failure.
pub fn decode_pbzip_output(file: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < file.len() {
        let len_bytes: [u8; 4] = file
            .get(i..i + 4)
            .ok_or("truncated frame header")?
            .try_into()
            .map_err(|_| "bad frame header")?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        let body = file.get(i + 4..i + 4 + len).ok_or("truncated frame body")?;
        out.extend(decompress_block(body).map_err(|e| e.to_string())?);
        i += 4 + len;
    }
    Ok(out)
}

/// Wires a complete Pbzip2 pipeline onto either builder with the paper's
/// thread groups (read = 0, compress = 1, write = 2, weighted 4:4:1).
/// Returns the output file handle and the writer's thread id.
pub fn build_pbzip_pipeline(
    b: &mut gprs_runtime::Registry,
    input: Vec<u8>,
    block_size: usize,
    compressors: u64,
) -> (FileHandle, gprs_core::ids::ThreadId) {
    use gprs_core::ids::GroupId;
    let raw = b.channel::<SeqBlock>();
    let packed = b.channel::<SeqBlock>();
    let file = b.file("pbzip.out");
    let reader = PbzipReader::new(input, block_size, raw);
    let blocks = reader.block_count();
    b.thread(reader, GroupId::new(0), 4);
    let per = blocks / compressors.max(1);
    let extra = blocks % compressors.max(1);
    for c in 0..compressors.max(1) {
        let quota = per + u64::from(c < extra);
        b.thread(PbzipCompressor::new(raw, packed, quota), GroupId::new(1), 4);
    }
    let writer = b.thread(PbzipWriter::new(packed, file, blocks), GroupId::new(2), 1);
    (file, writer)
}

/// The trace-level model of [`build_pbzip_pipeline`] with the same
/// channel/thread registration order (raw = `CH0`, packed = `CH1`; thread 0
/// the reader, then the compressors, then the writer) and the same
/// per-compressor block quotas. The model's resource sets drive the
/// interference analysis and the sharded runtime's order domains: the
/// reader, the compressor pool and the writer partition into three
/// execution domains joined by the two SPSC channel edges.
pub fn pbzip_model(blocks: u64, compressors: u64) -> Workload {
    use gprs_core::ids::{ChannelId, GroupId, ThreadId};
    let raw = ChannelId::new(0);
    let packed = ChannelId::new(1);
    let compressors = compressors.max(1);
    let mut threads = Vec::new();
    threads.push(ThreadSpec::new(
        ThreadId::new(0),
        GroupId::new(0),
        4,
        (0..blocks)
            .map(|_| Segment::new(150, SimOp::Push { chan: raw }))
            .collect(),
    ));
    let per = blocks / compressors;
    let extra = blocks % compressors;
    for c in 0..compressors {
        let quota = per + u64::from(c < extra);
        let mut segs = Vec::with_capacity(2 * quota as usize);
        for _ in 0..quota {
            segs.push(Segment::new(100, SimOp::Pop { chan: raw }));
            segs.push(Segment::new(900, SimOp::Push { chan: packed }));
        }
        threads.push(ThreadSpec::new(
            ThreadId::new(1 + c as u32),
            GroupId::new(1),
            4,
            segs,
        ));
    }
    threads.push(ThreadSpec::new(
        ThreadId::new(1 + compressors as u32),
        GroupId::new(2),
        1,
        (0..blocks)
            .map(|_| Segment::new(200, SimOp::Pop { chan: packed }))
            .collect(),
    ));
    Workload::new("pbzip", threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::compress::generate_corpus;
    use crate::kernels::text::{count_words, generate_text};
    use crate::programs::{HistogramWorker, WordCountWorker};
    use gprs_core::ids::GroupId;
    use gprs_runtime::GprsBuilder;

    #[test]
    fn pbzip_pipeline_round_trips() {
        let input = generate_corpus(40_000, 12);
        let mut b = GprsBuilder::new().workers(3);
        let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 2048, 3);
        let report = b.build().run().unwrap();
        let decoded = decode_pbzip_output(report.file_contents(file.index())).unwrap();
        assert_eq!(decoded, input);
        assert!(report.file_contents(file.index()).len() < input.len());
    }

    #[test]
    fn pbzip_pipeline_survives_exceptions() {
        let input = generate_corpus(30_000, 5);
        let mut b = GprsBuilder::new().workers(2);
        let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 1024, 2);
        let gprs = b.build();
        let ctl = gprs.controller();
        let h = std::thread::spawn(move || {
            while !ctl.is_finished() {
                ctl.inject_on_busy(gprs_core::exception::ExceptionKind::SoftFault);
                std::thread::sleep(std::time::Duration::from_micros(400));
            }
        });
        let report = gprs.run().unwrap();
        h.join().unwrap();
        let decoded = decode_pbzip_output(report.file_contents(file.index())).unwrap();
        assert_eq!(decoded, input, "stats: {:?}", report.stats);
    }

    #[test]
    fn histogram_workers_complete_and_report_sizes() {
        let data = generate_corpus(8_000, 3);
        let mut b = GprsBuilder::new().workers(3);
        let acc = b.mutex(vec![0u64; 256]);
        let mut tids = Vec::new();
        for chunk in data.chunks(2_000) {
            tids.push(b.thread(
                HistogramWorker::new(chunk.to_vec(), acc),
                GroupId::new(0),
                1,
            ));
        }
        let report = b.build().run().unwrap();
        let total: u64 = tids.iter().map(|&t| report.output::<u64>(t)).sum();
        assert_eq!(total, data.len() as u64);
        assert_eq!(report.stats.locks_acquired as usize, tids.len());
    }

    #[test]
    fn wordcount_matches_serial_reference() {
        let text = generate_text(2_000, 8);
        let cut = text[..text.len() / 2].rfind(' ').unwrap();
        let shards = [text[..cut].to_string(), text[cut..].to_string()];
        let mut b = GprsBuilder::new().workers(2);
        let acc = b.mutex(BTreeMap::<String, u64>::new());
        let mut expected_total = 0u64;
        let mut tids = Vec::new();
        for s in shards {
            expected_total += count_words(&s).values().sum::<u64>();
            tids.push(b.thread(WordCountWorker::new(s, acc), GroupId::new(0), 1));
        }
        let report = b.build().run().unwrap();
        let sum: u64 = tids.iter().map(|&t| report.output::<u64>(t)).sum();
        assert_eq!(sum, expected_total);
    }

    #[test]
    fn decode_rejects_malformed_files() {
        assert!(decode_pbzip_output(&[1, 2, 3]).is_err());
        assert!(decode_pbzip_output(&[10, 0, 0, 0, 1]).is_err());
        assert_eq!(decode_pbzip_output(&[]).unwrap(), Vec::<u8>::new());
    }
}
