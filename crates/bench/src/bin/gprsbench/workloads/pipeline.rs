//! `pipeline`: Pbzip2 (reader, two compressors, writer; weighted balance-
//! aware order) over a seeded corpus in 4 KiB blocks. The paper's headline
//! program: compression and channel blocking dominate, so a grant-path
//! change should not move it and a scheduling change should. Its own
//! end-to-end path is record → verified replay.
//!
//! One CPU, against the issue's "all CPUs": on the box this was sized on
//! the second CPU bought 1.27× (the two share a core) and cost the
//! repeatability — ten invocations spread 21 % on two CPUs, 0.7 % on one.

use super::{run_sample, scratch_dir, timed, Ctx, Oracle, OwnPaths, Sample, Workload};
use crate::place::Pinned;
use crate::probes;
use crate::stats::fast;
use crate::trace::{add_thread, Layers, ProgramProbe};
use gprs_core::persist::fnv1a;
use gprs_core::recording::Recording;
use gprs_runtime::prelude::*;
use gprs_workloads::kernels::compress::generate_corpus;
use gprs_workloads::programs::{
    decode_pbzip_output, PbzipCompressor, PbzipReader, PbzipWriter, SeqBlock,
};
use std::path::PathBuf;
use std::sync::Arc;

const BLOCK: usize = 4 << 10;
const COMPRESSORS: u64 = 2;
const WORKERS: usize = 2;
const TRACE_SAMPLES: usize = 5;

/// `build_pbzip_pipeline`'s wiring (groups read = 0, compress = 1, write
/// = 2, weighted 4:4:1), spelled out so each stage can be decorated.
fn builder(corpus: &[u8], probe: Option<&Arc<ProgramProbe>>) -> GprsBuilder {
    let mut b = GprsBuilder::new()
        .workers(WORKERS)
        .schedule(ScheduleKind::BalanceWeighted);
    let raw = b.channel::<SeqBlock>();
    let packed = b.channel::<SeqBlock>();
    let file = b.file("pbzip.out");
    let reader = PbzipReader::new(corpus.to_vec(), BLOCK, raw);
    let blocks = reader.block_count();
    add_thread(&mut b, reader, GroupId::new(0), 4, probe);
    for c in 0..COMPRESSORS {
        let quota = blocks / COMPRESSORS + u64::from(c < blocks % COMPRESSORS);
        let stage = PbzipCompressor::new(raw, packed, quota);
        add_thread(&mut b, stage, GroupId::new(1), 4, probe);
    }
    let writer = PbzipWriter::new(packed, file, blocks);
    add_thread(&mut b, writer, GroupId::new(2), 1, probe);
    b
}

pub struct Pipeline {
    corpus: Vec<u8>,
    /// Retired hash, retired count and output fingerprint of the twin
    /// whose output was decoded back to the corpus.
    golden: (u64, u64, u64),
    dir: PathBuf,
    tape: PathBuf,
}

impl Pipeline {
    fn check(&self, oracle: &mut Oracle, what: &str, r: &RunReport) {
        let t = &r.telemetry;
        let got = (t.retired_hash, t.retired_count, fnv1a(r.file_contents(0)));
        oracle.check(got == self.golden, || {
            format!(
                "pipeline {what}: (retired hash, count, output fingerprint) {got:x?} != golden {:x?}",
                self.golden
            )
        });
    }

    /// `Recording::load` → replay-armed build → run; `Ok` means every
    /// event matched the tape and the footer digests were verified.
    fn replay_verify(&self) -> (f64, Result<RunReport, String>) {
        let t = timed(|| {
            let tape = Recording::load(&self.tape).map_err(|e| e.to_string())?;
            builder(&self.corpus, None)
                .replay(Arc::new(tape))
                .build()
                .run()
                .map_err(|e| e.to_string())
        });
        (t.wall_s, t.out)
    }

    fn record(&self) -> (f64, Result<RunReport, RunError>) {
        let gprs = builder(&self.corpus, None)
            .record(&self.tape)
            .record_meta("gprsbench-pipeline", 0)
            .build();
        let t = timed(|| gprs.run());
        (t.wall_s, t.out)
    }
}

impl Workload for Pipeline {
    const NAME: &'static str = "pipeline";
    const CYCLE_SHARE: f64 = 0.4;

    fn setup(ctx: &Ctx) -> Self {
        let corpus = generate_corpus(ctx.sizes.corpus_bytes, ctx.seed);
        let _ = builder(&corpus[..corpus.len() / 4], None).build().run();
        let dir = scratch_dir("pipeline");
        Pipeline {
            corpus,
            golden: (0, 0, 0),
            tape: dir.join("pipeline.tape"),
            dir,
        }
    }

    fn reference(&mut self, ctx: &Ctx, oracle: &mut Oracle) {
        let twin = builder(&self.corpus, None).build().run();
        let Some(r) = oracle.ok(twin, "pipeline twin") else {
            return;
        };
        let out = r.file_contents(0);
        oracle.check(
            decode_pbzip_output(out).is_ok_and(|plain| plain == self.corpus),
            || "pipeline twin: output does not decode to the input".into(),
        );
        self.golden = (
            ctx.golden(r.telemetry.retired_hash),
            r.telemetry.retired_count,
            fnv1a(out),
        );
        // The tape every replay cycle verifies against.
        if let Some(r) = oracle.ok(self.record().1, "pipeline recorded run") {
            self.check(oracle, "recorded run", &r);
        }
    }

    fn sample(&mut self, ix: usize, oracle: &mut Oracle) -> Sample {
        let gprs = builder(&self.corpus, None).build();
        let what = format!("sample {ix}");
        run_sample(
            &format!("pipeline {what}"),
            oracle,
            || gprs.run(),
            |o, r| self.check(o, &what, r),
        )
    }

    fn cycle(&mut self, ix: usize, oracle: &mut Oracle, own: &mut OwnPaths) -> f64 {
        let (secs, result) = self.replay_verify();
        if let Some(r) = oracle.ok(result, &format!("pipeline replay cycle {ix}")) {
            self.check(oracle, &format!("replay cycle {ix}"), &r);
        }
        own.replay_verify_s.push(secs);
        secs
    }

    fn trace(&mut self, ctx: &Ctx, _pin: &Pinned, oracle: &mut Oracle, layers: &mut Layers) {
        let tracer = layers.tracer.clone();
        let probe = Arc::new(ProgramProbe::default());
        let (mut plain_s, mut traced_s, mut recorded_s) = (vec![], vec![], vec![]);
        let mut last = None;
        for run in 0..TRACE_SAMPLES as u32 {
            let gprs = builder(&self.corpus, None).build();
            let t = timed(|| gprs.run());
            plain_s.push(t.wall_s);
            if let Some(r) = oracle.ok(t.out, "pipeline untraced run") {
                self.check(oracle, "untraced run", &r);
                last = Some((r, t.used));
            }
            let (gprs, _) = tracer.scoped("runtime.build", None, run, |_| {
                builder(&self.corpus, Some(&probe)).build()
            });
            let (r, id) = tracer.scoped("runtime.run", None, run, |_| gprs.run());
            traced_s.push(tracer.ns(id) as f64 / 1e9);
            if let Some(r) = oracle.ok(r, "pipeline traced run") {
                self.check(oracle, "traced run", &r);
            }
            let (secs, r) = self.record();
            recorded_s.push(secs);
            oracle.check(r.is_ok(), || "pipeline recorded run failed".into());
        }
        let Some((report, usage)) = last else { return };
        let wall = fast(&plain_s);
        super::program_metrics(layers, &probe);
        layers.set("bench.trace_overhead_ratio", fast(&traced_s) / wall);
        layers.set("replay.record_overhead_ratio", fast(&recorded_s) / wall);
        super::engine_counters(layers, &report);
        super::proc_metrics(
            layers,
            usage,
            report.telemetry.retired_count,
            report.stats.grants,
        );
        let program_s = probe.total_ns() as f64 / 1e9 / TRACE_SAMPLES as f64;
        // No engine-self figure here: a 26 µs step is long enough for its
        // worker to be descheduled in favour of the other one, and the
        // decorator's clock keeps running meanwhile.
        layers.note(format!(
            "program time {program_s:.3} s summed over threads, {:.2} of the {wall:.3} s wall",
            program_s / wall
        ));

        let ((_, replayed), _) = tracer.scoped("replay.verify", None, TRACE_SAMPLES as u32, |_| {
            self.replay_verify()
        });
        oracle.check(replayed.is_ok(), || "pipeline traced replay failed".into());
        let (write_ns, parse_ns) = probes::recording_codec(ctx.sizes.probe_iters / 10 + 1);
        layers.set("core.recording.write_ns_per_evt", write_ns);
        layers.set("core.recording.parse_ns_per_evt", parse_ns);
    }

    fn teardown(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{measure, trace, Sizes};

    #[test]
    fn smoke_pipeline_round_trips_its_corpus_and_its_tape() {
        let ctx = Ctx {
            seed: 3,
            seconds: 0.0,
            sizes: Sizes::smoke(),
            corrupt_oracle: false,
        };
        let mut oracle = Oracle::default();
        let m = measure::<Pipeline>(&ctx, &mut oracle).unwrap();
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert!(m.own.replay_verify_s.len() >= crate::workloads::MIN_SAMPLES);
        assert!(m.retired() > (Sizes::smoke().corpus_bytes / BLOCK) as u64);
        let layers = trace::<Pipeline>(&ctx, &mut oracle).unwrap();
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert!(layers.get("program.step_ns") > 0.0);
        assert!(layers.get("replay.record_overhead_ratio") > 0.0);
    }
}
