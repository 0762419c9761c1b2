//! Workspace integration tests: real kernels on the real GPRS runtime,
//! end-to-end, with and without fault injection.

use gprs_core::exception::ExceptionKind;
use gprs_core::ids::GroupId;
use gprs_core::persist::fnv1a;
use gprs_runtime::cpr::CprBuilder;
use gprs_runtime::GprsBuilder;
use gprs_workloads::kernels::compress::generate_corpus;
use gprs_workloads::kernels::text::{byte_histogram, generate_text};
use gprs_workloads::programs::{
    build_pbzip_pipeline, decode_pbzip_output, HistogramWorker, WordCountWorker,
};
use std::collections::BTreeMap;
use std::time::Duration;

fn storm(ctl: gprs_runtime::Controller, period: Duration) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut n = 0;
        while !ctl.is_finished() {
            if ctl.inject_on_busy(ExceptionKind::SoftFault) {
                n += 1;
            }
            std::thread::sleep(period);
        }
        n
    })
}

#[test]
fn pbzip_pipeline_exact_under_storm_and_across_schedules() {
    let input = generate_corpus(120_000, 77);
    for schedule in [
        gprs_core::order::ScheduleKind::RoundRobin,
        gprs_core::order::ScheduleKind::BalanceBasic,
        gprs_core::order::ScheduleKind::BalanceWeighted,
    ] {
        let mut b = GprsBuilder::new().workers(3).schedule(schedule);
        let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 4096, 3);
        let gprs = b.build();
        let injector = storm(gprs.controller(), Duration::from_micros(500));
        let report = gprs.run().unwrap();
        injector.join().unwrap();
        let decoded = decode_pbzip_output(report.file_contents(file.index())).unwrap();
        assert_eq!(decoded, input, "schedule {schedule:?}");
    }
}

#[test]
fn histogram_on_gprs_equals_kernel_reference() {
    let data = generate_corpus(64_000, 5);
    let reference = byte_histogram(&data);
    let mut b = GprsBuilder::new().workers(4);
    let acc = b.mutex(vec![0u64; 256]);
    for chunk in data.chunks(8_000) {
        b.thread(HistogramWorker::new(chunk.to_vec(), acc), GroupId::new(0), 1);
    }
    // A final auditor polls the accumulator until every byte is merged.
    struct Auditor {
        acc: gprs_runtime::handles::MutexHandle<Vec<u64>>,
        expected: u64,
        stage: u8,
    }
    impl gprs_core::history::Checkpoint for Auditor {
        type Snapshot = u8;
        fn checkpoint(&self) -> u8 {
            self.stage
        }
        fn restore(&mut self, s: &u8) {
            self.stage = *s;
        }
    }
    impl gprs_runtime::program::ThreadProgram for Auditor {
        fn step(
            &mut self,
            ctx: &mut gprs_runtime::ctx::StepCtx<'_>,
        ) -> gprs_runtime::program::Step {
            use gprs_runtime::program::Step;
            match self.stage {
                0 => {
                    self.stage = 1;
                    self.acc.lock()
                }
                _ => {
                    let (total, snapshot): (u64, Vec<u64>) =
                        ctx.with_lock(&self.acc, |bins| (bins.iter().sum(), bins.clone()));
                    if total == self.expected {
                        Step::exit(snapshot)
                    } else {
                        ctx.unlock(&self.acc);
                        self.stage = 0;
                        self.acc.lock()
                    }
                }
            }
        }
    }
    let auditor = b.thread(
        Auditor {
            acc,
            expected: data.len() as u64,
            stage: 0,
        },
        GroupId::new(1),
        1,
    );
    let gprs = b.build();
    let injector = storm(gprs.controller(), Duration::from_micros(400));
    let report = gprs.run().unwrap();
    injector.join().unwrap();
    let bins: Vec<u64> = report.output(auditor);
    assert_eq!(bins, reference.to_vec());
}

#[test]
fn wordcount_identical_on_gprs_and_cpr_executors() {
    let text = generate_text(6_000, 21);
    let cut = text[..text.len() / 2].rfind(' ').unwrap();
    let shards = [text[..cut].to_string(), text[cut..].to_string()];

    let mut gb = GprsBuilder::new().workers(2);
    let gacc = gb.mutex(BTreeMap::<String, u64>::new());
    let gtids: Vec<_> = shards
        .iter()
        .map(|s| gb.thread(WordCountWorker::new(s.clone(), gacc), GroupId::new(0), 1))
        .collect();
    let greport = gb.build().run().unwrap();
    let gsum: u64 = gtids.iter().map(|&t| greport.output::<u64>(t)).sum();

    let mut cb = CprBuilder::new().workers(2).checkpoint_every(4);
    let cacc = cb.mutex(BTreeMap::<String, u64>::new());
    let ctids: Vec<_> = shards
        .iter()
        .map(|s| cb.thread(WordCountWorker::new(s.clone(), cacc), GroupId::new(0), 1))
        .collect();
    let crt = cb.build();
    let cctl = crt.controller();
    let h = std::thread::spawn(move || {
        for _ in 0..4 {
            std::thread::sleep(Duration::from_micros(300));
            cctl.inject();
        }
    });
    let creport = crt.run().unwrap();
    h.join().unwrap();
    let csum: u64 = ctids.iter().map(|&t| creport.output::<u64>(t)).sum();
    assert_eq!(gsum, csum);
}

#[test]
fn runtime_is_deterministic_for_kernel_pipelines() {
    let input = generate_corpus(60_000, 13);
    let run = |workers: usize| {
        let mut b = GprsBuilder::new().workers(workers);
        let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 2048, 2);
        let report = b.build().run().unwrap();
        (
            report.telemetry.schedule_hash,
            report.file_contents(file.index()).to_vec(),
        )
    };
    let (t1, f1) = run(1);
    let (t4, f4) = run(4);
    assert_eq!(t1, t4, "schedule hashes must match across worker counts");
    assert_eq!(f1, f4, "archives must be bit-identical");
}

/// The pipeline's output file, byte for byte. The retired hash folds only
/// `(thread, kind)` and `decode_pbzip_output` accepts any valid token
/// stream, so neither would notice the compressor emitting different
/// tokens; this fingerprint does. The writer frames blocks in sequence
/// order, so the file is the same at every worker count.
#[test]
fn pbzip_output_bytes_are_pinned() {
    let input = generate_corpus(96_000, 31);
    for workers in [1, 2] {
        let mut b = GprsBuilder::new().workers(workers);
        let (file, _) = build_pbzip_pipeline(&mut b, input.clone(), 4096, 2);
        let report = b.build().run().unwrap();
        let out = report.file_contents(file.index());
        assert_eq!(decode_pbzip_output(out).unwrap(), input);
        assert_eq!(
            (out.len(), fnv1a(out)),
            (35_837, 0x6b0f_a21d_f491_0631),
            "pbzip output at {workers} workers"
        );
    }
}
