//! `durable`: the chains with a persist backend armed, and crash-at-50 % /
//! resume cycles in session mode as in `tests/durability.rs`: the engine's
//! durable hooks, the records and checkpoint chunks `core::persist` builds,
//! the image it rebuilds and the prefix-verified re-execution.
//!
//! Every gated number arms the **memory** backend. On this box no statistic
//! of a file-backed wall repeats: the disk is shared, and over four sets of
//! ten invocations the best of ~150 armed runs spread by 11–20 % and the
//! best crash → resume by 11–24 %, against a ceiling of 25 % for any bound
//! (medians and quartiles were no steadier, nor was the wall with `sync`
//! cut out or the process CPU time: the kernel threads that serve the
//! writes run on the other CPU, which shares a core with this one). The
//! file backend is measured in the traced run, ungated: checksummed
//! appends, segment seals and group-commit `fsync`s.

use super::chain::{self, retired_want, WORKERS};
use super::{run_sample, scratch_dir, timed, Ctx, Oracle, OwnPaths, Sample, Workload};
use crate::place::{Pinned, Usage};
use crate::stats::{self, fast};
use crate::trace::{Layers, ProgramProbe, TracedBackend};
use gprs_core::persist::{FileBackend, MemoryBackend, PersistBackend};
use gprs_runtime::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const TRACE_SAMPLES: usize = 7;
/// The traced run's file-backed runs are this many times shorter than the
/// timed, memory-backed samples.
const FILE_RUN_DIV: u32 = 8;
const SPEC: &str = "gprsbench durable";

pub struct Durable {
    rounds: u32,
    root: PathBuf,
    dirs: u32,
    /// Retired hash of the never-crashed twin run by a worker pool.
    golden_pool: u64,
    /// Same program driven as a session, the drive mode of the resume.
    golden_session: u64,
}

fn armed(
    rounds: u32,
    backend: Arc<dyn PersistBackend>,
    probe: Option<&Arc<ProgramProbe>>,
) -> GprsBuilder {
    chain::builder(WORKERS, rounds, probe)
        .durable(backend)
        .durable_spec(SPEC)
}

fn open(dir: &Path) -> Result<Arc<FileBackend>, String> {
    FileBackend::open(dir)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

impl Durable {
    fn fresh_dir(&mut self) -> PathBuf {
        self.dirs += 1;
        self.root.join(format!("job-{}", self.dirs))
    }

    /// Runs an armed session to half its grants and drops it mid-flight:
    /// the in-process crash, the backend left as a SIGKILL would leave it.
    fn crash_at_half(&self, backend: Arc<dyn PersistBackend>) -> Result<(), String> {
        let mut session = armed(self.rounds, backend, None).build().into_session();
        match session.run_quantum(retired_want(self.rounds) / 2) {
            QuantumOutcome::Yielded => Ok(()),
            QuantumOutcome::Finished => Err("finished before the crash point".into()),
        }
    }

    /// `load()` → prefix-verified re-execution → final report. Returns the
    /// report with the verified prefix length.
    fn resume(&self, backend: Arc<dyn PersistBackend>) -> Result<(RunReport, u64), String> {
        let image = backend.load().map_err(|e| e.to_string())?;
        let mut session = armed(self.rounds, backend, None)
            .resume(&image)
            .build()
            .into_session();
        session.run_to_completion();
        let report = session.finish().map_err(|e| e.to_string())?;
        Ok((report, image.retired_len()))
    }

    fn check_resumed(&self, oracle: &mut Oracle, what: &str, r: &RunReport, prefix: u64) {
        let t = &r.telemetry;
        oracle.check(
            t.retired_hash == self.golden_session
                && prefix > 0
                && t.counter("recovered_prefix_len") == prefix,
            || {
                format!(
                    "durable {what}: resumed hash {:#x} (twin {:#x}), durable prefix {prefix}, verified {}",
                    t.retired_hash,
                    self.golden_session,
                    t.counter("recovered_prefix_len")
                )
            },
        );
    }

    fn check_run(&self, oracle: &mut Oracle, what: &str, r: &RunReport) {
        let t = &r.telemetry;
        oracle.check(
            t.retired_hash == self.golden_pool && t.retired_count == retired_want(self.rounds),
            || {
                format!(
                    "durable {what}: retired {} with hash {:#x}, twin retired {} with {:#x}",
                    t.retired_count,
                    t.retired_hash,
                    retired_want(self.rounds),
                    self.golden_pool
                )
            },
        );
    }
}

impl Workload for Durable {
    const NAME: &'static str = "durable";
    const CYCLE_SHARE: f64 = 0.5;

    fn setup(ctx: &Ctx) -> Self {
        let rounds = ctx.sizes.durable_rounds;
        let _ = armed(rounds / 4 + 1, Arc::new(MemoryBackend::new()), None)
            .build()
            .run();
        Durable {
            rounds,
            root: scratch_dir("durable"),
            dirs: 0,
            golden_pool: 0,
            golden_session: 0,
        }
    }

    fn reference(&mut self, ctx: &Ctx, oracle: &mut Oracle) {
        let pool = chain::builder(1, self.rounds, None).build().run();
        let mut session = chain::builder(1, self.rounds, None).build().into_session();
        session.run_to_completion();
        let hash = |r: Option<RunReport>| ctx.golden(r.map_or(0, |r| r.telemetry.retired_hash));
        self.golden_pool = hash(oracle.ok(pool, "durable volatile twin"));
        self.golden_session = hash(oracle.ok(session.finish(), "durable volatile session twin"));
    }

    fn sample(&mut self, ix: usize, oracle: &mut Oracle) -> Sample {
        let gprs = armed(self.rounds, Arc::new(MemoryBackend::new()), None).build();
        let what = format!("sample {ix}");
        run_sample(
            &format!("durable {what}"),
            oracle,
            || gprs.run(),
            |o, r| self.check_run(o, &what, r),
        )
    }

    fn cycle(&mut self, ix: usize, oracle: &mut Oracle, own: &mut OwnPaths) -> f64 {
        let what = format!("cycle {ix}");
        let backend = Arc::new(MemoryBackend::new());
        oracle.check(self.crash_at_half(backend.clone()).is_ok(), || {
            format!("durable {what}: the crash run did not stop mid-flight")
        });
        let t = timed(|| self.resume(backend));
        if let Some((r, prefix)) = oracle.ok(t.out, &format!("durable {what}")) {
            self.check_resumed(oracle, &what, &r, prefix);
        }
        own.resume_s.push(t.wall_s);
        t.wall_s
    }

    fn trace(&mut self, ctx: &Ctx, _pin: &Pinned, oracle: &mut Oracle, layers: &mut Layers) {
        // The same workload an eighth as long, with twins of its own: a
        // file-backed run costs twelve times a memory-backed one, and what
        // it leaves the kernel to write back slows whoever runs next.
        let mut small = Durable {
            rounds: self.rounds / FILE_RUN_DIV,
            root: self.root.clone(),
            dirs: 0,
            golden_pool: 0,
            golden_session: 0,
        };
        small.reference(ctx, oracle);
        let tracer = layers.tracer.clone();
        let probe = Arc::new(ProgramProbe::default());
        let (mut plain_s, mut traced_s, mut memory_s, mut syncs) = (vec![], vec![], vec![], vec![]);
        let mut plain_all = Usage::default();
        let (mut record_ns, mut records, mut chunks) = (0, 0, 0);
        let mut last = None;
        for run in 0..TRACE_SAMPLES as u32 {
            // Untraced: the wall every derived number is taken from.
            let dir = small.fresh_dir();
            let Some(backend) = oracle.ok(open(&dir), "durable directory") else {
                return;
            };
            let gprs = armed(small.rounds, backend.clone(), None).build();
            let t = timed(|| gprs.run());
            plain_s.push(t.wall_s);
            plain_all.cpu_s += t.used.cpu_s;
            plain_all.ctx_switches += t.used.ctx_switches;
            if let Some(r) = oracle.ok(t.out, "durable untraced run") {
                small.check_run(oracle, "untraced run", &r);
                syncs.push(backend.stats().fsyncs as f64);
                last = Some(r);
            }
            let _ = std::fs::remove_dir_all(&dir);

            // Traced: decorated program and decorated backend.
            let dir = small.fresh_dir();
            let Some(file) = oracle.ok(open(&dir), "durable directory") else {
                return;
            };
            let traced = Arc::new(TracedBackend::new(file.clone(), tracer.clone()));
            let span = tracer.open("runtime.run", None, run);
            traced.enter(span, run);
            let (gprs, _) = tracer.scoped("runtime.build", Some(span), run, |_| {
                armed(small.rounds, traced.clone(), Some(&probe)).build()
            });
            let t = timed(|| gprs.run());
            tracer.close(span);
            traced_s.push(t.wall_s);
            if let Some(r) = oracle.ok(t.out, "durable traced run") {
                small.check_run(oracle, "traced run", &r);
            }
            record_ns += traced.record.ns();
            records += traced.record.calls();
            chunks += file.stats().chunks_stored;
            let _ = std::fs::remove_dir_all(&dir);

            // Same records, no files: what the disk adds.
            let gprs = armed(small.rounds, Arc::new(MemoryBackend::new()), None).build();
            let t = timed(|| gprs.run());
            memory_s.push(t.wall_s);
            oracle.check(t.out.is_ok(), || "durable memory-backend run failed".into());
        }
        let Some(report) = last else { return };
        let runs = TRACE_SAMPLES as f64;
        let wall = fast(&plain_s);
        let (n_sync, sync_ns) = tracer.total("core.persist.sync");
        let (_, chunk_ns) = tracer.total("core.persist.put_chunk");
        let sync_s = sync_ns as f64 / 1e9 / runs;
        let persist_s = (record_ns + chunk_ns) as f64 / 1e9 / runs + sync_s;
        let program_s = probe.total_ns() as f64 / 1e9 / runs;
        let grants = report.stats.grants;

        super::program_metrics(layers, &probe);
        layers.set("bench.trace_overhead_ratio", fast(&traced_s) / wall);
        layers.set(
            "core.persist.record_ns",
            record_ns as f64 / records.max(1) as f64,
        );
        layers.set("core.persist.sync_us", tracer.mean_us("core.persist.sync"));
        layers.set(
            "core.persist.put_chunk_us",
            tracer.mean_us("core.persist.put_chunk"),
        );
        layers.set("core.persist.records", records as f64 / runs);
        layers.set("core.persist.chunks", chunks as f64 / runs);
        let traced_mean = traced_s.iter().sum::<f64>() / runs;
        layers.set("core.persist.busy_share", persist_s / traced_mean);
        layers.set("core.persist.file_run_ms", wall * 1e3);
        layers.set("core.persist.memory_backend_ratio", fast(&memory_s) / wall);
        // Identical runs differ by an fsync or so (the tail sync depends on
        // where the last checkpoint fell), so: median and range, no gate.
        let s = stats::summarize(&syncs);
        layers.set("core.persist.syncs", s.median);
        layers.note(format!(
            "fsyncs per run: median {} (range {}–{} over {} identical runs; the traced runs spanned {})",
            s.median,
            s.min,
            s.max,
            s.n,
            n_sync as f64 / runs
        ));
        super::engine_counters(layers, &report);
        let per_run = Usage {
            cpu_s: plain_all.cpu_s / runs,
            ctx_switches: plain_all.ctx_switches / TRACE_SAMPLES as u64,
        };
        super::proc_metrics(layers, per_run, report.telemetry.retired_count, grants);
        // Mean wall for the shares: the spans are means over the same runs.
        let plain_mean = plain_s.iter().sum::<f64>() / runs;
        super::attribute(layers, plain_mean, program_s, persist_s, grants);
        super::idle_check(layers, plain_all.cpu_s, (plain_mean - sync_s) * runs);
        let run_self: u64 = (0..tracer.len() as u32)
            .filter(|id| tracer.name(*id) == "runtime.run")
            .map(|id| tracer.self_ns(id))
            .sum();
        layers.note(format!(
            "traced run span: {:.4} s mean, {:.4} s of it self time (outside build, put_chunk and sync)",
            traced_mean,
            run_self as f64 / 1e9 / runs
        ));

        // File-backed crash → resume cycles, spanned: `FileBackend::open` on
        // the crashed job's directory → `load()` → re-execution → report.
        let mut file_resume_s = Vec::new();
        for cycle in 0..TRACE_SAMPLES as u32 {
            let run = TRACE_SAMPLES as u32 + cycle;
            let dir = small.fresh_dir();
            let crashed = open(&dir).and_then(|b| small.crash_at_half(b));
            oracle.check(crashed.is_ok(), || {
                "durable traced cycle: the crash run did not stop mid-flight".into()
            });
            let (resumed, id) = tracer.scoped("runtime.resume", None, run, |span| {
                let traced = Arc::new(TracedBackend::new(open(&dir)?, tracer.clone()));
                traced.enter(span, run);
                small.resume(traced)
            });
            file_resume_s.push(tracer.ns(id) as f64 / 1e9);
            if let Some((r, prefix)) = oracle.ok(resumed, "durable traced cycle") {
                small.check_resumed(oracle, "traced cycle", &r, prefix);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        layers.set("core.persist.file_resume_ms", fast(&file_resume_s) * 1e3);
        let (loads, load_ns) = tracer.total("core.persist.load");
        let (_, resume_ns) = tracer.total("runtime.resume");
        layers.set(
            "core.persist.load_ms",
            load_ns as f64 / 1e6 / loads.max(1) as f64,
        );
        layers.set(
            "runtime.resume_reexec_s",
            (resume_ns - load_ns) as f64 / 1e9 / loads.max(1) as f64,
        );
    }

    fn teardown(self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{measure, trace, Sizes};

    #[test]
    fn smoke_durable_resumes_to_the_never_crashed_twin() {
        let ctx = Ctx {
            seed: 2,
            seconds: 0.0,
            sizes: Sizes::smoke(),
            corrupt_oracle: false,
        };
        let mut oracle = Oracle::default();
        let m = measure::<Durable>(&ctx, &mut oracle).expect("pinning available");
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert_eq!(m.own.resume_s.len(), crate::workloads::MIN_SAMPLES);
        let layers = trace::<Durable>(&ctx, &mut oracle).expect("pinning available");
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert!(layers.get("core.persist.records") > 0.0);
        assert!(layers.get("core.persist.syncs") > 0.0);
        assert!(layers.get("core.persist.load_ms") > 0.0);
        assert!(layers.get("core.persist.file_run_ms") > 0.0);
        assert!(layers.get("core.persist.file_resume_ms") > 0.0);
    }
}
