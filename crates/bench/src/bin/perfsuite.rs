//! The deterministic half of performance tracking: golden determinism
//! hashes, and counter baselines for the runtime's grant/checkpoint/retire/
//! recovery paths at 1/2/4/8 workers, the sharded-order-domain sweep at
//! 8/16/32 workers and the simulator's recovery loop. Nothing here reads a
//! clock — every wall-clock question belongs to `gprsbench`, which repeats
//! its samples and reports their spread.
//!
//! Two artifacts live under `crates/bench/goldens/` and are committed:
//!
//! * `determinism.txt` — `schedule_hash`/`retired_hash` pairs for the ten
//!   paper workloads on the simulator (fault-free and seeded injection) and
//!   for real-runtime programs across 1/2/4/8 workers. Any drift is a
//!   determinism regression and fails the run (exit 1).
//! * `baseline_perf.txt` — recorded counts, what `--gate` compares against.
//!
//! `BENCH_perf.json` (workspace root) is the machine-readable snapshot: the
//! determinism hashes and the current counts.
//!
//! Flags: `--quick` shrinks the perf sections (determinism parameters are
//! fixed so goldens match in every mode; the perf baseline switches to
//! `baseline_perf_quick.txt` since the shrunk counts differ); `--bless`
//! rewrites both golden files from the current run; `--bless-baseline`
//! rewrites only the perf baseline; `--out <path>` overrides the JSON
//! path; `--gate <pct>` fails (exit 2) when a deterministic count metric
//! regresses more than `pct`% over the committed baseline.

use gprs_bench::{injector, print_table};
use gprs_runtime::prelude::*;
use gprs_sim::gprs::{run_gprs, GprsSimConfig};
use gprs_telemetry::JsonWriter;
use gprs_workloads::kernels::compress::generate_corpus;
use gprs_workloads::programs::{
    beacon_model, beacon_model_rounds, build_beacon, build_beacon_rounds, build_pbzip_pipeline,
    HistogramWorker,
};
use gprs_workloads::traces::{build, TraceParams, PROGRAMS};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Micro-programs

/// One logical thread fetch-adding its own atomic `rounds` times: with one
/// atomic per thread this is the pure grant→checkpoint→step→deposit→retire
/// path, no blocking anywhere.
struct Chain {
    atomic: AtomicHandle,
    rounds: u32,
    done: u32,
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
            return Step::exit_unit();
        }
        self.done += 1;
        self.atomic.fetch_add(1)
    }
}

/// Like [`Chain`] but dragging a large mod set so `checkpoint()` cost —
/// the part this PR moves off the big lock — dominates.
struct HeavyChain {
    atomic: AtomicHandle,
    payload: Vec<u64>,
    rounds: u32,
    done: u32,
}

impl Checkpoint for HeavyChain {
    type Snapshot = (Vec<u64>, u32);
    fn checkpoint(&self) -> (Vec<u64>, u32) {
        (self.payload.clone(), self.done)
    }
    fn restore(&mut self, s: &(Vec<u64>, u32)) {
        self.payload = s.0.clone();
        self.done = s.1;
    }
}

impl ThreadProgram for HeavyChain {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.done == self.rounds {
            return Step::exit_unit();
        }
        let ix = self.done as usize % self.payload.len();
        self.payload[ix] = self.payload[ix]
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        self.done += 1;
        self.atomic.fetch_add(1)
    }
}

fn chain_run(workers: usize, threads: u32, rounds: u32) -> RunReport {
    let mut b = GprsBuilder::new().workers(workers);
    for _ in 0..threads {
        let a = b.atomic(0);
        b.thread(Chain { atomic: a, rounds, done: 0 }, GroupId::new(0), 1);
    }
    b.build().run().unwrap()
}

fn heavy_run(workers: usize, threads: u32, rounds: u32, payload: usize) -> RunReport {
    let mut b = GprsBuilder::new().workers(workers);
    for t in 0..threads {
        let a = b.atomic(0);
        b.thread(
            HeavyChain {
                atomic: a,
                payload: vec![t as u64; payload],
                rounds,
                done: 0,
            },
            GroupId::new(0),
            1,
        );
    }
    b.build().run().unwrap()
}

/// Periodic `inject_on_busy` storm, as the end-to-end tests do.
fn storm(ctl: Controller, period: Duration) -> std::thread::JoinHandle<u64> {
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

// ---------------------------------------------------------------------------
// Golden files

#[derive(Debug, Clone, PartialEq, Eq)]
struct Golden {
    key: String,
    schedule: u64,
    retired: u64,
}

fn goldens_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

fn parse_goldens(text: &str) -> Vec<Golden> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            let key = it.next().expect("golden key").to_string();
            let mut hex = |what: &str| {
                let s = it.next().unwrap_or_else(|| panic!("missing {what} in {l:?}"));
                u64::from_str_radix(s.trim_start_matches("0x"), 16)
                    .unwrap_or_else(|_| panic!("bad {what} in line {l:?}"))
            };
            let schedule = hex("schedule hash");
            let retired = hex("retired hash");
            Golden { key, schedule, retired }
        })
        .collect()
}

fn render_goldens(goldens: &[Golden]) -> String {
    let mut s = String::from(
        "# perfsuite determinism goldens: <key> <schedule_hash> <retired_hash>\n\
         # Recorded from the seed engine; `perfsuite --bless` rewrites.\n",
    );
    for g in goldens {
        s.push_str(&format!(
            "{} {:#018x} {:#018x}\n",
            g.key, g.schedule, g.retired
        ));
    }
    s
}

/// Baseline perf numbers: `<row_key>.<metric> <value>` lines.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            let key = it.next().expect("baseline key").to_string();
            let v: f64 = it
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("bad baseline value in {l:?}"));
            (key, v)
        })
        .collect()
}

fn render_baseline(rows: &[PerfRow]) -> String {
    let mut s = String::from(
        "# perfsuite recorded baseline: <row_key>.<metric> <value>\n\
         # Recorded from the seed engine; `perfsuite --bless` rewrites.\n",
    );
    for row in rows {
        for (name, v) in &row.metrics {
            s.push_str(&format!("{}.{} {}\n", row.key, name, v));
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Perf rows

struct PerfRow {
    key: String,
    metrics: Vec<(&'static str, f64)>,
}

fn runtime_metrics(key: String, report: &RunReport) -> PerfRow {
    let t = &report.telemetry;
    let grants = t.counter("grants") as f64;
    let fast = t.counter("fast_path_grants") as f64;
    let batch_mean = t.histogram("retire_batch").map_or(0.0, |h| h.mean());
    PerfRow {
        key,
        metrics: vec![
            ("grants", grants),
            ("fast_path_grants", fast),
            ("fast_path_share", if grants > 0.0 { fast / grants } else { 0.0 }),
            ("wakeups_issued", t.counter("wakeups_issued") as f64),
            ("wakeups_spurious", t.counter("wakeups_spurious") as f64),
            ("hot_path_allocs", t.counter("hot_path_allocs") as f64),
            ("retire_batch_mean", batch_mean),
            ("checkpoints", t.counter("checkpoints") as f64),
            ("recoveries", t.counter("recovery_sessions") as f64),
        ],
    }
}

// ---------------------------------------------------------------------------
// Suite sections

/// Fixed-parameter determinism sweep. The parameters here are part of the
/// golden contract — never scale them with `--quick`.
fn determinism(goldens: &mut Vec<Golden>) {
    // Simulator: all ten paper workloads, fault-free and with the seeded
    // (fully deterministic) injector at each program's Fig. 10 high rate.
    let params = TraceParams::paper().scaled(0.04);
    for prog in &PROGRAMS {
        let w = build(prog.name, &params);
        let clean = run_gprs(&w, &GprsSimConfig::balance_aware(8));
        goldens.push(Golden {
            key: format!("sim/{}/clean", prog.name),
            schedule: clean.telemetry.schedule_hash,
            retired: clean.telemetry.retired_hash,
        });
        // Static checkpoint elision must be hash-invisible: the golden
        // recorded from the elision-off run is also the contract for the
        // elision-on run (differential oracle, inline so the committed
        // golden file needs no extra keys for it).
        let elided = run_gprs(&w, &GprsSimConfig::balance_aware(8).with_elision(true));
        assert_eq!(
            (elided.telemetry.schedule_hash, elided.telemetry.retired_hash),
            (clean.telemetry.schedule_hash, clean.telemetry.retired_hash),
            "sim/{}: checkpoint elision moved the determinism hashes",
            prog.name
        );
        // The goldens run at a tiny scale to stay cheap; the per-second
        // Fig. 10 rates would land ~zero exceptions in so short a run.
        // Derive the rate from the (deterministic) fault-free finish time
        // so every workload takes a handful of hits, and cap the injected
        // run at a fixed simulated cycle so a recovery storm still
        // terminates — both inputs are deterministic, so the hash is too.
        let rate = 8.0 * gprs_sim::costs::CYCLES_PER_SEC as f64 / clean.finish_cycles as f64;
        let cfg = GprsSimConfig::balance_aware(8)
            .with_exceptions(injector(rate, 8, 0xD37E))
            .with_time_cap(clean.finish_cycles.saturating_mul(12));
        let injected = run_gprs(&w, &cfg);
        goldens.push(Golden {
            key: format!("sim/{}/injected", prog.name),
            schedule: injected.telemetry.schedule_hash,
            retired: injected.telemetry.retired_hash,
        });
        eprintln!("  determinism sim/{} done", prog.name);
    }

    // Real runtime, fault-free: hashes must agree at every worker count,
    // so each program contributes ONE golden plus a cross-worker assert.
    let worker_counts = [1usize, 2, 4, 8];
    let mut push_rt = |key: &str, runs: Vec<(u64, u64)>| {
        let first = runs[0];
        for (w, r) in worker_counts.iter().zip(&runs) {
            assert_eq!(
                *r, first,
                "{key}: determinism hashes differ between 1 and {w} workers"
            );
        }
        goldens.push(Golden {
            key: key.to_string(),
            schedule: first.0,
            retired: first.1,
        });
        eprintln!("  determinism {key} done (identical at 1/2/4/8 workers)");
    };

    push_rt(
        "rt/fetchadd",
        worker_counts
            .iter()
            .map(|&w| {
                let t = chain_run(w, 8, 64).telemetry;
                (t.schedule_hash, t.retired_hash)
            })
            .collect(),
    );

    let input = generate_corpus(30_000, 11);
    push_rt(
        "rt/pbzip",
        worker_counts
            .iter()
            .map(|&w| {
                let mut b = GprsBuilder::new().workers(w);
                let _ = build_pbzip_pipeline(&mut b, input.clone(), 2048, 2);
                let t = b.build().run().unwrap().telemetry;
                (t.schedule_hash, t.retired_hash)
            })
            .collect(),
    );

    let data = generate_corpus(32_000, 5);
    push_rt(
        "rt/histogram",
        worker_counts
            .iter()
            .map(|&w| {
                let mut b = GprsBuilder::new().workers(w);
                let acc = b.mutex(vec![0u64; 256]);
                for chunk in data.chunks(4_000) {
                    b.thread(HistogramWorker::new(chunk.to_vec(), acc), GroupId::new(0), 1);
                }
                let t = b.build().run().unwrap().telemetry;
                (t.schedule_hash, t.retired_hash)
            })
            .collect(),
    );

    // Beacon with dead-store WAL elision ON: the golden is recorded from
    // the eliding run, and each worker count first proves the elided run
    // hash-identical to its elision-off twin (differential oracle).
    let beacon_runs: Vec<(u64, u64)> = worker_counts
        .iter()
        .map(|&w| {
            let run = |elide: bool| {
                let mut b = GprsBuilder::new().workers(w);
                let _ = build_beacon(&mut b, 4, 48);
                let t = b
                    .model(beacon_model(4, 48))
                    .elide(elide)
                    .build()
                    .run()
                    .unwrap()
                    .telemetry;
                assert_eq!(t.counter("wal_records_elided") > 0, elide, "w{w}");
                (t.schedule_hash, t.retired_hash)
            };
            let (off, on) = (run(false), run(true));
            assert_eq!(on, off, "rt/beacon w{w}: WAL elision moved the hashes");
            on
        })
        .collect();
    let beacon_retired = beacon_runs[0].1;
    push_rt("rt/beacon", beacon_runs);

    // Sharded twin of rt/beacon: the plan gives each beacon worker its own
    // order domain, and the per-domain gates joined by the wrapping-sum
    // merge must reproduce the unsharded retired order at every worker
    // count. The merged schedule hash is a sharded-mode artifact (stable,
    // but not comparable to the unsharded value), so it gets its own
    // golden line.
    push_rt(
        "rt/beacon_sharded",
        worker_counts
            .iter()
            .map(|&w| {
                let mut b = GprsBuilder::new().workers(w);
                let _ = build_beacon(&mut b, 4, 48);
                let t = b
                    .model(beacon_model(4, 48))
                    .build_sharded()
                    .run()
                    .unwrap()
                    .telemetry;
                assert_eq!(
                    t.retired_hash, beacon_retired,
                    "rt/beacon_sharded w{w}: sharded retirement diverged from the \
                     unsharded golden"
                );
                (t.schedule_hash, t.retired_hash)
            })
            .collect(),
    );
}

fn perf(quick: bool) -> Vec<PerfRow> {
    let mut rows = Vec::new();

    // Grant/retire micro-path: 8 disjoint fetch-add chains, swept across
    // worker counts. This is the path the OrderGate fast path targets.
    let rounds = if quick { 128 } else { 1024 };
    for workers in [1usize, 2, 4, 8] {
        let report = chain_run(workers, 8, rounds);
        rows.push(runtime_metrics(format!("grant_retire/w{workers}"), &report));
        eprintln!("  perf grant_retire/w{workers} done");
    }

    // Sharded scaling push: beacon gives the planner one provable order
    // domain per worker, so the sharded build fans out into independent
    // OrderGate/ROL/WAL stacks while the unsharded twin serializes every
    // grant through a single gate. Swept past the single-gate design point
    // (w8/w16/w32). Retired-order equivalence and the allocation-free hot
    // path are asserted here — a scaling row that cheats on precision or
    // mallocs per grant must fail the suite, not just drift a gauge. Whether
    // the fan-out *pays* is `gprsbench`'s `beacon-sharded` workload.
    {
        let rounds = if quick { 24u32 } else { 160 };
        for workers in [8usize, 16, 32] {
            let run = |sharded: bool| {
                let mut b = GprsBuilder::new().workers(workers);
                let _ = build_beacon(&mut b, workers, rounds);
                b = b.model(beacon_model(workers, rounds));
                if sharded {
                    b.build_sharded().run().unwrap()
                } else {
                    b.build().run().unwrap()
                }
            };
            let (plain, sharded) = (run(false), run(true));
            assert_eq!(
                sharded.telemetry.retired_hash, plain.telemetry.retired_hash,
                "scaling/w{workers}: sharded retirement diverged from the unsharded twin"
            );
            assert_eq!(
                sharded.telemetry.counter("hot_path_allocs"),
                0,
                "scaling/w{workers}: racecheck is off, so its access-vector pool cannot miss"
            );
            let mut push = |key: String, report: &RunReport| {
                let mut row = runtime_metrics(key, report);
                row.metrics.push(("domains", report.shards.len() as f64));
                rows.push(row);
            };
            push(format!("scaling_unsharded/w{workers}"), &plain);
            push(format!("scaling_sharded/w{workers}"), &sharded);
            eprintln!(
                "  perf scaling/w{workers} done ({} domains)",
                sharded.shards.len()
            );
        }
    }

    // Checkpoint capture path: large mod sets make `checkpoint()` the cost
    // the off-critical-section hand-off is meant to hide.
    let heavy_rounds = if quick { 48 } else { 256 };
    for workers in [1usize, 4] {
        let report = heavy_run(workers, 4, heavy_rounds, 16 * 1024);
        rows.push(runtime_metrics(format!("checkpoint/w{workers}"), &report));
        eprintln!("  perf checkpoint/w{workers} done");
    }

    // Recovery path under an injection storm (wall-clock injection timing
    // makes this row a smoke run, neither gated nor a determinism golden).
    {
        let rounds = if quick { 256 } else { 1024 };
        let mut b = GprsBuilder::new().workers(4);
        for _ in 0..4 {
            let a = b.atomic(0);
            b.thread(Chain { atomic: a, rounds, done: 0 }, GroupId::new(0), 1);
        }
        let gprs = b.build();
        let inj = storm(gprs.controller(), Duration::from_micros(400));
        let report = gprs.run().unwrap();
        inj.join().unwrap();
        rows.push(runtime_metrics("recovery/w4".to_string(), &report));
        eprintln!("  perf recovery/w4 done");
    }

    // Multi-tenant serving: a shared pool drains thousands of queued small
    // jobs (fetchadd/mutex/histogram specs, varied seeds), swept across
    // pool widths. The 16-grant quantum makes the larger specs yield and
    // re-enter the FIFO, so the park/requeue/migrate path is exercised.
    // `jobs` and `quanta` are deterministic counts — the grant sequence per
    // job and the quantum fix how many scheduling quanta the backlog costs
    // — so both are gated.
    {
        use gprs_serve::{JobSpec, PoolConfig, ServePool};
        let jobs = if quick { 200 } else { 2000 };
        for workers in [1usize, 2, 4, 8] {
            let pool = ServePool::start(PoolConfig {
                workers,
                quantum: 16,
                ..Default::default()
            });
            let handle = pool.handle();
            let mut tickets = Vec::with_capacity(jobs);
            for i in 0..jobs {
                // Every fourth job is a histogram (hundreds of grants);
                // the rest are small fetchadd/mutex specs — the mix keeps
                // execution, not admission, the dominant cost.
                let workload = match i % 4 {
                    0 => "fetchadd",
                    1 => "mutex",
                    2 => "fetchadd",
                    _ => "histogram",
                };
                let seed = (i as u64) % 17 + 1;
                tickets.push(handle.submit(JobSpec::new(workload, seed)).unwrap());
            }
            let mut completed = 0u64;
            for ticket in tickets {
                let outcome = ticket.wait();
                assert!(
                    outcome.report.is_some(),
                    "serve_throughput job failed: {:?}",
                    outcome.error
                );
                completed += 1;
            }
            let stats = pool.shutdown();
            rows.push(PerfRow {
                key: format!("serve_throughput/w{workers}"),
                metrics: vec![
                    ("jobs", completed as f64),
                    ("quanta", stats.quanta as f64),
                    ("yields", stats.yields as f64),
                ],
            });
            eprintln!("  perf serve_throughput/w{workers} done ({jobs} jobs)");
        }
    }

    // Durable path: the same 8-chain grant/retire program with the file
    // backend armed, swept across worker counts: how many segments seal
    // and how many group-commit fsyncs the retirement log issues.
    {
        use gprs_core::persist::{unique_temp_dir, FileBackend};
        use std::sync::Arc;
        let rounds = if quick { 128 } else { 1024 };
        for workers in [1usize, 2, 4, 8] {
            let dir = unique_temp_dir("gprs-perf-durable");
            let backend =
                Arc::new(FileBackend::open(&dir).expect("perf durable dir opens"));
            let mut b = GprsBuilder::new()
                .workers(workers)
                .durable(backend)
                .durable_spec(format!("perf durable_wal w{workers}"));
            for _ in 0..8 {
                let a = b.atomic(0);
                b.thread(Chain { atomic: a, rounds, done: 0 }, GroupId::new(0), 1);
            }
            let report = b.build().run().unwrap();
            let mut row = runtime_metrics(format!("durable_wal/w{workers}"), &report);
            let t = &report.telemetry;
            row.metrics
                .push(("wal_segments_sealed", t.counter("wal_segments_sealed") as f64));
            row.metrics.push(("fsyncs", t.counter("fsyncs") as f64));
            rows.push(row);
            let _ = std::fs::remove_dir_all(&dir);
            eprintln!("  perf durable_wal/w{workers} done");
        }
    }

    // Static elision consumers. Two runtime workloads run with their
    // dead-store proofs consumed (`wal_records_elided` must stay positive
    // — `wal_appends` is gated so broken elision shows up as an append
    // regression), and two simulator workloads run with checkpoint
    // elision at proven read-only boundaries. Each row first asserts the
    // differential oracle inline: elision on and off retire bit-identical
    // orders.
    {
        use gprs_core::ids::AtomicId;
        use gprs_core::workload::{Segment, SimOp, ThreadSpec};
        let rounds = if quick { 48u32 } else { 256 };

        let mut elide_row = |key: &str, report: RunReport, off: &RunReport| {
            assert_eq!(
                report.telemetry.retired_hash, off.telemetry.retired_hash,
                "{key}: WAL elision changed the retired order"
            );
            assert!(
                report.telemetry.counter("wal_records_elided") > 0,
                "{key}: the elision row must actually elide"
            );
            let mut row = runtime_metrics(key.to_string(), &report);
            let t = &report.telemetry;
            row.metrics
                .push(("wal_appends", t.counter("wal_appends") as f64));
            row.metrics.push((
                "wal_records_elided",
                t.counter("wal_records_elided") as f64,
            ));
            rows.push(row);
            eprintln!("  perf {key} done");
        };

        // Pure beacon: every plain store is a proven dead store.
        {
            let shape = vec![rounds; 4];
            let run = |elide: bool| {
                let mut b = GprsBuilder::new().workers(4);
                let _ = build_beacon_rounds(&mut b, &shape);
                b.model(beacon_model_rounds(&shape))
                    .elide(elide)
                    .build()
                    .run()
                    .unwrap()
            };
            let off = run(false);
            elide_row("elide_wal/beacon", run(true), &off);
        }

        // Mixed program: beacon workers share the machine with fetch-add
        // chains — the proofs must stay per-cell, eliding only the beacon
        // stores while the chain traffic logs normally.
        {
            let shape = vec![rounds; 2];
            let chains = 2u32;
            let mut model = beacon_model_rounds(&shape);
            for i in 0..chains {
                model.threads.push(ThreadSpec::new(
                    ThreadId::new(shape.len() as u32 + i),
                    GroupId::new(shape.len() as u32 + i),
                    1,
                    (0..rounds)
                        .map(|_| {
                            Segment::new(400, SimOp::Atomic {
                                atomic: AtomicId::new(2 * shape.len() as u64 + u64::from(i)),
                            })
                        })
                        .collect(),
                ));
            }
            model.name = "beacon-mixed".into();
            let run = |elide: bool| {
                let mut b = GprsBuilder::new().workers(4);
                let _ = build_beacon_rounds(&mut b, &shape);
                for i in 0..chains {
                    let a = b.atomic(0);
                    b.thread(
                        Chain { atomic: a, rounds, done: 0 },
                        GroupId::new(shape.len() as u32 + i),
                        1,
                    );
                }
                b.model(model.clone()).elide(elide).build().run().unwrap()
            };
            let off = run(false);
            elide_row("elide_wal/beacon_mixed", run(true), &off);
        }

        // Simulator checkpoint elision: dedup and pbzip2 have the largest
        // proven-read-only boundary share (~40% of checkpoints).
        let sim_scale = if quick { 0.02 } else { 0.08 };
        for name in ["dedup", "pbzip2"] {
            let w = build(name, &TraceParams::paper().scaled(sim_scale));
            let off = run_gprs(&w, &GprsSimConfig::balance_aware(8));
            let on = run_gprs(&w, &GprsSimConfig::balance_aware(8).with_elision(true));
            assert_eq!(
                on.telemetry.retired_hash, off.telemetry.retired_hash,
                "elide_ckpt/{name}: checkpoint elision changed the retired order"
            );
            assert!(on.checkpoints_elided > 0, "elide_ckpt/{name}");
            rows.push(PerfRow {
                key: format!("elide_ckpt/{name}"),
                metrics: vec![
                    ("checkpoints", on.checkpoints as f64),
                    ("checkpoints_elided", on.checkpoints_elided as f64),
                    (
                        "ckpt_cycles_saved",
                        off.ckpt_cycles.saturating_sub(on.ckpt_cycles) as f64,
                    ),
                ],
            });
            eprintln!(
                "  perf elide_ckpt/{name} done ({} of {} boundaries elided)",
                on.checkpoints_elided,
                on.checkpoints + on.checkpoints_elided
            );
        }
    }

    // Simulator recovery loop (`squash_scope`/`plan_recovery`) under the
    // seeded injector: how many sessions ran and what they squashed.
    let scale = if quick { 0.05 } else { 0.15 };
    for name in ["canneal", "dedup"] {
        let w = build(name, &TraceParams::paper().scaled(scale));
        let info = gprs_workloads::traces::info(name);
        let cfg = GprsSimConfig::balance_aware(24)
            .with_exceptions(injector(info.fig10_high_rate, 24, 0x5EED));
        let r = run_gprs(&w, &cfg);
        rows.push(PerfRow {
            key: format!("sim_recovery/{name}"),
            metrics: vec![
                ("recoveries", r.telemetry.counter("recovery_sessions") as f64),
                ("squashed", r.squashed as f64),
                ("subthreads", r.subthreads as f64),
            ],
        });
        eprintln!("  perf sim_recovery/{name} done");
    }

    rows
}

// ---------------------------------------------------------------------------
// Perf gate

/// Count metrics that are a deterministic function of the program and
/// seed, hence comparable across machines and eligible for `--gate`.
const GATED_METRICS: &[&str] = &[
    "grants",
    "checkpoints",
    "recoveries",
    "squashed",
    "subthreads",
    "jobs",
    "quanta",
    "wal_segments_sealed",
    "fsyncs",
    // Elision rows: appends regressing means the proofs stopped biting;
    // the elided counts themselves are deterministic too.
    "wal_appends",
    "wal_records_elided",
    "checkpoints_elided",
    // Scaling rows: the domain fan-out is a pure function of the shard
    // plan, so a shrinking partition is a planner regression.
    "domains",
];

/// Identical runs reproduce `fsyncs` only to within this many: a durable
/// checkpoint (one fsync) is due every N retirements but taken at the end
/// of the retirement *batch* that crosses the mark, and batch boundaries
/// depend on worker timing — so the marks drift by an entry and a run can
/// end with one checkpoint more or fewer.
const FSYNCS_SLACK: f64 = 1.0;

/// Rows whose counters depend on wall-clock injection timing; never gated.
const UNGATED_ROWS: &[&str] = &["recovery/w4"];

fn gate_failures(rows: &[PerfRow], baseline: &[(String, f64)], pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        if UNGATED_ROWS.contains(&row.key.as_str()) {
            continue;
        }
        for (name, v) in &row.metrics {
            if !GATED_METRICS.contains(name) {
                continue;
            }
            let bkey = format!("{}.{}", row.key, name);
            let Some((_, base)) = baseline.iter().find(|(k, _)| *k == bkey) else {
                continue;
            };
            if *base <= 0.0 {
                continue;
            }
            let slack = if *name == "fsyncs" { FSYNCS_SLACK } else { 0.0 };
            if *v > base * (1.0 + pct / 100.0) + slack {
                failures.push(format!(
                    "{bkey}: {v} regressed more than {pct}% over baseline {base}"
                ));
            }
        }
    }
    failures
}

// ---------------------------------------------------------------------------
// Output

fn write_json(
    path: &std::path::Path,
    quick: bool,
    goldens: &[Golden],
    drift: &[String],
    rows: &[PerfRow],
) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("suite", "perfsuite");
    w.key("quick").bool(quick);
    w.key("determinism").begin_object();
    w.field_u64("checked", goldens.len() as u64);
    w.field_u64("drift", drift.len() as u64);
    w.key("hashes").begin_object();
    for g in goldens {
        w.key(&g.key).begin_object();
        w.field_hex("schedule_hash", g.schedule);
        w.field_hex("retired_hash", g.retired);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.key("perf").begin_object();
    for row in rows {
        w.key(&row.key).begin_object();
        for (name, v) in &row.metrics {
            w.key(name).f64(*v);
        }
        w.end_object();
    }
    w.end_object();
    w.end_object();
    std::fs::write(path, w.finish()).expect("write BENCH_perf.json");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let bless = args.iter().any(|a| a == "--bless");
    let bless_baseline = bless || args.iter().any(|a| a == "--bless-baseline");
    let gate: Option<f64> = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--gate <pct>"));
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json")
        });

    println!(
        "perfsuite ({}{})",
        if quick { "quick" } else { "full" },
        if bless { ", blessing goldens" } else { "" }
    );

    println!("\n== determinism goldens (fixed parameters) ==");
    let mut goldens = Vec::new();
    determinism(&mut goldens);

    let dir = goldens_dir();
    let golden_path = dir.join("determinism.txt");
    let mut drift: Vec<String> = Vec::new();
    if bless {
        std::fs::create_dir_all(&dir).expect("create goldens dir");
        std::fs::write(&golden_path, render_goldens(&goldens)).expect("write goldens");
        println!("blessed {} hashes -> {}", goldens.len(), golden_path.display());
    } else {
        match std::fs::read_to_string(&golden_path) {
            Ok(text) => {
                let committed = parse_goldens(&text);
                for g in &goldens {
                    match committed.iter().find(|c| c.key == g.key) {
                        None => drift.push(format!("{}: no committed golden", g.key)),
                        Some(c) if c != g => drift.push(format!(
                            "{}: schedule {:#x} vs golden {:#x}, retired {:#x} vs golden {:#x}",
                            g.key, g.schedule, c.schedule, g.retired, c.retired
                        )),
                        Some(_) => {}
                    }
                }
                if drift.is_empty() {
                    println!("all {} determinism hashes match the goldens", goldens.len());
                }
            }
            Err(_) => {
                println!(
                    "no goldens at {} — run with --bless to record them",
                    golden_path.display()
                );
            }
        }
    }
    for d in &drift {
        eprintln!("DETERMINISM DRIFT: {d}");
    }

    println!("\n== perf ==");
    let rows = perf(quick);

    // Quick mode shrinks the workloads, so its counts live in their own
    // baseline file — gating quick runs against the full baseline would
    // always trip.
    let baseline_path = dir.join(if quick {
        "baseline_perf_quick.txt"
    } else {
        "baseline_perf.txt"
    });
    let baseline = if bless_baseline {
        std::fs::write(&baseline_path, render_baseline(&rows)).expect("write baseline");
        println!("blessed baseline -> {}", baseline_path.display());
        Vec::new()
    } else {
        std::fs::read_to_string(&baseline_path)
            .map(|t| parse_baseline(&t))
            .unwrap_or_default()
    };

    let mut table = Vec::new();
    for row in &rows {
        let get = |n: &str| row.metrics.iter().find(|(m, _)| *m == n).map(|(_, v)| *v);
        table.push(vec![
            row.key.clone(),
            get("grants").map_or("-".into(), |v| format!("{v:.0}")),
            get("fast_path_share").map_or("-".into(), |v| format!("{:.1}%", v * 100.0)),
        ]);
    }
    print_table("perfsuite", &["path", "grants", "fast-path"], &table);

    write_json(&out, quick, &goldens, &drift, &rows);
    println!("\nwrote {}", out.display());

    if !drift.is_empty() {
        eprintln!("{} determinism hash(es) drifted from the goldens", drift.len());
        std::process::exit(1);
    }

    if let Some(pct) = gate {
        if baseline.is_empty() {
            println!(
                "--gate {pct}: no baseline at {} — bless one first (--bless-baseline)",
                baseline_path.display()
            );
        } else {
            let failures = gate_failures(&rows, &baseline, pct);
            for f in &failures {
                eprintln!("PERF GATE: {f}");
            }
            if !failures.is_empty() {
                eprintln!("{} metric(s) regressed past the {pct}% gate", failures.len());
                std::process::exit(2);
            }
            println!("perf gate ({pct}%): all gated metrics within bounds");
        }
    }
}
