//! The seven workloads and the measurement loop they share.
//!
//! A workload builds its inputs from the seed, is set up (and warmed up)
//! a few times so set-up time has a median, runs timed samples until the
//! budget is spent, and checks every output — after the clock has stopped.

pub mod beacon;
pub mod chain;
pub mod durable;
pub mod pipeline;
pub mod serve;
pub mod sim;

use crate::place::{self, Pinned};
use crate::stats::{self, Best};
use crate::trace::Layers;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Input sizes of every workload. `full` gives samples of 23–70 ms on the
/// 2-CPU box the harness was sized on — short, so that a 15 s run holds
/// hundreds of them and some fall between a neighbour's bursts (see
/// `stats`). `smoke` keeps each whole workload under 0.2 s in a debug build
/// so `cargo test` can run the oracles.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub chain_rounds: u32,
    pub faults_rounds: u32,
    pub corpus_bytes: usize,
    pub durable_rounds: u32,
    pub beacon_rounds: u32,
    /// Jobs in one `serve-mix` sample: enough for its p99 to have ten
    /// jobs beyond it.
    pub serve_jobs: usize,
    pub sim_scale: f64,
    /// Iterations of each isolated layer probe.
    pub probe_iters: u64,
}

impl Sizes {
    pub const fn full() -> Sizes {
        Sizes {
            chain_rounds: 6_000,
            faults_rounds: 2_000,
            corpus_bytes: 2 << 20,
            durable_rounds: 2_640,
            beacon_rounds: 20_000,
            serve_jobs: 1_024,
            sim_scale: 0.03,
            probe_iters: 1_000_000,
        }
    }

    pub const fn smoke() -> Sizes {
        Sizes {
            chain_rounds: 200,
            faults_rounds: 200,
            corpus_bytes: 64 << 10,
            durable_rounds: 40,
            beacon_rounds: 300,
            serve_jobs: 64,
            sim_scale: 0.004,
            probe_iters: 2_000,
        }
    }
}

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Shapes corpora, job-spec seeds, fault victims and the sim injector.
    pub seed: u64,
    /// Timed budget of one workload, seconds.
    pub seconds: f64,
    pub sizes: Sizes,
    /// Compare against deliberately wrong goldens (shows the oracle bites).
    pub corrupt_oracle: bool,
}

impl Ctx {
    /// A golden hash as the oracle should see it.
    pub fn golden(&self, hash: u64) -> u64 {
        hash ^ u64::from(self.corrupt_oracle)
    }
}

/// splitmix64 — the harness's only source of seed-derived variation.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Operations attempted and failed, with one line per failure naming the
/// workload and the sample. A check is only ever handed finished results:
/// timing code never sits inside one.
#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Oracle {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Counts a `Result` as one operation and hands back its value.
    pub fn ok<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One timed sample: the wall seconds of `run()`, the sub-threads it
/// retired and the jobs it completed (a workload whose job is a whole run
/// completes one).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub wall_s: f64,
    pub retired: u64,
    pub jobs: u64,
    /// `serve-mix` only: submit → outcome over the socket, per job, ms.
    pub job_latency_ms: Vec<f64>,
}

impl Sample {
    /// A run of one job that retired what `report` says (nothing, if the
    /// run failed and the oracle already counted it).
    pub fn of_run(wall_s: f64, retired: Option<u64>) -> Sample {
        Sample {
            wall_s,
            retired: retired.unwrap_or(0),
            jobs: 1,
            job_latency_ms: Vec::new(),
        }
    }
}

/// Everything the untraced measurement of one workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub placement: String,
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    /// `serve-mix` only: submit → outcome over the socket, every job of
    /// every timed sample, milliseconds.
    pub job_latency_ms: Vec<f64>,
    /// `serve-mix` only: each timed sample's median and tail latency.
    pub job_p50_ms: Vec<f64>,
    pub job_p99_ms: Vec<f64>,
    pub own: OwnPaths,
    pub peak_rss_mb: f64,
}

/// The end-to-end paths only one workload has, one entry per timed cycle.
#[derive(Debug, Default)]
pub struct OwnPaths {
    /// `durable`: crash → resumed report.
    pub resume_s: Vec<f64>,
    /// `pipeline`: tape → verified replay.
    pub replay_verify_s: Vec<f64>,
}

impl Measured {
    pub fn walls(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.wall_s).collect()
    }

    /// Sub-threads retired per second, sample by sample.
    pub fn goodput(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.retired as f64 / s.wall_s)
            .collect()
    }

    /// Sub-threads the first sample retired.
    #[cfg(test)]
    pub fn retired(&self) -> u64 {
        self.samples.first().map_or(0, |s| s.retired)
    }

    /// How many samples confirm the best sub-threads/s one, of how many
    /// (see [`stats::support`]): printed, so that a thinly confirmed
    /// number can be told from a well confirmed one.
    pub fn support(&self) -> (usize, usize) {
        let goodput = self.goodput();
        (stats::support(&goodput, Best::Highest), goodput.len())
    }
}

/// One of the seven workloads.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The share of the timed budget that goes to cycles of the end-to-end
    /// paths the workload has beyond `run()`: none, if it has none.
    const CYCLE_SHARE: f64 = 0.0;

    /// Input generation, build, pool/server start and a warm-up run. Timed
    /// as `setup_s`.
    fn setup(ctx: &Ctx) -> Self;

    /// Untimed: the golden twins the oracle compares against.
    fn reference(&mut self, ctx: &Ctx, oracle: &mut Oracle);

    /// One timed sample. Builds outside the clock, times `run()` alone and
    /// checks the report after the clock has stopped.
    fn sample(&mut self, ix: usize, oracle: &mut Oracle) -> Sample;

    /// One timed cycle of the workload's own paths: files each path's
    /// seconds in `own` and returns their sum.
    fn cycle(&mut self, _ix: usize, _oracle: &mut Oracle, _own: &mut OwnPaths) -> f64 {
        unreachable!("only called on workloads that declare a CYCLE_SHARE")
    }

    /// The traced run: decorated samples, differentials and probes. `pin`
    /// is the one-CPU pin in force, for the differentials that lift it.
    fn trace(&mut self, ctx: &Ctx, pin: &Pinned, oracle: &mut Oracle, layers: &mut Layers);

    /// Stops whatever `setup` started.
    fn teardown(self) {}
}

/// Set-ups before the first sample; further ones are spread over the run
/// (a neighbour's burst can cover any one second of it) until
/// [`SETUP_SECONDS`] are spent.
pub const SETUPS: usize = 3;
pub const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed samples, and fewest cycles of an own path, whatever the
/// budget.
pub const MIN_SAMPLES: usize = 3;

/// Every workload runs on one CPU: the harness thread is pinned before
/// anything is built and the engine's workers, the server and the pool
/// inherit its mask. Where the kernel puts a run's threads is otherwise a
/// mode of its own (see the README's findings); what the second CPU buys
/// is measured in the traced run, ungated.
pub fn place() -> Result<Pinned, String> {
    Pinned::one_cpu().map_err(|e| format!("pinning unavailable: {e}"))
}

fn setup_timed<W: Workload>(ctx: &Ctx, setup_s: &mut Vec<f64>) -> W {
    let t0 = Instant::now();
    let w = W::setup(ctx);
    setup_s.push(t0.elapsed().as_secs_f64());
    w
}

/// The untraced measurement: every end-to-end number comes from here.
/// Samples, own-path cycles and further set-ups are interleaved, each kept
/// at its share of the budget, so all three see the same stretch of time:
/// a neighbour's busy spell can cover any few seconds of it, and the best
/// sample of a series must come from outside one.
pub fn measure<W: Workload>(ctx: &Ctx, oracle: &mut Oracle) -> Result<Measured, String> {
    let pin = place()?;
    let mut m = Measured {
        placement: pin.to_string(),
        ..Measured::default()
    };
    for _ in 1..SETUPS {
        W::teardown(setup_timed::<W>(ctx, &mut m.setup_s));
    }
    let mut w: W = setup_timed(ctx, &mut m.setup_s);
    w.reference(ctx, oracle);

    let sample_budget = ctx.seconds * (1.0 - W::CYCLE_SHARE);
    let (mut sample_s, mut cycle_s, mut cycles) = (0.0, 0.0, 0);
    while sample_s < sample_budget || m.samples.len() < MIN_SAMPLES {
        let mut s = w.sample(m.samples.len(), oracle);
        sample_s += s.wall_s;
        if !s.job_latency_ms.is_empty() {
            m.job_p50_ms.push(stats::percentile(&s.job_latency_ms, 0.5));
            m.job_p99_ms.push(stats::tail(&s.job_latency_ms));
            m.job_latency_ms.append(&mut s.job_latency_ms);
        }
        m.samples.push(s);
        if m.samples.len() == 1 {
            // Set-up, the twins and one run: later set-ups overlap the
            // live workload and the allocator keeps what earlier samples
            // freed, so a later peak says how the run went, not what the
            // workload needs.
            m.peak_rss_mb = place::peak_rss_mb().ok_or("VmHWM unreadable in /proc/self/status")?;
        }
        // How far through the run we are, as a share of it.
        let done = if sample_budget > 0.0 {
            (sample_s / sample_budget).min(1.0)
        } else {
            1.0
        };
        while W::CYCLE_SHARE > 0.0
            && (cycle_s < ctx.seconds * W::CYCLE_SHARE * done
                || cycles < m.samples.len().min(MIN_SAMPLES))
        {
            cycle_s += w.cycle(cycles, oracle, &mut m.own);
            cycles += 1;
        }
        if m.setup_s.iter().sum::<f64>() < SETUP_SECONDS.min(ctx.seconds) * done {
            W::teardown(setup_timed::<W>(ctx, &mut m.setup_s));
        }
    }
    w.teardown();
    Ok(m)
}

/// The traced run of one workload: per-layer numbers only.
pub fn trace<W: Workload>(ctx: &Ctx, oracle: &mut Oracle) -> Result<Layers, String> {
    let pin = place()?;
    let mut w = W::setup(ctx);
    w.reference(ctx, oracle);
    let mut layers = Layers::new(W::NAME);
    w.trace(ctx, &pin, oracle, &mut layers);
    w.teardown();
    Ok(layers)
}

/// One timed call, with the process accounting of exactly that call.
#[derive(Debug)]
pub struct Timed<T> {
    pub out: T,
    pub wall_s: f64,
    pub used: place::Usage,
}

impl<T> Timed<T> {
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed {
            out: f(self.out),
            wall_s: self.wall_s,
            used: self.used,
        }
    }
}

pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let before = place::Usage::now();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    Timed {
        out,
        wall_s,
        used: place::Usage::now().since(before),
    }
}

/// One timed sample of a workload whose job is a whole run: `run` alone is
/// on the clock, `check` sees the report after it has stopped.
pub fn run_sample(
    what: &str,
    oracle: &mut Oracle,
    run: impl FnOnce() -> Result<gprs_runtime::report::RunReport, gprs_runtime::report::RunError>,
    check: impl FnOnce(&mut Oracle, &gprs_runtime::report::RunReport),
) -> Sample {
    let t = timed(run);
    let report = oracle.ok(t.out, what);
    if let Some(r) = &report {
        check(oracle, r);
    }
    Sample::of_run(t.wall_s, report.map(|r| r.telemetry.retired_count))
}

/// The fastest of `n` timed calls: the traced run's best sample.
pub fn fastest<T>(n: usize, mut f: impl FnMut() -> Timed<T>) -> Timed<T> {
    let mut best = f();
    for _ in 1..n {
        let next = f();
        if next.wall_s < best.wall_s {
            best = next;
        }
    }
    best
}

/// What the program decorator and the `runtime.build` spans saw.
pub fn program_metrics(layers: &mut Layers, probe: &crate::trace::ProgramProbe) {
    layers.set("program.step_ns", probe.step.mean_ns());
    layers.set("program.checkpoint_ns", probe.checkpoint.mean_ns());
    layers.set("program.restore_ns", probe.restore.mean_ns());
    let build_us = layers.tracer.mean_us("runtime.build");
    layers.set("runtime.build_ms", build_us / 1e3);
}

/// The `RunReport` counters an engine change is most likely to move.
pub fn engine_counters(layers: &mut Layers, r: &gprs_runtime::report::RunReport) {
    let t = &r.telemetry;
    let grants = t.counter("grants").max(1) as f64;
    layers.set(
        "runtime.engine.fast_path_share",
        t.counter("fast_path_grants") as f64 / grants,
    );
    layers.set(
        "runtime.engine.wakeups_issued",
        t.counter("wakeups_issued") as f64,
    );
    layers.set(
        "runtime.engine.wakeups_spurious",
        t.counter("wakeups_spurious") as f64,
    );
    layers.set(
        "runtime.engine.retire_batch_mean",
        t.histogram("retire_batch").map_or(0.0, |h| h.mean()),
    );
    layers.set("runtime.engine.polls", r.stats.polls as f64);
    layers.set(
        "runtime.engine.hot_path_allocs",
        t.counter("hot_path_allocs") as f64,
    );
    layers.set(
        "runtime.engine.rol_occupancy_hw",
        t.counter("rol_occupancy_hw") as f64,
    );
    layers.set(
        "runtime.engine.wal_outstanding_hw",
        t.counter("wal_outstanding_hw") as f64,
    );
}

/// Process CPU and context switches of one run, per unit of its work.
pub fn proc_metrics(layers: &mut Layers, used: place::Usage, retired: u64, grants: u64) {
    layers.set(
        "proc.cpu_us_per_subthread",
        used.cpu_s * 1e6 / retired.max(1) as f64,
    );
    layers.set(
        "proc.ctx_switches_per_kgrant",
        used.ctx_switches as f64 * 1e3 / grants.max(1) as f64,
    );
}

/// What lifting the pin does to a run: the unpinned walls over the pinned
/// one. A median with its range, and ungated: where the kernel puts the
/// workers differs from run to run.
pub fn xcpu_ratio(layers: &mut Layers, unpinned_s: &[f64], pinned_s: f64) {
    let s = stats::summarize(unpinned_s);
    layers.set("runtime.engine.xcpu_handoff_ratio", s.median / pinned_s);
    layers.note(format!(
        "unpinned ÷ pinned wall: median {:.2}, range {:.2}–{:.2} over {} unpinned runs",
        s.median / pinned_s,
        s.min / pinned_s,
        s.max / pinned_s,
        s.n
    ));
}

/// Whether a run was busy for its whole wall: process CPU time no more
/// than 5 % short of it. Only then is "wall − program − persist" engine
/// *work* rather than waiting nobody saw. One-sided: on one CPU the CPU
/// time cannot exceed the wall, except by what the kernel burns inside the
/// `fsync`s a durable run's wall was already reduced by.
pub fn busy_for_its_wall(cpu_s: f64, wall_s: f64) -> bool {
    cpu_s >= 0.95 * wall_s
}

/// Splits a one-CPU run's wall into program, persist and engine-self
/// shares (they sum to 1 by construction) and derives the engine's self
/// time per grant.
pub fn attribute(layers: &mut Layers, wall_s: f64, program_s: f64, persist_s: f64, grants: u64) {
    let engine_s = wall_s - program_s - persist_s;
    layers.set(
        "runtime.engine.self_ns_per_grant",
        engine_s * 1e9 / grants.max(1) as f64,
    );
    layers.note(format!(
        "wall {:.4} s = program {:.3} + persist {:.3} + engine self {:.3} (shares sum to 1)",
        wall_s,
        program_s / wall_s,
        persist_s / wall_s,
        engine_s / wall_s
    ));
}

/// Notes whether the untraced runs were busy for their whole wall (less
/// what they provably spent blocked in `fsync`).
pub fn idle_check(layers: &mut Layers, cpu_s: f64, on_cpu_wall_s: f64) {
    layers.note(format!(
        "idle check: process cpu {:.3} s over {:.3} s of wall not spent in fsync, ratio {:.3} — {}",
        cpu_s,
        on_cpu_wall_s,
        cpu_s / on_cpu_wall_s,
        if busy_for_its_wall(cpu_s, on_cpu_wall_s) {
            "busy, so the engine remainder is work"
        } else {
            "MORE THAN 5 % SHORT: the engine remainder includes unseen waiting"
        }
    ));
}

/// A fresh directory for durable images and tapes, next to the executable
/// (inside the build directory, so inside the checkout and ignored by git).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let exe = std::env::current_exe().expect("the running executable has a path");
    let dir = exe
        .parent()
        .expect("an executable lives in a directory")
        .join("gprsbench-scratch")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_failures_against_attempts() {
        let mut o = Oracle::default();
        o.check(true, || unreachable!());
        o.check(false, || {
            "chain sample 3: retired hash 0x1 != golden 0x2".into()
        });
        assert_eq!(o.ok(Err::<(), _>("boom"), "durable cycle 0"), None);
        assert_eq!(o.ok(Ok::<_, String>(7), "x"), Some(7));
        assert_eq!((o.attempted, o.failed), (4, 2));
        assert_eq!(o.failed_share(), 0.5);
        assert!(o.notes[1].contains("durable cycle 0: boom"));
    }

    #[test]
    fn idle_check_allows_five_percent() {
        assert!(busy_for_its_wall(0.96, 1.0));
        assert!(
            busy_for_its_wall(1.04, 1.0),
            "fsync's kernel work is busy time too"
        );
        assert!(
            !busy_for_its_wall(0.90, 1.0),
            "a tenth of the wall was spent waiting unseen"
        );
    }

    #[test]
    fn a_corrupted_oracle_sees_wrong_goldens() {
        let mut ctx = Ctx {
            seed: 1,
            seconds: 0.0,
            sizes: Sizes::smoke(),
            corrupt_oracle: false,
        };
        assert_eq!(ctx.golden(0xABCD), 0xABCD);
        ctx.corrupt_oracle = true;
        assert_ne!(ctx.golden(0xABCD), 0xABCD);
    }
}
