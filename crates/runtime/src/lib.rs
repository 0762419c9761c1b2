//! **gprs-runtime** — a globally precise-restartable execution runtime for
//! parallel programs, reproducing Gupta, Sridharan & Sohi (PLDI 2014).
//!
//! The runtime executes suitably-written parallel programs (see
//! [`program::ThreadProgram`]) deterministically and recovers from
//! *discretionary exceptions* — soft faults, voltage emergencies,
//! approximation errors, resource revocations — with **selective restart**:
//! only the excepting sub-thread and the sub-threads that could have
//! consumed its data are squashed and re-executed; everything else keeps
//! running. The architecture follows the paper's Figure 4:
//!
//! * **DEX** (deterministic execution engine): intercepts every
//!   synchronization operation, divides threads into ordered sub-threads,
//!   checkpoints their state into their reorder-list entries, and logs its
//!   own structure mutations to a write-ahead log.
//! * **REX** (restart engine): retires sub-threads from the
//!   reorder-list head and executes recovery plans.
//! * A **load-balancing scheduler**: a pool of OS
//!   workers that actively seek granted sub-threads.
//! * **Services**: a logged pool allocator and recoverable, output-commit-
//!   delayed file I/O ([`ctx::StepCtx`]).
//! * A **coordinated-CPR baseline executor** ([`cpr`]) running the same
//!   programs with conventional checkpoint-and-recovery, for comparison.
//!
//! # Quickstart
//!
//! ```
//! use gprs_runtime::prelude::*;
//!
//! // Two threads increment a shared counter under a mutex, twice each.
//! struct Worker { mutex: MutexHandle<u64>, rounds: u32, done: u32 }
//! impl Checkpoint for Worker {
//!     type Snapshot = u32;
//!     fn checkpoint(&self) -> u32 { self.done }
//!     fn restore(&mut self, s: &u32) { self.done = *s; }
//! }
//! impl ThreadProgram for Worker {
//!     fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
//!         if self.done > 0 {
//!             // We hold the mutex: this step is the critical section.
//!             ctx.with_lock(&self.mutex, |n| *n += 1);
//!         }
//!         if self.done == self.rounds {
//!             return Step::exit_unit();
//!         }
//!         self.done += 1;
//!         self.mutex.lock()
//!     }
//! }
//!
//! let mut b = GprsBuilder::new().workers(2);
//! let counter = b.mutex(0u64);
//! for _ in 0..2 {
//!     b.thread(Worker { mutex: counter, rounds: 2, done: 0 },
//!              GroupId::new(0), 1);
//! }
//! let gprs = b.build();
//! let report = gprs.run().unwrap();
//! assert_eq!(report.stats.locks_acquired, 4);
//! ```

#![warn(missing_docs)]

pub mod cpr;
pub mod ctx;
pub(crate) mod engine;
pub mod handles;
pub(crate) mod ops;
pub mod program;
mod registry;
pub mod report;
pub(crate) mod rex;
pub mod session;
pub(crate) mod shard;

pub use crate::registry::Registry;
pub use crate::shard::ShardedGprs;

use crate::engine::{Inner, RunConfig, Shared, SharedRef};
use crate::report::{RunError, RunReport};
use gprs_core::chaos::ChaosCursor;
use gprs_core::exception::ExceptionKind;
use gprs_core::ledger::RunLedger;
use gprs_core::order::ScheduleKind;
use gprs_core::persist::{DurableImage, PersistBackend};
use gprs_core::roster::Roster;
use gprs_telemetry::TelemetryConfig;
use std::sync::Arc;

pub use gprs_core::recovery::RecoveryPolicy;

/// Configures and assembles a GPRS runtime. It dereferences to the
/// [`Registry`] the program's threads and resources are registered on.
#[derive(Default)]
pub struct GprsBuilder {
    analyze: bool,
    elide: bool,
    model: Option<gprs_core::workload::Workload>,
    durable_spec: Option<String>,
    resume_prefix: Vec<(u32, u8, u64)>,
    shard_plan_json: Option<String>,
    record_path: Option<std::path::PathBuf>,
    record_meta: Option<(String, u64)>,
    record_spec: Option<String>,
    chaos_text: Option<String>,
    replay_rec: Option<Arc<gprs_core::recording::Recording>>,
    /// The configuration the setters below edit in place.
    cfg: RunConfig,
    chaos: Option<ChaosCursor>,
    /// What the program registered; `finish` constructs the engine that
    /// owns it, once the configuration is final.
    reg: Registry,
}

impl std::ops::Deref for GprsBuilder {
    type Target = Registry;
    fn deref(&self) -> &Registry {
        &self.reg
    }
}

impl std::ops::DerefMut for GprsBuilder {
    fn deref_mut(&mut self) -> &mut Registry {
        &mut self.reg
    }
}

impl std::fmt::Debug for GprsBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GprsBuilder {{ cfg: {:?}, .. }}", self.cfg)
    }
}

impl GprsBuilder {
    /// A builder with the paper's defaults: balance-aware (basic) ordering,
    /// selective restart, 4 workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of OS workers (hardware contexts).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n.max(1);
        self
    }

    /// The deterministic ordering schedule.
    pub fn schedule(mut self, kind: ScheduleKind) -> Self {
        self.cfg.schedule = kind;
        self
    }

    /// The recovery policy.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.cfg.recovery = policy;
        self
    }

    /// Stamps the run with a stable job identity and monotonic submission
    /// sequence number, reported back in
    /// [`RunReport::job_id`](crate::report::RunReport) /
    /// [`RunReport::submit_seq`](crate::report::RunReport). Solo runs leave
    /// both at 0; a serving layer assigns them at admission so streamed
    /// reports can be matched to their submissions.
    pub fn job(mut self, id: u64, seq: u64) -> Self {
        self.cfg.job_id = id;
        self.cfg.submit_seq = seq;
        self
    }

    /// Full telemetry configuration (event rings, metrics).
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.cfg.telemetry = cfg;
        self
    }

    /// Enables happens-before data-race detection over the retired order
    /// (see [`gprs_core::racecheck`]). Races are counted in
    /// [`RunStats::races`](crate::report::RunStats), the first one is
    /// reported in [`RunReport::first_race`](crate::report::RunReport), and
    /// a selective restart whose culprit's thread raced escalates to a
    /// basic restart (the race broke the dependence-closure assumption).
    pub fn racecheck(mut self, on: bool) -> Self {
        self.cfg.racecheck = on;
        self
    }

    /// Runs the static analyzer (`gprs-analyze`) over the attached
    /// [`model`](Self::model) when the runtime is built. A proven-DRF
    /// verdict elides the dynamic race detector; a potential-race verdict
    /// arms it regardless of [`racecheck`](Self::racecheck). Without an
    /// attached model this is a no-op — the runtime executes arbitrary
    /// closures, so the analysis needs the program's trace-level
    /// description.
    pub fn analyze(mut self, on: bool) -> Self {
        self.analyze = on;
        self
    }

    /// Uses the static restartability proofs over the attached
    /// [`model`](Self::model) to elide WAL undo records for proven dead
    /// stores: plain cells the model writes but never observes (no plain
    /// read, no read-modify-write anywhere). A squash can leave such a cell
    /// stale without any execution noticing, and deterministic re-execution
    /// overwrites it, so `PlainStore` undo records for those cells are
    /// skipped and counted in the `wal_records_elided` metric instead.
    /// Implies [`analyze`](Self::analyze); the proofs are only trusted when
    /// the analysis verdict is race-free, and without an attached model
    /// this is a no-op.
    pub fn elide(mut self, on: bool) -> Self {
        self.elide = on;
        self
    }

    /// Attaches the trace-level model of the program for ahead-of-run
    /// analysis (see [`analyze`](Self::analyze)). The model is the
    /// `gprs_core::workload::Workload` describing the same synchronization
    /// structure the registered thread programs perform.
    pub fn model(mut self, w: gprs_core::workload::Workload) -> Self {
        self.model = Some(w);
        self
    }

    /// Attaches a committed shard-plan artifact (the JSON text produced by
    /// `gprs_analyze::ShardPlan::to_json`) for [`build_sharded`]
    /// (Self::build_sharded). The artifact is re-validated against the
    /// attached [`model`](Self::model) at build time; a stale or mismatched
    /// plan fails the run loudly with a `stale shard plan` diagnostic
    /// instead of silently re-deriving domains. Without an artifact the
    /// plan is computed fresh from the model.
    pub fn shard_plan_artifact(mut self, json: impl Into<String>) -> Self {
        self.shard_plan_json = Some(json.into());
        self
    }

    /// Attaches a durable persistence backend (see
    /// [`gprs_core::persist`]): the job's spec, its retirement order and a
    /// checkpoint anchor every [`RunLedger::CKPT_EVERY`] retirements (one
    /// group-commit fsync each) are logged through it, so a run killed
    /// mid-flight can restart in a fresh process and recover. Without a
    /// backend (the default) nothing changes — every durable hook is
    /// behind one branch, keeping the volatile hot paths intact.
    pub fn durable(mut self, backend: Arc<dyn PersistBackend>) -> Self {
        self.cfg.persist = Some(backend);
        self
    }

    /// The opaque spec text recorded as the durable epoch marker — what
    /// a restarted process needs to rebuild this job (e.g. the serve
    /// submit line). Recorded at [`build`](Self::build) when a
    /// [`durable`](Self::durable) backend is attached.
    pub fn durable_spec(mut self, text: impl Into<String>) -> Self {
        self.durable_spec = Some(text.into());
        self
    }

    /// Resumes (restart-as-recovery) against a loaded [`DurableImage`]:
    /// the run re-executes deterministically from the beginning and every
    /// retirement in the image's durable prefix is verified — `(thread,
    /// kind, running digest)` at each index — poisoning the run on any
    /// divergence instead of silently drifting from the pre-crash
    /// execution. The verified length is reported as the
    /// `recovered_prefix_len` counter.
    pub fn resume(mut self, image: &DurableImage) -> Self {
        self.resume_prefix = image
            .retires
            .iter()
            .map(|r| (r.thread, r.kind, r.digest))
            .collect();
        self
    }

    /// Attaches a deterministic chaos-injection plan (see
    /// [`gprs_core::chaos::ChaosPlan`]). Grant-keyed events fire under the
    /// engine lock right after the matching grant; recovery-keyed events
    /// fire while the matching recovery pass is still in flight,
    /// exercising overlapping DEX→REX recovery. An empty plan is a no-op.
    pub fn chaos(mut self, plan: &gprs_core::chaos::ChaosPlan) -> Self {
        self.chaos = (!plan.is_empty()).then(|| ChaosCursor::new(plan));
        // Keep the plan's canonical text so an armed recorder can stamp the
        // injection overlay into its header (replay must re-arm the same
        // faults to reproduce the schedule).
        self.chaos_text = (!plan.is_empty()).then(|| plan.to_text());
        self
    }

    /// Records the run's complete grant schedule — every turn-consuming
    /// event in deterministic total order, with a running digest — into a
    /// recording file written at report collection (even when the run
    /// poisons). The recording replays through
    /// [`replay`](Self::replay) or the `gprs-replay` CLI. Recording adds
    /// one branch per grant; a recording is written for poisoned runs too
    /// (that is the time-travel-debugging point).
    pub fn record(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.record_path = Some(path.into());
        self
    }

    /// Stamps the recording header with the registered workload's name and
    /// the seed that parameterized it, so `gprs-replay` can rebuild the
    /// program from the recording alone. Without this the header carries
    /// `custom`/0 and the CLI refuses to rebuild.
    pub fn record_meta(mut self, workload: impl Into<String>, seed: u64) -> Self {
        self.record_meta = Some((workload.into(), seed));
        self
    }

    /// Attaches an opaque spec line (e.g. the serve submit line) to the
    /// recording header, mirroring [`durable_spec`](Self::durable_spec).
    pub fn record_spec(mut self, text: impl Into<String>) -> Self {
        self.record_spec = Some(text.into());
        self
    }

    /// Drives this run under the recorded schedule instead of a live
    /// ordering policy: the token follows the recording's grant order
    /// exactly, every turn-consuming event is verified against the tape,
    /// and the first divergence poisons the run with a named
    /// `replay divergence` message. The caller must rebuild the same
    /// program (workload, seed, chaos plan) the recording was captured
    /// from — `gprs-replay` does this from the header.
    pub fn replay(mut self, rec: Arc<gprs_core::recording::Recording>) -> Self {
        self.replay_rec = Some(rec);
        self
    }

    /// Finalizes the configuration.
    pub fn build(mut self) -> Gprs {
        let model = self.model.take();
        let analysis = self.verdict(model.as_ref());
        Gprs {
            shared: Arc::new(Shared::new(self.finish(analysis.as_ref()))),
            analysis,
        }
    }

    /// Finalizes the configuration into a sharded runtime: one engine —
    /// one `OrderGate`, reorder list, WAL and checkpoint store — per domain
    /// of the shard plan, with cross-domain channel and barrier edges
    /// rendezvousing through a lock-free hub. The plan comes from an
    /// attached [`shard_plan_artifact`](Self::shard_plan_artifact) (re-
    /// validated against the model) or is derived fresh from the
    /// [`model`](Self::model)'s interference proof. A plan that collapses to
    /// one domain *is* [`build`](Self::build): same engine, same hashes,
    /// every feature `build` composes with.
    ///
    /// Multi-domain execution composes with analysis-driven WAL elision and
    /// the full telemetry stack, but not with features that assume one
    /// global retirement stream: durable persistence/resume, schedule
    /// record/replay and the dynamic race detector are rejected at build
    /// time (the error surfaces from [`ShardedGprs::run`]).
    pub fn build_sharded(mut self) -> ShardedGprs {
        let Some(model) = self.model.take() else {
            return ShardedGprs::failed(
                "sharded execution requires an attached model (GprsBuilder::model)".into(),
            );
        };
        // Resolve the shard plan: committed artifact (re-validated, loud
        // failure on staleness) or fresh derivation from the model.
        let plan = match self.shard_plan_json.take() {
            Some(text) => {
                let plan = match gprs_analyze::ShardPlan::from_json(&text) {
                    Ok(p) => p,
                    Err(e) => {
                        return ShardedGprs::failed(format!(
                            "stale shard plan for {:?}: unreadable artifact: {e}",
                            model.name
                        ))
                    }
                };
                if let Err(e) = plan.validate_against(&model) {
                    return ShardedGprs::failed(e);
                }
                plan
            }
            None => gprs_analyze::shard_plan(&model),
        };
        let exec = plan.coalesce_for_execution(&model);
        let resources = match shard::map_resources(self.reg.threads.len() as u32, &model, &exec) {
            Ok(r) => r,
            Err(e) => return ShardedGprs::failed(e),
        };
        if exec.domains.len() <= 1 {
            self.model = Some(model);
            let Gprs { shared, analysis } = self.build();
            return ShardedGprs {
                engines: vec![shared],
                hub: None,
                analysis,
                error: None,
            };
        }
        let analysis = self.verdict(Some(&model));
        if let Some(msg) = self.multi_domain_refusal() {
            return ShardedGprs::failed(msg.into());
        }
        shard::assemble(self.finish(analysis.as_ref()), &model, &exec, &resources, analysis)
    }

    /// Why this configuration cannot run as several order domains, if it
    /// cannot — every by-name sharded refusal, consulted once, after
    /// [`verdict`](Self::verdict) settled whether the race detector runs.
    fn multi_domain_refusal(&self) -> Option<&'static str> {
        if self.cfg.persist.is_some() {
            Some("sharded execution does not support durable persistence")
        } else if !self.resume_prefix.is_empty() {
            Some("sharded execution does not support durable resume")
        } else if self.record_path.is_some() || self.replay_rec.is_some() {
            Some(
                "sharded execution does not support schedule record/replay \
                 (per-domain gates have no single global grant order)",
            )
        } else if self.cfg.racecheck {
            Some(
                "sharded execution does not support the dynamic race detector \
                 (per-domain detectors cannot order cross-shard accesses)",
            )
        } else {
            None
        }
    }

    /// First half of finalisation — the ahead-of-run static analysis and
    /// what its verdict decides: whether the dynamic race detector runs and
    /// which WAL undo records are elided.
    fn verdict(
        &mut self,
        model: Option<&gprs_core::workload::Workload>,
    ) -> Option<gprs_analyze::AnalysisReport> {
        if !(self.analyze || self.elide) {
            return None;
        }
        let rep = gprs_analyze::analyze(model?);
        let cfg = &mut self.cfg;
        if self.analyze {
            cfg.racecheck = rep.racecheck(cfg.racecheck);
        }
        // WAL elision trusts the dead-store proof only under a race-free
        // verdict: a racy model means the trace-level summaries may not
        // describe the actual access pattern, so keep every undo record.
        if self.elide && rep.race_free() {
            cfg.elide_cells = Arc::new(rep.restart.dead_cells.iter().copied().collect());
        }
        Some(rep)
    }

    /// Second half of finalisation: constructs the run ledger (telemetry
    /// facade, race detector, record/replay, resume verification, the durable
    /// epoch) and the engine it observes, once, for the final configuration,
    /// and moves the registered program into the engine.
    fn finish(self, analysis: Option<&gprs_analyze::AnalysisReport>) -> Inner {
        use gprs_core::recording::{DriveMode, RecordingHeader};
        let mut ledger =
            RunLedger::new(&self.cfg.telemetry, self.cfg.workers, 0, self.cfg.racecheck);
        let record = self.record_path.map(|path| {
            let (workload, seed) = self.record_meta.unwrap_or_else(|| ("custom".into(), 0));
            let header = RecordingHeader {
                workload,
                seed,
                // Provisional: stamped for real when the drive mode is
                // known, at `Gprs::run` / `Gprs::into_session`.
                mode: DriveMode::Pool,
                schedule: self.cfg.schedule.tag().to_string(),
                workers: self.cfg.workers as u32,
                spec: self.record_spec,
                chaos: self.chaos_text,
            };
            (header, path)
        });
        // One run cannot both follow and produce a tape (the ledger refuses
        // that), and a replayed run must not mutate a durable epoch or
        // verify a resume prefix (both assume a live schedule): reject the
        // combinations loudly instead of guessing a precedence.
        let durable = self.cfg.persist.is_some() || !self.resume_prefix.is_empty();
        let refused = match (&record, &self.replay_rec) {
            (None, Some(_)) if durable => Some(
                "replay does not compose with durable persistence or resume \
                 (a replayed run must not rewrite the durable epoch)"
                    .to_string(),
            ),
            _ => ledger.arm_tape(record, self.replay_rec),
        };
        ledger.arm_resume(self.resume_prefix);
        let epoch = self.cfg.persist.clone().and_then(|backend| {
            ledger.open_epoch(backend, self.durable_spec.unwrap_or_default())
        });
        if let Some(rep) = analysis {
            rep.trace_verdict(ledger.telemetry(), ledger.racecheck());
        }
        let Registry { threads, res, barriers, files } = self.reg;
        let mut inner = Inner {
            res,
            roster: Roster::new(barriers),
            files,
            chaos: self.chaos,
            ..Inner::new(self.cfg, ledger)
        };
        for (program, group, weight) in threads {
            inner.add_thread(program, group, weight, None);
        }
        inner.poison_on(refused.or(epoch));
        inner
    }
}

/// A fully configured runtime, ready to run.
#[derive(Debug)]
pub struct Gprs {
    shared: SharedRef,
    /// Ahead-of-run analysis report, carried into the [`RunReport`].
    analysis: Option<gprs_analyze::AnalysisReport>,
}

impl Gprs {
    /// A controller for injecting exceptions while the program runs.
    pub fn controller(&self) -> Controller {
        Controller {
            shared: self.shared.clone(),
        }
    }

    /// Runs the program to completion on the configured worker pool,
    /// shepherding it through any injected exceptions.
    ///
    /// # Errors
    /// Returns [`RunError::Poisoned`] if a step panicked or the program
    /// deadlocked (ill-formed barrier participation or channel starvation).
    pub fn run(self) -> Result<RunReport, RunError> {
        let mut report = run_pools(std::slice::from_ref(&self.shared))?
            .pop()
            .expect("one report per engine");
        report.analysis = self.analysis;
        Ok(report)
    }

    /// Converts the runtime into a cooperative [`session::GprsSession`]
    /// driven in bounded quanta on the caller's thread instead of a
    /// dedicated worker pool — the entry point the `gprs-serve`
    /// multi-tenant scheduler multiplexes jobs through. The configured
    /// [`workers`](GprsBuilder::workers) count is ignored; a session always
    /// has exactly one driving context (determinism hashes are
    /// worker-count-independent, so reports still match pooled runs).
    pub fn into_session(self) -> session::GprsSession {
        stamp_mode(&self.shared, gprs_core::recording::DriveMode::Session);
        session::GprsSession {
            shared: self.shared,
            analysis: self.analysis,
            done: false,
            cancelled: false,
        }
    }
}

/// Stamps the recorder with the actual drive mode, and rejects a cross-mode
/// replay loudly: a pool recording replayed through a session (or vice
/// versa) would verify event-for-event yet reproduce none of the original
/// run's context interleaving, so the mismatch poisons before the first
/// grant instead of silently "succeeding".
fn stamp_mode(shared: &Shared, mode: gprs_core::recording::DriveMode) {
    let mut inner = shared.inner.lock();
    let reason = inner.ledger.set_mode(mode);
    inner.poison_on(reason);
}

/// The pool runner behind [`Gprs::run`] and [`ShardedGprs::run`]: spawns
/// every engine's workers, joins them all, and collects one report per
/// engine, in order (the first poisoned engine's diagnostic wins).
pub(crate) fn run_pools(engines: &[SharedRef]) -> Result<Vec<RunReport>, RunError> {
    // Once per run: a `sched_getaffinity` plus cgroup file reads. Not a
    // static either — the affinity mask can change between runs.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut joins = Vec::new();
    for (d, shared) in engines.iter().enumerate() {
        shared.waits.cpus.store(cpus, std::sync::atomic::Ordering::Relaxed);
        stamp_mode(shared, gprs_core::recording::DriveMode::Pool);
        for ix in 0..shared.waits.workers {
            let shared = shared.clone();
            joins.push(
                std::thread::Builder::new()
                    .name(format!("gprs-worker-{d}.{ix}"))
                    .spawn(move || crate::engine::worker_loop(&shared, ix))
                    .expect("spawn worker"),
            );
        }
    }
    for j in joins {
        j.join().expect("workers do not panic");
    }
    engines.iter().map(collect_report).collect()
}

/// Drains the engine's final state into a [`RunReport`] (its `analysis` is
/// the caller's to attach). Shared by [`run_pools`] (after the pools join)
/// and [`session::GprsSession::finish`] (after the driver observes
/// completion), so both execution modes report identically.
pub(crate) fn collect_report(shared: &SharedRef) -> Result<RunReport, RunError> {
    let mut inner = shared.inner.lock();
    // Seal BEFORE the poison early-return: a recording of a failed run is
    // the whole point of time-travel debugging, so the file must exist
    // exactly when the report does not.
    let inner = &mut *inner;
    let reason = inner
        .ledger
        .seal(inner.poisoned.as_deref(), inner.cancelled_note.as_deref());
    inner.poison_on(reason);
    if let Some(msg) = inner.poisoned.take() {
        return Err(RunError::Poisoned(msg));
    }
    let files = inner
        .files
        .iter()
        .map(|(&id, f)| (id, (f.name.clone(), f.committed.clone())))
        .collect();
    let telemetry = inner.ledger.summarize();
    let (races, first_race) = inner.ledger.races();
    inner.stats.races = races;
    Ok(RunReport {
        job_id: inner.cfg.job_id,
        submit_seq: inner.cfg.submit_seq,
        stats: inner.stats,
        // Before `outputs` takes the exit values it digests.
        cells_digest: report::state_digest(&inner.res),
        outputs: inner.res.take_exits(),
        files,
        telemetry,
        first_race,
        analysis: None,
        shards: Vec::new(),
    })
}

/// Injects discretionary exceptions into a running program — the paper's
/// signal thread (`§4`, "System Assumptions").
#[derive(Debug, Clone)]
pub struct Controller {
    shared: SharedRef,
}

impl Controller {
    /// Raises a global exception on the given hardware context (worker).
    /// The sub-thread running there becomes the culprit; if the context is
    /// idle the exception is ignored, as the paper's emulation does.
    pub fn inject_on(&self, kind: ExceptionKind, context: u32) {
        let mut g = self.shared.inner.lock();
        let culprit = g.in_flight().find(|&(_, w)| w == context as usize).map(|(s, _)| s);
        g.raise(kind, context, culprit);
        self.shared.waits.wake_one_seeker(g.ledger.telemetry());
    }

    /// Raises a global exception on whichever context currently runs the
    /// oldest in-flight sub-thread (guaranteeing a culprit if anything is
    /// running). Returns whether a culprit was found.
    pub fn inject_on_busy(&self, kind: ExceptionKind) -> bool {
        let mut g = self.shared.inner.lock();
        let Some((stid, worker)) = g.in_flight().next() else {
            return false;
        };
        g.raise(kind, worker as u32, Some(stid));
        self.shared.waits.wake_one_seeker(g.ledger.telemetry());
        true
    }

    /// Whether the program has finished (all threads exited).
    pub fn is_finished(&self) -> bool {
        // Lock-free fast path: workers publish completion (or poisoning)
        // before exiting, so injector loops polling this don't contend the
        // engine lock.
        if self.shared.done.load(std::sync::atomic::Ordering::Acquire) {
            return true;
        }
        let g = self.shared.inner.lock();
        g.roster.live() == 0 && g.running == 0
    }
}

/// Commonly used items.
pub mod prelude {
    pub use crate::ctx::{BlockHandle, StepCtx};
    pub use crate::handles::{
        AtomicHandle, BarrierHandle, ChannelHandle, FileHandle, MutexHandle,
    };
    pub use crate::program::{payload_to, OneShot, Step, ThreadProgram};
    pub use crate::report::{RunError, RunReport, RunStats};
    pub use crate::session::{GprsSession, PreciseState, QuantumOutcome};
    pub use crate::{Controller, Gprs, GprsBuilder, RecoveryPolicy, ShardedGprs};
    pub use gprs_core::chaos::{ChaosEvent, ChaosPlan, ChaosTrigger, VictimSelector};
    pub use gprs_core::exception::{ExceptionKind, ExceptionScope};
    pub use gprs_core::history::Checkpoint;
    pub use gprs_core::ids::{GroupId, ThreadId};
    pub use gprs_analyze::{AnalysisReport, CellVerdict, RecoveryAdvice};
    pub use gprs_core::racecheck::{AccessKind, Race};
    pub use gprs_core::order::ScheduleKind;
    pub use gprs_telemetry::{TelemetryConfig, TelemetrySummary};
}
