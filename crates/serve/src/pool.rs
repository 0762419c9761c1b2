//! The shared worker pool: FIFO scheduling, quantum yielding, cancel,
//! deadlines, and graceful shutdown.
//!
//! Each submitted [`JobSpec`] becomes an isolated cooperative
//! [`GprsSession`] — its own OrderGate/ROL/WAL/history/telemetry, nothing
//! shared with co-resident jobs — driven by whichever pool worker claims
//! it next. Job states follow the atomic `Idle → Pending → Running`
//! discipline: a job is enqueued exactly when it transitions into
//! `Pending` (a failed compare-exchange means someone else owns the
//! transition, so a job can never be double-enqueued), and only the
//! claiming worker may move it out of `Running`. A quantum is a bounded
//! number of ordered grants; a job that yields re-enters the FIFO tail
//! with its precise state parked inside the engine, so long jobs cannot
//! starve the queue and a job may migrate between OS workers across
//! quanta without perturbing its deterministic schedule.
//!
//! [`JobSpec::shard`] jobs are the one exception to quantum slicing:
//! sessions are never sharded, so the claiming worker drives the whole
//! sharded run to completion in a single blocking pass (the per-domain
//! engines spawn and join their own worker threads inside it). They still
//! honour claim-time cancellation and publish ordinary outcomes.

use crate::spec::{build_job, build_job_durable_recorded, build_job_sharded, validate, JobSpec};
use gprs_core::persist::{DurableImage, DurableRecord, FileBackend, PersistBackend};
use gprs_runtime::report::RunReport;
use gprs_runtime::session::{GprsSession, QuantumOutcome};
use gprs_telemetry::{Counter, Histogram, HistogramSnapshot, JsonWriter};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default grants per scheduling quantum.
pub const DEFAULT_QUANTUM: u64 = 64;

/// Pool sizing and scheduling knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// OS worker threads sharing the job queue.
    pub workers: usize,
    /// Ordered grants per quantum before a job yields back to the FIFO.
    pub quantum: u64,
    /// Root directory for durable job state. When set, every admitted job
    /// gets its own directory (`job-<seq>/`) holding a checksummed WAL +
    /// merkle checkpoint store, and [`ServePool::start`] rescans the root
    /// for unfinished jobs and resubmits them — served jobs survive a pool
    /// (or whole-process) crash. `None` keeps today's in-memory behaviour.
    pub durable_root: Option<PathBuf>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 2,
            quantum: DEFAULT_QUANTUM,
            durable_root: None,
        }
    }
}

/// Job lifecycle states (the atomic scheduling discipline).
const IDLE: u8 = 0;
const PENDING: u8 = 1;
const RUNNING: u8 = 2;
const FINISHED: u8 = 3;

/// Pool lifecycle.
const RUN: u8 = 0;
/// Stop admitting; drain queued and in-flight jobs to completion.
const DRAIN: u8 = 1;
/// Stop admitting; cancel queued and in-flight jobs through their
/// recovery gates (still a clean, ledger-balanced stop).
const HALT: u8 = 2;

/// How a job left the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion.
    Completed,
    /// Cancelled by [`JobTicket::cancel`], [`ServeHandle::cancel`], or a
    /// halting shutdown; the in-flight suffix was squashed through
    /// recovery, everything retired stays committed.
    Cancelled,
    /// Cancelled because the job exceeded its quanta deadline.
    DeadlineExceeded,
    /// Cancelled because the job exceeded its wall-clock timeout.
    TimedOut,
    /// The program poisoned (step panic or deadlock).
    Failed,
}

impl JobStatus {
    /// Stable lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::DeadlineExceeded => "deadline",
            JobStatus::TimedOut => "timeout",
            JobStatus::Failed => "failed",
        }
    }
}

/// Everything the pool reports back for one job.
#[derive(Debug)]
pub struct JobOutcome {
    /// Stable job id (also stamped into the report).
    pub job_id: u64,
    /// Monotonic submission sequence number.
    pub submit_seq: u64,
    /// The spec as submitted.
    pub spec: JobSpec,
    /// How the job left the pool.
    pub status: JobStatus,
    /// The run report: full for `Completed`, partial (everything retired
    /// before the stop) for the cancelled statuses, `None` for `Failed`
    /// and for jobs cancelled before they ever ran a quantum.
    pub report: Option<RunReport>,
    /// Poison message for `Failed`.
    pub error: Option<String>,
    /// Scheduling quanta the job consumed.
    pub quanta: u64,
}

impl JobOutcome {
    /// Serializes the outcome as a single JSON object (the socket driver's
    /// per-job response line).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("job_id", self.job_id)
            .field_u64("submit_seq", self.submit_seq)
            .field_str("workload", &self.spec.workload)
            .field_u64("seed", self.spec.seed)
            .field_u64("fault_seed", self.spec.fault_seed)
            .field_str("status", self.status.as_str())
            .field_u64("quanta", self.quanta);
        if let Some(report) = &self.report {
            w.field_hex("schedule_hash", report.telemetry.schedule_hash)
                .field_hex("retired_hash", report.telemetry.retired_hash)
                .field_u64("retired", report.telemetry.retired_count)
                .field_u64("grants", report.stats.grants)
                .field_u64("exceptions", report.stats.exceptions)
                .field_u64("squashed", report.stats.squashed)
                .field_u64("recoveries", report.stats.recoveries);
            if !report.shards.is_empty() {
                w.field_u64("domains", report.shards.len() as u64);
            }
        }
        if let Some(error) = &self.error {
            w.field_str("error", error);
        }
        w.end_object();
        w.finish()
    }
}

/// File name of the schedule recording a fresh durable job writes into
/// its durable directory (`gprs-replay run/diff/state` input).
pub const RECORDING_FILE: &str = "recording.gprs";

/// A job's durable persistence attachment.
struct JobDurable {
    /// The job's own directory under the pool's durable root.
    dir: PathBuf,
    /// File backend every epoch of this job logs through.
    backend: Arc<FileBackend>,
    /// The image a resumed job replays against (taken by the first
    /// claiming worker; `None` for fresh submissions).
    resume: Mutex<Option<DurableImage>>,
}

/// One admitted job.
struct Job {
    id: u64,
    seq: u64,
    spec: JobSpec,
    /// Durable state, when the pool has a `durable_root`.
    durable: Option<JobDurable>,
    state: AtomicU8,
    cancel: AtomicBool,
    admitted: Instant,
    /// Stamped at every enqueue; read by the claiming worker for the
    /// queue-wait histogram.
    enqueued: Mutex<Instant>,
    /// Built lazily by the first claiming worker (admission only
    /// validates), so engine construction parallelizes across the pool
    /// instead of serializing on submitters.
    session: Mutex<Option<GprsSession>>,
    quanta: AtomicU64,
    outcome: Mutex<Option<JobOutcome>>,
    done_cv: Condvar,
}

/// Pool-level counters (shared across all tenants; each job additionally
/// carries its fully isolated per-run telemetry in its report).
#[derive(Debug, Default)]
struct PoolMetrics {
    submitted: Counter,
    completed: Counter,
    cancelled: Counter,
    failed: Counter,
    quanta: Counter,
    yields: Counter,
    /// Microseconds between a job entering the FIFO and a worker claiming
    /// it (every quantum round-trip records one sample).
    queue_wait_us: Histogram,
}

/// A point-in-time copy of the pool counters.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled (explicit, deadline, timeout, or halting shutdown).
    pub cancelled: u64,
    /// Jobs that poisoned.
    pub failed: u64,
    /// Scheduling quanta executed.
    pub quanta: u64,
    /// Quanta that ended in a yield (vs. job completion).
    pub yields: u64,
    /// FIFO wait distribution, microseconds.
    pub queue_wait_us: HistogramSnapshot,
}

impl PoolStats {
    /// Serializes the stats as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("submitted", self.submitted)
            .field_u64("completed", self.completed)
            .field_u64("cancelled", self.cancelled)
            .field_u64("failed", self.failed)
            .field_u64("quanta", self.quanta)
            .field_u64("yields", self.yields)
            .field_u64("queue_wait_us_count", self.queue_wait_us.count)
            .field_u64("queue_wait_us_max", self.queue_wait_us.max)
            .end_object();
        w.finish()
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    cv: Condvar,
    phase: AtomicU8,
    /// Admitted jobs not yet `FINISHED`; drain shutdown completes when
    /// this reaches zero.
    unfinished: AtomicU64,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    quantum: u64,
    /// See [`PoolConfig::durable_root`].
    durable_root: Option<PathBuf>,
    metrics: PoolMetrics,
}

impl Shared {
    /// Enqueues a job that the caller just transitioned into `PENDING`.
    fn push(&self, job: Arc<Job>) {
        *job.enqueued.lock() = Instant::now();
        self.queue.lock().push_back(job);
        self.cv.notify_one();
    }

    /// Wakes every parked worker to re-read `phase` and `unfinished`. Held
    /// under the queue lock — the lock a worker holds from checking those
    /// two until it is parked — so the wake cannot fall in between and be
    /// lost (a worker parked past a lost shutdown wake never exits, and
    /// the pool's join hangs).
    fn wake_workers(&self) {
        let _q = self.queue.lock();
        self.cv.notify_all();
    }

    fn stats(&self) -> PoolStats {
        let m = &self.metrics;
        PoolStats {
            submitted: m.submitted.get(),
            completed: m.completed.get(),
            cancelled: m.cancelled.get(),
            failed: m.failed.get(),
            quanta: m.quanta.get(),
            yields: m.yields.get(),
            queue_wait_us: m.queue_wait_us.snapshot(),
        }
    }
}

/// Errors a submission can be rejected with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool is shutting down.
    ShuttingDown,
    /// The spec did not build (unknown workload).
    BadSpec(String),
    /// The job's durable directory could not be created or written.
    Durable(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
            SubmitError::BadSpec(msg) => write!(f, "bad job spec: {msg}"),
            SubmitError::Durable(msg) => write!(f, "durable store: {msg}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A claim check for one submitted job.
pub struct JobTicket {
    job: Arc<Job>,
}

impl JobTicket {
    /// The job's stable id.
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// The job's submission sequence number.
    pub fn seq(&self) -> u64 {
        self.job.seq
    }

    /// Requests cancellation. The job is stopped at its next quantum
    /// boundary (or on claim, if still queued) by squashing the in-flight
    /// suffix through recovery; [`wait`](Self::wait) then returns a
    /// `Cancelled` outcome with the partial report (no report if the job
    /// never ran a quantum). Idempotent; a no-op once the job finished.
    pub fn cancel(&self) {
        self.job.cancel.store(true, Ordering::Release);
    }

    /// Blocks until the job leaves the pool and returns its outcome.
    pub fn wait(self) -> JobOutcome {
        let mut slot = self.job.outcome.lock();
        while slot.is_none() {
            self.job.done_cv.wait(&mut slot);
        }
        slot.take().expect("outcome present")
    }

    /// Non-blocking probe: the outcome if the job already finished, else
    /// the ticket back. Taking the outcome consumes the ticket, so no later
    /// `wait` can block on an outcome that is gone.
    pub fn try_wait(self) -> Result<JobOutcome, JobTicket> {
        let outcome = self.job.outcome.lock().take();
        outcome.ok_or(self)
    }
}

/// A clonable submission handle onto a running [`ServePool`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Admits a job: validates the spec, assigns it the next stable id and
    /// submission sequence number, and enqueues it. The isolated engine is
    /// materialized by the first worker that claims the job, so admission
    /// stays cheap and construction parallelizes across the pool.
    ///
    /// # Errors
    /// [`SubmitError::ShuttingDown`] after a shutdown began;
    /// [`SubmitError::BadSpec`] for unknown workloads.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        if self.shared.phase.load(Ordering::Acquire) != RUN {
            return Err(SubmitError::ShuttingDown);
        }
        validate(&spec).map_err(SubmitError::BadSpec)?;
        if spec.shard && self.shared.durable_root.is_some() {
            // `build_sharded` rejects durable persistence (per-domain WALs
            // have no durable merge rule yet); refuse at admission rather
            // than fail the job on first claim.
            return Err(SubmitError::BadSpec(
                "sharded jobs do not support the durable store".into(),
            ));
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let durable = match &self.shared.durable_root {
            Some(root) => {
                // Record the canonical spec line before the job ever runs:
                // a job that crashes while still queued is resumable from
                // its spec alone (the engine re-records the spec into a
                // fresh epoch when it actually builds).
                let dir = root.join(format!("job-{seq:08}"));
                let attach = FileBackend::open(&dir)
                    .and_then(|backend| {
                        backend.record(&DurableRecord::Spec {
                            text: spec.canonical_line(),
                        })?;
                        backend.sync()?;
                        Ok(backend)
                    })
                    .map_err(|e| SubmitError::Durable(e.to_string()))?;
                Some(JobDurable {
                    dir,
                    backend: Arc::new(attach),
                    resume: Mutex::new(None),
                })
            }
            None => None,
        };
        let job = Arc::new(Job {
            id,
            seq,
            spec,
            durable,
            state: AtomicU8::new(IDLE),
            cancel: AtomicBool::new(false),
            admitted: Instant::now(),
            enqueued: Mutex::new(Instant::now()),
            session: Mutex::new(None),
            quanta: AtomicU64::new(0),
            outcome: Mutex::new(None),
            done_cv: Condvar::new(),
        });
        self.shared.unfinished.fetch_add(1, Ordering::AcqRel);
        self.shared.metrics.submitted.inc();
        let claimed = job
            .state
            .compare_exchange(IDLE, PENDING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        debug_assert!(claimed, "a fresh job has no competing enqueuer");
        self.shared.push(job.clone());
        Ok(JobTicket { job })
    }

    /// A point-in-time copy of the pool counters.
    pub fn stats(&self) -> PoolStats {
        self.shared.stats()
    }

    /// Whether a shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.phase.load(Ordering::Acquire) != RUN
    }
}

/// The shared worker pool. Dropping it without calling
/// [`shutdown`](Self::shutdown) drains gracefully.
pub struct ServePool {
    shared: Arc<Shared>,
    joins: Vec<std::thread::JoinHandle<()>>,
    /// Tickets for jobs resurrected from the durable root at start.
    resumed: Vec<JobTicket>,
}

impl ServePool {
    /// Boots `cfg.workers` OS threads sharing one FIFO job queue. With a
    /// [`durable_root`](PoolConfig::durable_root), unfinished job
    /// directories from a previous pool incarnation are resubmitted before
    /// any worker starts — collect their tickets with
    /// [`take_resumed`](Self::take_resumed).
    pub fn start(cfg: PoolConfig) -> ServePool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            phase: AtomicU8::new(RUN),
            unfinished: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            quantum: cfg.quantum.max(1),
            durable_root: cfg.durable_root.clone(),
            metrics: PoolMetrics::default(),
        });
        let resumed = match &cfg.durable_root {
            Some(root) => resume_jobs(&shared, root),
            None => Vec::new(),
        };
        let workers = cfg.workers.max(1);
        let mut joins = Vec::with_capacity(workers);
        for ix in 0..workers {
            let shared = shared.clone();
            joins.push(
                std::thread::Builder::new()
                    .name(format!("gprs-serve-{ix}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker"),
            );
        }
        ServePool {
            shared,
            joins,
            resumed,
        }
    }

    /// Tickets for the jobs [`start`](Self::start) resurrected from the
    /// durable root (empty without one, and on every later call).
    pub fn take_resumed(&mut self) -> Vec<JobTicket> {
        std::mem::take(&mut self.resumed)
    }

    /// A submission handle (clonable, usable from any thread).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: self.shared.clone(),
        }
    }

    /// Graceful shutdown: stops admissions, drains every queued and
    /// in-flight job to completion — each one passes its recovery gates
    /// before its final report is published — then joins the workers.
    pub fn shutdown(self) -> PoolStats {
        self.stop(DRAIN)
    }

    /// Halting shutdown: stops admissions and cancels every queued and
    /// in-flight job at its next quantum boundary. Cancellation runs the
    /// ordinary recovery path, so even a halt leaves every job's ledger
    /// balanced and its retired prefix committed.
    pub fn shutdown_now(self) -> PoolStats {
        self.stop(HALT)
    }

    fn stop(mut self, phase: u8) -> PoolStats {
        self.shared.phase.store(phase, Ordering::Release);
        self.shared.wake_workers();
        for j in self.joins.drain(..) {
            j.join().expect("pool workers do not panic");
        }
        self.shared.stats()
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        if self.joins.is_empty() {
            return;
        }
        self.shared.phase.store(DRAIN, Ordering::Release);
        self.shared.wake_workers();
        for j in self.joins.drain(..) {
            j.join().expect("pool workers do not panic");
        }
    }
}

/// Scans `root` for unfinished durable job directories (no `DONE`
/// marker), loads each one's image, and resubmits it under its original
/// identity with the image attached as the replay-verification prefix.
/// Unreadable or specless directories are skipped loudly on stderr and
/// left on disk for inspection.
fn resume_jobs(shared: &Arc<Shared>, root: &Path) -> Vec<JobTicket> {
    if let Err(e) = std::fs::create_dir_all(root) {
        eprintln!("gprs-serve: durable root {}: {e}", root.display());
        return Vec::new();
    }
    let mut dirs: Vec<(u64, PathBuf)> = Vec::new();
    let entries = match std::fs::read_dir(root) {
        Ok(it) => it,
        Err(e) => {
            eprintln!("gprs-serve: durable root {}: {e}", root.display());
            return Vec::new();
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(seq) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("job-"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        if path.join("DONE").exists() || !path.is_dir() {
            continue;
        }
        dirs.push((seq, path));
    }
    dirs.sort_unstable();
    let mut tickets = Vec::new();
    let mut max_seq = 0u64;
    for (seq, dir) in dirs {
        let backend = match FileBackend::open(&dir) {
            Ok(b) => Arc::new(b),
            Err(e) => {
                eprintln!("gprs-serve: cannot resume {}: {e}", dir.display());
                continue;
            }
        };
        let image = match backend.load() {
            Ok(image) => image,
            Err(e) => {
                eprintln!("gprs-serve: cannot resume {}: {e}", dir.display());
                continue;
            }
        };
        let spec = match image
            .spec
            .as_deref()
            .ok_or_else(|| "no spec record in the durable log".to_string())
            .and_then(JobSpec::parse_canonical)
        {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!(
                    "gprs-serve: cannot resume {}: bad spec record {:?}: {e}",
                    dir.display(),
                    image.spec
                );
                continue;
            }
        };
        max_seq = max_seq.max(seq);
        let job = Arc::new(Job {
            id: seq,
            seq,
            spec,
            durable: Some(JobDurable {
                dir,
                backend,
                resume: Mutex::new(Some(image)),
            }),
            state: AtomicU8::new(PENDING),
            cancel: AtomicBool::new(false),
            admitted: Instant::now(),
            enqueued: Mutex::new(Instant::now()),
            session: Mutex::new(None),
            quanta: AtomicU64::new(0),
            outcome: Mutex::new(None),
            done_cv: Condvar::new(),
        });
        shared.unfinished.fetch_add(1, Ordering::AcqRel);
        shared.metrics.submitted.inc();
        shared.push(job.clone());
        tickets.push(JobTicket { job });
    }
    // New submissions must never collide with a resurrected directory.
    shared.next_id.fetch_max(max_seq, Ordering::Relaxed);
    shared.next_seq.fetch_max(max_seq, Ordering::Relaxed);
    tickets
}

/// One pool worker: claim the FIFO head, drive one quantum, publish or
/// requeue.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                let phase = shared.phase.load(Ordering::Acquire);
                if phase != RUN && shared.unfinished.load(Ordering::Acquire) == 0 {
                    return;
                }
                if phase == HALT {
                    // In-flight jobs are being cancelled by their owners;
                    // re-check rather than sleep so stragglers can't park
                    // this worker forever.
                    drop(q);
                    std::thread::yield_now();
                    q = shared.queue.lock();
                    continue;
                }
                shared.cv.wait(&mut q);
            }
        };
        if job
            .state
            .compare_exchange(PENDING, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Stale entry: the job is owned elsewhere. The enqueue
            // discipline makes this unreachable, but skipping is always
            // safe — the owner will requeue it.
            continue;
        }
        let waited = job.enqueued.lock().elapsed();
        shared
            .metrics
            .queue_wait_us
            .record(waited.as_micros() as u64);
        drive(shared, &job);
    }
}

/// Runs one quantum of `job` (already claimed `RUNNING`) and either
/// requeues it or publishes its outcome.
fn drive(shared: &Shared, job: &Arc<Job>) {
    let mut guard = job.session.lock();
    let halting = shared.phase.load(Ordering::Acquire) == HALT;
    let stopping = job.cancel.load(Ordering::Acquire) || halting;
    if job.spec.shard {
        // Sharded jobs have no cooperative session: the per-domain engines
        // spawn and join their own workers inside `run`, so this claim
        // drives the job to completion in one blocking pass. Cancellation
        // is claim-time only; deadlines and timeouts are quantum-boundary
        // checks and never fire inside the single pass.
        if stopping {
            publish(shared, job, guard, Some(JobStatus::Cancelled), None, None);
            return;
        }
        shared.metrics.quanta.inc();
        job.quanta.fetch_add(1, Ordering::Relaxed);
        let outcome = build_job_sharded(&job.spec, job.id, job.seq)
            .and_then(|sharded| sharded.run().map_err(|e| e.to_string()));
        let (report, error) = match outcome {
            Ok(report) => (Some(report), None),
            Err(e) => (None, Some(e)),
        };
        publish(shared, job, guard, None, report, error);
        return;
    }
    if guard.is_none() && !stopping {
        // First claim: materialize the isolated engine here, on a pool
        // worker. A job stopped before this point never builds an engine
        // at all (a halt over thousands of queued jobs must not pay
        // thousands of constructions just to cancel them).
        let built = match &job.durable {
            Some(d) => {
                let image = d.resume.lock().take();
                // Fresh durable jobs also record their schedule next to
                // the WAL image: a failed job's directory then carries the
                // exact grant order for a `gprs-replay` post-mortem.
                build_job_durable_recorded(
                    &job.spec,
                    job.id,
                    job.seq,
                    d.backend.clone(),
                    image.as_ref(),
                    Some(&d.dir.join(RECORDING_FILE)),
                )
            }
            None => build_job(&job.spec, job.id, job.seq),
        };
        match built {
            Ok(gprs) => *guard = Some(gprs.into_session()),
            Err(e) => {
                // Unreachable given admission validation; fail defensively.
                publish(shared, job, guard, Some(JobStatus::Failed), None, Some(e));
                return;
            }
        }
    }
    let mut status = None;
    if let Some(session) = guard.as_mut() {
        if stopping {
            session.cancel();
            status = Some(JobStatus::Cancelled);
        } else {
            shared.metrics.quanta.inc();
            let quanta = job.quanta.fetch_add(1, Ordering::Relaxed) + 1;
            match session.run_quantum(shared.quantum) {
                QuantumOutcome::Finished => {}
                QuantumOutcome::Yielded => {
                    if job.spec.deadline_quanta.is_some_and(|d| quanta >= d) {
                        session.cancel();
                        status = Some(JobStatus::DeadlineExceeded);
                    } else if job
                        .spec
                        .timeout_ms
                        .is_some_and(|ms| job.admitted.elapsed().as_millis() as u64 >= ms)
                    {
                        session.cancel();
                        status = Some(JobStatus::TimedOut);
                    } else {
                        shared.metrics.yields.inc();
                        drop(guard);
                        let requeued = job
                            .state
                            .compare_exchange(RUNNING, PENDING, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok();
                        debug_assert!(requeued, "only the owner moves a job out of RUNNING");
                        shared.push(job.clone());
                        return;
                    }
                }
            }
        }
    } else {
        // Stopped before its first quantum: no engine, nothing retired.
        status = Some(JobStatus::Cancelled);
    }
    // The job finished (completed, cancelled, or poisoned): publish.
    let (report, error) = match guard.take() {
        Some(session) => {
            if status.is_none() && session.was_cancelled() {
                status = Some(JobStatus::Cancelled);
            }
            match session.finish() {
                Ok(report) => (Some(report), None),
                Err(e) => (None, Some(e.to_string())),
            }
        }
        None => (None, None),
    };
    publish(shared, job, guard, status, report, error);
}

/// Publishes a terminal outcome for `job` (owner-only; `guard` must hold
/// the job's now-empty session slot).
fn publish(
    shared: &Shared,
    job: &Arc<Job>,
    guard: parking_lot::MutexGuard<'_, Option<GprsSession>>,
    status: Option<JobStatus>,
    report: Option<RunReport>,
    error: Option<String>,
) {
    let status = if error.is_some() {
        JobStatus::Failed
    } else {
        status.unwrap_or(JobStatus::Completed)
    };
    match status {
        JobStatus::Completed => shared.metrics.completed.inc(),
        JobStatus::Failed => shared.metrics.failed.inc(),
        _ => shared.metrics.cancelled.inc(),
    }
    let outcome = JobOutcome {
        job_id: job.id,
        submit_seq: job.seq,
        spec: job.spec.clone(),
        status,
        report,
        error,
        quanta: job.quanta.load(Ordering::Relaxed),
    };
    if let Some(d) = &job.durable {
        // Terminal outcome: mark the directory so a pool restart does not
        // resurrect this job. A crash between the final sync and this
        // marker re-runs the job — recovery is idempotent, so that is
        // merely wasted work, never a wrong answer.
        if let Err(e) = std::fs::write(d.dir.join("DONE"), status.as_str()) {
            eprintln!("gprs-serve: DONE marker {}: {e}", d.dir.display());
        }
    }
    drop(guard);
    job.state.store(FINISHED, Ordering::Release);
    *job.outcome.lock() = Some(outcome);
    job.done_cv.notify_all();
    if shared.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last job done: wake any workers sleeping through a drain.
        shared.wake_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ticket whose job is still queued comes back from `try_wait`, and
    /// `wait` on it still receives the job's outcome.
    #[test]
    fn try_wait_on_a_queued_job_returns_a_ticket_that_still_waits() {
        // A pool with no worker yet: the submitted job cannot leave the queue.
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            phase: AtomicU8::new(RUN),
            unfinished: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            quantum: DEFAULT_QUANTUM,
            durable_root: None,
            metrics: PoolMetrics::default(),
        });
        let handle = ServeHandle {
            shared: shared.clone(),
        };
        let ticket = handle.submit(JobSpec::new("fetchadd", 3)).unwrap();
        let Err(ticket) = ticket.try_wait() else {
            panic!("a queued job has no outcome to take");
        };
        shared.phase.store(DRAIN, Ordering::Release);
        let worker = std::thread::spawn(move || worker_loop(&shared));
        let outcome = ticket.wait();
        assert_eq!((outcome.job_id, outcome.status), (1, JobStatus::Completed));
        worker.join().expect("the worker drains and exits");
    }
}
