//! Job specifications and the serve workload registry.
//!
//! A [`JobSpec`] is everything a tenant submits: a workload name, a seed
//! that deterministically shapes the program (thread count, rounds, input
//! corpus), an optional seeded fault-injection plan, and optional
//! deadlines. The same spec built solo ([`build_solo`]) or through the
//! serving pool produces bit-identical retired hashes — the solo build is
//! every served job's golden twin.

use gprs_core::chaos::{ChaosEvent, ChaosPlan, VictimSelector};
use gprs_core::exception::ExceptionKind;
use gprs_core::history::Checkpoint;
use gprs_core::ids::GroupId;
use gprs_core::persist::{DurableImage, PersistBackend};
use gprs_runtime::ctx::StepCtx;
use gprs_runtime::handles::{AtomicHandle, MutexHandle};
use gprs_runtime::program::{Step, ThreadProgram};
use gprs_runtime::{Gprs, GprsBuilder, ShardedGprs};
use gprs_workloads::kernels::compress::generate_corpus;
use gprs_workloads::programs::{
    beacon_model, build_beacon, build_pbzip_pipeline, HistogramWorker,
};
use std::sync::Arc;

/// Workload names the registry accepts, smallest first. `beacon` is the
/// one whose trace-level model proves one order domain per worker, so it
/// is the only workload a [`JobSpec::sharded`] job may name.
pub const WORKLOADS: &[&str] = &["fetchadd", "mutex", "histogram", "pbzip", "beacon"];

/// One job submission: a workload shaped by a seed, plus serving policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Registry workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Deterministically shapes the program: thread count, rounds, corpus.
    pub seed: u64,
    /// Seeded discretionary-exception plan injected into the run (0 = no
    /// injection). The golden twin attaches the same plan, so injected
    /// jobs still compare bit-identical solo vs. served.
    pub fault_seed: u64,
    /// Cancel the job after this many scheduling quanta (None = no
    /// deadline). Quanta-denominated deadlines are deterministic — the
    /// same spec cancels at the same precise-restart point on every run.
    pub deadline_quanta: Option<u64>,
    /// Cancel the job if it is still running this many milliseconds after
    /// admission (checked at quantum boundaries; None = no timeout). Wall
    /// time is inherently nondeterministic — prefer `deadline_quanta`
    /// where reproducibility matters.
    pub timeout_ms: Option<u64>,
    /// Run the job through per-domain order gates (`build_sharded`)
    /// instead of a cooperative session. Only workloads with a proven
    /// shard plan accept it (today: `beacon`), and the pool drives a
    /// sharded job to completion on its claiming worker in one blocking
    /// pass — sessions are never sharded. The retired hash still matches
    /// the unsharded solo twin bit-for-bit (the differential contract).
    pub shard: bool,
}

impl JobSpec {
    /// A spec with no fault injection and no deadline.
    pub fn new(workload: impl Into<String>, seed: u64) -> Self {
        JobSpec {
            workload: workload.into(),
            seed,
            fault_seed: 0,
            deadline_quanta: None,
            timeout_ms: None,
            shard: false,
        }
    }

    /// Requests sharded execution (see [`shard`](Self::shard)).
    pub fn sharded(mut self) -> Self {
        self.shard = true;
        self
    }

    /// Attaches a seeded fault-injection plan (0 disables).
    pub fn faults(mut self, fault_seed: u64) -> Self {
        self.fault_seed = fault_seed;
        self
    }

    /// Sets the quanta-denominated deadline.
    pub fn deadline(mut self, quanta: u64) -> Self {
        self.deadline_quanta = Some(quanta);
        self
    }

    /// The spec's canonical wire form — the same argument list `submit`
    /// accepts, and the text a durable job directory records so a
    /// restarted pool can rebuild the job from its log alone.
    pub fn canonical_line(&self) -> String {
        let mut line = format!("{} {}", self.workload, self.seed);
        if self.fault_seed != 0 {
            line.push_str(&format!(" fault={}", self.fault_seed));
        }
        if let Some(d) = self.deadline_quanta {
            line.push_str(&format!(" deadline={d}"));
        }
        if let Some(ms) = self.timeout_ms {
            line.push_str(&format!(" timeout={ms}"));
        }
        if self.shard {
            line.push_str(" shard=1");
        }
        line
    }

    /// Parses a `submit`-style argument list: `<workload> <seed>
    /// [fault=N] [deadline=N] [timeout=MS] [shard=1]`. The inverse of
    /// [`canonical_line`](Self::canonical_line).
    ///
    /// # Errors
    /// A usage message for a missing workload/seed, a bad number, or an
    /// unknown `key=value` option.
    pub fn parse_args(args: &[&str]) -> Result<JobSpec, String> {
        let [workload, seed, rest @ ..] = args else {
            return Err(
                "usage: submit <workload> <seed> [fault=N] [deadline=N] [timeout=MS] [shard=1]"
                    .into(),
            );
        };
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
        let mut spec = JobSpec::new(*workload, seed);
        for opt in rest {
            let (key, value) = opt
                .split_once('=')
                .ok_or_else(|| format!("bad option {opt:?} (want key=value)"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("bad value in {opt:?}"))?;
            match key {
                "fault" => spec.fault_seed = n,
                "deadline" => spec.deadline_quanta = Some(n),
                "timeout" => spec.timeout_ms = Some(n),
                "shard" => spec.shard = n != 0,
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        Ok(spec)
    }

    /// Parses one canonical spec line (see
    /// [`canonical_line`](Self::canonical_line)).
    ///
    /// # Errors
    /// Same conditions as [`parse_args`](Self::parse_args).
    pub fn parse_canonical(line: &str) -> Result<JobSpec, String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        Self::parse_args(&words)
    }
}

/// splitmix64: the registry's tiny deterministic shaping PRNG.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the deterministic fault plan for `fault_seed` (empty for 0):
/// one-to-two grant-keyed global exceptions plus, for odd seeds, an
/// exception raised mid-recovery (the overlapping DEX→REX path).
pub fn fault_plan(fault_seed: u64) -> ChaosPlan {
    let mut plan = ChaosPlan::new();
    if fault_seed == 0 {
        return plan;
    }
    const KINDS: &[ExceptionKind] = &[
        ExceptionKind::SoftFault,
        ExceptionKind::VoltageEmergency,
        ExceptionKind::ThermalEmergency,
        ExceptionKind::ApproximationError,
    ];
    let r0 = mix(fault_seed);
    let r1 = mix(r0);
    // First event: early (every registry program issues well over 8
    // grants) and Oldest-targeted (the just-granted entry is always in the
    // ROL), so a nonzero fault seed guarantees at least one delivered
    // exception whatever the workload.
    let first = mix(r1);
    plan.push(
        ChaosEvent::at_grant(2 + first % 6)
            .kind(KINDS[(first >> 8) as usize % KINDS.len()])
            .victim(VictimSelector::Oldest),
    );
    // All grant keys stay under 10 — below every registry program's
    // minimum grant count — so each grant event is guaranteed to fire and
    // the chaos oracle's lower exception bound holds.
    for i in 0..r0 % 2 {
        let r = mix(r1.wrapping_add(i + 1));
        let at = 4 + r % 6;
        let kind = KINDS[(r >> 8) as usize % KINDS.len()];
        let victim = match (r >> 16) % 3 {
            0 => VictimSelector::Oldest,
            1 => VictimSelector::Newest,
            _ => VictimSelector::Holder,
        };
        plan.push(ChaosEvent::at_grant(at).kind(kind).victim(victim));
    }
    if fault_seed % 2 == 1 {
        plan.push(
            ChaosEvent::mid_recovery(1)
                .kind(ExceptionKind::SoftFault)
                .victim(VictimSelector::Oldest),
        );
    }
    plan
}

/// Disjoint fetch-add chain: pure grant/checkpoint/retire traffic, the
/// smallest job the registry serves.
struct FetchAdd {
    atomic: AtomicHandle,
    rounds: u32,
    done: u32,
}

impl Checkpoint for FetchAdd {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl ThreadProgram for FetchAdd {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.done == self.rounds {
            return Step::exit(u64::from(self.done));
        }
        self.done += 1;
        self.atomic.fetch_add(1)
    }
}

/// Mutex-counter worker: every round is a critical section on one shared
/// lock (contention + lock hand-off traffic).
struct MutexWorker {
    mutex: MutexHandle<u64>,
    rounds: u32,
    done: u32,
}

impl Checkpoint for MutexWorker {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl ThreadProgram for MutexWorker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.done > 0 {
            ctx.with_lock(&self.mutex, |n| *n = n.wrapping_add(1));
        }
        if self.done == self.rounds {
            return Step::exit(u64::from(self.done));
        }
        self.done += 1;
        self.mutex.lock()
    }
}

/// Registers the spec's program on a builder. The seed shapes the program
/// deterministically; the shape is identical however the job is executed.
/// Public so `gprs-replay` can rebuild a served job's program onto a
/// replay-armed builder from the spec line stamped in a recording header.
pub fn register(spec: &JobSpec, b: &mut GprsBuilder) -> Result<(), String> {
    let r = mix(spec.seed ^ 0x5E44E);
    match spec.workload.as_str() {
        "fetchadd" => {
            let threads = 2 + (r % 3) as u32;
            let rounds = 6 + ((r >> 8) % 8) as u32;
            for _ in 0..threads {
                let a = b.atomic(0);
                b.thread(
                    FetchAdd {
                        atomic: a,
                        rounds,
                        done: 0,
                    },
                    GroupId::new(0),
                    1,
                );
            }
        }
        "mutex" => {
            let threads = 2 + (r % 3) as u32;
            let rounds = 4 + ((r >> 8) % 6) as u32;
            let m = b.mutex(0u64);
            for _ in 0..threads {
                b.thread(
                    MutexWorker {
                        mutex: m,
                        rounds,
                        done: 0,
                    },
                    GroupId::new(0),
                    1,
                );
            }
        }
        "histogram" => {
            let shards = 3 + (r % 3) as usize;
            let len = 6_000 + (r >> 8) % 6_000;
            let corpus = generate_corpus(len as usize, spec.seed);
            let acc = b.mutex(vec![0u64; 256]);
            let chunk = corpus.len().div_ceil(shards);
            for piece in corpus.chunks(chunk) {
                b.thread(HistogramWorker::new(piece.to_vec(), acc), GroupId::new(0), 1);
            }
        }
        "pbzip" => {
            let len = 8_000 + (r % 8_000);
            let compressors = 2 + (r >> 8) % 2;
            let _ = build_pbzip_pipeline(
                b,
                generate_corpus(len as usize, spec.seed),
                2048,
                compressors,
            );
        }
        "beacon" => {
            let (workers, rounds) = beacon_shape(spec.seed);
            let _ = build_beacon(b, workers, rounds);
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(())
}

/// The seed-shaped beacon geometry, shared by registration and the
/// trace-level model a sharded build consumes: independent beacon workers
/// (one provable order domain each) spinning `rounds` rounds.
fn beacon_shape(seed: u64) -> (usize, u32) {
    let r = mix(seed ^ 0x5E44E);
    (2 + (r % 3) as usize, 8 + ((r >> 8) % 16) as u32)
}

/// Cheap admission-time validation: is the workload name registered, and
/// does a sharded spec name a workload with a proven shard plan? (Seeds
/// cannot be invalid — every `u64` shapes a valid program.)
pub fn validate(spec: &JobSpec) -> Result<(), String> {
    if !WORKLOADS.contains(&spec.workload.as_str()) {
        return Err(format!("unknown workload {:?}", spec.workload));
    }
    if spec.shard && spec.workload != "beacon" {
        return Err(format!(
            "workload {:?} has no shard plan: only \"beacon\" jobs run sharded",
            spec.workload
        ));
    }
    Ok(())
}

/// A builder stamped with the job identity and armed with the spec's
/// fault plan (an empty plan arms nothing): where every build starts.
fn job_builder(spec: &JobSpec, job_id: u64, submit_seq: u64) -> GprsBuilder {
    GprsBuilder::new()
        .job(job_id, submit_seq)
        .chaos(&fault_plan(spec.fault_seed))
}

/// Builds the spec into a runtime stamped with the given job identity.
/// The serving pool converts the result into a cooperative session; tests
/// and goldens call [`Gprs::run`] on it directly.
pub fn build_job(spec: &JobSpec, job_id: u64, submit_seq: u64) -> Result<Gprs, String> {
    let mut b = job_builder(spec, job_id, submit_seq);
    register(spec, &mut b)?;
    Ok(b.build())
}

/// Builds and runs the spec solo — the golden twin every served job's
/// retired hash is compared against. Deliberately *unsharded* even for
/// sharded specs: per-domain retirement must be invisible in the retired
/// hash, so the unsharded build is the stronger twin.
pub fn build_solo(spec: &JobSpec) -> Result<Gprs, String> {
    build_job(spec, 0, 0)
}

/// Builds a sharded spec into per-domain engines stamped with the job
/// identity. There is no cooperative session over sharded domains, so the
/// pool drives the result to completion in one blocking pass on the
/// claiming worker.
///
/// # Errors
/// Any spec [`validate`] rejects, including a non-`beacon` workload.
pub fn build_job_sharded(
    spec: &JobSpec,
    job_id: u64,
    submit_seq: u64,
) -> Result<ShardedGprs, String> {
    validate(spec)?;
    let mut b = job_builder(spec, job_id, submit_seq);
    let (workers, rounds) = beacon_shape(spec.seed);
    let _ = build_beacon(&mut b, workers, rounds);
    Ok(b.model(beacon_model(workers, rounds)).build_sharded())
}

/// Builds the spec onto a durable persistence backend, optionally
/// resuming against a previously loaded [`DurableImage`]: the replay is
/// verified retirement-by-retirement against the image's durable prefix,
/// so a restart *is* a recovery.
///
/// # Errors
/// Unknown workload (same as [`build_job`]).
pub fn build_job_durable(
    spec: &JobSpec,
    job_id: u64,
    submit_seq: u64,
    backend: Arc<dyn PersistBackend>,
    resume: Option<&DurableImage>,
) -> Result<Gprs, String> {
    build_job_durable_recorded(spec, job_id, submit_seq, backend, resume, None)
}

/// [`build_job_durable`] plus an optional schedule recording written next
/// to the job's durable state. The serving pool records every *fresh*
/// durable job (a resumed job re-verifies an old schedule rather than
/// producing a new one), so a failed job's directory holds both its WAL
/// image and the exact grant order that produced the failure — the input
/// `gprs-replay run`/`state` needs for a post-mortem.
pub fn build_job_durable_recorded(
    spec: &JobSpec,
    job_id: u64,
    submit_seq: u64,
    backend: Arc<dyn PersistBackend>,
    resume: Option<&DurableImage>,
    record: Option<&std::path::Path>,
) -> Result<Gprs, String> {
    let mut b = job_builder(spec, job_id, submit_seq)
        .durable(backend)
        .durable_spec(spec.canonical_line());
    if let Some(image) = resume {
        b = b.resume(image);
    }
    if let Some(path) = record.filter(|_| resume.is_none()) {
        b = b
            .record(path)
            .record_meta(&spec.workload, spec.seed)
            .record_spec(spec.canonical_line());
    }
    register(spec, &mut b)?;
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_shape_programs_deterministically() {
        for name in WORKLOADS {
            let a = build_solo(&JobSpec::new(*name, 42)).unwrap().run().unwrap();
            let b = build_solo(&JobSpec::new(*name, 42)).unwrap().run().unwrap();
            assert_eq!(
                a.telemetry.retired_hash, b.telemetry.retired_hash,
                "{name} must be reproducible"
            );
            assert!(a.stats.retired > 0, "{name} must do work");
        }
    }

    #[test]
    fn fault_plans_inject() {
        let spec = JobSpec::new("mutex", 7).faults(3);
        let report = build_solo(&spec).unwrap().run().unwrap();
        assert!(report.stats.exceptions > 0, "odd fault seed injects");
        assert_eq!(
            report.telemetry.counter("wal_appends"),
            report.telemetry.counter("wal_undos") + report.telemetry.counter("wal_prunes"),
        );
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(build_solo(&JobSpec::new("nope", 1)).is_err());
    }

    #[test]
    fn sharded_build_matches_the_unsharded_solo_twin() {
        for seed in [1u64, 9, 42] {
            let spec = JobSpec::new("beacon", seed).sharded();
            let solo = build_solo(&spec).unwrap().run().unwrap();
            let sharded = build_job_sharded(&spec, 7, 7).unwrap().run().unwrap();
            assert_eq!(
                sharded.telemetry.retired_hash, solo.telemetry.retired_hash,
                "seed {seed}: per-domain retirement must be invisible"
            );
            assert!(!sharded.shards.is_empty(), "sharded runs carry the domain ledger");
        }
    }

    #[test]
    fn shard_flag_requires_a_planned_workload() {
        assert!(validate(&JobSpec::new("beacon", 1).sharded()).is_ok());
        let err = validate(&JobSpec::new("mutex", 1).sharded()).unwrap_err();
        assert!(err.contains("no shard plan"), "{err}");
    }

    #[test]
    fn canonical_lines_round_trip() {
        let specs = [
            JobSpec::new("mutex", 9),
            JobSpec::new("pbzip", 3).faults(11),
            JobSpec::new("beacon", 6).sharded(),
            JobSpec::new("fetchadd", 1).faults(2).deadline(8),
            JobSpec {
                timeout_ms: Some(500),
                ..JobSpec::new("histogram", 42)
            },
        ];
        for spec in specs {
            let line = spec.canonical_line();
            assert_eq!(JobSpec::parse_canonical(&line).unwrap(), spec, "{line}");
        }
        assert!(JobSpec::parse_canonical("mutex").is_err());
        assert!(JobSpec::parse_canonical("mutex x").is_err());
        assert!(JobSpec::parse_canonical("mutex 1 bogus").is_err());
    }

    #[test]
    fn durable_build_matches_plain_build() {
        use gprs_core::persist::MemoryBackend;
        let spec = JobSpec::new("mutex", 5).faults(3);
        let plain = build_solo(&spec).unwrap().run().unwrap();
        let backend = Arc::new(MemoryBackend::new());
        let durable = build_job_durable(&spec, 0, 0, backend.clone(), None)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(plain.telemetry.retired_hash, durable.telemetry.retired_hash);
        let image = backend.load().unwrap();
        assert_eq!(image.spec.as_deref(), Some(spec.canonical_line().as_str()));
        assert_eq!(image.retired_len(), plain.telemetry.retired_count);
    }
}
