//! The free-running engine: the Pthreads baseline and coordinated
//! checkpoint-and-recovery (P-CPR) on top of it.
//!
//! Threads execute their segments as soon as data dependences allow —
//! no deterministic ordering. In CPR mode, periodic coordinated checkpoints
//! quiesce the program behind two global barriers (`§2.3`, Figure 3(a)), and
//! every exception rolls the whole program back to the last checkpoint,
//! charging the lost work and the restore wait to the wall clock.
//!
//! ## Approximation
//!
//! Rollback is modeled as a *wall-clock penalty* rather than a re-execution
//! of the event stream: the work completed since the last checkpoint plus
//! `t_w` is added to the wall time, exactly the quantity a real rollback
//! re-spends. Subsequent exceptions arrive in wall time, so they land inside
//! redo intervals just as they would in a real run; when the per-exception
//! loss exceeds the exception inter-arrival time the wall clock diverges and
//! the run is reported DNC — the paper's tipping behaviour.
//!
//! Checkpoint epochs are *preemptive*: they fire at the configured wall-time
//! cadence, quiescing every live thread wherever it stands (mid-segment
//! included) for the duration of the slowest record, exactly as the paper's
//! application-level checkpointing is free to barrier at its own frequency.
//! An earlier version only quiesced at segment boundaries, which capped the
//! checkpoint frequency at the workload's sub-thread granularity and made
//! coarse-segment programs (RE's ~1.8 s segments) lose whole segments per
//! rollback — a DNC the paper's CPR baseline does not have.

use crate::costs::MechCosts;
use crate::result::SimResult;
use crate::workload::{SimOp, Workload};
use gprs_core::exception::{ExceptionInjector, InjectorConfig};
use gprs_core::ids::{BarrierId, ChannelId, LockId};
use gprs_telemetry::{RetiredOrderHash, ScheduleHash, Telemetry, TelemetryConfig, TraceEvent};
use std::cmp::Reverse;

/// Ring index for events not attributable to a simulated context; routed to
/// the external ring by [`Telemetry::record`].
const EXTERNAL_RING: usize = usize::MAX;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Coordinated-CPR parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CprConfig {
    /// Cycles between checkpoint epochs (the paper uses the programs' sync
    /// frequency, rate-limited to 1/s for Pbzip2 and 5/s for Dedup).
    pub interval_cycles: u64,
}

/// Configuration of a free-running simulation.
#[derive(Debug, Clone)]
pub struct FreeRunConfig {
    /// Hardware contexts `n`.
    pub contexts: u32,
    /// Mechanism costs.
    pub costs: MechCosts,
    /// `Some` enables coordinated CPR; `None` is the plain Pthreads
    /// baseline.
    pub cpr: Option<CprConfig>,
    /// Exception injection (requires `cpr`; the Pthreads baseline has no
    /// recovery and is always run exception-free, as in the paper).
    pub exceptions: Option<InjectorConfig>,
    /// Wall-clock cap in cycles; exceeding it reports DNC.
    pub time_cap_cycles: u64,
    /// Telemetry recording (events and metrics; the free engines have no
    /// deterministic grant order, so the determinism hashes stay empty).
    pub telemetry: TelemetryConfig,
}

impl FreeRunConfig {
    /// A Pthreads baseline on `n` contexts with a generous time cap.
    pub fn pthreads(contexts: u32) -> Self {
        FreeRunConfig {
            contexts,
            costs: MechCosts::paper_default(),
            cpr: None,
            exceptions: None,
            time_cap_cycles: u64::MAX / 4,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// A coordinated-CPR run on `n` contexts with the given checkpoint
    /// interval.
    pub fn cpr(contexts: u32, interval_cycles: u64) -> Self {
        FreeRunConfig {
            cpr: Some(CprConfig { interval_cycles }),
            ..Self::pthreads(contexts)
        }
    }

    /// Enables exception injection.
    pub fn with_exceptions(mut self, injector: InjectorConfig) -> Self {
        self.exceptions = Some(injector);
        self
    }

    /// Sets the DNC cap.
    pub fn with_time_cap(mut self, cycles: u64) -> Self {
        self.time_cap_cycles = cycles;
        self
    }

    /// Sets the telemetry configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Segment work in progress; a completion event is in the heap.
    Running,
    /// Parked on an empty channel.
    PopWait,
    /// Waiting for barrier peers.
    BarrierWait,
    Done,
}

/// Heap sentinel for checkpoint-epoch events (no thread index).
const CKPT_EVENT: usize = usize::MAX;

#[derive(Debug)]
struct FreeThread {
    seg_ix: usize,
    phase: Phase,
}

#[derive(Debug, Default)]
struct ChanState {
    items: usize,
    waiters: VecDeque<usize>,
}

/// Runs a workload on the free-running engine.
///
/// # Examples
/// ```
/// use gprs_sim::free::{run_free, FreeRunConfig};
/// use gprs_sim::workload::{Segment, SimOp, ThreadSpec, Workload};
/// use gprs_core::ids::{GroupId, ThreadId};
/// let w = Workload::new("tiny", vec![
///     ThreadSpec::new(ThreadId::new(0), GroupId::new(0), 1,
///                     vec![Segment::new(1_000, SimOp::End)]),
/// ]);
/// let r = run_free(&w, &FreeRunConfig::pthreads(4));
/// assert!(r.completed);
/// assert!(r.finish_cycles >= 1_000);
/// ```
pub fn run_free(workload: &Workload, config: &FreeRunConfig) -> SimResult {
    Free::new(workload, config).run()
}

struct Free<'a> {
    w: &'a Workload,
    cfg: &'a FreeRunConfig,
    threads: Vec<FreeThread>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    locks: HashMap<LockId, u64>,
    chans: HashMap<ChannelId, ChanState>,
    barrier_arrived: HashMap<BarrierId, Vec<(usize, u64)>>,
    barrier_participants: HashMap<BarrierId, u32>,
    live: usize,
    // Exception state (wall = program + penalty). `last_safe_wall` is the
    // wall time of the most recent checkpoint completion or rollback
    // completion: progress made before it survives the next rollback.
    injector: Option<ExceptionInjector>,
    latency: u64,
    penalty: u64,
    last_safe_wall: u64,
    // Dilation for oversubscribed Pthreads scheduling.
    dilation: f64,
    switch_cost: u64,
    res: SimResult,
    finish: u64,
    tel: Telemetry,
    /// Checkpoint epochs released so far (the CPR events' epoch stamp).
    epochs: u64,
}

impl<'a> Free<'a> {
    fn new(w: &'a Workload, cfg: &'a FreeRunConfig) -> Self {
        let scheme = if cfg.cpr.is_some() { "P-CPR" } else { "Pthreads" };
        let t = w.threads.len() as f64;
        let n = f64::from(cfg.contexts.max(1));
        let over = (t - n).max(0.0);
        let dilation = (t / n).max(1.0) * (1.0 + cfg.costs.oversub_factor * over);
        let switch_cost = if t > n { cfg.costs.thread_switch } else { 0 };
        let injector = cfg
            .exceptions
            .clone()
            .filter(|_| cfg.cpr.is_some())
            .map(ExceptionInjector::new);
        let latency = cfg
            .exceptions
            .as_ref()
            .map(|e| e.detection_latency)
            .unwrap_or(0);
        Free {
            w,
            cfg,
            threads: Vec::new(),
            heap: BinaryHeap::new(),
            locks: HashMap::new(),
            chans: HashMap::new(),
            barrier_arrived: HashMap::new(),
            barrier_participants: w
                .barrier_participants()
                .into_iter()
                .collect(),
            live: w.threads.len(),
            injector,
            latency,
            penalty: 0,
            last_safe_wall: 0,
            dilation,
            switch_cost,
            res: SimResult::new(w.name.clone(), scheme),
            finish: 0,
            tel: Telemetry::new(&cfg.telemetry, cfg.contexts.max(1) as usize),
            epochs: 0,
        }
    }

    /// Seals the telemetry summary into the result (every exit path). The
    /// free engines have no grant order, so both hashes stay empty.
    fn finish_result(mut self) -> SimResult {
        self.res.telemetry = self
            .tel
            .summarize(&ScheduleHash::new(), &RetiredOrderHash::new());
        self.res
    }

    fn dilate(&self, work: u64) -> u64 {
        (work as f64 * self.dilation) as u64 + self.switch_cost
    }

    /// Schedules the start-of-segment computation of `th` at `now`.
    fn schedule(&mut self, th: usize, now: u64) {
        let seg = self.w.threads[th].segments[self.threads[th].seg_ix];
        let mut start = now;
        if let Some(m) = seg.nested {
            // The body's nested critical section serializes the whole body
            // against other holders of `m` (free-running threads block on
            // the inner mutex mid-body).
            start = start.max(self.locks.get(&m).copied().unwrap_or(0));
        }
        let end = start + self.dilate(seg.work);
        if let Some(m) = seg.nested {
            self.locks.insert(m, end);
        }
        self.threads[th].phase = Phase::Running;
        self.heap.push(Reverse((end, th)));
    }

    /// Advances `th` past its current segment's op and schedules the next.
    fn advance(&mut self, th: usize, now: u64) {
        self.threads[th].seg_ix += 1;
        self.schedule(th, now);
    }

    /// Drains exceptions striking the running program, charging CPR
    /// rollback penalties. Returns `false` on divergence (DNC).
    ///
    /// While the program runs (`finishing == false`), every exception
    /// reported up to wall time `program_now + penalty` rolls it back to the
    /// last safe point. Once the last event has executed
    /// (`finishing == true`), only exceptions *raised* before the
    /// (penalty-extended) wall finish can still strike, and a rollback can
    /// lose at most the work remaining after the last safe point.
    fn drain_exceptions(&mut self, program_now: u64, finishing: bool) -> bool {
        if self.injector.is_none() {
            return true;
        }
        // Divergence guard: a livelocked run (penalty growing faster than
        // exceptions arrive) would otherwise drain arrivals forever under a
        // generous time cap.
        let mut drained = 0u64;
        loop {
            drained += 1;
            if drained > 2_000_000 {
                return false;
            }
            let wall_finish = program_now.saturating_add(self.penalty);
            let inj = self.injector.as_mut().expect("checked above");
            let Some(next_raise) = inj.peek_next() else {
                return true;
            };
            let report = next_raise.saturating_add(self.latency);
            let admit = if finishing {
                next_raise < wall_finish
            } else {
                report <= wall_finish
            };
            if !admit {
                return true;
            }
            let e = inj.next_before(next_raise + 1).expect("peeked arrival");
            self.res.exceptions += 1;
            if e.scope == gprs_core::exception::ExceptionScope::Local {
                // Local exceptions need no rollback even under CPR: they
                // are handled precisely on the victim context (`§2.2`).
                self.res.exceptions_ignored += 1;
                continue;
            }
            // The rollback discards everything executed since the last safe
            // point (checkpoint completion or previous rollback completion),
            // then pays the restore wait. In the finishing phase the program
            // stops making progress at the wall finish, capping the loss.
            let progress_end = if finishing {
                report.min(wall_finish)
            } else {
                report
            };
            // Restoring the checkpoint re-reads the recorded program state
            // from stable storage, so the wait scales with the state size.
            let restore = self.cfg.costs.restore_wait + self.cfg.costs.cpr_restore;
            let lost = progress_end.saturating_sub(self.last_safe_wall) + restore;
            self.penalty += lost;
            self.last_safe_wall = progress_end + restore;
            self.res.redo_cycles += lost;
            self.res.squashed += 1; // one global rollback
            if self.tel.enabled() {
                self.tel.metrics.cpr_restores.inc();
                self.tel
                    .record(EXTERNAL_RING, TraceEvent::CprRestore { epoch: self.epochs });
            }
            if program_now.saturating_add(self.penalty) > self.cfg.time_cap_cycles {
                return false;
            }
        }
    }

    /// Takes a preemptive checkpoint epoch at wall time `t`: every live
    /// thread quiesces where it stands (mid-segment included), the epoch's
    /// state is recorded, and in-flight work resumes delayed by the barrier
    /// plus the slowest record. The cadence is the configured interval, not
    /// the workload's segment boundaries.
    ///
    /// Returns `false` if the program can make no further progress (no
    /// thread is computing and none can ever be woken): an ill-formed
    /// deadlocked trace, reported DNC by the caller.
    fn take_checkpoint(&mut self, t: u64) -> bool {
        if !self.threads.iter().any(|t| t.phase == Phase::Running) {
            return false;
        }
        let mut max_record = 0;
        let mut epoch_bytes = 0u64;
        let mut recorded = 0u64;
        for (th, state) in self.threads.iter().enumerate() {
            if state.phase == Phase::Done {
                continue;
            }
            let seg = &self.w.threads[th].segments[state.seg_ix];
            let cost = self.cfg.costs.ckpt_cost(seg.ckpt_bytes);
            max_record = max_record.max(cost);
            epoch_bytes += seg.ckpt_bytes;
            self.res.ckpt_cycles += cost;
            self.res.checkpoints += 1;
            recorded += 1;
        }
        self.epochs += 1;
        if self.tel.enabled() {
            let m = &self.tel.metrics;
            m.cpr_barriers.inc();
            m.cpr_records.inc();
            m.checkpoints.add(recorded);
            m.checkpoint_bytes.add(epoch_bytes);
            m.checkpoint_size.record(epoch_bytes);
            self.tel
                .record(EXTERNAL_RING, TraceEvent::CprBarrier { epoch: self.epochs });
            self.tel.record(
                EXTERNAL_RING,
                TraceEvent::CprRecord { epoch: self.epochs, bytes: epoch_bytes },
            );
        }
        let delay = self.cfg.costs.cpr_barrier + max_record + self.cfg.costs.cpr_record;
        self.res.ckpt_cycles += self.cfg.costs.cpr_record;
        // The quiesce stalls every in-flight completion for `delay`.
        let pending: Vec<(u64, usize)> =
            self.heap.drain().map(|Reverse(e)| e).collect();
        for (when, th) in pending {
            self.heap.push(Reverse((when + delay, th)));
        }
        let release = t + delay;
        self.last_safe_wall = release + self.penalty;
        let next = release + self.cfg.cpr.expect("cpr mode").interval_cycles;
        self.heap.push(Reverse((next, CKPT_EVENT)));
        true
    }

    /// Executes the op closing `th`'s current segment at time `now`.
    fn exec_op(&mut self, th: usize, now: u64) {
        let seg = self.w.threads[th].segments[self.threads[th].seg_ix];
        let op_cost = self.cfg.costs.sync_op;
        match seg.op {
            SimOp::Lock { lock, cs_work } => {
                let free_at = self.locks.get(&lock).copied().unwrap_or(0);
                let acq = now.max(free_at);
                let end_cs = acq + self.dilate(cs_work) + op_cost;
                self.locks.insert(lock, end_cs);
                self.advance(th, end_cs);
            }
            SimOp::Atomic { .. } => {
                self.advance(th, now + op_cost);
            }
            SimOp::Push { chan } => {
                let c = self.chans.entry(chan).or_default();
                if let Some(waiter) = c.waiters.pop_front() {
                    self.advance(waiter, now + op_cost);
                } else {
                    c.items += 1;
                }
                self.advance(th, now + op_cost);
            }
            SimOp::Pop { chan } => {
                let c = self.chans.entry(chan).or_default();
                if c.items > 0 {
                    c.items -= 1;
                    self.advance(th, now + op_cost);
                } else {
                    c.waiters.push_back(th);
                    self.threads[th].phase = Phase::PopWait;
                }
            }
            SimOp::Barrier { barrier } => {
                self.threads[th].phase = Phase::BarrierWait;
                let arrived = self.barrier_arrived.entry(barrier).or_default();
                arrived.push((th, now));
                let needed = self.barrier_participants[&barrier] as usize;
                if arrived.len() == needed {
                    let release = arrived.iter().map(|&(_, t)| t).max().unwrap() + op_cost;
                    let batch = std::mem::take(self.barrier_arrived.get_mut(&barrier).unwrap());
                    for (w, t) in batch {
                        self.res.barrier_wait_cycles += release - op_cost - t;
                        self.advance(w, release);
                    }
                }
            }
            SimOp::End => {
                self.threads[th].phase = Phase::Done;
                self.live -= 1;
                self.finish = self.finish.max(now);
            }
        }
    }

    fn run(mut self) -> SimResult {
        for _ in &self.w.threads {
            self.threads.push(FreeThread {
                seg_ix: 0,
                phase: Phase::Running,
            });
        }
        for th in 0..self.threads.len() {
            self.schedule(th, 0);
            self.threads[th].seg_ix = 0;
        }
        if let Some(cpr) = self.cfg.cpr {
            self.heap.push(Reverse((cpr.interval_cycles, CKPT_EVENT)));
        }

        while self.live > 0 {
            let Some(Reverse((t, th))) = self.heap.pop() else {
                // No runnable threads but some still live: the trace
                // deadlocked (ill-formed workload). Report DNC.
                self.res.finish_cycles = self.cfg.time_cap_cycles;
                return self.finish_result();
            };
            if t > self.cfg.time_cap_cycles {
                self.res.finish_cycles = self.cfg.time_cap_cycles;
                return self.finish_result();
            }
            if !self.drain_exceptions(t, false) {
                self.res.finish_cycles = self.cfg.time_cap_cycles;
                return self.finish_result();
            }
            if th == CKPT_EVENT {
                if !self.take_checkpoint(t) {
                    // Nothing is computing and nothing can wake: deadlock.
                    self.res.finish_cycles = self.cfg.time_cap_cycles;
                    return self.finish_result();
                }
                continue;
            }
            self.exec_op(th, t);
        }

        // Final drain: exceptions reported before the (penalty-extended)
        // finish time still cost rollbacks.
        if !self.drain_exceptions(self.finish, true) {
            self.res.finish_cycles = self.cfg.time_cap_cycles;
            return self.finish_result();
        }
        self.res.completed = true;
        self.res.finish_cycles = self.finish + self.penalty;
        self.finish_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{secs_to_cycles, MechCosts};
    use crate::workload::{Segment, ThreadSpec};
    use gprs_core::ids::{GroupId, ThreadId};

    fn spec(th: u32, segs: Vec<Segment>) -> ThreadSpec {
        ThreadSpec::new(ThreadId::new(th), GroupId::new(0), 1, segs)
    }

    fn data_parallel(threads: u32, work: u64) -> Workload {
        Workload::new(
            "dp",
            (0..threads)
                .map(|i| spec(i, vec![Segment::new(work, SimOp::End)]))
                .collect(),
        )
    }

    #[test]
    fn independent_threads_run_in_parallel() {
        let w = data_parallel(4, 1_000_000);
        let r = run_free(&w, &FreeRunConfig::pthreads(4));
        assert!(r.completed);
        // 4 threads on 4 contexts: wall ≈ one thread's work.
        assert!(r.finish_cycles < 1_100_000, "{}", r.finish_cycles);
    }

    #[test]
    fn oversubscription_dilates() {
        let base = run_free(&data_parallel(4, 1_000_000), &FreeRunConfig::pthreads(4));
        // Same total work split over 64 threads on 4 contexts.
        let over = run_free(&data_parallel(64, 62_500), &FreeRunConfig::pthreads(4));
        assert!(over.completed);
        assert!(
            over.finish_cycles > base.finish_cycles,
            "oversubscribed {} vs {}",
            over.finish_cycles,
            base.finish_cycles
        );
    }

    #[test]
    fn lock_contention_serializes_critical_sections() {
        let l = LockId::new(0);
        let cs = 1_000_000u64;
        let w = Workload::new(
            "locky",
            (0..4)
                .map(|i| {
                    spec(
                        i,
                        vec![Segment::new(0, SimOp::Lock { lock: l, cs_work: cs })],
                    )
                })
                .collect(),
        );
        let r = run_free(&w, &FreeRunConfig::pthreads(4));
        assert!(r.completed);
        assert!(r.finish_cycles >= 4 * cs, "CS must serialize: {}", r.finish_cycles);
    }

    #[test]
    fn pipeline_pop_blocks_until_push() {
        let c = ChannelId::new(0);
        let w = Workload::new(
            "pipe",
            vec![
                spec(0, vec![Segment::new(1_000_000, SimOp::Push { chan: c })]),
                spec(1, vec![Segment::new(0, SimOp::Pop { chan: c })]),
            ],
        );
        let r = run_free(&w, &FreeRunConfig::pthreads(2));
        assert!(r.completed);
        assert!(r.finish_cycles >= 1_000_000);
    }

    #[test]
    fn barrier_waits_for_all() {
        let b = BarrierId::new(0);
        let w = Workload::new(
            "barrier",
            vec![
                spec(
                    0,
                    vec![
                        Segment::new(100, SimOp::Barrier { barrier: b }),
                        Segment::new(100, SimOp::End),
                    ],
                ),
                spec(
                    1,
                    vec![
                        Segment::new(5_000_000, SimOp::Barrier { barrier: b }),
                        Segment::new(100, SimOp::End),
                    ],
                ),
            ],
        );
        let r = run_free(&w, &FreeRunConfig::pthreads(2));
        assert!(r.completed);
        assert!(r.finish_cycles >= 5_000_000);
        assert!(r.barrier_wait_cycles >= 4_000_000);
    }

    #[test]
    fn cpr_checkpointing_adds_overhead() {
        let w = Workload::new(
            "iter",
            (0..4)
                .map(|i| {
                    let segs = (0..20)
                        .map(|_| {
                            Segment::new(1_000_000, SimOp::Atomic {
                                atomic: gprs_core::ids::AtomicId::new(0),
                            })
                        })
                        .collect();
                    spec(i, segs)
                })
                .collect(),
        );
        let plain = run_free(&w, &FreeRunConfig::pthreads(4));
        let cpr = run_free(&w, &FreeRunConfig::cpr(4, 2_000_000));
        assert!(plain.completed && cpr.completed);
        assert!(cpr.finish_cycles > plain.finish_cycles);
        assert!(cpr.checkpoints > 0);
        assert!(cpr.ckpt_cycles > 0);
    }

    #[test]
    fn checkpoint_cadence_is_interval_driven() {
        // Segments three times longer than the checkpoint interval: the
        // preemptive quiesce must still checkpoint at the interval cadence,
        // not once per segment boundary (the old coupling capped coarse
        // programs like RE at one checkpoint per ~1.8 s segment and made
        // every rollback lose a whole segment).
        // ~150 ms segments against a ~30 ms checkpoint interval.
        let seg_work = secs_to_cycles(0.15);
        let interval = secs_to_cycles(0.03);
        let w = Workload::new(
            "coarse",
            (0..2)
                .map(|i| {
                    spec(
                        i,
                        (0..10)
                            .map(|_| {
                                Segment::new(seg_work, SimOp::Atomic {
                                    atomic: gprs_core::ids::AtomicId::new(i as u64),
                                })
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let r = run_free(&w, &FreeRunConfig::cpr(2, interval));
        assert!(r.completed);
        // ~1.5 s of work per thread: far more epochs than the 10 segment
        // boundaries the old scheme was capped at.
        let epochs = r.checkpoints / 2; // two records per epoch
        assert!(epochs > 10, "interval-driven cadence, got {epochs} epochs");
        // A rollback loses roughly interval + record + restore (~90 ms),
        // never a whole segment: 8 exc/s survives, where the
        // boundary-coupled scheme (losing an average half-segment plus the
        // restore, ~130 ms per rollback at best) sat past its tipping rate.
        let inj = InjectorConfig::paper(8.0, 2, crate::costs::CYCLES_PER_SEC).with_seed(11);
        let f = run_free(
            &w,
            &FreeRunConfig::cpr(2, interval)
                .with_exceptions(inj)
                .with_time_cap(secs_to_cycles(600.0)),
        );
        assert!(f.completed, "{f}");
        assert!(f.exceptions > 0);
    }

    #[test]
    fn exceptions_roll_back_to_last_checkpoint() {
        // Periodic sync points give CPR checkpoint opportunities; without
        // them every rollback would return to the program start and 5/s
        // would be past tipping.
        let w = Workload::new(
            "iter",
            (0..2)
                .map(|i| {
                    spec(
                        i,
                        (0..40)
                            .map(|_| {
                                Segment::new(secs_to_cycles(0.05), SimOp::Atomic {
                                    atomic: gprs_core::ids::AtomicId::new(0),
                                })
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let interval = secs_to_cycles(0.1);
        let base = run_free(&w, &FreeRunConfig::cpr(2, interval));
        let cap = base.finish_cycles * 40;
        let injected = run_free(
            &w,
            &FreeRunConfig::cpr(2, interval)
                .with_exceptions(
                    InjectorConfig::paper(5.0, 2, crate::costs::CYCLES_PER_SEC).with_seed(7),
                )
                .with_time_cap(cap),
        );
        assert!(base.completed && injected.completed, "{injected}");
        assert!(injected.exceptions > 0);
        assert!(injected.finish_cycles > base.finish_cycles);
        assert_eq!(injected.squashed, injected.exceptions);
    }

    #[test]
    fn excessive_exception_rate_causes_dnc() {
        let w = data_parallel(2, secs_to_cycles(5.0));
        // Checkpoint every second; 30 exceptions/s each losing ~0.5 s on
        // average: the program can never reach the next checkpoint.
        let r = run_free(
            &w,
            &FreeRunConfig::cpr(2, secs_to_cycles(1.0))
                .with_exceptions(InjectorConfig::paper(30.0, 2, crate::costs::CYCLES_PER_SEC))
                .with_time_cap(secs_to_cycles(500.0)),
        );
        assert!(!r.completed, "must DNC, got {}", r);
    }

    #[test]
    fn pthreads_runs_are_deterministic() {
        let w = data_parallel(8, 500_000);
        let a = run_free(&w, &FreeRunConfig::pthreads(4));
        let b = run_free(&w, &FreeRunConfig::pthreads(4));
        assert_eq!(a, b);
    }

    #[test]
    fn time_cap_reports_dnc() {
        let w = data_parallel(1, 1_000_000);
        let mut cfg = FreeRunConfig::pthreads(1);
        cfg.time_cap_cycles = 10;
        let r = run_free(&w, &cfg);
        assert!(!r.completed);
    }

    #[test]
    fn costs_default_is_paper_default() {
        assert_eq!(FreeRunConfig::pthreads(1).costs, MechCosts::paper_default());
    }
}
