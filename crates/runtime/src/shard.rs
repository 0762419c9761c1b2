//! Sharded order domains: one ordering/retirement engine per proven
//! [`ShardPlan`] domain, joined by lock-free cross-shard edges.
//!
//! The interference analysis (`gprs-analyze`) proves which threads can
//! never affect each other through locks, read-modify-write atomics, or
//! written plain cells. [`ShardPlan::coalesce_for_execution`] additionally
//! unions every channel's producer domains (and its consumer domains) so
//! each residual cross-domain channel is strictly SPSC. This module splits
//! the single built [`Inner`] along those execution domains:
//!
//! * each domain gets its own `OrderEnforcer` + `OrderGate`, reorder list,
//!   WAL, history store, telemetry facade and worker subset — the entire
//!   grant/retire hot path runs under a *per-domain* lock, so domains that
//!   never interfere never contend;
//! * cross-domain channels become [`EdgeQueue`] rendezvous points: a push
//!   is forwarded onto the edge only when the pushing sub-thread *retires*
//!   (retirement-committed, hence squash-proof), stamped with a sequence
//!   number the consumer asserts — deterministic transfer order by
//!   construction;
//! * cross-domain barriers go through the [`EdgeHub`]: arrivals are
//!   published at retirement of the arrival-ending sub-thread, the hub
//!   counts them per generation, and each domain applies releases locally
//!   in generation order.
//!
//! The global retired-order digest is recovered exactly: per-thread
//! retirement streams are invariant under domain placement and
//! [`gprs_telemetry::RetiredOrderHash`] combines them with wrapping
//! addition, so the merged digest is the wrapping sum of the per-domain
//! digests — bit-identical to an unsharded run of the same program, clean
//! or faulted.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use gprs_analyze::ShardPlan;
use gprs_core::ids::{BarrierId, ChannelId, ResourceId, ThreadId};
use gprs_core::ledger::RunLedger;
use gprs_core::order::EdgeQueue;
use gprs_core::workload::{SimOp, Workload};

use crate::engine::{BarrierRec, FileRec, Inner, Shared, SharedRef};
use crate::program::Payload;
use crate::report::{RunError, RunReport, RunStats, ShardSummary};
use parking_lot::Mutex;

/// One cross-domain barrier's hub-side state. `arrived` counts published
/// arrivals of the forming generation (arrivals are published exactly once,
/// at retirement of the arrival-ending sub-thread, so a squashed arrival is
/// never counted); `released` is the number of completed generations, only
/// ever incremented — domains apply releases locally by comparing it with
/// their local barrier generation.
#[derive(Debug)]
pub(crate) struct HubBarrier {
    participants: u32,
    arrived: AtomicU32,
    released: AtomicU64,
}

/// One cross-domain channel's hub-side state: the SPSC edge queue plus its
/// producer/consumer domains (unique by execution coalescing).
pub(crate) struct EdgeState {
    pub queue: Arc<EdgeQueue<Payload>>,
    pub from: usize,
    pub to: usize,
}

impl std::fmt::Debug for EdgeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeState")
            .field("from", &self.from)
            .field("to", &self.to)
            .field("forwarded", &self.queue.forwarded())
            .finish()
    }
}

/// The rendezvous fabric between domain engines. The hub owns no program
/// state and takes no engine lock: it only mutates atomics and issues
/// best-effort condvar wakes, so a domain can publish to it while holding
/// its own `Inner` lock without any cross-engine lock ordering.
#[derive(Debug)]
pub(crate) struct EdgeHub {
    domains: usize,
    pub edges: BTreeMap<ChannelId, EdgeState>,
    barriers: BTreeMap<BarrierId, HubBarrier>,
    /// Set when any domain poisons; every other domain finishes its pool
    /// without poisoning itself (the merged report surfaces the culprit's
    /// diagnostic).
    aborted: AtomicBool,
    /// Domains whose pools have finished (live threads drained).
    finished: AtomicUsize,
    /// Engines to wake on cross-domain progress, registered just before
    /// the pools spawn. `Weak` so a hub outliving its run cannot leak them.
    members: Mutex<Vec<Option<Weak<Shared>>>>,
}

impl EdgeHub {
    pub fn new(domains: usize) -> Self {
        EdgeHub {
            domains,
            edges: BTreeMap::new(),
            barriers: BTreeMap::new(),
            aborted: AtomicBool::new(false),
            finished: AtomicUsize::new(0),
            members: Mutex::new(vec![None; domains]),
        }
    }

    pub fn add_edge(&mut self, chan: ChannelId, from: usize, to: usize) {
        self.edges.insert(
            chan,
            EdgeState {
                queue: Arc::new(EdgeQueue::new()),
                from,
                to,
            },
        );
    }

    pub fn add_barrier(&mut self, b: BarrierId, participants: u32) {
        self.barriers.insert(
            b,
            HubBarrier {
                participants,
                arrived: AtomicU32::new(0),
                released: AtomicU64::new(0),
            },
        );
    }

    pub fn register_member(&self, domain: usize, member: Weak<Shared>) {
        self.members.lock()[domain] = Some(member);
    }

    /// Best-effort wake of one domain's scheduler queue. Liveness never
    /// rests on it alone: engines with cross-edges use bounded waits.
    pub fn wake_domain(&self, domain: usize) {
        let members = self.members.lock();
        if let Some(m) = members.get(domain).and_then(|m| m.as_ref()) {
            if let Some(shared) = m.upgrade() {
                shared.cv.notify_all();
            }
        }
    }

    pub fn wake_all(&self) {
        let members = self.members.lock();
        for m in members.iter().flatten() {
            if let Some(shared) = m.upgrade() {
                shared.cv.notify_all();
            }
        }
    }

    /// Publishes one retirement-committed barrier arrival. When the forming
    /// generation is complete the release counter bumps and every domain is
    /// woken to apply it locally. Returns `false` — after aborting the whole
    /// sharded run — if the barrier is unknown to the hub: a domain whose
    /// schedule state diverged must not silently drop an arrival its peers
    /// are counting on (they would deadlock waiting for the release).
    #[must_use]
    pub fn arrive(&self, b: BarrierId) -> bool {
        let Some(bar) = self.barriers.get(&b) else {
            self.abort();
            return false;
        };
        let arrived = bar.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        debug_assert!(arrived <= bar.participants, "over-arrival on {b}");
        if arrived == bar.participants {
            bar.arrived.store(0, Ordering::Release);
            bar.released.fetch_add(1, Ordering::Release);
            self.wake_all();
        }
        true
    }

    /// Completed generations of `b` (0 for non-hub barriers).
    pub fn released(&self, b: BarrierId) -> u64 {
        self.barriers
            .get(&b)
            .map_or(0, |bar| bar.released.load(Ordering::Acquire))
    }

    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        self.wake_all();
    }

    pub fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Marks one domain's pool finished. Ordered after that domain's last
    /// retirement (both happen under its engine lock before the pool
    /// exits), so a peer observing the new count also observes every
    /// arrival/forward the finishing domain published.
    pub fn domain_finished(&self) {
        self.finished.fetch_add(1, Ordering::AcqRel);
        self.wake_all();
    }

    pub fn peers_done(&self) -> bool {
        self.finished.load(Ordering::Acquire) >= self.domains.saturating_sub(1)
    }
}

/// Per-engine sharding context, attached to [`Inner`] when the engine runs
/// as one domain of a sharded execution.
pub(crate) struct ShardCtx {
    /// This engine's execution-domain index.
    pub domain: usize,
    /// Cross-domain channels this domain produces into: retired pushes are
    /// forwarded here (value = edge queue + consumer domain).
    pub out_edges: BTreeMap<ChannelId, (Arc<EdgeQueue<Payload>>, usize)>,
    /// Cross-domain channels this domain consumes from: drained into the
    /// local channel at the top of every decision.
    pub in_edges: BTreeMap<ChannelId, Arc<EdgeQueue<Payload>>>,
    /// Barriers whose participants span domains; releases come from the hub.
    pub edge_barriers: BTreeSet<BarrierId>,
    /// Every resource the plan maps into this domain; grants touching
    /// anything else poison with a named diagnostic instead of corrupting
    /// a peer domain's state.
    pub allowed: BTreeSet<ResourceId>,
    pub hub: Arc<EdgeHub>,
    /// Whether this domain already published its finish to the hub.
    pub finish_published: bool,
}

impl std::fmt::Debug for ShardCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCtx")
            .field("domain", &self.domain)
            .field("out_edges", &self.out_edges.keys().collect::<Vec<_>>())
            .field("in_edges", &self.in_edges.keys().collect::<Vec<_>>())
            .field("edge_barriers", &self.edge_barriers)
            .finish_non_exhaustive()
    }
}

impl ShardCtx {
    /// Whether this domain exchanges anything with a peer. Edge-connected
    /// domains use bounded scheduler waits (peer notifications are
    /// best-effort; the bound closes the lost-wakeup window without taking
    /// cross-engine locks). Isolated domains — the scaling showcase — keep
    /// indefinite waits and pay nothing.
    pub fn has_cross_edges(&self) -> bool {
        !self.out_edges.is_empty() || !self.in_edges.is_empty() || !self.edge_barriers.is_empty()
    }
}

/// A sharded runtime: one engine per execution domain over disjoint worker
/// pools, producing one merged [`RunReport`] whose determinism digests are
/// bit-identical to the unsharded run.
pub struct ShardedGprs {
    pub(crate) engines: Vec<SharedRef>,
    pub(crate) hub: Option<Arc<EdgeHub>>,
    pub(crate) analysis: Option<gprs_analyze::AnalysisReport>,
    /// Build-time validation failure, surfaced as `RunError::Poisoned` from
    /// [`ShardedGprs::run`] so callers handle stale plans and unsupported
    /// configurations through one error path.
    pub(crate) error: Option<String>,
}

impl std::fmt::Debug for ShardedGprs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGprs")
            .field("domains", &self.engines.len())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl ShardedGprs {
    pub(crate) fn failed(msg: String) -> Self {
        ShardedGprs {
            engines: Vec::new(),
            hub: None,
            analysis: None,
            error: Some(msg),
        }
    }

    /// Number of execution domains (1 when the plan collapsed to a single
    /// domain and the run is effectively unsharded).
    pub fn domains(&self) -> usize {
        self.engines.len().max(1)
    }

    /// Runs every domain's worker pool concurrently and merges the
    /// per-domain reports.
    ///
    /// # Errors
    /// Returns [`RunError::Poisoned`] for build-time validation failures
    /// (stale shard plan, unsupported configuration) and for any domain
    /// poisoning at runtime (first poisoned domain in domain order wins;
    /// peers abort without poisoning themselves).
    pub fn run(mut self) -> Result<RunReport, RunError> {
        if let Some(msg) = self.error.take() {
            return Err(RunError::Poisoned(msg));
        }
        if let Some(hub) = &self.hub {
            for (d, shared) in self.engines.iter().enumerate() {
                hub.register_member(d, Arc::downgrade(shared));
            }
        }
        let reports = crate::run_pools(&self.engines)?;
        let summaries = reports
            .iter()
            .enumerate()
            .map(|(d, r)| summary_of(d, r))
            .collect();
        Ok(merge_reports(reports, summaries, self.analysis))
    }
}

fn summary_of(domain: usize, r: &RunReport) -> ShardSummary {
    ShardSummary {
        domain,
        retired: r.stats.retired,
        retired_hash: r.telemetry.retired_hash,
        grants: r.stats.grants,
        wal_appends: r.telemetry.counter("wal_appends"),
        wal_undos: r.telemetry.counter("wal_undos"),
        wal_prunes: r.telemetry.counter("wal_prunes"),
    }
}

fn merge_stats(a: &mut RunStats, b: &RunStats) {
    a.subthreads += b.subthreads;
    a.retired += b.retired;
    a.grants += b.grants;
    a.polls += b.polls;
    a.exceptions += b.exceptions;
    a.exceptions_ignored += b.exceptions_ignored;
    a.squashed += b.squashed;
    a.recoveries += b.recoveries;
    a.locks_acquired += b.locks_acquired;
    a.spawns += b.spawns;
    a.barrier_releases += b.barrier_releases;
    a.serialized += b.serialized;
    a.allocs += b.allocs;
    a.rol_peak = a.rol_peak.max(b.rol_peak);
    a.races += b.races;
    a.hybrid_escalations += b.hybrid_escalations;
}

fn merge_telemetry(a: &mut gprs_telemetry::TelemetrySummary, b: gprs_telemetry::TelemetrySummary) {
    a.enabled |= b.enabled;
    // Per-thread retirement streams are placement-invariant and thread sets
    // are disjoint, so the wrapping sum reproduces the unsharded digest
    // exactly. The schedule digest is summed the same way for stability
    // across merges but is order-sensitive per domain, so — like
    // worker-count variations in a single engine — it is not comparable
    // across sharded and unsharded modes.
    a.schedule_hash = a.schedule_hash.wrapping_add(b.schedule_hash);
    a.schedule_grants += b.schedule_grants;
    a.retired_hash = a.retired_hash.wrapping_add(b.retired_hash);
    a.retired_count += b.retired_count;
    for (name, v) in b.counters {
        match a.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => *acc += v,
            None => a.counters.push((name, v)),
        }
    }
    for (name, h) in b.histograms {
        match a.histograms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => {
                acc.count += h.count;
                acc.sum += h.sum;
                acc.max = acc.max.max(h.max);
                if acc.buckets.len() < h.buckets.len() {
                    acc.buckets.resize(h.buckets.len(), 0);
                }
                for (i, c) in h.buckets.into_iter().enumerate() {
                    acc.buckets[i] += c;
                }
            }
            None => a.histograms.push((name, h)),
        }
    }
    // Each domain numbers `seq` from 0 on its own facade: the merged trace
    // is domain-major, one ascending slice per domain (`TelemetrySummary::events`).
    a.trace.append(b.trace);
    a.dropped_events += b.dropped_events;
    a.raw_grant_trace.extend(b.raw_grant_trace);
}

fn merge_reports(
    mut reports: Vec<RunReport>,
    summaries: Vec<ShardSummary>,
    analysis: Option<gprs_analyze::AnalysisReport>,
) -> RunReport {
    let mut base = reports.remove(0);
    for r in reports {
        merge_stats(&mut base.stats, &r.stats);
        base.outputs.extend(r.outputs);
        for (id, (name, bytes)) in r.files {
            let entry = base.files.entry(id).or_insert_with(|| (name, Vec::new()));
            // Committed bytes concatenate in domain order: deterministic,
            // and exact whenever a file has a single writing domain (all
            // shard-clean workloads; the plan keeps writers colocated).
            entry.1.extend(bytes);
        }
        merge_telemetry(&mut base.telemetry, r.telemetry);
        if base.first_race.is_none() {
            base.first_race = r.first_race;
        }
    }
    base.analysis = analysis;
    base.shards = summaries;
    base
}

/// Where each model resource lives, per execution domain.
pub(crate) struct ResourceMap {
    /// Resource -> execution domains whose threads touch it.
    touched: BTreeMap<ResourceId, BTreeSet<usize>>,
    /// Channel -> (producer domains, consumer domains).
    chan_ends: BTreeMap<ChannelId, (BTreeSet<usize>, BTreeSet<usize>)>,
}

/// Validates the execution plan against the builder's engine — model and
/// plan must cover exactly the registered threads: the plan's domains are
/// only sound for the topology the analysis saw — and maps every model
/// resource to the domains that touch it.
pub(crate) fn map_resources(
    registered: u32,
    model: &Workload,
    exec: &ShardPlan,
) -> Result<ResourceMap, String> {
    let model_threads: BTreeSet<ThreadId> = model.threads.iter().map(|t| t.thread).collect();
    let live_threads: BTreeSet<ThreadId> = (0..registered).map(ThreadId::new).collect();
    if model_threads != live_threads {
        return Err(format!(
            "stale shard plan for {:?}: the attached model describes threads {:?} \
             but the builder registered {:?}",
            model.name,
            model_threads.iter().map(|t| t.raw()).collect::<Vec<_>>(),
            live_threads.iter().map(|t| t.raw()).collect::<Vec<_>>(),
        ));
    }
    let plan_threads: BTreeSet<ThreadId> = exec
        .domains
        .iter()
        .flat_map(|d| d.threads.iter().copied())
        .collect();
    if plan_threads != live_threads {
        return Err(format!(
            "stale shard plan for {:?}: plan covers {} thread(s), run has {}",
            model.name,
            plan_threads.len(),
            live_threads.len(),
        ));
    }
    let mut spec_of = BTreeMap::new();
    for spec in &model.threads {
        spec_of.insert(spec.thread, spec);
    }
    let mut touched: BTreeMap<ResourceId, BTreeSet<usize>> = BTreeMap::new();
    let mut chan_ends: BTreeMap<ChannelId, (BTreeSet<usize>, BTreeSet<usize>)> = BTreeMap::new();
    for (dix, dom) in exec.domains.iter().enumerate() {
        for tid in &dom.threads {
            let spec = spec_of.get(tid).ok_or_else(|| {
                format!("stale shard plan: {tid} is in the plan but not in the model")
            })?;
            for seg in &spec.segments {
                match seg.op {
                    SimOp::Lock { lock, .. } => {
                        touched.entry(ResourceId::Lock(lock)).or_default().insert(dix);
                    }
                    SimOp::Atomic { atomic } => {
                        touched
                            .entry(ResourceId::Atomic(atomic))
                            .or_default()
                            .insert(dix);
                    }
                    SimOp::Push { chan } => {
                        touched
                            .entry(ResourceId::Channel(chan))
                            .or_default()
                            .insert(dix);
                        chan_ends.entry(chan).or_default().0.insert(dix);
                    }
                    SimOp::Pop { chan } => {
                        touched
                            .entry(ResourceId::Channel(chan))
                            .or_default()
                            .insert(dix);
                        chan_ends.entry(chan).or_default().1.insert(dix);
                    }
                    SimOp::Barrier { barrier } => {
                        touched
                            .entry(ResourceId::Barrier(barrier))
                            .or_default()
                            .insert(dix);
                    }
                    SimOp::End => {}
                }
                if let Some(l) = seg.nested {
                    touched.entry(ResourceId::Lock(l)).or_default().insert(dix);
                }
                if let Some((cell, _)) = seg.plain {
                    touched.entry(ResourceId::Atomic(cell)).or_default().insert(dix);
                }
            }
        }
    }
    Ok(ResourceMap { touched, chan_ends })
}

/// Splits the fully configured single-engine state `base` (cfg final,
/// threads registered) along the plan's two or more execution domains into
/// per-domain engines wired through an [`EdgeHub`].
pub(crate) fn assemble(
    mut base: Inner,
    model: &Workload,
    exec: &ShardPlan,
    resources: &ResourceMap,
    analysis: Option<gprs_analyze::AnalysisReport>,
) -> ShardedGprs {
    // Cross-domain rendezvous: SPSC channels and whole-domain barriers.
    let mut hub = EdgeHub::new(exec.domains.len());
    let mut spec_of = BTreeMap::new();
    for spec in &model.threads {
        spec_of.insert(spec.thread, spec);
    }
    for (&chan, (pushers, poppers)) in &resources.chan_ends {
        let cross = resources
            .touched
            .get(&ResourceId::Channel(chan))
            .is_some_and(|doms| doms.len() > 1);
        if !cross {
            continue;
        }
        if pushers.len() > 1 || poppers.len() > 1 {
            return ShardedGprs::failed(format!(
                "shard plan for {:?} is not execution-coalesced: cross-domain \
                 channel {chan} has {} producer and {} consumer domain(s)",
                model.name,
                pushers.len(),
                poppers.len(),
            ));
        }
        let (Some(&from), Some(&to)) = (pushers.iter().next(), poppers.iter().next()) else {
            return ShardedGprs::failed(format!(
                "stale shard plan for {:?}: cross-domain channel {chan} is \
                 missing a producer or consumer",
                model.name,
            ));
        };
        hub.add_edge(chan, from, to);
    }
    for (res, doms) in &resources.touched {
        let ResourceId::Barrier(b) = *res else { continue };
        if doms.len() <= 1 {
            continue;
        }
        // Determinism of the release point requires the whole domain to
        // quiesce at the rendezvous: every thread of every participating
        // domain must itself wait on the barrier.
        for &dix in doms {
            for tid in &exec.domains[dix].threads {
                let participates = spec_of[tid].segments.iter().any(
                    |s| matches!(s.op, SimOp::Barrier { barrier } if barrier == b),
                );
                if !participates {
                    return ShardedGprs::failed(format!(
                        "sharded execution requires whole-domain barrier \
                         participation: {tid} of domain {dix} does not wait \
                         on cross-domain barrier {b}",
                    ));
                }
            }
        }
        let participants = base
            .barriers
            .get(&b)
            .map_or(0, |bar| bar.participants);
        hub.add_barrier(b, participants);
    }
    let hub = Arc::new(hub);

    let workers_per_domain = (base.cfg.workers / exec.domains.len()).max(1);
    let mut engines = Vec::with_capacity(exec.domains.len());
    for (dix, dom) in exec.domains.iter().enumerate() {
        let mut cfg = base.cfg.clone();
        cfg.workers = workers_per_domain;
        let ledger = RunLedger::new(&cfg.telemetry, cfg.workers, 0, false);
        let mut inner = Inner::new(cfg, ledger);
        inner.next_thread = base.next_thread;
        for &tid in &dom.threads {
            let rec = base.threads.remove(&tid).expect("thread set validated");
            inner
                .enforcer
                .register_thread(tid, rec.group, rec.weight)
                .expect("unique thread ids");
            inner.threads.insert(tid, rec);
        }
        inner.live = inner.threads.len();
        // Atomics replicate by value: RMW atomics and written plain cells
        // are domain-private by the interference proof; read-only plain
        // cells are safely duplicated.
        inner.atomics = base.atomics.clone();
        // Channels start empty everywhere; producer domains stage pushes in
        // their local replica until retirement forwards them.
        for &chan in base.chans.keys() {
            inner.chans.entry(chan).or_default();
        }
        // Barriers keep their *global* participant counts; local releases
        // for cross-domain barriers come from the hub, never from a local
        // `waiting == participants` (which cannot fire across domains).
        for (&b, bar) in &base.barriers {
            inner.barriers.insert(
                b,
                BarrierRec {
                    participants: bar.participants,
                    waiting: Vec::new(),
                    gen: 0,
                },
            );
        }
        // Files replicate by name; the merged report concatenates committed
        // bytes in domain order.
        for (&id, f) in &base.files {
            inner.files.insert(
                id,
                FileRec {
                    name: f.name.clone(),
                    committed: Vec::new(),
                },
            );
        }
        // Chaos plans execute against domain 0's engine (grant keys are
        // domain-local and the committed leg plans target it).
        if dix == 0 {
            inner.chaos = base.chaos.take();
        }
        let allowed: BTreeSet<ResourceId> = resources
            .touched
            .iter()
            .filter(|(_, doms)| doms.contains(&dix))
            .map(|(&res, _)| res)
            .collect();
        let mut out_edges = BTreeMap::new();
        let mut in_edges = BTreeMap::new();
        for (&chan, edge) in &hub.edges {
            if edge.from == dix {
                out_edges.insert(chan, (edge.queue.clone(), edge.to));
            }
            if edge.to == dix {
                in_edges.insert(chan, edge.queue.clone());
            }
        }
        let edge_barriers = resources
            .touched
            .iter()
            .filter_map(|(res, doms)| match res {
                ResourceId::Barrier(b) if doms.len() > 1 && doms.contains(&dix) => Some(*b),
                _ => None,
            })
            .collect();
        inner.shard = Some(ShardCtx {
            domain: dix,
            out_edges,
            in_edges,
            edge_barriers,
            allowed,
            hub: hub.clone(),
            finish_published: false,
        });
        engines.push(Arc::new(Shared::new(inner)));
    }
    // Locks move wholesale to their owning domain (the interference proof
    // makes multi-domain locks impossible); unmodeled locks stay usable in
    // domain 0.
    for (lock, rec) in std::mem::take(&mut base.locks) {
        let owner = resources
            .touched
            .get(&ResourceId::Lock(lock))
            .and_then(|doms| doms.iter().next().copied())
            .unwrap_or(0);
        engines[owner].inner.lock().locks.insert(lock, rec);
    }
    ShardedGprs {
        engines,
        hub: Some(hub),
        analysis,
        error: None,
    }
}
