//! Beacon workers: independent compute threads that publish per-round
//! progress into private write-only "beacon" cells with plain stores.
//!
//! Nothing ever reads a beacon cell — not another thread, not the writer
//! itself — so the static restartability analysis proves every beacon a
//! *dead cell*: a squash may leave it stale without any execution
//! observing the difference, and deterministic re-execution overwrites it.
//! The workload therefore exists to exercise the prove-then-elide path
//! end to end: built with [`gprs_runtime::GprsBuilder::elide`] and the
//! matching [`beacon_model`], the runtime skips the `PlainStore` WAL undo
//! record for every beacon write (`wal_records_elided` counts them) while
//! the retired order stays bit-identical to an elision-off run.
//!
//! Each worker is fully self-contained (private beacon, private boundary
//! ticket, its own scheduling group), so the interference analysis also
//! partitions the model into one order domain per worker — the workload
//! doubles as the multi-domain `ShardPlan` exemplar.

use gprs_core::history::Checkpoint;
use gprs_core::ids::{AtomicId, GroupId, ThreadId};
use gprs_core::workload::{PlainKind, Segment, SimOp, ThreadSpec, Workload};
use gprs_runtime::ctx::StepCtx;
use gprs_runtime::handles::AtomicHandle;
use gprs_runtime::program::{Step, ThreadProgram};
use gprs_runtime::Registry;

/// Cycles of modeled computation per beacon round (trace-level only; the
/// real worker's computation is the checksum fold below).
const ROUND_WORK: u64 = 400;

/// One beacon worker: folds a seeded checksum each round, stores its
/// round count into the write-only beacon cell, and ends the sub-thread
/// on its private ticket atomic.
pub struct BeaconWorker {
    beacon: AtomicHandle,
    ticket: AtomicHandle,
    seed: u64,
    rounds: u32,
    done: u32,
    sum: u64,
}

impl BeaconWorker {
    /// Creates a worker over its private `beacon` and `ticket` cells.
    pub fn new(beacon: AtomicHandle, ticket: AtomicHandle, seed: u64, rounds: u32) -> Self {
        BeaconWorker {
            beacon,
            ticket,
            seed,
            rounds: rounds.max(1),
            done: 0,
            sum: 0,
        }
    }
}

impl Checkpoint for BeaconWorker {
    type Snapshot = (u32, u64);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.done, self.sum)
    }
    fn restore(&mut self, s: &Self::Snapshot) {
        self.done = s.0;
        self.sum = s.1;
    }
}

impl ThreadProgram for BeaconWorker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.done == self.rounds {
            return Step::exit(self.sum);
        }
        // The round's computation: one FNV-1a fold over the seeded stream.
        self.sum = (self.sum ^ self.seed.wrapping_add(u64::from(self.done)))
            .wrapping_mul(0x100000001b3);
        self.done += 1;
        // The dead store: progress published for an observer that never
        // materializes. With elision proven, this store's WAL undo record
        // is skipped.
        ctx.plain_store(&self.beacon, u64::from(self.done));
        self.ticket.fetch_add(1)
    }
}

/// Wires one beacon worker per entry of `rounds` onto either builder
/// (worker `w` runs `rounds[w]` rounds). Per worker, the beacon cell is
/// registered first and the boundary ticket second, so worker `w` owns
/// `AtomicId(2w)` (beacon) and `AtomicId(2w + 1)` (ticket) — the id
/// mapping [`beacon_model_rounds`] mirrors. Returns the beacon handles.
pub fn build_beacon_rounds(b: &mut Registry, rounds: &[u32]) -> Vec<AtomicHandle> {
    let mut beacons = Vec::with_capacity(rounds.len());
    for (w, &r) in rounds.iter().enumerate() {
        let beacon = b.atomic(0);
        let ticket = b.atomic(0);
        b.thread(
            BeaconWorker::new(beacon, ticket, 0x9E3779B97F4A7C15 ^ w as u64, r),
            GroupId::new(w as u32),
            1,
        );
        beacons.push(beacon);
    }
    beacons
}

/// [`build_beacon_rounds`] with `workers` uniform workers of `rounds`
/// rounds each — the committed campaign shape.
pub fn build_beacon(b: &mut Registry, workers: usize, rounds: u32) -> Vec<AtomicHandle> {
    build_beacon_rounds(b, &vec![rounds.max(1); workers.max(1)])
}

/// The trace-level model of [`build_beacon_rounds`] with the same per-
/// worker round counts: per round one segment of [`ROUND_WORK`] cycles
/// closed by the private ticket fetch-add, with a plain write to the
/// private beacon cell in its body. Atomic ids follow the builder's
/// registration order (beacon `2w`, ticket `2w + 1`).
pub fn beacon_model_rounds(rounds: &[u32]) -> Workload {
    let threads = rounds
        .iter()
        .enumerate()
        .map(|(w, &r)| {
            let beacon = AtomicId::new(2 * w as u64);
            let ticket = AtomicId::new(2 * w as u64 + 1);
            let segs = (0..r.max(1))
                .map(|_| {
                    Segment::new(ROUND_WORK, SimOp::Atomic { atomic: ticket })
                        .with_plain(beacon, PlainKind::Write)
                })
                .collect();
            ThreadSpec::new(ThreadId::new(w as u32), GroupId::new(w as u32), 1, segs)
        })
        .collect();
    Workload::new("beacon", threads)
}

/// The trace-level model of [`build_beacon`] (uniform round counts).
pub fn beacon_model(workers: usize, rounds: u32) -> Workload {
    beacon_model_rounds(&vec![rounds.max(1); workers.max(1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_runtime::GprsBuilder;

    #[test]
    fn model_proves_beacons_dead_and_domains_disjoint() {
        let w = beacon_model(4, 8);
        let rep = gprs_analyze::analyze(&w);
        assert!(rep.race_free(), "beacon model must be race-free");
        assert_eq!(
            rep.restart.dead_cells,
            (0..4).map(|i| AtomicId::new(2 * i)).collect::<Vec<_>>(),
            "every beacon cell is dead"
        );
        assert_eq!(rep.shard_plan.domains.len(), 4, "one domain per worker");
        assert!(rep.shard_plan.edges.is_empty());
    }

    #[test]
    fn runtime_and_model_agree_on_registration_order() {
        let mut b = GprsBuilder::new().workers(2);
        let beacons = build_beacon(&mut b, 3, 4);
        for (w, h) in beacons.iter().enumerate() {
            assert_eq!(h.id(), AtomicId::new(2 * w as u64));
        }
        let report = b
            .model(beacon_model(3, 4))
            .elide(true)
            .build()
            .run()
            .unwrap();
        assert_eq!(
            report.telemetry.counter("wal_records_elided"),
            3 * 4,
            "one elided undo record per beacon store"
        );
    }
}
