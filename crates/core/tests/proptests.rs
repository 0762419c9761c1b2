//! Property-based tests of the core model's invariants.

use gprs_core::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Ordering schedules
// ---------------------------------------------------------------------------

/// Arbitrary (group, weight) assignments for up to 12 threads.
fn thread_specs() -> impl Strategy<Value = Vec<(u32, u32)>> {
    vec((0u32..4, 1u32..4), 1..12)
}

/// A group's weight is a property of the group — conflicting registrations
/// are rejected — so coerce every member to its group's first-drawn weight.
fn normalize(specs: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut per_group = std::collections::HashMap::new();
    specs
        .iter()
        .map(|&(g, w)| (g, *per_group.entry(g).or_insert(w)))
        .collect()
}

proptest! {
    /// Every schedule is deterministic: two identically-driven instances
    /// produce identical holder sequences.
    #[test]
    fn schedules_are_deterministic(specs in thread_specs(), steps in 1usize..200) {
        let specs = normalize(&specs);
        for kind in [ScheduleKind::RoundRobin, ScheduleKind::BalanceBasic,
                     ScheduleKind::BalanceWeighted] {
            let mut a = kind.build();
            let mut b = kind.build();
            for (i, &(g, w)) in specs.iter().enumerate() {
                a.register_thread(ThreadId::new(i as u32), GroupId::new(g), w).unwrap();
                b.register_thread(ThreadId::new(i as u32), GroupId::new(g), w).unwrap();
            }
            for _ in 0..steps {
                prop_assert_eq!(a.holder(), b.holder());
                a.advance();
                b.advance();
            }
        }
    }

    /// Schedules are starvation-free: over enough turns, every registered
    /// thread holds the token at least once.
    #[test]
    fn schedules_are_starvation_free(specs in thread_specs()) {
        let specs = normalize(&specs);
        for kind in [ScheduleKind::RoundRobin, ScheduleKind::BalanceBasic,
                     ScheduleKind::BalanceWeighted] {
            let mut s = kind.build();
            for (i, &(g, w)) in specs.iter().enumerate() {
                s.register_thread(ThreadId::new(i as u32), GroupId::new(g), w).unwrap();
            }
            let mut seen = BTreeSet::new();
            // Max weight 4, max 4 groups => a generous bound on a full cycle.
            for _ in 0..specs.len() * 32 {
                seen.insert(s.holder().unwrap());
                s.advance();
            }
            prop_assert_eq!(seen.len(), specs.len());
        }
    }

    /// The basic balance-aware schedule distributes turns equally across
    /// groups regardless of group sizes.
    #[test]
    fn balance_basic_equalizes_groups(sizes in vec(1usize..5, 2..4)) {
        let mut s = BalanceAware::new();
        let mut next = 0u32;
        for (g, &size) in sizes.iter().enumerate() {
            for _ in 0..size {
                s.register_thread(ThreadId::new(next), GroupId::new(g as u32), 1).unwrap();
                next += 1;
            }
        }
        // Count turns per group over whole cycles.
        let cycles = 60;
        let mut group_turns = std::collections::HashMap::new();
        let mut thread_group = std::collections::HashMap::new();
        let mut id = 0u32;
        for (g, &size) in sizes.iter().enumerate() {
            for _ in 0..size {
                thread_group.insert(ThreadId::new(id), g);
                id += 1;
            }
        }
        let total = cycles * sizes.len();
        for _ in 0..total {
            let h = s.holder().unwrap();
            *group_turns.entry(thread_group[&h]).or_insert(0usize) += 1;
            s.advance();
        }
        for &turns in group_turns.values() {
            prop_assert_eq!(turns, cycles);
        }
    }

    /// The order enforcer assigns a gap-free total order no matter how the
    /// grant requests interleave.
    #[test]
    fn enforcer_total_order_has_no_gaps(specs in thread_specs(), requests in vec(0u32..12, 1..300)) {
        let specs = normalize(&specs);
        let mut e = OrderEnforcer::with_schedule(ScheduleKind::BalanceWeighted);
        for (i, &(g, w)) in specs.iter().enumerate() {
            e.register_thread(ThreadId::new(i as u32), GroupId::new(g), w).unwrap();
        }
        let n = specs.len() as u32;
        let mut granted = Vec::new();
        for r in requests {
            let t = ThreadId::new(r % n);
            if let Some(id) = e.try_grant(t) {
                granted.push(id.raw());
            }
        }
        for (i, &g) in granted.iter().enumerate() {
            prop_assert_eq!(g, i as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Reorder list
// ---------------------------------------------------------------------------

fn make_subthread(id: u64, thread: u32, lock: u64) -> SubThread {
    SubThread::new(
        SubThreadId::new(id),
        ThreadId::new(thread),
        GroupId::new(0),
        SubThreadKind::CriticalSection,
        Some(SyncOp::LockAcquire(LockId::new(lock))),
    )
}

proptest! {
    /// Retirement is exactly FIFO: whatever the completion order, retired
    /// ids come out oldest-first with no gaps.
    #[test]
    fn rol_retires_in_order(completion_order in Just(()).prop_flat_map(|_| {
        (1usize..20).prop_flat_map(|n| {
            (Just(n), proptest::sample::subsequence((0..n).collect::<Vec<_>>(), 0..=n))
        })
    })) {
        let (n, completed) = completion_order;
        let mut rol = ReorderList::new();
        for i in 0..n as u64 {
            rol.insert(make_subthread(i, (i % 4) as u32, i % 3)).unwrap();
        }
        for &c in &completed {
            rol.mark_completed(SubThreadId::new(c as u64)).unwrap();
        }
        let retired = rol.retire_ready();
        // Retired ids are the maximal completed prefix of 0..n.
        let completed_set: BTreeSet<usize> = completed.iter().copied().collect();
        let mut expect = Vec::new();
        for i in 0..n {
            if completed_set.contains(&i) {
                expect.push(i as u64);
            } else {
                break;
            }
        }
        let got: Vec<u64> = retired.iter().map(|e| e.id().raw()).collect();
        prop_assert_eq!(got, expect);
    }

    /// A lookup by id agrees with a `BTreeMap` model whatever has thinned
    /// the list: ids a structural grant consumed without an entry, head
    /// retirements, completions and squashed entries taken from the middle.
    /// Each step is `(kind, n)`: insert after skipping `n % 4` ids, complete
    /// or squash the model's `n`-th entry, or retire the completed head run.
    #[test]
    fn rol_lookup_by_id_matches_a_model(steps in vec((0u8..4, 0u64..64), 1..120)) {
        let mut rol: ReorderList<u64> = ReorderList::default();
        // id -> (completed, record)
        let mut model: BTreeMap<u64, (bool, u64)> = BTreeMap::new();
        let mut next = 0u64;
        for (kind, n) in steps {
            let nth = (!model.is_empty()).then(|| *model.keys().nth(n as usize % model.len()).unwrap());
            match (kind, nth) {
                (0, _) => {
                    next += n % 4;
                    rol.insert_with(make_subthread(next, (next % 3) as u32, 0), next * 10).unwrap();
                    model.insert(next, (false, next * 10));
                    next += 1;
                }
                (1, Some(id)) => {
                    rol.mark_completed(SubThreadId::new(id)).unwrap();
                    model.get_mut(&id).unwrap().0 = true;
                }
                (2, _) => {
                    let retired: Vec<u64> = rol.retire_ready().iter().map(|e| e.id().raw()).collect();
                    let mut expect = Vec::new();
                    while let Some(entry) = model.first_entry().filter(|e| e.get().0) {
                        expect.push(entry.remove_entry().0);
                    }
                    prop_assert_eq!(retired, expect);
                }
                (3, Some(id)) => {
                    rol.mark_squashed(SubThreadId::new(id)).unwrap();
                    let e = rol.remove_squashed(SubThreadId::new(id)).unwrap();
                    prop_assert_eq!((e.id().raw(), e.rec), (id, model.remove(&id).unwrap().1));
                }
                _ => {}
            }
            prop_assert_eq!(rol.len(), model.len());
            for raw in 0..next + 2 {
                let id = SubThreadId::new(raw);
                let want = model.get(&raw);
                prop_assert_eq!(rol.contains(id), want.is_some());
                prop_assert_eq!(rol.get(id).map(|e| (e.id().raw(), e.rec)), want.map(|&(_, r)| (raw, r)));
                prop_assert_eq!(rol.rec_mut(id).copied(), want.map(|&(_, r)| r));
                // Nothing here is marked squashed: a present entry refuses
                // to leave out of order, an absent one is unknown.
                let refused = match rol.remove_squashed(id) {
                    Err(GprsError::RetireIncomplete(x)) => Some(x == id),
                    Err(GprsError::UnknownSubThread(_)) => None,
                    other => panic!("remove_squashed({raw}) of an unsquashed entry: {other:?}"),
                };
                prop_assert_eq!(refused, want.map(|_| true));
            }
        }
    }

    /// The affected set is sandwiched between the culprit alone and the
    /// basic-recovery suffix, and Direct ⊆ Transitive.
    #[test]
    fn affected_set_bounds(n in 2u64..24, culprit_ix in 0u64..24,
                           locks in vec(0u64..4, 24), threads in vec(0u32..6, 24)) {
        let culprit = culprit_ix % n;
        let mut rol = ReorderList::new();
        for i in 0..n {
            rol.insert(make_subthread(i, threads[i as usize], locks[i as usize])).unwrap();
        }
        rol.mark_excepted(
            SubThreadId::new(culprit),
            Exception::global(ExceptionKind::SoftFault, ContextId::new(0), 0),
        ).unwrap();

        let culprit_id = SubThreadId::new(culprit);
        let direct = affected_set(&rol, culprit_id, DependencePolicy::Direct).unwrap();
        let trans = affected_set(&rol, culprit_id, DependencePolicy::Transitive).unwrap();
        prop_assert!(direct.iter().all(|d| trans.contains(d)));
        prop_assert_eq!(direct[0], culprit_id);
        // Oldest first, and nothing older than the culprit is ever affected.
        prop_assert!(trans.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(trans[0], culprit_id);
        // Transitive is bounded by the basic-recovery suffix.
        prop_assert!(trans.len() as u64 <= n - culprit);

        // Recovery plans agree with the sets.
        let plan = plan_recovery(&rol, culprit_id,
            RecoveryMode::Selective(DependencePolicy::Transitive), Precision::SubThread).unwrap();
        prop_assert_eq!(&plan.restart, &trans);
        let basic = plan_recovery(&rol, culprit_id,
            RecoveryMode::Basic, Precision::SubThread).unwrap();
        prop_assert_eq!(basic.squash.len() as u64, n - culprit);
        // squash (youngest-first) and restart (oldest-first) mirror each other.
        let mut restart = basic.restart.clone();
        restart.reverse();
        prop_assert_eq!(restart, basic.squash);
    }

    /// With no provenance the closure is the alias + same-thread set the
    /// pre-PR-18 `affected_set` computed (restated here as the reference),
    /// on channel-free reorder lists.
    #[test]
    fn no_provenance_closure_is_alias_plus_same_thread(
        n in 2u64..24, culprit_ix in 0u64..24,
        locks in vec(0u64..4, 24), threads in vec(0u32..6, 24),
    ) {
        let culprit = culprit_ix % n;
        let mut rol = ReorderList::new();
        for i in 0..n {
            rol.insert(make_subthread(i, threads[i as usize], locks[i as usize])).unwrap();
        }
        for policy in [DependencePolicy::Direct, DependencePolicy::Transitive] {
            let mut expect = vec![culprit];
            let mut tainted_threads = BTreeSet::from([threads[culprit as usize]]);
            let mut tainted_locks = BTreeSet::from([locks[culprit as usize]]);
            for i in culprit + 1..n {
                let (t, l) = (threads[i as usize], locks[i as usize]);
                if tainted_threads.contains(&t) || tainted_locks.contains(&l) {
                    expect.push(i);
                    if policy == DependencePolicy::Transitive {
                        tainted_threads.insert(t);
                        tainted_locks.insert(l);
                    }
                }
            }
            let got = affected_set(&rol, SubThreadId::new(culprit), policy).unwrap();
            prop_assert_eq!(got.iter().map(|s| s.raw()).collect::<Vec<_>>(), expect);
        }
    }

    /// Whatever edges the producers' records state, the closure stays
    /// between `{culprit}` and the basic suffix, and adding an edge never
    /// shrinks it.
    #[test]
    fn provenance_edges_only_grow_the_closure(
        n in 2u64..20, culprit_ix in 0u64..20,
        locks in vec(0u64..6, 20), threads in vec(0u32..8, 20),
        edges in vec((0u64..20, 0u64..20), 0..12),
    ) {
        struct Consumers(Vec<SubThreadId>);
        impl Provenance for Consumers {
            fn dependents(&self) -> &[SubThreadId] {
                &self.0
            }
        }
        let culprit = SubThreadId::new(culprit_ix % n);
        let mut rol = ReorderList::default();
        for i in 0..n {
            let st = make_subthread(i, threads[i as usize], locks[i as usize]);
            rol.insert_with(st, Consumers(Vec::new())).unwrap();
        }
        let suffix: Vec<SubThreadId> = std::iter::once(culprit)
            .chain(rol.iter_younger(culprit).map(|e| e.id()))
            .collect();
        let mut prev = affected_set(&rol, culprit, DependencePolicy::Transitive).unwrap();
        // Producer -> younger consumer, as an engine records them.
        for (a, b) in edges.into_iter().map(|(a, b)| (a.min(b) % n, a.max(b) % n)) {
            rol.rec_mut(SubThreadId::new(a)).unwrap().0.push(SubThreadId::new(b));
            let next = affected_set(&rol, culprit, DependencePolicy::Transitive).unwrap();
            prop_assert_eq!(next[0], culprit);
            prop_assert!(next.iter().all(|id| suffix.contains(id)));
            prop_assert!(prev.iter().all(|id| next.contains(id)), "an edge shrank the closure");
            prev = next;
        }
    }

    /// The recovery walk against a model of the list: after each session
    /// the list holds exactly the entries outside the planned scope, in
    /// order; the records come back youngest first; and each squashed
    /// thread restarts once, in thread order, from its oldest squashed
    /// record. One walk serves every session, as in an engine.
    #[test]
    fn the_recovery_walk_leaves_exactly_the_unsquashed_entries(
        steps in vec((0u8..3, 0u64..64, 0u32..5, 0u64..4), 1..80),
        selective in any::<bool>(),
    ) {
        struct Tag(u64);
        impl Provenance for Tag {}
        let policy = if selective { RecoveryPolicy::Selective } else { RecoveryPolicy::Basic };
        let mut rol: ReorderList<Tag> = ReorderList::default();
        let mut ledger = RunLedger::new(&gprs_telemetry::TelemetryConfig::default(), 1, 0, false);
        let mut walk = Recovery::default();
        // id -> thread
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let (mut next, mut squashed, mut restarts) = (0u64, 0u64, 0u64);
        for (kind, n, thread, lock) in steps {
            match kind {
                0 => {
                    next += n % 3;
                    rol.insert_with(make_subthread(next, thread, lock), Tag(next)).unwrap();
                    model.insert(next, thread);
                    next += 1;
                }
                1 => {
                    if let Some((&head, _)) = model.first_key_value() {
                        rol.mark_completed(SubThreadId::new(head)).unwrap();
                        prop_assert_eq!(rol.retire_ready().len(), 1);
                        model.remove(&head);
                    }
                }
                _ => {
                    let Some(&culprit) = model.keys().nth(n as usize % model.len().max(1)) else {
                        continue;
                    };
                    let exception = Exception::global(ExceptionKind::SoftFault, ContextId::new(0), 0);
                    prop_assert!(walk.begin(&mut rol, &ledger, 0, SubThreadId::new(culprit), exception));
                    let scope: Vec<u64> = walk
                        .plan(&rol, &ledger, policy)
                        .unwrap()
                        .ids
                        .iter()
                        .map(|id| id.raw())
                        .collect();
                    prop_assert_eq!(scope.first(), Some(&culprit));
                    prop_assert!(scope.windows(2).all(|w| w[0] < w[1]));
                    prop_assert!(scope.iter().all(|id| model.contains_key(id)));
                    if !selective {
                        prop_assert_eq!(&scope, &model.range(culprit..).map(|(&id, _)| id).collect::<Vec<_>>());
                    }
                    walk.squash_out(&mut rol, &mut ledger, |_| 0).unwrap();
                    let removed: Vec<(u32, u64, u64)> = walk
                        .removed()
                        .iter()
                        .map(|(t, id, rec)| (t.raw(), id.raw(), rec.0))
                        .collect();
                    let expect: Vec<(u32, u64, u64)> = scope.iter().rev().map(|&id| (model[&id], id, id)).collect();
                    prop_assert_eq!(removed, expect);
                    // Each squashed thread's oldest squashed sub-thread, in thread order.
                    let mut oldest: BTreeMap<u32, u64> = BTreeMap::new();
                    for &id in &scope {
                        oldest.entry(model[&id]).or_insert(id);
                    }
                    let got: Vec<(u32, u64)> = walk.restarts(&ledger).map(|(t, rec)| (t.raw(), rec.0)).collect();
                    prop_assert_eq!(got, oldest.into_iter().collect::<Vec<_>>());
                    restarts += scope.iter().map(|id| model[id]).collect::<BTreeSet<_>>().len() as u64;
                    prop_assert_eq!(walk.end(&ledger, None), scope.len() as u64);
                    squashed += scope.len() as u64;
                    model.retain(|id, _| scope.binary_search(id).is_err());
                }
            }
            let ids: Vec<u64> = rol.iter().map(|e| e.id().raw()).collect();
            prop_assert_eq!(ids, model.keys().copied().collect::<Vec<_>>());
        }
        let summary = ledger.summarize();
        prop_assert_eq!(summary.counter("squashed"), squashed);
        prop_assert_eq!(summary.counter("restarts"), restarts);
    }

    /// The kernel's open, complete and retire against a model of the list:
    /// each retirement hands the commit exactly the model's completed head
    /// run, oldest first, its batch names that run's ends and length, and
    /// the ledger's retired count and hash are the retired entries folded
    /// by hand. One retirement serves every batch, as in an engine.
    #[test]
    fn retirement_hands_over_exactly_the_completed_head_run(
        steps in vec((0u8..3, 0u64..64, 0u32..5), 1..120),
    ) {
        use gprs_core::retire;
        let mut rol: ReorderList<u64> = ReorderList::default();
        let mut ledger = RunLedger::new(&gprs_telemetry::TelemetryConfig::default(), 1, 0, false);
        let mut retirement = Retirement::default();
        // id -> (thread, completed)
        let mut model: BTreeMap<u64, (u32, bool)> = BTreeMap::new();
        let mut by_hand = gprs_telemetry::RetiredOrderHash::seeded(0);
        let tag = SubThreadKind::CriticalSection.tag();
        let (mut next, mut retired) = (0u64, 0u64);
        for (kind, n, thread) in steps {
            match kind {
                0 => {
                    next += n % 3;
                    let st = make_subthread(next, thread, n);
                    let opaque = Checkpointed::Opaque;
                    prop_assert_eq!(retire::open(&mut rol, &mut ledger, 0, st, next, opaque), None);
                    model.insert(next, (thread, false));
                    next += 1;
                }
                1 => {
                    let Some(&id) = model.keys().nth(n as usize % model.len().max(1)) else {
                        continue;
                    };
                    prop_assert_eq!(retire::complete(&mut rol, SubThreadId::new(id)), None);
                    model.insert(id, (model[&id].0, true));
                }
                _ => {
                    let mut committed = Vec::new();
                    let (batch, poison) = retirement.retire(
                        &mut rol,
                        &mut ledger,
                        |_| 0,
                        |_, acc| RetireFacts { open: None, accesses: acc, arrival: None },
                        |e| {
                            committed.push(e.rec);
                            None
                        },
                    );
                    prop_assert_eq!(poison, None);
                    let done = model.iter().take_while(|(_, &(_, done))| done);
                    let run: Vec<u64> = done.map(|(&id, _)| id).collect();
                    prop_assert_eq!(&committed, &run);
                    let ends = batch.map(|b| (b.ids.start().raw(), b.ids.end().raw(), b.len));
                    prop_assert_eq!(ends, run.first().map(|&f| (f, run[run.len() - 1], run.len())));
                    for id in run {
                        by_hand.record(model[&id].0, tag);
                        model.remove(&id);
                        retired += 1;
                    }
                }
            }
            let ids: Vec<u64> = rol.iter().map(|e| e.id().raw()).collect();
            prop_assert_eq!(ids, model.keys().copied().collect::<Vec<_>>());
        }
        prop_assert_eq!(ledger.digests().1, by_hand.digest());
        prop_assert_eq!(ledger.summarize().counter("retired"), retired);
    }
}

// ---------------------------------------------------------------------------
// Roster
// ---------------------------------------------------------------------------

/// A schedule that logs every registration, so a test sees the order the
/// roster registers threads in.
#[derive(Debug)]
struct Logged {
    registered: Vec<ThreadId>,
    log: std::sync::Arc<std::sync::Mutex<Vec<ThreadId>>>,
}

impl OrderingPolicy for Logged {
    fn register_thread(&mut self, thread: ThreadId, _: GroupId, _: u32) -> Result<()> {
        if self.registered.contains(&thread) {
            return Err(GprsError::DuplicateThread(thread));
        }
        self.registered.push(thread);
        self.log.lock().unwrap().push(thread);
        Ok(())
    }
    fn deregister_thread(&mut self, thread: ThreadId) -> Result<()> {
        let ix = self.registered.iter().position(|&t| t == thread);
        self.registered.remove(ix.ok_or(GprsError::UnknownThread(thread))?);
        Ok(())
    }
    fn holder(&self) -> Option<ThreadId> {
        self.registered.first().copied()
    }
    fn advance(&mut self) {}
    fn len(&self) -> usize {
        self.registered.len()
    }
    fn name(&self) -> &'static str {
        "logged"
    }
}

proptest! {
    /// The roster against a plain model of each thread's state and pending
    /// resume: after every add, arrival (and the release a full barrier
    /// makes), exit, revival, take-back and removal, the enforcer holds
    /// exactly the active threads, the live count is the threads that did
    /// not exit, each barrier's waiting list is the ascending set of threads
    /// parked on it and its generation the model's, a release registers its
    /// waiters in ascending id order, and a take-back asks every active
    /// thread, ascending, and re-parks exactly those about to resume.
    #[test]
    fn the_roster_registers_exactly_the_active_threads(
        steps in vec((0u8..6, 0u32..6, 0u64..2), 1..200),
    ) {
        let participants = [2u32, 3];
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let policy = Logged { registered: Vec::new(), log: log.clone() };
        let mut enforcer = OrderEnforcer::new(Box::new(policy));
        let mut ledger = RunLedger::new(&gprs_telemetry::TelemetryConfig::default(), 1, 0, false);
        let barriers = (0..2).map(|b| (BarrierId::new(b), Barrier::new(participants[b as usize])));
        let mut roster = Roster::new(barriers.collect());
        let mut model: BTreeMap<u32, ThState> = BTreeMap::new();
        let mut gens = [0u64; 2];
        // The engine's pending resumes, which a take-back clears.
        let mut resume: BTreeMap<u32, (BarrierId, u64)> = BTreeMap::new();
        for (op, raw, b) in steps {
            let (t, bar) = (ThreadId::new(raw), BarrierId::new(b));
            let state = model.get(&raw).copied();
            let active = state == Some(ThState::Active);
            match op {
                0 => {
                    let refused = roster.add(&mut enforcer, t, GroupId::new(raw % 2), 1);
                    prop_assert_eq!(refused.is_some(), state.is_some());
                    model.entry(raw).or_insert(ThState::Active);
                }
                1 => {
                    let (arrival, refused) = roster.arrive(&mut enforcer, &mut ledger, t, bar);
                    prop_assert_eq!(refused.is_some(), !active);
                    prop_assert_eq!(arrival.is_some(), active);
                    if active {
                        model.insert(raw, ThState::Parked(bar));
                        resume.remove(&raw);
                    }
                    let parked: Vec<ThreadId> = model
                        .iter()
                        .filter(|&(_, &s)| s == ThState::Parked(bar))
                        .map(|(&w, _)| ThreadId::new(w))
                        .collect();
                    let full = parked.len() as u32 == participants[b as usize];
                    if let Some(arrival) = arrival {
                        prop_assert_eq!(arrival, Arrival { gen: gens[b as usize] + 1, full });
                    }
                    if active && full {
                        let from = log.lock().unwrap().len();
                        let mut resumed = Vec::new();
                        let each = |w, gen| resumed.push((w, gen));
                        let refused = roster.release(&mut enforcer, bar, each);
                        prop_assert_eq!(refused, None);
                        gens[b as usize] += 1;
                        let gen = gens[b as usize];
                        let expect: Vec<_> = parked.iter().map(|&w| (w, gen)).collect();
                        prop_assert_eq!(resumed, expect);
                        prop_assert_eq!(&log.lock().unwrap()[from..], &parked[..]);
                        for w in parked {
                            model.insert(w.raw(), ThState::Active);
                            resume.insert(w.raw(), (bar, gen));
                        }
                    }
                }
                2 => {
                    prop_assert_eq!(roster.exit(&mut enforcer, &mut ledger, t).is_some(), !active);
                    if active {
                        model.insert(raw, ThState::Done);
                        resume.remove(&raw);
                    }
                }
                3 => {
                    prop_assert_eq!(roster.revive(&mut enforcer, t).ok(), state);
                    if state.is_some() {
                        model.insert(raw, ThState::Active);
                    }
                }
                4 => {
                    // Takes back the newest release, the one before it, or
                    // one not yet made.
                    let gen = (gens[b as usize] + 1).saturating_sub(u64::from(raw % 3));
                    let taken = (1..=gens[b as usize]).contains(&gen);
                    let active: Vec<u32> = model
                        .iter()
                        .filter(|&(_, &s)| taken && s == ThState::Active)
                        .map(|(&w, _)| w)
                        .collect();
                    let again = |(rb, g): (BarrierId, u64)| rb == bar && g >= gen;
                    let reparked: Vec<u32> = active
                        .iter()
                        .copied()
                        .filter(|w| resume.get(w).is_some_and(|&r| again(r)))
                        .collect();
                    let mut asked = Vec::new();
                    let refused = roster.take_back(&mut enforcer, bar, gen, |w| {
                        asked.push(w.raw());
                        let resuming = resume.get(&w.raw()).is_some_and(|&r| again(r));
                        if resuming {
                            resume.remove(&w.raw());
                        }
                        resuming
                    });
                    prop_assert_eq!(refused, None);
                    prop_assert_eq!(asked, active);
                    if taken {
                        gens[b as usize] = gen - 1;
                    }
                    for w in reparked {
                        model.insert(w, ThState::Parked(bar));
                    }
                }
                _ => {
                    prop_assert_eq!(roster.remove(&mut enforcer, t).is_some(), state.is_none());
                    model.remove(&raw);
                    resume.remove(&raw);
                }
            }
            let count = |s: ThState| model.values().filter(|&&m| m == s).count();
            prop_assert_eq!(enforcer.live_threads(), count(ThState::Active));
            prop_assert_eq!(roster.live(), model.len() - count(ThState::Done));
            for raw in 0..6 {
                prop_assert_eq!(roster.state(ThreadId::new(raw)), model.get(&raw).copied());
            }
            for (&id, barrier) in roster.barriers() {
                prop_assert!(barrier.waiting.windows(2).all(|w| w[0] < w[1]));
                let parked = model.iter().filter(|&(_, &s)| s == ThState::Parked(id));
                let parked: Vec<ThreadId> = parked.map(|(&w, _)| ThreadId::new(w)).collect();
                prop_assert_eq!(&barrier.waiting, &parked);
                prop_assert_eq!(barrier.gen, gens[id.raw() as usize]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

proptest! {
    /// Undoing a squash set then pruning retirees never loses unrelated
    /// records, and verification holds throughout.
    #[test]
    fn wal_partition_is_exact(ops in vec((0u64..8, 0u32..1000), 0..200),
                              squash in vec(0u64..8, 0..4)) {
        let mut wal = WriteAheadLog::new();
        for &(st, v) in &ops {
            wal.append(SubThreadId::new(st), v);
        }
        wal.verify().unwrap();
        let squash_set: BTreeSet<SubThreadId> =
            squash.iter().map(|&s| SubThreadId::new(s)).collect();
        let taken = wal.take_undo_records(&squash_set);
        // Taken records are exactly those of squashed sub-threads…
        prop_assert!(taken.iter().all(|r| squash_set.contains(&r.subthread)));
        // …newest-first…
        for w in taken.windows(2) {
            prop_assert!(w[0].lsn > w[1].lsn);
        }
        // …and the partition is exact.
        let expected_taken = ops.iter()
            .filter(|(st, _)| squash_set.contains(&SubThreadId::new(*st)))
            .count();
        prop_assert_eq!(taken.len(), expected_taken);
        prop_assert_eq!(wal.len(), ops.len() - expected_taken);
        wal.verify().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Analytic model
// ---------------------------------------------------------------------------

proptest! {
    /// GPRS's tipping bound dominates software CPR's by exactly n, for any
    /// parameters.
    #[test]
    fn gprs_bound_dominates(n in 1u32..64, t in 1e-3f64..1.0, tw in 1e-4f64..0.1) {
        let p = CostParams { contexts: n, interval: t, coord_time: 1e-3,
                             record_time: 1e-4, order_delay: 1e-5,
                             restore_wait: tw, communicating: n.max(2) / 2 };
        let cpr = p.max_exception_rate(Scheme::CprSoftware);
        let hw = p.max_exception_rate(Scheme::CprHardware);
        let gprs = p.max_exception_rate(Scheme::Gprs);
        prop_assert!((gprs / cpr - f64::from(n)).abs() < 1e-6);
        prop_assert!(cpr <= hw + 1e-12);
        prop_assert!(hw <= gprs + 1e-12);
        // Slowdown is monotone in the exception rate.
        let lo = p.predicted_slowdown(Scheme::Gprs, 0.1 * gprs);
        let hi = p.predicted_slowdown(Scheme::Gprs, 0.5 * gprs);
        prop_assert!(lo <= hi);
    }
}

/// Every id after the head sits past the slot its distance from the head
/// names (every other id is skipped), so every probe but the head's misses
/// its guessed slot and the lookup falls back to the search.
#[test]
fn rol_lookup_finds_entries_when_every_guessed_slot_misses() {
    let mut rol: ReorderList<u64> = ReorderList::default();
    let ids: Vec<u64> = (0..40).step_by(2).collect();
    for &id in &ids {
        rol.insert_with(make_subthread(id, 0, 0), id).unwrap();
    }
    // Thin the head too, so the guess is relative to a head that is not 0.
    rol.mark_completed(SubThreadId::new(0)).unwrap();
    assert_eq!(rol.retire_ready().len(), 1);
    let head = ids[1];
    for (pos, &id) in ids[1..].iter().enumerate() {
        if id != head {
            assert_ne!(
                (id - head) as usize,
                pos,
                "id {id} sits in its guessed slot"
            );
        }
        assert_eq!(rol.get(SubThreadId::new(id)).map(|e| e.rec), Some(id));
        assert_eq!(rol.rec_mut(SubThreadId::new(id)).copied(), Some(id));
        assert!(rol.contains(SubThreadId::new(id)));
    }
    for absent in (0..45).filter(|i| i % 2 == 1 || *i == 0 || *i >= 40) {
        assert!(!rol.contains(SubThreadId::new(absent)), "id {absent}");
        assert!(rol.get(SubThreadId::new(absent)).is_none(), "id {absent}");
    }
    // Taken from the middle, an entry leaves the search consistent.
    rol.mark_squashed(SubThreadId::new(20)).unwrap();
    assert_eq!(rol.remove_squashed(SubThreadId::new(20)).unwrap().rec, 20);
    assert!(!rol.contains(SubThreadId::new(20)));
    assert_eq!(rol.get(SubThreadId::new(22)).map(|e| e.rec), Some(22));
}

// ---------------------------------------------------------------------------
// Resource table
// ---------------------------------------------------------------------------

use gprs_core::resources::{Got, Inverse, Op, Poll, ResourceError, Resources};
use std::collections::VecDeque;

type Table = Resources<u64, u64>;
/// One applied op: the table and model before it, and its inverses in the
/// order they were made.
type Applied = (Table, TableModel, Vec<Inverse<u64, u64>>);

/// The table as plain maps: each lock's holder and data, each channel's
/// items with their pushers, the cells, the blocks and the next block id,
/// and the exit values.
#[derive(Debug, Clone, Default, PartialEq)]
struct TableModel {
    locks: BTreeMap<u64, (Option<u64>, Option<u64>)>,
    chans: BTreeMap<u64, VecDeque<(u64, Option<u64>)>>,
    cells: BTreeMap<u64, u64>,
    blocks: BTreeMap<u64, Vec<u8>>,
    next_block: u64,
    exits: BTreeMap<u32, u64>,
}

impl TableModel {
    /// What `table` holds for the ids `like` registered, read through its
    /// public face on a copy.
    fn of(table: &Table, like: &TableModel) -> TableModel {
        let mut t = table.clone();
        let holders: BTreeMap<u64, Option<u64>> =
            table.holders().map(|(l, h)| (l.raw(), h.map(|s| s.raw()))).collect();
        let locks = like.locks.keys().map(|&l| {
            let data = match t.apply(None, Op::Acquire(LockId::new(l))) {
                Ok((Got::Data(_, d), _)) => Some(d),
                _ => None,
            };
            (l, (holders[&l], data))
        });
        let locks = locks.collect();
        let chans = like.chans.keys().map(|&c| {
            let mut items = VecDeque::new();
            while let Ok((Got::Item(v, by), _)) = t.apply(None, Op::Pop(ChannelId::new(c))) {
                items.push_back((v, by.map(|s| s.raw())));
            }
            (c, items)
        });
        let chans = chans.collect();
        let cells = like.cells.keys().map(|&a| (a, table.load(AtomicId::new(a)).unwrap()));
        let Ok((Got::Block(next_block), _)) = t.apply(None, Op::Alloc(0)) else {
            panic!("an allocation hands out its block")
        };
        let blocks = (0..next_block).filter_map(|b| Some((b, table.block(b).ok()?.to_vec())));
        let exits = (0..4).filter_map(|t| Some((t, *table.exit(ThreadId::new(t))?)));
        TableModel {
            locks,
            chans,
            cells: cells.collect(),
            blocks: blocks.collect(),
            next_block,
            exits: exits.collect(),
        }
    }

    /// The grant rule: an empty channel passes, a held lock waits.
    fn poll(&self, r: ResourceId) -> std::result::Result<Poll, ResourceError> {
        match r {
            ResourceId::Channel(c) => match self.chans.get(&c.raw()) {
                Some(q) if q.is_empty() => Ok(Poll::Pass),
                Some(_) => Ok(Poll::Grant),
                None => Err(ResourceError::Unknown(r)),
            },
            ResourceId::Lock(l) => match self.locks.get(&l.raw()) {
                Some((None, Some(_))) => Ok(Poll::Grant),
                Some(_) => Ok(Poll::Wait),
                None => Err(ResourceError::Unknown(r)),
            },
            _ => Ok(Poll::Grant),
        }
    }
}

proptest! {
    /// The resource table against a plain model: after every register,
    /// acquire (nested: a step may hold several), release, push, pop,
    /// fetch-add, plain store, alloc, free, write and exit, the table reads
    /// back as the model, and its poll answers the model's rule. Then a
    /// random newest suffix of the inverse records, undone newest first,
    /// leaves the table equal to itself and to the model before that
    /// suffix. An unknown id, an empty pop and a double free are named
    /// errors that change nothing.
    #[test]
    fn resource_table_undoes_a_newest_suffix_back_to_the_model(
        steps in vec((0u8..12, 0u64..5, any::<u64>()), 1..160),
        cut in any::<usize>(),
    ) {
        let mut table = Table::default();
        let mut model = TableModel::default();
        let mut log: Vec<Applied> = Vec::new();
        // The log's length after the newest registration, which no inverse
        // takes back.
        let mut floor = 0;
        // Lock -> the data the "step" checked out.
        let mut held: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, (kind, id, x)) in steps.into_iter().enumerate() {
            let by = Some(SubThreadId::new(i as u64));
            let before = (table.clone(), model.clone());
            let mut inverses = Vec::new();
            let (l, c, a) = (LockId::new(id), ChannelId::new(id), AtomicId::new(id));
            match kind {
                0 => {
                    model.locks.insert(table.lock(x).raw(), (None, Some(x)));
                    model.chans.insert(table.channel().raw(), VecDeque::new());
                    model.cells.insert(table.cell(x).raw(), x);
                    floor = log.len();
                    continue;
                }
                1 => {
                    let poll = model.poll(ResourceId::Lock(l));
                    prop_assert_eq!(table.poll(ResourceId::Lock(l)), poll.clone());
                    match table.apply(by, Op::Acquire(l)) {
                        Ok((Got::Data(got, d), inverse)) => {
                            prop_assert_eq!((got, poll), (l, Ok(Poll::Grant)));
                            prop_assert_eq!(model.locks[&id].1, Some(d));
                            model.locks.insert(id, (by.map(|s| s.raw()), None));
                            held.insert(id, d);
                            inverses.extend([Inverse::Relock(l, d), inverse]);
                        }
                        Ok(other) => prop_assert!(false, "an acquire handed out {:?}", other.0),
                        Err(e) => {
                            let want = if poll.is_err() { ResourceError::Unknown(ResourceId::Lock(l)) } else { ResourceError::Busy(l) };
                            prop_assert_eq!(e, want);
                        }
                    }
                }
                2 => {
                    // Return a held lock with new data; with none held, a
                    // release of a free (or unknown) lock is refused.
                    let lock = held.keys().nth(id as usize % held.len().max(1)).copied();
                    let lock = lock.map_or(l, LockId::new);
                    match table.apply(None, Op::Release(lock, x)) {
                        Ok((_, inverse)) => {
                            held.remove(&lock.raw());
                            model.locks.insert(lock.raw(), (None, Some(x)));
                            inverses.push(inverse);
                        }
                        Err(e) => prop_assert!(
                            matches!(e, ResourceError::NotHeld(_) | ResourceError::Unknown(_)),
                            "{}", e
                        ),
                    }
                }
                3 => match table.apply(by, Op::Push(c, x)) {
                    Ok((_, inverse)) => {
                        model.chans.get_mut(&id).unwrap().push_back((x, by.map(|s| s.raw())));
                        inverses.push(inverse);
                    }
                    Err(e) => prop_assert_eq!(e, ResourceError::Unknown(ResourceId::Channel(c))),
                },
                4 => {
                    let poll = model.poll(ResourceId::Channel(c));
                    prop_assert_eq!(table.poll(ResourceId::Channel(c)), poll.clone());
                    match table.apply(by, Op::Pop(c)) {
                        Ok((Got::Item(v, from), inverse)) => {
                            prop_assert_eq!(&poll, &Ok(Poll::Grant));
                            let front = model.chans.get_mut(&id).unwrap().pop_front();
                            prop_assert_eq!(front, Some((v, from.map(|s| s.raw()))));
                            inverses.push(inverse);
                        }
                        Ok(other) => prop_assert!(false, "a pop handed out {:?}", other.0),
                        Err(e) => {
                            let want = match poll {
                                Ok(_) => ResourceError::EmptyPop(c),
                                Err(_) => ResourceError::Unknown(ResourceId::Channel(c)),
                            };
                            prop_assert_eq!(e, want);
                        }
                    }
                }
                5 | 6 => {
                    let op = if kind == 5 { Op::FetchAdd(a, x) } else { Op::Store(a, x) };
                    match (table.apply(by, op), model.cells.get_mut(&id)) {
                        (Ok((got, inverse)), Some(cell)) => {
                            prop_assert_eq!(got, Got::Old(*cell));
                            *cell = if kind == 5 { cell.wrapping_add(x) } else { x };
                            inverses.push(inverse);
                        }
                        (Err(e), None) => prop_assert_eq!(e, ResourceError::Unknown(ResourceId::Atomic(a))),
                        (got, cell) => prop_assert!(false, "{:?} against {:?}", got.map(|g| g.0), cell),
                    }
                }
                7 => {
                    let (got, inverse) = table.apply(by, Op::Alloc(x as usize % 9)).unwrap();
                    prop_assert_eq!(got, Got::Block(model.next_block));
                    model.blocks.insert(model.next_block, vec![0; x as usize % 9]);
                    model.next_block += 1;
                    inverses.push(inverse);
                }
                8 => {
                    let b = x % (model.next_block + 1);
                    match table.apply(by, Op::Free(b)) {
                        Ok((_, inverse)) => {
                            prop_assert!(model.blocks.remove(&b).is_some());
                            inverses.push(inverse);
                        }
                        Err(e) => {
                            prop_assert_eq!(e, ResourceError::DoubleFree(b));
                            prop_assert!(!model.blocks.contains_key(&b));
                        }
                    }
                }
                9 => {
                    let b = x % (model.next_block + 1);
                    match table.write(b) {
                        Ok((data, inverse)) => {
                            data.push(x as u8);
                            model.blocks.get_mut(&b).unwrap().push(x as u8);
                            inverses.push(inverse);
                        }
                        Err(e) => {
                            prop_assert_eq!(e.clone(), ResourceError::NoBlock(b));
                            prop_assert_eq!(table.block(b), Err(e));
                        }
                    }
                }
                10 => {
                    // A thread exits once.
                    let t = (id % 4) as u32;
                    if model.exits.contains_key(&t) {
                        continue;
                    }
                    let (_, inverse) = table.apply(None, Op::Exit(ThreadId::new(t), x)).unwrap();
                    model.exits.insert(t, x);
                    inverses.push(inverse);
                }
                _ => {
                    prop_assert_eq!(table.load(a).ok(), model.cells.get(&id).copied());
                }
            }
            if !inverses.is_empty() {
                log.push((before.0, before.1, inverses));
            }
            prop_assert_eq!(&TableModel::of(&table, &model), &model);
        }
        let k = cut % (log.len() - floor + 1);
        let mut undone = log.split_off(log.len() - k);
        while let Some((then, then_model, inverses)) = undone.pop() {
            for inverse in inverses.into_iter().rev() {
                prop_assert_eq!(table.undo(inverse), Ok(()));
            }
            prop_assert!(table == then, "the table after undo differs from before the op");
            prop_assert_eq!(&TableModel::of(&table, &then_model), &then_model);
        }
    }
}
