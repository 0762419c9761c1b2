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
