//! Deterministic ordering schedules (`§3.2`, "Ordering Sub-threads").
//!
//! GPRS imparts a total order to sub-threads by passing a conceptual token
//! between threads at synchronization points. A thread may only perform the
//! synchronization operation that opens its next sub-thread when it holds the
//! token. Three schedules are implemented:
//!
//! * [`RoundRobin`] — the naive global token of DTHREADS/Kendo-style systems.
//!   Deterministic but oblivious to the program's parallelism pattern; it
//!   serializes producer/consumer pipelines such as Pbzip2 (Figure 7(a)).
//! * [`BalanceAware`] with unit weights — the paper's *basic* balance-aware
//!   scheme: round-robin across thread groups, round-robin within a group
//!   (Figure 7(b)).
//! * [`BalanceAware`] with per-group weights — the *weighted* scheme: a group
//!   with weight `w` receives `w` consecutive turns (Pbzip2's read stage is
//!   weighted 4:4:1 against compress and write in `§4`).

use crate::error::{GprsError, Result};
use crate::ids::{GroupId, SubThreadId, ThreadId};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A deterministic token-passing schedule over live threads.
///
/// Implementations must be fully deterministic: the holder sequence may
/// depend only on the sequence of `register_thread` / `deregister_thread` /
/// `advance` calls, never on timing.
pub trait OrderingPolicy: Send + fmt::Debug {
    /// Adds a thread at its deterministic position. Registration order is the
    /// program's fork order, which is itself deterministic under GPRS.
    ///
    /// # Errors
    /// Returns [`GprsError::DuplicateThread`] if the thread is already
    /// registered.
    fn register_thread(&mut self, thread: ThreadId, group: GroupId, weight: u32) -> Result<()>;

    /// Removes an exited thread from the rotation.
    ///
    /// # Errors
    /// Returns [`GprsError::UnknownThread`] if the thread is not registered.
    fn deregister_thread(&mut self, thread: ThreadId) -> Result<()>;

    /// The thread currently holding the token, or `None` when no threads are
    /// registered.
    fn holder(&self) -> Option<ThreadId>;

    /// Passes the token to the next thread in the schedule.
    fn advance(&mut self);

    /// Consumes a *wasted* polling turn (an empty-FIFO poll, Figure 7's
    /// empty-FIFO turns). Live schedules rotate exactly like
    /// [`OrderingPolicy::advance`]; the replay schedule
    /// ([`crate::recording::ReplaySchedule`]) overrides this to hold its
    /// cursor, because wasted turns mutate no program state and are not
    /// part of the recorded event stream.
    fn pass(&mut self) {
        self.advance();
    }

    /// Number of registered threads.
    fn len(&self) -> usize;

    /// Whether no threads are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short name used in experiment output ("R" / "B" / "W" in Figure 8's
    /// legend).
    fn name(&self) -> &'static str;
}

/// The naive global round-robin token (Figure 5(c) / Figure 7(a)).
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    threads: Vec<ThreadId>,
    cursor: usize,
}

impl RoundRobin {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OrderingPolicy for RoundRobin {
    fn register_thread(&mut self, thread: ThreadId, _group: GroupId, _weight: u32) -> Result<()> {
        if self.threads.contains(&thread) {
            return Err(GprsError::DuplicateThread(thread));
        }
        self.threads.push(thread);
        Ok(())
    }

    fn deregister_thread(&mut self, thread: ThreadId) -> Result<()> {
        let ix = self
            .threads
            .iter()
            .position(|&t| t == thread)
            .ok_or(GprsError::UnknownThread(thread))?;
        self.threads.remove(ix);
        if self.threads.is_empty() {
            self.cursor = 0;
            return Ok(());
        }
        // Keep pointing at the same logical successor: a removal before the
        // cursor shifts it left; a removal at the cursor leaves it on the
        // next element; wrap at the end.
        if ix < self.cursor {
            self.cursor -= 1;
        }
        self.cursor %= self.threads.len();
        Ok(())
    }

    fn holder(&self) -> Option<ThreadId> {
        self.threads.get(self.cursor).copied()
    }

    fn advance(&mut self) {
        if !self.threads.is_empty() {
            self.cursor = (self.cursor + 1) % self.threads.len();
        }
    }

    fn len(&self) -> usize {
        self.threads.len()
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

#[derive(Debug, Clone)]
struct Group {
    id: GroupId,
    weight: u32,
    members: Vec<ThreadId>,
    member_cursor: usize,
}

/// The balance-aware schedule: hierarchical token passing that respects the
/// program's parallelism pattern (`§3.2`).
///
/// Threads within a group rotate round-robin; across groups the token rotates
/// round-robin, and a group with weight `w` receives `w` consecutive turns
/// before the token moves on. With all weights 1 this is the paper's *basic*
/// scheme; otherwise it is the *weighted* scheme.
///
/// # Examples
///
/// The Pbzip2 pattern from Figure 7(b) — one reader in group 0, two
/// compressors in group 1; the reader gets every other turn instead of one
/// turn in three:
/// ```
/// use gprs_core::order::{BalanceAware, OrderingPolicy};
/// use gprs_core::ids::{GroupId, ThreadId};
/// let mut s = BalanceAware::new();
/// s.register_thread(ThreadId::new(0), GroupId::new(0), 1).unwrap();
/// s.register_thread(ThreadId::new(1), GroupId::new(1), 1).unwrap();
/// s.register_thread(ThreadId::new(2), GroupId::new(1), 1).unwrap();
/// let mut seq = Vec::new();
/// for _ in 0..6 {
///     seq.push(s.holder().unwrap().raw());
///     s.advance();
/// }
/// assert_eq!(seq, [0, 1, 0, 2, 0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BalanceAware {
    groups: Vec<Group>,
    group_cursor: usize,
    /// Turns already consumed by the current group in this visit.
    turns_in_group: u32,
}

impl BalanceAware {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    fn current_group(&self) -> Option<&Group> {
        self.groups.get(self.group_cursor)
    }
}

impl OrderingPolicy for BalanceAware {
    fn register_thread(&mut self, thread: ThreadId, group: GroupId, weight: u32) -> Result<()> {
        if weight == 0 {
            return Err(GprsError::InvalidWeight(thread));
        }
        if self
            .groups
            .iter()
            .any(|g| g.members.contains(&thread))
        {
            return Err(GprsError::DuplicateThread(thread));
        }
        match self.groups.iter_mut().find(|g| g.id == group) {
            Some(g) => {
                // The group's weight is a property of the group; a later
                // registration may not silently change it out from under the
                // members already scheduled by it.
                if g.weight != weight {
                    return Err(GprsError::GroupWeightConflict {
                        thread,
                        established: g.weight,
                        requested: weight,
                    });
                }
                g.members.push(thread);
            }
            None => self.groups.push(Group {
                id: group,
                weight,
                members: vec![thread],
                member_cursor: 0,
            }),
        }
        Ok(())
    }

    fn deregister_thread(&mut self, thread: ThreadId) -> Result<()> {
        let gix = self
            .groups
            .iter()
            .position(|g| g.members.contains(&thread))
            .ok_or(GprsError::UnknownThread(thread))?;
        let remove_group = {
            let g = &mut self.groups[gix];
            let mix = g.members.iter().position(|&t| t == thread).expect("present");
            g.members.remove(mix);
            if !g.members.is_empty() {
                if mix < g.member_cursor || g.member_cursor >= g.members.len() {
                    g.member_cursor %= g.members.len();
                }
                false
            } else {
                true
            }
        };
        if remove_group {
            self.groups.remove(gix);
            if self.groups.is_empty() {
                self.group_cursor = 0;
            } else {
                if gix < self.group_cursor {
                    self.group_cursor -= 1;
                }
                self.group_cursor %= self.groups.len();
            }
            if gix == self.group_cursor {
                self.turns_in_group = 0;
            }
        }
        Ok(())
    }

    fn holder(&self) -> Option<ThreadId> {
        let g = self.current_group()?;
        g.members.get(g.member_cursor).copied()
    }

    fn advance(&mut self) {
        if self.groups.is_empty() {
            return;
        }
        let (weight, members) = {
            let g = &self.groups[self.group_cursor];
            (g.weight, g.members.len())
        };
        {
            let g = &mut self.groups[self.group_cursor];
            g.member_cursor = (g.member_cursor + 1) % members.max(1);
        }
        self.turns_in_group += 1;
        if self.turns_in_group >= weight {
            self.turns_in_group = 0;
            self.group_cursor = (self.group_cursor + 1) % self.groups.len();
        }
    }

    fn len(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }

    fn name(&self) -> &'static str {
        "balance-aware"
    }
}

/// Which schedule an experiment uses (the Figure 8 legend's `R`/`B` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Naive global round-robin.
    RoundRobin,
    /// Balance-aware with unit weights.
    BalanceBasic,
    /// Balance-aware honoring per-group weights.
    BalanceWeighted,
}

impl ScheduleKind {
    /// Instantiates the corresponding policy.
    ///
    /// For [`ScheduleKind::BalanceBasic`], group weights passed at
    /// registration are clamped to 1 so that the basic scheme ignores them.
    pub fn build(self) -> Box<dyn OrderingPolicy> {
        match self {
            ScheduleKind::RoundRobin => Box::new(RoundRobin::new()),
            ScheduleKind::BalanceBasic => Box::new(UnitWeights(BalanceAware::new())),
            ScheduleKind::BalanceWeighted => Box::new(BalanceAware::new()),
        }
    }

    /// One-letter tag used in experiment output (Figure 8 legend).
    pub fn tag(self) -> &'static str {
        match self {
            ScheduleKind::RoundRobin => "R",
            ScheduleKind::BalanceBasic => "B",
            ScheduleKind::BalanceWeighted => "W",
        }
    }
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleKind::RoundRobin => f.write_str("round-robin"),
            ScheduleKind::BalanceBasic => f.write_str("balance-aware (basic)"),
            ScheduleKind::BalanceWeighted => f.write_str("balance-aware (weighted)"),
        }
    }
}

/// Wrapper that forces unit weights (the basic balance-aware scheme).
#[derive(Debug, Default)]
struct UnitWeights(BalanceAware);

impl OrderingPolicy for UnitWeights {
    fn register_thread(&mut self, thread: ThreadId, group: GroupId, _weight: u32) -> Result<()> {
        self.0.register_thread(thread, group, 1)
    }
    fn deregister_thread(&mut self, thread: ThreadId) -> Result<()> {
        self.0.deregister_thread(thread)
    }
    fn holder(&self) -> Option<ThreadId> {
        self.0.holder()
    }
    fn advance(&mut self) {
        self.0.advance()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn name(&self) -> &'static str {
        "balance-aware-basic"
    }
}

/// Lock-free mirror of the enforcer's grant frontier.
///
/// The deterministic total order means "may this thread's want proceed?" is
/// a comparison against a single monotonically advancing frontier: the
/// current token holder and the next sequence number. The [`OrderEnforcer`]
/// (which always mutates under the runtime's state lock) publishes that
/// frontier here after every mutation; workers read it with one atomic load
/// and *never* touch the lock just to learn whose turn it is.
///
/// The holder and a version stamp are packed into one word —
/// `epoch << 32 | holder_raw + 1` (low half 0 = no holder) — so a reader
/// always observes a (epoch, holder) pair that actually existed. The next
/// ticket is published separately *before* the word, so after an acquire
/// load of the word the ticket read is at least as new; both are advisory
/// for readers outside the lock (the authoritative grant still happens
/// under it), which is exactly what a go/no-go fast-path check needs: a
/// stale "not my turn" only sends the worker to the slow path, and a stale
/// "my turn" is re-verified by the locked grant.
#[derive(Debug, Default)]
pub struct OrderGate {
    /// `epoch << 32 | holder_raw + 1`; low 32 bits 0 ⇔ no holder.
    word: AtomicU64,
    /// Raw [`SubThreadId`] the next grant will be assigned.
    next_ticket: AtomicU64,
}

impl OrderGate {
    /// An empty gate (no holder, ticket 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a new frontier, bumping the epoch. Called by the enforcer
    /// under the state lock after every mutation.
    pub fn publish(&self, holder: Option<ThreadId>, next_seq: SubThreadId) {
        self.next_ticket.store(next_seq.raw(), Ordering::Release);
        let old = self.word.load(Ordering::Relaxed);
        let epoch = (old >> 32).wrapping_add(1) & u32::MAX as u64;
        let low = holder.map_or(0, |t| u64::from(t.raw()) + 1);
        self.word.store(epoch << 32 | low, Ordering::Release);
    }

    /// The published token holder (one atomic load).
    pub fn holder(&self) -> Option<ThreadId> {
        let low = self.word.load(Ordering::Acquire) & u32::MAX as u64;
        (low != 0).then(|| ThreadId::new((low - 1) as u32))
    }

    /// Whether `thread` is the published holder (one atomic load).
    pub fn is_next(&self, thread: ThreadId) -> bool {
        self.holder() == Some(thread)
    }

    /// The published next-grant sequence number.
    pub fn next_ticket(&self) -> SubThreadId {
        SubThreadId::new(self.next_ticket.load(Ordering::Acquire))
    }

    /// The publication count (wraps at 2³²). Two equal epochs with equal
    /// holders denote the same publication.
    pub fn epoch(&self) -> u32 {
        (self.word.load(Ordering::Acquire) >> 32) as u32
    }

    /// One consistent `(epoch, holder)` observation plus the ticket that is
    /// at least as new as that observation.
    pub fn snapshot(&self) -> GateSnapshot {
        let word = self.word.load(Ordering::Acquire);
        let low = word & u32::MAX as u64;
        GateSnapshot {
            epoch: (word >> 32) as u32,
            holder: (low != 0).then(|| ThreadId::new((low - 1) as u32)),
            next_ticket: SubThreadId::new(self.next_ticket.load(Ordering::Acquire)),
        }
    }
}

/// One atomic observation of the [`OrderGate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSnapshot {
    /// Publication count at the observation.
    pub epoch: u32,
    /// Token holder at the observation.
    pub holder: Option<ThreadId>,
    /// Next-grant sequence number (at least as new as `epoch`).
    pub next_ticket: SubThreadId,
}

/// Combines a schedule with total-order sequence assignment.
///
/// The enforcer is the core of the DEX's order enforcer block (Figure 4): a
/// thread that has reached its next synchronization point asks for a grant;
/// the grant succeeds only while the thread holds the token, and consuming it
/// assigns the next [`SubThreadId`] in the global total order and passes the
/// token on.
///
/// Every mutation republishes the grant frontier to the shared lock-free
/// [`OrderGate`] (see [`OrderEnforcer::gate`]).
#[derive(Debug)]
pub struct OrderEnforcer {
    policy: Box<dyn OrderingPolicy>,
    next_seq: SubThreadId,
    grants: u64,
    gate: Arc<OrderGate>,
}

impl OrderEnforcer {
    /// Creates an enforcer over the given schedule; sequence numbers start
    /// at 0.
    pub fn new(policy: Box<dyn OrderingPolicy>) -> Self {
        let e = OrderEnforcer {
            policy,
            next_seq: SubThreadId::new(0),
            grants: 0,
            gate: Arc::new(OrderGate::new()),
        };
        e.republish();
        e
    }

    /// The lock-free mirror of this enforcer's grant frontier. Cloning the
    /// `Arc` lets workers check "is it my thread's turn?" without the lock.
    pub fn gate(&self) -> Arc<OrderGate> {
        Arc::clone(&self.gate)
    }

    fn republish(&self) {
        self.gate.publish(self.policy.holder(), self.next_seq);
    }

    /// Convenience constructor from a [`ScheduleKind`].
    pub fn with_schedule(kind: ScheduleKind) -> Self {
        Self::new(kind.build())
    }

    /// Registers a thread (fork order = deterministic order).
    ///
    /// # Errors
    /// Propagates [`GprsError::DuplicateThread`].
    pub fn register_thread(
        &mut self,
        thread: ThreadId,
        group: GroupId,
        weight: u32,
    ) -> Result<()> {
        self.policy.register_thread(thread, group, weight)?;
        self.republish();
        Ok(())
    }

    /// Deregisters an exited thread.
    ///
    /// # Errors
    /// Propagates [`GprsError::UnknownThread`].
    pub fn deregister_thread(&mut self, thread: ThreadId) -> Result<()> {
        self.policy.deregister_thread(thread)?;
        self.republish();
        Ok(())
    }

    /// The thread whose turn it currently is.
    pub fn holder(&self) -> Option<ThreadId> {
        self.policy.holder()
    }

    /// Attempts to consume the current turn on behalf of `thread`.
    ///
    /// Returns the assigned position in the total order if `thread` holds
    /// the token, `None` otherwise (the caller must wait — this wait is the
    /// ordering delay `t_g` of `§2.4`).
    pub fn try_grant(&mut self, thread: ThreadId) -> Option<SubThreadId> {
        if self.policy.holder() == Some(thread) {
            let id = self.next_seq;
            self.next_seq = self.next_seq.next();
            self.grants += 1;
            self.policy.advance();
            self.republish();
            Some(id)
        } else {
            None
        }
    }

    /// Consumes the current turn without assigning a sub-thread — used when
    /// the holder polls a condition (empty FIFO) and must "pass the token"
    /// (Figure 7's empty-FIFO turns). Routed through
    /// [`OrderingPolicy::pass`] so a replaying schedule can hold its cursor
    /// on these state-free turns.
    pub fn pass_turn(&mut self, thread: ThreadId) -> bool {
        if self.policy.holder() == Some(thread) {
            self.policy.pass();
            self.republish();
            true
        } else {
            false
        }
    }

    /// Consumes the current turn for a *structural* event that opens no
    /// sub-thread but does mutate program state (a barrier arrival, a
    /// thread exit). Unlike [`OrderEnforcer::pass_turn`] this always
    /// advances the schedule — structural events are part of the recorded
    /// total order, so a replaying schedule moves past them too.
    pub fn consume_turn(&mut self, thread: ThreadId) -> bool {
        if self.policy.holder() == Some(thread) {
            self.policy.advance();
            self.republish();
            true
        } else {
            false
        }
    }

    /// Sequence number that will be assigned to the next grant.
    pub fn next_sequence(&self) -> SubThreadId {
        self.next_seq
    }

    /// Total grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Number of live threads.
    pub fn live_threads(&self) -> usize {
        self.policy.len()
    }

    /// The underlying schedule's name.
    pub fn schedule_name(&self) -> &'static str {
        self.policy.name()
    }
}

/// An unbounded lock-free SPSC queue of sequence-numbered edge tokens —
/// the rendezvous point for one cross-shard channel edge.
///
/// When the ordering machinery is sharded, a channel whose producer and
/// consumer live in different order domains can no longer hand items over
/// through shared engine state; instead the producer domain forwards each
/// item *at retirement* (so the hand-off is squash-proof) as a token
/// through one of these queues, and the consumer domain drains it into its
/// local channel replica. The token's sequence number is the producer-side
/// push index; the consumer asserts it pops sequence `0, 1, 2, …` exactly,
/// turning any ordering bug into a loud panic rather than silent
/// nondeterminism.
///
/// # Safety contract
///
/// At most one thread pushes and at most one thread pops at any instant.
/// The sharded runtime guarantees this structurally: each edge has exactly
/// one producer domain and one consumer domain (the execution plan merges
/// domains sharing a channel end), and each side serializes its accesses
/// under its own engine lock. A violated contract on the consumer side is
/// caught at runtime by the `draining` guard.
pub struct EdgeQueue<T> {
    /// Oldest node — the consumed stub; its `next` is the real front.
    /// Consumer-owned.
    head: std::sync::atomic::AtomicPtr<EdgeNode<T>>,
    /// Newest node. Producer-owned.
    tail: std::sync::atomic::AtomicPtr<EdgeNode<T>>,
    /// Runtime guard enforcing the single-consumer half of the contract.
    draining: std::sync::atomic::AtomicBool,
    /// Tokens pushed; the next push's sequence number.
    pushed: AtomicU64,
    /// Tokens popped; the sequence number the next pop must observe.
    popped: AtomicU64,
    /// Producer finished: nothing more will ever arrive. A consumer
    /// starving on an empty *closed* edge is deadlocked, not waiting.
    closed: std::sync::atomic::AtomicBool,
}

struct EdgeNode<T> {
    next: std::sync::atomic::AtomicPtr<EdgeNode<T>>,
    /// `None` only for the stub and for already-consumed nodes.
    token: Option<(u64, T)>,
}

// SAFETY: node access is disjoint between the single producer (appends
// after `tail`) and the single consumer (detaches from `head`); the
// release store of a node's predecessor `next` pointer paired with the
// consumer's acquire load publishes the node contents.
unsafe impl<T: Send> Send for EdgeQueue<T> {}
unsafe impl<T: Send> Sync for EdgeQueue<T> {}

impl<T> Default for EdgeQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for EdgeQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeQueue")
            .field("pushed", &self.pushed.load(Ordering::Relaxed))
            .field("popped", &self.popped.load(Ordering::Relaxed))
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl<T> EdgeQueue<T> {
    /// An empty, open edge.
    pub fn new() -> Self {
        let stub = Box::into_raw(Box::new(EdgeNode {
            next: std::sync::atomic::AtomicPtr::new(std::ptr::null_mut()),
            token: None,
        }));
        EdgeQueue {
            head: std::sync::atomic::AtomicPtr::new(stub),
            tail: std::sync::atomic::AtomicPtr::new(stub),
            draining: std::sync::atomic::AtomicBool::new(false),
            pushed: AtomicU64::new(0),
            popped: AtomicU64::new(0),
            closed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Appends a token (producer side) and returns its sequence number.
    pub fn push(&self, item: T) -> u64 {
        assert!(!self.is_closed(), "EdgeQueue: push after close");
        let seq = self.pushed.load(Ordering::Relaxed);
        let node = Box::into_raw(Box::new(EdgeNode {
            next: std::sync::atomic::AtomicPtr::new(std::ptr::null_mut()),
            token: Some((seq, item)),
        }));
        let prev = self.tail.load(Ordering::Relaxed);
        self.tail.store(node, Ordering::Relaxed);
        // SAFETY: `prev` is a live node — the consumer never frees the node
        // `tail` points at (it stops at a null `next`, and this store is
        // what makes `prev` reachable-from-head *past* consumption only
        // after `tail` has already moved on).
        unsafe { (*prev).next.store(node, Ordering::Release) };
        self.pushed.store(seq + 1, Ordering::Release);
        seq
    }

    /// Removes the oldest token (consumer side), or `None` when empty.
    ///
    /// # Panics
    /// If tokens surface out of sequence or a second consumer drains
    /// concurrently — both indicate a violated shard-plan invariant and
    /// must fail loudly rather than corrupt the deterministic order.
    pub fn pop(&self) -> Option<(u64, T)> {
        assert!(
            !self.draining.swap(true, Ordering::Acquire),
            "EdgeQueue: concurrent consumers on one edge"
        );
        // SAFETY: single consumer (checked above); `head` is only written
        // here. The acquire load of `next` pairs with the producer's
        // release store, publishing the node's token.
        let token = unsafe {
            let head = self.head.load(Ordering::Relaxed);
            let next = (*head).next.load(Ordering::Acquire);
            if next.is_null() {
                None
            } else {
                let token = (*next).token.take().expect("edge token taken twice");
                self.head.store(next, Ordering::Relaxed);
                drop(Box::from_raw(head));
                let expect = self.popped.load(Ordering::Relaxed);
                assert_eq!(
                    token.0, expect,
                    "EdgeQueue: out-of-sequence edge token (got {}, want {expect})",
                    token.0
                );
                self.popped.store(expect + 1, Ordering::Release);
                Some(token)
            }
        };
        self.draining.store(false, Ordering::Release);
        token
    }

    /// Marks the producer side finished; no further pushes are legal.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether the producer has finished.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Whether a consumer waiting on this edge can never be satisfied:
    /// empty *and* closed.
    pub fn is_starved(&self) -> bool {
        // Read `closed` first: every push happens-before the close, so once
        // the close is observed `pushed` is final. (Reading `pushed` first
        // let a push-then-close slip in between and compare a stale count
        // against `popped` — spuriously starved with tokens in flight.)
        self.is_closed()
            && self.popped.load(Ordering::Acquire) == self.pushed.load(Ordering::Acquire)
    }

    /// Tokens currently in flight (pushed, not yet popped).
    pub fn len(&self) -> u64 {
        self.pushed.load(Ordering::Acquire) - self.popped.load(Ordering::Acquire)
    }

    /// Whether no tokens are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total tokens forwarded so far (the next push's sequence number).
    pub fn forwarded(&self) -> u64 {
        self.pushed.load(Ordering::Acquire)
    }
}

impl<T> Drop for EdgeQueue<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` — no concurrent access; walk and free the
        // whole chain including the stub.
        unsafe {
            let mut node = self.head.load(Ordering::Relaxed);
            while !node.is_null() {
                let next = (*node).next.load(Ordering::Relaxed);
                drop(Box::from_raw(node));
                node = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn th(n: u32) -> ThreadId {
        ThreadId::new(n)
    }
    fn grp(n: u32) -> GroupId {
        GroupId::new(n)
    }

    fn holder_sequence<P: OrderingPolicy>(p: &mut P, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(p.holder().unwrap().raw());
            p.advance();
        }
        out
    }

    #[test]
    fn round_robin_rotates_in_registration_order() {
        let mut rr = RoundRobin::new();
        for i in 0..3 {
            rr.register_thread(th(i), grp(0), 1).unwrap();
        }
        assert_eq!(holder_sequence(&mut rr, 7), [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn round_robin_rejects_duplicates_and_unknowns() {
        let mut rr = RoundRobin::new();
        rr.register_thread(th(0), grp(0), 1).unwrap();
        assert_eq!(
            rr.register_thread(th(0), grp(0), 1),
            Err(GprsError::DuplicateThread(th(0)))
        );
        assert_eq!(
            rr.deregister_thread(th(9)),
            Err(GprsError::UnknownThread(th(9)))
        );
    }

    #[test]
    fn round_robin_deregister_keeps_rotation_consistent() {
        let mut rr = RoundRobin::new();
        for i in 0..4 {
            rr.register_thread(th(i), grp(0), 1).unwrap();
        }
        rr.advance(); // holder now TH1
        rr.deregister_thread(th(1)).unwrap();
        // TH1 gone: rotation continues over remaining threads without skew.
        let seq = holder_sequence(&mut rr, 6);
        assert_eq!(seq, [2, 3, 0, 2, 3, 0]);
    }

    #[test]
    fn round_robin_empty_has_no_holder() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.holder(), None);
        rr.advance(); // must not panic
        assert!(rr.is_empty());
    }

    #[test]
    fn balance_aware_basic_matches_figure7b() {
        // Pbzip2: TH0 = read (group 0), TH1/TH2 = compress (group 1).
        let mut s = BalanceAware::new();
        s.register_thread(th(0), grp(0), 1).unwrap();
        s.register_thread(th(1), grp(1), 1).unwrap();
        s.register_thread(th(2), grp(1), 1).unwrap();
        // Reader gets every other turn; compressors alternate.
        assert_eq!(holder_sequence(&mut s, 8), [0, 1, 0, 2, 0, 1, 0, 2]);
    }

    #[test]
    fn balance_aware_weighted_gives_extra_turns() {
        // Reader weighted 2: two reader turns per compressor turn.
        let mut s = BalanceAware::new();
        s.register_thread(th(0), grp(0), 2).unwrap();
        s.register_thread(th(1), grp(1), 1).unwrap();
        s.register_thread(th(2), grp(1), 1).unwrap();
        assert_eq!(holder_sequence(&mut s, 9), [0, 0, 1, 0, 0, 2, 0, 0, 1]);
    }

    #[test]
    fn balance_aware_single_group_degenerates_to_round_robin() {
        let mut s = BalanceAware::new();
        for i in 0..3 {
            s.register_thread(th(i), grp(0), 1).unwrap();
        }
        assert_eq!(holder_sequence(&mut s, 6), [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn balance_aware_deregister_last_member_removes_group() {
        let mut s = BalanceAware::new();
        s.register_thread(th(0), grp(0), 1).unwrap();
        s.register_thread(th(1), grp(1), 1).unwrap();
        s.deregister_thread(th(0)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(holder_sequence(&mut s, 3), [1, 1, 1]);
    }

    #[test]
    fn basic_scheme_ignores_weights() {
        let mut s = ScheduleKind::BalanceBasic.build();
        s.register_thread(th(0), grp(0), 4).unwrap();
        s.register_thread(th(1), grp(1), 1).unwrap();
        let mut seq = Vec::new();
        for _ in 0..4 {
            seq.push(s.holder().unwrap().raw());
            s.advance();
        }
        assert_eq!(seq, [0, 1, 0, 1]);
    }

    #[test]
    fn balance_aware_rejects_zero_weight() {
        let mut s = BalanceAware::new();
        assert_eq!(
            s.register_thread(th(0), grp(0), 0),
            Err(GprsError::InvalidWeight(th(0)))
        );
        assert_eq!(s.len(), 0, "rejected registration must not be recorded");
    }

    #[test]
    fn balance_aware_rejects_conflicting_group_weight() {
        let mut s = BalanceAware::new();
        s.register_thread(th(0), grp(0), 2).unwrap();
        assert_eq!(
            s.register_thread(th(1), grp(0), 3),
            Err(GprsError::GroupWeightConflict {
                thread: th(1),
                established: 2,
                requested: 3,
            })
        );
        // The established weight stays in force and the conflicting thread
        // was not admitted to the group.
        assert_eq!(s.len(), 1);
        s.register_thread(th(1), grp(0), 2).unwrap();
        assert_eq!(holder_sequence(&mut s, 4), [0, 1, 0, 1]);
    }

    #[test]
    fn enforcer_assigns_contiguous_total_order() {
        let mut e = OrderEnforcer::with_schedule(ScheduleKind::RoundRobin);
        e.register_thread(th(0), grp(0), 1).unwrap();
        e.register_thread(th(1), grp(0), 1).unwrap();
        assert_eq!(e.try_grant(th(1)), None); // not TH1's turn
        assert_eq!(e.try_grant(th(0)), Some(SubThreadId::new(0)));
        assert_eq!(e.try_grant(th(0)), None);
        assert_eq!(e.try_grant(th(1)), Some(SubThreadId::new(1)));
        assert_eq!(e.next_sequence(), SubThreadId::new(2));
        assert_eq!(e.grants(), 2);
    }

    #[test]
    fn enforcer_pass_turn_skips_without_sequence() {
        let mut e = OrderEnforcer::with_schedule(ScheduleKind::RoundRobin);
        e.register_thread(th(0), grp(0), 1).unwrap();
        e.register_thread(th(1), grp(0), 1).unwrap();
        assert!(!e.pass_turn(th(1)));
        assert!(e.pass_turn(th(0))); // empty-FIFO poll: no sub-thread created
        assert_eq!(e.next_sequence(), SubThreadId::new(0));
        assert_eq!(e.try_grant(th(1)), Some(SubThreadId::new(0)));
    }

    #[test]
    fn gate_mirrors_enforcer_frontier() {
        let mut e = OrderEnforcer::with_schedule(ScheduleKind::RoundRobin);
        let gate = e.gate();
        assert_eq!(gate.holder(), None);
        e.register_thread(th(0), grp(0), 1).unwrap();
        e.register_thread(th(1), grp(0), 1).unwrap();
        assert!(gate.is_next(th(0)));
        assert!(!gate.is_next(th(1)));
        assert_eq!(gate.next_ticket(), SubThreadId::new(0));

        let before = gate.epoch();
        assert_eq!(e.try_grant(th(0)), Some(SubThreadId::new(0)));
        assert_ne!(gate.epoch(), before, "grant must republish");
        assert!(gate.is_next(th(1)));
        assert_eq!(gate.next_ticket(), SubThreadId::new(1));

        assert!(e.pass_turn(th(1)));
        assert!(gate.is_next(th(0)));
        assert_eq!(gate.next_ticket(), SubThreadId::new(1), "pass consumes no ticket");

        e.deregister_thread(th(0)).unwrap();
        assert!(gate.is_next(th(1)));
        e.deregister_thread(th(1)).unwrap();
        assert_eq!(gate.holder(), None);
    }

    #[test]
    fn gate_snapshot_is_internally_consistent() {
        let gate = OrderGate::new();
        gate.publish(Some(th(7)), SubThreadId::new(3));
        let s = gate.snapshot();
        assert_eq!(s.holder, Some(th(7)));
        assert_eq!(s.next_ticket, SubThreadId::new(3));
        let e0 = s.epoch;
        gate.publish(None, SubThreadId::new(4));
        let s2 = gate.snapshot();
        assert_eq!(s2.holder, None);
        assert_eq!(s2.epoch, e0.wrapping_add(1));
    }

    /// Loom-style interleaving stress for the ticket hand-off: one publisher
    /// drives the gate through a logged sequence of frontiers while reader
    /// threads race it. Every `(epoch, holder)` pair a reader observes must
    /// be one the publisher actually published, epochs must never run
    /// backwards within a reader, and the ticket attached to a snapshot must
    /// be at least as new as the snapshot's epoch.
    ///
    /// Readers and publisher leave a barrier together, and the publisher
    /// keeps publishing past its quota until every reader has reported an
    /// observation: on a single CPU the whole quota fits into the
    /// publisher's first time slice, and a reader scheduled only after the
    /// publisher had stopped would have raced nothing.
    #[test]
    fn gate_interleaving_stress() {
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        use std::sync::Barrier;

        const PUBLICATIONS: u64 = 20_000;
        const READERS: usize = 4;
        let gate = Arc::new(OrderGate::new());
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(READERS + 1));
        let reported = Arc::new(AtomicUsize::new(0));

        // The full publication log is a pure function of the index, so
        // readers can validate observations without sharing mutable state:
        // publication i sets holder = i % 7 (None when 6) and ticket = i.
        let expected_holder = |i: u64| -> Option<ThreadId> {
            let h = i % 7;
            (h != 6).then(|| ThreadId::new(h as u32))
        };

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                let reported = Arc::clone(&reported);
                std::thread::spawn(move || {
                    let mut last_epoch = 0u32;
                    let mut observations = 0u64;
                    start.wait();
                    while !stop.load(Ordering::Acquire) {
                        let s = gate.snapshot();
                        // Epochs are monotone while the publisher is live
                        // (no wrap in this test's range).
                        assert!(
                            s.epoch >= last_epoch,
                            "epoch ran backwards: {} then {}",
                            last_epoch,
                            s.epoch
                        );
                        last_epoch = s.epoch;
                        if s.epoch > 0 {
                            // Publication i bumped the epoch to i+1.
                            let i = u64::from(s.epoch - 1);
                            assert_eq!(
                                s.holder,
                                expected_holder(i),
                                "snapshot (epoch {}) pairs a holder never \
                                 published with it",
                                s.epoch
                            );
                            // The ticket was stored before the word: it is
                            // at least the publication's, never older.
                            assert!(
                                s.next_ticket.raw() >= i,
                                "ticket {} older than its epoch {}",
                                s.next_ticket.raw(),
                                s.epoch
                            );
                        }
                        observations += 1;
                        if observations == 1 {
                            reported.fetch_add(1, Ordering::Release);
                        }
                    }
                    observations
                })
            })
            .collect();

        start.wait();
        let mut published = 0u64;
        while published < PUBLICATIONS || reported.load(Ordering::Acquire) < READERS {
            gate.publish(expected_holder(published), SubThreadId::new(published));
            published += 1;
            if published >= PUBLICATIONS {
                // Past the quota only the stragglers matter: let them run.
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            assert!(r.join().unwrap() > 0, "every reader raced the publisher");
        }
        assert_eq!(u64::from(gate.epoch()), published);
        assert_eq!(gate.next_ticket(), SubThreadId::new(published - 1));
    }

    #[test]
    fn schedule_kind_builds_named_policies() {
        assert_eq!(ScheduleKind::RoundRobin.build().name(), "round-robin");
        assert_eq!(
            ScheduleKind::BalanceBasic.build().name(),
            "balance-aware-basic"
        );
        assert_eq!(ScheduleKind::BalanceWeighted.build().name(), "balance-aware");
        assert_eq!(ScheduleKind::RoundRobin.tag(), "R");
    }

    #[test]
    fn edge_queue_fifo_with_sequence_numbers() {
        let q = EdgeQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.push("a"), 0);
        assert_eq!(q.push("b"), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((0, "a")));
        assert_eq!(q.push("c"), 2);
        assert_eq!(q.pop(), Some((1, "b")));
        assert_eq!(q.pop(), Some((2, "c")));
        assert!(q.pop().is_none());
        assert_eq!(q.forwarded(), 3);
    }

    #[test]
    fn edge_queue_starvation_needs_close_and_empty() {
        let q = EdgeQueue::new();
        q.push(1u32);
        assert!(!q.is_starved());
        q.close();
        assert!(q.is_closed());
        assert!(!q.is_starved()); // still a token in flight
        assert_eq!(q.pop(), Some((0, 1)));
        assert!(q.is_starved());
    }

    #[test]
    #[should_panic(expected = "push after close")]
    fn edge_queue_rejects_push_after_close() {
        let q = EdgeQueue::new();
        q.close();
        q.push(1u32);
    }

    #[test]
    fn edge_queue_drops_in_flight_tokens() {
        let token = std::sync::Arc::new(());
        let q = EdgeQueue::new();
        q.push(std::sync::Arc::clone(&token));
        q.push(std::sync::Arc::clone(&token));
        q.pop();
        drop(q);
        assert_eq!(std::sync::Arc::strong_count(&token), 1);
    }

    #[test]
    fn edge_queue_concurrent_producer_consumer() {
        let q = std::sync::Arc::new(EdgeQueue::new());
        let producer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    assert_eq!(q.push(i * 3), i);
                }
                q.close();
            })
        };
        let mut got = Vec::with_capacity(10_000);
        loop {
            match q.pop() {
                Some((seq, v)) => {
                    assert_eq!(v, seq * 3);
                    got.push(seq);
                }
                None if q.is_starved() => break,
                None => std::hint::spin_loop(),
            }
        }
        producer.join().unwrap();
        assert!(got.iter().copied().eq(0..10_000));
    }
}
