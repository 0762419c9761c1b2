//! Who is in the token rotation (`§3.3`; the DEX of Figure 4), written once
//! for both engines. A barrier arrival or an exit takes a thread out of the
//! order enforcer's rotation; a release or a recovery puts it back. The
//! [`Roster`] owns each thread's [`ThState`] and `(group, weight)`, the live
//! count and the barrier table, and it alone registers threads with the
//! enforcer, so a thread is registered exactly while it is active. Arrivals
//! and exits are structural events of the recorded order.
//!
//! A squash takes back a release ([`Roster::take_back`]): the generation
//! count rolls back and every freed participant not re-executing its
//! arrival waits again, in both engines by the same rule.
//!
//! Each engine keeps its policy: how the turn is consumed, what a release
//! hands the resumed threads, which pending resume a take-back clears and
//! the runtime's cross-domain hub arrivals. The CPR baseline parks and
//! releases the same [`Barrier`]s.

use crate::ids::{BarrierId, GroupId, ThreadId};
use crate::ledger::{Poison, RunLedger};
use crate::order::OrderEnforcer;
use crate::recording::{EVT_ARRIVE, EVT_EXIT};
use std::collections::BTreeMap;

/// Where a thread stands in the token rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThState {
    /// In the rotation (registered with the order enforcer).
    Active,
    /// Waiting at a barrier for its forming generation to release.
    Parked(BarrierId),
    /// Exited.
    Done,
}

/// One barrier of the table.
#[derive(Debug, Clone, Default)]
pub struct Barrier {
    /// Threads that must arrive before a generation releases.
    pub participants: u32,
    /// The threads parked on the forming generation, ascending.
    pub waiting: Vec<ThreadId>,
    /// Generations released so far.
    pub gen: u64,
}

/// What an arrival did to its barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The generation the arrival forms.
    pub gen: u64,
    /// Whether every participant has now arrived.
    pub full: bool,
}

impl Barrier {
    /// A barrier for `participants` threads that has released nothing.
    pub fn new(participants: u32) -> Self {
        Barrier { participants, ..Barrier::default() }
    }

    /// Parks `t` on the forming generation.
    pub fn park(&mut self, t: ThreadId) -> Arrival {
        if let Err(at) = self.waiting.binary_search(&t) {
            self.waiting.insert(at, t);
        }
        let full = self.waiting.len() as u32 == self.participants;
        Arrival { gen: self.gen + 1, full }
    }

    /// Releases the forming generation, handing each parked thread,
    /// ascending, with the generation to `each`. The waiting list is
    /// emptied in place: the next generation's arrivals reuse it.
    pub fn release(&mut self, mut each: impl FnMut(ThreadId, u64)) {
        self.gen += 1;
        for &w in &self.waiting {
            each(w, self.gen);
        }
        self.waiting.clear();
    }
}

#[derive(Debug, Clone, Copy)]
struct Member {
    state: ThState,
    group: GroupId,
    weight: u32,
}

/// Every thread's place in the rotation, indexed by the dense [`ThreadId`],
/// the live count and the barrier table. A reason names what refused.
#[derive(Debug, Default)]
pub struct Roster {
    members: Vec<Option<Member>>,
    live: usize,
    barriers: BTreeMap<BarrierId, Barrier>,
}

impl Roster {
    /// An empty roster over the declared `barriers`.
    pub fn new(barriers: BTreeMap<BarrierId, Barrier>) -> Self {
        Roster { barriers, ..Roster::default() }
    }

    /// Thread `t`'s state, if it is on the roster.
    #[inline]
    pub fn state(&self, t: ThreadId) -> Option<ThState> {
        Some(self.members.get(t.raw() as usize).copied()??.state)
    }

    /// Thread `t`'s group and weight, if it is on the roster.
    pub fn group(&self, t: ThreadId) -> Option<(GroupId, u32)> {
        let m = self.members.get(t.raw() as usize).copied()??;
        Some((m.group, m.weight))
    }

    /// Threads on the roster that have not exited.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The barrier table.
    pub fn barriers(&self) -> &BTreeMap<BarrierId, Barrier> {
        &self.barriers
    }

    /// The holder check: the token may rest only on an active thread. Off
    /// the rotation it is a replay divergence when a tape drives the order.
    #[inline]
    pub fn check_holder(&self, holder: ThreadId, ledger: &RunLedger) -> Poison {
        match self.state(holder) {
            Some(ThState::Active) => None,
            state => Some(off_rotation(holder, state, ledger.replay_pos())),
        }
    }

    /// Puts `t` on the roster, active: a fresh thread, or an un-spawned one
    /// re-created under its id.
    pub fn add(
        &mut self,
        enforcer: &mut OrderEnforcer,
        t: ThreadId,
        group: GroupId,
        weight: u32,
    ) -> Poison {
        if self.state(t).is_some() {
            return Some(format!("roster: thread {t} is already on the roster"));
        }
        if let Err(e) = refused(t, enforcer.register_thread(t, group, weight)) {
            return Some(e);
        }
        let ix = t.raw() as usize;
        self.members.resize(self.members.len().max(ix + 1), None);
        self.members[ix] = Some(Member { state: ThState::Active, group, weight });
        self.live += 1;
        None
    }

    /// Takes `t` off the roster: recovery un-spawned it.
    pub fn remove(&mut self, enforcer: &mut OrderEnforcer, t: ThreadId) -> Poison {
        let left = self.shift(enforcer, t, ThState::Done);
        if let Some(slot) = self.members.get_mut(t.raw() as usize) {
            *slot = None;
        }
        left.err()
    }

    /// Active `t` arrives at `b`: the event is noted and `t` parks for the
    /// generation its arrival forms (`None` if it could not).
    pub fn arrive(
        &mut self,
        enforcer: &mut OrderEnforcer,
        ledger: &mut RunLedger,
        t: ThreadId,
        b: BarrierId,
    ) -> (Option<Arrival>, Poison) {
        let reason = ledger.structural(t, EVT_ARRIVE);
        match self.park(enforcer, t, b) {
            Ok(arrival) => (Some(arrival), reason),
            Err(e) => (None, reason.or(Some(e))),
        }
    }

    /// Releases `b`'s forming generation: its parked threads rejoin the
    /// rotation in ascending id order, each handed to `each`.
    pub fn release(
        &mut self,
        enforcer: &mut OrderEnforcer,
        b: BarrierId,
        mut each: impl FnMut(ThreadId, u64),
    ) -> Poison {
        let Some(bar) = self.barriers.get_mut(&b) else {
            return Some(undeclared(b));
        };
        let (members, mut first) = (&mut self.members, None);
        bar.release(|w, gen| {
            let rejoined = match members.get_mut(w.raw() as usize).and_then(Option::as_mut) {
                Some(m) => {
                    m.state = ThState::Active;
                    refused(w, enforcer.register_thread(w, m.group, m.weight))
                }
                None => Err(off_roster(w)),
            };
            first = first.take().or(rejoined.err());
            each(w, gen);
        });
        first
    }

    /// Active `t` exits: the event is noted and `t` leaves the rotation and
    /// the live count.
    pub fn exit(
        &mut self,
        enforcer: &mut OrderEnforcer,
        ledger: &mut RunLedger,
        t: ThreadId,
    ) -> Poison {
        let reason = ledger.structural(t, EVT_EXIT);
        let exited = self.active(t).and_then(|()| self.shift(enforcer, t, ThState::Done));
        reason.or(exited.err())
    }

    /// Recovery brings `t` back into the rotation, un-parked or un-exited.
    /// Returns the state it had.
    pub fn revive(&mut self, enforcer: &mut OrderEnforcer, t: ThreadId) -> Result<ThState, String> {
        self.shift(enforcer, t, ThState::Active)
    }

    /// Takes back the release of `b`'s generation `gen` and of every later
    /// one: a squash undid an arrival that fed it. The generation count
    /// rolls back to `gen - 1`, and every active thread that `resuming`
    /// reports as about to resume `b` at `gen` or later (the engine clears
    /// that resume) parks on `b` again, ascending. No event is noted, and a
    /// re-park never releases. A generation not yet released takes nothing.
    pub fn take_back(
        &mut self,
        enforcer: &mut OrderEnforcer,
        b: BarrierId,
        gen: u64,
        mut resuming: impl FnMut(ThreadId) -> bool,
    ) -> Poison {
        let Some(bar) = self.barriers.get_mut(&b) else {
            return Some(undeclared(b));
        };
        if gen == 0 || gen > bar.gen {
            return None;
        }
        bar.gen = gen - 1;
        let mut first = None;
        for raw in 0..self.members.len() as u32 {
            let t = ThreadId::new(raw);
            if self.state(t) == Some(ThState::Active) && resuming(t) {
                first = first.or(self.park(enforcer, t, b).err());
            }
        }
        first
    }

    fn park(
        &mut self,
        enforcer: &mut OrderEnforcer,
        t: ThreadId,
        b: BarrierId,
    ) -> Result<Arrival, String> {
        self.active(t)?;
        if !self.barriers.contains_key(&b) {
            return Err(undeclared(b));
        }
        self.shift(enforcer, t, ThState::Parked(b))?;
        self.barriers.get_mut(&b).map(|bar| bar.park(t)).ok_or_else(|| undeclared(b))
    }

    fn active(&self, t: ThreadId) -> Result<(), String> {
        match self.state(t) {
            Some(ThState::Active) => Ok(()),
            Some(s) => Err(format!("roster: thread {t} is {s:?}, not active")),
            None => Err(off_roster(t)),
        }
    }

    /// Moves `t` to `to`, returning the state it left: registered exactly
    /// while active, off its barrier's waiting list once it left it, and
    /// counted live unless done.
    fn shift(
        &mut self,
        enforcer: &mut OrderEnforcer,
        t: ThreadId,
        to: ThState,
    ) -> Result<ThState, String> {
        let m = self.members.get_mut(t.raw() as usize).and_then(Option::as_mut);
        let m = m.ok_or_else(|| off_roster(t))?;
        let from = m.state;
        match (from == ThState::Active, to == ThState::Active) {
            (true, false) => refused(t, enforcer.deregister_thread(t))?,
            (false, true) => refused(t, enforcer.register_thread(t, m.group, m.weight))?,
            _ => {}
        }
        m.state = to;
        self.live += usize::from(from == ThState::Done);
        self.live -= usize::from(to == ThState::Done);
        if let ThState::Parked(b) = from {
            if let Some(bar) = self.barriers.get_mut(&b) {
                if let Ok(at) = bar.waiting.binary_search(&t) {
                    bar.waiting.remove(at);
                }
            }
        }
        Ok(from)
    }
}

fn off_roster(t: ThreadId) -> String {
    format!("roster: thread {t} is not on the roster")
}

fn undeclared(b: BarrierId) -> String {
    format!("roster: barrier {b} was never declared")
}

fn refused(t: ThreadId, r: crate::error::Result<()>) -> Result<(), String> {
    r.map_err(|e| format!("roster: the order enforcer refused thread {t}: {e}"))
}

/// Why the token may not rest on `holder` in `state` (`None`: off the roster).
#[cold]
fn off_rotation(holder: ThreadId, state: Option<ThState>, replay_pos: Option<usize>) -> String {
    let t = holder.raw();
    let what = state.map_or("was never created".into(), |s| format!("is {s:?}"));
    match replay_pos {
        Some(pos) => format!(
            "replay divergence at event {pos}: recorded thread {t} {what} in the live run \
             (recording expects it active)"
        ),
        None => format!("token holder thread {t} {what} (corrupted schedule state)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::ScheduleKind;
    use gprs_telemetry::TelemetryConfig;

    fn t(raw: u32) -> ThreadId {
        ThreadId::new(raw)
    }

    fn ledger() -> RunLedger {
        RunLedger::new(&TelemetryConfig::default(), 1, 0, false)
    }

    /// Four threads in one group and barrier 0 for three of them.
    fn roster(enforcer: &mut OrderEnforcer) -> Roster {
        let b = BarrierId::new(0);
        let mut roster = Roster::new([(b, Barrier::new(3))].into());
        for raw in 0..4 {
            assert_eq!(roster.add(enforcer, t(raw), GroupId::new(0), 1), None);
        }
        roster
    }

    #[test]
    fn an_arrival_parks_out_of_the_rotation_and_a_release_readmits_in_id_order() {
        let mut enforcer = OrderEnforcer::with_schedule(ScheduleKind::RoundRobin);
        let (mut roster, mut ledger) = (roster(&mut enforcer), ledger());
        let b = BarrierId::new(0);
        for (raw, full) in [(2, false), (0, false)] {
            let (arrival, reason) = roster.arrive(&mut enforcer, &mut ledger, t(raw), b);
            assert_eq!((arrival, reason), (Some(Arrival { gen: 1, full }), None));
        }
        let waiting = roster.barriers().get(&b).map(|bar| bar.waiting.clone());
        assert_eq!(waiting, Some(vec![t(0), t(2)]));
        assert_eq!((enforcer.live_threads(), roster.live()), (2, 4));
        let (arrival, _) = roster.arrive(&mut enforcer, &mut ledger, t(1), b);
        assert_eq!(arrival, Some(Arrival { gen: 1, full: true }));
        let mut resumed = Vec::new();
        assert_eq!(roster.release(&mut enforcer, b, |w, gen| resumed.push((w.raw(), gen))), None);
        assert_eq!(resumed, [(0, 1), (1, 1), (2, 1)]);
        assert_eq!(enforcer.live_threads(), 4);
        let bar = roster.barriers().get(&b).expect("declared");
        assert!(bar.waiting.is_empty() && bar.waiting.capacity() >= 3, "released in place");
        assert_eq!(bar.gen, 1);
    }

    #[test]
    fn recovery_revives_exited_and_parked_threads_and_reparks_undone_releases() {
        let mut enforcer = OrderEnforcer::with_schedule(ScheduleKind::BalanceBasic);
        let (mut roster, mut ledger) = (roster(&mut enforcer), ledger());
        let b = BarrierId::new(0);
        assert_eq!(roster.exit(&mut enforcer, &mut ledger, t(3)), None);
        let _ = roster.arrive(&mut enforcer, &mut ledger, t(1), b);
        assert_eq!((enforcer.live_threads(), roster.live()), (2, 3));
        assert_eq!(roster.revive(&mut enforcer, t(3)), Ok(ThState::Done));
        assert_eq!(roster.revive(&mut enforcer, t(1)), Ok(ThState::Parked(b)));
        assert_eq!(roster.revive(&mut enforcer, t(1)), Ok(ThState::Active));
        assert_eq!((enforcer.live_threads(), roster.live()), (4, 4));
        assert!(roster.barriers().get(&b).is_some_and(|bar| bar.waiting.is_empty()));
        let _ = roster.arrive(&mut enforcer, &mut ledger, t(2), b);
        assert_eq!(roster.remove(&mut enforcer, t(2)), None);
        assert!(roster.barriers().get(&b).is_some_and(|bar| bar.waiting.is_empty()));
        assert_eq!((enforcer.live_threads(), roster.live()), (3, 3));
        assert_eq!(roster.add(&mut enforcer, t(2), GroupId::new(0), 1), None, "re-spawned");
        assert_eq!((enforcer.live_threads(), roster.live()), (4, 4));

        // A squash takes back a release.
        for raw in 0..3 {
            let _ = roster.arrive(&mut enforcer, &mut ledger, t(raw), b);
        }
        let mut resume = [None; 4];
        assert_eq!(roster.release(&mut enforcer, b, |w, gen| resume[w.raw() as usize] = Some(gen)), None);
        // Thread 1 re-executes its arrival: only 0 and 2 still resume.
        resume[1] = None;
        let mut asked = Vec::new();
        let taken = roster.take_back(&mut enforcer, b, 1, |w| {
            asked.push(w.raw());
            resume[w.raw() as usize].take().is_some_and(|gen| gen >= 1)
        });
        assert_eq!(taken, None);
        assert_eq!(asked, [0, 1, 2, 3], "every active thread, ascending");
        assert_eq!(resume, [None; 4], "the resumes it re-parked are cleared");
        let bar = roster.barriers().get(&b).expect("declared");
        assert_eq!((bar.gen, bar.waiting.clone()), (0, vec![t(0), t(2)]));
        assert_eq!(roster.state(t(1)), Some(ThState::Active));
        assert_eq!((enforcer.live_threads(), roster.live()), (2, 4));
        // The generation is unreleased now: taking it back again takes nothing.
        assert_eq!(roster.take_back(&mut enforcer, b, 1, |_| unreachable!()), None);
        // The re-arrival releases the same generation again.
        let (arrival, _) = roster.arrive(&mut enforcer, &mut ledger, t(1), b);
        assert_eq!(arrival, Some(Arrival { gen: 1, full: true }));
        let undeclared = roster.take_back(&mut enforcer, BarrierId::new(9), 1, |_| true);
        assert_eq!(undeclared.as_deref(), Some("roster: barrier B9 was never declared"));
    }

    #[test]
    fn what_the_roster_refuses_is_named() {
        let mut enforcer = OrderEnforcer::with_schedule(ScheduleKind::RoundRobin);
        let (mut roster, mut ledger) = (roster(&mut enforcer), ledger());
        let named = |reason: Poison| reason.expect("refused");
        assert_eq!(
            named(roster.add(&mut enforcer, t(1), GroupId::new(0), 1)),
            "roster: thread TH1 is already on the roster"
        );
        assert_eq!(roster.exit(&mut enforcer, &mut ledger, t(0)), None);
        let exited = roster.exit(&mut enforcer, &mut ledger, t(0));
        assert_eq!(named(exited), "roster: thread TH0 is Done, not active");
        let (arrival, reason) = roster.arrive(&mut enforcer, &mut ledger, t(1), BarrierId::new(9));
        assert_eq!(arrival, None);
        assert_eq!(named(reason), "roster: barrier B9 was never declared");
        assert_eq!(roster.state(t(1)), Some(ThState::Active), "a refused arrival parks nothing");
        let removed = roster.remove(&mut enforcer, t(7));
        assert_eq!(named(removed), "roster: thread TH7 is not on the roster");
        assert_eq!(
            named(roster.check_holder(t(0), &ledger)),
            "token holder thread 0 is Done (corrupted schedule state)"
        );
        assert_eq!(roster.check_holder(t(1), &ledger), None);
    }
}
