//! Deterministic chaos-injection plans.
//!
//! A [`ChaosPlan`] replaces one-shot, wall-clock exception injection with a
//! *plan*: a list of events keyed to deterministic progress counters of the
//! executing engine (grant count, recovery-session ordinal) rather than to
//! host time. Both real executors (`gprs-runtime`'s GPRS engine and its CPR
//! baseline) consume plans directly; the simulator expresses the same
//! scenarios through [`crate::exception::ScriptedArrival`]s, which are keyed
//! to virtual cycles. The `gprs-chaos` crate generates seeded plans, runs
//! campaigns over them, and minimizes failures into regression fixtures
//! serialized with [`ChaosPlan::to_text`] / [`ChaosPlan::parse`].
//!
//! Trigger semantics on the runtime engine:
//!
//! * [`ChaosTrigger::AtGrant`]`(n)` fires under the engine lock immediately
//!   after the `n`-th grant — its WAL record appended, its checkpoint not
//!   yet captured — so [`VictimSelector::Newest`] victimizes a sub-thread
//!   **between WAL append and step start**, and
//!   [`VictimSelector::Holder`] one inside a critical section.
//! * [`ChaosTrigger::MidRecovery`]`(n)` fires after the `n`-th recovery
//!   session completes its plan but **before the recovery pass drains** —
//!   the injected exception is handled in the same quiesced recovery pass,
//!   producing genuinely overlapping DEX→REX recovery.
//!
//! Grant *order* is deterministic on the runtime (it is the determinism
//! contract), so grant-keyed triggers fire at reproducible points of
//! progress; which sub-threads are in flight at that instant is
//! timing-dependent, so runtime victim choice is deterministic only up to
//! the in-flight set. The invariant oracle in `gprs-chaos` therefore checks
//! timing-robust invariants (retired-order hash and count, WAL balance,
//! output equality); bit-identical replay is claimed only for the
//! simulator, which is a pure function of its inputs.

use crate::exception::{ExceptionKind, ExceptionScope};
use std::fmt;

/// When a [`ChaosEvent`] fires (see the module docs for exact semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosTrigger {
    /// After the `n`-th grant (1-based; 0 fires before any grant).
    AtGrant(u64),
    /// After the `n`-th recovery session (1-based), while recovery is still
    /// in flight.
    MidRecovery(u64),
}

/// How a [`ChaosEvent`] picks its victim sub-thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimSelector {
    /// The oldest candidate in program order.
    Oldest,
    /// The youngest candidate — at a grant trigger this is the sub-thread
    /// granted that very cycle, whose step has not started.
    Newest,
    /// A sub-thread currently holding a lock (falls back to oldest when no
    /// lock is held).
    Holder,
    /// Whatever runs on the given hardware context (ignored when idle, as
    /// the paper's emulation does).
    Context(u32),
}

/// One injection event of a [`ChaosPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// When the event fires.
    pub trigger: ChaosTrigger,
    /// Kind stamped on the injected exception(s).
    pub kind: ExceptionKind,
    /// Local exceptions are counted but handled precisely on the victim
    /// context (no global recovery); global ones start recovery.
    pub scope: ExceptionScope,
    /// Victim choice; burst members pick successive distinct candidates.
    pub victim: VictimSelector,
    /// Number of exceptions delivered at this trigger (an exception storm).
    /// `0` is read as `1`.
    pub burst: u32,
}

impl ChaosEvent {
    /// A single global soft-fault on the oldest in-flight sub-thread.
    pub fn at_grant(n: u64) -> Self {
        ChaosEvent {
            trigger: ChaosTrigger::AtGrant(n),
            kind: ExceptionKind::SoftFault,
            scope: ExceptionScope::Global,
            victim: VictimSelector::Oldest,
            burst: 1,
        }
    }

    /// A single global soft-fault injected while the `n`-th recovery
    /// session is still in flight.
    pub fn mid_recovery(n: u64) -> Self {
        ChaosEvent {
            trigger: ChaosTrigger::MidRecovery(n),
            ..Self::at_grant(0)
        }
    }

    /// Sets the kind.
    pub fn kind(mut self, kind: ExceptionKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the scope.
    pub fn scope(mut self, scope: ExceptionScope) -> Self {
        self.scope = scope;
        self
    }

    /// Sets the victim selector.
    pub fn victim(mut self, victim: VictimSelector) -> Self {
        self.victim = victim;
        self
    }

    /// Sets the burst size.
    pub fn burst(mut self, n: u32) -> Self {
        self.burst = n.max(1);
        self
    }
}

/// A deterministic injection plan: the full fault schedule of one chaos run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// The events; order is irrelevant (engines sort by trigger).
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event.
    pub fn push(&mut self, ev: ChaosEvent) -> &mut Self {
        self.events.push(ev);
        self
    }

    /// Builder-style [`Self::push`].
    pub fn with(mut self, ev: ChaosEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total exceptions the plan delivers (bursts included).
    pub fn total_exceptions(&self) -> u64 {
        self.events.iter().map(|e| e.burst.max(1) as u64).sum()
    }

    /// Serializes the plan to the fixture text format (one event per line):
    ///
    /// ```text
    /// grant 12 kind=soft-fault scope=global victim=holder burst=3
    /// mid-recovery 1 kind=thermal scope=global victim=oldest burst=1
    /// ```
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            let (word, n) = match e.trigger {
                ChaosTrigger::AtGrant(n) => ("grant", n),
                ChaosTrigger::MidRecovery(n) => ("mid-recovery", n),
            };
            s.push_str(&format!(
                "{word} {n} kind={} scope={} victim={} burst={}\n",
                kind_word(e.kind),
                match e.scope {
                    ExceptionScope::Global => "global",
                    ExceptionScope::Local => "local",
                },
                victim_word(e.victim),
                e.burst.max(1),
            ));
        }
        s
    }

    /// Parses the fixture text format (see [`Self::to_text`]). Blank lines
    /// and `#` comments are skipped; unknown directives are errors.
    pub fn parse(text: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let word = it.next().expect("non-empty line");
            let n: u64 = it
                .next()
                .ok_or_else(|| format!("line {}: missing trigger count", ln + 1))?
                .parse()
                .map_err(|_| format!("line {}: bad trigger count", ln + 1))?;
            let trigger = match word {
                "grant" => ChaosTrigger::AtGrant(n),
                "mid-recovery" => ChaosTrigger::MidRecovery(n),
                other => return Err(format!("line {}: unknown directive {other:?}", ln + 1)),
            };
            let mut ev = ChaosEvent {
                trigger,
                ..ChaosEvent::at_grant(0)
            };
            for field in it {
                let (key, val) = field
                    .split_once('=')
                    .ok_or_else(|| format!("line {}: bad field {field:?}", ln + 1))?;
                match key {
                    "kind" => ev.kind = parse_kind(val).ok_or_else(|| {
                        format!("line {}: unknown kind {val:?}", ln + 1)
                    })?,
                    "scope" => {
                        ev.scope = match val {
                            "global" => ExceptionScope::Global,
                            "local" => ExceptionScope::Local,
                            _ => return Err(format!("line {}: bad scope {val:?}", ln + 1)),
                        }
                    }
                    "victim" => ev.victim = parse_victim(val).ok_or_else(|| {
                        format!("line {}: bad victim {val:?}", ln + 1)
                    })?,
                    "burst" => {
                        ev.burst = val
                            .parse()
                            .map_err(|_| format!("line {}: bad burst {val:?}", ln + 1))?
                    }
                    _ => return Err(format!("line {}: unknown field {key:?}", ln + 1)),
                }
            }
            plan.events.push(ev);
        }
        Ok(plan)
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_text().trim_end())
    }
}

fn kind_word(k: ExceptionKind) -> String {
    match k {
        ExceptionKind::SoftFault => "soft-fault".into(),
        ExceptionKind::VoltageEmergency => "voltage".into(),
        ExceptionKind::ThermalEmergency => "thermal".into(),
        ExceptionKind::ApproximationError => "approx".into(),
        ExceptionKind::ResourceRevocation => "revocation".into(),
        ExceptionKind::DataRace => "data-race".into(),
        ExceptionKind::RuntimeFault => "runtime-fault".into(),
        ExceptionKind::Custom(t) => format!("custom:{t}"),
    }
}

fn parse_kind(s: &str) -> Option<ExceptionKind> {
    Some(match s {
        "soft-fault" => ExceptionKind::SoftFault,
        "voltage" => ExceptionKind::VoltageEmergency,
        "thermal" => ExceptionKind::ThermalEmergency,
        "approx" => ExceptionKind::ApproximationError,
        "revocation" => ExceptionKind::ResourceRevocation,
        "data-race" => ExceptionKind::DataRace,
        "runtime-fault" => ExceptionKind::RuntimeFault,
        _ => ExceptionKind::Custom(s.strip_prefix("custom:")?.parse().ok()?),
    })
}

fn victim_word(v: VictimSelector) -> String {
    match v {
        VictimSelector::Oldest => "oldest".into(),
        VictimSelector::Newest => "newest".into(),
        VictimSelector::Holder => "holder".into(),
        VictimSelector::Context(c) => format!("ctx:{c}"),
    }
}

fn parse_victim(s: &str) -> Option<VictimSelector> {
    Some(match s {
        "oldest" => VictimSelector::Oldest,
        "newest" => VictimSelector::Newest,
        "holder" => VictimSelector::Holder,
        _ => VictimSelector::Context(s.strip_prefix("ctx:")?.parse().ok()?),
    })
}

/// A plan being executed: its grant-keyed and recovery-keyed events, each
/// sorted by trigger, and how far each list has fired. The engines share
/// the cursor and keep only what firing an event *means* to them.
#[derive(Debug, Clone)]
pub struct ChaosCursor {
    grant: Vec<(u64, ChaosEvent)>,
    next_grant: usize,
    recovery: Vec<(u64, ChaosEvent)>,
    next_recovery: usize,
}

impl ChaosCursor {
    /// A cursor at the start of `plan`.
    pub fn new(plan: &ChaosPlan) -> Self {
        let mut grant = Vec::new();
        let mut recovery = Vec::new();
        for e in &plan.events {
            match e.trigger {
                ChaosTrigger::AtGrant(n) => grant.push((n, e.clone())),
                ChaosTrigger::MidRecovery(n) => recovery.push((n, e.clone())),
            }
        }
        grant.sort_by_key(|&(n, _)| n);
        recovery.sort_by_key(|&(n, _)| n);
        ChaosCursor {
            grant,
            next_grant: 0,
            recovery,
            next_recovery: 0,
        }
    }

    /// The next unfired grant-keyed event due once `grants` grants have
    /// been issued; call until `None`.
    pub fn due_at_grant(&mut self, grants: u64) -> Option<ChaosEvent> {
        Self::pop_due(&self.grant, &mut self.next_grant, grants)
    }

    /// The next unfired recovery-keyed event due once `sessions` recovery
    /// sessions have completed; call until `None`.
    pub fn due_after_session(&mut self, sessions: u64) -> Option<ChaosEvent> {
        Self::pop_due(&self.recovery, &mut self.next_recovery, sessions)
    }

    fn pop_due(list: &[(u64, ChaosEvent)], next: &mut usize, count: u64) -> Option<ChaosEvent> {
        let (n, ev) = list.get(*next)?;
        (*n <= count).then(|| {
            *next += 1;
            ev.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_text() {
        let plan = ChaosPlan::new()
            .with(
                ChaosEvent::at_grant(12)
                    .kind(ExceptionKind::ThermalEmergency)
                    .victim(VictimSelector::Holder)
                    .burst(3),
            )
            .with(
                ChaosEvent::mid_recovery(1)
                    .kind(ExceptionKind::Custom(9))
                    .victim(VictimSelector::Context(4))
                    .scope(ExceptionScope::Local),
            );
        let text = plan.to_text();
        let parsed = ChaosPlan::parse(&text).expect("roundtrip");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn parse_skips_comments_and_rejects_junk() {
        let plan = ChaosPlan::parse("# a comment\n\ngrant 3 burst=2\n").expect("valid");
        assert_eq!(plan.events.len(), 1);
        assert_eq!(plan.total_exceptions(), 2);
        assert!(ChaosPlan::parse("frobnicate 3\n").is_err());
        assert!(ChaosPlan::parse("grant x\n").is_err());
        assert!(ChaosPlan::parse("grant 1 victim=??\n").is_err());
    }

    #[test]
    fn event_lists_sort_by_trigger() {
        let plan = ChaosPlan::new()
            .with(ChaosEvent::at_grant(9))
            .with(ChaosEvent::mid_recovery(2))
            .with(ChaosEvent::at_grant(3))
            .with(ChaosEvent::mid_recovery(1));
        let mut cursor = ChaosCursor::new(&plan);
        assert_eq!(cursor.due_at_grant(2), None);
        assert_eq!(cursor.due_at_grant(5).map(|e| e.trigger), Some(ChaosTrigger::AtGrant(3)));
        assert_eq!(cursor.due_at_grant(5), None, "grant 9 is not due at 5");
        assert_eq!(cursor.due_at_grant(9).map(|e| e.trigger), Some(ChaosTrigger::AtGrant(9)));
        assert_eq!(cursor.due_at_grant(100), None, "each event fires once");
        // Both recovery events are due after the second session, in order.
        let due: Vec<ChaosTrigger> = std::iter::from_fn(|| cursor.due_after_session(2))
            .map(|e| e.trigger)
            .collect();
        assert_eq!(due, [ChaosTrigger::MidRecovery(1), ChaosTrigger::MidRecovery(2)]);
    }
}
