//! The invariant oracle: what must hold after *every* injected run.
//!
//! The checks are deliberately timing-robust. On the real runtime the
//! grant *order* is deterministic but the in-flight set at a trigger is
//! not, so the oracle asserts end-state invariants that hold for any
//! victim the selector resolved to:
//!
//! * **Precision** — the retired-order hash and retirement count converge
//!   to the fault-free run's (all older effects visible in order, no
//!   younger effect observable), and committed file contents and the
//!   atomic cells' final values (their digest) are bit-identical.
//! * **WAL balance** — every runtime-WAL append is eventually either
//!   undone by recovery or pruned at retirement:
//!   `wal_appends == wal_undos + wal_prunes`.
//! * **Accounting** — grant-triggered exceptions are all delivered
//!   (`MidRecovery` events are an upper bound: they fire only if their
//!   session ordinal is reached), and every non-ignored exception squashes
//!   at least its culprit.
//! * **CPR accounting** — on the baseline every global exception either
//!   rolls the machine back or is ignored for lack of a snapshot:
//!   `rollbacks + exceptions_ignored == exceptions`.
//! * **CPR values** — a rollback restores a state the program passed
//!   through, so the baseline commits the fault-free run's file bytes,
//!   ends with its cell values and every thread exits with the fault-free
//!   `u64` value.

use crate::guaranteed_exceptions;
use gprs_core::chaos::ChaosPlan;
use gprs_runtime::cpr::CprReport;
use gprs_runtime::report::RunReport;
use gprs_sim::result::SimResult;

/// One oracle violation: which campaign leg, which seed, what broke.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Campaign leg, e.g. `rt/nested` or `sim/canneal`.
    pub leg: String,
    /// The plan/script seed that produced it.
    pub seed: u64,
    /// Human-readable description of the broken invariant.
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} seed {}: {}", self.leg, self.seed, self.what)
    }
}

fn violation(out: &mut Vec<Violation>, leg: &str, seed: u64, what: String) {
    out.push(Violation {
        leg: leg.to_string(),
        seed,
        what,
    });
}

/// Checks an injected GPRS-runtime run against its fault-free twin.
pub fn check_runtime(
    leg: &str,
    seed: u64,
    plan: &ChaosPlan,
    clean: &RunReport,
    injected: &RunReport,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let (t, c) = (&injected.telemetry, &clean.telemetry);
    if t.retired_hash != c.retired_hash {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "retired-order hash diverged: {:#018x} != clean {:#018x}",
                t.retired_hash, c.retired_hash
            ),
        );
    }
    if t.retired_count != c.retired_count {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "retired count diverged: {} != clean {}",
                t.retired_count, c.retired_count
            ),
        );
    }
    if injected.files != clean.files {
        violation(
            &mut v,
            leg,
            seed,
            "committed file contents differ from the fault-free run".to_string(),
        );
    }
    cells(&mut v, leg, seed, injected.cells_digest, clean.cells_digest);
    let (appends, undos, prunes) = (
        t.counter("wal_appends"),
        t.counter("wal_undos"),
        t.counter("wal_prunes"),
    );
    if appends != undos + prunes {
        violation(
            &mut v,
            leg,
            seed,
            format!("WAL imbalance: {appends} appends != {undos} undos + {prunes} prunes"),
        );
    }
    let stats = &injected.stats;
    let (lo, hi) = (guaranteed_exceptions(plan), plan.total_exceptions());
    if stats.exceptions < lo || stats.exceptions > hi {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "exception accounting: delivered {} outside plan bounds [{lo}, {hi}]",
                stats.exceptions
            ),
        );
    }
    if stats.squashed + stats.exceptions_ignored < stats.exceptions {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "recovery accounting: {} squashed + {} ignored < {} exceptions",
                stats.squashed, stats.exceptions_ignored, stats.exceptions
            ),
        );
    }
    v
}

/// Checks an injected *sharded* GPRS run against both of its fault-free
/// twins. The retired order must converge to the **unsharded** twin's —
/// per-domain retirement is invisible to global precision — while committed
/// file bytes are compared against the **sharded** clean twin (the merge
/// concatenates per-domain commits, so byte layout is a sharded-mode
/// property). On top of the global WAL balance, every domain's own ledger
/// must balance and the per-domain digests must sum back to the global
/// retired hash.
pub fn check_sharded(
    leg: &str,
    seed: u64,
    plan: &ChaosPlan,
    clean_unsharded: &RunReport,
    clean_sharded: &RunReport,
    injected: &RunReport,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let (t, c) = (&injected.telemetry, &clean_unsharded.telemetry);
    if t.retired_hash != c.retired_hash {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "sharded retired-order hash diverged from the unsharded twin: \
                 {:#018x} != {:#018x}",
                t.retired_hash, c.retired_hash
            ),
        );
    }
    if t.retired_count != c.retired_count {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "sharded retired count diverged: {} != unsharded {}",
                t.retired_count, c.retired_count
            ),
        );
    }
    if injected.files != clean_sharded.files {
        violation(
            &mut v,
            leg,
            seed,
            "committed file contents differ from the sharded fault-free twin".to_string(),
        );
    }
    cells(&mut v, leg, seed, injected.cells_digest, clean_sharded.cells_digest);
    if injected.shards.len() != clean_sharded.shards.len() {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "domain count changed under faults: {} != clean {}",
                injected.shards.len(),
                clean_sharded.shards.len()
            ),
        );
    }
    let mut digest_sum = 0u64;
    for s in &injected.shards {
        digest_sum = digest_sum.wrapping_add(s.retired_hash);
        if s.wal_appends != s.wal_undos + s.wal_prunes {
            violation(
                &mut v,
                leg,
                seed,
                format!(
                    "domain {} WAL imbalance: {} appends != {} undos + {} prunes",
                    s.domain, s.wal_appends, s.wal_undos, s.wal_prunes
                ),
            );
        }
    }
    if digest_sum != t.retired_hash {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "shard digests do not sum to the merged retired hash: \
                 {digest_sum:#018x} != {:#018x}",
                t.retired_hash
            ),
        );
    }
    let stats = &injected.stats;
    let (lo, hi) = (guaranteed_exceptions(plan), plan.total_exceptions());
    if stats.exceptions < lo || stats.exceptions > hi {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "exception accounting: delivered {} outside plan bounds [{lo}, {hi}]",
                stats.exceptions
            ),
        );
    }
    if stats.squashed + stats.exceptions_ignored < stats.exceptions {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "recovery accounting: {} squashed + {} ignored < {} exceptions",
                stats.squashed, stats.exceptions_ignored, stats.exceptions
            ),
        );
    }
    v
}

/// Checks an injected CPR-baseline run.
pub fn check_cpr(
    leg: &str,
    seed: u64,
    plan: &ChaosPlan,
    clean: &CprReport,
    injected: &CprReport,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let stats = &injected.stats;
    let (lo, hi) = (guaranteed_exceptions(plan), plan.total_exceptions());
    if stats.exceptions < lo || stats.exceptions > hi {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "exception accounting: delivered {} outside plan bounds [{lo}, {hi}]",
                stats.exceptions
            ),
        );
    }
    if injected.rollbacks + stats.exceptions_ignored != stats.exceptions {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "CPR accounting: {} rollbacks + {} ignored != {} exceptions",
                injected.rollbacks, stats.exceptions_ignored, stats.exceptions
            ),
        );
    }
    if injected.outputs.len() != clean.outputs.len() {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "thread outputs incomplete: {} != clean {}",
                injected.outputs.len(),
                clean.outputs.len()
            ),
        );
    }
    let value = |r: &CprReport, t| {
        r.outputs
            .get(t)
            .and_then(|p| p.downcast_ref::<u64>().copied())
    };
    for t in clean.outputs.keys() {
        if value(clean, t).is_some() && value(injected, t) != value(clean, t) {
            violation(
                &mut v,
                leg,
                seed,
                format!(
                    "{t} exited with {:?} != clean {:?}",
                    value(injected, t),
                    value(clean, t)
                ),
            );
        }
    }
    if injected.files != clean.files {
        violation(
            &mut v,
            leg,
            seed,
            "committed file contents differ from the fault-free run".to_string(),
        );
    }
    cells(&mut v, leg, seed, injected.cells_digest, clean.cells_digest);
    v
}

/// The cells' final values must be the fault-free twin's.
fn cells(out: &mut Vec<Violation>, leg: &str, seed: u64, injected: u64, clean: u64) {
    if injected != clean {
        let what = format!("cell digest diverged: {injected:#018x} != clean {clean:#018x}");
        violation(out, leg, seed, what);
    }
}

/// Checks an injected simulator run against its fault-free twin. The
/// simulator is a pure function of its inputs, so beyond the invariants
/// this *is* a bit-replay check on the retired order.
pub fn check_sim(leg: &str, seed: u64, clean: &SimResult, injected: &SimResult) -> Vec<Violation> {
    let mut v = Vec::new();
    if !injected.completed {
        violation(&mut v, leg, seed, "DNC: exceeded the injected time cap".to_string());
        return v;
    }
    let (t, c) = (&injected.telemetry, &clean.telemetry);
    if t.retired_hash != c.retired_hash || t.retired_count != c.retired_count {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "retired order diverged: {:#018x}/{} != clean {:#018x}/{}",
                t.retired_hash, t.retired_count, c.retired_hash, c.retired_count
            ),
        );
    }
    if injected.squashed + injected.exceptions_ignored < injected.exceptions {
        violation(
            &mut v,
            leg,
            seed,
            format!(
                "recovery accounting: {} squashed + {} ignored < {} exceptions",
                injected.squashed, injected.exceptions_ignored, injected.exceptions
            ),
        );
    }
    v
}
