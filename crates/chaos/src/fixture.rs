//! Regression fixtures: a minimized failing scenario, committed to
//! `crates/chaos/fixtures/*.plan` and replayed by tests and CI.
//!
//! A fixture is the [`ChaosPlan`] text format plus header comments binding
//! it to an engine and program:
//!
//! ```text
//! # engine: gprs-rt        (gprs-rt | cpr | sim | gprs-rt-cancel)
//! # program: nested
//! # seed: 17               (sim only: the script seed)
//! grant 24 kind=thermal scope=global victim=holder burst=3
//! mid-recovery 1 kind=soft-fault scope=global victim=oldest burst=1
//! ```
//!
//! Because the binding lives in comments, every fixture file also parses
//! as a bare [`ChaosPlan`]. Sim fixtures replay the *seed* (scripts are
//! cycle-keyed and scale-dependent, so the seed is the reproducer).
//! `gprs-rt-cancel` fixtures reuse the seed as the number of 8-grant
//! quanta to run before cancelling (the HALT point).

use crate::campaign::{
    cpr_clean, cpr_injected, gprs_clean, gprs_injected, sim_clean, sim_injected,
};
use crate::oracle::{check_cpr, check_runtime, check_sim, Violation};
use crate::programs::RUNTIME_PROGRAMS;
use gprs_core::chaos::ChaosPlan;
use gprs_core::recording::Recording;
use std::sync::Arc;

/// A parsed fixture: engine binding + plan (and seed, for sim fixtures).
#[derive(Debug, Clone)]
pub struct Fixture {
    /// `gprs-rt`, `cpr` or `sim`.
    pub engine: String,
    /// Campaign program name.
    pub program: String,
    /// Script seed (sim fixtures).
    pub seed: u64,
    /// The injection plan (real-executor fixtures).
    pub plan: ChaosPlan,
    /// Optional sibling recording file (`# recording:` header, resolved
    /// relative to the fixture's own directory): the exact grant order the
    /// minimized reproducer ran under. When present, replaying the fixture
    /// also replays the pinned schedule — a divergence fails loudly with
    /// the recording's name (`gprs-rt` fixtures only; the other engines
    /// have no schedule recorder).
    pub recording: Option<String>,
}

impl Fixture {
    /// Parses fixture text (see the module docs).
    ///
    /// # Errors
    /// Returns a description of the malformed line or missing header.
    pub fn parse(text: &str) -> Result<Fixture, String> {
        let mut engine = None;
        let mut program = None;
        let mut seed = 0u64;
        let mut recording = None;
        for line in text.lines() {
            let line = line.trim();
            let Some(rest) = line.strip_prefix('#') else {
                continue;
            };
            if let Some((key, val)) = rest.split_once(':') {
                match key.trim() {
                    "engine" => engine = Some(val.trim().to_string()),
                    "program" => program = Some(val.trim().to_string()),
                    "seed" => {
                        seed = val
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad fixture seed {:?}", val.trim()))?
                    }
                    "recording" => recording = Some(val.trim().to_string()),
                    _ => {}
                }
            }
        }
        Ok(Fixture {
            engine: engine.ok_or("fixture missing `# engine:` header")?,
            program: program.ok_or("fixture missing `# program:` header")?,
            seed,
            plan: ChaosPlan::parse(text)?,
            recording,
        })
    }

    /// Serializes the fixture (headers + plan text).
    pub fn to_text(&self) -> String {
        let rec = match &self.recording {
            Some(name) => format!("# recording: {name}\n"),
            None => String::new(),
        };
        format!(
            "# engine: {}\n# program: {}\n# seed: {}\n{rec}{}",
            self.engine,
            self.program,
            self.seed,
            self.plan.to_text()
        )
    }
}

/// Replays a fixture against its bound engine and returns the oracle's
/// verdict (empty == the regression stays fixed).
///
/// # Errors
/// Returns a description for an unknown engine binding, or for a *stale*
/// fixture whose program no longer exists in that engine's registry —
/// loudly, instead of panicking deep inside the program builders.
pub fn replay_fixture(fx: &Fixture) -> Result<Vec<Violation>, String> {
    let leg = format!("fixture/{}/{}", fx.engine, fx.program);
    match fx.engine.as_str() {
        "gprs-rt" => {
            if !RUNTIME_PROGRAMS.contains(&fx.program.as_str()) {
                return Err(stale(&fx.engine, &fx.program));
            }
            let clean = gprs_clean(&fx.program);
            Ok(match gprs_injected(&fx.program, &fx.plan) {
                Ok(report) => check_runtime(&leg, fx.seed, &fx.plan, &clean, &report),
                Err(e) => vec![Violation {
                    leg,
                    seed: fx.seed,
                    what: format!("run failed: {e}"),
                }],
            })
        }
        "cpr" => {
            if !RUNTIME_PROGRAMS.contains(&fx.program.as_str()) {
                return Err(stale(&fx.engine, &fx.program));
            }
            let clean = cpr_clean(&fx.program);
            Ok(match cpr_injected(&fx.program, &fx.plan) {
                Ok(report) => check_cpr(&leg, fx.seed, &fx.plan, &clean, &report),
                Err(e) => vec![Violation {
                    leg,
                    seed: fx.seed,
                    what: format!("run failed: {e}"),
                }],
            })
        }
        "sim" => {
            if !gprs_workloads::traces::PROGRAMS
                .iter()
                .any(|p| p.name == fx.program)
            {
                return Err(stale(&fx.engine, &fx.program));
            }
            let clean = sim_clean(&fx.program);
            let injected = sim_injected(&fx.program, fx.seed, clean.finish_cycles);
            Ok(check_sim(&leg, fx.seed, &clean, &injected))
        }
        "gprs-rt-cancel" => {
            if !RUNTIME_PROGRAMS.contains(&fx.program.as_str()) {
                return Err(stale(&fx.engine, &fx.program));
            }
            Ok(replay_cancel(&leg, fx))
        }
        other => Err(format!("unknown fixture engine {other:?}")),
    }
}

fn stale(engine: &str, program: &str) -> String {
    format!("stale fixture: program {program:?} is not in the {engine} registry")
}

/// Replays a fixture's **pinned schedule**: runs the bound program under
/// the fixture's plan with the recorded grant order enforced. A divergence
/// — the engine no longer produces the exact schedule the minimized
/// reproducer was captured under — is a violation naming the recording.
///
/// # Errors
/// Non-`gprs-rt` engines (nothing else records schedules) and stale
/// programs, as a description rather than a panic.
pub fn replay_fixture_recording(
    fx: &Fixture,
    rec: &Arc<Recording>,
) -> Result<Vec<Violation>, String> {
    if fx.engine != "gprs-rt" {
        return Err(format!(
            "fixture engine {:?} does not support schedule recordings (gprs-rt only)",
            fx.engine
        ));
    }
    if !RUNTIME_PROGRAMS.contains(&fx.program.as_str()) {
        return Err(stale(&fx.engine, &fx.program));
    }
    let leg = format!("fixture/{}/{}+recording", fx.engine, fx.program);
    let mut b = gprs_runtime::GprsBuilder::new().workers(4);
    crate::programs::register_gprs(&fx.program, &mut b);
    match b.chaos(&fx.plan).replay(rec.clone()).build().run() {
        Ok(_) => Ok(Vec::new()),
        Err(e) => Ok(vec![Violation {
            leg,
            seed: fx.seed,
            what: format!("pinned schedule diverged: {e}"),
        }]),
    }
}

/// Records the fixture's injected run into `path` — the generator for the
/// sibling file a `# recording:` header names. The chaos plan travels in
/// the recording header too, so the artifact is independently replayable
/// by `gprs-replay run`.
///
/// # Errors
/// Non-`gprs-rt` engines, stale programs, or a recorded run that fails.
pub fn record_fixture(fx: &Fixture, path: &std::path::Path) -> Result<(u64, u64), String> {
    if fx.engine != "gprs-rt" {
        return Err(format!(
            "fixture engine {:?} does not support schedule recordings (gprs-rt only)",
            fx.engine
        ));
    }
    if !RUNTIME_PROGRAMS.contains(&fx.program.as_str()) {
        return Err(stale(&fx.engine, &fx.program));
    }
    let mut b = gprs_runtime::GprsBuilder::new().workers(4);
    crate::programs::register_gprs(&fx.program, &mut b);
    let report = b
        .chaos(&fx.plan)
        .record(path)
        .record_meta(&fx.program, fx.seed)
        .build()
        .run()
        .map_err(|e| format!("recorded fixture run failed: {e}"))?;
    Ok((report.telemetry.schedule_hash, report.telemetry.retired_hash))
}

/// Replays a HALT-mid-recovery fixture: runs `seed` quanta of the program
/// under the injected plan, then cancels — so any `mid-recovery` events
/// the plan has not yet consumed fire *inside* the cancellation squash
/// itself (the interleaving where a halt could strike entries that are
/// mid-squash or already retired). The halted run must finish cleanly
/// (no panic, no poison) and leave the WAL ledger balanced:
/// `wal_appends == wal_undos + wal_prunes`.
fn replay_cancel(leg: &str, fx: &Fixture) -> Vec<Violation> {
    use gprs_runtime::session::QuantumOutcome;
    let mut b = gprs_runtime::GprsBuilder::new().workers(4);
    crate::programs::register_gprs(&fx.program, &mut b);
    let mut session = b.chaos(&fx.plan).build().into_session();
    let mut quanta = 0u64;
    while quanta < fx.seed && session.run_quantum(8) == QuantumOutcome::Yielded {
        quanta += 1;
    }
    session.cancel();
    let report = match session.finish() {
        Ok(report) => report,
        Err(e) => {
            return vec![Violation {
                leg: leg.into(),
                seed: fx.seed,
                what: format!("halted run failed to finish: {e}"),
            }]
        }
    };
    let t = &report.telemetry;
    let (appends, undos, prunes) = (
        t.counter("wal_appends"),
        t.counter("wal_undos"),
        t.counter("wal_prunes"),
    );
    let mut v = Vec::new();
    if appends != undos + prunes {
        v.push(Violation {
            leg: leg.into(),
            seed: fx.seed,
            what: format!(
                "WAL imbalance after halt-mid-recovery: \
                 {appends} appends != {undos} undos + {prunes} prunes"
            ),
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_core::chaos::ChaosEvent;

    #[test]
    fn fixture_roundtrips_and_rejects_missing_headers() {
        let fx = Fixture {
            engine: "gprs-rt".into(),
            program: "nested".into(),
            seed: 0,
            plan: ChaosPlan::new().with(ChaosEvent::at_grant(24).burst(3)),
            recording: Some("nested.gprs".into()),
        };
        let parsed = Fixture::parse(&fx.to_text()).expect("roundtrip");
        assert_eq!(parsed.engine, "gprs-rt");
        assert_eq!(parsed.program, "nested");
        assert_eq!(parsed.plan, fx.plan);
        assert_eq!(parsed.recording.as_deref(), Some("nested.gprs"));
        assert!(Fixture::parse("grant 3 burst=1\n").is_err());
    }

    /// A fixture naming a program that has since been deleted (or an
    /// unknown engine) must surface an error, never panic mid-replay.
    #[test]
    fn stale_fixtures_error_instead_of_panicking() {
        let mut fx = Fixture {
            engine: "gprs-rt".into(),
            program: "no-such-program".into(),
            seed: 0,
            plan: ChaosPlan::new().with(ChaosEvent::at_grant(24).burst(1)),
            recording: None,
        };
        for engine in ["gprs-rt", "cpr", "sim", "gprs-rt-cancel"] {
            fx.engine = engine.into();
            let err = replay_fixture(&fx).unwrap_err();
            assert!(err.contains("stale fixture"), "{engine}: {err}");
            assert!(err.contains("no-such-program"), "{engine}: {err}");
        }
        fx.engine = "warp-core".into();
        let err = replay_fixture(&fx).unwrap_err();
        assert!(err.contains("unknown fixture engine"), "{err}");
    }
}
