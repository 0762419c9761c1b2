//! The campaign driver: N seeds × every workload program × every engine.
//!
//! For each (program, engine) leg the fault-free twin is computed once and
//! reused across seeds — it is seed-independent — then every seed derives
//! its plan (real executors) or script (simulator), runs it, and feeds the
//! result to the [`crate::oracle`]. A campaign passes only when **zero**
//! invariants are violated across every leg.

use crate::oracle::{check_cpr, check_runtime, check_sharded, check_sim, Violation};
use crate::programs::{register_gprs, register_gprs_sharded, RUNTIME_PROGRAMS, SHARD_PROGRAMS};
use crate::{seeded_plan, seeded_script};
use gprs_core::chaos::ChaosPlan;
use gprs_core::exception::InjectorConfig;
use gprs_runtime::cpr::{CprBuilder, CprReport};
use gprs_runtime::report::RunReport;
use gprs_runtime::GprsBuilder;
use gprs_sim::costs::{MechCosts, CYCLES_PER_SEC};
use gprs_sim::gprs::{run_gprs, GprsSimConfig};
use gprs_sim::result::SimResult;
use gprs_workloads::traces::{build, TraceParams, PROGRAMS};

/// Simulator contexts for campaign legs (small enough to keep 32 seeds ×
/// 10 programs fast, large enough for real overlap).
const SIM_CONTEXTS: u32 = 8;

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds per (program, engine) leg.
    pub seeds: u64,
    /// Quick mode: a fixed subset of simulator programs (CI smoke).
    pub quick: bool,
}

impl CampaignConfig {
    /// The acceptance-criteria campaign: 32 seeds, every program.
    pub fn full() -> Self {
        CampaignConfig {
            seeds: 32,
            quick: false,
        }
    }

    /// The CI smoke campaign: 6 seeds, three simulator programs.
    pub fn smoke() -> Self {
        CampaignConfig {
            seeds: 6,
            quick: true,
        }
    }
}

/// What a campaign did and found.
#[derive(Debug, Default)]
pub struct CampaignOutcome {
    /// Injected runs executed.
    pub runs: u64,
    /// `(leg, seed)` pairs exercised, for reporting.
    pub legs: u64,
    /// Every invariant violation found (empty == pass).
    pub violations: Vec<Violation>,
}

/// Mixes a program name into a per-leg seed stream (FNV-1a).
fn leg_seed(program: &str, seed: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in program.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h ^ seed
}

/// Fault-free GPRS-runtime run of a campaign program.
pub fn gprs_clean(program: &str) -> RunReport {
    let mut b = GprsBuilder::new().workers(4);
    register_gprs(program, &mut b);
    b.build().run().expect("fault-free campaign run completes")
}

/// Injected GPRS-runtime run of a campaign program under a plan.
pub fn gprs_injected(program: &str, plan: &ChaosPlan) -> Result<RunReport, String> {
    let mut b = GprsBuilder::new().workers(4);
    register_gprs(program, &mut b);
    b.chaos(plan).build().run().map_err(|e| e.to_string())
}

/// Fault-free CPR-baseline run of a campaign program.
pub fn cpr_clean(program: &str) -> CprReport {
    let mut b = CprBuilder::new().workers(4).checkpoint_every(24);
    register_gprs(program, &mut b);
    b.build().run().expect("fault-free CPR run completes")
}

/// Injected CPR-baseline run of a campaign program under a plan.
pub fn cpr_injected(program: &str, plan: &ChaosPlan) -> Result<CprReport, String> {
    let mut b = CprBuilder::new().workers(4).checkpoint_every(24);
    register_gprs(program, &mut b);
    b.chaos(plan).build().run().map_err(|e| e.to_string())
}

/// Fault-free simulator run of a paper workload at campaign scale.
pub fn sim_clean(program: &str) -> SimResult {
    let w = build(program, &TraceParams::paper().scaled(0.02));
    run_gprs(&w, &GprsSimConfig::balance_aware(SIM_CONTEXTS))
}

/// Injected simulator run: the seeded script plus a background Poisson
/// stream (kind-cycled, one local in four) at a fixed sub-tipping rate.
///
/// The rate is absolute (0.5/s — the paper's low-rate regime, well under
/// the 1.92/s single-context tipping point), *not* scaled to the program's
/// clean duration: scaling it would push short programs like histogram
/// (~14 ms clean) far past their tipping rate and turn every run into a
/// by-design livelock. Likewise the time cap budgets a full REX restore
/// (~450 ms, larger than some programs' entire clean run) plus a
/// re-execution for every scripted arrival on top of the 16× clean slack.
pub fn sim_injected(program: &str, seed: u64, clean_finish: u64) -> SimResult {
    sim_injected_cfg(program, seed, clean_finish, false)
}

/// [`sim_injected`] with static checkpoint elision switched on — the
/// `sim-elide` legs, checked against the *elision-off* clean twin so the
/// proofs must be invisible to the oracle.
pub fn sim_injected_elided(program: &str, seed: u64, clean_finish: u64) -> SimResult {
    sim_injected_cfg(program, seed, clean_finish, true)
}

fn sim_injected_cfg(program: &str, seed: u64, clean_finish: u64, elide: bool) -> SimResult {
    let w = build(program, &TraceParams::paper().scaled(0.02));
    let script = seeded_script(seed, clean_finish, SIM_CONTEXTS);
    let arrivals: u64 = script.iter().map(|a| a.burst.max(1) as u64).sum();
    let costs = MechCosts::paper_default();
    let recovery_budget =
        (arrivals + 4) * (costs.gprs_restore + costs.restore_wait + clean_finish);
    let injector = InjectorConfig::paper(0.5, SIM_CONTEXTS, CYCLES_PER_SEC)
        .with_seed(seed ^ 0xD37E)
        .with_script(script)
        .with_kind_mix(InjectorConfig::all_kinds())
        .with_local_every(4);
    let cfg = GprsSimConfig::balance_aware(SIM_CONTEXTS)
        .with_elision(elide)
        .with_exceptions(injector)
        .with_time_cap(clean_finish.saturating_mul(16).saturating_add(recovery_budget));
    run_gprs(&w, &cfg)
}

/// Injected GPRS-runtime run of the beacon program with WAL elision on:
/// the builder consumes the model's dead-store proofs, so every beacon
/// write (including re-executed ones) skips its undo record while the
/// oracle holds the run to the elision-off twin's retired order.
pub fn gprs_elide_injected(plan: &ChaosPlan) -> Result<RunReport, String> {
    let mut b = GprsBuilder::new().workers(4);
    register_gprs("beacon", &mut b);
    b.model(crate::programs::beacon_leg_model())
        .elide(true)
        .chaos(plan)
        .build()
        .run()
        .map_err(|e| e.to_string())
}

/// Fault-free sharded run of a [`SHARD_PROGRAMS`] workload.
pub fn gprs_sharded_clean(program: &str) -> RunReport {
    let mut b = GprsBuilder::new().workers(4);
    let model = register_gprs_sharded(program, &mut b);
    b.model(model)
        .build_sharded()
        .run()
        .expect("fault-free sharded campaign run completes")
}

/// Injected sharded run. Chaos triggers attach to execution domain 0 (the
/// deterministic injection point: domain-local grant indices), so faults
/// squash inside one shard while the cross-domain edges stay live.
pub fn gprs_sharded_injected(program: &str, plan: &ChaosPlan) -> Result<RunReport, String> {
    let mut b = GprsBuilder::new().workers(4);
    let model = register_gprs_sharded(program, &mut b);
    b.model(model)
        .chaos(plan)
        .build_sharded()
        .run()
        .map_err(|e| e.to_string())
}

/// The sharded differential legs (`shard/*`): faults land inside domain 0
/// of a multi-domain run; the oracle holds the merged report to the
/// *unsharded* clean twin's retired order, the *sharded* clean twin's file
/// bytes, and per-domain WAL balance — global precision must survive
/// per-domain ordering, retirement, logging and recovery.
fn shard_legs(cfg: &CampaignConfig, out: &mut CampaignOutcome) {
    for program in SHARD_PROGRAMS {
        let leg = format!("shard/{program}");
        let clean_unsharded = {
            let mut b = GprsBuilder::new().workers(4);
            let model = register_gprs_sharded(program, &mut b);
            b.model(model)
                .build()
                .run()
                .expect("fault-free unsharded twin completes")
        };
        let clean_sharded = gprs_sharded_clean(program);
        out.legs += 1;
        // Plans key on domain 0's local grant stream, so bound triggers by
        // its clean grant count rather than the merged total.
        let domain0_grants = clean_sharded
            .shards
            .first()
            .map_or(clean_sharded.stats.grants, |s| s.grants);
        for seed in 0..cfg.seeds {
            let plan = seeded_plan(leg_seed(&leg, seed), domain0_grants);
            out.runs += 1;
            match gprs_sharded_injected(program, &plan) {
                Ok(report) => out.violations.extend(check_sharded(
                    &leg,
                    seed,
                    &plan,
                    &clean_unsharded,
                    &clean_sharded,
                    &report,
                )),
                Err(e) => out.violations.push(Violation {
                    leg: leg.clone(),
                    seed,
                    what: format!("run failed: {e}"),
                }),
            }
        }
    }
}

/// Spec seed for the serve legs: clean twins stay seed-independent (one
/// solo golden per workload), only the injected fault plans vary.
const SERVE_SPEC_SEED: u64 = 11;

/// The multi-tenant legs: every serve-registry workload × every campaign
/// seed, all submitted to ONE shared 2-worker pool at once — maximal
/// co-residency, with exception recoveries from many tenants interleaving
/// on the same OS threads. Each job's report must satisfy the same
/// invariants as a solo injected run against the workload's solo
/// fault-free twin: tenancy must be invisible to precision.
fn serve_legs(cfg: &CampaignConfig, out: &mut CampaignOutcome) {
    use gprs_serve::{build_solo, fault_plan, JobSpec, JobStatus, PoolConfig, ServePool};

    let pool = ServePool::start(PoolConfig {
        workers: 2,
        quantum: 48,
        ..Default::default()
    });
    let handle = pool.handle();
    let mut tickets = Vec::new();
    for program in gprs_serve::WORKLOADS {
        for seed in 0..cfg.seeds {
            let fault = leg_seed(program, seed).max(1);
            let spec = JobSpec::new(*program, SERVE_SPEC_SEED).faults(fault);
            let ticket = handle.submit(spec).expect("pool is admitting");
            tickets.push((*program, seed, fault, ticket));
        }
    }
    // Solo twins run on this thread while the pool churns through the
    // injected backlog.
    let mut clean = std::collections::BTreeMap::new();
    for program in gprs_serve::WORKLOADS {
        let report = build_solo(&JobSpec::new(*program, SERVE_SPEC_SEED))
            .expect("registry workload")
            .run()
            .expect("fault-free solo twin completes");
        clean.insert(*program, report);
        out.legs += 1;
    }
    for (program, seed, fault, ticket) in tickets {
        let leg = format!("serve/{program}");
        out.runs += 1;
        let outcome = ticket.wait();
        if outcome.status != JobStatus::Completed {
            out.violations.push(Violation {
                leg,
                seed,
                what: format!(
                    "served job ended {:?}: {}",
                    outcome.status,
                    outcome.error.unwrap_or_default()
                ),
            });
            continue;
        }
        let report = outcome.report.expect("completed jobs carry a report");
        let plan = fault_plan(fault);
        out.violations
            .extend(check_runtime(&leg, seed, &plan, &clean[program], &report));
    }
    pool.shutdown();
}

/// The ProcessCrash legs: every serve workload, durable file backend,
/// "killed" mid-flight at a seeded quantum boundary (the session is
/// dropped with its WAL ledger imbalanced and its epoch unfinished —
/// exactly what SIGKILL leaves on disk, minus the torn tail, which the
/// loader tests cover separately). The restart loads the image, replays
/// under prefix verification, and must converge to the fault-free twin's
/// retired hash — restart *is* recovery, and it must also satisfy every
/// ordinary chaos-oracle invariant for the injected plan.
fn durable_crash_legs(cfg: &CampaignConfig, out: &mut CampaignOutcome) {
    use gprs_core::persist::{unique_temp_dir, FileBackend, PersistBackend};
    use gprs_runtime::session::QuantumOutcome;
    use gprs_serve::{build_job_durable, build_solo, fault_plan, JobSpec};
    use std::sync::Arc;

    // Crash/restart cycles are I/O-bound; a handful of seeds per workload
    // keeps the full campaign tractable.
    let seeds = cfg.seeds.min(if cfg.quick { 3 } else { 8 });
    for program in gprs_serve::WORKLOADS {
        let leg = format!("crash/{program}");
        let clean = build_solo(&JobSpec::new(*program, SERVE_SPEC_SEED))
            .expect("registry workload")
            .run()
            .expect("fault-free solo twin completes");
        out.legs += 1;
        for seed in 0..seeds {
            out.runs += 1;
            let fault = leg_seed(program, seed).max(1);
            let spec = JobSpec::new(*program, SERVE_SPEC_SEED).faults(fault);
            let plan = fault_plan(fault);
            let dir = unique_temp_dir("gprs-chaos-crash");
            let crashed = (|| -> Result<bool, String> {
                let backend =
                    Arc::new(FileBackend::open(&dir).map_err(|e| e.to_string())?);
                let mut session = build_job_durable(&spec, 0, 0, backend, None)?
                    .into_session();
                // Seeded crash point: 1..=6 quanta of 16 grants.
                let quanta = 1 + leg_seed(program, seed ^ 0xC4A5) % 6;
                for _ in 0..quanta {
                    if session.run_quantum(16) == QuantumOutcome::Finished {
                        // Finished before the crash point: the restart
                        // below still must load and verify the full log.
                        let _ = session.finish().map_err(|e| e.to_string())?;
                        return Ok(false);
                    }
                }
                drop(session); // the "kill": no cancel, no finish, no seal
                Ok(true)
            })();
            match crashed {
                Ok(_) => {
                    let restart = (|| -> Result<RunReport, String> {
                        let backend =
                            Arc::new(FileBackend::open(&dir).map_err(|e| e.to_string())?);
                        let image = backend.load().map_err(|e| e.to_string())?;
                        // Replay in the SAME drive mode as the crashed
                        // run (cooperative session): the position-wise
                        // retirement sequence that prefix verification
                        // checks is deterministic per drive mode, not
                        // across modes — exactly how the serve pool and
                        // `--durable-resume` replay their own logs.
                        let mut session =
                            build_job_durable(&spec, 0, 0, backend, Some(&image))?
                                .into_session();
                        while session.run_quantum(16) == QuantumOutcome::Yielded {}
                        session.finish().map_err(|e| e.to_string())
                    })();
                    match restart {
                        Ok(report) => out.violations.extend(check_runtime(
                            &leg, seed, &plan, &clean, &report,
                        )),
                        Err(e) => out.violations.push(Violation {
                            leg: leg.clone(),
                            seed,
                            what: format!("restart failed: {e}"),
                        }),
                    }
                }
                Err(e) => out.violations.push(Violation {
                    leg: leg.clone(),
                    seed,
                    what: format!("crash run failed: {e}"),
                }),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Runs the full campaign and collects every violation.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignOutcome {
    let mut out = CampaignOutcome::default();

    for program in RUNTIME_PROGRAMS {
        let leg = format!("rt/{program}");
        let clean = gprs_clean(program);
        out.legs += 1;
        for seed in 0..cfg.seeds {
            let plan = seeded_plan(leg_seed(program, seed), clean.stats.grants);
            out.runs += 1;
            match gprs_injected(program, &plan) {
                Ok(report) => out
                    .violations
                    .extend(check_runtime(&leg, seed, &plan, &clean, &report)),
                Err(e) => out.violations.push(Violation {
                    leg: leg.clone(),
                    seed,
                    what: format!("run failed: {e}"),
                }),
            }
        }
    }

    // Elision legs: the same programs with the static restartability
    // proofs consumed, held to the *elision-off* clean twins — the proofs
    // may remove recovery cost, never recovery outcome. Runtime leg:
    // beacon with dead-store WAL elision. Sim legs: checkpoint elision at
    // proven read-only boundaries.
    {
        let leg = "rt-elide/beacon";
        let clean = gprs_clean("beacon");
        out.legs += 1;
        for seed in 0..cfg.seeds {
            let plan = seeded_plan(leg_seed(leg, seed), clean.stats.grants);
            out.runs += 1;
            match gprs_elide_injected(&plan) {
                Ok(report) => {
                    out.violations
                        .extend(check_runtime(leg, seed, &plan, &clean, &report));
                    if report.telemetry.counter("wal_records_elided") == 0 {
                        out.violations.push(Violation {
                            leg: leg.to_string(),
                            seed,
                            what: "elision leg elided nothing: the proof pipeline is dead"
                                .to_string(),
                        });
                    }
                }
                Err(e) => out.violations.push(Violation {
                    leg: leg.to_string(),
                    seed,
                    what: format!("run failed: {e}"),
                }),
            }
        }
    }
    let sim_elide_programs: &[&str] = if cfg.quick {
        &["histogram"]
    } else {
        &["pbzip2", "barnes-hut", "histogram"]
    };
    for program in sim_elide_programs {
        let leg = format!("sim-elide/{program}");
        let clean = sim_clean(program);
        out.legs += 1;
        for seed in 0..cfg.seeds {
            out.runs += 1;
            let injected = sim_injected_elided(program, seed, clean.finish_cycles);
            out.violations
                .extend(check_sim(&leg, seed, &clean, &injected));
        }
    }

    shard_legs(cfg, &mut out);
    serve_legs(cfg, &mut out);
    durable_crash_legs(cfg, &mut out);

    for program in RUNTIME_PROGRAMS {
        let leg = format!("cpr/{program}");
        let clean = cpr_clean(program);
        out.legs += 1;
        for seed in 0..cfg.seeds {
            let plan = seeded_plan(leg_seed(program, seed), clean.stats.grants);
            out.runs += 1;
            match cpr_injected(program, &plan) {
                Ok(report) => out
                    .violations
                    .extend(check_cpr(&leg, seed, &plan, &clean, &report)),
                Err(e) => out.violations.push(Violation {
                    leg: leg.clone(),
                    seed,
                    what: format!("run failed: {e}"),
                }),
            }
        }
    }

    let sim_programs: Vec<&str> = if cfg.quick {
        vec!["canneal", "dedup", "histogram"]
    } else {
        PROGRAMS.iter().map(|p| p.name).collect()
    };
    for program in sim_programs {
        let leg = format!("sim/{program}");
        let clean = sim_clean(program);
        out.legs += 1;
        for seed in 0..cfg.seeds {
            out.runs += 1;
            let injected = sim_injected(program, seed, clean.finish_cycles);
            out.violations
                .extend(check_sim(&leg, seed, &clean, &injected));
        }
    }

    out
}
