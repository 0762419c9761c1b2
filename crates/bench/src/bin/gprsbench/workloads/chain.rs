//! `chain` and `chain-faults`: 8 disjoint fetch-add chains (perfsuite's
//! `Chain`), two workers, one CPU. The program does nothing and nothing is
//! persisted, so the wall is the grant → checkpoint → deposit → retire
//! path itself; `chain-faults` drives the same layers through recovery
//! (WAL undo instead of prune, ROL squash instead of retire).

use super::{fastest, run_sample, timed, Ctx, Oracle, Sample, Timed, Workload};
use crate::place::Pinned;
use crate::probes;
use crate::trace::{add_thread, Layers, ProgramProbe};
use gprs_runtime::prelude::*;
use std::sync::Arc;

pub const THREADS: u32 = 8;
pub const WORKERS: usize = 2;
/// One global exception every this many grants.
const FAULT_EVERY: u64 = 8;
const TRACE_SAMPLES: usize = 15;

/// One logical thread fetch-adding its own atomic `rounds` times.
pub struct Chain {
    atomic: AtomicHandle,
    rounds: u32,
    done: u32,
}

impl Checkpoint for Chain {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl ThreadProgram for Chain {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.done == self.rounds {
            return Step::exit_unit();
        }
        self.done += 1;
        self.atomic.fetch_add(1)
    }
}

/// A builder with the eight chains registered.
pub fn builder(workers: usize, rounds: u32, probe: Option<&Arc<ProgramProbe>>) -> GprsBuilder {
    let mut b = GprsBuilder::new().workers(workers);
    for _ in 0..THREADS {
        let atomic = b.atomic(0);
        let chain = Chain {
            atomic,
            rounds,
            done: 0,
        };
        add_thread(&mut b, chain, GroupId::new(0), 1, probe);
    }
    b
}

/// Sub-threads a fault-free run retires: one per round plus the exit.
pub fn retired_want(rounds: u32) -> u64 {
    u64::from(THREADS) * (u64::from(rounds) + 1)
}

/// The grant-keyed fault plan: one global exception every [`FAULT_EVERY`]
/// grants, the victims cycling Oldest/Newest/Holder. The seed does not
/// enter, as it does not enter `chain`: which selector meets which chain
/// decides how much is squashed, and rotating the cycle by the seed moved
/// the wall by up to 15 %. Keyed well past the fault-free grant count,
/// since re-grants count too.
fn fault_plan(rounds: u32) -> ChaosPlan {
    const VICTIMS: [VictimSelector; 3] = [
        VictimSelector::Oldest,
        VictimSelector::Newest,
        VictimSelector::Holder,
    ];
    let mut plan = ChaosPlan::new();
    for k in 1..=retired_want(rounds) * 2 / FAULT_EVERY {
        let victim = VICTIMS[(k % 3) as usize];
        plan.push(ChaosEvent::at_grant(k * FAULT_EVERY).victim(victim));
    }
    plan
}

/// `chain` (`FAULTS = false`) or `chain-faults` (`FAULTS = true`).
pub struct ChainWl<const FAULTS: bool> {
    rounds: u32,
    plan: ChaosPlan,
    golden: u64,
}

impl<const FAULTS: bool> ChainWl<FAULTS> {
    fn build(&self, rounds: u32, plan: &ChaosPlan, probe: Option<&Arc<ProgramProbe>>) -> Gprs {
        builder(WORKERS, rounds, probe).chaos(plan).build()
    }

    fn check(&self, oracle: &mut Oracle, what: &str, r: &RunReport, golden: u64, rounds: u32) {
        let t = &r.telemetry;
        oracle.check(
            t.retired_hash == golden && t.retired_count == retired_want(rounds),
            || {
                format!(
                    "{} {what}: retired {} sub-threads with hash {:#x}, want {} with {golden:#x}",
                    Self::NAME,
                    t.retired_count,
                    t.retired_hash,
                    retired_want(rounds)
                )
            },
        );
    }
}

/// The fault-free retired hash of `rounds` rounds, from a one-worker twin
/// (the hash is worker-count independent).
fn golden_twin(ctx: &Ctx, oracle: &mut Oracle, rounds: u32) -> u64 {
    let twin = builder(1, rounds, None).build().run();
    let hash = oracle
        .ok(twin, "chain one-worker twin")
        .map_or(0, |r| r.telemetry.retired_hash);
    ctx.golden(hash)
}

impl<const FAULTS: bool> Workload for ChainWl<FAULTS> {
    const NAME: &'static str = if FAULTS { "chain-faults" } else { "chain" };

    fn setup(ctx: &Ctx) -> Self {
        let rounds = if FAULTS {
            ctx.sizes.faults_rounds
        } else {
            ctx.sizes.chain_rounds
        };
        let w = ChainWl {
            rounds,
            plan: fault_plan_for::<FAULTS>(rounds),
            golden: 0,
        };
        let warm = rounds / 4 + 1;
        let _ = w.build(warm, &fault_plan_for::<FAULTS>(warm), None).run();
        w
    }

    fn reference(&mut self, ctx: &Ctx, oracle: &mut Oracle) {
        self.golden = golden_twin(ctx, oracle, self.rounds);
    }

    fn sample(&mut self, ix: usize, oracle: &mut Oracle) -> Sample {
        let gprs = self.build(self.rounds, &self.plan, None);
        let what = format!("sample {ix}");
        run_sample(
            &format!("{} {what}", Self::NAME),
            oracle,
            || gprs.run(),
            |o, r| self.check(o, &what, r, self.golden, self.rounds),
        )
    }

    fn trace(&mut self, ctx: &Ctx, pin: &Pinned, oracle: &mut Oracle, layers: &mut Layers) {
        let (rounds, plan, golden) = (self.rounds, &self.plan, self.golden);
        let tracer = layers.tracer.clone();
        let probe = Arc::new(ProgramProbe::default());
        // A variant of the run, `TRACE_SAMPLES` times; the fastest is kept.
        let variant = |what: &str,
                       oracle: &mut Oracle,
                       run: &dyn Fn() -> Timed<Result<RunReport, RunError>>| {
            fastest(TRACE_SAMPLES, || {
                run().map(|r| {
                    let r = oracle.ok(r, what);
                    if let Some(r) = &r {
                        self.check(oracle, what, r, golden, rounds);
                    }
                    r
                })
            })
        };
        let plainly = |gprs: Gprs| timed(|| gprs.run());

        // Untraced: the wall every derived number is taken from.
        // The whole loop is on the clock for the idle check: the process
        // accounting ticks too coarsely for one 50 ms run.
        let all = timed(|| {
            variant("untraced run", oracle, &|| {
                plainly(self.build(rounds, plan, None))
            })
        });
        let (busy, plain) = ((all.used.cpu_s, all.wall_s), all.out);
        let Some(report) = plain.out else { return };
        let wall = plain.wall_s;
        let grants = report.stats.grants;
        // Traced: decorated program, spans around build and run.
        let traced = variant("traced run", oracle, &|| {
            let build = || self.build(rounds, plan, Some(&probe));
            let (gprs, _) = tracer.scoped("runtime.build", None, 0, |_| build());
            tracer.scoped("runtime.run", None, 0, |_| plainly(gprs)).0
        });
        let calls = (probe.step.calls() / grants.max(1)).max(1) as f64; // runs the probe saw
        let program_s = probe.total_ns() as f64 / 1e9 / calls;

        super::program_metrics(layers, &probe);
        layers.set("bench.trace_overhead_ratio", traced.wall_s / wall);
        super::engine_counters(layers, &report);
        super::proc_metrics(layers, plain.used, report.telemetry.retired_count, grants);
        super::attribute(layers, wall, program_s, 0.0, grants);
        super::idle_check(layers, busy.0, busy.1);

        // Differentials: one worker; telemetry off; the pin lifted.
        let w1 = variant("one-worker run", oracle, &|| {
            plainly(builder(1, rounds, None).chaos(plan).build())
        });
        layers.set(
            "runtime.engine.w1_ns_per_grant",
            w1.wall_s * 1e9 / grants as f64,
        );
        let quiet = variant("telemetry-off run", oracle, &|| {
            plainly(
                builder(WORKERS, rounds, None)
                    .chaos(plan)
                    .telemetry(TelemetryConfig::disabled())
                    .build(),
            )
        });
        layers.set("runtime.telemetry_off_ratio", quiet.wall_s / wall);
        let free: Vec<f64> = (0..2 * TRACE_SAMPLES)
            .map(|_| {
                let gprs = self.build(rounds, plan, None);
                pin.unpinned(|| timed(|| gprs.run()).wall_s)
            })
            .collect();
        super::xcpu_ratio(layers, &free, wall);

        let p = probes::run(ctx.sizes.probe_iters);
        layers.set("core.order.grant_ns", p.grant_ns);
        layers.set("core.rol.cycle_ns", p.rol_cycle_ns);
        layers.set("core.wal.cycle_ns", p.wal_cycle_ns);
        layers.set("core.wal.undo_ns", p.wal_undo_ns);
        layers.set("core.recovery.plan_ns", p.plan_ns);
        layers.set("telemetry.event_ns", p.event_ns);
        layers.set("telemetry.hash_fold_ns", p.hash_fold_ns);
        let recoveries = report.stats.recoveries as f64;
        let probed = p.per_clean_grant() + p.per_recovery() * recoveries / grants as f64;
        let self_ns = layers.get("runtime.engine.self_ns_per_grant");
        layers.set("runtime.engine.unattributed_ns", self_ns - probed);
        layers.note(format!(
            "engine self {self_ns:.0} ns/grant = probes' sum {probed:.0} ns + unattributed {:.0} ns",
            self_ns - probed
        ));

        if FAULTS {
            // Same rounds, no faults: what the recoveries added.
            let clean = variant("fault-free run", oracle, &|| {
                plainly(builder(WORKERS, rounds, None).build())
            });
            layers.set(
                "runtime.rex.recovery_us",
                (wall - clean.wall_s) * 1e6 / recoveries.max(1.0),
            );
            layers.set("runtime.rex.recoveries", recoveries);
            layers.set(
                "runtime.rex.squashed_per_recovery",
                report.stats.squashed as f64 / recoveries.max(1.0),
            );
            layers.set(
                "runtime.rex.restarts",
                report.telemetry.counter("restarts") as f64,
            );
        }
    }
}

fn fault_plan_for<const FAULTS: bool>(rounds: u32) -> ChaosPlan {
    if FAULTS {
        fault_plan(rounds)
    } else {
        ChaosPlan::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{measure, trace, Sizes};

    fn ctx() -> Ctx {
        Ctx {
            seed: 5,
            seconds: 0.0,
            sizes: Sizes::smoke(),
            corrupt_oracle: false,
        }
    }

    #[test]
    fn fault_plan_fires_every_eighth_grant_and_cycles_the_victims() {
        let plan = fault_plan(100);
        assert_eq!(plan.events.len() as u64, retired_want(100) * 2 / 8);
        assert_eq!(plan.events[0].trigger, ChaosTrigger::AtGrant(8));
        assert_eq!(plan.events[1].trigger, ChaosTrigger::AtGrant(16));
        let victims = |p: &ChaosPlan| p.events.iter().map(|e| e.victim).collect::<Vec<_>>();
        for v in [
            VictimSelector::Oldest,
            VictimSelector::Newest,
            VictimSelector::Holder,
        ] {
            let share = victims(&plan).iter().filter(|x| **x == v).count() as f64
                / plan.events.len() as f64;
            assert!((0.33..0.34).contains(&share), "{v:?}: {share}");
        }
    }

    #[test]
    fn smoke_chain_passes_its_oracle() {
        let mut oracle = Oracle::default();
        let m = measure::<ChainWl<false>>(&ctx(), &mut oracle).expect("pinning available");
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert_eq!(m.retired(), retired_want(Sizes::smoke().chain_rounds));
        assert_eq!(m.setup_s.len(), crate::workloads::SETUPS);
        assert!(m.placement.starts_with("pinned to cpu"));
    }

    #[test]
    fn smoke_chain_faults_recovers_to_the_fault_free_hash() {
        let mut oracle = Oracle::default();
        measure::<ChainWl<true>>(&ctx(), &mut oracle).expect("pinning available");
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        let layers = trace::<ChainWl<true>>(&ctx(), &mut oracle).expect("pinning available");
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert!(layers.get("runtime.rex.recoveries") > 0.0);
        assert!(layers.get("core.wal.undo_ns") > 0.0);
    }

    #[test]
    fn a_wrong_golden_fails_every_sample() {
        let mut oracle = Oracle::default();
        let corrupt = Ctx {
            corrupt_oracle: true,
            ..ctx()
        };
        measure::<ChainWl<false>>(&corrupt, &mut oracle).expect("pinning available");
        assert!(oracle.failed >= crate::workloads::MIN_SAMPLES as u64);
        assert!(
            oracle.notes[0].starts_with("chain sample 0: retired"),
            "{:?}",
            oracle.notes
        );
    }
}
