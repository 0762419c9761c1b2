//! One scheduling loop, two drivers: the worker pool (`Gprs::run`) and the
//! cooperative session (`Gprs::into_session`) call the same decision
//! function and differ only in how a would-wait state is handled — the pool
//! parks, the session never blocks. These tests hold the two to the same
//! behaviour from both sides:
//!
//! * **ill-formed programs** must poison by name and terminate through
//!   every driver (the session's would-wait states are all deadlocks);
//! * **well-formed programs** must retire identically through every driver,
//!   clean and under a seeded injection plan;
//! * a `build_sharded()` whose plan collapses to one domain *is* `build()`,
//!   including the features multi-domain builds still refuse by name.

use gprs_chaos::programs::{register_gprs, RUNTIME_PROGRAMS};
use gprs_core::chaos::ChaosPlan;
use gprs_core::history::Checkpoint;
use gprs_core::ids::{GroupId, ThreadId};
use gprs_core::persist::MemoryBackend;
use gprs_runtime::ctx::StepCtx;
use gprs_runtime::program::{Step, ThreadProgram};
use gprs_runtime::report::{RunError, RunReport};
use gprs_runtime::session::QuantumOutcome;
use gprs_runtime::{Gprs, GprsBuilder};
use gprs_serve::spec::{fault_plan, register, JobSpec, WORKLOADS};
use gprs_workloads::programs::{beacon_model, build_beacon};
use std::sync::Arc;
use std::time::Duration;

const POOL_WORKERS: [usize; 3] = [1, 2, 4];
const QUANTA: [u64; 3] = [1, 3, u64::MAX];

/// How a built runtime is driven to its report.
#[derive(Debug, Clone, Copy)]
enum Driver {
    /// `Gprs::run` on this many pool workers.
    Pool(usize),
    /// `Gprs::into_session`, this many grants per quantum.
    Session(u64),
}

fn drivers() -> impl Iterator<Item = Driver> {
    POOL_WORKERS
        .into_iter()
        .map(Driver::Pool)
        .chain(QUANTA.into_iter().map(Driver::Session))
}

/// Drives what `build` returns to its report. `build` receives the worker
/// count (a session ignores its own).
fn drive(driver: Driver, build: impl FnOnce(usize) -> Gprs) -> Result<RunReport, RunError> {
    match driver {
        Driver::Pool(workers) => build(workers).run(),
        Driver::Session(quantum) => {
            let mut session = build(1).into_session();
            while session.run_quantum(quantum) == QuantumOutcome::Yielded {}
            session.finish()
        }
    }
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within the watchdog window — a driver that hangs on an ill-formed
/// program is exactly the regression these tests exist to catch.
fn within_watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what}: driver did not terminate"))
}

/// A thread that performs `script(0)`, `script(1)`, … — one step each.
struct Script<F> {
    pc: u32,
    script: F,
}

impl<F: Send + 'static> Checkpoint for Script<F> {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.pc
    }
    fn restore(&mut self, pc: &u32) {
        self.pc = *pc;
    }
}

impl<F: FnMut(u32) -> Step + Send + 'static> ThreadProgram for Script<F> {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        let step = (self.script)(self.pc);
        self.pc += 1;
        step
    }
}

fn script(b: &mut GprsBuilder, f: impl FnMut(u32) -> Step + Send + 'static) -> ThreadId {
    b.thread(Script { pc: 0, script: f }, GroupId::new(0), 1)
}

type Program = fn(&mut GprsBuilder);

/// Ill-formed programs and the poison each must end in.
const ILL_FORMED: [(&str, Program, &str); 4] = [
    (
        "barrier participant mismatch",
        |b| {
            let barrier = b.barrier(3);
            for _ in 0..2 {
                script(b, move |pc| match pc {
                    0 => barrier.wait(),
                    _ => Step::exit_unit(),
                });
            }
        },
        "barrier participants mismatch",
    ),
    (
        "pop on a channel nobody feeds",
        |b| {
            let chan = b.channel::<u64>();
            script(b, |_| Step::exit_unit());
            script(b, move |pc| match pc {
                0 => chan.pop(),
                _ => Step::exit_unit(),
            });
        },
        "channel starvation",
    ),
    (
        "two threads joining each other",
        |b| {
            for peer in [1, 0] {
                script(b, move |pc| match pc {
                    0 => Step::join(ThreadId::new(peer)),
                    _ => Step::exit_unit(),
                });
            }
        },
        "join cycle",
    ),
    (
        "step panic",
        |b| {
            let cell = b.atomic(0);
            script(b, |_| Step::exit_unit());
            script(b, move |pc| match pc {
                0 => cell.fetch_add(1),
                _ => panic!("scripted step panic"),
            });
        },
        "panicked: scripted step panic",
    ),
];

#[test]
fn ill_formed_programs_poison_by_name_through_every_driver() {
    for (name, program, expect) in ILL_FORMED {
        for driver in drivers() {
            let what = format!("{name} via {driver:?}");
            let result = within_watchdog(&what, move || {
                drive(driver, |workers| {
                    let mut b = GprsBuilder::new().workers(workers);
                    program(&mut b);
                    b.build()
                })
            });
            match result {
                Err(RunError::Poisoned(msg)) => {
                    assert!(msg.contains(expect), "{what}: wanted {expect:?} in {msg:?}")
                }
                other => panic!("{what}: expected a poisoned run, got {other:?}"),
            }
        }
    }
}

/// What every driver must agree on: the retired order always, and on clean
/// runs the structural counters too.
fn assert_same_run(what: &str, got: &RunReport, want: &RunReport, clean: bool) {
    let (g, w) = (&got.telemetry, &want.telemetry);
    assert_eq!(g.retired_hash, w.retired_hash, "{what}: retired hash");
    assert_eq!(g.retired_count, w.retired_count, "{what}: retired count");
    if clean {
        let key = |r: &RunReport| {
            let s = &r.stats;
            (s.locks_acquired, s.barrier_releases, s.spawns)
        };
        assert_eq!(key(got), key(want), "{what}: locks/barrier releases/spawns");
    }
}

/// Every driver, clean and under `plan`, against the one-worker clean pool.
fn differential(name: &str, plan: &ChaosPlan, register: impl Fn(&mut GprsBuilder) + Copy) {
    let build = |workers: usize, plan: &ChaosPlan| {
        let mut b = GprsBuilder::new().workers(workers).chaos(plan);
        register(&mut b);
        b.build()
    };
    let clean = ChaosPlan::new();
    let reference = build(1, &clean).run().expect("clean reference run");
    for driver in drivers() {
        for (label, plan) in [("clean", &clean), ("chaos", plan)] {
            let what = format!("{name} {label} via {driver:?}");
            let report = drive(driver, |workers| build(workers, plan))
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_same_run(&what, &report, &reference, plan.is_empty());
            if !plan.is_empty() {
                assert!(report.stats.exceptions > 0, "{what}: the plan must land");
            }
        }
    }
}

#[test]
fn chaos_programs_retire_identically_through_every_driver() {
    for (ix, program) in RUNTIME_PROGRAMS.iter().enumerate() {
        differential(program, &fault_plan(3 + ix as u64), |b| {
            register_gprs(program, b)
        });
    }
}

#[test]
fn serve_workloads_retire_identically_through_every_driver() {
    for (ix, workload) in WORKLOADS.iter().enumerate() {
        let spec = JobSpec::new(*workload, 11 + ix as u64);
        differential(workload, &fault_plan(5 + ix as u64), |b| {
            register(&spec, b).expect("registry workload")
        });
    }
}

/// One builder feature switched on.
type Arm<'a> = &'a dyn Fn(GprsBuilder) -> GprsBuilder;

fn beacon(workers: usize, arm: Arm<'_>) -> GprsBuilder {
    let rounds = 16;
    let mut b = GprsBuilder::new().workers(2);
    build_beacon(&mut b, workers, rounds);
    arm(b.model(beacon_model(workers, rounds)))
}

#[test]
fn a_one_domain_shard_plan_is_the_unsharded_build() {
    let tape = std::env::temp_dir().join(format!("gprs-drivers-{}.gprs", std::process::id()));
    let arms: [(&str, Arm<'_>); 3] = [
        ("durable", &|b| b.durable(Arc::new(MemoryBackend::new()))),
        ("record", &|b| b.record(tape.clone())),
        ("racecheck", &|b| b.racecheck(true)),
    ];
    for (name, arm) in arms {
        // One beacon worker is one order domain.
        let sharded = beacon(1, arm).build_sharded();
        assert_eq!(sharded.domains(), 1, "{name}: the plan must collapse");
        let sharded = sharded.run().unwrap_or_else(|e| panic!("{name} sharded: {e}"));
        let plain = beacon(1, arm).build().run().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same_run(name, &sharded, &plain, true);
        assert_eq!(
            sharded.telemetry.schedule_hash, plain.telemetry.schedule_hash,
            "{name}: schedule hash"
        );
    }
    std::fs::remove_file(&tape).ok();
}

#[test]
fn multi_domain_builds_still_refuse_by_name() {
    let image = gprs_core::persist::DurableImage {
        retires: vec![gprs_core::persist::RetireRec {
            subthread: 0,
            thread: 0,
            kind: 0,
            retired: 1,
            digest: 0,
        }],
        ..Default::default()
    };
    let refusals: [(Arm<'_>, &str); 4] = [
        (
            &|b| b.durable(Arc::new(MemoryBackend::new())),
            "does not support durable persistence",
        ),
        (&|b| b.resume(&image), "does not support durable resume"),
        (
            &|b| b.record("never-written.gprs"),
            "does not support schedule record/replay",
        ),
        (&|b| b.racecheck(true), "race detector"),
    ];
    for (arm, expect) in refusals {
        let msg = beacon(2, arm)
            .build_sharded()
            .run()
            .expect_err("multi-domain refusal")
            .to_string();
        assert!(msg.contains(expect), "wanted {expect:?} in {msg:?}");
    }
}
