//! `beacon-sharded`: two beacon workers with their trace-level model,
//! `build_sharded()`. The plan proves one order domain per worker and no
//! cross-domain edge, so this is the only workload that drives
//! `runtime::shard` — where per-domain gates pay off and a change to the
//! single gate shows nothing. On one CPU like the others: with the pin
//! lifted the kernel leaves both domains' workers on one CPU for nineteen
//! 30 ms runs in twenty and spreads them for the twentieth (52 ms against
//! 31 ms); the traced run reports what lifting it buys.

use super::{mix, run_sample, timed, Ctx, Oracle, Sample, Timed, Workload};
use crate::place::Pinned;
use crate::stats::fast;
use crate::trace::{add_thread, Layers, ProgramProbe};
use gprs_core::workload::Workload as Model;
use gprs_runtime::prelude::*;
use gprs_workloads::programs::{beacon_model, BeaconWorker};
use std::sync::Arc;

const DOMAINS: usize = 2;
const WORKERS: usize = 2;
const TRACE_SAMPLES: usize = 5;

/// `build_beacon`'s wiring (beacon cell, then ticket, one group per
/// worker), spelled out so the workers can be decorated.
fn builder(
    seed: u64,
    rounds: u32,
    model: &Model,
    probe: Option<&Arc<ProgramProbe>>,
) -> GprsBuilder {
    let mut b = GprsBuilder::new().workers(WORKERS);
    for w in 0..DOMAINS {
        let beacon = b.atomic(0);
        let ticket = b.atomic(0);
        let worker = BeaconWorker::new(beacon, ticket, mix(seed) ^ w as u64, rounds);
        add_thread(&mut b, worker, GroupId::new(w as u32), 1, probe);
    }
    b.model(model.clone())
}

pub struct BeaconSharded {
    seed: u64,
    rounds: u32,
    model: Model,
    golden: (u64, u64),
}

impl BeaconSharded {
    fn check(&self, oracle: &mut Oracle, what: &str, r: &RunReport) {
        let t = &r.telemetry;
        oracle.check(
            (t.retired_hash, t.retired_count) == self.golden && r.shards.len() == DOMAINS,
            || {
                format!(
                    "beacon-sharded {what}: retired {} with hash {:#x} over {} domains, \
                     unsharded twin retired {} with {:#x}",
                    t.retired_count,
                    t.retired_hash,
                    r.shards.len(),
                    self.golden.1,
                    self.golden.0
                )
            },
        );
    }

    fn unsharded(&self) -> Timed<Result<RunReport, RunError>> {
        let gprs = builder(self.seed, self.rounds, &self.model, None).build();
        timed(|| gprs.run())
    }
}

impl Workload for BeaconSharded {
    const NAME: &'static str = "beacon-sharded";

    fn setup(ctx: &Ctx) -> Self {
        let rounds = ctx.sizes.beacon_rounds;
        let warm = rounds / 4 + 1;
        let _ = builder(ctx.seed, warm, &beacon_model(DOMAINS, warm), None)
            .build_sharded()
            .run();
        BeaconSharded {
            seed: ctx.seed,
            rounds,
            model: beacon_model(DOMAINS, rounds),
            golden: (0, 0),
        }
    }

    fn reference(&mut self, ctx: &Ctx, oracle: &mut Oracle) {
        if let Some(r) = oracle.ok(self.unsharded().out, "beacon unsharded twin") {
            self.golden = (
                ctx.golden(r.telemetry.retired_hash),
                r.telemetry.retired_count,
            );
        }
    }

    fn sample(&mut self, ix: usize, oracle: &mut Oracle) -> Sample {
        let gprs = builder(self.seed, self.rounds, &self.model, None).build_sharded();
        let what = format!("sample {ix}");
        run_sample(
            &format!("beacon-sharded {what}"),
            oracle,
            || gprs.run(),
            |o, r| self.check(o, &what, r),
        )
    }

    fn trace(&mut self, _ctx: &Ctx, pin: &Pinned, oracle: &mut Oracle, layers: &mut Layers) {
        let tracer = layers.tracer.clone();
        let probe = Arc::new(ProgramProbe::default());
        let mut plain_s = Vec::new();
        let (mut free_s, mut free_twin_s) = (Vec::new(), Vec::new());
        let mut traced_s = Vec::new();
        let mut twin_s = Vec::new();
        let mut last = None;
        for run in 0..TRACE_SAMPLES as u32 {
            let gprs = builder(self.seed, self.rounds, &self.model, None).build_sharded();
            let t = timed(|| gprs.run());
            plain_s.push(t.wall_s);
            if let Some(r) = oracle.ok(t.out, "beacon-sharded untraced run") {
                self.check(oracle, "untraced run", &r);
                last = Some((r, t.used));
            }
            let (gprs, _) = tracer.scoped("runtime.build", None, run, |_| {
                builder(self.seed, self.rounds, &self.model, Some(&probe)).build_sharded()
            });
            let (r, id) = tracer.scoped("runtime.run", None, run, |_| gprs.run());
            traced_s.push(tracer.ns(id) as f64 / 1e9);
            if let Some(r) = oracle.ok(r, "beacon-sharded traced run") {
                self.check(oracle, "traced run", &r);
            }
            for _ in 0..4 {
                let gprs = builder(self.seed, self.rounds, &self.model, None).build_sharded();
                free_s.push(pin.unpinned(|| timed(|| gprs.run()).wall_s));
                free_twin_s.push(pin.unpinned(|| self.unsharded().wall_s));
            }
            let twin = self.unsharded();
            twin_s.push(twin.wall_s);
            oracle.check(twin.out.is_ok(), || "beacon unsharded twin failed".into());
            // The two analyses `build_sharded` runs inside its build span.
            tracer.scoped("analyze.analyze", None, run, |_| {
                gprs_analyze::analyze(&self.model)
            });
            tracer.scoped("runtime.shard.plan", None, run, |_| {
                gprs_analyze::shard_plan(&self.model)
            });
        }
        let Some((report, usage)) = last else { return };
        let wall = fast(&plain_s);
        super::program_metrics(layers, &probe);
        layers.set(
            "analyze.analyze_ms",
            tracer.mean_us("analyze.analyze") / 1e3,
        );
        layers.set(
            "runtime.shard.plan_ms",
            tracer.mean_us("runtime.shard.plan") / 1e3,
        );
        layers.set("runtime.shard.domains", report.shards.len() as f64);
        layers.set("runtime.shard.speedup_vs_unsharded", fast(&twin_s) / wall);
        layers.set("bench.trace_overhead_ratio", fast(&traced_s) / wall);
        super::xcpu_ratio(layers, &free_s, wall);
        layers.note(format!(
            "unpinned, best of {}: sharded {:.1} ms, unsharded twin {:.1} ms ({:.2}x); pinned: {:.1} and {:.1} ms",
            free_s.len(),
            fast(&free_s) * 1e3,
            fast(&free_twin_s) * 1e3,
            fast(&free_twin_s) / fast(&free_s),
            wall * 1e3,
            fast(&twin_s) * 1e3
        ));
        super::engine_counters(layers, &report);
        super::proc_metrics(
            layers,
            usage,
            report.telemetry.retired_count,
            report.stats.grants,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{measure, trace, Sizes};

    #[test]
    fn smoke_beacon_matches_its_unsharded_twin_over_two_domains() {
        let ctx = Ctx {
            seed: 4,
            seconds: 0.0,
            sizes: Sizes::smoke(),
            corrupt_oracle: false,
        };
        let mut oracle = Oracle::default();
        let m = measure::<BeaconSharded>(&ctx, &mut oracle).unwrap();
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert!(m.placement.starts_with("pinned to cpu "));
        let layers = trace::<BeaconSharded>(&ctx, &mut oracle).unwrap();
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert_eq!(layers.get("runtime.shard.domains"), DOMAINS as f64);
        assert!(layers.get("runtime.shard.plan_ms") > 0.0);
    }
}
