//! `sim-recovery`: the virtual-time engine on the `dedup` trace, 24
//! contexts, balance-aware order, a seeded injector at the program's
//! Figure 10 high rate. One host thread on one CPU. The simulator is the
//! figure generator and the second engine; no other workload touches it.
//! (`dedup` recovers to its clean retired hash under injection, per the
//! committed goldens; `histogram` is the known exception, so the trace is
//! not to be swapped.)

use super::{timed, Ctx, Oracle, Sample, Workload};
use crate::place::Pinned;
use crate::stats::fast;
use crate::trace::Layers;
use gprs_core::exception::InjectorConfig;
use gprs_core::workload::Workload as Trace;
use gprs_sim::costs::CYCLES_PER_SEC;
use gprs_sim::gprs::{run_gprs, GprsSimConfig};
use gprs_sim::result::SimResult;
use gprs_workloads::traces::{build, info, TraceParams};

const PROGRAM: &str = "dedup";
const CONTEXTS: u32 = 24;
const TRACE_SAMPLES: usize = 7;
/// The injector runs at the Figure 10 high rate of a trace at this scale,
/// sped up in proportion as the trace is scaled down further: a short
/// sample then takes as many exceptions (hundreds) as a long one would.
const RATE_SCALE: f64 = 0.75;

pub struct SimRecovery {
    trace: Trace,
    injected: GprsSimConfig,
    golden: (u64, u64),
}

impl SimRecovery {
    fn check(&self, oracle: &mut Oracle, what: &str, r: &SimResult) {
        let t = &r.telemetry;
        oracle.check(
            r.completed && (t.retired_hash, t.retired_count) == self.golden,
            || {
                format!(
                    "sim-recovery {what}: completed={} retired {} with hash {:#x}, \
                     clean run retired {} with {:#x}",
                    r.completed, t.retired_count, t.retired_hash, self.golden.1, self.golden.0
                )
            },
        );
    }
}

impl Workload for SimRecovery {
    const NAME: &'static str = "sim-recovery";

    fn setup(ctx: &Ctx) -> Self {
        let params = TraceParams::paper().scaled(ctx.sizes.sim_scale);
        let rate = info(PROGRAM).fig10_high_rate * RATE_SCALE / ctx.sizes.sim_scale;
        let injector = InjectorConfig::paper(rate, CONTEXTS, CYCLES_PER_SEC).with_seed(ctx.seed);
        let injected = GprsSimConfig::balance_aware(CONTEXTS).with_exceptions(injector);
        let warm = build(
            PROGRAM,
            &TraceParams::paper().scaled(ctx.sizes.sim_scale / 4.0),
        );
        let _ = run_gprs(&warm, &injected);
        SimRecovery {
            trace: build(PROGRAM, &params),
            injected,
            golden: (0, 0),
        }
    }

    fn reference(&mut self, ctx: &Ctx, oracle: &mut Oracle) {
        let clean = run_gprs(&self.trace, &GprsSimConfig::balance_aware(CONTEXTS));
        oracle.check(clean.completed, || {
            "sim-recovery clean twin did not complete".into()
        });
        self.golden = (
            ctx.golden(clean.telemetry.retired_hash),
            clean.telemetry.retired_count,
        );
    }

    fn sample(&mut self, ix: usize, oracle: &mut Oracle) -> Sample {
        let t = timed(|| run_gprs(&self.trace, &self.injected));
        self.check(oracle, &format!("sample {ix}"), &t.out);
        Sample::of_run(t.wall_s, Some(t.out.telemetry.retired_count))
    }

    fn trace(&mut self, _ctx: &Ctx, _pin: &Pinned, oracle: &mut Oracle, layers: &mut Layers) {
        let tracer = layers.tracer.clone();
        let clean_cfg = GprsSimConfig::balance_aware(CONTEXTS);
        let mut injected_s = Vec::new();
        let mut traced_s = Vec::new();
        let mut clean_s = Vec::new();
        let mut last = None;
        for run in 0..TRACE_SAMPLES as u32 {
            let t = timed(|| run_gprs(&self.trace, &self.injected));
            injected_s.push(t.wall_s);
            self.check(oracle, "untraced run", &t.out);
            last = Some((t.out, t.used));
            // The simulator has no seam to decorate: its traced run is the
            // same call inside a span.
            let (r, id) = tracer.scoped("sim.run_gprs", None, run, |_| {
                run_gprs(&self.trace, &self.injected)
            });
            traced_s.push(tracer.ns(id) as f64 / 1e9);
            self.check(oracle, "traced run", &r);
            let (r, id) = tracer.scoped("sim.run_gprs.clean", None, run, |_| {
                run_gprs(&self.trace, &clean_cfg)
            });
            clean_s.push(tracer.ns(id) as f64 / 1e9);
            self.check(oracle, "clean twin", &r);
        }
        let (r, usage) = last.expect("TRACE_SAMPLES > 0");
        let wall = fast(&injected_s);
        let retired = r.telemetry.retired_count;
        layers.set(
            "sim.host_ns_per_subthread_clean",
            fast(&clean_s) * 1e9 / retired.max(1) as f64,
        );
        layers.set("sim.recovery_share", 1.0 - fast(&clean_s) / wall);
        layers.set(
            "sim.recoveries",
            r.telemetry.counter("recovery_sessions") as f64,
        );
        layers.set("sim.squashed", r.squashed as f64);
        layers.set("bench.trace_overhead_ratio", fast(&traced_s) / wall);
        super::proc_metrics(layers, usage, retired, r.telemetry.counter("grants"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{measure, trace, Sizes};

    #[test]
    fn smoke_sim_recovers_to_the_clean_hash() {
        let ctx = Ctx {
            seed: 8,
            seconds: 0.0,
            sizes: Sizes::smoke(),
            corrupt_oracle: false,
        };
        let mut oracle = Oracle::default();
        let m = measure::<SimRecovery>(&ctx, &mut oracle).expect("pinning available");
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert!(m.retired() > 0);
        let layers = trace::<SimRecovery>(&ctx, &mut oracle).expect("pinning available");
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert!(layers.get("sim.host_ns_per_subthread_clean") > 0.0);
    }
}
