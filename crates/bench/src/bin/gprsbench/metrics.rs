//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`--emit-benchmark-json`)
//! and a test keeps the committed file equal to them.

use gprs_telemetry::JsonWriter;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// The share of `first` by which `second` is worse (negative: better).
    pub fn worse_by(self, first: f64, second: f64) -> f64 {
        match self {
            Better::Lower => (second - first) / first,
            Better::Higher => (first - second) / first,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

pub const WORKLOADS: [(&str, &str); 7] = [
    ("chain", "8 disjoint fetch-add chains on one CPU: pure grant/checkpoint/deposit/retire, so engine and core order/rol/wal do all the work"),
    ("chain-faults", "same chains with a global exception every 8 grants: the same layers through WAL undo, ROL squash and recovery planning"),
    ("pipeline", "pbzip2 over a seeded corpus: step compute and channel blocking dominate, so a grant-path change should not move it"),
    ("durable", "chains with the memory persist backend armed, then crash/resume cycles: the engine's durable hooks and core persist's records, chunks and images (the shared disk does not repeat; traced only)"),
    ("beacon-sharded", "two independent order domains from build_sharded: the only driver of per-domain gates, where a single-gate change shows nothing"),
    ("serve-mix", "thousands of tiny jobs over one TCP connection in a closed loop: serve pool/spec/server and session set-up and tear-down do the work"),
    ("sim-recovery", "the virtual-time engine on the dedup trace under seeded injection: the figure generator, which no other workload touches"),
];

/// One bound per metric, not per workload, so each is set by the workload
/// that repeats worst: three times the widest inter-quartile spread that
/// sets of ten invocations showed on any of them in an ordinary hour (5 %),
/// as the benchmark contract asks. Set-up and the socket's tail latency are
/// the noisy ones and get the contract's ceiling. See the README.
pub const E2E: [Metric; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("subthreads_per_s", "1/s", Better::Higher, 0.15),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.15),
    e2e("job_latency_p50_ms", "ms", Better::Lower, 0.15),
    e2e("job_latency_p99_ms", "ms", Better::Lower, 0.25),
    e2e("resume_s", "s", Better::Lower, 0.15),
    e2e("replay_verify_s", "s", Better::Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// The path metrics, each with the one workload that has the path. On the
/// others the metric is the run wall in its unit: the contract wants every
/// metric on every run.
const OWN_PATH: [(&str, &str); 5] = [
    ("jobs_per_s", "serve-mix"),
    ("job_latency_p50_ms", "serve-mix"),
    ("job_latency_p99_ms", "serve-mix"),
    ("resume_s", "durable"),
    ("replay_verify_s", "pipeline"),
];

/// Whether `metric` on `workload` is the run wall standing in for a path
/// the workload does not have.
pub fn stands_in(workload: &str, metric: &str) -> bool {
    OWN_PATH.iter().any(|(m, w)| *m == metric && *w != workload)
}

pub const PER_LAYER: [Metric; 63] = [
    lo("program.step_ns", "ns"),
    lo("program.checkpoint_ns", "ns"),
    lo("program.restore_ns", "ns"),
    lo("runtime.engine.self_ns_per_grant", "ns"),
    lo("runtime.engine.w1_ns_per_grant", "ns"),
    lo("runtime.engine.xcpu_handoff_ratio", "ratio"),
    hi("runtime.engine.fast_path_share", "share"),
    lo("runtime.engine.wakeups_issued", "count"),
    lo("runtime.engine.wakeups_spurious", "count"),
    hi("runtime.engine.retire_batch_mean", "count"),
    lo("runtime.engine.polls", "count"),
    lo("runtime.engine.hot_path_allocs", "count"),
    lo("runtime.engine.rol_occupancy_hw", "count"),
    lo("runtime.engine.wal_outstanding_hw", "count"),
    lo("runtime.engine.unattributed_ns", "ns"),
    hi("runtime.telemetry_off_ratio", "ratio"),
    lo("runtime.rex.recovery_us", "us"),
    lo("runtime.rex.recoveries", "count"),
    lo("runtime.rex.squashed_per_recovery", "count"),
    lo("runtime.rex.restarts", "count"),
    lo("core.order.grant_ns", "ns"),
    lo("core.rol.cycle_ns", "ns"),
    lo("core.wal.cycle_ns", "ns"),
    lo("core.wal.undo_ns", "ns"),
    lo("core.recovery.plan_ns", "ns"),
    lo("telemetry.event_ns", "ns"),
    lo("telemetry.hash_fold_ns", "ns"),
    lo("core.persist.record_ns", "ns"),
    lo("core.persist.sync_us", "us"),
    lo("core.persist.put_chunk_us", "us"),
    lo("core.persist.records", "count"),
    lo("core.persist.syncs", "count"),
    lo("core.persist.chunks", "count"),
    lo("core.persist.busy_share", "share"),
    lo("core.persist.file_run_ms", "ms"),
    lo("core.persist.file_resume_ms", "ms"),
    hi("core.persist.memory_backend_ratio", "ratio"),
    lo("core.persist.load_ms", "ms"),
    lo("runtime.resume_reexec_s", "s"),
    lo("runtime.build_ms", "ms"),
    lo("analyze.analyze_ms", "ms"),
    lo("runtime.shard.plan_ms", "ms"),
    hi("runtime.shard.domains", "count"),
    hi("runtime.shard.speedup_vs_unsharded", "ratio"),
    lo("serve.spec.build_job_us", "us"),
    lo("runtime.session.quantum_us", "us"),
    lo("runtime.session.finish_us", "us"),
    lo("serve.server.codec_us", "us"),
    lo("serve.pool.inproc_job_us", "us"),
    lo("serve.server.socket_share", "share"),
    lo("serve.pool.quanta_per_job", "count"),
    lo("serve.pool.yields", "count"),
    lo("serve.pool.queue_wait_us_max", "us"),
    lo("core.recording.write_ns_per_evt", "ns"),
    lo("core.recording.parse_ns_per_evt", "ns"),
    lo("replay.record_overhead_ratio", "ratio"),
    lo("sim.host_ns_per_subthread_clean", "ns"),
    lo("sim.recovery_share", "share"),
    lo("sim.recoveries", "count"),
    lo("sim.squashed", "count"),
    lo("proc.cpu_us_per_subthread", "us"),
    lo("proc.ctx_switches_per_kgrant", "1/kgrant"),
    lo("bench.trace_overhead_ratio", "ratio"),
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 15;

/// The benchmark's own directory, the only entry of `paths`.
pub const BENCH_DIR: &str = "crates/bench/src/bin/gprsbench";

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("command").begin_array();
    for arg in [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
    ] {
        w.string(arg);
    }
    w.string(&format!("{BENCH_DIR}/Cargo.toml"))
        .string("--")
        .end_array();
    w.key("paths").begin_array().string(BENCH_DIR).end_array();
    w.field_u64("run_seconds", RUN_SECONDS);
    w.key("workloads").begin_array();
    for (name, why) in WORKLOADS {
        w.begin_object()
            .field_str("name", name)
            .field_str("why", why)
            .end_object();
    }
    w.end_array();
    w.key("end_to_end").begin_array();
    for m in E2E {
        w.begin_object()
            .field_str("name", m.name)
            .field_str("unit", m.unit)
            .field_str("better", m.better.as_str());
        w.key("bound").f64(m.bound);
        w.end_object();
    }
    w.end_array();
    w.key("per_layer").begin_array();
    for m in PER_LAYER {
        w.begin_object()
            .field_str("name", m.name)
            .field_str("unit", m.unit)
            .field_str("better", m.better.as_str())
            .end_object();
    }
    w.end_array();
    w.end_object();
    let mut text = w.finish();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(E2E.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for m in E2E.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(E2E.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = E2E
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            E2E.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
        // 4 + 22 × workloads runs, each with up to 4 s of set-up, twins
        // and last samples on top, and two builds of two minutes, in 3420 s.
        assert!((4 + 22 * WORKLOADS.len() as u64) * (RUN_SECONDS + 4) + 240 < 3420);
        assert!(benchmark_json().len() < 64 << 10);
    }

    #[test]
    fn a_path_metric_stands_in_everywhere_but_on_its_own_workload() {
        assert!(!stands_in("durable", "resume_s"));
        assert!(stands_in("chain", "resume_s"));
        assert!(stands_in("durable", "jobs_per_s"));
        assert!(!stands_in("serve-mix", "job_latency_p99_ms"));
        assert!(!stands_in("chain", "subthreads_per_s"));
        assert!(!stands_in("chain", "setup_s"));
        for (metric, workload) in OWN_PATH {
            assert!(E2E.iter().any(|m| m.name == metric));
            assert!(WORKLOADS.iter().any(|w| w.0 == workload));
        }
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((Better::Lower.worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worse_by(10.0, 12.0) < 0.0);
    }

    /// The lines of `section` in a manifest, comments and blanks dropped.
    fn section<'a>(manifest: &'a str, section: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != section)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark contract wants a package of the benchmark's own in the
    /// benchmark's directory; cargo also discovers `main.rs` as a binary of
    /// `gprs-bench`. Two manifests build one program, so this holds them
    /// together: the same crates, the same release profile.
    #[test]
    fn the_stand_alone_manifest_keeps_step_with_the_workspace() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let crates = |lines: Vec<&str>| -> Vec<String> {
            let names = lines.iter().filter_map(|l| l.split_whitespace().next());
            names.map(String::from).collect()
        };
        let needed = crates(section(own, "[dependencies]"));
        let offered = crates(section(bench, "[dependencies]"));
        assert!(!needed.is_empty());
        assert!(
            needed.iter().all(|c| offered.contains(c)),
            "{needed:?} are not all among gprs-bench's {offered:?}"
        );
        assert!(!section(root, "[profile.release]").is_empty());
        assert_eq!(
            section(own, "[profile.release]"),
            section(root, "[profile.release]")
        );
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        // Built from the workspace or stand-alone, the manifest directory
        // is below the repository root; the file sits at the root.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json at the repository root");
        let committed = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `gprsbench --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
