//! `gprsbench`: the benchmark later changes are judged by. Seven long-run
//! workloads, end-to-end metrics as the best of many short timed samples, a
//! correctness oracle in the same command, and a traced run per workload
//! that attributes the time to layers from outside the engine. See
//! `README.md` next to this file.
//!
//! ```text
//! gprsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last line of stdout is one JSON object with
//!     `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//!     with --trace 0, per-layer metrics with --trace 1).
//! gprsbench [--seed <n>] [--seconds <s>] [--smoke] [--repeat-check]
//!     every workload, untraced then traced, as a report for people;
//!     --repeat-check runs the set twice and compares the values
//!     against the bounds.
//! ```

mod metrics;
mod place;
mod probes;
mod stats;
mod trace;
mod workloads;

use metrics::{Metric, E2E, PER_LAYER, WORKLOADS};
use stats::Summary;
use std::process::ExitCode;
use trace::Layers;
use workloads::{Ctx, Measured, Oracle, Sizes};

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    corrupt_oracle: bool,
    emit_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat_check: false,
        corrupt_oracle: false,
        emit_benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            "--corrupt-oracle" => args.corrupt_oracle = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    if !(args.seconds >= 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be within 0..=60, not {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn measure(name: &str, ctx: &Ctx, oracle: &mut Oracle) -> Result<Measured, String> {
    use workloads::measure as m;
    match name {
        "chain" => m::<workloads::chain::ChainWl<false>>(ctx, oracle),
        "chain-faults" => m::<workloads::chain::ChainWl<true>>(ctx, oracle),
        "pipeline" => m::<workloads::pipeline::Pipeline>(ctx, oracle),
        "durable" => m::<workloads::durable::Durable>(ctx, oracle),
        "beacon-sharded" => m::<workloads::beacon::BeaconSharded>(ctx, oracle),
        "serve-mix" => m::<workloads::serve::ServeMix>(ctx, oracle),
        "sim-recovery" => m::<workloads::sim::SimRecovery>(ctx, oracle),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn trace_run(name: &str, ctx: &Ctx, oracle: &mut Oracle) -> Result<Layers, String> {
    use workloads::trace as t;
    match name {
        "chain" => t::<workloads::chain::ChainWl<false>>(ctx, oracle),
        "chain-faults" => t::<workloads::chain::ChainWl<true>>(ctx, oracle),
        "pipeline" => t::<workloads::pipeline::Pipeline>(ctx, oracle),
        "durable" => t::<workloads::durable::Durable>(ctx, oracle),
        "beacon-sharded" => t::<workloads::beacon::BeaconSharded>(ctx, oracle),
        "serve-mix" => t::<workloads::serve::ServeMix>(ctx, oracle),
        "sim-recovery" => t::<workloads::sim::SimRecovery>(ctx, oracle),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// One end-to-end metric of one workload: the reported value and the
/// samples behind it.
struct Reported {
    metric: &'static Metric,
    value: f64,
    samples: Summary,
    /// What the metric is on this workload, when it is not the workload's
    /// own path (see the README's metric × workload table).
    note: &'static str,
}

/// Derives every end-to-end metric from one workload's measurement. Every
/// time and rate is the best of its samples (see `stats`); the socket
/// latencies are the best sample's median and tail. On a workload without
/// a socket, a durable image or a tape, a "job" is one whole run and
/// getting a verified report back means running again, so those metrics
/// are the run wall in their unit.
fn end_to_end(m: &Measured) -> Vec<Reported> {
    use stats::Best::{Highest, Lowest};
    let walls = m.walls();
    let wall_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let jobs_per_s: Vec<f64> = m.samples.iter().map(|s| s.jobs as f64 / s.wall_s).collect();
    // A path the workload does not have costs it a whole run.
    let or = |own: &[f64], stand_in: &[f64]| match own.is_empty() {
        true => (stand_in.to_vec(), "= run wall"),
        false => (own.to_vec(), ""),
    };
    let (resume, resume_note) = or(&m.own.resume_s, &walls);
    let (replay, replay_note) = or(&m.own.replay_verify_s, &walls);
    let (p50, latency_note) = or(&m.job_p50_ms, &wall_ms);
    let (p99, _) = or(&m.job_p99_ms, &wall_ms);
    let jobs_note = if latency_note.is_empty() {
        ""
    } else {
        "= runs per second"
    };
    // In the order of `metrics::E2E`.
    let rows = [
        (m.setup_s.clone(), Lowest, ""),
        (m.goodput(), Highest, ""),
        (jobs_per_s, Highest, jobs_note),
        (p50, Lowest, latency_note),
        (p99, Lowest, latency_note),
        (resume, Lowest, resume_note),
        (replay, Lowest, replay_note),
        (vec![m.peak_rss_mb], Lowest, ""),
    ];
    E2E.iter()
        .zip(rows)
        .map(|(metric, (samples, which, note))| Reported {
            metric,
            value: stats::best(&samples, which),
            samples: stats::summarize(&samples),
            note,
        })
        .collect()
}

fn print_measured(name: &str, ctx: &Ctx, m: &Measured, oracle: &Oracle) -> Vec<Reported> {
    println!("== {name}  seed {}  placement: {}", ctx.seed, m.placement);
    let reported = end_to_end(m);
    for r in &reported {
        let s = &r.samples;
        println!(
            "  {:<20} {:>14.4} {:<4}  samples: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4} n {}  {}",
            r.metric.name,
            r.value,
            r.metric.unit,
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            s.n,
            r.note
        );
    }
    let ms = &m.job_latency_ms;
    if let Some(p) = stats::reportable_percentile(ms.len(), 0.999) {
        println!(
            "  (socket latency over {} jobs: p{:.2} {:.4} ms, the highest percentile with {} beyond it)",
            ms.len(),
            p * 100.0,
            stats::percentile(ms, p),
            stats::BEYOND
        );
    }
    let walls: Vec<String> = m.walls().iter().map(|w| format!("{w:.5}")).collect();
    println!("  sample walls, s: {}", walls.join(" "));
    let goodput = stats::summarize(&m.goodput());
    println!(
        "  sub-threads/s: best {:.0}, upper quartile {:.0}, median {:.0}; {} of {} samples within {:.0}% of the best",
        goodput.max,
        goodput.q3,
        goodput.median,
        m.support().0,
        goodput.n,
        stats::CONFIRMS * 100.0
    );
    println!(
        "  failed_share {} ({} of {} operations)",
        oracle.failed_share(),
        oracle.failed,
        oracle.attempted
    );
    reported
}

fn print_layers(layers: &Layers, oracle: &Oracle) {
    println!("== {} traced run", layers.workload);
    for m in &PER_LAYER {
        if let Some(v) = layers.values.get(m.name) {
            println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    for note in &layers.notes {
        println!("  {note}");
    }
    println!(
        "  failed_share {} ({} of {} operations)",
        oracle.failed_share(),
        oracle.failed,
        oracle.attempted
    );
}

/// Writes the traced run's spans next to the executable.
fn write_spans(layers: &Layers) -> Result<(), String> {
    let path = workloads::scratch_dir("spans").join(format!("{}.spans.json", layers.workload));
    std::fs::write(&path, layers.tracer.to_json(layers.workload))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  {} spans -> {}", layers.tracer.len(), path.display());
    Ok(())
}

fn report_failures(oracle: &Oracle) {
    for note in oracle.notes.iter().take(20) {
        eprintln!("ORACLE: {note}");
    }
    if oracle.notes.len() > 20 {
        eprintln!("ORACLE: … and {} more", oracle.notes.len() - 20);
    }
}

/// The driver's result line.
fn result_json(oracle: &Oracle, metrics: &[(&Metric, f64)]) -> String {
    let mut w = gprs_telemetry::JsonWriter::new();
    w.begin_object();
    w.key("correct").bool(oracle.failed == 0);
    w.field_u64("attempted", oracle.attempted.max(1));
    w.field_u64("failed", oracle.failed);
    w.key("metrics").begin_object();
    for (m, value) in metrics {
        w.key(m.name).begin_object();
        w.key("value").f64(*value);
        w.field_str("unit", m.unit).end_object();
    }
    w.end_object().end_object();
    w.finish()
}

/// One workload for the driver: human lines, then the JSON result line.
fn run_one(name: &str, ctx: &Ctx, traced: bool) -> Result<bool, String> {
    let mut oracle = Oracle::default();
    let line = if traced {
        let layers = trace_run(name, ctx, &mut oracle)?;
        print_layers(&layers, &oracle);
        write_spans(&layers)?;
        let values: Vec<_> = PER_LAYER.iter().map(|m| (m, layers.get(m.name))).collect();
        result_json(&oracle, &values)
    } else {
        let m = measure(name, ctx, &mut oracle)?;
        let reported = print_measured(name, ctx, &m, &oracle);
        let values: Vec<_> = reported.iter().map(|r| (r.metric, r.value)).collect();
        result_json(&oracle, &values)
    };
    report_failures(&oracle);
    println!("{line}");
    Ok(oracle.failed == 0)
}

/// One end-to-end value of one workload.
type Cell = (&'static str, &'static Metric, f64);

/// The value of metric `name` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let metric = &line[line.find(&format!("\"{name}\":{{"))?..];
    workloads::serve::json_field(metric, "value")?.parse().ok()
}

/// Runs this executable on one workload in a process of its own — its
/// peak resident set and allocator state are then its own — passes its
/// report through and returns its result line, if it printed one.
fn child(args: &Args, name: &str, traced: bool) -> Result<Option<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--trace",
        if traced { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.to_string()])
    .args(["--seconds", &args.seconds.to_string()])
    .args(args.smoke.then_some("--smoke"))
    .args(args.corrupt_oracle.then_some("--corrupt-oracle"));
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, result): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| !l.starts_with('{'));
    println!("{}", report.join("\n"));
    Ok(result
        .last()
        .filter(|_| out.status.success())
        .map(|l| l.to_string()))
}

/// Every workload, untraced then traced, each run in a process of its own
/// exactly as the driver runs it. Returns the end-to-end values and whether
/// everything was correct and resolved.
fn run_set(args: &Args) -> Result<(Vec<Cell>, bool), String> {
    let mut values = Vec::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        match child(args, name, false)? {
            Some(line) => {
                for metric in &E2E {
                    let value = metric_value(&line, metric.name)
                        .ok_or(format!("{name}: no {} in the result line", metric.name))?;
                    values.push((name, metric, value));
                }
            }
            None => {
                println!("  {name}: no result (see above)");
                ok = false;
            }
        }
        ok &= child(args, name, true)?.is_some();
    }
    Ok((values, ok))
}

/// Runs the whole set twice and holds the second set's values against the
/// first's, by each metric's own bound.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let (first, ok1) = run_set(args)?;
    let (second, ok2) = run_set(args)?;
    println!(
        "== repeat check: second set against the first, seed {}",
        args.seed
    );
    println!(
        "  {:<15} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut ok = ok1 && ok2;
    let mut held = 0;
    for (workload, metric, a) in &first {
        // The run wall under another name is checked once, as the rate.
        if metrics::stands_in(workload, metric.name) {
            continue;
        }
        let again = second
            .iter()
            .find(|(w, m, _)| w == workload && m.name == metric.name);
        let Some((_, _, b)) = again else { continue };
        let worse = metric.better.worse_by(*a, *b);
        let breach = worse > metric.bound;
        ok &= !breach;
        held += usize::from(!breach);
        println!(
            "  {:<15} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
            workload,
            metric.name,
            a,
            b,
            worse * 100.0,
            metric.bound * 100.0,
            if breach { "  BREACH" } else { "" }
        );
    }
    println!("  {held} workload x metric pairs held (run-wall stand-ins left out)");
    Ok(ok)
}

fn main() -> ExitCode {
    place::one_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gprsbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        corrupt_oracle: args.corrupt_oracle,
    };
    let outcome = match &args.workload {
        Some(name) => run_one(name, &ctx, args.trace),
        None if args.repeat_check => repeat_check(&args),
        None => run_set(&args).map(|(_, ok)| ok),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("gprsbench: FAILED (oracle mismatch or bound breach; see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("gprsbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&argv(
            "--workload chain-faults --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("chain-faults"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seconds 600")).is_err());
        let a = parse_args(&argv("--smoke --repeat-check")).unwrap();
        assert!(a.smoke && a.repeat_check && a.workload.is_none());
    }

    #[test]
    fn every_declared_workload_dispatches() {
        let ctx = Ctx {
            seed: 1,
            seconds: 0.0,
            sizes: Sizes::smoke(),
            corrupt_oracle: false,
        };
        assert!(measure("nope", &ctx, &mut Oracle::default()).is_err());
        assert!(trace_run("nope", &ctx, &mut Oracle::default()).is_err());
    }

    #[test]
    fn end_to_end_reports_every_declared_metric_and_never_zero() {
        let run = |wall_s| workloads::Sample::of_run(wall_s, Some(1_000));
        let mut m = Measured {
            placement: "test".into(),
            setup_s: vec![0.22, 0.2, 0.4],
            samples: vec![run(1.0), run(1.25), run(4.0)],
            peak_rss_mb: 12.5,
            ..Measured::default()
        };
        let names = |r: &[Reported]| r.iter().map(|r| r.metric.name).collect::<Vec<_>>();
        let get = |r: &[Reported], n: &str| r.iter().find(|r| r.metric.name == n).unwrap().value;
        let plain = end_to_end(&m);
        assert_eq!(
            names(&plain),
            E2E.iter().map(|e| e.name).collect::<Vec<_>>()
        );
        assert!(plain.iter().all(|r| r.value > 0.0));
        assert_eq!(get(&plain, "setup_s"), 0.2);
        assert_eq!(get(&plain, "subthreads_per_s"), 1_000.0);
        assert_eq!(get(&plain, "jobs_per_s"), 1.0);
        assert_eq!(get(&plain, "job_latency_p50_ms"), 1_000.0);
        assert_eq!(get(&plain, "job_latency_p99_ms"), 1_000.0);
        assert_eq!(get(&plain, "resume_s"), 1.0);
        // A workload's own paths replace the run-wall stand-ins.
        m.own.resume_s = vec![0.7, 0.9, 0.8];
        m.job_p50_ms = vec![0.6, 0.5, 0.9];
        m.job_p99_ms = vec![1.4, 1.1, 1.2];
        let own = end_to_end(&m);
        assert_eq!(get(&own, "job_latency_p50_ms"), 0.5);
        assert_eq!(get(&own, "job_latency_p99_ms"), 1.1);
        assert_eq!(get(&own, "resume_s"), 0.7);
        assert_eq!(get(&own, "replay_verify_s"), 1.0);
        let note = |n: &str| own.iter().find(|r| r.metric.name == n).unwrap().note;
        assert_eq!(
            (note("resume_s"), note("replay_verify_s")),
            ("", "= run wall")
        );
        assert_eq!(m.support(), (2, 3));
    }

    #[test]
    fn a_result_line_reads_back() {
        let line = result_json(&Oracle::default(), &[(&E2E[0], 0.8127), (&E2E[1], 1.5e6)]);
        assert_eq!(metric_value(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_value(&line, "subthreads_per_s"), Some(1.5e6));
        assert_eq!(metric_value(&line, "resume_s"), None);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut oracle = Oracle::default();
        oracle.check(true, String::new);
        let line = result_json(&oracle, &[(&E2E[0], 0.8127)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        oracle.check(false, || "x".into());
        assert!(
            result_json(&oracle, &[]).starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#)
        );
    }
}
