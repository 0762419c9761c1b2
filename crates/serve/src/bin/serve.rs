//! `gprs-serve` — the serving-layer driver.
//!
//! Modes:
//!
//! * `--listen ADDR [--workers N] [--quantum G]` — boot the socket server
//!   and accept line-delimited client sessions until one sends `shutdown`.
//! * `--batch [FILE]` — run one session over FILE (or stdin) and stdout,
//!   no socket; the same protocol, handy for scripts and CI.
//! * `--client ADDR [FILE]` — connect to a running server, send the lines
//!   of FILE (or stdin), print every response line.
//! * `--smoke N [--workers W]` — self-test: boot an ephemeral-port server,
//!   submit a mixed batch of N jobs (some with injected faults) over a
//!   real socket, and verify every streamed report's retired hash is
//!   bit-identical to the same spec run solo. Exits nonzero on mismatch.
//! * `--durable-run DIR <workload> <seed> [key=value...] [--crash-after N]`
//!   — run one job logging into DIR's durable log and checkpoint store;
//!   with `--crash-after N` the process kills itself (SIGKILL) after N
//!   quanta, leaving DIR exactly as a crash would.
//! * `--durable-resume DIR [--expect-golden] [--crash-after N]` — load DIR,
//!   resume the job (restart *is* recovery), print the final report line;
//!   with `--expect-golden` exit nonzero unless the retired hash is
//!   bit-identical to the same spec run solo in-memory. `--crash-after N`
//!   kills the resumed process the same way, so a job can die twice.
//!
//! `--listen` and `--batch` also accept `--durable DIR`: every admitted
//! job gets its own durable directory under DIR and unfinished jobs are
//! resumed (and re-reported) when the server restarts over the same DIR.

use gprs_serve::pool::PoolConfig;
use gprs_serve::server::{serve_session, Server};
use gprs_serve::spec::{build_job_durable, build_solo, JobSpec, WORKLOADS};
use gprs_core::persist::{FileBackend, PersistBackend};
use gprs_runtime::report::RunReport;
use gprs_runtime::Gprs;
use gprs_runtime::session::QuantumOutcome;
use gprs_telemetry::JsonWriter;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gprs-serve --listen ADDR [--workers N] [--quantum G] [--durable DIR]\n\
         \x20      gprs-serve --batch [FILE] [--workers N] [--quantum G] [--durable DIR]\n\
         \x20      gprs-serve --client ADDR [FILE]\n\
         \x20      gprs-serve --smoke N [--workers W] [--quantum G]\n\
         \x20      gprs-serve --durable-run DIR <workload> <seed> [key=value...] [--crash-after N]\n\
         \x20      gprs-serve --durable-resume DIR [--expect-golden] [--crash-after N]"
    );
    ExitCode::from(2)
}

struct Args {
    mode: String,
    positional: Vec<String>,
    workers: usize,
    quantum: u64,
    durable: Option<PathBuf>,
    crash_after: Option<u64>,
    expect_golden: bool,
}

fn parse_args() -> Option<Args> {
    let mut args = std::env::args().skip(1);
    let mode = args.next()?;
    let mut parsed = Args {
        mode,
        positional: Vec::new(),
        workers: 2,
        quantum: 64,
        durable: None,
        crash_after: None,
        expect_golden: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workers" => parsed.workers = args.next()?.parse().ok()?,
            "--quantum" => parsed.quantum = args.next()?.parse().ok()?,
            "--durable" => parsed.durable = Some(PathBuf::from(args.next()?)),
            "--crash-after" => parsed.crash_after = Some(args.next()?.parse().ok()?),
            "--expect-golden" => parsed.expect_golden = true,
            _ => parsed.positional.push(a),
        }
    }
    Some(parsed)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let cfg = PoolConfig {
        workers: args.workers,
        quantum: args.quantum,
        durable_root: args.durable.clone(),
    };
    match args.mode.as_str() {
        "--listen" => {
            let Some(addr) = args.positional.first() else {
                return usage();
            };
            let server = match Server::bind(addr, cfg) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("gprs-serve: bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("gprs-serve: listening on {}", server.local_addr());
            if let Err(e) = server.run() {
                eprintln!("gprs-serve: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "--batch" => {
            let mut pool = gprs_serve::pool::ServePool::start(cfg);
            // Jobs resurrected from the durable root report first, in
            // directory order, before the scripted session begins.
            for ticket in pool.take_resumed() {
                println!("{}", ticket.wait().to_json());
            }
            let handle = pool.handle();
            let result = match args.positional.first() {
                Some(path) => {
                    let file = match std::fs::File::open(path) {
                        Ok(f) => f,
                        Err(e) => {
                            eprintln!("gprs-serve: open {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    serve_session(&handle, BufReader::new(file), std::io::stdout().lock())
                }
                None => serve_session(
                    &handle,
                    BufReader::new(std::io::stdin()),
                    std::io::stdout().lock(),
                ),
            };
            pool.shutdown();
            match result {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("gprs-serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "--client" => {
            let Some(addr) = args.positional.first() else {
                return usage();
            };
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("gprs-serve: connect {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut script = String::new();
            let read = match args.positional.get(1) {
                Some(path) => std::fs::File::open(path)
                    .and_then(|mut f| f.read_to_string(&mut script).map(|_| ())),
                None => std::io::stdin().read_to_string(&mut script).map(|_| ()),
            };
            if let Err(e) = read {
                eprintln!("gprs-serve: {e}");
                return ExitCode::FAILURE;
            }
            if let Err(e) = run_client(stream, &script, &mut std::io::stdout().lock()) {
                eprintln!("gprs-serve: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "--smoke" => {
            let jobs: usize = args
                .positional
                .first()
                .and_then(|n| n.parse().ok())
                .unwrap_or(40);
            match smoke(jobs, cfg) {
                Ok(()) => {
                    println!("serve-smoke: {jobs} jobs matched their solo goldens");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("serve-smoke FAILED: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "--durable-run" => {
            let [dir, spec_args @ ..] = args.positional.as_slice() else {
                return usage();
            };
            let words: Vec<&str> = spec_args.iter().map(String::as_str).collect();
            let spec = match JobSpec::parse_args(&words) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("gprs-serve: {e}");
                    return usage();
                }
            };
            match durable_run(dir, &spec, args.quantum, args.crash_after) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("gprs-serve: durable-run: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "--durable-resume" => {
            let Some(dir) = args.positional.first() else {
                return usage();
            };
            match durable_resume(dir, args.quantum, args.expect_golden, args.crash_after) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("gprs-serve: durable-resume: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// One final report line for the durable modes: the determinism hashes
/// plus the durability counters the smoke job asserts on.
fn durable_report_line(report: &RunReport) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("ok")
        .bool(true)
        .field_str("status", "completed")
        .field_hex("retired_hash", report.telemetry.retired_hash)
        .field_u64("retired", report.telemetry.retired_count)
        .field_u64("wal_segments_sealed", report.telemetry.counter("wal_segments_sealed"))
        .field_u64("fsyncs", report.telemetry.counter("fsyncs"))
        .field_u64(
            "recovered_prefix_len",
            report.telemetry.counter("recovered_prefix_len"),
        )
        .end_object();
    w.finish()
}

/// Kills this process the way a crash would: no destructors, no flushes,
/// no atexit — the durable directory is left exactly as SIGKILL leaves it.
fn die_midflight() -> ! {
    let _ = std::process::Command::new("kill")
        .args(["-9", &std::process::id().to_string()])
        .status();
    // SIGKILL is not deliverable on this platform (or `kill` is missing):
    // abort is the closest no-cleanup exit.
    std::process::abort();
}

/// Drives `gprs` to completion in `quantum`-grant quanta; with
/// `crash_after`, the process kills itself once that many have yielded.
fn drive(gprs: Gprs, quantum: u64, crash_after: Option<u64>) -> Result<RunReport, String> {
    let mut session = gprs.into_session();
    let mut quanta = 0u64;
    while session.run_quantum(quantum.max(1)) == QuantumOutcome::Yielded {
        quanta += 1;
        if crash_after.is_some_and(|n| quanta >= n) {
            die_midflight();
        }
    }
    if crash_after.is_some() {
        return Err(format!(
            "job finished in {quanta} quanta before the crash point — pick a smaller --crash-after"
        ));
    }
    session.finish().map_err(|e| e.to_string())
}

/// `--durable-run`: one job logged into `dir`, optionally self-killed
/// after `crash_after` quanta.
fn durable_run(
    dir: &str,
    spec: &JobSpec,
    quantum: u64,
    crash_after: Option<u64>,
) -> Result<(), String> {
    let backend = Arc::new(FileBackend::open(dir).map_err(|e| e.to_string())?);
    let gprs = build_job_durable(spec, 0, 0, backend, None)?;
    let report = drive(gprs, quantum, crash_after)?;
    println!("{}", durable_report_line(&report));
    Ok(())
}

/// `--durable-resume`: load `dir`, replay-verify against the durable
/// prefix, run to completion (or to the `crash_after` self-kill); with
/// `expect_golden`, fail unless the retired hash matches the same spec run
/// solo in-memory.
fn durable_resume(
    dir: &str,
    quantum: u64,
    expect_golden: bool,
    crash_after: Option<u64>,
) -> Result<(), String> {
    let backend = Arc::new(FileBackend::open(dir).map_err(|e| e.to_string())?);
    let image = backend.load().map_err(|e| e.to_string())?;
    let text = image
        .spec
        .clone()
        .ok_or_else(|| "no spec record in the durable log".to_string())?;
    let spec = JobSpec::parse_canonical(&text)?;
    eprintln!(
        "gprs-serve: resuming {:?}: durable prefix {} retirements{}",
        text,
        image.retired_len(),
        if image.truncated { " (torn tail truncated)" } else { "" },
    );
    let gprs = build_job_durable(&spec, 0, 0, backend, Some(&image))?;
    let report = drive(gprs, quantum, crash_after)?;
    println!("{}", durable_report_line(&report));
    if report.telemetry.counter("recovered_prefix_len") < image.retired_len() {
        return Err(format!(
            "replay verified only {} of the {} durable retirements",
            report.telemetry.counter("recovered_prefix_len"),
            image.retired_len()
        ));
    }
    if expect_golden {
        let golden = build_solo(&spec)?
            .run()
            .map_err(|e| format!("golden run: {e}"))?;
        if golden.telemetry.retired_hash != report.telemetry.retired_hash {
            return Err(format!(
                "retired hash diverged from the fault-free twin: resumed {:#018x}, solo {:#018x}",
                report.telemetry.retired_hash, golden.telemetry.retired_hash
            ));
        }
        eprintln!("gprs-serve: resumed run matches its solo golden");
    }
    Ok(())
}

/// Sends `script` over `stream` and copies every response line to `out`.
/// The server responds in lock-step per request (plus streamed report
/// lines before a `wait` summary), and half-closing our write side after
/// the script lets the read side drain to EOF.
fn run_client(
    stream: TcpStream,
    script: &str,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let mut tx = stream.try_clone()?;
    let reader = BufReader::new(stream);
    tx.write_all(script.as_bytes())?;
    tx.flush()?;
    tx.shutdown(std::net::Shutdown::Write)?;
    for line in reader.lines() {
        writeln!(out, "{}", line?)?;
    }
    Ok(())
}

/// Extracts a `"key":"value"` or `"key":value` field from a flat JSON
/// object line (the driver emits no nesting in report lines).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

/// The CI smoke leg: a real socket round-trip for a mixed batch, each
/// streamed report compared bit-for-bit against its solo-run golden.
fn smoke(jobs: usize, cfg: PoolConfig) -> Result<(), String> {
    let server =
        Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    // A deterministic mixed batch: every workload, varied seeds, every
    // third job with injected faults, a couple of quanta deadlines.
    let mut script = String::new();
    let mut specs = Vec::new();
    for i in 0..jobs {
        let workload = WORKLOADS[i % WORKLOADS.len()];
        let seed = (i as u64) * 7 + 1;
        let fault = if i % 3 == 0 { seed ^ 0x5 } else { 0 };
        script.push_str(&format!("submit {workload} {seed}"));
        if fault != 0 {
            script.push_str(&format!(" fault={fault}"));
        }
        script.push('\n');
        specs.push(JobSpec::new(workload, seed).faults(fault));
    }
    script.push_str("wait\nstats\nshutdown\n");

    let stream =
        TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Vec::new();
    run_client(stream, &script, &mut out).map_err(|e| format!("client: {e}"))?;
    server_thread
        .join()
        .map_err(|_| "server panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;

    let text = String::from_utf8_lossy(&out);
    let mut goldens: BTreeMap<(String, u64, u64), String> = BTreeMap::new();
    let mut matched = 0usize;
    for line in text.lines() {
        let Some(status) = json_field(line, "status") else {
            continue; // ack / stats / shutdown lines
        };
        if status != "completed" {
            return Err(format!("unexpected status in {line}"));
        }
        let workload = json_field(line, "workload").ok_or("missing workload")?;
        let seed: u64 = json_field(line, "seed")
            .and_then(|s| s.parse().ok())
            .ok_or("missing seed")?;
        let fault: u64 = json_field(line, "fault_seed")
            .and_then(|s| s.parse().ok())
            .ok_or("missing fault_seed")?;
        let served = json_field(line, "retired_hash")
            .ok_or("missing retired_hash")?
            .to_string();
        let key = (workload.to_string(), seed, fault);
        let golden = match goldens.get(&key) {
            Some(h) => h.clone(),
            None => {
                let spec = JobSpec::new(workload, seed).faults(fault);
                let report = build_solo(&spec)
                    .map_err(|e| format!("golden build: {e}"))?
                    .run()
                    .map_err(|e| format!("golden run: {e}"))?;
                let hash = format!("{:#018x}", report.telemetry.retired_hash);
                goldens.insert(key, hash.clone());
                hash
            }
        };
        if served != golden {
            return Err(format!(
                "retired hash diverged for {workload} seed={seed} fault={fault}: \
                 served {served}, solo {golden}"
            ));
        }
        matched += 1;
    }
    if matched != jobs {
        return Err(format!("expected {jobs} reports, saw {matched}:\n{text}"));
    }
    Ok(())
}
