//! Integration tests for `gprs-serve`: the multi-tenant serving layer.
//!
//! The load-bearing claim is the acceptance criterion from the paper's
//! precision guarantee lifted to co-residency: a job executed one quantum
//! at a time on a shared worker pool, interleaved with hundreds of other
//! tenants and migrating between OS threads, retires **bit-identically**
//! to the same spec run solo. Everything else here (drain, halt, cancel,
//! deadlines, the socket driver) checks that the serving machinery stops
//! jobs only through the recovery gates — a balanced WAL ledger is the
//! observable proof.

use gprs_serve::{build_solo, JobSpec, JobStatus, PoolConfig, ServePool, WORKLOADS};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};

/// The deterministic mixed-tenant spec stream shared by the big tests:
/// four workloads, a handful of seeds, every third job carrying an
/// injected fault plan.
fn mixed_spec(i: usize) -> JobSpec {
    let workload = WORKLOADS[i % WORKLOADS.len()];
    let mut spec = JobSpec::new(workload, (i as u64) % 5 + 1);
    if i.is_multiple_of(3) {
        spec = spec.faults((i as u64) % 6 + 1);
    }
    spec
}

/// Solo golden (schedule hash, retired hash, retired count) per unique
/// spec, computed once and cached — the stream in [`mixed_spec`] repeats
/// with period 60.
fn solo_goldens(n: usize) -> BTreeMap<(String, u64, u64), (u64, u64, u64)> {
    let mut goldens = BTreeMap::new();
    for i in 0..n {
        let spec = mixed_spec(i);
        let key = (spec.workload.clone(), spec.seed, spec.fault_seed);
        goldens.entry(key).or_insert_with(|| {
            let report = build_solo(&spec)
                .expect("registry workload")
                .run()
                .expect("solo golden completes");
            (
                report.telemetry.schedule_hash,
                report.telemetry.retired_hash,
                report.telemetry.retired_count,
            )
        });
    }
    goldens
}

/// THE acceptance test: a 2-worker pool over 1000 queued mixed jobs —
/// some with injected exceptions recovering mid-pool — and every single
/// report is bit-identical to its solo golden. Tenancy, quantum
/// scheduling, worker migration, and co-resident recoveries are all
/// invisible to precision.
#[test]
fn a_thousand_mixed_tenants_match_their_solo_goldens() {
    const JOBS: usize = 1000;
    let goldens = solo_goldens(JOBS);
    let pool = ServePool::start(PoolConfig {
        workers: 2,
        quantum: 16,
        ..Default::default()
    });
    let handle = pool.handle();
    let tickets: Vec<_> = (0..JOBS)
        .map(|i| handle.submit(mixed_spec(i)).expect("pool is admitting"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let spec = mixed_spec(i);
        let outcome = ticket.wait();
        assert_eq!(outcome.status, JobStatus::Completed, "job {i} ({spec:?})");
        let report = outcome.report.expect("completed jobs carry a report");
        let (schedule, retired_hash, retired) =
            goldens[&(spec.workload.clone(), spec.seed, spec.fault_seed)];
        // Schedule-hash equality is the clean-run contract. Under
        // injection the grant *order* stays deterministic but the
        // in-flight set at a trigger is not (chaos oracle doc), so a
        // mid-recovery event's victim — and with it the post-recovery
        // schedule — is timing-sensitive; only the retired hash and
        // count are guaranteed for faulted jobs.
        if spec.fault_seed == 0 {
            assert_eq!(
                report.telemetry.schedule_hash, schedule,
                "job {i} ({spec:?}): schedule hash drifted under tenancy"
            );
        }
        assert_eq!(
            report.telemetry.retired_hash, retired_hash,
            "job {i} ({spec:?}): retired hash drifted under tenancy"
        );
        assert_eq!(report.telemetry.retired_count, retired, "job {i}");
    }
    let stats = pool.shutdown();
    assert_eq!(stats.submitted, JOBS as u64);
    assert_eq!(stats.completed, JOBS as u64);
    assert_eq!(stats.failed, 0);
    assert!(
        stats.yields > 0,
        "the 16-grant quantum must force real yields"
    );
}

/// A clean backlog costs the same scheduling at every pool width: each
/// job's grants and the 16-grant quantum fix how many quanta it runs and
/// how often it yields back to the queue, whichever worker claims it.
#[test]
fn a_clean_backlog_costs_the_same_quanta_at_every_pool_width() {
    const JOBS: u64 = 200;
    for workers in [1usize, 2, 4, 8] {
        let pool = ServePool::start(PoolConfig {
            workers,
            quantum: 16,
            ..Default::default()
        });
        let handle = pool.handle();
        // Every fourth job is a histogram of hundreds of grants; the rest
        // are small fetchadd and mutex specs.
        let tickets: Vec<_> = (0..JOBS)
            .map(|i| {
                let workload = ["fetchadd", "mutex", "fetchadd", "histogram"][i as usize % 4];
                handle
                    .submit(JobSpec::new(workload, i % 17 + 1))
                    .expect("pool is admitting")
            })
            .collect();
        for ticket in tickets {
            assert_eq!(ticket.wait().status, JobStatus::Completed);
        }
        let stats = pool.shutdown();
        assert_eq!(
            (stats.completed, stats.quanta, stats.yields),
            (JOBS, 414, 214),
            "{workers} workers: (jobs, quanta, yields)"
        );
    }
}

/// Graceful shutdown begins while the queue is still full — including
/// jobs whose fault plans put them mid-recovery — and every job drains to
/// a complete, golden-identical report.
#[test]
fn graceful_shutdown_drains_in_flight_and_mid_recovery_jobs() {
    const JOBS: usize = 60;
    let goldens = solo_goldens(JOBS);
    let pool = ServePool::start(PoolConfig {
        workers: 2,
        quantum: 8,
        ..Default::default()
    });
    let handle = pool.handle();
    let tickets: Vec<_> = (0..JOBS)
        .map(|i| handle.submit(mixed_spec(i)).expect("pool is admitting"))
        .collect();
    // Shut down immediately: nothing has been waited on, most of the
    // backlog is still queued, some jobs are mid-quantum or mid-recovery.
    let stats = pool.shutdown();
    assert_eq!(stats.completed, JOBS as u64, "drain completes every job");
    assert!(
        handle.submit(JobSpec::new("fetchadd", 1)).is_err(),
        "admissions close once shutdown begins"
    );
    for (i, ticket) in tickets.into_iter().enumerate() {
        let spec = mixed_spec(i);
        let outcome = ticket.wait();
        assert_eq!(outcome.status, JobStatus::Completed, "job {i}");
        let report = outcome.report.expect("drained jobs carry a report");
        let (_, retired_hash, _) = goldens[&(spec.workload.clone(), spec.seed, spec.fault_seed)];
        assert_eq!(
            report.telemetry.retired_hash, retired_hash,
            "job {i}: a drain must not perturb the schedule"
        );
    }
}

/// A halting shutdown cancels the backlog instead of draining it, but
/// still only through the recovery gates: no job poisons, and every
/// cancelled job that ran leaves a balanced WAL ledger
/// (`appends == undos + prunes` — nothing in flight survived the stop).
#[test]
fn halting_shutdown_cancels_cleanly() {
    const JOBS: usize = 200;
    let pool = ServePool::start(PoolConfig {
        workers: 1,
        quantum: 4,
        ..Default::default()
    });
    let handle = pool.handle();
    let tickets: Vec<_> = (0..JOBS)
        .map(|i| handle.submit(mixed_spec(i)).expect("pool is admitting"))
        .collect();
    let stats = pool.shutdown_now();
    assert_eq!(stats.failed, 0, "a halt is not a crash");
    assert_eq!(stats.completed + stats.cancelled, JOBS as u64);
    assert!(stats.cancelled > 0, "a 1-worker pool cannot outrun the halt");
    for ticket in tickets {
        let outcome = ticket.wait();
        match outcome.status {
            JobStatus::Completed => {
                assert!(outcome.report.is_some());
            }
            JobStatus::Cancelled => {
                // Jobs stopped before their first quantum have no report;
                // jobs stopped mid-flight must show a balanced ledger.
                if let Some(report) = &outcome.report {
                    let t = &report.telemetry;
                    assert_eq!(
                        t.counter("wal_appends"),
                        t.counter("wal_undos") + t.counter("wal_prunes"),
                        "cancellation left WAL entries unaccounted for"
                    );
                }
            }
            other => panic!("halt produced {other:?}"),
        }
    }
}

/// A queued job cancelled before any worker claims it publishes a
/// `Cancelled` outcome without ever building an engine.
#[test]
fn cancel_of_a_queued_job_skips_execution() {
    let pool = ServePool::start(PoolConfig {
        workers: 1,
        quantum: 2,
        ..Default::default()
    });
    let handle = pool.handle();
    // A deep FIFO of real work ahead of the victim.
    let ahead: Vec<_> = (0..8)
        .map(|i| handle.submit(JobSpec::new("fetchadd", i + 1)).unwrap())
        .collect();
    let victim = handle.submit(JobSpec::new("pbzip", 3)).unwrap();
    victim.cancel();
    let outcome = victim.wait();
    assert_eq!(outcome.status, JobStatus::Cancelled);
    assert!(
        outcome.report.is_none(),
        "a never-claimed job must not fabricate a report"
    );
    assert_eq!(outcome.quanta, 0);
    for t in ahead {
        assert_eq!(t.wait().status, JobStatus::Completed);
    }
    pool.shutdown();
}

/// Quanta-denominated deadlines cancel at a deterministic precise-restart
/// point: the partial report is reproducible run over run, its ledger is
/// balanced, and its retired prefix is a strict prefix of the solo run.
#[test]
fn deadlines_cancel_at_a_deterministic_precise_point() {
    let spec = JobSpec::new("fetchadd", 11).deadline(3);
    let solo = build_solo(&JobSpec::new("fetchadd", 11))
        .unwrap()
        .run()
        .unwrap();
    let run = || {
        let pool = ServePool::start(PoolConfig {
            workers: 2,
            quantum: 4,
            ..Default::default()
        });
        let outcome = pool.handle().submit(spec.clone()).unwrap().wait();
        pool.shutdown();
        outcome
    };
    let first = run();
    let second = run();
    assert_eq!(first.status, JobStatus::DeadlineExceeded);
    assert_eq!(first.quanta, 3, "cancelled exactly at the deadline quantum");
    let report = first.report.as_ref().expect("deadline leaves a report");
    let twin = second.report.as_ref().expect("deadline leaves a report");
    assert_eq!(
        report.telemetry.retired_hash, twin.telemetry.retired_hash,
        "deadline cancellation must be reproducible"
    );
    assert!(
        report.telemetry.retired_count < solo.telemetry.retired_count,
        "the deadline fired before the job could finish"
    );
    let t = &report.telemetry;
    assert_eq!(
        t.counter("wal_appends"),
        t.counter("wal_undos") + t.counter("wal_prunes")
    );
}

/// The scheduling fairness claim: on one worker, a long job ahead of the
/// queue yields every quantum, so every small tenant behind it completes
/// before the long job does — the long job can never hold the pool for
/// more than one quantum at a time. Retried a few times because a
/// pathological OS preemption during the submit burst could let the
/// single worker sprint the long job to completion first.
#[test]
fn long_jobs_cannot_starve_small_tenants() {
    const SMALLS: usize = 8;
    let attempt = || -> bool {
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            quantum: 4,
            ..Default::default()
        });
        let handle = pool.handle();
        // fetchadd/11 runs 52 grants = 13 quanta; each histogram small is
        // 10 grants = 3 quanta.
        let long = handle.submit(JobSpec::new("fetchadd", 11)).unwrap();
        let smalls: Vec<_> = (0..SMALLS)
            .map(|_| handle.submit(JobSpec::new("histogram", 11)).unwrap())
            .collect();
        let long_outcome = long.wait();
        assert_eq!(long_outcome.status, JobStatus::Completed);
        assert!(long_outcome.quanta > 1, "the long job must actually yield");
        let done = smalls
            .into_iter()
            .filter_map(|t| t.try_wait().ok())
            .filter(|o| o.status == JobStatus::Completed)
            .count();
        pool.shutdown();
        done == SMALLS
    };
    assert!(
        (0..3).any(|_| attempt()),
        "small tenants repeatedly waited out an entire long job"
    );
}

/// A socket server on an ephemeral port and its address. A client's
/// `shutdown` request ends the thread.
fn boot_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let cfg = PoolConfig {
        workers: 2,
        quantum: 16,
        ..Default::default()
    };
    let server = gprs_serve::server::Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run().expect("server runs")))
}

/// A client whose reads give up after ten seconds: a server that sat on a
/// response fails the test instead of hanging it.
fn connect(addr: std::net::SocketAddr) -> (std::net::TcpStream, BufReader<std::net::TcpStream>) {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set a read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// The socket driver round-trips a mixed batch: every streamed report's
/// retired hash equals the solo golden, in submission order.
#[test]
fn socket_driver_streams_golden_identical_reports() {
    let (addr, server_thread) = boot_server();

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut script = String::new();
    let batch: Vec<JobSpec> = (0..8).map(mixed_spec).collect();
    for spec in &batch {
        script.push_str(&format!("submit {} {}", spec.workload, spec.seed));
        if spec.fault_seed != 0 {
            script.push_str(&format!(" fault={}", spec.fault_seed));
        }
        script.push('\n');
    }
    script.push_str("wait\nshutdown\n");
    stream.write_all(script.as_bytes()).expect("send script");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let reader = BufReader::new(stream);
    let lines: Vec<String> = reader.lines().map(|l| l.expect("read line")).collect();
    server_thread.join().expect("server thread");

    // 8 acks, 8 reports, wait summary, shutdown ack.
    assert_eq!(lines.len(), batch.len() * 2 + 2, "{lines:#?}");
    let reports = &lines[batch.len()..batch.len() * 2];
    for (spec, line) in batch.iter().zip(reports) {
        let golden = build_solo(spec).unwrap().run().unwrap();
        let expected = format!(
            "\"retired_hash\":\"{:#018x}\"",
            golden.telemetry.retired_hash
        );
        assert!(
            line.contains("\"status\":\"completed\""),
            "{spec:?}: {line}"
        );
        assert!(
            line.contains(&expected),
            "{spec:?}: wanted {expected} in {line}"
        );
    }
}

/// A plain `TcpStream` client — no `TCP_QUICKACK`, no `TCP_NODELAY` of its
/// own — pays no delayed-ACK timer per round trip. A response split into
/// two small writes (line, then newline) stalls on the second until the
/// client's ~40 ms delayed ACK of the first: 20 submit/wait round trips
/// then take ≥ 1.6 s (two stalls each), against a few milliseconds when
/// every response is one write on a no-delay socket.
#[test]
fn a_plain_client_round_trip_costs_no_delayed_ack() {
    const ROUND_TRIPS: u32 = 20;
    let (addr, server_thread) = boot_server();

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    let mut exchange = |request: &str, responses: usize| {
        stream.write_all(request.as_bytes()).expect("send request");
        for _ in 0..responses {
            line.clear();
            reader.read_line(&mut line).expect("read response");
            assert!(line.ends_with('\n'), "whole line: {line:?}");
        }
        line.clone()
    };
    // One untimed round trip absorbs the pool's first-job set-up.
    exchange("submit fetchadd 1\n", 1);
    exchange("wait\n", 2);
    let t0 = std::time::Instant::now();
    for i in 0..ROUND_TRIPS {
        let ack = exchange(&format!("submit fetchadd {}\n", i + 2), 1);
        assert!(ack.contains("\"ok\":true"), "{ack}");
        // The report line and the summary line.
        let summary = exchange("wait\n", 2);
        assert!(summary.contains("\"drained\":1"), "{summary}");
    }
    let wall = t0.elapsed();
    exchange("shutdown\n", 1);
    server_thread.join().expect("server thread");
    assert!(
        wall < std::time::Duration::from_millis(u64::from(ROUND_TRIPS) * 40 / 2),
        "{ROUND_TRIPS} submit/wait round trips took {wall:?}: a delayed-ACK stall per response"
    );
}

/// The server holds responses only while further requests are already
/// buffered, so how a script is cut into writes moves the server's write
/// boundaries and not one byte of the stream: sent whole, or a line at a
/// time with every answer read before the next line, a fresh server
/// answers the same.
#[test]
fn a_script_sent_whole_or_line_by_line_reads_the_same_bytes() {
    // (request, response lines it produces)
    const SCRIPT: [(&str, usize); 9] = [
        ("submit fetchadd 3\n", 1),
        ("submit mutex 5 fault=2\n", 1),
        ("submit nosuch 1\n", 1),
        ("wait\n", 3),
        ("cancel 2\n", 1),
        ("submit histogram 4\n", 1),
        ("submit pbzip 2 fault=1\n", 1),
        ("wait\n", 3),
        ("shutdown\n", 1),
    ];
    let run = |stepped: bool| -> String {
        let (addr, server) = boot_server();
        let (mut stream, mut reader) = connect(addr);
        let mut stream_text = String::new();
        if stepped {
            for (request, responses) in SCRIPT {
                stream.write_all(request.as_bytes()).expect("send a line");
                for _ in 0..responses {
                    reader.read_line(&mut stream_text).expect("read a response");
                }
            }
        } else {
            let whole: String = SCRIPT.iter().map(|(request, _)| *request).collect();
            stream.write_all(whole.as_bytes()).expect("send the script");
        }
        // The server hangs up after `shutdown`: whatever is left, then EOF.
        std::io::Read::read_to_string(&mut reader, &mut stream_text).expect("read to EOF");
        server.join().expect("server thread");
        stream_text
    };
    let (whole, stepped) = (run(false), run(true));
    assert_eq!(whole, stepped);
    let lines: usize = SCRIPT.iter().map(|(_, responses)| responses).sum();
    assert_eq!(whole.lines().count(), lines, "{whole}");
}

/// A client that sends one `submit` and reads its ack before sending
/// anything else gets the ack: with nothing further buffered the server
/// answers before it reads again, so neither side waits on the other.
#[test]
fn a_lone_submit_is_acked_before_the_client_sends_anything_else() {
    let (addr, server) = boot_server();
    let (mut stream, mut reader) = connect(addr);
    let mut line = String::new();
    stream.write_all(b"submit fetchadd 1\n").expect("send submit");
    reader.read_line(&mut line).expect("the ack arrives unprompted");
    assert!(line.contains("\"job_id\":1"), "{line}");
    stream.write_all(b"wait\nshutdown\n").expect("send the rest");
    line.clear();
    std::io::Read::read_to_string(&mut reader, &mut line).expect("read to EOF");
    assert_eq!(line.lines().count(), 3, "{line}");
    server.join().expect("server thread");
}

/// Sharded jobs take the blocking drive path — no session, no quantum
/// slicing — yet every report still matches the *unsharded* solo twin
/// bit-for-bit and carries the per-domain ledger. Sharding a workload
/// without a shard plan, or on a durable pool, is rejected at admission.
#[test]
fn sharded_jobs_run_blocking_and_match_unsharded_twins() {
    let pool = ServePool::start(PoolConfig {
        workers: 2,
        quantum: 16,
        ..Default::default()
    });
    let handle = pool.handle();
    // Mix sharded beacons with unsharded small jobs so the blocking pass
    // shares the pool with quantum-sliced tenants.
    let specs: Vec<JobSpec> = (0..12)
        .map(|i| {
            if i % 2 == 0 {
                JobSpec::new("beacon", i as u64 + 1).sharded()
            } else {
                JobSpec::new("fetchadd", i as u64)
            }
        })
        .collect();
    let tickets: Vec<_> = specs
        .iter()
        .map(|s| handle.submit(s.clone()).expect("pool is admitting"))
        .collect();
    for (spec, ticket) in specs.iter().zip(tickets) {
        let outcome = ticket.wait();
        assert_eq!(outcome.status, JobStatus::Completed, "{spec:?}");
        let report = outcome.report.as_ref().expect("completed jobs carry a report");
        let golden = build_solo(spec).unwrap().run().unwrap();
        assert_eq!(
            report.telemetry.retired_hash, golden.telemetry.retired_hash,
            "{spec:?}: sharded tenancy must be invisible to precision"
        );
        assert_eq!(report.shards.is_empty(), !spec.shard, "{spec:?}");
        if spec.shard {
            assert_eq!(outcome.quanta, 1, "one blocking pass, no slicing");
            let json = outcome.to_json();
            assert!(json.contains("\"domains\":"), "{json}");
        }
    }
    let Err(err) = handle.submit(JobSpec::new("mutex", 1).sharded()) else {
        panic!("shard flag on a planless workload must be rejected");
    };
    assert!(err.to_string().contains("no shard plan"), "{err}");
    pool.shutdown();

    let durable_root = gprs_core::persist::unique_temp_dir("gprs-serve-shard-reject");
    let pool = ServePool::start(PoolConfig {
        workers: 1,
        quantum: 16,
        durable_root: Some(durable_root.clone()),
    });
    let Err(err) = pool.handle().submit(JobSpec::new("beacon", 1).sharded()) else {
        panic!("sharded jobs on a durable pool must be rejected");
    };
    assert!(err.to_string().contains("durable"), "{err}");
    pool.shutdown();
    let _ = std::fs::remove_dir_all(durable_root);
}
