//! `serve-mix`: an in-process `Server` on an ephemeral port, a pool of two
//! workers with a 16-grant quantum, and one TCP client in a closed loop —
//! batches of eight `submit` lines, then `wait`. The jobs are tiny, so the
//! socket codec, the pool's queue and per-job session set-up and tear-down
//! are what is measured. Client, server and pool share one CPU: over two,
//! identical runs read anywhere between 9 and 15 thousand jobs a second.

use super::{mix, Ctx, Oracle, Sample, Workload};
use crate::place::{Pinned, Usage};
use crate::trace::{Layers, SpanId, Tracer};
use gprs_runtime::session::QuantumOutcome;
use gprs_serve::server::Server;
use gprs_serve::{
    build_job, build_solo, JobOutcome, JobSpec, JobStatus, PoolConfig, ServeHandle, ServePool,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

const WORKERS: usize = 2;
const QUANTUM: u64 = 16;
const BATCH: usize = 8;
/// The traced run's passes are this many samples long.
const TRACE_SAMPLES: usize = 8;
/// Distinct job seeds: few enough to twin every spec once. The set is
/// fixed, every workload of the mix meets every one of them, and the
/// benchmark seed only rotates it, so that a sample's work does not depend
/// on the seed.
const SPEC_SEEDS: u64 = 64;
const MIX: [&str; 4] = ["fetchadd", "mutex", "fetchadd", "histogram"];
const FAULT_EVERY: usize = 16;
/// Jobs after which the mix repeats: every workload with every job seed.
const PERIOD: usize = MIX.len() * SPEC_SEEDS as usize;

fn pool_config() -> PoolConfig {
    PoolConfig {
        workers: WORKERS,
        quantum: QUANTUM,
        durable_root: None,
    }
}

/// The `ix`-th job of the mix. The benchmark seed picks which job seed goes
/// with which job, and the fault seed; the shape of the mix is fixed.
fn spec(seed: u64, ix: usize) -> JobSpec {
    let turn = mix(seed);
    let job_seed = 1 + ((ix / MIX.len()) as u64 + turn) % SPEC_SEEDS;
    let spec = JobSpec::new(MIX[ix % MIX.len()], job_seed);
    if ix % FAULT_EVERY == FAULT_EVERY - 1 {
        spec.faults(1 + turn % 1_000)
    } else {
        spec
    }
}

/// The value of `"key":` in a one-line JSON object, quotes stripped.
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// The client's end of the connection, acknowledging at once whatever it
/// reads. The server writes a response line in two small writes on a socket
/// without `TCP_NODELAY`, so the second waits for the first's ACK; a client
/// that delays its ACKs (the kernel's default in a request/response
/// exchange) turns every `wait` into one ~40 ms timer. The kernel drops
/// `TCP_QUICKACK` again as it sees fit, hence once per read.
struct QuickAck {
    socket: TcpStream,
    /// Off for the traced run's one pass as a default client.
    on: bool,
}

impl QuickAck {
    #[cfg(target_os = "linux")]
    fn arm(&self) {
        if !self.on {
            return;
        }
        use std::os::fd::AsRawFd;
        const IPPROTO_TCP: i32 = 6;
        const TCP_QUICKACK: i32 = 12;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        let on = 1i32;
        // SAFETY: `on` is a live `int` of exactly the length passed and the
        // descriptor is this struct's open socket. A refusal only costs
        // speed, so the return code is not looked at.
        unsafe { setsockopt(self.socket.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4) };
    }

    #[cfg(not(target_os = "linux"))]
    fn arm(&self) {}
}

impl Read for QuickAck {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.arm();
        let n = self.socket.read(buf);
        self.arm();
        n
    }
}

/// What one solo twin retired: `(retired hash as printed, retired count)`.
type Golden = (String, u64);

pub struct ServeMix {
    seed: u64,
    jobs: usize,
    handle: ServeHandle,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    reader: BufReader<QuickAck>,
    writer: TcpStream,
    goldens: BTreeMap<String, Golden>,
}

/// One job's trip over the socket: when its `submit` line was written and
/// when its outcome line had been read, with the line itself.
struct Trip {
    ix: usize,
    sent: Instant,
    outcome: (Instant, String),
}

impl ServeMix {
    /// One closed-loop pass of `jobs` jobs. Returns the wall seconds and
    /// every job's trip; nothing is parsed while the clock runs.
    fn drive(&mut self, jobs: usize) -> std::io::Result<(f64, Vec<Trip>)> {
        let mut trips = Vec::with_capacity(jobs);
        let mut line = String::new();
        let t0 = Instant::now();
        for first in (0..jobs).step_by(BATCH) {
            let batch = first..(first + BATCH).min(jobs);
            let mut sent = Vec::with_capacity(BATCH);
            for ix in batch.clone() {
                let request = format!("submit {}\n", spec(self.seed, ix).canonical_line());
                sent.push(Instant::now());
                self.writer.write_all(request.as_bytes())?;
            }
            self.writer.write_all(b"wait\n")?;
            for _ in batch.clone() {
                line.clear();
                self.reader.read_line(&mut line)?; // the submit's ack
            }
            for (ix, sent) in batch.zip(sent) {
                let mut outcome = String::new();
                self.reader.read_line(&mut outcome)?;
                trips.push(Trip {
                    ix,
                    sent,
                    outcome: (Instant::now(), outcome),
                });
            }
            line.clear();
            self.reader.read_line(&mut line)?; // {"ok":true,"drained":8}
        }
        Ok((t0.elapsed().as_secs_f64(), trips))
    }

    /// Drives `jobs` jobs one at a time on this thread through the public
    /// calls the pool makes for each — parse, `build_job`, `into_session`,
    /// `run_quantum` until finished, `finish`, `to_json` — with a span
    /// around each call when a tracer is given. Returns microseconds per job.
    fn drive_by_hand(&self, jobs: usize, tracer: Option<&Tracer>, oracle: &mut Oracle) -> f64 {
        fn spanned<T>(
            t: Option<(&Tracer, SpanId, u32)>,
            name: &'static str,
            f: impl FnOnce() -> T,
        ) -> T {
            match t {
                Some((tracer, job, run)) => tracer.scoped(name, Some(job), run, |_| f()).0,
                None => f(),
            }
        }
        let mut hashes = Vec::with_capacity(jobs);
        let t0 = Instant::now();
        for ix in 0..jobs {
            let run = ix as u32;
            let line = spec(self.seed, ix).canonical_line();
            let job = tracer.map(|t| (t, t.open("serve.job", None, run), run));
            let parsed = spanned(job, "serve.server.codec", || {
                JobSpec::parse_args(&line.split_whitespace().collect::<Vec<_>>())
            });
            let built = parsed.and_then(|spec| {
                spanned(job, "serve.spec.build_job", || {
                    build_job(&spec, ix as u64 + 1, ix as u64 + 1)
                })
                .map(|gprs| (spec, gprs))
            });
            let Some((spec, gprs)) = oracle.ok(built, "serve-mix hand-built job") else {
                continue;
            };
            let mut session = gprs.into_session();
            let mut quanta = 0;
            loop {
                quanta += 1;
                let outcome = spanned(job, "runtime.session.quantum", || {
                    session.run_quantum(QUANTUM)
                });
                if outcome == QuantumOutcome::Finished {
                    break;
                }
            }
            let report = spanned(job, "runtime.session.finish", || session.finish());
            let report = oracle.ok(report, "serve-mix hand-driven job");
            hashes.push((line, report.as_ref().map(|r| r.telemetry.retired_hash)));
            let outcome = JobOutcome {
                job_id: ix as u64 + 1,
                submit_seq: ix as u64 + 1,
                spec,
                status: JobStatus::Completed,
                report,
                error: None,
                quanta,
            };
            std::hint::black_box(spanned(job, "serve.server.codec", || outcome.to_json()));
            if let Some((tracer, id, _)) = job {
                tracer.close(id);
            }
        }
        let job_us = t0.elapsed().as_secs_f64() * 1e6 / jobs as f64;
        for (ix, (line, hash)) in hashes.iter().enumerate() {
            let hash = hash.map(|h| format!("{h:#018x}"));
            let golden = &self.goldens[line].0;
            oracle.check(hash.as_ref() == Some(golden), || {
                format!("serve-mix hand-driven job {ix}: hash {hash:?} != solo twin {golden}")
            });
        }
        job_us
    }

    /// Checks every outcome against its solo twin; returns what was retired.
    fn verify(&self, what: &str, trips: &[Trip], oracle: &mut Oracle) -> u64 {
        let mut retired = 0;
        for trip in trips {
            let line = &trip.outcome.1;
            let golden = &self.goldens[&spec(self.seed, trip.ix).canonical_line()];
            let got = (
                json_field(line, "status"),
                json_field(line, "retired_hash"),
                json_field(line, "retired").and_then(|n| n.parse::<u64>().ok()),
            );
            let want = (Some("completed"), Some(golden.0.as_str()), Some(golden.1));
            oracle.check(got == want, || {
                format!(
                    "serve-mix {what} job {}: {got:?} != solo twin {want:?}",
                    trip.ix
                )
            });
            retired += got.2.unwrap_or(0);
        }
        retired
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve-mix";

    fn setup(ctx: &Ctx) -> Self {
        let server = Server::bind("127.0.0.1:0", pool_config()).expect("loopback binds");
        let addr = server.local_addr();
        let handle = server.handle();
        let server = std::thread::spawn(move || server.run());
        let writer = TcpStream::connect(addr).expect("the server just bound this address");
        writer
            .set_nodelay(true)
            .expect("TCP_NODELAY is settable on a TCP socket");
        let reader = BufReader::new(QuickAck {
            socket: writer.try_clone().expect("a socket handle clones"),
            on: true,
        });
        let mut w = ServeMix {
            seed: ctx.seed,
            jobs: ctx.sizes.serve_jobs,
            handle,
            server: Some(server),
            reader,
            writer,
            goldens: BTreeMap::new(),
        };
        w.drive(w.jobs / 4 + 1).expect("the warm-up pass completes");
        w
    }

    fn reference(&mut self, ctx: &Ctx, oracle: &mut Oracle) {
        for ix in 0..PERIOD {
            let spec = spec(self.seed, ix);
            let line = spec.canonical_line();
            let twin = build_solo(&spec).and_then(|g| g.run().map_err(|e| e.to_string()));
            if let Some(r) = oracle.ok(twin, &format!("serve-mix solo twin {line:?}")) {
                let hash = format!("{:#018x}", ctx.golden(r.telemetry.retired_hash));
                self.goldens.insert(line, (hash, r.telemetry.retired_count));
            }
        }
    }

    fn sample(&mut self, ix: usize, oracle: &mut Oracle) -> Sample {
        let jobs = self.jobs;
        let Some((wall_s, trips)) = oracle.ok(self.drive(jobs), &format!("serve-mix sample {ix}"))
        else {
            return Sample::of_run(f64::NAN, None);
        };
        let retired = self.verify(&format!("sample {ix}"), &trips, oracle);
        Sample {
            wall_s,
            retired,
            jobs: trips.len() as u64,
            job_latency_ms: trips
                .iter()
                .map(|t| (t.outcome.0 - t.sent).as_secs_f64() * 1e3)
                .collect(),
        }
    }

    fn trace(&mut self, _ctx: &Ctx, _pin: &Pinned, oracle: &mut Oracle, layers: &mut Layers) {
        let tracer = layers.tracer.clone();
        let jobs = self.jobs * TRACE_SAMPLES;

        // Over the socket, untraced: the per-job time everything below is a
        // share of, with the pool's own counters for exactly this pass.
        let before_stats = self.handle.stats();
        let before = Usage::now();
        let Some((socket_s, trips)) =
            oracle.ok(self.drive(jobs), "serve-mix traced-run socket pass")
        else {
            return;
        };
        let usage = Usage::now().since(before);
        let after_stats = self.handle.stats();
        let retired = self.verify("socket pass", &trips, oracle);
        let grants: u64 = trips
            .iter()
            .filter_map(|t| json_field(&t.outcome.1, "grants")?.parse::<u64>().ok())
            .sum();
        let jobs = trips.len();
        let socket_job_us = socket_s * 1e6 / jobs as f64;
        let quanta = after_stats.quanta - before_stats.quanta;
        layers.set("serve.pool.quanta_per_job", quanta as f64 / jobs as f64);
        layers.set(
            "serve.pool.yields",
            (after_stats.yields - before_stats.yields) as f64,
        );
        layers.set(
            "serve.pool.queue_wait_us_max",
            after_stats.queue_wait_us.max as f64,
        );

        // In process, no socket: `ServeHandle::submit` → `wait`, same loop.
        let pool = ServePool::start(pool_config());
        let handle = pool.handle();
        let t0 = Instant::now();
        for first in (0..jobs).step_by(BATCH) {
            let tickets: Vec<_> = (first..(first + BATCH).min(jobs))
                .map(|ix| handle.submit(spec(self.seed, ix)))
                .collect();
            for ticket in tickets {
                let done = ticket.is_ok_and(|t| t.wait().status == JobStatus::Completed);
                oracle.check(done, || "serve-mix in-process job did not complete".into());
            }
        }
        let inproc_job_us = t0.elapsed().as_secs_f64() * 1e6 / jobs as f64;
        pool.shutdown();
        layers.set("serve.pool.inproc_job_us", inproc_job_us);
        layers.set(
            "serve.server.socket_share",
            1.0 - inproc_job_us / socket_job_us,
        );

        // As a client that leaves its ACKs to the kernel: a few batches.
        self.reader.get_mut().on = false;
        let delayed = self.drive(4 * BATCH);
        self.reader.get_mut().on = true;
        if let Some((delayed_s, trips)) = oracle.ok(delayed, "serve-mix delayed-ACK pass") {
            self.verify("delayed-ACK pass", &trips, oracle);
            layers.note(format!(
                "a client without TCP_QUICKACK waits {:.1} ms per batch of {BATCH} ({:.2} ms with it)",
                delayed_s * 1e3 / 4.0,
                socket_s * 1e3 / (jobs / BATCH) as f64
            ));
        }

        // By hand, one job at a time through the public calls the pool
        // makes: once bare, once with a span around each call.
        let by_hand = jobs.min(2_000);
        let bare_job_us = self.drive_by_hand(by_hand, None, oracle);
        let hand_job_us = self.drive_by_hand(by_hand, Some(&tracer), oracle);
        let per_job = |name: &str| tracer.total(name).1 as f64 / 1e3 / by_hand as f64;
        layers.set("serve.spec.build_job_us", per_job("serve.spec.build_job"));
        layers.set(
            "runtime.session.quantum_us",
            tracer.mean_us("runtime.session.quantum"),
        );
        layers.set(
            "runtime.session.finish_us",
            per_job("runtime.session.finish"),
        );
        layers.set("serve.server.codec_us", per_job("serve.server.codec"));
        layers.set("bench.trace_overhead_ratio", hand_job_us / bare_job_us);
        layers.note(format!(
            "per job: socket {socket_job_us:.1} us, in-process pool {inproc_job_us:.1} us, \
             hand-driven on one thread {bare_job_us:.1} us ({hand_job_us:.1} us with spans)"
        ));
        super::proc_metrics(layers, usage, retired, grants);
    }

    fn teardown(mut self) {
        let _ = self.writer.write_all(b"shutdown\n");
        let mut ack = String::new();
        let _ = self.reader.read_line(&mut ack);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{measure, trace, Sizes};

    #[test]
    fn json_field_reads_strings_and_numbers() {
        let line = r#"{"job_id":7,"status":"completed","retired_hash":"0x00ab","retired":45}"#;
        assert_eq!(json_field(line, "status"), Some("completed"));
        assert_eq!(json_field(line, "retired_hash"), Some("0x00ab"));
        assert_eq!(json_field(line, "retired"), Some("45"));
        assert_eq!(json_field(line, "job_id"), Some("7"));
        assert_eq!(json_field(line, "error"), None);
    }

    #[test]
    fn the_mix_cycles_four_workloads_and_faults_every_sixteenth_job() {
        let names: Vec<String> = (0..4).map(|ix| spec(9, ix).workload).collect();
        assert_eq!(names, MIX);
        assert!((0..15).all(|ix| spec(9, ix).fault_seed == 0));
        assert_ne!(spec(9, 15).fault_seed, 0);
        assert_ne!(
            spec(9, 0).seed,
            spec(10, 0).seed,
            "the seed picks the job seeds"
        );
    }

    #[test]
    fn smoke_serve_mix_matches_every_solo_twin() {
        let ctx = Ctx {
            seed: 6,
            seconds: 0.0,
            sizes: Sizes::smoke(),
            corrupt_oracle: false,
        };
        let mut oracle = Oracle::default();
        let m = measure::<ServeMix>(&ctx, &mut oracle).unwrap();
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        let jobs: u64 = m.samples.iter().map(|s| s.jobs).sum();
        assert!(
            jobs >= BATCH as u64 && jobs <= (m.samples.len() * Sizes::smoke().serve_jobs) as u64
        );
        assert_eq!(m.job_latency_ms.len() as u64, jobs);
        assert!(m.job_latency_ms.iter().all(|ms| *ms > 0.0));
        let layers = trace::<ServeMix>(&ctx, &mut oracle).unwrap();
        assert_eq!(oracle.failed, 0, "{:?}", oracle.notes);
        assert!(layers.get("serve.spec.build_job_us") > 0.0);
        assert!(layers.get("serve.pool.quanta_per_job") >= 1.0);
    }
}
