//! The line-delimited socket/CLI driver.
//!
//! One request per line, one JSON object per response line — trivially
//! scriptable over `nc`, a file, or a pipe. The same [`serve_session`]
//! loop backs both transports: the `gprs-serve` binary runs it over a TCP
//! connection (`--listen`) or over stdin/stdout (`--batch`).
//!
//! # Protocol
//!
//! | request | response |
//! |---|---|
//! | `submit <workload> <seed> [fault=N] [deadline=N] [timeout=MS] [shard=1]` | `{"ok":true,"job_id":N,"submit_seq":N}` |
//! | `wait` | one [`JobOutcome`] JSON line per unreported submission, in submission order, then `{"ok":true,"drained":K}` |
//! | `cancel <job_id>` | `{"ok":true}` (flag set) or an error |
//! | `stats` | pool counters as one JSON object |
//! | `shutdown` | `{"ok":true,"shutdown":true}`; the server drains and exits after this connection closes |
//! | `quit` (or EOF) | connection ends; unwaited jobs keep running |
//!
//! Reports stream in submission order: deterministic for scripted
//! clients, and head-of-line blocking is bounded because long jobs yield
//! every quantum.

use crate::pool::{JobTicket, PoolConfig, ServeHandle, ServePool};
use crate::spec::JobSpec;
use gprs_telemetry::JsonWriter;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn ok_line(fields: &[(&str, u64)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("ok").bool(true);
    for (k, v) in fields {
        w.field_u64(k, *v);
    }
    w.end_object();
    w.finish()
}

fn err_line(msg: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("ok")
        .bool(false)
        .field_str("error", msg)
        .end_object();
    w.finish()
}

/// Parses a `submit` argument list: `<workload> <seed> [key=value...]`.
fn parse_submit(args: &[&str]) -> Result<JobSpec, String> {
    JobSpec::parse_args(args)
}

/// Job ids a connection has already reported, as coalesced inclusive
/// ranges. Ids are handed out at `submit` and reported in submission
/// order, so they arrive ascending and — other connections aside —
/// contiguous: a connection that reports a million jobs keeps one pair.
#[derive(Default)]
struct Reaped(Vec<(u64, u64)>);

impl Reaped {
    fn insert(&mut self, id: u64) {
        debug_assert!(self.0.last().is_none_or(|&(_, last)| last < id), "ids ascend");
        match self.0.last_mut() {
            Some((_, last)) if *last + 1 == id => *last = id,
            _ => self.0.push((id, id)),
        }
    }

    fn contains(&self, id: u64) -> bool {
        let after = self.0.partition_point(|&(first, _)| first <= id);
        after > 0 && id <= self.0[after - 1].1
    }
}

/// Sends the responses gathered in `out` as one write and empties it.
fn send(output: &mut impl Write, out: &mut String) -> std::io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    output.write_all(out.as_bytes())?;
    output.flush()?;
    out.clear();
    Ok(())
}

/// Runs one client session: reads requests from `input` line by line,
/// writes one JSON response line per request to `output`. Returns `true`
/// if the client requested a server-wide shutdown.
///
/// Responses gather in one buffer and go out in **one** write when the
/// session is about to block: no further complete request line is already
/// buffered, a `wait` reaches an unfinished job, or the session ends. A
/// client that pipelines `submit`s ahead of a `wait` costs one or two
/// writes, not one per line, while a client that sends one request and
/// reads its answer still gets it at once; the byte stream is the same
/// either way. No line is ever split: a line in two small writes meets
/// Nagle's algorithm on the second and the peer's delayed ACK on the first,
/// ~40 ms per round trip for any client that does not ask for quick ACKs.
///
/// `input` is a [`BufReader`] because the rule needs to ask "is a line
/// buffered?" without blocking, which `impl BufRead` cannot.
///
/// Malformed input never kills the connection: a line that is not valid
/// UTF-8 is decoded lossily and answered (like any other unparseable
/// request) with an `{"ok":false,...}` protocol-error line, and `cancel`
/// with a non-numeric, stale, or already-reported job id gets a specific
/// error line instead of silently misbehaving.
///
/// # Errors
/// Propagates transport I/O errors; protocol errors are reported to the
/// client as `{"ok":false,...}` lines instead.
pub fn serve_session(
    handle: &ServeHandle,
    mut input: BufReader<impl Read>,
    mut output: impl Write,
) -> std::io::Result<bool> {
    let mut pending: Vec<JobTicket> = Vec::new();
    // Job ids already reported (or cancelled-and-reported) on this
    // connection — a later `cancel` of one is "stale", not "unknown".
    let mut reaped = Reaped::default();
    let mut shutdown = false;
    let mut buf = Vec::new();
    // The responses not yet sent.
    let mut out = String::new();
    while !shutdown {
        if !input.buffer().contains(&b'\n') {
            // The next read may block on the client: answer it first.
            send(&mut output, &mut out)?;
        }
        buf.clear();
        if input.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        // Lossy decode: a malformed (non-UTF-8) request line degrades to a
        // parse error answered in-protocol, never a dropped connection.
        let line = String::from_utf8_lossy(&buf);
        let words: Vec<&str> = line.split_whitespace().collect();
        let response = match words.as_slice() {
            [] => continue,
            ["submit", args @ ..] => match parse_submit(args) {
                Ok(spec) => match handle.submit(spec) {
                    Ok(ticket) => {
                        let ack = ok_line(&[
                            ("job_id", ticket.id()),
                            ("submit_seq", ticket.seq()),
                        ]);
                        pending.push(ticket);
                        ack
                    }
                    Err(e) => err_line(&e.to_string()),
                },
                Err(e) => err_line(&e),
            },
            ["wait"] => {
                let drained = pending.len() as u64;
                for ticket in pending.drain(..) {
                    reaped.insert(ticket.id());
                    let outcome = match ticket.try_wait() {
                        Ok(outcome) => outcome,
                        Err(ticket) => {
                            // About to block on the job: send what is
                            // gathered, so reports keep streaming behind
                            // a long job; finished jobs share one write.
                            send(&mut output, &mut out)?;
                            ticket.wait()
                        }
                    };
                    out.push_str(&outcome.to_json());
                    out.push('\n');
                }
                ok_line(&[("drained", drained)])
            }
            ["cancel", id] => match id.parse::<u64>() {
                Ok(id) => match pending.iter().find(|t| t.id() == id) {
                    Some(ticket) => {
                        ticket.cancel();
                        ok_line(&[("job_id", id)])
                    }
                    None if reaped.contains(id) => {
                        err_line(&format!("job {id} was already reported on this connection"))
                    }
                    None => err_line(&format!("job {id} is not pending on this connection")),
                },
                Err(_) => err_line(&format!("bad job id {id:?}")),
            },
            ["cancel", ..] => err_line("usage: cancel <job_id>"),
            ["stats"] => handle.stats().to_json(),
            ["shutdown"] => {
                shutdown = true;
                let mut w = JsonWriter::new();
                w.begin_object()
                    .key("ok")
                    .bool(true)
                    .key("shutdown")
                    .bool(true)
                    .end_object();
                w.finish()
            }
            ["quit"] => break,
            [cmd, ..] => err_line(&format!("unknown command {cmd:?}")),
        };
        out.push_str(&response);
        out.push('\n');
    }
    send(&mut output, &mut out)?;
    // Connection over: any reports the client never asked for are dropped,
    // but the jobs themselves drain normally inside the pool.
    Ok(shutdown)
}

/// A TCP front-end over a [`ServePool`].
pub struct Server {
    listener: TcpListener,
    pool: ServePool,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over a
    /// freshly started pool.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(addr: &str, cfg: PoolConfig) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            pool: ServePool::start(cfg),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Panics
    /// Panics if the socket's local address cannot be read.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// A submission handle onto the underlying pool (for in-process
    /// clients living next to the socket front-end).
    pub fn handle(&self) -> ServeHandle {
        self.pool.handle()
    }

    /// Accepts connections until a client sends `shutdown`, then drains
    /// the pool gracefully. Each connection is served on its own thread.
    ///
    /// # Errors
    /// Propagates accept-loop I/O errors.
    ///
    /// # Panics
    /// Panics if a connection-handler thread panicked.
    pub fn run(self) -> std::io::Result<()> {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let stream = stream?;
            // Join the connections that ended since the last accept, so a
            // long-lived server holds handles only for the live ones.
            let (ended, live) = sessions.into_iter().partition(|s| s.is_finished());
            sessions = live;
            for s in ended {
                s.join().expect("session threads do not panic");
            }
            let handle = self.pool.handle();
            let stop = self.stop.clone();
            let addr = self.local_addr();
            // Responses are whole lines in whole writes; nothing is gained
            // by the kernel holding one back to coalesce it. Best effort:
            // a socket that refuses the option is merely slower.
            let _ = stream.set_nodelay(true);
            sessions.push(std::thread::spawn(move || {
                let reader = BufReader::new(stream.try_clone().expect("clone stream"));
                match serve_session(&handle, reader, stream) {
                    Ok(true) => {
                        stop.store(true, Ordering::Release);
                        // Self-connect to unblock the accept loop.
                        let _ = TcpStream::connect(addr);
                    }
                    Ok(false) => {}
                    Err(_) => {} // client went away mid-session
                }
            }));
        }
        for s in sessions {
            s.join().expect("session threads do not panic");
        }
        self.pool.shutdown();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_submit_lines() {
        let spec = parse_submit(&["mutex", "9", "fault=3", "deadline=8"]).unwrap();
        assert_eq!(spec.workload, "mutex");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.fault_seed, 3);
        assert_eq!(spec.deadline_quanta, Some(8));
        assert_eq!(spec.timeout_ms, None);
        assert!(parse_submit(&["mutex"]).is_err());
        assert!(parse_submit(&["mutex", "x"]).is_err());
        assert!(parse_submit(&["mutex", "1", "bogus"]).is_err());
    }

    #[test]
    fn batch_session_round_trips() {
        let pool = ServePool::start(PoolConfig {
            workers: 2,
            quantum: 16,
            ..Default::default()
        });
        let handle = pool.handle();
        let script = "submit fetchadd 3\nsubmit mutex 5 fault=2\nwait\nstats\nquit\n";
        let mut out = Vec::new();
        let shutdown = serve_session(&handle, BufReader::new(script.as_bytes()), &mut out).unwrap();
        assert!(!shutdown);
        let text = String::from_utf8_lossy(&out);
        let lines: Vec<&str> = text.lines().collect();
        // 2 acks + 2 reports + wait summary + stats.
        assert_eq!(lines.len(), 6, "{text}");
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[2].contains("\"status\":\"completed\""));
        assert!(lines[3].contains("\"retired_hash\""));
        assert!(lines[5].contains("\"submitted\":2"));
        pool.shutdown();
    }

    /// A client's requests, one line per `read`: what a server sees of a
    /// client that awaits each answer before sending the next request.
    struct LineByLine<'a>(std::str::SplitInclusive<'a, char>);

    impl Read for LineByLine<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let line = self.0.next().unwrap_or("").as_bytes();
            buf[..line.len()].copy_from_slice(line);
            Ok(line.len())
        }
    }

    /// Keeps every `write` apart, so a test sees the write boundaries.
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The flush rule moves write boundaries and nothing else: a script
    /// that arrives whole is answered in a few writes (one more only where
    /// a `wait` blocks on an unfinished job), the same script arriving a
    /// line at a time gets every answer before the next line is read, and
    /// the two byte streams are identical.
    #[test]
    fn responses_are_held_only_while_requests_are_buffered() {
        const SCRIPT: &str = "submit fetchadd 3\nsubmit mutex 5 fault=2\nbogus\nwait\n\
                              cancel 1\nsubmit histogram 4\nwait\nquit\n";
        fn run(input: BufReader<impl Read>) -> Vec<Vec<u8>> {
            // A pool per run: job ids restart at 1, so the streams compare.
            let pool = ServePool::start(PoolConfig {
                workers: 2,
                quantum: 16,
                ..Default::default()
            });
            let mut out = Writes(Vec::new());
            let shutdown = serve_session(&pool.handle(), input, &mut out).unwrap();
            assert!(!shutdown);
            pool.shutdown();
            out.0
        }
        let whole = run(BufReader::new(SCRIPT.as_bytes()));
        let stepped = run(BufReader::new(LineByLine(SCRIPT.split_inclusive('\n'))));
        assert_eq!(
            String::from_utf8_lossy(&whole.concat()),
            String::from_utf8_lossy(&stepped.concat())
        );
        assert_eq!(whole.concat().iter().filter(|&&b| b == b'\n').count(), 10);
        for write in whole.iter().chain(&stepped) {
            assert_eq!(write.last(), Some(&b'\n'), "a write ends on a whole line");
        }
        // Whole: at most one write per unfinished job a `wait` met, and the
        // last. Stepped: at least one per answered request (`quit` has none).
        assert!(whole.len() <= 4, "{} writes", whole.len());
        assert!(stepped.len() >= 7, "{} writes", stepped.len());
    }

    /// Reports stream ahead of a `wait` that blocks. The script arrives
    /// whole, so the server has every reason to hold its answers, and
    /// still the first report is written before the `wait` has seen its
    /// last job finish — the pool's one worker needs ~100 times longer
    /// for the backlog than the session needs to submit it.
    #[test]
    fn reports_stream_ahead_of_a_wait_blocked_on_later_jobs() {
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            quantum: 1,
            ..Default::default()
        });
        let mut script = String::new();
        for seed in 0..500 {
            script.push_str(&format!("submit pbzip {seed} fault=3\n"));
        }
        script.push_str("wait\nquit\n");
        let mut out = Writes(Vec::new());
        serve_session(&pool.handle(), BufReader::new(script.as_bytes()), &mut out).unwrap();
        pool.shutdown();
        let first = |needle: &str| {
            let holds = |w: &Vec<u8>| String::from_utf8_lossy(w).contains(needle);
            out.0.iter().position(holds).expect(needle)
        };
        assert!(
            first("\"status\":") < first("\"drained\":500"),
            "the first report waited for the whole backlog"
        );
    }

    #[test]
    fn reaped_ids_coalesce_into_ranges() {
        let mut reaped = Reaped::default();
        for id in [1, 2, 3, 5, 6, 9] {
            reaped.insert(id);
        }
        assert_eq!(reaped.0, [(1, 3), (5, 6), (9, 9)]);
        for id in 0..=10 {
            assert_eq!(reaped.contains(id), [1, 2, 3, 5, 6, 9].contains(&id), "{id}");
        }
    }

    /// Satellite robustness sweep: malformed lines (including invalid
    /// UTF-8) and bad/stale/reaped cancel ids each get a protocol-error
    /// line, and the connection keeps serving afterwards.
    #[test]
    fn malformed_requests_get_error_lines_not_a_dropped_connection() {
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            quantum: 16,
            ..Default::default()
        });
        let handle = pool.handle();
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(b"submit fetchadd 3\n"); // ack: job 1
        script.extend_from_slice(b"bogus command\n");
        script.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']); // invalid UTF-8
        script.extend_from_slice(b"submit mutex notanumber\n");
        script.extend_from_slice(b"submit mutex 5 tilt=3\n");
        script.extend_from_slice(b"cancel beans\n"); // non-numeric id
        script.extend_from_slice(b"cancel\n"); // missing id
        script.extend_from_slice(b"cancel 99\n"); // never submitted here
        script.extend_from_slice(b"wait\n"); // reaps job 1
        script.extend_from_slice(b"cancel 1\n"); // reaped id
        script.extend_from_slice(b"submit fetchadd 4\nwait\nquit\n"); // still serving
        let mut out = Vec::new();
        let shutdown = serve_session(&handle, BufReader::new(script.as_slice()), &mut out).unwrap();
        assert!(!shutdown);
        let text = String::from_utf8_lossy(&out);
        let lines: Vec<&str> = text.lines().collect();
        // ack, 7 errors, report + wait summary, stale-cancel error,
        // ack + report + wait summary.
        assert_eq!(lines.len(), 14, "{text}");
        assert!(lines[0].contains("\"ok\":true"), "{text}");
        for (i, expect) in [
            (1, "unknown command"),
            (2, "unknown command"),
            (3, "bad seed"),
            (4, "unknown option"),
            (5, "bad job id"),
            (6, "usage: cancel"),
            (7, "not pending on this connection"),
        ] {
            assert!(lines[i].contains("\"ok\":false"), "line {i}: {text}");
            assert!(lines[i].contains(expect), "line {i} wanted {expect:?}: {text}");
        }
        assert!(lines[8].contains("\"status\":\"completed\""), "{text}");
        assert!(lines[10].contains("already reported"), "{text}");
        assert!(lines[12].contains("\"status\":\"completed\""), "{text}");
        pool.shutdown();
    }

    /// A workload name full of control characters, quotes and non-ASCII
    /// must round-trip the serve socket as well-formed one-line JSON: the
    /// submit rejection echoes the name (quotes and backslashes escaped,
    /// UTF-8 passed through raw), and a report carrying such a name
    /// directly — [`JobOutcome::to_json`] is the same serializer the
    /// socket streams — `\u`-escapes every raw control char.
    #[test]
    fn hostile_names_round_trip_escaped_through_the_report_stream() {
        let pool = ServePool::start(PoolConfig {
            workers: 1,
            quantum: 16,
            ..Default::default()
        });
        let handle = pool.handle();
        let script = "submit na\u{1}ïve\"🚀 3\nwait\nquit\n";
        let mut out = Vec::new();
        let shutdown = serve_session(&handle, BufReader::new(script.as_bytes()), &mut out).unwrap();
        assert!(!shutdown);
        let text = String::from_utf8_lossy(&out);
        let lines: Vec<&str> = text.lines().collect();
        // Rejection line (unknown workload, name echoed), wait summary.
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"ok\":false"), "{text}");
        assert!(lines[0].contains("unknown workload"), "{text}");
        assert!(lines[0].contains("\\\""), "quote stays escaped: {text}");
        assert!(lines[0].contains("ïve") && lines[0].contains("🚀"), "{text}");
        assert!(
            text.lines().all(|l| l.chars().all(|c| (c as u32) >= 0x20)),
            "no raw control byte in the stream: {text}"
        );
        pool.shutdown();

        // The report serializer itself, fed raw control chars (a future
        // registry could admit such names; the stream must not split).
        let outcome = crate::pool::JobOutcome {
            job_id: 1,
            submit_seq: 1,
            spec: JobSpec::new("na\u{1}ïve\n\"🚀", 3),
            status: crate::pool::JobStatus::Failed,
            report: None,
            error: Some("tab\there\u{2}".into()),
            quanta: 0,
        };
        let line = outcome.to_json();
        assert!(!line.contains('\n') && !line.contains('\t'), "{line}");
        assert!(line.contains("\\u0001") && line.contains("\\u0002"), "{line}");
        assert!(line.contains("\\n") && line.contains("\\t"), "{line}");
        assert!(line.contains("\\\"🚀"), "{line}");
    }
}
