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
use std::io::{BufRead, BufReader, Write};
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

/// Sends the response built in `out` as one write and empties it.
fn send(output: &mut impl Write, out: &mut String) -> std::io::Result<()> {
    output.write_all(out.as_bytes())?;
    output.flush()?;
    out.clear();
    Ok(())
}

/// Runs one client session: reads requests from `input` line by line,
/// writes one JSON response line per request to `output`. Returns `true`
/// if the client requested a server-wide shutdown.
///
/// Every response goes out as **one** write, newline included. A line
/// split into two small writes meets Nagle's algorithm on the second and
/// the peer's delayed ACK on the first: ~40 ms per round trip for any
/// client that does not ask for quick ACKs.
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
    mut input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<bool> {
    let mut pending: Vec<JobTicket> = Vec::new();
    // Job ids already reported (or cancelled-and-reported) on this
    // connection — a later `cancel` of one is "stale", not "unknown".
    let mut reaped: Vec<u64> = Vec::new();
    let mut shutdown = false;
    let mut buf = Vec::new();
    // The bytes of the response being built.
    let mut out = String::new();
    loop {
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
                    reaped.push(ticket.id());
                    let outcome = match ticket.try_wait() {
                        Some(outcome) => outcome,
                        None => {
                            // About to block: send the reports already
                            // gathered, so they keep streaming behind a
                            // long job; finished jobs share one write.
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
                    None if reaped.contains(&id) => {
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
        send(&mut output, &mut out)?;
        if shutdown {
            break;
        }
    }
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
        let mut sessions = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let stream = stream?;
            let handle = self.pool.handle();
            let stop = self.stop.clone();
            let addr = self.local_addr();
            // Responses are whole lines in single writes; nothing is gained
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
        let shutdown = serve_session(&handle, script.as_bytes(), &mut out).unwrap();
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
        let shutdown = serve_session(&handle, script.as_slice(), &mut out).unwrap();
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
        let shutdown = serve_session(&handle, script.as_bytes(), &mut out).unwrap();
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
