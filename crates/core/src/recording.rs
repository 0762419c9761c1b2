//! Recorded-schedule format for deterministic record/replay.
//!
//! GPRS's deterministic total order makes the classic record/replay loop
//! (Ronsse & De Bosschere) nearly free: a run is fully reproduced by the
//! sequence of *turn-consuming events* — grants (each opening a sub-thread)
//! plus the structural barrier-arrivals and thread exits that consume the
//! token without opening one. A [`Recording`] captures that sequence as
//! `(position, thread, kind)` triples with a running FNV digest, together
//! with the workload identity (name + seed), the drive mode, the schedule
//! tag, and an optional injection-plan overlay — everything a replayer
//! needs to rebuild the run and everything a verifier needs to prove it
//! replayed faithfully (the footer carries the run's schedule and retired
//! hashes as the self-verification oracle).
//!
//! Replay is enforced through the existing [`crate::order::OrderGate`]
//! machinery: a [`ReplaySchedule`] is an [`OrderingPolicy`] whose holder is
//! simply the thread of the next recorded event, so the next-grant ticket
//! resolves from the recording instead of a live schedule policy. Wasted
//! polling turns (empty-FIFO passes) are *not* recorded — they mutate no
//! program state — so the replay policy's [`OrderingPolicy::pass`] keeps
//! the cursor in place and the engine re-polls until the recorded event
//! becomes grantable (or poisons loudly on genuine divergence).
//!
//! The on-disk format shares [`crate::persist`]'s framing: one checksummed
//! text line per record (`<fnv1a:016x> <payload>`), percent-escaped free
//! text, and a mandatory `end` footer whose absence names the recording
//! truncated instead of silently replaying a prefix.

use crate::error::{GprsError, Result};
use crate::ids::{GroupId, ThreadId};
use crate::order::OrderingPolicy;
use crate::persist::{escape, fnv1a, frame_line, unescape, unframe_line};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Current format version (the `gprs-recording v<N>` banner line).
pub const RECORDING_VERSION: u32 = 1;

/// Event kind tag for a barrier arrival (consumes the turn, opens no
/// sub-thread). Disjoint from every [`crate::subthread::SubThreadKind`] tag.
pub const EVT_ARRIVE: u8 = 10;
/// Event kind tag for a thread exit (consumes the turn, opens no
/// sub-thread).
pub const EVT_EXIT: u8 = 11;

/// Human-readable name for an event kind tag (sub-thread kinds 0–9 plus the
/// structural arrive/exit tags).
pub fn event_kind_name(tag: u8) -> &'static str {
    match tag {
        0 => "initial",
        1 => "fork-child",
        2 => "fork-continuation",
        3 => "join-continuation",
        4 => "critical-section",
        5 => "atomic-op",
        6 => "barrier-continuation",
        7 => "channel-access",
        8 => "cpr-region",
        9 => "serialized",
        EVT_ARRIVE => "barrier-arrive",
        EVT_EXIT => "exit",
        _ => "unknown",
    }
}

/// How the recorded run was driven. Retirement (and grant) order is
/// deterministic *per drive mode*, not across modes (the PR-7 durable
/// replay discovery), so replaying a recording under a different drive mode
/// is rejected loudly instead of diverging confusingly mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveMode {
    /// Multi-worker pool (`Gprs::run`).
    Pool,
    /// Cooperative single-driver session (`Gprs::into_session`, the serve
    /// pool's quantum driver).
    Session,
    /// The virtual-time simulator.
    Sim,
}

impl DriveMode {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            DriveMode::Pool => "pool",
            DriveMode::Session => "session",
            DriveMode::Sim => "sim",
        }
    }

    /// Parses a wire name.
    pub fn parse(text: &str) -> Option<DriveMode> {
        match text {
            "pool" => Some(DriveMode::Pool),
            "session" => Some(DriveMode::Session),
            "sim" => Some(DriveMode::Sim),
            _ => None,
        }
    }
}

impl fmt::Display for DriveMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One turn-consuming event. The position is implicit (the event's index);
/// `digest` is the running FNV chain *after* folding this event, so a
/// replayer can verify any prefix without reading the footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Raw [`ThreadId`] that consumed the turn.
    pub thread: u32,
    /// Sub-thread kind tag (0–9) or [`EVT_ARRIVE`] / [`EVT_EXIT`].
    pub kind: u8,
    /// Running digest after this event.
    pub digest: u64,
}

/// Identity of the recorded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingHeader {
    /// Workload / program name (a campaign registry name or a serve
    /// workload).
    pub workload: String,
    /// Workload seed (serve spec seed, sim script seed; 0 when unused).
    pub seed: u64,
    /// How the run was driven (see [`DriveMode`]).
    pub mode: DriveMode,
    /// Live schedule tag the recording was made under (`R`/`B`/`W`).
    pub schedule: String,
    /// Worker/context count of the recorded run.
    pub workers: u32,
    /// Full canonical job-spec line, when the embedder has one (serve).
    pub spec: Option<String>,
    /// Injection-plan overlay ([`crate::chaos::ChaosPlan`] text) armed on
    /// the recorded run, replayed identically on replay.
    pub chaos: Option<String>,
}

/// Terminal state of the recorded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordedOutcome {
    /// The run completed; the event stream is the whole execution.
    Complete,
    /// The run poisoned (or was cancelled) with this diagnostic; the event
    /// stream is the prefix up to the failure. A replay that consumes the
    /// whole stream has faithfully reproduced the failing prefix.
    Poisoned(String),
}

/// A complete recorded schedule: header, event stream, self-verification
/// footer.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Run identity.
    pub header: RecordingHeader,
    /// Turn-consuming events in total order.
    pub events: Vec<RecordedEvent>,
    /// The recorded run's order-sensitive schedule hash digest.
    pub sched_hash: u64,
    /// The recorded run's commutative retired-order hash digest.
    pub retired_hash: u64,
    /// Terminal state of the recorded run.
    pub outcome: RecordedOutcome,
}

/// Errors naming exactly what is wrong with a recording artifact. Replay
/// tooling must degrade to these — never panic — on damaged input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordingError {
    /// Filesystem-level failure.
    Io(String),
    /// A line failed its checksum or did not parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The mandatory `end` footer is missing — the file is a torn prefix.
    Truncated {
        /// Events successfully read before the tear.
        events: usize,
    },
    /// Unknown banner / version.
    Version(String),
    /// The footer's event count disagrees with the stream.
    CountMismatch {
        /// Count claimed by the footer.
        footer: u64,
        /// Events actually present.
        events: usize,
    },
    /// An event's running digest does not extend the chain — the stream was
    /// edited or reordered.
    DigestMismatch {
        /// Position of the first bad event.
        position: u64,
    },
    /// The recording was made under a different drive mode than the replay
    /// is using (grant order is only deterministic per mode).
    ModeMismatch {
        /// Mode stamped in the recording header.
        recorded: DriveMode,
        /// Mode the replayer is driving with.
        driving: DriveMode,
    },
}

impl fmt::Display for RecordingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordingError::Io(e) => write!(f, "recording io error: {e}"),
            RecordingError::Corrupt { line, reason } => {
                write!(f, "corrupt recording at line {line}: {reason}")
            }
            RecordingError::Truncated { events } => write!(
                f,
                "truncated recording: no `end` footer after {events} events \
                 (torn write or partial copy)"
            ),
            RecordingError::Version(v) => write!(f, "unsupported recording banner {v:?}"),
            RecordingError::CountMismatch { footer, events } => write!(
                f,
                "corrupt recording: footer claims {footer} events but {events} are present"
            ),
            RecordingError::DigestMismatch { position } => write!(
                f,
                "corrupt recording: running digest broken at event {position} \
                 (stream edited or reordered)"
            ),
            RecordingError::ModeMismatch { recorded, driving } => write!(
                f,
                "replay drive-mode mismatch: recording was made in {recorded} mode \
                 but is being replayed in {driving} mode (grant order is only \
                 deterministic per drive mode)"
            ),
        }
    }
}

impl std::error::Error for RecordingError {}

/// Folds one event into the running digest chain.
pub fn fold_event(digest: u64, position: u64, thread: u32, kind: u8) -> u64 {
    let mut buf = [0u8; 21];
    buf[..8].copy_from_slice(&digest.to_le_bytes());
    buf[8..16].copy_from_slice(&position.to_le_bytes());
    buf[16..20].copy_from_slice(&thread.to_le_bytes());
    buf[20] = kind;
    fnv1a(&buf)
}

/// Seed of the digest chain (domain-separated from other FNV users).
pub fn digest_seed() -> u64 {
    fnv1a(b"gprs-recording-v1")
}

/// Streaming builder: the engines feed it one call per turn-consuming
/// event; [`Recorder::finish`] seals the footer.
#[derive(Debug)]
pub struct Recorder {
    header: RecordingHeader,
    events: Vec<RecordedEvent>,
    digest: u64,
}

impl Recorder {
    /// An empty recorder for the given run identity.
    pub fn new(header: RecordingHeader) -> Self {
        Recorder {
            header,
            events: Vec::new(),
            digest: digest_seed(),
        }
    }

    /// Records one turn-consuming event.
    pub fn record_event(&mut self, thread: u32, kind: u8) {
        let position = self.events.len() as u64;
        self.digest = fold_event(self.digest, position, thread, kind);
        self.events.push(RecordedEvent {
            thread,
            kind,
            digest: self.digest,
        });
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Re-stamps the drive mode (the builder cannot know how the run will
    /// be driven; the drive entry point stamps it).
    pub fn set_mode(&mut self, mode: DriveMode) {
        self.header.mode = mode;
    }

    /// Seals the recording with the run's final hash digests and outcome.
    pub fn finish(self, sched_hash: u64, retired_hash: u64, outcome: RecordedOutcome) -> Recording {
        Recording {
            header: self.header,
            events: self.events,
            sched_hash,
            retired_hash,
            outcome,
        }
    }
}

impl Recording {
    /// Serializes the recording as checksummed text lines.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 40);
        frame_line(&mut out, &format!("gprs-recording v{RECORDING_VERSION}"));
        let mut esc = String::new();
        escape(&self.header.workload, &mut esc);
        frame_line(&mut out, &format!("workload {esc}"));
        frame_line(&mut out, &format!("seed {}", self.header.seed));
        frame_line(&mut out, &format!("mode {}", self.header.mode));
        esc.clear();
        escape(&self.header.schedule, &mut esc);
        frame_line(&mut out, &format!("schedule {esc}"));
        frame_line(&mut out, &format!("workers {}", self.header.workers));
        if let Some(spec) = &self.header.spec {
            esc.clear();
            escape(spec, &mut esc);
            frame_line(&mut out, &format!("spec {esc}"));
        }
        if let Some(chaos) = &self.header.chaos {
            esc.clear();
            escape(chaos, &mut esc);
            frame_line(&mut out, &format!("chaos {esc}"));
        }
        for (pos, e) in self.events.iter().enumerate() {
            frame_line(
                &mut out,
                &format!("evt {pos} {} {} {:016x}", e.thread, e.kind, e.digest),
            );
        }
        let outcome = match &self.outcome {
            RecordedOutcome::Complete => "complete".to_string(),
            RecordedOutcome::Poisoned(msg) => {
                esc.clear();
                escape(msg, &mut esc);
                format!("poisoned {esc}")
            }
        };
        frame_line(
            &mut out,
            &format!(
                "end {} {:016x} {:016x} {outcome}",
                self.events.len(),
                self.sched_hash,
                self.retired_hash
            ),
        );
        out
    }

    /// Parses checksummed recording text, validating every line checksum,
    /// the digest chain, and the footer.
    ///
    /// # Errors
    /// A [`RecordingError`] naming the exact damage.
    pub fn parse(text: &str) -> std::result::Result<Recording, RecordingError> {
        let mut lines = text.lines().enumerate();
        let mut next_payload = || -> std::result::Result<Option<(usize, &str)>, RecordingError> {
            let Some((ix, raw)) = lines.next() else {
                return Ok(None);
            };
            let line = ix + 1;
            let payload = unframe_line(raw).map_err(|reason| RecordingError::Corrupt {
                line,
                reason: reason.into(),
            })?;
            Ok(Some((line, payload)))
        };

        let (line, banner) = next_payload()?.ok_or(RecordingError::Truncated { events: 0 })?;
        if banner != format!("gprs-recording v{RECORDING_VERSION}") {
            return Err(if banner.starts_with("gprs-recording") {
                RecordingError::Version(banner.into())
            } else {
                RecordingError::Corrupt {
                    line,
                    reason: format!("not a recording banner: {banner:?}"),
                }
            });
        }

        let mut header = RecordingHeader {
            workload: String::new(),
            seed: 0,
            mode: DriveMode::Pool,
            schedule: String::new(),
            workers: 0,
            spec: None,
            chaos: None,
        };
        let mut events: Vec<RecordedEvent> = Vec::new();
        let mut digest = digest_seed();
        let mut footer: Option<(u64, u64, u64, RecordedOutcome)> = None;

        while let Some((line, payload)) = next_payload()? {
            let corrupt = |reason: String| RecordingError::Corrupt { line, reason };
            let mut it = payload.splitn(2, ' ');
            let tag = it.next().unwrap_or_default();
            let rest = it.next().unwrap_or_default();
            match tag {
                "workload" => {
                    header.workload = unescape(rest)
                        .ok_or_else(|| corrupt("bad escaping in workload".into()))?;
                }
                "seed" => {
                    header.seed = rest
                        .parse()
                        .map_err(|_| corrupt(format!("bad seed {rest:?}")))?;
                }
                "mode" => {
                    header.mode = DriveMode::parse(rest)
                        .ok_or_else(|| corrupt(format!("unknown drive mode {rest:?}")))?;
                }
                "schedule" => {
                    header.schedule = unescape(rest)
                        .ok_or_else(|| corrupt("bad escaping in schedule".into()))?;
                }
                "workers" => {
                    header.workers = rest
                        .parse()
                        .map_err(|_| corrupt(format!("bad workers {rest:?}")))?;
                }
                "spec" => {
                    header.spec =
                        Some(unescape(rest).ok_or_else(|| corrupt("bad escaping in spec".into()))?);
                }
                "chaos" => {
                    header.chaos = Some(
                        unescape(rest).ok_or_else(|| corrupt("bad escaping in chaos".into()))?,
                    );
                }
                "evt" => {
                    let mut f = rest.split(' ');
                    let pos: u64 = f
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt("bad event position".into()))?;
                    let thread: u32 = f
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt("bad event thread".into()))?;
                    let kind: u8 = f
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt("bad event kind".into()))?;
                    let rec_digest = f
                        .next()
                        .and_then(|v| u64::from_str_radix(v, 16).ok())
                        .ok_or_else(|| corrupt("bad event digest".into()))?;
                    if pos != events.len() as u64 {
                        return Err(corrupt(format!(
                            "event position {pos} out of order (expected {})",
                            events.len()
                        )));
                    }
                    digest = fold_event(digest, pos, thread, kind);
                    if digest != rec_digest {
                        return Err(RecordingError::DigestMismatch { position: pos });
                    }
                    events.push(RecordedEvent {
                        thread,
                        kind,
                        digest,
                    });
                }
                "end" => {
                    let mut f = rest.splitn(4, ' ');
                    let count: u64 = f
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt("bad footer count".into()))?;
                    let sched = f
                        .next()
                        .and_then(|v| u64::from_str_radix(v, 16).ok())
                        .ok_or_else(|| corrupt("bad footer schedule hash".into()))?;
                    let retired = f
                        .next()
                        .and_then(|v| u64::from_str_radix(v, 16).ok())
                        .ok_or_else(|| corrupt("bad footer retired hash".into()))?;
                    let outcome = match f.next().unwrap_or_default() {
                        "complete" => RecordedOutcome::Complete,
                        other => match other.strip_prefix("poisoned ").or(match other {
                            "poisoned" => Some(""),
                            _ => None,
                        }) {
                            Some(msg) => RecordedOutcome::Poisoned(
                                unescape(msg)
                                    .ok_or_else(|| corrupt("bad escaping in outcome".into()))?,
                            ),
                            None => {
                                return Err(corrupt(format!("unknown outcome {other:?}")));
                            }
                        },
                    };
                    footer = Some((count, sched, retired, outcome));
                    break;
                }
                other => {
                    // Unknown record tags are an error, not skipped: a
                    // recording is an exact replay contract, and tolerating
                    // unknown lines would silently change what replays.
                    return Err(corrupt(format!("unknown record tag {other:?}")));
                }
            }
        }

        let Some((count, sched_hash, retired_hash, outcome)) = footer else {
            return Err(RecordingError::Truncated {
                events: events.len(),
            });
        };
        if count != events.len() as u64 {
            return Err(RecordingError::CountMismatch {
                footer: count,
                events: events.len(),
            });
        }
        Ok(Recording {
            header,
            events,
            sched_hash,
            retired_hash,
            outcome,
        })
    }

    /// Writes the recording to `path`.
    ///
    /// # Errors
    /// [`RecordingError::Io`].
    pub fn save(&self, path: &Path) -> std::result::Result<(), RecordingError> {
        std::fs::write(path, self.to_text())
            .map_err(|e| RecordingError::Io(format!("{}: {e}", path.display())))
    }

    /// Loads and validates a recording from `path`.
    ///
    /// # Errors
    /// A [`RecordingError`] naming the exact damage.
    pub fn load(path: &Path) -> std::result::Result<Recording, RecordingError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| RecordingError::Io(format!("{}: {e}", path.display())))?;
        Recording::parse(&text)
    }
}

/// Where two recordings first diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordingDiff {
    /// Bit-identical schedules (headers may still differ — compare
    /// [`Recording::header`] directly if that matters).
    Identical,
    /// The event streams diverge at this position (`None` = that recording
    /// ended before the position).
    Event {
        /// First divergent position.
        position: u64,
        /// Event in the first recording, if present.
        a: Option<RecordedEvent>,
        /// Event in the second recording, if present.
        b: Option<RecordedEvent>,
    },
    /// Event streams identical but a footer digest differs (same grants,
    /// different retirement interleaving — or an edited footer).
    Footer {
        /// Which digest differs (`"schedule-hash"` / `"retired-hash"`).
        what: &'static str,
        /// First recording's value.
        a: u64,
        /// Second recording's value.
        b: u64,
    },
}

impl fmt::Display for RecordingDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordingDiff::Identical => write!(f, "identical schedules"),
            RecordingDiff::Event { position, a, b } => {
                let show = |e: &Option<RecordedEvent>| match e {
                    Some(e) => format!(
                        "(thread {}, {})",
                        e.thread,
                        event_kind_name(e.kind)
                    ),
                    None => "<end of recording>".to_string(),
                };
                write!(
                    f,
                    "first divergence at event {position}: {} vs {}",
                    show(a),
                    show(b)
                )
            }
            RecordingDiff::Footer { what, a, b } => {
                write!(f, "schedules identical but {what} differs: {a:016x} vs {b:016x}")
            }
        }
    }
}

/// Compares two recordings' event streams and reports the first divergent
/// event (the `gprs-replay diff` primitive).
pub fn first_divergence(a: &Recording, b: &Recording) -> RecordingDiff {
    let n = a.events.len().max(b.events.len());
    for pos in 0..n {
        let ea = a.events.get(pos);
        let eb = b.events.get(pos);
        let same = match (ea, eb) {
            (Some(x), Some(y)) => x.thread == y.thread && x.kind == y.kind,
            _ => false,
        };
        if !same {
            return RecordingDiff::Event {
                position: pos as u64,
                a: ea.copied(),
                b: eb.copied(),
            };
        }
    }
    if a.sched_hash != b.sched_hash {
        return RecordingDiff::Footer {
            what: "schedule-hash",
            a: a.sched_hash,
            b: b.sched_hash,
        };
    }
    if a.retired_hash != b.retired_hash {
        return RecordingDiff::Footer {
            what: "retired-hash",
            a: a.retired_hash,
            b: b.retired_hash,
        };
    }
    RecordingDiff::Identical
}

/// An [`OrderingPolicy`] that replays a recorded event stream: the holder
/// is the thread of the next recorded event, [`OrderingPolicy::advance`]
/// moves to the following event, and wasted polling turns
/// ([`OrderingPolicy::pass`]) keep the cursor in place — under a faithful
/// replay the recorded holder's want always becomes grantable, so a
/// persistent poll is a divergence the engine poisons on.
///
/// Past the end of the tape the holder is `None`; the engine reports
/// exhaustion (expected for recordings of poisoned runs, a named
/// divergence otherwise).
#[derive(Debug)]
pub struct ReplaySchedule {
    events: Arc<Vec<RecordedEvent>>,
    cursor: usize,
    threads: Vec<ThreadId>,
}

impl ReplaySchedule {
    /// A replay policy over the given event stream.
    pub fn new(events: Arc<Vec<RecordedEvent>>) -> Self {
        ReplaySchedule {
            events,
            cursor: 0,
            threads: Vec::new(),
        }
    }

    /// Convenience constructor cloning a recording's events.
    pub fn from_recording(rec: &Recording) -> Self {
        Self::new(Arc::new(rec.events.clone()))
    }

    /// The replay cursor (events consumed so far).
    pub fn position(&self) -> usize {
        self.cursor
    }
}

impl OrderingPolicy for ReplaySchedule {
    fn register_thread(&mut self, thread: ThreadId, _group: GroupId, _weight: u32) -> Result<()> {
        if self.threads.contains(&thread) {
            return Err(GprsError::DuplicateThread(thread));
        }
        self.threads.push(thread);
        Ok(())
    }

    fn deregister_thread(&mut self, thread: ThreadId) -> Result<()> {
        let ix = self
            .threads
            .iter()
            .position(|&t| t == thread)
            .ok_or(GprsError::UnknownThread(thread))?;
        self.threads.remove(ix);
        Ok(())
    }

    fn holder(&self) -> Option<ThreadId> {
        self.events
            .get(self.cursor)
            .map(|e| ThreadId::new(e.thread))
    }

    fn advance(&mut self) {
        if self.cursor < self.events.len() {
            self.cursor += 1;
        }
    }

    fn pass(&mut self) {
        // A wasted polling turn is not a recorded event: hold the cursor so
        // the recorded holder is re-polled once the blocking condition
        // clears (live schedules rotate here; see the trait docs).
    }

    fn len(&self) -> usize {
        self.threads.len()
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

/// Refusal for a run armed to both record and replay: its footer digests
/// could never differ from the tape that drove it.
pub const RECORD_AND_REPLAY: &str = "cannot record and replay in the same run";

/// The verifying half of a replay, held by whichever engine follows the
/// tape: a cursor that checks every turn-consuming event the live run
/// performs against the recording, plus the run-level checks around it
/// (drive mode, tape exhaustion, final digests). Every check returns the
/// divergence message for the engine to fail with — never a panic.
#[derive(Debug)]
pub struct ReplayVerifier {
    rec: Arc<Recording>,
    verified: usize,
}

impl ReplayVerifier {
    /// A verifier at the start of `rec`.
    pub fn new(rec: Arc<Recording>) -> Self {
        ReplayVerifier { rec, verified: 0 }
    }

    /// Events verified so far (the live run's event position).
    pub fn verified(&self) -> usize {
        self.verified
    }

    /// The ordering policy that makes the token follow this tape.
    pub fn schedule(&self) -> ReplaySchedule {
        ReplaySchedule::from_recording(&self.rec)
    }

    /// A recording replayed under another drive mode would verify
    /// event-for-event yet reproduce none of the original context
    /// interleaving: refused before the first grant.
    pub fn check_mode(&self, mode: DriveMode) -> Option<String> {
        (self.rec.header.mode != mode).then(|| {
            format!(
                "replay mode mismatch: recording was captured in {} mode \
                 but this run drives in {mode} mode",
                self.rec.header.mode
            )
        })
    }

    /// Checks the live run's next event against the tape and advances past
    /// it on a match.
    pub fn check_event(&mut self, thread: u32, kind: u8) -> Option<String> {
        let pos = self.verified;
        match self.rec.events.get(pos) {
            Some(e) if e.thread == thread && e.kind == kind => {
                self.verified += 1;
                None
            }
            Some(e) => Some(format!(
                "replay divergence at event {pos}: recording expects \
                 (thread {}, {}) but the live run performed (thread {thread}, {})",
                e.thread,
                event_kind_name(e.kind),
                event_kind_name(kind),
            )),
            None => Some(format!(
                "replay divergence: live run performed event {pos} \
                 (thread {thread}, {}) past the end of the {}-event recording",
                event_kind_name(kind),
                self.rec.events.len(),
            )),
        }
    }

    /// The terminal message when the tape has run out while `live` threads
    /// remain: expected (and informative) for recordings of failed runs, a
    /// divergence otherwise. `None` while events remain.
    pub fn exhausted(&self, live: usize) -> Option<String> {
        let n = self.verified;
        if n < self.rec.events.len() {
            return None;
        }
        Some(match &self.rec.outcome {
            RecordedOutcome::Poisoned(orig) => format!(
                "replay reached the end of a failed recording after {n} \
                 events (original failure: {orig})"
            ),
            RecordedOutcome::Complete => format!(
                "replay divergence: recording ended after {n} events but the \
                 live run still has {live} live threads"
            ),
        })
    }

    /// Self-verification of a replay that ran to completion: it must have
    /// consumed the whole tape and reproduced both footer digests.
    pub fn check_final(&self, sched_hash: u64, retired_hash: u64) -> Option<String> {
        let rec = &self.rec;
        if self.verified != rec.events.len() {
            return Some(format!(
                "replay divergence: live run finished after {} events but \
                 the recording has {}",
                self.verified,
                rec.events.len()
            ));
        }
        for (which, live, recorded) in [
            ("schedule", sched_hash, rec.sched_hash),
            ("retired", retired_hash, rec.retired_hash),
        ] {
            if live != recorded {
                return Some(format!(
                    "replay self-verification failed: {which} hash {live:016x} \
                     != recorded {recorded:016x}"
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> RecordingHeader {
        RecordingHeader {
            workload: "beacon".into(),
            seed: 7,
            mode: DriveMode::Session,
            schedule: "B".into(),
            workers: 4,
            spec: Some("workload=beacon seed=7".into()),
            chaos: Some("grant 24 kind=thermal scope=global victim=holder burst=1".into()),
        }
    }

    fn sample() -> Recording {
        let mut r = Recorder::new(sample_header());
        r.record_event(0, 0);
        r.record_event(1, 0);
        r.record_event(0, 5);
        r.record_event(1, EVT_ARRIVE);
        r.record_event(0, EVT_EXIT);
        r.finish(0xabc, 0xdef, RecordedOutcome::Complete)
    }

    #[test]
    fn roundtrips_through_text() {
        let rec = sample();
        let parsed = Recording::parse(&rec.to_text()).expect("roundtrip");
        assert_eq!(parsed, rec);
        let mut poisoned = sample();
        poisoned.outcome = RecordedOutcome::Poisoned("deadline: 2 quanta\nover".into());
        let parsed = Recording::parse(&poisoned.to_text()).expect("poisoned roundtrip");
        assert_eq!(parsed, poisoned);
    }

    #[test]
    fn truncation_and_corruption_are_named() {
        let rec = sample();
        let text = rec.to_text();
        // Drop the footer: truncated.
        let torn: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            Recording::parse(&torn),
            Err(RecordingError::Truncated { events: 5 })
        );
        // Flip a byte inside an event line: checksum catches it.
        let evil = text.replacen("evt 2 0 5", "evt 2 1 5", 1);
        assert!(matches!(
            Recording::parse(&evil),
            Err(RecordingError::Corrupt { .. })
        ));
        // Empty file: truncated at zero events.
        assert_eq!(
            Recording::parse(""),
            Err(RecordingError::Truncated { events: 0 })
        );
    }

    #[test]
    fn digest_chain_rejects_reordering() {
        let rec = sample();
        let mut swapped = rec.clone();
        swapped.events.swap(1, 2);
        // Re-serialize with the (now wrong) stored digests.
        assert!(matches!(
            Recording::parse(&swapped.to_text()),
            Err(RecordingError::DigestMismatch { position: 1 })
        ));
    }

    #[test]
    fn diff_finds_first_divergence() {
        let a = sample();
        assert_eq!(first_divergence(&a, &a), RecordingDiff::Identical);
        let mut r = Recorder::new(sample_header());
        r.record_event(0, 0);
        r.record_event(1, 0);
        r.record_event(1, 5); // diverges here (thread 1, not 0)
        let b = r.finish(0xabc, 0xdef, RecordedOutcome::Complete);
        match first_divergence(&a, &b) {
            RecordingDiff::Event { position: 2, a: Some(ea), b: Some(eb) } => {
                assert_eq!(ea.thread, 0);
                assert_eq!(eb.thread, 1);
            }
            other => panic!("wrong diff: {other:?}"),
        }
        // Prefix relationship: divergence at the shorter stream's end.
        let mut c = sample();
        c.events.truncate(3);
        match first_divergence(&a, &c) {
            RecordingDiff::Event { position: 3, b: None, .. } => {}
            other => panic!("wrong diff: {other:?}"),
        }
    }

    #[test]
    fn replay_schedule_follows_the_tape() {
        let rec = sample();
        let mut p = ReplaySchedule::from_recording(&rec);
        p.register_thread(ThreadId::new(0), GroupId::new(0), 1).unwrap();
        p.register_thread(ThreadId::new(1), GroupId::new(0), 1).unwrap();
        assert_eq!(p.holder(), Some(ThreadId::new(0)));
        p.advance();
        assert_eq!(p.holder(), Some(ThreadId::new(1)));
        // A wasted poll must not move the cursor.
        p.pass();
        assert_eq!(p.holder(), Some(ThreadId::new(1)));
        p.advance();
        p.advance();
        p.advance();
        p.advance();
        assert_eq!(p.holder(), None, "tape exhausted");
        assert_eq!(p.position(), 5);
    }
}
