//! Pluggable durable persistence for the retirement stream — the storage
//! layer that lets a *restarted process* recover.
//!
//! Everything else in this crate assumes the process survives the
//! exception: the WAL ([`crate::wal`]) and history buffer
//! ([`crate::history`]) live in memory and die with it. This module adds a
//! [`PersistBackend`] trait the run ledger ([`crate::ledger`]) logs the
//! retirement order through, with two implementations:
//!
//! * [`MemoryBackend`] — an in-process log with identical record
//!   semantics, used by unit tests and in-process crash *simulation*
//!   (drop the engine, keep the backend, resume).
//! * [`FileBackend`] — checksummed, segmented, fsync'd log files plus a
//!   content-addressed chunk store for checkpoint metadata, so a `kill
//!   -9`'d run can restart in a fresh process.
//!
//! # Design: command logging, not state serialization
//!
//! Sub-thread programs are arbitrary closures over arbitrary state —
//! there is nothing serializable to snapshot. Following the *command
//! logging* end of the logging spectrum ("Fast Failure Recovery for
//! Main-Memory DBMSs on Multicores"), the durable log records the job's
//! **spec and the order it retired in**, not the program state. Recovery
//! is deterministic re-execution of the spec, *verified* step-by-step
//! against the durable retire prefix: the restarted run must retire the
//! same `(thread, kind)` sequence with the same running order-hash
//! digests, or it is poisoned instead of silently diverging. GPRS's
//! deterministic total order is what makes this sound — the same spec
//! replays to the same retirement sequence on any worker count (the
//! committed determinism goldens pin exactly this).
//!
//! # What is written is what is read
//!
//! | record | written | read by |
//! |---|---|---|
//! | `spec` | once per epoch, synced | `GprsBuilder::resume`, `gprs-serve --durable-resume`, the pool's job adoption: which job to rebuild |
//! | `retire` | one per retirement | [`RunLedger::arm_resume`](crate::ledger::RunLedger::arm_resume): the `(thread, kind, digest)` prefix the re-execution must reproduce |
//! | `ckpt` | every 64 retirements, then one `sync` | the loader's merkle check ([`DurableImage::checkpoint`]); its `sync` is the group commit of the retires before it |
//!
//! The in-memory WAL is *not* mirrored: a restarted process rebuilds it by
//! re-executing, so nothing would ever load such records. Commits before
//! PR 19 did mirror it (`append`, `seal`, `undo`, `prune` lines); the
//! loader still accepts those four tags — an intact line is skipped, a
//! damaged one is damage like any other — so old directories load to the
//! same spec, retire prefix and checkpoint.
//!
//! # Segment format
//!
//! A segment is a text file of records, one per line:
//!
//! ```text
//! <fnv1a-of-payload:016x> <payload>
//! ```
//!
//! A torn tail write fails the line checksum. Damage ends the **epoch it
//! is in**: the loader drops everything from the damaged line up to the
//! next `spec` record, which opens a new epoch (and supersedes the old one
//! anyway) — so the run that resumed after a torn tail keeps its own
//! durable progress, and damage with no later `spec` truncates to the
//! newest consistent prefix, the "newest consistent prefix of the ROL" the
//! restart resumes from. Segments seal (fsync + close) every
//! [`FileBackend::with_segment_cap`] records so corruption stays bounded
//! per file.
//!
//! # Checkpoints: a content-addressed merkle store
//!
//! Checkpoint metadata (retired count, combined retired-order digest,
//! per-thread retirement splits) is chunked into a content-addressed
//! store keyed by chunk hash; the log record carries the leaf hashes and
//! their merkle root. The loader refetches the chunks by hash, verifies
//! each leaf and the recombined root, and only then trusts the
//! checkpoint — an unverifiable checkpoint is *dropped* (the log records
//! still replay) rather than trusted. Recovery itself never consults the
//! checkpoint (it re-verifies from retirement 0); the store stays because
//! the benchmark's backend decorator implements and reads it.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the integrity hash for record lines and
/// content-addressed chunks (same family as the telemetry order hashes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv1a_pair(a: u64, b: u64) -> u64 {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&a.to_le_bytes());
    buf[8..].copy_from_slice(&b.to_le_bytes());
    fnv1a(&buf)
}

/// Merkle root over an ordered list of leaf hashes: pairwise FNV
/// combination per level, odd leaf promoted unchanged.
pub fn merkle_root(leaves: &[u64]) -> u64 {
    if leaves.is_empty() {
        return fnv1a(b"gprs-merkle-empty");
    }
    let mut level = leaves.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            next.push(if pair.len() == 2 {
                fnv1a_pair(pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        level = next;
    }
    level[0]
}

/// Percent-escapes the three bytes that would break a line-oriented
/// encoding: `%`, `\n`, `\r`. Shared with the recording format.
pub(crate) fn escape(text: &str, out: &mut String) {
    for ch in text.chars() {
        match ch {
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
}

pub(crate) fn unescape(text: &str) -> Option<String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next()?;
        let lo = chars.next()?;
        let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16).ok()?;
        out.push(byte as char);
    }
    Some(out)
}

/// Frames `payload` as one checksummed line, `<fnv1a:016x> <payload>\n` —
/// the framing of durable segments and of recordings.
pub(crate) fn frame_line(out: &mut String, payload: &str) {
    let _ = writeln!(out, "{:016x} {payload}", fnv1a(payload.as_bytes()));
}

/// The payload of a framed line (no trailing newline), or what is wrong
/// with the frame.
pub(crate) fn unframe_line(line: &str) -> Result<&str, &'static str> {
    let (crc, payload) = line.split_once(' ').ok_or("missing checksum field")?;
    let crc = u64::from_str_radix(crc, 16).map_err(|_| "unparseable checksum")?;
    if crc != fnv1a(payload.as_bytes()) {
        return Err("line checksum mismatch (torn or edited line)");
    }
    Ok(payload)
}

/// One durable log record: exactly what restart-as-recovery reads back
/// (see the module docs' table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableRecord {
    /// The job spec this epoch re-executes from. Doubles as the epoch
    /// marker: records after the *last* `Spec` form the current epoch
    /// (a resumed run re-records its spec and re-logs from scratch).
    Spec {
        /// Opaque spec text (the serve submit line, a workload name —
        /// whatever the embedder needs to rebuild the job).
        text: String,
    },
    /// One sub-thread retired from the ROL head — the durable unit of
    /// the precise prefix a restart verifies against.
    Retire {
        /// Retired sub-thread id (changes across re-execution; recorded
        /// for forensics, *not* part of the verified identity).
        subthread: u64,
        /// Logical thread that retired (stable across re-execution).
        thread: u32,
        /// Sub-thread kind tag (stable across re-execution).
        kind: u8,
        /// Total sub-threads retired after this one (1-based prefix
        /// length).
        retired: u64,
        /// Running combined retired-order digest after this retire.
        digest: u64,
    },
    /// A checkpoint anchor: the merkle root of the chunked checkpoint
    /// metadata blob in the content-addressed store.
    Checkpoint {
        /// Merkle root over `chunks`.
        root: u64,
        /// Retired-prefix length at the checkpoint.
        retired: u64,
        /// Combined retired-order digest at the checkpoint.
        digest: u64,
        /// Content hashes of the blob's chunks, in order.
        chunks: Vec<u64>,
    },
}

impl DurableRecord {
    fn encode_payload(&self, out: &mut String) {
        match self {
            DurableRecord::Spec { text } => {
                out.push_str("spec ");
                escape(text, out);
            }
            DurableRecord::Retire {
                subthread,
                thread,
                kind,
                retired,
                digest,
            } => {
                let _ = write!(out, "retire {subthread} {thread} {kind} {retired} {digest:016x}");
            }
            DurableRecord::Checkpoint {
                root,
                retired,
                digest,
                chunks,
            } => {
                let _ = write!(out, "ckpt {root:016x} {retired} {digest:016x} {}", chunks.len());
                for c in chunks {
                    let _ = write!(out, " {c:016x}");
                }
            }
        }
    }

    /// Encodes the record as one checksummed line (with trailing `\n`).
    pub fn encode_line(&self) -> String {
        let mut payload = String::with_capacity(64);
        self.encode_payload(&mut payload);
        let mut line = String::with_capacity(payload.len() + 18);
        frame_line(&mut line, &payload);
        line
    }

    /// Decodes one line (without trailing newline). `None` on a checksum
    /// mismatch or any structural damage — the loader ends the epoch
    /// there. `Some(None)` for an intact line carrying one of the legacy
    /// tags (`append`, `seal`, `undo`, `prune`): accepted, nothing to load.
    pub fn decode_line(line: &str) -> Option<Option<DurableRecord>> {
        let payload = unframe_line(line).ok()?;
        let (tag, rest) = payload.split_once(' ').unwrap_or((payload, ""));
        let rec = match tag {
            "spec" => DurableRecord::Spec {
                text: unescape(rest)?,
            },
            "retire" => {
                let mut it = rest.split(' ');
                let subthread = it.next()?.parse().ok()?;
                let thread = it.next()?.parse().ok()?;
                let kind = it.next()?.parse().ok()?;
                let retired = it.next()?.parse().ok()?;
                let digest = u64::from_str_radix(it.next()?, 16).ok()?;
                DurableRecord::Retire {
                    subthread,
                    thread,
                    kind,
                    retired,
                    digest,
                }
            }
            "ckpt" => {
                let mut it = rest.split(' ');
                let root = u64::from_str_radix(it.next()?, 16).ok()?;
                let retired = it.next()?.parse().ok()?;
                let digest = u64::from_str_radix(it.next()?, 16).ok()?;
                let n: usize = it.next()?.parse().ok()?;
                let mut chunks = Vec::with_capacity(n);
                for _ in 0..n {
                    chunks.push(u64::from_str_radix(it.next()?, 16).ok()?);
                }
                if it.next().is_some() {
                    return None;
                }
                DurableRecord::Checkpoint {
                    root,
                    retired,
                    digest,
                    chunks,
                }
            }
            // The WAL-mirror lines older commits wrote and nothing ever
            // loaded: no record is built for them any more.
            "append" | "seal" | "undo" | "prune" => return Some(None),
            _ => return None,
        };
        Some(Some(rec))
    }
}

/// Checkpoint metadata blob: what the merkle store actually holds.
/// Text-encoded (`retired`/`digest`/per-`thread` lines) so chunks stay
/// inspectable on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Retired-prefix length at the checkpoint.
    pub retired: u64,
    /// Combined retired-order digest at the checkpoint.
    pub digest: u64,
    /// Per-logical-thread `(thread, retired count)` splits.
    pub threads: Vec<(u32, u64)>,
}

impl CheckpointMeta {
    /// Serializes the blob for chunking into the content-addressed store.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        let _ = writeln!(out, "retired {}", self.retired);
        let _ = writeln!(out, "digest {:016x}", self.digest);
        for (t, n) in &self.threads {
            let _ = writeln!(out, "thread {t} {n}");
        }
        out.into_bytes()
    }

    /// Decodes a reassembled blob; `None` on structural damage.
    pub fn decode(bytes: &[u8]) -> Option<CheckpointMeta> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut retired = None;
        let mut digest = None;
        let mut threads = Vec::new();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ')?;
            match tag {
                "retired" => retired = Some(rest.parse().ok()?),
                "digest" => digest = Some(u64::from_str_radix(rest, 16).ok()?),
                "thread" => {
                    let (t, n) = rest.split_once(' ')?;
                    threads.push((t.parse().ok()?, n.parse().ok()?));
                }
                _ => return None,
            }
        }
        Some(CheckpointMeta {
            retired: retired?,
            digest: digest?,
            threads,
        })
    }
}

/// Chunk size for checkpoint blobs in the content-addressed store.
pub const CHUNK_SIZE: usize = 1024;

/// A persistence failure. Backends surface these instead of panicking so
/// the engine can poison the run precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An I/O operation failed (message includes the path and cause).
    Io(String),
    /// A stored chunk's content no longer matches its hash.
    ChunkCorrupt(u64),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "persist I/O error: {msg}"),
            PersistError::ChunkCorrupt(h) => {
                write!(f, "content-addressed chunk {h:016x} fails its hash")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Point-in-time operational counters of a backend, mirrored into
/// telemetry (`wal_segments_sealed`, `fsyncs`) at report time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Records written this process lifetime.
    pub records: u64,
    /// Segments sealed (fsync'd and closed).
    pub segments_sealed: u64,
    /// Durability barriers (fsync or in-memory equivalent) issued.
    pub fsyncs: u64,
    /// Chunks newly stored in the content-addressed store.
    pub chunks_stored: u64,
}

/// One retire record reconstructed from the durable log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetireRec {
    /// Sub-thread id as retired in the *previous* process (forensic).
    pub subthread: u64,
    /// Logical thread (verified against the resumed run).
    pub thread: u32,
    /// Sub-thread kind tag (verified against the resumed run).
    pub kind: u8,
    /// 1-based prefix length after this retire.
    pub retired: u64,
    /// Running combined digest after this retire.
    pub digest: u64,
}

/// The newest consistent state reconstructed by a backend's loader: the
/// verified prefix a restarted run resumes (and re-verifies) against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableImage {
    /// The current epoch's job spec text (records after the last
    /// [`DurableRecord::Spec`]).
    pub spec: Option<String>,
    /// The durable retire prefix, in retirement order.
    pub retires: Vec<RetireRec>,
    /// The newest checkpoint whose merkle root and chunks verified.
    pub checkpoint: Option<CheckpointMeta>,
    /// Valid records loaded in the current epoch.
    pub prefix_records: u64,
    /// Whether the loader met damage (a torn tail, a flipped bit) and
    /// dropped the rest of the epoch it was in.
    pub truncated: bool,
    /// Checkpoint records whose merkle verification failed (dropped).
    pub dropped_checkpoints: u64,
}

impl DurableImage {
    /// Folds a validated record stream into an image. `fetch` resolves a
    /// content hash to its chunk bytes (returning `None` for a missing
    /// or corrupt chunk, which drops the checkpoint).
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = &'a DurableRecord>,
        fetch: &dyn Fn(u64) -> Option<Vec<u8>>,
    ) -> DurableImage {
        let mut img = DurableImage::default();
        for rec in records {
            match rec {
                DurableRecord::Spec { text } => {
                    // New epoch: the resumed run re-logs from scratch.
                    img = DurableImage {
                        spec: Some(text.clone()),
                        ..DurableImage::default()
                    };
                }
                DurableRecord::Retire {
                    subthread,
                    thread,
                    kind,
                    retired,
                    digest,
                } => img.retires.push(RetireRec {
                    subthread: *subthread,
                    thread: *thread,
                    kind: *kind,
                    retired: *retired,
                    digest: *digest,
                }),
                DurableRecord::Checkpoint {
                    root,
                    retired,
                    digest,
                    chunks,
                } => {
                    let verified = merkle_root(chunks) == *root
                        && chunks.iter().all(|&h| {
                            fetch(h).is_some_and(|bytes| fnv1a(&bytes) == h)
                        });
                    let meta = verified
                        .then(|| {
                            let mut blob = Vec::new();
                            for &h in chunks {
                                blob.extend_from_slice(&fetch(h)?);
                            }
                            CheckpointMeta::decode(&blob)
                        })
                        .flatten()
                        .filter(|m| m.retired == *retired && m.digest == *digest);
                    match meta {
                        Some(m) => img.checkpoint = Some(m),
                        None => img.dropped_checkpoints += 1,
                    }
                }
            }
            img.prefix_records += 1;
        }
        img
    }

    /// The durable retire-prefix length.
    pub fn retired_len(&self) -> u64 {
        self.retires.len() as u64
    }
}

/// The pluggable durable-persistence backend. All methods take `&self`:
/// the engine calls them under its own lock, backends synchronize
/// internally.
pub trait PersistBackend: Send + Sync + Debug {
    /// Appends one record to the durable log.
    fn record(&self, rec: &DurableRecord) -> Result<(), PersistError>;
    /// Stores a chunk in the content-addressed store, returning its
    /// content hash (idempotent: an existing chunk is not rewritten).
    fn put_chunk(&self, bytes: &[u8]) -> Result<u64, PersistError>;
    /// Retrieves a chunk by content hash (`None` if missing/corrupt).
    fn get_chunk(&self, hash: u64) -> Option<Vec<u8>>;
    /// Issues a durability barrier covering all prior records.
    fn sync(&self) -> Result<(), PersistError>;
    /// Operational counters.
    fn stats(&self) -> PersistStats;
    /// Scans the durable state, validates checksums and merkle roots,
    /// and reconstructs the newest consistent image.
    fn load(&self) -> Result<DurableImage, PersistError>;
}

/// In-memory [`PersistBackend`]: identical record semantics with no
/// I/O. Survives an engine drop (in-process crash simulation) but not
/// the process.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    state: Mutex<MemState>,
    fsyncs: AtomicU64,
    records: AtomicU64,
    chunks_stored: AtomicU64,
}

#[derive(Debug, Default)]
struct MemState {
    records: Vec<DurableRecord>,
    chunks: BTreeMap<u64, Vec<u8>>,
}

impl MemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the newest `n` records — simulates a crash that lost an
    /// unsynced tail (for tests).
    pub fn truncate_tail_for_testing(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        let keep = st.records.len().saturating_sub(n);
        st.records.truncate(keep);
    }

    /// Number of retained records (for tests).
    pub fn record_count(&self) -> usize {
        self.state.lock().unwrap().records.len()
    }
}

impl PersistBackend for MemoryBackend {
    fn record(&self, rec: &DurableRecord) -> Result<(), PersistError> {
        self.state.lock().unwrap().records.push(rec.clone());
        self.records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn put_chunk(&self, bytes: &[u8]) -> Result<u64, PersistError> {
        let hash = fnv1a(bytes);
        let mut st = self.state.lock().unwrap();
        if st.chunks.insert(hash, bytes.to_vec()).is_none() {
            self.chunks_stored.fetch_add(1, Ordering::Relaxed);
        }
        Ok(hash)
    }

    fn get_chunk(&self, hash: u64) -> Option<Vec<u8>> {
        self.state.lock().unwrap().chunks.get(&hash).cloned()
    }

    fn sync(&self) -> Result<(), PersistError> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> PersistStats {
        PersistStats {
            records: self.records.load(Ordering::Relaxed),
            segments_sealed: 0,
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            chunks_stored: self.chunks_stored.load(Ordering::Relaxed),
        }
    }

    fn load(&self) -> Result<DurableImage, PersistError> {
        let st = self.state.lock().unwrap();
        let fetch = |h: u64| st.chunks.get(&h).cloned();
        Ok(DurableImage::from_records(st.records.iter(), &fetch))
    }
}

/// File-based [`PersistBackend`]: `segments/seg-NNNNNNNN.log` record
/// segments plus `cas/<hash:016x>.chunk` content-addressed chunks under
/// one directory.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    seg_cap: u64,
    state: Mutex<FileState>,
    sealed: AtomicU64,
    fsyncs: AtomicU64,
    records: AtomicU64,
    chunks_stored: AtomicU64,
}

#[derive(Debug)]
struct FileState {
    file: Option<fs::File>,
    seg_ix: u64,
    in_seg: u64,
}

/// Default records per segment before a seal (fsync + close).
pub const DEFAULT_SEGMENT_CAP: u64 = 4096;

impl FileBackend {
    /// Opens (creating if needed) a durable directory. Existing segments
    /// are preserved — new records go to a fresh segment after them, so
    /// a resumed run's new epoch appends rather than overwrites.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileBackend, PersistError> {
        let dir = dir.into();
        let io = |e: std::io::Error, what: &str| {
            PersistError::Io(format!("{what} ({}): {e}", dir.display()))
        };
        fs::create_dir_all(dir.join("segments")).map_err(|e| io(e, "create segments dir"))?;
        fs::create_dir_all(dir.join("cas")).map_err(|e| io(e, "create cas dir"))?;
        let mut max_seg = None;
        for entry in fs::read_dir(dir.join("segments")).map_err(|e| io(e, "scan segments"))? {
            let entry = entry.map_err(|e| io(e, "scan segments"))?;
            if let Some(ix) = segment_index(&entry.file_name().to_string_lossy()) {
                max_seg = Some(max_seg.map_or(ix, |m: u64| m.max(ix)));
            }
        }
        Ok(FileBackend {
            dir,
            seg_cap: DEFAULT_SEGMENT_CAP,
            state: Mutex::new(FileState {
                file: None,
                seg_ix: max_seg.map_or(0, |m| m + 1),
                in_seg: 0,
            }),
            sealed: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            records: AtomicU64::new(0),
            chunks_stored: AtomicU64::new(0),
        })
    }

    /// Sets the records-per-segment seal threshold.
    pub fn with_segment_cap(mut self, cap: u64) -> FileBackend {
        self.seg_cap = cap.max(1);
        self
    }

    /// The backend's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, ix: u64) -> PathBuf {
        self.dir.join("segments").join(format!("seg-{ix:08}.log"))
    }

    fn chunk_path(&self, hash: u64) -> PathBuf {
        self.dir.join("cas").join(format!("{hash:016x}.chunk"))
    }

    fn seal_segment(&self, st: &mut FileState) -> Result<(), PersistError> {
        if let Some(file) = st.file.take() {
            file.sync_all()
                .map_err(|e| PersistError::Io(format!("seal fsync: {e}")))?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.sealed.fetch_add(1, Ordering::Relaxed);
            st.seg_ix += 1;
            st.in_seg = 0;
        }
        Ok(())
    }
}

fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok()
}

impl PersistBackend for FileBackend {
    fn record(&self, rec: &DurableRecord) -> Result<(), PersistError> {
        let line = rec.encode_line();
        let mut st = self.state.lock().unwrap();
        if st.file.is_none() {
            let path = self.segment_path(st.seg_ix);
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| PersistError::Io(format!("open {}: {e}", path.display())))?;
            st.file = Some(file);
        }
        // Write-through (no buffered writer): a killed process must leave
        // at most one torn line, never a silently dropped buffer.
        st.file
            .as_mut()
            .expect("opened above")
            .write_all(line.as_bytes())
            .map_err(|e| PersistError::Io(format!("append record: {e}")))?;
        st.in_seg += 1;
        self.records.fetch_add(1, Ordering::Relaxed);
        if st.in_seg >= self.seg_cap {
            self.seal_segment(&mut st)?;
        }
        Ok(())
    }

    fn put_chunk(&self, bytes: &[u8]) -> Result<u64, PersistError> {
        let hash = fnv1a(bytes);
        let path = self.chunk_path(hash);
        if path.exists() {
            return Ok(hash); // content-addressed: existing chunk is identical
        }
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, bytes)
            .map_err(|e| PersistError::Io(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, &path)
            .map_err(|e| PersistError::Io(format!("publish {}: {e}", path.display())))?;
        self.chunks_stored.fetch_add(1, Ordering::Relaxed);
        Ok(hash)
    }

    fn get_chunk(&self, hash: u64) -> Option<Vec<u8>> {
        let bytes = fs::read(self.chunk_path(hash)).ok()?;
        (fnv1a(&bytes) == hash).then_some(bytes)
    }

    fn sync(&self) -> Result<(), PersistError> {
        let st = self.state.lock().unwrap();
        if let Some(file) = st.file.as_ref() {
            file.sync_all()
                .map_err(|e| PersistError::Io(format!("fsync: {e}")))?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn stats(&self) -> PersistStats {
        PersistStats {
            records: self.records.load(Ordering::Relaxed),
            segments_sealed: self.sealed.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            chunks_stored: self.chunks_stored.load(Ordering::Relaxed),
        }
    }

    fn load(&self) -> Result<DurableImage, PersistError> {
        let seg_dir = self.dir.join("segments");
        let mut names = Vec::new();
        for entry in fs::read_dir(&seg_dir)
            .map_err(|e| PersistError::Io(format!("scan {}: {e}", seg_dir.display())))?
        {
            let entry = entry.map_err(|e| PersistError::Io(format!("scan segments: {e}")))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if segment_index(&name).is_some() {
                names.push(name);
            }
        }
        names.sort();
        let mut records = Vec::new();
        let mut truncated = false;
        // Inside a damaged epoch: everything from the damaged line to the
        // next `Spec` is discarded, across segments. A later `Spec` is a
        // resumed run's own epoch and loads; with none, what is left is
        // the newest consistent prefix.
        let mut damaged = false;
        for name in &names {
            let path = seg_dir.join(name);
            let bytes = fs::read(&path)
                .map_err(|e| PersistError::Io(format!("read {}: {e}", path.display())))?;
            // A torn tail may not even be UTF-8; lossy conversion feeds
            // the per-line checksum, which rejects the damage.
            let text = String::from_utf8_lossy(&bytes);
            for line in text.split('\n').filter(|l| !l.is_empty()) {
                match DurableRecord::decode_line(line) {
                    None => (truncated, damaged) = (true, true),
                    Some(Some(spec @ DurableRecord::Spec { .. })) => {
                        damaged = false;
                        records.push(spec);
                    }
                    Some(rec) if !damaged => records.extend(rec),
                    Some(_) => {}
                }
            }
        }
        let fetch = |h: u64| self.get_chunk(h);
        let mut img = DurableImage::from_records(records.iter(), &fetch);
        img.truncated = truncated;
        Ok(img)
    }
}

/// Flips one byte near the end of the newest non-empty segment —
/// deliberate tail corruption for crash-recovery tests. Returns `false`
/// when there is nothing to corrupt.
pub fn corrupt_tail_for_testing(dir: &Path) -> std::io::Result<bool> {
    let seg_dir = dir.join("segments");
    let mut names: Vec<_> = fs::read_dir(&seg_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| segment_index(n).is_some())
        .collect();
    names.sort();
    for name in names.iter().rev() {
        let path = seg_dir.join(name);
        let mut bytes = fs::read(&path)?;
        if bytes.len() < 2 {
            continue;
        }
        let ix = bytes.len() - 2; // keep the trailing newline intact
        bytes[ix] ^= 0x55;
        fs::write(&path, bytes)?;
        return Ok(true);
    }
    Ok(false)
}

/// Creates (and returns) a unique scratch directory under the system
/// temp dir — shared helper for the durability tests across the
/// workspace (no tempfile dependency in the vendored build).
pub fn unique_temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "gprs-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retire(n: u64) -> DurableRecord {
        DurableRecord::Retire {
            subthread: 10 + n,
            thread: (n % 3) as u32,
            kind: 1,
            retired: n,
            digest: 0x1234 * n,
        }
    }

    fn sample_records() -> Vec<DurableRecord> {
        vec![
            DurableRecord::Spec {
                text: "submit fetchadd 7 0 0\nwith %25 tricks\r".into(),
            },
            retire(1),
            retire(2),
            DurableRecord::Checkpoint {
                root: merkle_root(&[0xaa, 0xbb]),
                retired: 2,
                digest: 0x2468,
                chunks: vec![0xaa, 0xbb],
            },
            retire(3),
            retire(4),
            retire(5),
        ]
    }

    #[test]
    fn record_lines_roundtrip() {
        for rec in sample_records() {
            let line = rec.encode_line();
            let decoded = DurableRecord::decode_line(line.trim_end_matches('\n'));
            assert_eq!(decoded, Some(Some(rec)));
        }
    }

    #[test]
    fn damaged_lines_are_rejected() {
        let line = sample_records()[1].encode_line();
        let line = line.trim_end_matches('\n');
        let mut flipped = line.to_string().into_bytes();
        let ix = flipped.len() - 1;
        flipped[ix] ^= 0x20;
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(DurableRecord::decode_line(&flipped).is_none());
        assert!(DurableRecord::decode_line("").is_none());
        assert!(DurableRecord::decode_line("zzzz nonsense").is_none());
        let mut unknown = String::new();
        frame_line(&mut unknown, "fsck 1 2");
        assert!(DurableRecord::decode_line(unknown.trim_end()).is_none(), "intact, unknown tag");
    }

    #[test]
    fn merkle_root_is_order_sensitive() {
        let a = merkle_root(&[1, 2, 3]);
        let b = merkle_root(&[3, 2, 1]);
        assert_ne!(a, b);
        assert_eq!(merkle_root(&[7]), 7, "single leaf is its own root");
        assert_ne!(merkle_root(&[]), merkle_root(&[0]));
    }

    #[test]
    fn checkpoint_meta_roundtrips() {
        let meta = CheckpointMeta {
            retired: 42,
            digest: 0xfeed_f00d,
            threads: vec![(0, 20), (1, 22)],
        };
        assert_eq!(CheckpointMeta::decode(&meta.encode()), Some(meta));
        assert_eq!(CheckpointMeta::decode(b"garbage"), None);
    }

    fn store_checkpoint(
        backend: &dyn PersistBackend,
        meta: &CheckpointMeta,
    ) -> DurableRecord {
        let blob = meta.encode();
        let chunks: Vec<u64> = blob
            .chunks(CHUNK_SIZE)
            .map(|c| backend.put_chunk(c).unwrap())
            .collect();
        DurableRecord::Checkpoint {
            root: merkle_root(&chunks),
            retired: meta.retired,
            digest: meta.digest,
            chunks,
        }
    }

    #[test]
    fn memory_backend_roundtrips_an_epoch() {
        let be = MemoryBackend::new();
        be.record(&DurableRecord::Spec { text: "job A".into() }).unwrap();
        be.record(&retire(1)).unwrap();
        let meta = CheckpointMeta {
            retired: 1,
            digest: 0x1234,
            threads: vec![(1, 1)],
        };
        let ckpt = store_checkpoint(&be, &meta);
        be.record(&ckpt).unwrap();
        be.sync().unwrap();
        let img = be.load().unwrap();
        assert_eq!(img.spec.as_deref(), Some("job A"));
        assert_eq!(img.retired_len(), 1);
        assert_eq!(img.checkpoint, Some(meta));
        assert_eq!(img.prefix_records, 3);
        assert_eq!(be.stats().fsyncs, 1);
    }

    /// A directory written when the engines still mirrored the WAL — spelled
    /// out as text: `append` with checksum 0 plus a later `seal` (before the
    /// checksum moved inline), `append` carrying its checksum, `undo`,
    /// `prune` — loads to the same image as the same run logged today,
    /// where only `spec` / `retire` / `ckpt` lines exist. A *damaged* legacy
    /// line is damage: the epoch ends there.
    #[test]
    fn legacy_wal_mirror_lines_load_to_the_same_image() {
        let line = |payload: &str| {
            let mut out = String::new();
            frame_line(&mut out, payload);
            out
        };
        let dir = unique_temp_dir("persist-legacy");
        let be = FileBackend::open(&dir).unwrap();
        let meta = CheckpointMeta {
            retired: 2,
            digest: 0x2468,
            threads: vec![(1, 1), (2, 1)],
        };
        let ckpt = store_checkpoint(&be, &meta).encode_line();
        let run = |legacy: bool, damage_at: Option<u64>| {
            let mut text = line("spec job%20A");
            for n in 1..=3u64 {
                if legacy {
                    let sum = if n == 1 { 0 } else { 0xfeed_0000 + n };
                    let mut append =
                        line(&format!("append {n} {} {sum:016x} FetchAdd(A{n},%20old%200)", 10 + n));
                    if damage_at == Some(n) {
                        append = append.replace("FetchAdd", "FetchSub");
                    }
                    text += &append;
                    if n == 1 {
                        text += &line(&format!("seal {n} {:016x}", 0xfeed_0000 + n));
                    }
                    if n == 2 {
                        text += &line("append 9 12 00000000000000aa Lock(L1)");
                        text += &line("undo 9");
                    }
                    text += &line(&format!("prune {} 1", 10 + n));
                }
                text += &retire(n).encode_line();
                if n == 2 {
                    text += &ckpt;
                }
            }
            text
        };
        let load = |text: String| {
            fs::write(dir.join("segments").join("seg-00000000.log"), text).unwrap();
            be.load().unwrap()
        };
        let (old, new) = (load(run(true, None)), load(run(false, None)));
        assert_eq!(old, new, "the legacy lines change nothing that is loaded");
        assert!(!new.truncated);
        assert_eq!(new.spec.as_deref(), Some("job A"));
        assert_eq!(new.retired_len(), 3);
        assert_eq!(new.checkpoint, Some(meta));

        let torn = load(run(true, Some(3)));
        assert!(torn.truncated, "a damaged append is damage");
        assert_eq!(torn.retires, new.retires[..2], "the epoch ends at the damaged line");
        assert_eq!(torn.checkpoint, new.checkpoint);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_new_spec_opens_a_new_epoch() {
        let be = MemoryBackend::new();
        be.record(&DurableRecord::Spec { text: "old".into() }).unwrap();
        be.record(&retire(1)).unwrap();
        be.record(&DurableRecord::Spec { text: "new".into() }).unwrap();
        let img = be.load().unwrap();
        assert_eq!(img.spec.as_deref(), Some("new"));
        assert_eq!(img.retired_len(), 0, "old epoch's records are superseded");
        assert_eq!(img.prefix_records, 1);
    }

    #[test]
    fn file_backend_roundtrips_and_seals_segments() {
        let dir = unique_temp_dir("persist-roundtrip");
        let be = FileBackend::open(&dir).unwrap().with_segment_cap(4);
        let recs = sample_records();
        for rec in &recs {
            be.record(rec).unwrap();
        }
        be.sync().unwrap();
        assert!(be.stats().segments_sealed >= 1, "cap 4, 7 records");
        let img = be.load().unwrap();
        assert_eq!(img.prefix_records, recs.len() as u64);
        assert!(!img.truncated);
        assert_eq!(img.retires.len(), 5);

        // A second backend over the same dir appends a fresh epoch.
        drop(be);
        let be2 = FileBackend::open(&dir).unwrap();
        be2.record(&DurableRecord::Spec { text: "resumed".into() }).unwrap();
        let img2 = be2.load().unwrap();
        assert_eq!(img2.spec.as_deref(), Some("resumed"));
        assert_eq!(img2.prefix_records, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_truncates_to_consistent_prefix() {
        let dir = unique_temp_dir("persist-corrupt");
        let be = FileBackend::open(&dir).unwrap();
        for rec in sample_records() {
            be.record(&rec).unwrap();
        }
        drop(be);
        assert!(corrupt_tail_for_testing(&dir).unwrap());
        let be = FileBackend::open(&dir).unwrap();
        let img = be.load().unwrap();
        assert!(img.truncated);
        assert_eq!(img.prefix_records, sample_records().len() as u64 - 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unverifiable_checkpoint_is_dropped_not_trusted() {
        let dir = unique_temp_dir("persist-merkle");
        let be = FileBackend::open(&dir).unwrap();
        let meta = CheckpointMeta {
            retired: 9,
            digest: 0xabcd,
            threads: vec![(0, 9)],
        };
        let ckpt = store_checkpoint(&be, &meta);
        be.record(&ckpt).unwrap();
        // Destroy the chunk the record points at.
        if let DurableRecord::Checkpoint { chunks, .. } = &ckpt {
            fs::write(be.chunk_path(chunks[0]), b"not the chunk").unwrap();
        }
        let img = be.load().unwrap();
        assert_eq!(img.checkpoint, None);
        assert_eq!(img.dropped_checkpoints, 1);
        assert!(!img.truncated, "the log itself is intact");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_chunk_checkpoints_verify_through_the_merkle_root() {
        let be = MemoryBackend::new();
        let meta = CheckpointMeta {
            retired: 500,
            digest: 0x55aa,
            threads: (0..200).map(|t| (t, 2u64)).collect(),
        };
        assert!(meta.encode().len() > CHUNK_SIZE, "forces multiple chunks");
        let ckpt = store_checkpoint(&be, &meta);
        if let DurableRecord::Checkpoint { chunks, .. } = &ckpt {
            assert!(chunks.len() > 1);
        }
        be.record(&ckpt).unwrap();
        let img = be.load().unwrap();
        assert_eq!(img.checkpoint, Some(meta));
    }
}
