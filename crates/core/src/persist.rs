//! Pluggable durable persistence for the runtime's WAL and checkpoints —
//! the storage layer that lets a *restarted process* recover.
//!
//! Everything else in this crate assumes the process survives the
//! exception: the WAL ([`crate::wal`]) and history buffer
//! ([`crate::history`]) live in memory and die with it. This module adds a
//! [`PersistBackend`] trait the runtime mirrors its recovery-relevant
//! state through, with two implementations:
//!
//! * [`MemoryBackend`] — an in-process mirror with identical record
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
//! Main-Memory DBMSs on Multicores"), the durable log records **what the
//! runtime did** (WAL appends/undos/prunes and the retirement
//! order), not the program state. Recovery is deterministic
//! re-execution of the job spec, *verified* step-by-step against the
//! durable retire prefix: the restarted run must retire the same
//! `(thread, kind)` sequence with the same running order-hash digests,
//! or it is poisoned instead of silently diverging. GPRS's deterministic
//! total order is what makes this sound — the same spec replays to the
//! same retirement sequence on any worker count (the committed
//! determinism goldens pin exactly this).
//!
//! # Segment format
//!
//! A segment is a text file of records, one per line:
//!
//! ```text
//! <fnv1a-of-payload:016x> <payload>
//! ```
//!
//! A torn tail write fails the line checksum, and the loader truncates
//! to the newest consistent prefix — precisely the "newest consistent
//! prefix of the ROL" the restart resumes from. Segments seal (fsync +
//! close) every [`FileBackend::with_segment_cap`] records so corruption
//! stays bounded per file.
//!
//! # Checkpoints: a content-addressed merkle store
//!
//! Checkpoint metadata (retired count, combined retired-order digest,
//! per-thread retirement splits) is chunked into a content-addressed
//! store keyed by chunk hash; the log record carries the leaf hashes and
//! their merkle root. The loader refetches the chunks by hash, verifies
//! each leaf and the recombined root, and only then trusts the
//! checkpoint — an unverifiable checkpoint is *dropped* (the log records
//! still replay) rather than trusted.

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

/// Percent-escapes the three bytes that would break the line-oriented
/// record encoding: `%`, `\n`, `\r`.
fn escape(text: &str, out: &mut String) {
    for ch in text.chars() {
        match ch {
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
}

fn unescape(text: &str) -> Option<String> {
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

/// One durable log record. The vocabulary mirrors the in-memory WAL's
/// lifecycle (append → undo|prune) plus the retirement order and
/// checkpoint anchors that restart verification needs.
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
    /// Mirror of a WAL append, carrying the record's integrity checksum.
    /// (Images written before the checksum moved inline carry 0 here and
    /// a later [`DurableRecord::Seal`].)
    Append {
        /// Log sequence number of the mirrored WAL record.
        lsn: u64,
        /// Sub-thread the operation was performed on behalf of.
        subthread: u64,
        /// The WAL record's integrity checksum.
        checksum: u64,
        /// Stable `Debug` rendering of the runtime operation.
        op: String,
    },
    /// Legacy: the late checksum of an `Append` written with checksum 0.
    /// The engine no longer emits it; it stays in the vocabulary so images
    /// from older runs load, and it never enters the WAL ledger.
    Seal {
        /// LSN of the append being sealed.
        lsn: u64,
        /// The computed integrity checksum.
        checksum: u64,
    },
    /// A WAL record consumed for undo during a recovery session.
    Undo {
        /// LSN of the undone record.
        lsn: u64,
    },
    /// WAL records pruned when a sub-thread retired.
    Prune {
        /// The retired sub-thread.
        subthread: u64,
        /// Number of WAL records pruned for it.
        count: u64,
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
            DurableRecord::Append {
                lsn,
                subthread,
                checksum,
                op,
            } => {
                let _ = write!(out, "append {lsn} {subthread} {checksum:016x} ");
                escape(op, out);
            }
            DurableRecord::Seal { lsn, checksum } => {
                let _ = write!(out, "seal {lsn} {checksum:016x}");
            }
            DurableRecord::Undo { lsn } => {
                let _ = write!(out, "undo {lsn}");
            }
            DurableRecord::Prune { subthread, count } => {
                let _ = write!(out, "prune {subthread} {count}");
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
        let crc = fnv1a(payload.as_bytes());
        let mut line = String::with_capacity(payload.len() + 18);
        let _ = writeln!(line, "{crc:016x} {payload}");
        line
    }

    /// Decodes one line (without trailing newline). Returns `None` on a
    /// checksum mismatch or any structural damage — the loader treats
    /// that as the torn tail and truncates there.
    pub fn decode_line(line: &str) -> Option<DurableRecord> {
        let (crc_hex, payload) = line.split_once(' ')?;
        let crc = u64::from_str_radix(crc_hex, 16).ok()?;
        if fnv1a(payload.as_bytes()) != crc {
            return None;
        }
        let (tag, rest) = payload.split_once(' ').unwrap_or((payload, ""));
        match tag {
            "spec" => Some(DurableRecord::Spec {
                text: unescape(rest)?,
            }),
            "append" => {
                let mut it = rest.splitn(4, ' ');
                let lsn = it.next()?.parse().ok()?;
                let subthread = it.next()?.parse().ok()?;
                let checksum = u64::from_str_radix(it.next()?, 16).ok()?;
                let op = unescape(it.next().unwrap_or(""))?;
                Some(DurableRecord::Append {
                    lsn,
                    subthread,
                    checksum,
                    op,
                })
            }
            "seal" => {
                let mut it = rest.split(' ');
                let lsn = it.next()?.parse().ok()?;
                let checksum = u64::from_str_radix(it.next()?, 16).ok()?;
                Some(DurableRecord::Seal { lsn, checksum })
            }
            "undo" => Some(DurableRecord::Undo {
                lsn: rest.parse().ok()?,
            }),
            "prune" => {
                let mut it = rest.split(' ');
                let subthread = it.next()?.parse().ok()?;
                let count = it.next()?.parse().ok()?;
                Some(DurableRecord::Prune { subthread, count })
            }
            "retire" => {
                let mut it = rest.split(' ');
                let subthread = it.next()?.parse().ok()?;
                let thread = it.next()?.parse().ok()?;
                let kind = it.next()?.parse().ok()?;
                let retired = it.next()?.parse().ok()?;
                let digest = u64::from_str_radix(it.next()?, 16).ok()?;
                Some(DurableRecord::Retire {
                    subthread,
                    thread,
                    kind,
                    retired,
                    digest,
                })
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
                Some(DurableRecord::Checkpoint {
                    root,
                    retired,
                    digest,
                    chunks,
                })
            }
            _ => None,
        }
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
    /// `Append` records in the epoch.
    pub appends: u64,
    /// `Undo` records in the epoch.
    pub undos: u64,
    /// WAL records pruned in the epoch (sum of `Prune.count`).
    pub prunes: u64,
    /// `Seal` records in the epoch.
    pub seals: u64,
    /// Valid records loaded in the current epoch.
    pub prefix_records: u64,
    /// Whether the loader truncated a torn/corrupt tail.
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
                DurableRecord::Append { .. } => img.appends += 1,
                DurableRecord::Seal { .. } => img.seals += 1,
                DurableRecord::Undo { .. } => img.undos += 1,
                DurableRecord::Prune { count, .. } => img.prunes += count,
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

    /// Whether the epoch's WAL ledger balances — true only when the
    /// previous run retired everything it appended (i.e. completed).
    pub fn ledger_balanced(&self) -> bool {
        self.appends == self.undos + self.prunes
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
        'segments: for name in &names {
            let path = seg_dir.join(name);
            let bytes = fs::read(&path)
                .map_err(|e| PersistError::Io(format!("read {}: {e}", path.display())))?;
            // A torn tail may not even be UTF-8; lossy conversion feeds
            // the per-line checksum, which rejects the damage.
            let text = String::from_utf8_lossy(&bytes);
            for line in text.split('\n') {
                if line.is_empty() {
                    continue;
                }
                match DurableRecord::decode_line(line) {
                    Some(rec) => records.push(rec),
                    None => {
                        // Newest consistent prefix: everything from the
                        // first damaged line on is discarded, across
                        // this and all later segments.
                        truncated = true;
                        break 'segments;
                    }
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

    fn sample_records() -> Vec<DurableRecord> {
        vec![
            DurableRecord::Spec {
                text: "submit fetchadd 7 0 0\nwith %25 tricks\r".into(),
            },
            DurableRecord::Append {
                lsn: 0,
                subthread: 3,
                checksum: 0,
                op: "Enq { q: 1, item: 2 }".into(),
            },
            DurableRecord::Seal {
                lsn: 0,
                checksum: 0xdead_beef,
            },
            DurableRecord::Undo { lsn: 0 },
            DurableRecord::Append {
                lsn: 1,
                subthread: 4,
                checksum: 77,
                op: "Lock { l: 9 }".into(),
            },
            DurableRecord::Prune {
                subthread: 4,
                count: 1,
            },
            DurableRecord::Retire {
                subthread: 4,
                thread: 2,
                kind: 1,
                retired: 1,
                digest: 0x1234,
            },
        ]
    }

    #[test]
    fn record_lines_roundtrip() {
        for rec in sample_records() {
            let line = rec.encode_line();
            let decoded = DurableRecord::decode_line(line.trim_end_matches('\n')).unwrap();
            assert_eq!(decoded, rec, "roundtrip of {rec:?}");
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
        for rec in sample_records().into_iter().skip(1) {
            be.record(&rec).unwrap();
        }
        let meta = CheckpointMeta {
            retired: 1,
            digest: 0x1234,
            threads: vec![(2, 1)],
        };
        let ckpt = store_checkpoint(&be, &meta);
        be.record(&ckpt).unwrap();
        be.sync().unwrap();
        let img = be.load().unwrap();
        assert_eq!(img.spec.as_deref(), Some("job A"));
        assert_eq!(img.retired_len(), 1);
        assert_eq!(img.checkpoint, Some(meta));
        assert_eq!(img.appends, 2);
        assert_eq!(img.undos, 1);
        assert_eq!(img.prunes, 1);
        assert!(img.ledger_balanced());
        assert_eq!(be.stats().fsyncs, 1);
    }

    /// An image written when appends carried checksum 0 and a later `seal`
    /// line (spelled out as text: this is the on-disk format old runs
    /// left behind) loads to the same ledger verdict as the same run
    /// logged today, one line fewer per append.
    #[test]
    fn legacy_seal_lines_load_to_the_same_ledger_verdict() {
        let line = |payload: &str| format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()));
        let run = |legacy: bool| {
            let mut text = line("spec job%20A");
            for (lsn, st) in [(0u64, 3u64), (1, 4), (2, 4)] {
                let sum = if legacy { 0 } else { 0xfeed_0000 + lsn };
                text += &line(&format!("append {lsn} {st} {sum:016x} FetchAdd(A{st},%20old%200)"));
                if legacy {
                    text += &line(&format!("seal {lsn} {:016x}", 0xfeed_0000 + lsn));
                }
            }
            text += &line("undo 0");
            text += &line("prune 4 2");
            text += &line("retire 4 2 1 1 0000000000001234");
            text
        };
        let load = |text: String| {
            let dir = unique_temp_dir("persist-legacy-seal");
            fs::create_dir_all(dir.join("segments")).unwrap();
            fs::write(dir.join("segments").join("seg-00000000.log"), text).unwrap();
            let img = FileBackend::open(&dir).unwrap().load().unwrap();
            fs::remove_dir_all(&dir).unwrap();
            img
        };
        let (old, new) = (load(run(true)), load(run(false)));
        assert!(!old.truncated && !new.truncated, "every line parses");
        assert_eq!(old.seals, 3);
        assert_eq!(new.seals, 0);
        assert_eq!(old.prefix_records, new.prefix_records + 3);
        assert_eq!(
            (old.appends, old.undos, old.prunes, old.ledger_balanced()),
            (new.appends, new.undos, new.prunes, new.ledger_balanced())
        );
        assert_eq!((new.appends, new.undos, new.prunes), (3, 1, 2));
        assert!(new.ledger_balanced());
        assert_eq!(old.spec, new.spec);
        assert_eq!(old.retires, new.retires);
    }

    #[test]
    fn a_new_spec_opens_a_new_epoch() {
        let be = MemoryBackend::new();
        be.record(&DurableRecord::Spec { text: "old".into() }).unwrap();
        be.record(&DurableRecord::Undo { lsn: 0 }).unwrap();
        be.record(&DurableRecord::Spec { text: "new".into() }).unwrap();
        let img = be.load().unwrap();
        assert_eq!(img.spec.as_deref(), Some("new"));
        assert_eq!(img.undos, 0, "old epoch's records are superseded");
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
        assert_eq!(img.retires.len(), 1);

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
