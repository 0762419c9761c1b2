//! Run statistics and the final report.

use crate::program::{payload_to, Payload};
use gprs_core::ids::{SubThreadId, ThreadId};
use gprs_core::racecheck::Race;
use gprs_telemetry::TelemetrySummary;
use std::collections::BTreeMap;

/// Counters accumulated over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Sub-threads created (including re-executions after squash).
    pub subthreads: u64,
    /// Sub-threads retired.
    pub retired: u64,
    /// Ordered grants issued.
    pub grants: u64,
    /// Wasted turns: empty-FIFO polls and unfinished-join retries.
    pub polls: u64,
    /// Exceptions delivered to the REX.
    pub exceptions: u64,
    /// Exceptions whose culprit had already retired or was idle.
    pub exceptions_ignored: u64,
    /// Sub-threads squashed by recovery.
    pub squashed: u64,
    /// Recovery episodes executed.
    pub recoveries: u64,
    /// Lock acquisitions (opening + nested).
    pub locks_acquired: u64,
    /// Dynamic thread spawns (including respawns during recovery).
    pub spawns: u64,
    /// Barrier releases.
    pub barrier_releases: u64,
    /// Serialized (exclusive) sections executed.
    pub serialized: u64,
    /// Pool allocations.
    pub allocs: u64,
    /// Peak reorder-list occupancy.
    pub rol_peak: usize,
    /// Data races flagged by the happens-before detector (0 when the
    /// detector is off).
    pub races: u64,
    /// Selective restarts widened to basic because the culprit's thread
    /// participated in a detected race.
    pub hybrid_escalations: u64,
}

/// Result of a completed run.
pub struct RunReport {
    /// Stable identity of the job this run executed. Zero for solo runs;
    /// a serving layer (`gprs-serve`) assigns each submission a unique id
    /// via [`crate::GprsBuilder::job`] so streamed reports can be matched
    /// back to their submissions.
    pub job_id: u64,
    /// Monotonic submission sequence number (admission order). Zero for
    /// solo runs. Distinct from [`RunReport::job_id`]: ids are stable
    /// handles, sequence numbers order submissions across a serving
    /// session.
    pub submit_seq: u64,
    /// Final statistics.
    pub stats: RunStats,
    /// Thread outputs (from their `Step::Exit` values).
    pub outputs: BTreeMap<ThreadId, Payload>,
    /// Committed contents of every registered file, by registration index.
    pub files: BTreeMap<u64, (String, Vec<u8>)>,
    /// End-of-run telemetry: determinism hashes (the streaming
    /// `schedule_hash` replaces the old capped `grant_trace` vector and is
    /// identical across runs with the same exception schedule regardless of
    /// worker count), metrics, and the event trace, merged when read.
    pub telemetry: TelemetrySummary,
    /// The first data race in retired order, when
    /// [`crate::GprsBuilder::racecheck`] was enabled and one was found.
    /// Deterministic: the same program and seed yield the same report
    /// regardless of worker count.
    pub first_race: Option<Race>,
    /// The ahead-of-run static analysis report, when
    /// [`crate::GprsBuilder::analyze`] was enabled and a model attached.
    pub analysis: Option<gprs_analyze::AnalysisReport>,
    /// Per-domain ledgers of a sharded run (`crate::ShardedGprs`), in
    /// domain order; empty for ordinary runs. The per-shard retired-hash
    /// values wrapping-sum to [`TelemetrySummary::retired_hash`], and each
    /// shard's WAL ledger must balance (`wal_appends == wal_undos +
    /// wal_prunes`) — the invariants the chaos oracle audits per domain.
    pub shards: Vec<ShardSummary>,
}

/// One execution domain's slice of a sharded run's ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    /// Execution-domain index (matches the coalesced plan's order).
    pub domain: usize,
    /// Sub-threads retired by this domain's engine.
    pub retired: u64,
    /// The domain's commutative retired-order digest.
    pub retired_hash: u64,
    /// Grants issued by the domain's order enforcer.
    pub grants: u64,
    /// WAL records appended under this domain's engine lock.
    pub wal_appends: u64,
    /// WAL undo records consumed by this domain's recoveries.
    pub wal_undos: u64,
    /// WAL records pruned at this domain's retirements.
    pub wal_prunes: u64,
}

impl RunReport {
    /// The opt-in bounded raw grant trace `(sub-thread, thread)`, re-typed.
    /// Empty unless `GprsBuilder::trace_cap` (or
    /// `TelemetryConfig::raw_trace_cap`) was set.
    pub fn grant_trace(&self) -> Vec<(SubThreadId, ThreadId)> {
        self.telemetry
            .raw_grant_trace
            .iter()
            .map(|&(s, t)| (SubThreadId::new(s), ThreadId::new(t)))
            .collect()
    }

    /// Typed access to a thread's exit value.
    ///
    /// # Panics
    /// Panics if the thread produced no output or on a type mismatch.
    pub fn output<T: Clone + Send + Sync + 'static>(&self, thread: ThreadId) -> T {
        let p = self
            .outputs
            .get(&thread)
            .unwrap_or_else(|| panic!("{thread} produced no output"));
        payload_to(p)
    }

    /// Committed bytes of a file by handle index.
    pub fn file_contents(&self, index: u64) -> &[u8] {
        self.files
            .get(&index)
            .map(|(_, bytes)| bytes.as_slice())
            .unwrap_or(&[])
    }
}

impl std::fmt::Debug for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunReport")
            .field("job_id", &self.job_id)
            .field("submit_seq", &self.submit_seq)
            .field("stats", &self.stats)
            .field("outputs", &self.outputs.len())
            .field("files", &self.files.len())
            .field("analysis", &self.analysis.is_some())
            .finish()
    }
}

/// Errors terminating a run abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// A step panicked; the runtime was poisoned.
    Poisoned(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Poisoned(msg) => write!(f, "runtime poisoned: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn typed_output_access() {
        let mut outputs: BTreeMap<ThreadId, Payload> = BTreeMap::new();
        outputs.insert(ThreadId::new(0), Arc::new(41u64));
        let report = RunReport {
            job_id: 0,
            submit_seq: 0,
            stats: RunStats::default(),
            outputs,
            files: BTreeMap::new(),
            telemetry: TelemetrySummary::default(),
            first_race: None,
            analysis: None,
            shards: Vec::new(),
        };
        assert_eq!(report.output::<u64>(ThreadId::new(0)), 41);
        assert!(report.file_contents(0).is_empty());
        assert!(report.grant_trace().is_empty());
    }

    #[test]
    fn run_error_displays() {
        let e = RunError::Poisoned("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
