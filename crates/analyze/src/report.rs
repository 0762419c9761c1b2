//! The structured result of a static analysis run.
//!
//! Everything in this module is plain data: deterministic, comparable, and
//! serializable through `gprs-telemetry`'s hand-rolled [`JsonWriter`] so the
//! report can be archived next to the telemetry artifacts without serde.

use crate::restart::RestartSummary;
use crate::shard::ShardPlan;
use gprs_core::ids::{AtomicId, GroupId, LockId, ThreadId};
use gprs_core::workload::Workload;
use gprs_telemetry::json::JsonWriter;
use gprs_telemetry::{Telemetry, TraceEvent};
use std::fmt;

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Purely informational (e.g. pipeline-shape observations).
    Info,
    /// Suspicious but not provably fatal (e.g. a lock-order cycle that may
    /// never interleave badly).
    Warning,
    /// Provably wrong or unsound for selective restart (e.g. a potential
    /// data race, a `Pop` that can never be matched).
    Error,
}

impl Severity {
    /// A stable lower-case label for display and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A static program point: a segment of a logical thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// The logical thread.
    pub thread: ThreadId,
    /// The segment index within that thread.
    pub segment: usize,
}

impl Site {
    /// Creates a site.
    pub fn new(thread: ThreadId, segment: usize) -> Self {
        Site { thread, segment }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/seg{}", self.thread, self.segment)
    }
}

/// One severity-ranked finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// A stable machine-readable code (`potential-race`, `lock-cycle`, ...).
    pub code: &'static str,
    /// The human-readable message.
    pub message: String,
    /// The program points the finding indicts, in deterministic order.
    pub sites: Vec<Site>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if !self.sites.is_empty() {
            write!(f, " (at ")?;
            for (i, s) in self.sites.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// The verdict lattice for one shared cell touched via `Segment::plain`.
///
/// `ProvenDrf < Guarded < PotentialRace`: the analysis only ever moves a
/// cell up the lattice, and the workload's [`RecoveryAdvice`] is derived
/// from the join over all cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CellVerdict {
    /// All accesses are on one thread, or all accesses are reads: race-free
    /// by construction, no synchronization needed.
    ProvenDrf,
    /// Cross-thread conflicting accesses exist but every conflicting pair
    /// is ordered by a common lock/atomic guard or by barrier phases.
    Guarded,
    /// At least one conflicting pair shares no guard and no static
    /// happens-before edge — a data race the runtime may observe.
    PotentialRace,
}

impl CellVerdict {
    /// A stable label for display and JSON.
    pub fn label(self) -> &'static str {
        match self {
            CellVerdict::ProvenDrf => "proven-drf",
            CellVerdict::Guarded => "guarded",
            CellVerdict::PotentialRace => "potential-race",
        }
    }
}

impl fmt::Display for CellVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-cell classification produced by the lockset pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// The shared cell (named by the atomic that aliases it).
    pub cell: AtomicId,
    /// Where the lattice placed it.
    pub verdict: CellVerdict,
    /// Every static access site, in `(thread, segment)` order.
    pub sites: Vec<Site>,
    /// For [`CellVerdict::PotentialRace`]: the first (in deterministic site
    /// order) conflicting pair with no ordering between them.
    pub indicted: Option<(Site, Site)>,
}

/// What recovery configuration the workload should run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAdvice {
    /// Every cell proven DRF or guarded: selective restart is sound and the
    /// dynamic race detector can be elided.
    Selective,
    /// At least one potential race: run hybrid recovery (selective restart
    /// escalating to basic/CPR scope on racy threads) with the dynamic
    /// detector armed.
    HybridCpr,
}

impl RecoveryAdvice {
    /// A stable label for display and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryAdvice::Selective => "selective",
            RecoveryAdvice::HybridCpr => "hybrid-cpr",
        }
    }
}

impl fmt::Display for RecoveryAdvice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One stage of the suggested balance-aware schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAdvice {
    /// The suggested group id (its depth in the producer/consumer DAG).
    pub group: GroupId,
    /// The threads assigned to the stage, in id order.
    pub threads: Vec<ThreadId>,
    /// The suggested token weight (consecutive turns per rotation).
    pub weight: u32,
    /// Aggregate computation cycles across the stage's threads.
    pub work: u64,
    /// Aggregate synchronization operations (token demand) in the stage.
    pub sync_ops: u64,
}

/// A synthesized balance-aware group/weight assignment for a pipeline
/// workload, derived from the channel producer/consumer topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuggestedSchedule {
    /// The stages in pipeline order (group 0 = sources).
    pub stages: Vec<StageAdvice>,
}

impl SuggestedSchedule {
    /// True when the suggestion actually partitions the threads (more than
    /// one group) — the precondition for balance-aware to differ from
    /// round-robin.
    pub fn is_multi_group(&self) -> bool {
        self.stages.len() > 1
    }

    /// Returns a copy of `w` with every thread's group and weight replaced
    /// by the suggested assignment. Threads not covered by any stage keep
    /// their original group/weight.
    pub fn apply(&self, w: &Workload) -> Workload {
        let mut out = w.clone();
        for stage in &self.stages {
            for t in &stage.threads {
                let spec = &mut out.threads[t.raw() as usize];
                spec.group = stage.group;
                spec.weight = stage.weight;
            }
        }
        out
    }
}

/// The full report of one `analyze` run over a [`Workload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// The workload's name.
    pub workload: String,
    /// Number of logical threads analyzed.
    pub threads: usize,
    /// The rolled-up recovery advice (join over all cell verdicts).
    pub advice: RecoveryAdvice,
    /// Per-cell classification, in cell-id order.
    pub cells: Vec<CellReport>,
    /// Lock-acquisition-order edges (outer held while acquiring nested).
    pub lock_order_edges: Vec<(LockId, LockId)>,
    /// Cycles found in the lock-order graph (each rotated so the smallest
    /// lock id leads), i.e. potential deadlocks.
    pub lock_cycles: Vec<Vec<LockId>>,
    /// Synthesized balance-aware schedule, when the channel topology forms
    /// a (non-trivial, acyclic) pipeline.
    pub suggestion: Option<SuggestedSchedule>,
    /// Interference partition: provably independent order domains plus the
    /// residual cross-domain couplings.
    pub shard_plan: ShardPlan,
    /// Restartability verdicts and the static elision proofs.
    pub restart: RestartSummary,
    /// All findings, sorted most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty report for `workload` (all passes still to run).
    pub fn new(workload: impl Into<String>, threads: usize) -> Self {
        AnalysisReport {
            workload: workload.into(),
            threads,
            advice: RecoveryAdvice::Selective,
            cells: Vec::new(),
            lock_order_edges: Vec::new(),
            lock_cycles: Vec::new(),
            suggestion: None,
            shard_plan: ShardPlan::default(),
            restart: RestartSummary::default(),
            diagnostics: Vec::new(),
        }
    }

    /// Appends a diagnostic (final ordering happens in `analyze`).
    pub(crate) fn push(
        &mut self,
        severity: Severity,
        code: &'static str,
        message: String,
        sites: Vec<Site>,
    ) {
        self.diagnostics.push(Diagnostic {
            severity,
            code,
            message,
            sites,
        });
    }

    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// Number of cells classified [`CellVerdict::PotentialRace`].
    pub fn potential_races(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.verdict == CellVerdict::PotentialRace)
            .count()
    }

    /// True when every cell is proven DRF or guarded *and* no structural
    /// error undermines the proof — the precondition for eliding the
    /// dynamic race detector while staying eligible for selective restart.
    pub fn race_free(&self) -> bool {
        self.advice == RecoveryAdvice::Selective && self.errors() == 0
    }

    /// Whether the dynamic race detector runs, given what the caller
    /// `requested`: a proven-DRF verdict makes the vector-clock detector
    /// pure overhead; a potential race makes it mandatory (the hybrid
    /// policy needs to know which threads are racy).
    pub fn racecheck(&self, requested: bool) -> bool {
        if self.race_free() {
            false
        } else {
            self.advice == RecoveryAdvice::HybridCpr || requested
        }
    }

    /// Records the verdict in `tel`: the `analysis_*` counters and one
    /// `AnalysisVerdict` event. `racecheck` is whether the detector ended
    /// up armed (see [`AnalysisReport::racecheck`]).
    pub fn trace_verdict(&self, tel: &Telemetry, racecheck: bool) {
        if !tel.enabled() {
            return;
        }
        let elided = self.race_free() && !racecheck;
        let m = &tel.metrics;
        m.analysis_runs.inc();
        m.analysis_cells.add(self.cells.len() as u64);
        m.analysis_potential_races.add(self.potential_races() as u64);
        m.analysis_diagnostics.add(self.diagnostics.len() as u64);
        if elided {
            m.analysis_racecheck_elided.inc();
        }
        tel.record(
            gprs_core::ledger::EXTERNAL_RING,
            TraceEvent::AnalysisVerdict {
                cells: self.cells.len() as u32,
                potential_races: self.potential_races() as u32,
                diagnostics: self.diagnostics.len() as u32,
                advice: (self.advice == RecoveryAdvice::HybridCpr) as u8,
                elided: elided as u8,
            },
        );
    }

    /// Serializes the report into `w` as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field_str("workload", &self.workload)
            .field_u64("threads", self.threads as u64)
            .field_str("advice", self.advice.label())
            .field_u64("errors", self.errors() as u64)
            .field_u64("warnings", self.warnings() as u64);
        w.key("cells").begin_array();
        for c in &self.cells {
            w.begin_object()
                .field_str("cell", &c.cell.to_string())
                .field_str("verdict", c.verdict.label());
            w.key("sites").begin_array();
            for s in &c.sites {
                w.string(&s.to_string());
            }
            w.end_array();
            if let Some((a, b)) = c.indicted {
                w.key("indicted").begin_array();
                w.string(&a.to_string()).string(&b.to_string());
                w.end_array();
            }
            w.end_object();
        }
        w.end_array();
        w.key("lock_order_edges").begin_array();
        for (a, b) in &self.lock_order_edges {
            w.string(&format!("{a}->{b}"));
        }
        w.end_array();
        w.key("lock_cycles").begin_array();
        for cyc in &self.lock_cycles {
            w.begin_array();
            for l in cyc {
                w.string(&l.to_string());
            }
            w.end_array();
        }
        w.end_array();
        w.key("suggested_schedule");
        match &self.suggestion {
            None => {
                w.begin_array().end_array();
            }
            Some(sugg) => {
                w.begin_array();
                for st in &sugg.stages {
                    w.begin_object()
                        .field_str("group", &st.group.to_string())
                        .field_u64("weight", u64::from(st.weight))
                        .field_u64("work", st.work)
                        .field_u64("sync_ops", st.sync_ops);
                    w.key("threads").begin_array();
                    for t in &st.threads {
                        w.string(&t.to_string());
                    }
                    w.end_array().end_object();
                }
                w.end_array();
            }
        }
        w.key("shard_plan");
        self.shard_plan.write_json(w);
        w.key("restartability");
        self.restart.write_json(w);
        w.key("diagnostics").begin_array();
        for d in &self.diagnostics {
            w.begin_object()
                .field_str("severity", d.severity.label())
                .field_str("code", d.code)
                .field_str("message", &d.message);
            w.key("sites").begin_array();
            for s in &d.sites {
                w.string(&s.to_string());
            }
            w.end_array().end_object();
        }
        w.end_array();
        w.end_object();
    }

    /// The report as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} threads, advice {}, {} errors, {} warnings",
            self.workload,
            self.threads,
            self.advice,
            self.errors(),
            self.warnings()
        )?;
        for c in &self.cells {
            write!(f, "  cell {}: {}", c.cell, c.verdict)?;
            if let Some((a, b)) = c.indicted {
                write!(f, " ({a} vs {b})")?;
            }
            writeln!(f)?;
        }
        for cyc in &self.lock_cycles {
            write!(f, "  lock cycle:")?;
            for l in cyc {
                write!(f, " {l} ->")?;
            }
            writeln!(f, " {}", cyc[0])?;
        }
        for line in self.shard_plan.to_string().lines() {
            writeln!(f, "  {line}")?;
        }
        writeln!(f, "  {}", self.restart)?;
        if let Some(sugg) = &self.suggestion {
            writeln!(f, "  suggested balance-aware schedule:")?;
            for st in &sugg.stages {
                write!(
                    f,
                    "    {} (weight {}, work {}, {} sync ops):",
                    st.group, st.weight, st.work, st.sync_ops
                )?;
                for t in &st.threads {
                    write!(f, " {t}")?;
                }
                writeln!(f)?;
            }
        }
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}
