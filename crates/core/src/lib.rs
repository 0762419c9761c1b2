//! Core model for **globally precise-restartable execution** of parallel
//! programs — a reproduction of Gupta, Sridharan & Sohi, PLDI 2014.
//!
//! Modern processors execute a sequential program's instructions in parallel
//! yet recover from exceptions precisely, because the program order gives
//! them a consistent state to restore. This crate ports that idea to whole
//! multiprocessors: a parallel program's computations are divided into
//! fine-grained, deterministically **ordered sub-threads**; checkpoints are
//! taken at sub-thread boundaries (where no one can be communicating with the
//! sub-thread); the runtime's own bookkeeping is protected by a write-ahead
//! log; and on an exception only the excepting sub-thread and its dependents
//! are squashed and re-executed (**selective restart**), so exception
//! tolerance scales with the machine instead of collapsing under frequent
//! faults like conventional checkpoint-and-recovery.
//!
//! This crate holds the execution-model pieces shared by the threaded
//! runtime (`gprs-runtime`) and the virtual-time simulator (`gprs-sim`):
//!
//! * [`subthread`] — sub-thread descriptors and the synchronization events
//!   that open them (each engine decides the boundaries where it grants).
//! * [`order`] — deterministic token schedules: round-robin and the paper's
//!   balance-aware (basic/weighted) schemes, plus the order enforcer.
//! * [`rol`] — the reorder list: the in-flight window, retirement, status.
//! * [`history`] — the [`history::Checkpoint`] trait: what a sub-thread
//!   saves at its boundary.
//! * [`wal`] — the ARIES-inspired write-ahead log for runtime self-recovery.
//! * [`deps`] — the taint closure of selective restart: lock/atomic
//!   aliases plus the engine's provenance edges.
//! * [`recovery`] — recovery planning: basic, selective, discard-all,
//!   hybrid escalation, instruction- vs sub-thread-precision.
//! * [`ledger`] — the run ledger: hashes, recorder, replay verifier, race
//!   detector, durable retirement log and telemetry behind one set of
//!   event hooks.
//! * [`exception`] — the discretionary-exception model and Poisson injector
//!   (with scripted-arrival overlays for chaos campaigns).
//! * [`chaos`] — deterministic fault-injection plans consumed by the real
//!   executors and generated/minimized by `gprs-chaos`.
//! * [`racecheck`] — retirement-driven happens-before race detection that
//!   guards selective restart's data-race-freedom assumption.
//! * [`model`] — the closed-form penalty/tipping-rate analysis of §2.3–§2.4.
//! * [`workload`] — the trace-level workload vocabulary shared by the
//!   simulator engines, the workload generators, and the static analyzer.
//!
//! # Quick example
//!
//! Plan a selective restart after an exception strikes one of three
//! in-flight sub-threads:
//!
//! ```
//! use gprs_core::prelude::*;
//!
//! let mut rol = ReorderList::new();
//! for (seq, thread, lock) in [(0, 0, 1), (1, 1, 1), (2, 2, 9)] {
//!     rol.insert(SubThread::new(
//!         SubThreadId::new(seq), ThreadId::new(thread), GroupId::new(0),
//!         SubThreadKind::CriticalSection,
//!         Some(SyncOp::LockAcquire(LockId::new(lock))),
//!     ))?;
//! }
//! // A soft fault hits the context running ST0.
//! rol.mark_excepted(SubThreadId::new(0),
//!     Exception::global(ExceptionKind::SoftFault, ContextId::new(0), 0))?;
//! let plan = plan_recovery(&rol, SubThreadId::new(0),
//!     RecoveryMode::Selective(DependencePolicy::Transitive),
//!     Precision::SubThread)?;
//! // ST1 shares lock L1 with the culprit and is squashed with it;
//! // ST2 (lock L9) keeps running.
//! assert_eq!(plan.discarded(), 2);
//! assert_eq!(plan.unaffected, 1);
//! # Ok::<(), gprs_core::error::GprsError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod deps;
pub mod error;
pub mod exception;
pub mod history;
pub mod ids;
pub mod ledger;
pub mod model;
pub mod order;
pub mod persist;
pub mod racecheck;
pub mod recording;
pub mod recovery;
pub mod rol;
pub mod subthread;
pub mod wal;
pub mod workload;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::chaos::{ChaosCursor, ChaosEvent, ChaosPlan, ChaosTrigger, VictimSelector};
    pub use crate::deps::{affected_set, DependencePolicy, Provenance};
    pub use crate::error::{GprsError, Result};
    pub use crate::exception::{
        Exception, ExceptionInjector, ExceptionKind, ExceptionScope, InjectorConfig,
        ScriptedArrival,
    };
    pub use crate::history::Checkpoint;
    pub use crate::ids::{
        AtomicId, BarrierId, ChannelId, ContextId, GroupId, LockId, Lsn, ResourceId, SubThreadId,
        ThreadId,
    };
    pub use crate::ledger::{Checkpointed, Poison, RetireFacts, RunLedger};
    pub use crate::model::{CostParams, Scheme};
    pub use crate::order::{
        BalanceAware, EdgeQueue, OrderEnforcer, OrderingPolicy, RoundRobin, ScheduleKind,
    };
    pub use crate::persist::{
        DurableImage, DurableRecord, FileBackend, MemoryBackend, PersistBackend, PersistError,
        PersistStats,
    };
    pub use crate::racecheck::{AccessKind, OpenEdge, Race, RaceDetector, RetireInfo, VectorClock};
    pub use crate::recording::{
        first_divergence, DriveMode, RecordedEvent, RecordedOutcome, Recorder, Recording,
        RecordingDiff, RecordingError, RecordingHeader, ReplaySchedule,
    };
    pub use crate::recovery::{
        plan_recovery, squash_scope, Precision, RecoveryMode, RecoveryPlan, SquashScope,
    };
    pub use crate::rol::{ReorderList, RolEntry, SubThreadStatus};
    pub use crate::subthread::{SubThread, SubThreadKind, SyncOp};
    pub use crate::wal::{WalRecord, WriteAheadLog};
    pub use crate::workload::{PlainKind, Segment, SimOp, ThreadSpec, Workload};
}
