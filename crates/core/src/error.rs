//! Error types for the GPRS core model.

use crate::ids::{Lsn, SubThreadId, ThreadId};
use std::error::Error;
use std::fmt;

/// Errors raised by the core bookkeeping structures.
///
/// These indicate *protocol violations* by a runtime embedding the model
/// (inserting out of order, retiring an in-flight sub-thread, …) or detected
/// corruption of recovery state. They are distinct from the program-level
/// [`crate::exception::Exception`]s the model exists to recover from.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GprsError {
    /// A sub-thread was inserted into the reorder list out of order.
    OutOfOrderInsert {
        /// Id of the offending insert.
        inserted: SubThreadId,
        /// Newest id already present.
        newest: SubThreadId,
    },
    /// An operation referenced a sub-thread the reorder list does not hold.
    UnknownSubThread(SubThreadId),
    /// An operation referenced an unregistered thread.
    UnknownThread(ThreadId),
    /// A thread was registered twice with the order enforcer.
    DuplicateThread(ThreadId),
    /// Attempted to retire the reorder-list head before it completed.
    RetireIncomplete(SubThreadId),
    /// A write-ahead-log record failed its integrity check.
    WalCorruption {
        /// Sequence number of the corrupt record.
        lsn: Lsn,
    },
    /// A thread was registered with the order enforcer with weight 0, which
    /// would starve its whole group.
    InvalidWeight(ThreadId),
    /// A registration tried to change the established weight of a
    /// balance-aware group.
    GroupWeightConflict {
        /// The thread whose registration conflicted.
        thread: ThreadId,
        /// The group's established weight.
        established: u32,
        /// The weight the conflicting registration requested.
        requested: u32,
    },
    /// A recovery plan was requested for a sub-thread that is not excepted.
    NotExcepted(SubThreadId),
}

impl fmt::Display for GprsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GprsError::OutOfOrderInsert { inserted, newest } => write!(
                f,
                "sub-thread {inserted} inserted out of order (newest is {newest})"
            ),
            GprsError::UnknownSubThread(id) => write!(f, "unknown sub-thread {id}"),
            GprsError::UnknownThread(id) => write!(f, "unknown thread {id}"),
            GprsError::DuplicateThread(id) => write!(f, "thread {id} registered twice"),
            GprsError::RetireIncomplete(id) => {
                write!(f, "cannot retire incomplete sub-thread {id}")
            }
            GprsError::WalCorruption { lsn } => {
                write!(f, "write-ahead log record {lsn} failed integrity check")
            }
            GprsError::InvalidWeight(id) => {
                write!(f, "thread {id} registered with weight 0")
            }
            GprsError::GroupWeightConflict {
                thread,
                established,
                requested,
            } => write!(
                f,
                "thread {thread} requested group weight {requested}, but the group's weight is {established}"
            ),
            GprsError::NotExcepted(id) => {
                write!(f, "sub-thread {id} is not excepted; no recovery needed")
            }
        }
    }
}

impl Error for GprsError {}

/// Convenience result alias for core operations.
pub type Result<T> = std::result::Result<T, GprsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_meaningfully() {
        let e = GprsError::OutOfOrderInsert {
            inserted: SubThreadId::new(3),
            newest: SubThreadId::new(7),
        };
        assert_eq!(
            e.to_string(),
            "sub-thread ST3 inserted out of order (newest is ST7)"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<GprsError>();
    }
}
