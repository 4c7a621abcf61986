//! Common types: ranks, tags, statuses, errors.

use crate::verify::{DeadlockReport, RankLostReport, RanksFailure};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Rank of a process within the universe (0-based).
pub type Rank = usize;

/// Message tag. User tags must be in `0..=MAX_USER_TAG`; the runtime reserves
/// the space above for the barrier.
pub type Tag = i32;

/// Largest tag available to applications (the range above is reserved for
/// the barrier's internal messages).
pub const MAX_USER_TAG: Tag = i32::MAX / 2;

/// Wildcard source for receive operations (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<Rank> = None;

/// Wildcard tag for receive operations (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<Tag> = None;

/// Completion information of a receive (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank the message came from.
    pub source: Rank,
    /// Tag the message was sent with.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Errors from point-to-point operations and the barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Destination/source rank outside the universe.
    RankOutOfRange {
        /// Offending rank.
        rank: Rank,
        /// Communicator size.
        size: usize,
    },
    /// Tag outside the user range.
    TagOutOfRange(Tag),
    /// A timed receive expired before a matching message arrived.
    Timeout(Duration),
    /// The peer's mailbox was torn down (its rank function returned or
    /// panicked) while we were waiting on it.
    PeerGone {
        /// The rank that disappeared.
        rank: Rank,
    },
    /// Typed receive got a payload whose size is not a multiple of the
    /// element size.
    TypeMismatch {
        /// Payload size in bytes.
        payload: usize,
        /// Element size in bytes.
        elem: usize,
    },
    /// The mpiverify watchdog proved no execution can unblock this rank
    /// and aborted the universe (see [`DeadlockReport`]).
    Deadlock(Arc<DeadlockReport>),
    /// One or more rank functions panicked; carries per-rank payloads and
    /// the wait-for-graph snapshot at first failure.
    RanksFailed(Arc<RanksFailure>),
    /// A rank was lost — it panicked, or an injected crash
    /// ([`MpiConfig::fault_injection`](crate::MpiConfig)) took it down —
    /// and the universe was aborted: this is what every survivor's wait
    /// returns, instead of hanging. As a universe's result it names the
    /// injected crashes; a run lost to a genuine panic reports
    /// [`MpiError::RanksFailed`] instead.
    RankLost(Arc<RankLostReport>),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::RankOutOfRange { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::TagOutOfRange(t) => {
                write!(f, "tag {t} outside user range 0..={MAX_USER_TAG}")
            }
            MpiError::Timeout(d) => write!(f, "receive timed out after {d:?}"),
            MpiError::PeerGone { rank } => write!(f, "peer rank {rank} terminated"),
            MpiError::TypeMismatch { payload, elem } => write!(
                f,
                "payload of {payload} bytes is not a whole number of {elem}-byte elements"
            ),
            MpiError::Deadlock(report) => write!(f, "{report}"),
            MpiError::RanksFailed(failure) => write!(f, "{failure}"),
            MpiError::RankLost(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for MpiError {}

/// Result alias for MPI operations.
pub type MpiResult<T> = Result<T, MpiError>;
