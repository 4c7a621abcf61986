//! Error type for MPI-D operations.

use crate::kv::CodecError;
use mpi_rt::MpiError;
use std::fmt;

/// Anything that can go wrong inside the MPI-D library.
#[derive(Debug, Clone, PartialEq)]
pub enum MpidError {
    /// The underlying MPI runtime reported an error (timeout, dead peer,
    /// bad rank/tag, type mismatch).
    Mpi(MpiError),
    /// Bytes a rank sent failed to decode — a frame, its content (whether
    /// decoded from memory or read back from a reducer's spill file), or an
    /// in-node relay payload.
    Codec {
        /// Rank (within the communicator) whose bytes were malformed.
        source_rank: usize,
        /// The decode failure.
        err: CodecError,
    },
    /// Invalid configuration (rank-count mismatch, zero workers, …).
    Config(String),
    /// A reducer's spill file could not be created, written or read: disk
    /// I/O only, never the content of what was spilled.
    Spill(String),
}

impl fmt::Display for MpidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpidError::Mpi(e) => write!(f, "mpi error: {e}"),
            MpidError::Codec { source_rank, err } => {
                write!(f, "corrupt frame from rank {source_rank}: {err}")
            }
            MpidError::Config(m) => write!(f, "configuration error: {m}"),
            MpidError::Spill(m) => write!(f, "reduce-side spill error: {m}"),
        }
    }
}

impl std::error::Error for MpidError {}

impl From<MpiError> for MpidError {
    fn from(e: MpiError) -> Self {
        MpidError::Mpi(e)
    }
}

/// Result alias for MPI-D operations.
pub type MpidResult<T> = Result<T, MpidError>;
