//! # mpi-rt — a from-scratch MPI-style message-passing runtime
//!
//! The substrate under the MPI-D library (crate `mpid`), standing in for
//! MPICH2 1.3 in the paper. Ranks are OS threads within one process; the
//! semantics are MPI's:
//!
//! * **Point-to-point** ([`comm`]): blocking/non-blocking send and receive
//!   with `(source, tag)` matching including `ANY_SOURCE`/`ANY_TAG`
//!   wildcards, MPI's non-overtaking ordering guarantee, and both wire
//!   protocols — **eager** (copy-and-go) below a configurable threshold and
//!   **rendezvous** (sender blocks until matched) above it.
//! * **Barrier** ([`coll`]): the one collective MPI-D calls (in
//!   `MPI_D_Finalize`), with MPICH's dissemination algorithm. Every
//!   [`Comm`] is the world communicator.
//! * **Failure visibility**: a rank that panics aborts the universe, as
//!   `mpiexec` does when a process dies, so every wait blocked then or
//!   later fails with a structured [`MpiError::RankLost`] within one poll
//!   slice, checked or not. Ranks that return close their mailboxes, so a
//!   send to a finished rank errors ([`MpiError::PeerGone`]) instead of
//!   hanging. Timed receives ([`Comm::recv_timeout`]) remain for callers
//!   that want their own failure detector.
//! * **Fault injection** ([`MpiConfig::fault_injection`]): kill a chosen
//!   rank after its n-th point-to-point operation — the substrate for
//!   checkpoint/restart experiments.
//! * **Verification** ([`verify`]): every run is checked by default — a
//!   wait-for-graph watchdog aborts deadlocks with per-rank reports instead
//!   of hanging, typed sends/receives are signature-matched, and teardown
//!   audits mailboxes for leaked messages. [`Universe::run_unchecked`]
//!   opts out.
//!
//! ```
//! use mpi_rt::Universe;
//!
//! // Ping-pong between two ranks (the paper's Figure 2 primitive).
//! let results = Universe::run(2, |comm| {
//!     if comm.rank() == 0 {
//!         comm.send(1, 0, &[1u8, 2, 3]).unwrap();
//!         let (data, _) = comm.recv::<u8>(Some(1), Some(1)).unwrap();
//!         data.len()
//!     } else {
//!         let (data, st) = comm.recv::<u8>(None, None).unwrap();
//!         assert_eq!(st.source, 0);
//!         comm.send(0, 1, &data).unwrap();
//!         data.len()
//!     }
//! });
//! assert_eq!(results, vec![3, 3]);
//! ```

#![warn(missing_docs)]

pub mod coll;
pub mod comm;
pub mod data;
pub mod matching;
pub mod trace;
pub mod types;
pub mod universe;
pub mod verify;

pub use comm::{Comm, RecvRequest, SendRequest};
pub use data::MpiType;
pub use trace::RankTrace;
pub use types::{MpiError, MpiResult, Rank, Status, Tag, ANY_SOURCE, ANY_TAG, MAX_USER_TAG};
pub use universe::{MpiConfig, RankFault, Universe};
pub use verify::{
    BlockedOp, DeadlockReport, Finding, RankLostReport, RankSnapshot, RanksFailure, VerifyConfig,
    VerifyReport, WireSig,
};

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock `m`, recovering the guard when a panicking rank poisoned it. No
/// lock in this crate re-panics: a rank that unwinds still closes its
/// mailbox (`RankGuard::drop`), and a second panic there would abort the
/// process.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv` while `cond` holds, for at most `timeout`, under the poison
/// rule of [`lock`]. Every condvar wait in this crate is timed.
fn wait_while<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
    cond: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    cv.wait_timeout_while(guard, timeout, cond)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}
