//! `mpiverify` — runtime correctness checking for the MPI universe.
//!
//! MUST/ISP-style dynamic verification, adapted to the threads-as-ranks
//! runtime: every *unbounded* blocking operation (blocking receive,
//! rendezvous send, and the point-to-point waits inside the barrier)
//! registers a blocked-on edge in a shared wait-for graph; a watchdog
//! thread periodically computes which ranks can still make progress and
//! aborts the universe with a per-rank report instead of letting a
//! communication cycle hang the process. Two more checks ride on the same
//! shared state:
//!
//! * **Type signatures** — typed sends stamp their envelope with a
//!   [`WireSig`]; a typed receive that matches it with an incompatible
//!   element type records a [`Finding`] (`u8` is the byte-stream wildcard,
//!   compatible with everything, since MPI-D frames legitimately travel as
//!   raw bytes).
//! * **Finalize-time leak audit** — at universe teardown every mailbox is
//!   drained: undelivered eager payloads, never-claimed rendezvous
//!   handshakes and dangling posted receives become [`Finding`]s in the
//!   [`VerifyReport`].
//!
//! The checker is **observation-only**: it never alters matching order,
//! payloads or results (property-tested in `tests/verify.rs` and the fig6
//! pipeline identity test). Its only intervention is to *abort* a run
//! that would otherwise hang. A lost rank needs no checker: the rank that
//! panics aborts the universe itself, checked or not.
//!
//! ## Deadlock detection
//!
//! The watchdog computes a fixpoint over a snapshot of all rank states:
//! start with the set `P` of ranks that can make progress on their own
//! (running, i.e. not blocked in an unbounded op, and not finished), then
//! repeatedly add blocked ranks that some member of `P` could unblock:
//!
//! * `Recv { src: Some(s) }` can be unblocked only by `s` (non-overtaking
//!   matching; a finished rank can never send again);
//! * a wildcard `Recv` can be unblocked by any other unfinished rank;
//! * `RendezvousSend { dst }` can be unblocked only by `dst` claiming the
//!   payload.
//!
//! Ranks outside the fixpoint are **stuck**: nothing in the universe can
//! ever wake them. This is sound because a blocked rank's observable sends
//! have already happened (the rendezvous envelope is delivered *before* the
//! sender blocks) and finished ranks never act again. To rule out the one
//! racy window — an envelope delivered to a receiver that has not yet been
//! scheduled to wake — a rank whose wait handle is already completed counts
//! as progressing, and an abort requires two consecutive sweeps observing
//! the identical stuck set with identical per-rank sequence numbers.

use crate::comm::WorldState;
use crate::matching::{RecvSlot, Rendezvous};
use crate::types::{MpiError, Rank, Tag};
use crate::{lock, wait_while};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Poll slice of every blocking wait in `comm`: how often a blocked rank
/// wakes to re-check its deadline. An abort wakes it at once
/// ([`WorldState::abort_with`]); the slice only bounds a wake-up missed.
pub(crate) const ABORT_POLL: Duration = Duration::from_millis(25);

/// Checker configuration, part of [`MpiConfig`](crate::MpiConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Master switch. `Universe::run` family defaults to `true`;
    /// `Universe::run_unchecked` is the escape hatch.
    pub enabled: bool,
    /// Watchdog sweep period. Deadlocks are reported after two consecutive
    /// sweeps agree, so worst-case detection latency is about twice this.
    pub watchdog_interval: Duration,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            enabled: true,
            watchdog_interval: Duration::from_millis(40),
        }
    }
}

impl VerifyConfig {
    /// Configuration with the checker switched off.
    pub fn disabled() -> Self {
        VerifyConfig {
            enabled: false,
            ..VerifyConfig::default()
        }
    }
}

/// Type signature a typed send stamps onto its envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSig {
    /// Element type name (`MpiType::NAME`).
    pub type_name: &'static str,
    /// Element size in bytes (`MpiType::WIRE_SIZE`).
    pub elem_size: usize,
    /// Number of elements sent.
    pub count: usize,
}

impl WireSig {
    /// True when a receive of element type `name` may legally match this
    /// signature: identical types, or either side is `u8` (raw bytes).
    pub fn compatible_with(&self, name: &'static str) -> bool {
        self.type_name == name || self.type_name == "u8" || name == "u8"
    }
}

impl fmt::Display for WireSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}×{} ({}B elems)",
            self.count, self.type_name, self.elem_size
        )
    }
}

/// The operation a rank is blocked in (one wait-for-graph node payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockedOp {
    /// Blocking receive; `src`/`tag` of `None` are wildcards.
    Recv {
        /// Expected source, or any.
        src: Option<Rank>,
        /// Expected tag, or any.
        tag: Option<Tag>,
    },
    /// Rendezvous send blocked until the destination claims the payload.
    RendezvousSend {
        /// Destination rank.
        dst: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size in bytes.
        bytes: usize,
    },
}

impl fmt::Display for BlockedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn opt<T: fmt::Display>(v: &Option<T>) -> String {
            v.as_ref().map_or("ANY".to_string(), |x| x.to_string())
        }
        match self {
            BlockedOp::Recv { src, tag } => {
                write!(f, "recv(src={}, tag={})", opt(src), opt(tag))
            }
            BlockedOp::RendezvousSend { dst, tag, bytes } => {
                write!(f, "rendezvous-send(dst={dst}, tag={tag}, {bytes}B)")
            }
        }
    }
}

/// Completion handle for a registered blocked op: lets the watchdog tell a
/// genuinely stuck rank from one whose wakeup is merely scheduled.
#[derive(Debug, Clone)]
pub(crate) enum WaitHandle {
    /// Blocked receive — completed once the slot holds an envelope.
    Slot(Arc<RecvSlot>),
    /// Blocked rendezvous send — completed once the payload is claimed.
    Rv(Arc<Rendezvous>),
}

impl WaitHandle {
    fn completed(&self) -> bool {
        match self {
            WaitHandle::Slot(s) => s.is_ready(),
            WaitHandle::Rv(r) => r.is_taken(),
        }
    }
}

/// One rank's state as seen by the watchdog and embedded in reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankSnapshot {
    /// World rank.
    pub rank: Rank,
    /// State-change counter (bumped on every block/unblock/label change).
    pub seq: u64,
    /// The op the rank is blocked in, if any.
    pub blocked: Option<BlockedOp>,
    /// Collective the rank is currently inside, if any.
    pub in_collective: Option<&'static str>,
    /// The rank's function returned (or panicked).
    pub done: bool,
    /// The rank's function panicked.
    pub panicked: bool,
}

impl fmt::Display for RankSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}: ", self.rank)?;
        if self.panicked {
            return write!(f, "panicked");
        }
        if self.done {
            return write!(f, "finished");
        }
        match &self.blocked {
            None => write!(f, "running"),
            Some(op) => {
                if let Some(c) = self.in_collective {
                    write!(f, "blocked in {c}: {op}")
                } else {
                    write!(f, "blocked in {op}")
                }
            }
        }
    }
}

/// Wait-for-graph deadlock report: the stuck set plus the full per-rank
/// picture at detection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Ranks that can never be unblocked by any possible execution.
    pub stuck: Vec<Rank>,
    /// Snapshot of every rank at detection time.
    pub ranks: Vec<RankSnapshot>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock detected: rank(s) {:?} can never be unblocked",
            self.stuck
        )?;
        for r in &self.ranks {
            writeln!(f, "  {r}")?;
        }
        write!(f, "  (universe aborted by mpiverify watchdog)")
    }
}

/// Report of a run torn down because one or more ranks were lost (crashed
/// mid-communication — in this runtime, a rank function that unwound, e.g.
/// an injected fault-plan crash). The structured alternative to hanging
/// forever on a dead peer: the first rank to unwind aborts the universe,
/// and every wait blocked then or later returns this report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankLostReport {
    /// World ranks that were lost.
    pub lost: Vec<Rank>,
    /// Snapshot of every rank when the loss was detected (empty when the
    /// universe ran unchecked).
    pub ranks: Vec<RankSnapshot>,
}

impl fmt::Display for RankLostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rank(s) {:?} lost: peers can never be unblocked",
            self.lost
        )?;
        for r in &self.ranks {
            writeln!(f, "  {r}")?;
        }
        write!(f, "  (universe aborted on rank loss)")
    }
}

/// One or more rank functions panicked: per-rank payloads plus the
/// verifier's wait-for-graph snapshot taken when the first panic unwound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RanksFailure {
    /// `(rank, panic payload)` for every failed rank.
    pub failed: Vec<(Rank, String)>,
    /// Rank states at the moment the first failure was recorded (empty when
    /// the universe ran unchecked).
    pub snapshot: Vec<RankSnapshot>,
}

impl fmt::Display for RanksFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ranks: Vec<Rank> = self.failed.iter().map(|(r, _)| *r).collect();
        writeln!(f, "rank(s) {ranks:?} panicked:")?;
        for (r, msg) in &self.failed {
            writeln!(f, "  rank {r}: {msg}")?;
        }
        if self.snapshot.is_empty() {
            write!(f, "  (no wait-for-graph snapshot: universe ran unchecked)")
        } else {
            writeln!(f, "  universe state at first failure:")?;
            let mut first = true;
            for s in &self.snapshot {
                if !first {
                    writeln!(f)?;
                }
                first = false;
                write!(f, "    {s}")?;
            }
            Ok(())
        }
    }
}

/// A non-fatal observation from the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// An eagerly-delivered payload was still sitting unclaimed in a
    /// mailbox at universe teardown.
    LeakedEager {
        /// Mailbox owner the message was addressed to.
        to: Rank,
        /// Sender.
        src: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: usize,
    },
    /// A rendezvous handshake was still in flight (envelope delivered,
    /// payload never claimed) at universe teardown.
    LeakedRendezvous {
        /// Mailbox owner the message was addressed to.
        to: Rank,
        /// Sender.
        src: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: usize,
    },
    /// A posted receive never matched any message (e.g. a dropped `irecv`).
    UnmatchedRecv {
        /// The rank that posted it.
        rank: Rank,
        /// Expected source, or any.
        src: Option<Rank>,
        /// Expected tag, or any.
        tag: Option<Tag>,
    },
    /// A typed receive matched a send with an incompatible element type.
    TypeMismatch {
        /// Receiving rank.
        rank: Rank,
        /// Sending rank.
        src: Rank,
        /// Message tag.
        tag: Tag,
        /// What the sender stamped.
        sent: WireSig,
        /// What the receiver asked for.
        expected: &'static str,
    },
    /// A layer above MPI (e.g. MPI-D's `finalize`) reported unclean
    /// shutdown state.
    ShutdownLeak {
        /// Reporting rank.
        rank: Rank,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::LeakedEager {
                to,
                src,
                tag,
                bytes,
            } => write!(
                f,
                "leaked eager message: {bytes}B from rank {src} to rank {to} \
                 (tag={tag}) never received"
            ),
            Finding::LeakedRendezvous {
                to,
                src,
                tag,
                bytes,
            } => write!(
                f,
                "in-flight rendezvous at teardown: {bytes}B from rank {src} to rank {to} \
                 (tag={tag}) never claimed"
            ),
            Finding::UnmatchedRecv { rank, src, tag } => write!(
                f,
                "unmatched posted receive on rank {rank} (src={src:?}, tag={tag:?})"
            ),
            Finding::TypeMismatch {
                rank,
                src,
                tag,
                sent,
                expected,
            } => write!(
                f,
                "type mismatch on rank {rank}: received {sent} from rank {src} \
                 (tag={tag}) into a {expected} buffer"
            ),
            Finding::ShutdownLeak { rank, detail } => {
                write!(f, "unclean shutdown on rank {rank}: {detail}")
            }
        }
    }
}

/// Everything the checker observed over one universe run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Non-fatal observations, in detection order.
    pub findings: Vec<Finding>,
}

impl VerifyReport {
    /// True when nothing suspicious was observed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "mpiverify: clean (no findings)");
        }
        writeln!(f, "mpiverify: {} finding(s):", self.findings.len())?;
        let mut first = true;
        for fd in &self.findings {
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(f, "  - {fd}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct RankState {
    seq: u64,
    blocked: Option<(BlockedOp, WaitHandle)>,
    label: Option<&'static str>,
    done: bool,
    panicked: bool,
}

/// Shared checker state for one universe (one instance per checked run).
#[derive(Debug)]
pub(crate) struct Verifier {
    ranks: Vec<Mutex<RankState>>,
    /// Teardown flag, paired with a condvar so [`Verifier::request_shutdown`]
    /// wakes the watchdog immediately instead of letting it sleep out its
    /// current interval — universe teardown latency would otherwise be a
    /// fixed ~`watchdog_interval` per run, dominating short universes.
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
    findings: Mutex<Vec<Finding>>,
    failure_snapshot: Mutex<Option<Vec<RankSnapshot>>>,
}

impl Verifier {
    pub(crate) fn new(n: usize) -> Self {
        Verifier {
            ranks: (0..n).map(|_| Mutex::new(RankState::default())).collect(),
            shutdown: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            findings: Mutex::new(Vec::new()),
            failure_snapshot: Mutex::new(None),
        }
    }

    /// Register `rank` as blocked in `op`; the returned guard unregisters
    /// on drop (including unwinds).
    pub(crate) fn block_guard(
        &self,
        rank: Rank,
        op: BlockedOp,
        handle: WaitHandle,
    ) -> BlockGuard<'_> {
        let mut st = lock(&self.ranks[rank]);
        st.seq = st.seq.wrapping_add(1);
        st.blocked = Some((op, handle));
        BlockGuard { v: self, rank }
    }

    fn unblock(&self, rank: Rank) {
        let mut st = lock(&self.ranks[rank]);
        st.seq = st.seq.wrapping_add(1);
        st.blocked = None;
    }

    /// Set/clear the "inside barrier" label for a rank.
    pub(crate) fn set_label(&self, rank: Rank, label: Option<&'static str>) {
        let mut st = lock(&self.ranks[rank]);
        st.seq = st.seq.wrapping_add(1);
        st.label = label;
    }

    /// Record that a rank's function returned or unwound. A panicking rank
    /// captures the universe snapshot (once, first panic wins) *before*
    /// being marked done, so the report shows who it left hanging.
    pub(crate) fn mark_done(&self, rank: Rank, panicked: bool) {
        if panicked {
            let mut snap_slot = lock(&self.failure_snapshot);
            if snap_slot.is_none() {
                *snap_slot = Some(self.snapshot());
            }
        }
        let mut st = lock(&self.ranks[rank]);
        st.seq = st.seq.wrapping_add(1);
        st.done = true;
        st.panicked = panicked;
        st.blocked = None;
    }

    /// Snapshot taken when the first rank panicked (empty if none did).
    pub(crate) fn failure_snapshot(&self) -> Vec<RankSnapshot> {
        lock(&self.failure_snapshot).clone().unwrap_or_default()
    }

    /// Record a non-fatal observation.
    pub(crate) fn finding(&self, f: Finding) {
        lock(&self.findings).push(f);
    }

    pub(crate) fn take_findings(&self) -> Vec<Finding> {
        std::mem::take(&mut *lock(&self.findings))
    }

    pub(crate) fn snapshot(&self) -> Vec<RankSnapshot> {
        self.ranks
            .iter()
            .enumerate()
            .map(|(rank, st)| {
                let st = lock(st);
                RankSnapshot {
                    rank,
                    seq: st.seq,
                    blocked: st.blocked.as_ref().map(|(op, _)| op.clone()),
                    in_collective: st.label,
                    done: st.done,
                    panicked: st.panicked,
                }
            })
            .collect()
    }

    /// Like [`Verifier::snapshot`], but a blocked rank whose wait handle
    /// has already completed (wakeup merely pending) counts as running.
    fn live_snapshot(&self) -> Vec<RankSnapshot> {
        self.ranks
            .iter()
            .enumerate()
            .map(|(rank, st)| {
                let st = lock(st);
                let blocked = match &st.blocked {
                    Some((_, h)) if h.completed() => None,
                    other => other.as_ref().map(|(op, _)| op.clone()),
                };
                RankSnapshot {
                    rank,
                    seq: st.seq,
                    blocked,
                    in_collective: st.label,
                    done: st.done,
                    panicked: st.panicked,
                }
            })
            .collect()
    }

    /// Stop the watchdog (universe teardown) and wake it right away.
    pub(crate) fn request_shutdown(&self) {
        *lock(&self.shutdown) = true;
        self.shutdown_cv.notify_all();
    }

    /// Watchdog body: sweep, confirm, abort `world`. Runs on its own
    /// thread. A rank that panics aborts the universe itself (see
    /// `WorldState::rank_lost`), before it is marked done; so a stuck set
    /// the watchdog confirms is a communication deadlock among live or
    /// returned ranks.
    pub(crate) fn run_watchdog(&self, interval: Duration, world: &WorldState) {
        let mut prev: Option<(Vec<Rank>, Vec<u64>)> = None;
        loop {
            let stopped = *wait_while(&self.shutdown_cv, lock(&self.shutdown), interval, |s| !*s);
            if stopped || world.abort_error().is_some() {
                return;
            }
            let snap = self.live_snapshot();
            let stuck = stuck_set(&snap);
            if stuck.is_empty() {
                prev = None;
                continue;
            }
            let seqs: Vec<u64> = snap.iter().map(|s| s.seq).collect();
            let key = (stuck, seqs);
            if prev.as_ref() == Some(&key) {
                world.abort_with(MpiError::Deadlock(Arc::new(DeadlockReport {
                    stuck: key.0,
                    ranks: snap,
                })));
                return;
            }
            prev = Some(key);
        }
    }
}

/// Unregisters a blocked op when dropped.
pub(crate) struct BlockGuard<'a> {
    v: &'a Verifier,
    rank: Rank,
}

impl Drop for BlockGuard<'_> {
    fn drop(&mut self) {
        self.v.unblock(self.rank);
    }
}

/// Clears a rank's "inside barrier" label when dropped.
pub(crate) struct LabelGuard<'a> {
    pub(crate) v: &'a Verifier,
    pub(crate) rank: Rank,
}

impl Drop for LabelGuard<'_> {
    fn drop(&mut self) {
        self.v.set_label(self.rank, None);
    }
}

/// Fixpoint "who can still make progress" computation over a snapshot;
/// returns the ranks no execution can ever unblock. See the module docs
/// for the soundness argument.
fn stuck_set(snap: &[RankSnapshot]) -> Vec<Rank> {
    let n = snap.len();
    let done: Vec<bool> = snap.iter().map(|s| s.done).collect();
    let mut progress: Vec<bool> = snap
        .iter()
        .map(|s| !s.done && s.blocked.is_none())
        .collect();
    loop {
        let mut changed = false;
        for r in 0..n {
            if progress[r] || done[r] {
                continue;
            }
            let can = match &snap[r].blocked {
                Some(BlockedOp::Recv { src: Some(s), .. }) => *s < n && progress[*s],
                Some(BlockedOp::Recv { src: None, .. }) => (0..n).any(|o| o != r && progress[o]),
                Some(BlockedOp::RendezvousSend { dst, .. }) => *dst < n && progress[*dst],
                None => false, // unreachable: non-done, non-blocked ranks start in `progress`
            };
            if can {
                progress[r] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..n).filter(|&r| !done[r] && !progress[r]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(rank: Rank, blocked: Option<BlockedOp>, done: bool) -> RankSnapshot {
        RankSnapshot {
            rank,
            seq: 0,
            blocked,
            in_collective: None,
            done,
            panicked: false,
        }
    }

    fn recv_from(src: Rank) -> Option<BlockedOp> {
        Some(BlockedOp::Recv {
            src: Some(src),
            tag: Some(0),
        })
    }

    #[test]
    fn mutual_recv_cycle_is_stuck() {
        let s = vec![snap(0, recv_from(1), false), snap(1, recv_from(0), false)];
        assert_eq!(stuck_set(&s), vec![0, 1]);
    }

    #[test]
    fn running_rank_rescues_chain() {
        // 0 waits on 1, 1 waits on 2, 2 is running: nobody is stuck.
        let s = vec![
            snap(0, recv_from(1), false),
            snap(1, recv_from(2), false),
            snap(2, None, false),
        ];
        assert!(stuck_set(&s).is_empty());
    }

    #[test]
    fn three_rank_cycle_is_stuck() {
        let s = vec![
            snap(0, recv_from(1), false),
            snap(1, recv_from(2), false),
            snap(2, recv_from(0), false),
        ];
        assert_eq!(stuck_set(&s), vec![0, 1, 2]);
    }

    #[test]
    fn recv_from_finished_rank_is_stuck() {
        let s = vec![snap(0, recv_from(1), false), snap(1, None, true)];
        assert_eq!(stuck_set(&s), vec![0]);
    }

    #[test]
    fn wildcard_recv_survives_while_any_peer_lives() {
        let wildcard = Some(BlockedOp::Recv {
            src: None,
            tag: None,
        });
        let s = vec![snap(0, wildcard.clone(), false), snap(1, None, false)];
        assert!(stuck_set(&s).is_empty());
        // ... but not when every peer has finished.
        let s = vec![snap(0, wildcard, false), snap(1, None, true)];
        assert_eq!(stuck_set(&s), vec![0]);
    }

    #[test]
    fn rendezvous_to_blocked_receiver_pair_is_stuck() {
        // Classic send/send: both parked in rendezvous toward each other.
        let rv = |dst| {
            Some(BlockedOp::RendezvousSend {
                dst,
                tag: 0,
                bytes: 1 << 20,
            })
        };
        let s = vec![snap(0, rv(1), false), snap(1, rv(0), false)];
        assert_eq!(stuck_set(&s), vec![0, 1]);
    }
}
